package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// gitCommit is the checkout's HEAD, or "none" where there is no repository
// (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// printEnv prints the environment block every report carries.
func printEnv(w io.Writer, cfg *runConfig, p *prepared, opsSum uint64) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d workload=%s seconds=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit(), cfg.seed, cfg.w.name, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "env: dataset=xmark scale=%g nodes=%d edges=%d labels=%d xml_bytes=%d plan_ops=%d gen_s=%.3f oplist_fnv=%016x\n",
		p.Scale, p.Nodes, p.Edges, p.Labels, p.XMLBytes, len(p.Plan), p.GenS, opsSum)
	fmt.Fprintf(w, "env: dir=%s fs=%s pid=%d\n", cfg.dir, fsType(cfg.dir), os.Getpid())
}
