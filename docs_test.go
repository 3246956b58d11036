package dkindex

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists holds the prose to the tree: README.md,
// DESIGN.md, EXPERIMENTS.md and the verify skill may name a `make <target>`
// only if the Makefile's .PHONY line lists it, a BENCH_* file only if it is
// in the repository, and a `dkbench -exp <id>` only if cmd/dkbench's
// experiment table has it. CHANGES.md and ROADMAP.md are history and exempt.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	submatches := func(pattern, text string) map[string]bool {
		set := map[string]bool{}
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(text, -1) {
			set[m[1]] = true
		}
		return set
	}

	targets := map[string]bool{}
	for _, line := range strings.Split(read("Makefile"), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, name := range strings.Fields(rest) {
				targets[name] = true
			}
		}
	}
	// The table's rows open with their id: {"fig4", "Figure 4: ...
	ids := submatches(`(?m)^\t\{"([a-z0-9-]+)", "`, read("cmd/dkbench/main.go"))
	ids["all"] = true
	files := map[string]bool{}
	recorded, err := filepath.Glob("BENCH_*")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range recorded {
		files[name] = true
	}
	if len(targets) == 0 || len(ids) < 2 || len(files) == 0 {
		t.Fatalf("nothing to check against: %d make targets, %d experiment ids, %d BENCH_ files", len(targets), len(ids), len(files))
	}

	// Every mention in these files opens a code span or sits in a code block;
	// a line break may fall between the command and its argument.
	checks := []struct {
		what    string
		pattern string
		exists  map[string]bool
	}{
		{"make target", "`make\\s+([a-z][a-z0-9-]*)", targets},
		{"dkbench experiment", `-exp\s+([a-z][a-z0-9-]*)`, ids},
		{"recorded file", `\b(BENCH_[A-Za-z0-9_]+(?:\.[a-z]+)?)`, files},
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text := read(doc)
		for _, check := range checks {
			for name := range submatches(check.pattern, text) {
				if !check.exists[name] {
					t.Errorf("%s names the %s %q, which does not exist", doc, check.what, name)
				}
			}
		}
	}
}
