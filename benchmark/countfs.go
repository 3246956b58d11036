package main

import (
	"sync/atomic"

	"dkindex/internal/fsx"
)

// countingFS wraps the filesystem a Store persists on (StoreOptions.FS). It
// counts what reaches the device layer — writes, bytes written, file fsyncs,
// directory fsyncs, renames — and, when tr is set, records a span around
// each of those calls.
type countingFS struct {
	fsx.FS
	tr *tracer

	writes     atomic.Int64
	writeBytes atomic.Int64
	fsyncs     atomic.Int64
	dirSyncs   atomic.Int64
	renames    atomic.Int64
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct {
	Writes, WriteBytes, Fsyncs, DirSyncs, Renames int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{
		Writes: c.writes.Load(), WriteBytes: c.writeBytes.Load(),
		Fsyncs: c.fsyncs.Load(), DirSyncs: c.dirSyncs.Load(), Renames: c.renames.Load(),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		Writes: a.Writes - b.Writes, WriteBytes: a.WriteBytes - b.WriteBytes,
		Fsyncs: a.Fsyncs - b.Fsyncs, DirSyncs: a.DirSyncs - b.DirSyncs, Renames: a.Renames - b.Renames,
	}
}

func (c *countingFS) wrap(f fsx.File, err error) (fsx.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Create(path string) (fsx.File, error) { return c.wrap(c.FS.Create(path)) }
func (c *countingFS) Open(path string) (fsx.File, error)   { return c.wrap(c.FS.Open(path)) }
func (c *countingFS) OpenRW(path string) (fsx.File, error) { return c.wrap(c.FS.OpenRW(path)) }

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	s := c.tr.begin("fsx.rename")
	defer c.tr.end(s)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(dir string) error {
	c.dirSyncs.Add(1)
	s := c.tr.begin("fsx.syncdir")
	defer c.tr.end(s)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	fsx.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	s := f.fs.tr.begin("fsx.write")
	n, err := f.File.Write(p)
	f.fs.tr.end(s)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.fsyncs.Add(1)
	s := f.fs.tr.begin("fsx.sync")
	defer f.fs.tr.end(s)
	return f.File.Sync()
}
