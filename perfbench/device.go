package main

import (
	"os"

	"repro/internal/iofault"
)

// pageCacheFS is the storage medium the benchmark's databases run on:
// real files in the workdir, whose fsyncs return once the data is in the
// page cache, as on tmpfs. The engine still forces the log at every commit
// and still pays the write; only the device round trip is left out. On a
// disk shared with other machines that round trip varied from 0.06 ms to
// 4.4 ms from one second to the next, which moved the commit-bound
// workloads' throughput by a quarter between identical runs and would hide
// any change to the code. The workdir's real fsync latency is still
// measured and reported with every result.
type pageCacheFS struct{}

type pageCacheFile struct{ *os.File }

// Sync leaves the written data in the page cache. A crash drill discards
// the engine's unwritten log tail (core.DB.Crash), not the page cache, so
// recovery sees exactly what was written.
func (pageCacheFile) Sync() error { return nil }

func (pageCacheFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{f}, nil
}

func (pageCacheFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (pageCacheFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (pageCacheFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (pageCacheFS) SyncDir(string) error { return nil }
