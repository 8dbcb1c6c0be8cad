// Package iofault abstracts the storage manager's durability I/O behind a
// small File/FS interface pair and provides a deterministic
// fault-injecting implementation. The paper's threat model is addressing
// errors in memory — package fault injects exactly those — but the
// durability path (WAL group-commit flushes, ping-pong checkpoint image
// writes, the anchor install, archives) talks to the filesystem, and its
// error paths are exactly the ones a production deployment exercises
// least and needs most. This package is the storage-side twin of the
// memory fault injector: os.File satisfies the interface in production,
// and FaultFS wraps it with seeded failpoints — fail-the-Nth-fsync, short
// writes, ENOSPC, torn page writes (lying storage: a write that reports
// success but persists only a prefix), and crash-at-I/O-point-K, which
// freezes a simulated durable state at exactly the bytes synced so far so
// a torture harness can restart recovery against every possible crash
// prefix.
//
// Durability model (deliberately strict, deterministic POSIX):
//
//   - Write/WriteAt/Truncate mutate only the volatile state (what the
//     running process reads back). Nothing unsynced survives a crash.
//   - File.Sync makes the file's current content durable, and also
//     commits any pending directory-entry operation (creation or rename)
//     for that path — matching journaled filesystems, where fsync of a
//     file forces the metadata operations it depends on.
//   - Rename and file creation are directory-entry operations: durable
//     only after FS.SyncDir on the parent (or a subsequent Sync of the
//     file at that path). A crash before that exposes the pre-rename
//     entries — the old target content and the synced temp file.
//   - Crash-at-point-K: every mutating operation consumes one global I/O
//     point; the operation at point K (and everything after it) fails
//     with ErrCrashed without being applied, so the durable state is
//     frozen at the prefix of synced bytes. MaterializeDurable writes
//     that frozen state into a directory for recovery to consume.
package iofault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the handle interface the durability paths write through. It is
// the subset of *os.File the WAL, checkpointer and archiver need.
type File interface {
	io.Writer
	io.WriterAt
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
}

// FS is the filesystem interface the durability paths open files and
// manipulate directory entries through. Read-only helpers are included so
// a fault filesystem can fail reads after a simulated crash.
type FS interface {
	// OpenFile opens (or creates) a file for writing.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole (volatile) content of a file.
	ReadFile(name string) ([]byte, error)
	// Stat reports metadata for the (volatile) file at name without
	// reading its content — existence probes over large files (the
	// multi-stream log refusal, wal.CheckSingleLog) must not cost a
	// full-file read. A missing file yields an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	Stat(name string) (os.FileInfo, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs a directory, making entry operations (creates,
	// renames) within it durable.
	SyncDir(dir string) error
}

// osFS is the production implementation: plain os calls.
type osFS struct{}

// OS is the production filesystem: every call maps 1:1 onto package os.
var OS FS = osFS{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileSync writes data to path through fsys and forces it durable
// (open, write, fsync, close). The shared "write a small metadata file
// safely" helper used by the checkpoint anchor, checkpoint meta files and
// archives.
func WriteFileSync(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ErrCrashed is returned by every mutating operation at and after the
// configured crash point: the simulated machine is down, and the durable
// state is frozen at the bytes synced before the point.
var ErrCrashed = errors.New("iofault: simulated crash")

// ErrInjected is the sentinel wrapped by every injected I/O failure
// (failed fsync, short write, ENOSPC), so callers and tests can
// distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("iofault: injected I/O error")

// ErrNoSpace is the injected ENOSPC; it wraps ErrInjected.
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

// rel returns path relative to root for durable-state bookkeeping.
func rel(root, path string) string {
	r, err := filepath.Rel(root, filepath.Clean(path))
	if err != nil {
		return filepath.Clean(path)
	}
	return r
}
