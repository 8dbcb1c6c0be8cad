package wal

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/iofault"
	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
)

// ErrLogPoisoned is returned by every Append/Flush after a write or fsync
// of the stable log has failed. The log is fail-stop: retrying a failed
// fsync is unsound (the kernel may already have discarded the dirty pages
// whose writeback failed, so a later fsync returning nil proves nothing
// about the lost bytes — the classic "fsyncgate" pattern). Once poisoned,
// the only safe continuation is to crash and run restart recovery, which
// trusts only what the stable log actually contains.
var ErrLogPoisoned = errors.New("wal: log poisoned by write/fsync failure (fail-stop)")

// ErrFlushWaitCanceled reports that a FlushCtx/AppendAndFlushCtx caller's
// context ended while it was queued behind another goroutine's force. The
// caller's records (if any) remain in the tail and may still become
// durable through a later force — the outcome is unresolved, not rolled
// back. The wrapped chain also matches the context's own error.
var ErrFlushWaitCanceled = errors.New("wal: group-commit wait abandoned by context")

// LogFileName is the name of the stable system log within a database
// directory.
const LogFileName = "system.log"

// Log file header: magic plus the base LSN of the first record in the
// file. Compaction discards a durable prefix by rewriting the file with a
// higher base, so LSNs stay stable forever while the file stays bounded.
const (
	logMagic      = "DALILOG1"
	logHeaderSize = 16
)

func encodeLogHeader(base LSN) []byte {
	h := make([]byte, logHeaderSize)
	copy(h, logMagic)
	for i := 0; i < 8; i++ {
		h[8+i] = byte(uint64(base) >> (8 * i))
	}
	return h
}

func decodeLogHeader(h []byte) (LSN, error) {
	if len(h) < logHeaderSize || string(h[:8]) != logMagic {
		return 0, fmt.Errorf("wal: bad log header")
	}
	var base uint64
	for i := 0; i < 8; i++ {
		base |= uint64(h[8+i]) << (8 * i)
	}
	return LSN(base), nil
}

// DirtyNoter receives the pages touched by physical log records as they
// are flushed to the stable log. Dalí notes dirtied pages in the dirty
// page table at flush time (paper §2.1); the checkpointer registers one
// noter per ping-pong image.
type DirtyNoter interface {
	NoteDirty(id mem.PageID)
}

// DirtyNoterFunc adapts a function to the DirtyNoter interface.
type DirtyNoterFunc func(id mem.PageID)

// NoteDirty implements DirtyNoter.
func (f DirtyNoterFunc) NoteDirty(id mem.PageID) { f(id) }

// SystemLog is the system log: an in-memory tail of encoded records plus
// the stable log on disk. The system log latch serializes flushes and
// appends so that LSNs are dense byte offsets into the (stable ++ tail)
// byte stream.
type SystemLog struct {
	latch latch.Latch //dbvet:latch syslog — the paper's "system log latch"
	// flushDone is signalled whenever a flush completes; committers
	// waiting for their records to become durable sleep on it (group
	// commit: the latch is NOT held across the fsync, so appends and
	// other commits proceed while one force is in flight, and a single
	// force covers every record appended before it started).
	flushDone *sync.Cond
	// flushing is true while some goroutine holds the flusher role.
	flushing bool
	// flushLen is the byte length of the buffer currently being forced
	// (its records sit between stableEnd and stableEnd+flushLen).
	flushLen int

	fs        iofault.FS
	dir       string
	f         iofault.File
	baseLSN   LSN    // LSN of the first record in the file (post-compaction)
	stableEnd LSN    // everything below this LSN is on disk
	tail      []byte // encoded records not yet flushed
	tailRecs  []tailRec
	pageSize  int

	// poisoned, once set, permanently fails every Append/Flush (fail-stop
	// after a stable-log write/fsync failure). Guarded by the log latch.
	poisoned error

	noters []DirtyNoter

	flushes uint64
	appends uint64

	// Observability. The metric handles are resolved once (at open or
	// SetRegistry) so hot paths pay only the atomic add, never a map
	// lookup. reg defaults to nil (private metrics, no sinks) until the
	// owning database wires its registry in.
	reg          *obs.Registry
	mAppends     *obs.Counter
	mAppendBytes *obs.Counter
	mFlushes     *obs.Counter
	mFlushErrors *obs.Counter
	mPoisoned    *obs.Counter
	mCompactions *obs.Counter
	hFsyncNS     *obs.Histogram
	hFlushBytes  *obs.Histogram
	hGroupCommit *obs.Histogram
}

// SetRegistry wires the log's metrics and events into reg: append/flush
// counters, fsync-duration and flush-size histograms, the group-commit
// batch-size histogram, and wait instrumentation on the system log latch.
// Must be called before concurrent use begins (core.Open does this while
// building the database). A nil registry leaves the log counting into
// private, unregistered metrics.
func (l *SystemLog) SetRegistry(reg *obs.Registry) {
	l.reg = reg
	l.initMetrics()
	l.latch.Instrument(reg, "wal", reg.Histogram(obs.NameWALLatchWaitNS), reg.Counter(obs.NameWALLatchContends))
}

func (l *SystemLog) initMetrics() {
	reg := l.reg
	l.mAppends = reg.Counter(obs.NameWALAppends)
	l.mAppendBytes = reg.Counter(obs.NameWALAppendBytes)
	l.mFlushes = reg.Counter(obs.NameWALFlushes)
	l.mFlushErrors = reg.Counter(obs.NameWALFlushErrors)
	l.mPoisoned = reg.Counter(obs.NameWALPoisoned)
	l.mCompactions = reg.Counter(obs.NameWALCompactions)
	l.hFsyncNS = reg.Histogram(obs.NameWALFsyncNS)
	l.hFlushBytes = reg.Histogram(obs.NameWALFlushBytes)
	l.hGroupCommit = reg.Histogram(obs.NameWALGroupCommit)
}

// endLocked is the LSN one past the last appended record, accounting for
// an in-flight flush buffer.
func (l *SystemLog) endLocked() LSN {
	return l.stableEnd + LSN(l.flushLen+len(l.tail))
}

type tailRec struct {
	lsn  LSN
	kind Kind
	addr mem.Addr
	n    int // data length for phys-redo
}

// OpenSystemLog opens (creating if necessary) the stable log in dir on
// the real filesystem. An existing log is scanned to find its valid end;
// a torn final record is truncated away. pageSize is used to translate
// physical record addresses into dirty page notifications.
func OpenSystemLog(dir string, pageSize int) (*SystemLog, error) {
	return OpenSystemLogFS(iofault.OS, dir, pageSize)
}

// OpenSystemLogFS is OpenSystemLog with the log's durability I/O routed
// through an iofault.FS, so storage-fault campaigns can inject fsync
// failures, short writes and crash points into the stable log.
//
// A directory holding a multi-stream log is refused before anything in it
// is opened or truncated (see CheckSingleLog).
func OpenSystemLogFS(fsys iofault.FS, dir string, pageSize int) (*SystemLog, error) {
	if err := CheckSingleLog(fsys, dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, LogFileName)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open system log: %w", err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: read system log: %w", err)
	}
	var base LSN
	if len(data) == 0 {
		// Fresh log: write the header.
		if _, err := f.Write(encodeLogHeader(0)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: init log header: %w", err)
		}
		data = encodeLogHeader(0)
	} else {
		base, err = decodeLogHeader(data)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	// Find the valid record prefix after the header.
	valid := logHeaderSize
	for valid < len(data) {
		_, n, err := DecodeFrame(data[valid:])
		if err != nil {
			break
		}
		valid += n
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, err
	}
	l := &SystemLog{
		fs: fsys, dir: dir, f: f, baseLSN: base,
		stableEnd: base + LSN(valid-logHeaderSize),
		pageSize:  pageSize,
	}
	l.flushDone = sync.NewCond(&l.latch)
	return l, nil
}

// BaseLSN reports the LSN of the oldest record retained in the stable
// log (records below it have been compacted away).
func (l *SystemLog) BaseLSN() LSN {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.baseLSN
}

// Compact discards stable records below keepFrom by rewriting the log
// file with a higher base LSN. The caller must guarantee no consumer
// needs records below keepFrom (the checkpointer compacts to the current
// certified anchor's CK_end after toggling it). Compacting to an LSN in
// the future, below the current base, or not on a record boundary is an
// error; compacting is atomic (write temp + rename).
func (l *SystemLog) Compact(keepFrom LSN) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	for l.flushing {
		l.flushDone.Wait()
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	if keepFrom < l.baseLSN {
		return fmt.Errorf("wal: compact to %d below base %d", keepFrom, l.baseLSN)
	}
	if keepFrom > l.stableEnd {
		return fmt.Errorf("wal: compact to %d beyond stable end %d", keepFrom, l.stableEnd)
	}
	if keepFrom == l.baseLSN {
		return nil
	}
	path := filepath.Join(l.dir, LogFileName)
	data, err := l.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: compact read: %w", err)
	}
	cut := logHeaderSize + int(keepFrom-l.baseLSN)
	if cut > len(data) {
		return fmt.Errorf("wal: compact cut beyond file")
	}
	// Verify the cut lands on a record boundary (or end of file).
	if cut < len(data) {
		if _, _, err := DecodeFrame(data[cut:]); err != nil {
			return fmt.Errorf("wal: compact point %d is not a record boundary", keepFrom)
		}
	}
	tmp := path + ".compact"
	out, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := out.Write(encodeLogHeader(keepFrom)); err != nil {
		out.Close()
		return err
	}
	if _, err := out.Write(data[cut:]); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, path); err != nil {
		return err
	}
	// Reopen the handle positioned at the new end.
	nf, err := l.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(0, 2); err != nil {
		nf.Close()
		return err
	}
	l.f.Close()
	l.f = nf
	l.baseLSN = keepFrom
	l.mCompactions.Inc()
	return nil
}

// RegisterDirtyNoter adds a recipient for dirty-page notifications
// generated during flush. Must be called before concurrent use begins.
func (l *SystemLog) RegisterDirtyNoter(n DirtyNoter) {
	l.noters = append(l.noters, n)
}

// Append encodes records into the log tail, assigning their LSNs. The
// records become durable only at the next Flush. Append is used by
// operation commit, which moves a transaction's pending local redo
// records into the tail as a unit before the operation's locks are
// released. Once the log is poisoned by a write/fsync failure, Append
// fails with a wrapped ErrLogPoisoned and appends nothing.
func (l *SystemLog) Append(recs ...*Record) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		return l.poisoned
	}
	l.appendLocked(recs)
	return nil
}

func (l *SystemLog) appendLocked(recs []*Record) {
	for _, r := range recs {
		r.LSN = l.endLocked()
		before := len(l.tail)
		l.tail = r.Encode(l.tail)
		l.tailRecs = append(l.tailRecs, tailRec{lsn: r.LSN, kind: r.Kind, addr: r.Addr, n: len(r.Data)})
		l.appends++
		l.mAppends.Inc()
		l.mAppendBytes.Add(uint64(len(l.tail) - before))
		if l.reg.HasSinks() {
			l.reg.Emit(obs.LogAppendEvent{Bytes: len(l.tail) - before})
		}
	}
}

// poisonLocked fail-stops the log: the tail is discarded (it can never
// become durable), every future Append/Flush returns the poison error,
// and every goroutine sleeping on flushDone is woken so none blocks
// forever waiting for a flush that will never complete. Caller holds the
// log latch.
func (l *SystemLog) poisonLocked(cause error) {
	if l.poisoned != nil {
		return
	}
	l.poisoned = fmt.Errorf("%w: %w", ErrLogPoisoned, cause)
	l.tail = nil
	l.tailRecs = nil
	l.mPoisoned.Inc()
	if l.reg.HasSinks() {
		l.reg.Emit(obs.LogPoisonedEvent{Cause: cause})
	}
	l.flushDone.Broadcast()
}

// Poisoned reports the poison error if the log has fail-stopped, nil
// otherwise.
func (l *SystemLog) Poisoned() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.poisoned
}

// End reports the LSN one past the last appended record (stable or not).
func (l *SystemLog) End() LSN {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.endLocked()
}

// StableEnd reports the paper's end_of_stable_log: every record below this
// LSN is known to be on disk.
func (l *SystemLog) StableEnd() LSN {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.stableEnd
}

// Flush forces everything appended so far to the stable log and notifies
// the registered dirty noters of every page touched by a flushed physical
// record. The system log latch is released during the disk force, so
// appends and other commits proceed meanwhile (group commit); Flush
// returns once every record appended before the call is durable.
func (l *SystemLog) Flush() error {
	return l.FlushCtx(context.Background())
}

// FlushCtx is Flush with a context bounding the group-commit wait: if the
// context ends while the call is queued behind another goroutine's force,
// FlushCtx gives up and returns the context's error. A force this
// goroutine itself started is always carried to completion — cancellation
// never abandons a write in flight, it only stops waiting for one.
func (l *SystemLog) FlushCtx(ctx context.Context) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		return l.poisoned
	}
	return l.flushToLocked(ctx, l.endLocked())
}

// flushToLocked blocks until stableEnd >= target, becoming the flusher
// when no other goroutine is forcing. Callers hold the latch; it is
// dropped across the disk write and reacquired. The context bounds only
// the time spent waiting on another goroutine's force.
func (l *SystemLog) flushToLocked(ctx context.Context, target LSN) error {
	var stopWatch chan struct{}
	for l.stableEnd < target {
		if l.poisoned != nil {
			// A previous flush failed: the records below target can never
			// become durable. Fail-stop instead of blocking forever.
			return l.poisoned
		}
		if err := ctx.Err(); err != nil {
			// Still short of target and the caller's deadline has passed.
			// Appended records stay in the tail; a later force will carry
			// them, so the caller's outcome is unresolved, not aborted.
			return fmt.Errorf("%w: %w", ErrFlushWaitCanceled, err)
		}
		if l.flushing {
			// Another goroutine is forcing; its completion may cover us.
			// Before sleeping, arm a watcher (once) that wakes the
			// group-commit sleepers when the context ends, so a canceled
			// waiter observes it promptly.
			if ctx.Done() != nil && stopWatch == nil {
				stopWatch = make(chan struct{})
				defer close(stopWatch)
				go l.watchFlushWait(ctx, stopWatch)
			}
			l.flushDone.Wait()
			continue
		}
		if len(l.tail) == 0 {
			// Nothing pending and nobody flushing: target was covered by
			// a force that completed between our checks.
			break
		}
		// Become the flusher for the whole current tail.
		buf := l.tail
		recs := l.tailRecs
		l.tail = nil
		l.tailRecs = nil
		l.flushing = true
		l.flushLen = len(buf)
		l.latch.Unlock()

		start := time.Now()
		_, werr := l.f.Write(buf)
		var serr error
		if werr == nil {
			serr = l.f.Sync()
		}
		fsync := time.Since(start)
		ferr := werr
		if ferr == nil {
			ferr = serr
		}
		// One group-commit batch: record its size in records and bytes
		// and the time spent in the write+sync. No latch is held here.
		l.hFsyncNS.ObserveDuration(fsync)
		l.hFlushBytes.Observe(uint64(len(buf)))
		l.hGroupCommit.Observe(uint64(len(recs)))
		if ferr != nil {
			l.mFlushErrors.Inc()
		} else {
			l.mFlushes.Inc()
		}
		if l.reg.HasSinks() {
			l.reg.Emit(obs.LogFlushEvent{Records: len(recs), Bytes: len(buf), Fsync: fsync, Err: ferr})
		}

		//dbvet:allow latchorder flush reacquires the log latch it dropped for disk I/O; the caller's bracket releases it
		l.latch.Lock()
		l.flushing = false
		l.flushLen = 0
		if werr != nil || serr != nil {
			// Fail-stop (the fsyncgate fix): after a failed write or fsync
			// the on-disk state of these bytes is unknown, and the kernel
			// may already have dropped the dirty pages — re-queuing the
			// tail and retrying would let a later fsync "succeed" without
			// the lost bytes ever reaching disk, silently breaking the WAL
			// contract. Poison the log instead: every waiter wakes with
			// ErrLogPoisoned, every future Append/Flush fails, and the only
			// way forward is crash + restart recovery from the stable
			// prefix.
			stage := "flush"
			if werr == nil {
				stage = "sync"
			}
			cause := werr
			if cause == nil {
				cause = serr
			}
			l.poisonLocked(fmt.Errorf("wal: %s: %w", stage, cause))
			return l.poisoned
		}
		l.stableEnd += LSN(len(buf))
		l.flushes++
		for _, tr := range recs {
			if tr.kind != KindPhysRedo || tr.n == 0 {
				continue
			}
			first := mem.PageID(uint64(tr.addr) / uint64(l.pageSize))
			last := mem.PageID((uint64(tr.addr) + uint64(tr.n) - 1) / uint64(l.pageSize))
			for id := first; id <= last; id++ {
				for _, n := range l.noters {
					n.NoteDirty(id)
				}
			}
		}
		l.flushDone.Broadcast()
	}
	return nil
}

// AppendAndFlush appends records and forces them durable before
// returning (transaction commit). Concurrent committers share forces:
// whichever becomes the flusher covers everyone appended before it.
func (l *SystemLog) AppendAndFlush(recs ...*Record) error {
	return l.AppendAndFlushCtx(context.Background(), recs...)
}

// AppendAndFlushCtx is AppendAndFlush with a context bounding the
// group-commit wait. A context that has already ended fails the call
// before anything is appended (the caller can still abort cleanly). If
// the context ends while waiting on another goroutine's force, the
// records remain in the tail — they may still become durable through a
// later force — and the context's error is returned; the caller must
// treat the outcome as unresolved, not aborted.
func (l *SystemLog) AppendAndFlushCtx(ctx context.Context, recs ...*Record) error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		return l.poisoned
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.appendLocked(recs)
	return l.flushToLocked(ctx, l.endLocked())
}

// watchFlushWait wakes every group-commit sleeper when ctx ends; stop
// (closed when the waiting call returns) bounds its lifetime.
func (l *SystemLog) watchFlushWait(ctx context.Context, stop <-chan struct{}) {
	select {
	case <-ctx.Done():
	case <-stop:
		return
	}
	l.latch.Lock()
	l.flushDone.Broadcast()
	l.latch.Unlock()
}

// Flushes reports the number of flush operations performed.
func (l *SystemLog) Flushes() uint64 {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.flushes
}

// Appends reports the number of records appended.
func (l *SystemLog) Appends() uint64 {
	l.latch.Lock()
	defer l.latch.Unlock()
	return l.appends
}

// Reset discards the entire log (stable and tail) and restarts LSNs from
// zero. Corruption recovery ends with a checkpoint that "invalidates all
// archives" (paper §4.3); resetting the log afterwards keeps the anchor,
// checkpoint and log mutually consistent.
func (l *SystemLog) Reset() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	for l.flushing {
		l.flushDone.Wait()
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	// A reset that fails midway leaves the stable log in an unknown state
	// (possibly truncated, possibly a half-written header): fail-stop, same
	// as a failed flush.
	if err := l.f.Truncate(0); err != nil {
		l.poisonLocked(err)
		return fmt.Errorf("wal: reset: %w", l.poisoned)
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		l.poisonLocked(err)
		return l.poisoned
	}
	if _, err := l.f.Write(encodeLogHeader(0)); err != nil {
		l.poisonLocked(err)
		return fmt.Errorf("wal: reset header: %w", l.poisoned)
	}
	if err := l.f.Sync(); err != nil {
		l.poisonLocked(err)
		return l.poisoned
	}
	l.baseLSN = 0
	l.stableEnd = 0
	l.tail = l.tail[:0]
	l.tailRecs = l.tailRecs[:0]
	return nil
}

// Close flushes and closes the stable log. A poisoned log is closed
// without flushing (the tail was already discarded at poison time).
func (l *SystemLog) Close() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	if l.poisoned != nil {
		l.f.Close()
		return l.poisoned
	}
	if err := l.flushToLocked(context.Background(), l.endLocked()); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// CloseWithoutFlush closes the stable log discarding the in-memory tail.
// Used by crash simulation in tests: records not yet flushed are lost,
// exactly as they would be in a process crash.
func (l *SystemLog) CloseWithoutFlush() error {
	l.latch.Lock()
	defer l.latch.Unlock()
	for l.flushing {
		l.flushDone.Wait()
	}
	return l.f.Close()
}

// LogBase reports the base LSN of the stable log in dir (the oldest
// retained record); zero for a missing or empty log. It reads through the
// real filesystem; recovery paths with an injectable FS use LogBaseFS.
func LogBase(dir string) (LSN, error) { return LogBaseFS(iofault.OS, dir) }

// LogBaseFS is LogBase reading through fsys, so recovery observes the
// same (possibly fault-injected) filesystem the engine writes through.
func LogBaseFS(fsys iofault.FS, dir string) (LSN, error) {
	if err := CheckSingleLog(fsys, dir); err != nil {
		return 0, err
	}
	data, err := fsys.ReadFile(filepath.Join(dir, LogFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	if len(data) == 0 {
		return 0, nil
	}
	return decodeLogHeader(data)
}

// TruncateAt discards every stable record at or after lsn, which must be
// a record boundary at or above the log base. Prior-state recovery uses
// this to cut history; the log must not be open for writing. It operates
// on the real filesystem; recovery paths use TruncateAtFS.
func TruncateAt(dir string, lsn LSN) error { return TruncateAtFS(iofault.OS, dir, lsn) }

// TruncateAtFS is TruncateAt through fsys. The shortened log is forced
// durable before returning: a prior-state cut that silently reverts on
// crash would resurrect the history the caller just discarded.
func TruncateAtFS(fsys iofault.FS, dir string, lsn LSN) error {
	if err := CheckSingleLog(fsys, dir); err != nil {
		return err
	}
	path := filepath.Join(dir, LogFileName)
	data, err := fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	base, err := decodeLogHeader(data)
	if err != nil {
		return err
	}
	if lsn < base {
		return fmt.Errorf("wal: truncate point %d precedes log base %d", lsn, base)
	}
	cut := logHeaderSize + int(lsn-base)
	if cut > len(data) {
		return fmt.Errorf("wal: truncate point %d beyond log end", lsn)
	}
	if cut < len(data) {
		if _, _, err := DecodeFrame(data[cut:]); err != nil {
			return fmt.Errorf("wal: truncate point %d is not a record boundary", lsn)
		}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := f.Truncate(int64(cut)); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate: %w", err)
	}
	return f.Close()
}

// Scan reads the stable log in dir from LSN from, invoking fn for each
// record in order. Scanning stops at the first torn record (treated as end
// of log) or when fn returns false. It is used by restart and corruption
// recovery; the log file must not be concurrently written. It reads the
// real filesystem; recovery paths with an injectable FS use ScanFS.
func Scan(dir string, from LSN, fn func(*Record) bool) error {
	return ScanFS(iofault.OS, dir, from, fn)
}

// ScanFS is Scan reading through fsys.
func ScanFS(fsys iofault.FS, dir string, from LSN, fn func(*Record) bool) error {
	if err := CheckSingleLog(fsys, dir); err != nil {
		return err
	}
	data, err := fsys.ReadFile(filepath.Join(dir, LogFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: scan: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	base, err := decodeLogHeader(data)
	if err != nil {
		return err
	}
	if from < base {
		return fmt.Errorf("wal: scan start %d precedes log base %d (compacted away)", from, base)
	}
	end := base + LSN(len(data)-logHeaderSize)
	if from > end {
		return fmt.Errorf("wal: scan start %d beyond log end %d", from, end)
	}
	pos := logHeaderSize + int(from-base)
	for pos < len(data) {
		r, n, err := DecodeFrame(data[pos:])
		if err != nil {
			return nil // torn tail: end of log
		}
		r.LSN = base + LSN(pos-logHeaderSize)
		if !fn(r) {
			return nil
		}
		pos += n
	}
	return nil
}

// ErrMultiStreamLog is wrapped by every refusal of a directory written by
// an older build that could split the system log into several stream
// files. Such a database spreads acknowledged commits over system.log and
// its siblings, and its anchor, checkpoint meta files and archives carry a
// per-stream position vector; reading system.log alone would silently
// drop every commit held in the other files, so this build refuses it.
var ErrMultiStreamLog = errors.New("multi-stream log layout is not supported; this build reads only a single system.log")

// legacyMaxStreams is the stream count cap of the multi-stream layout:
// its files were system.log plus system-1.log through system-63.log.
const legacyMaxStreams = 64

// CheckSingleLog refuses a directory that holds a log stream file of the
// multi-stream layout (system-N.log, N >= 1). It probes every file name
// that layout could write with a metadata Stat and reads nothing, so a
// refused directory is left exactly as it was. A missing directory passes:
// it holds no log at all.
func CheckSingleLog(fsys iofault.FS, dir string) error {
	for i := 1; i < legacyMaxStreams; i++ {
		path := filepath.Join(dir, "system-"+strconv.Itoa(i)+".log")
		_, err := fsys.Stat(path)
		if err == nil {
			return fmt.Errorf("wal: %s: %w", path, ErrMultiStreamLog)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: probe %s: %w", path, err)
		}
	}
	return nil
}
