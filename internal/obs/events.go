package obs

import "time"

// Event is a typed notification from one of the engine's subsystems.
// Events complement metrics: a metric answers "how many / how long", an
// event lets a sink see each individual occurrence (a corruption
// detection, one checkpoint phase, one group-commit batch) with its
// payload.
//
// Sinks run synchronously on the emitting goroutine, sometimes while
// internal latches are held. They must be fast, must not block, and must
// not re-enter the database.
type Event interface {
	// EventName returns a stable, lowercase dotted identifier such as
	// "wal.flush" or "core.corruption".
	EventName() string
}

// Sink receives events from a Registry.
type Sink interface {
	OnEvent(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// OnEvent implements Sink.
func (f SinkFunc) OnEvent(ev Event) { f(ev) }

// LogAppendEvent is emitted for each record appended to the system log
// tail (before it is flushed). Only emitted when a sink is registered.
type LogAppendEvent struct {
	Bytes int // encoded record size in the tail buffer
}

func (LogAppendEvent) EventName() string { return "wal.append" }

// LogFlushEvent is emitted after each physical flush of the system log —
// one group-commit batch. Records and Bytes describe the batch; Fsync is
// the time spent in the file write+sync.
type LogFlushEvent struct {
	Records int           // records in the group-commit batch
	Bytes   int           // bytes written
	Fsync   time.Duration // wall time of the write+fsync
	Err     error         // non-nil if the flush failed
}

func (LogFlushEvent) EventName() string { return "wal.flush" }

// AuditPassEvent is emitted when an audit pass over the codeword table
// finishes (both application-driven passes and checkpoint certification).
type AuditPassEvent struct {
	SN         uint64        // audit sequence number of the pass
	Duration   time.Duration // wall time of the whole pass
	Regions    int           // protection regions audited
	Mismatches int           // codeword mismatches found (net of heals)
	Healed     int           // mismatches repaired in place by the ECC tier
	Clean      bool          // Mismatches == 0
}

func (AuditPassEvent) EventName() string { return "core.audit_pass" }

// PrecheckFailEvent is emitted when a pre-read codeword check detects a
// corrupted region (Read-Precheck and CW-Read-Precheck schemes).
type PrecheckFailEvent struct {
	Region uint64 // protection region number
	Addr   uint64 // address of the attempted read
	Len    int    // length of the attempted read
}

func (PrecheckFailEvent) EventName() string { return "protect.precheck_fail" }

// HealEvent is emitted when the error-correction tier acts on a region:
// a damaged word repaired in place, stale locator planes rebuilt, or
// damage past the correction radius escalated to recovery. Verdict is
// region.Verdict's String() ("repaired", "parity-stale", "unrepairable").
type HealEvent struct {
	Region   uint64        // protection region number
	Verdict  string        // outcome of the repair attempt
	WordAddr uint64        // arena address of the repaired word (verdict "repaired")
	Duration time.Duration // time the repair took (zero for escalations)
}

func (HealEvent) EventName() string { return "core.heal" }

// CorruptionEvent is emitted whenever codeword verification detects
// direct corruption, regardless of which path found it.
type CorruptionEvent struct {
	Source     string // "audit", "precheck", or "checkpoint"
	Mismatches int
}

func (CorruptionEvent) EventName() string { return "core.corruption" }

// CheckpointPhaseEvent is emitted after each phase of a ping-pong
// checkpoint. Phase is one of "flush", "snapshot", "write", "audit",
// "certify", "compact".
type CheckpointPhaseEvent struct {
	SeqNo    uint64 // checkpoint sequence number being written
	Phase    string
	Duration time.Duration
}

func (CheckpointPhaseEvent) EventName() string { return "ckpt.phase" }

// CheckpointEvent is emitted once per completed checkpoint.
type CheckpointEvent struct {
	SeqNo     uint64
	Certified bool          // certification audit found the image clean
	Duration  time.Duration // end-to-end wall time
}

func (CheckpointEvent) EventName() string { return "ckpt.done" }

// LogPoisonedEvent is emitted once, when a failed write or fsync
// fail-stops the system log: no further Append or Flush will succeed
// (retrying a failed fsync is unsound — the kernel may have dropped the
// dirty pages, so a later "successful" fsync proves nothing).
type LogPoisonedEvent struct {
	Cause error // the write/fsync error that poisoned the log
}

func (LogPoisonedEvent) EventName() string { return "wal.poisoned" }

// IOFaultEvent is emitted by the injectable storage-fault layer for each
// fault it fires. Kind is "crash", "failsync", "shortwrite", "enospc" or
// "tornwrite"; Point is the global I/O point at which it fired.
type IOFaultEvent struct {
	Kind  string
	Op    string // the mutating operation kind ("write", "sync", ...)
	Path  string // base name of the file involved
	Point uint64
}

func (IOFaultEvent) EventName() string { return "iofault.fault" }

// CkptFallbackEvent is emitted when recovery found the anchored
// checkpoint image corrupt on disk (torn page, bad meta) and fell back to
// the other ping-pong image.
type CkptFallbackEvent struct {
	From int // the corrupt image the anchor named
	To   int // the image recovery fell back to
}

func (CkptFallbackEvent) EventName() string { return "ckpt.fallback" }

// LockWaitEvent is emitted when a transaction lock acquisition had to
// wait (it is not emitted for immediate grants). TimedOut reports whether
// the wait ended in ErrLockTimeout.
type LockWaitEvent struct {
	Key      uint64
	Wait     time.Duration
	TimedOut bool
}

func (LockWaitEvent) EventName() string { return "lockmgr.wait" }

// LatchWaitEvent is emitted when an instrumented latch acquisition was
// contended (the fast-path try failed and the caller had to block). Only
// emitted when a sink is registered; the wait histogram is always
// maintained.
type LatchWaitEvent struct {
	Name string // latch group, e.g. "protect" or "wal"
	Wait time.Duration
}

func (LatchWaitEvent) EventName() string { return "latch.wait" }
