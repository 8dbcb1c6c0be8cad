// Package check is the database consistency checker: the cross-structure
// audits a DBA runs after recovery or on a schedule, complementing the
// codeword audits (which verify bytes against codewords but know nothing
// of structure). It verifies the heap catalog against allocation bitmaps,
// hash indexes against the heap records they point to, the checkpoint
// anchor against the retained log, the system log's stable end and
// poison state, and the codeword audit itself.
package check

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/hashidx"
	"repro/internal/heap"
	"repro/internal/region"
	"repro/internal/wal"
)

// Severity grades a Problem for exit-status and alerting decisions.
type Severity int

const (
	// SevWarning marks advisory findings: the check ran under conditions
	// that weaken its guarantees (active transactions) but no structural
	// invariant is known broken. dbcheck exits 0 on warnings alone.
	SevWarning Severity = iota
	// SevError marks a violated invariant: corruption or inconsistency a
	// DBA must act on. dbcheck exits 1.
	SevError
)

func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// Stable machine-readable problem codes. Tooling keys on these; the
// human-readable Desc text may be reworded freely. Codes are grouped by
// area (CW00x att, CW01x codeword, CW02x heap, CW03x index, CW04x
// checkpoint, CW05x log, CW06x ecc) and are never renumbered or reused.
// CW050 is retired: it reported holes in the global sequence of the
// multi-stream log layout, which no longer exists.
//
// The CW05x codes are runtime counterparts of dbvet's log contracts:
// CW051 checks what the lockfield pass guards (log positions that only
// move under the system log latch stay ordered), CW052 the poison
// transition the errflow pass forces failed syncs through.
const (
	CodeActiveTxns       = "CW001" // transactions active while checking
	CodeCodewordMismatch = "CW010" // region codeword does not match data
	CodeHeapRecordRange  = "CW020" // allocated record outside the arena
	CodeHeapCount        = "CW021" // table count disagrees with bitmap scan
	CodeIndexUnreadable  = "CW030" // index bucket chain unreadable
	CodeIndexDupKey      = "CW031" // duplicate key in a unique index
	CodeIndexDangling    = "CW032" // entry points at unallocated record
	CodeIndexCount       = "CW033" // index count disagrees with entry scan
	CodeCkptAnchorBase   = "CW040" // anchor precedes retained log base
	CodeCkptAnchorEnd    = "CW041" // anchor beyond log end
	CodeCkptImage        = "CW042" // checkpoint image unloadable
	CodeLogWatermark     = "CW051" // log position inversion (stable end beyond tail end)
	CodeLogPoisoned      = "CW052" // system log fail-stopped (poisoned)
	CodeECCRepairable    = "CW060" // single-word damage located; repairable in place (run with heal)
	CodeECCRepaired      = "CW061" // damage was repaired in place during this check
	CodeECCUnrepairable  = "CW062" // damage past the correction radius; escalate to recovery
	CodeECCParityStale   = "CW063" // locator planes stale over intact data (rebuilt when healing)
)

// Problem is one consistency finding.
type Problem struct {
	// Code is the stable machine-readable identifier (CW0xx).
	Code string
	// Severity grades the finding; see the Sev constants.
	Severity Severity
	// Area is "codeword", "heap", "index", "checkpoint", "log" or "att".
	Area string
	// Desc describes the violation.
	Desc string
}

func (p Problem) String() string {
	return p.Code + " " + p.Severity.String() + " " + p.Area + ": " + p.Desc
}

// sweepECC diagnoses every region through the scheme's correction tier
// (no-op for schemes without one). Without opts.Heal it only reports;
// with it, repairable damage is fixed in place and reported as warnings.
func sweepECC(db *core.DB, opts Options, add func(code string, sev Severity, area, format string, args ...any)) {
	tb, ok := db.Scheme().(interface{ Table() *region.Table })
	if !ok || !tb.Table().ECCEnabled() {
		return
	}
	for r := 0; r < tb.Table().NumRegions(); r++ {
		res := db.Scheme().Diagnose(r)
		if res.Verdict == region.VerdictClean || res.Verdict == region.VerdictUnsupported {
			continue
		}
		if opts.Heal {
			res = db.Scheme().Heal(r)
		}
		switch res.Verdict {
		case region.VerdictRepairable:
			add(CodeECCRepairable, SevError, "ecc", "%v (repairable in place: re-run with heal)", res)
		case region.VerdictRepaired:
			add(CodeECCRepaired, SevWarning, "ecc", "%v (repaired in place)", res)
		case region.VerdictParityStale:
			if opts.Heal {
				add(CodeECCParityStale, SevWarning, "ecc", "%v (planes rebuilt from intact data)", res)
			} else {
				add(CodeECCParityStale, SevWarning, "ecc", "%v (data intact; planes rebuilt when healing)", res)
			}
		case region.VerdictUnrepairable:
			add(CodeECCUnrepairable, SevError, "ecc", "%v (past the correction radius: escalate to delete-transaction recovery)", res)
		case region.VerdictClean:
			// A concurrent repair (background audit) beat the sweep here.
		}
	}
}

// Options parameterizes a check run.
type Options struct {
	// Heal repairs what the ECC sweep finds repairable: located
	// single-word damage is reconstructed in place and stale locator
	// planes are rebuilt, each reported as a warning (CW061/CW063)
	// instead of an error. Unrepairable damage still reports CW062.
	Heal bool
}

// Run checks db and returns every problem found (empty means consistent).
// The database should be quiescent; concurrent transactions may cause
// spurious findings.
func Run(db *core.DB) ([]Problem, error) { return RunOpts(db, Options{}) }

// RunOpts checks db under opts.
func RunOpts(db *core.DB, opts Options) ([]Problem, error) {
	var out []Problem
	add := func(code string, sev Severity, area, format string, args ...any) {
		out = append(out, Problem{Code: code, Severity: sev, Area: area, Desc: fmt.Sprintf(format, args...)})
	}

	// Quiescence.
	if n := db.Internals().ATT.Len(); n != 0 {
		add(CodeActiveTxns, SevWarning, "att", "%d transactions active; results may be unreliable", n)
	}

	// ECC diagnosis sweep, ahead of the codeword audit so that with
	// opts.Heal a repaired region audits clean below (leaving only its
	// CW061 trace). Plane-only damage is invisible to the codeword audit
	// — this sweep is the only checker that finds it.
	sweepECC(db, opts, add)

	// Codewords.
	if bad := db.Scheme().Audit(); len(bad) != 0 {
		for _, m := range bad {
			add(CodeCodewordMismatch, SevError, "codeword", "region mismatch: %v", m)
		}
	}

	// Heap structure.
	hcat, err := heap.Open(db)
	if err != nil {
		return nil, err
	}
	allocated := make(map[wal.ObjectKey]bool)
	for _, name := range hcat.Tables() {
		tb, err := hcat.Table(name)
		if err != nil {
			return nil, err
		}
		count := 0
		for slot := uint32(0); slot < uint32(tb.Cap); slot++ {
			if !tb.Allocated(slot) {
				continue
			}
			count++
			rid := heap.RID{Table: tb.ID, Slot: slot}
			allocated[rid.Key()] = true
			addr := tb.RecordAddr(slot)
			if err := db.Internals().Arena.CheckRange(addr, tb.RecSize); err != nil {
				add(CodeHeapRecordRange, SevError, "heap", "table %q slot %d: record out of arena: %v", name, slot, err)
			}
		}
		if got := tb.Count(); got != count {
			add(CodeHeapCount, SevError, "heap", "table %q: Count()=%d but scan found %d", name, got, count)
		}
	}

	// Index structure.
	icat, err := hashidx.Open(db)
	if err != nil {
		return nil, err
	}
	for _, idx := range icat.Indexes() {
		seenKeys := make(map[uint64]bool)
		entries, err := idx.Entries()
		if err != nil {
			add(CodeIndexUnreadable, SevError, "index", "index %q: %v", idx.Name, err)
			continue
		}
		for _, e := range entries {
			if seenKeys[e.Key] {
				add(CodeIndexDupKey, SevError, "index", "index %q: duplicate key %d", idx.Name, e.Key)
			}
			seenKeys[e.Key] = true
			if _, err := hcat.TableByID(e.RID.Table); err == nil {
				if !allocated[e.RID.Key()] {
					add(CodeIndexDangling, SevError, "index", "index %q: key %d points at unallocated record %v", idx.Name, e.Key, e.RID)
				}
			}
		}
		if idx.Count() != len(entries) {
			add(CodeIndexCount, SevError, "index", "index %q: Count()=%d but scan found %d", idx.Name, idx.Count(), len(entries))
		}
	}

	// System log: the stable end never passes the tail end, and a
	// fail-stopped log is reported.
	log := db.Internals().Log
	if stable, end := log.StableEnd(), log.End(); stable > end {
		add(CodeLogWatermark, SevError, "log", "stable end %d beyond tail end %d", stable, end)
	}
	if err := log.Poisoned(); err != nil {
		add(CodeLogPoisoned, SevError, "log", "system log is poisoned (fail-stopped): %v", err)
	}

	// Checkpoint anchor vs retained log.
	if anchor, ok := db.Internals().Checkpoints.Anchor(); ok {
		base, err := wal.LogBaseFS(db.FS(), db.Config().Dir)
		if err != nil {
			return nil, err
		}
		if anchor.CKEnd < base {
			add(CodeCkptAnchorBase, SevError, "checkpoint", "anchor CK_end %d precedes the retained log base %d", anchor.CKEnd, base)
		}
		if anchor.CKEnd > db.Internals().Log.End() {
			add(CodeCkptAnchorEnd, SevError, "checkpoint", "anchor CK_end %d beyond log end %d", anchor.CKEnd, db.Internals().Log.End())
		}
		if _, err := ckpt.LoadFS(db.FS(), db.Config().Dir); err != nil {
			add(CodeCkptImage, SevError, "checkpoint", "current image unloadable: %v", err)
		}
	}
	return out, nil
}
