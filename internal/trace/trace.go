// Package trace analyzes a system log offline to answer the question the
// paper's read logging was introduced for (§4.2) and the §7 future-work
// direction it opens: given a starting point for corruption — physically
// corrupt byte ranges, or suspect transactions (e.g. a logically corrupt
// transaction from bad user input) — which later transactions were
// tainted, through which data, and what data did they taint in turn?
//
// The analysis is the read-only core of the delete-transaction recovery
// algorithm's redo scan: read and write log records are matched against a
// growing corrupt-data set, tainted transactions' writes extend the set,
// and begin-operation conflicts against tainted transactions' operations
// propagate taint (the §4.3 rule that keeps deleted transactions
// rollback-able). Nothing is modified; the output is a propagation report
// a DBA can act on — including the manual-compensation list the
// delete-transaction model hands back to the user.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// Reason explains why a transaction became tainted.
type Reason struct {
	// Kind is "read", "write", "conflict" or "seed".
	Kind string
	// LSN is the log record that tainted the transaction.
	LSN wal.LSN
	// Range is the data involved (zero for conflict taints).
	Range recovery.Range
	// Via is the transaction whose operation caused a conflict taint.
	Via wal.TxnID
}

func (r Reason) String() string {
	switch r.Kind {
	case "conflict":
		return fmt.Sprintf("op-conflict with tainted txn %d @%d", r.Via, r.LSN)
	case "seed":
		return "seeded as suspect"
	default:
		return fmt.Sprintf("%s of corrupt %v @%d", r.Kind, r.Range, r.LSN)
	}
}

// TxnTrace is one tainted transaction.
type TxnTrace struct {
	ID        wal.TxnID
	Reason    Reason
	Committed bool
	// Wrote lists the data ranges this transaction wrote after becoming
	// tainted (data it corrupted in turn).
	Wrote []recovery.Range
	// Reads counts its post-taint read records (for reporting).
	Reads int
}

// Result is a propagation report.
type Result struct {
	// Tainted lists tainted transactions in taint order.
	Tainted []TxnTrace
	// Data is the final corrupt-data set.
	Data recovery.RangeSet
	// Records is the number of log records scanned.
	Records int
	// Generations maps each tainted transaction to its distance from the
	// seed (1 = read seeded data directly).
	Generations map[wal.TxnID]int
}

// Options configures a trace.
type Options struct {
	// From is the log position to scan from (a checkpoint's CK_end, or 0
	// for the whole log).
	From wal.LSN
	// SeedRanges marks byte ranges as corrupt once the scan passes SeedAt.
	SeedRanges []recovery.Range
	// SeedAt is the log position at which SeedRanges become corrupt — the
	// analogue of recovery's Audit_SN (the last moment the data was known
	// clean). Zero seeds them from the start of the scan.
	SeedAt wal.LSN
	// SeedTxns marks transactions as suspect from the start: all their
	// writes are treated as corrupt (the logical-corruption case — a
	// transaction wrote bad data even though no addressing error
	// occurred).
	SeedTxns []wal.TxnID
}

// Run scans the log in dir and returns the propagation report.
func Run(dir string, opts Options) (*Result, error) {
	res := &Result{Generations: make(map[wal.TxnID]int)}
	var data recovery.RangeSet
	seeded := false
	seedNow := func() {
		for _, r := range opts.SeedRanges {
			data.Add(r)
		}
		seeded = true
	}
	if opts.SeedAt == 0 {
		seedNow()
	}
	tainted := make(map[wal.TxnID]*TxnTrace)
	gen := make(map[wal.TxnID]int)
	for _, id := range opts.SeedTxns {
		tainted[id] = &TxnTrace{ID: id, Reason: Reason{Kind: "seed"}}
		gen[id] = 0
	}
	// ops tracks, per live transaction, the object keys of its operations
	// so conflict taint can propagate (the analogue of checking corrupt
	// transactions' undo logs in §4.3).
	ops := make(map[wal.TxnID]map[wal.ObjectKey]struct{})

	// Clamp the scan start to the retained log (checkpoints compact the
	// prefix away).
	if base, err := wal.LogBase(dir); err == nil && opts.From < base {
		opts.From = base
	}

	taint := func(id wal.TxnID, why Reason, g int) *TxnTrace {
		tt, ok := tainted[id]
		if !ok {
			tt = &TxnTrace{ID: id, Reason: why}
			tainted[id] = tt
			gen[id] = g
		}
		return tt
	}

	err := wal.Scan(dir, opts.From, func(r *wal.Record) bool {
		res.Records++
		if !seeded && r.LSN >= opts.SeedAt {
			seedNow()
		}
		switch r.Kind {
		case wal.KindRead:
			if _, bad := tainted[r.Txn]; bad {
				tainted[r.Txn].Reads++
				break
			}
			if data.Overlaps(r.Addr, r.Len) {
				taint(r.Txn, Reason{Kind: "read", LSN: r.LSN,
					Range: recovery.Range{Start: r.Addr, Len: r.Len}}, generationOf(gen, tainted, r))
			}
		case wal.KindPhysRedo:
			if tt, bad := tainted[r.Txn]; bad {
				rg := recovery.Range{Start: r.Addr, Len: len(r.Data)}
				data.Add(rg)
				tt.Wrote = append(tt.Wrote, rg)
				break
			}
			if data.Overlaps(r.Addr, len(r.Data)) {
				tt := taint(r.Txn, Reason{Kind: "write", LSN: r.LSN,
					Range: recovery.Range{Start: r.Addr, Len: len(r.Data)}}, generationOf(gen, tainted, r))
				rg := recovery.Range{Start: r.Addr, Len: len(r.Data)}
				data.Add(rg)
				tt.Wrote = append(tt.Wrote, rg)
			}
		case wal.KindOpBegin:
			if _, bad := tainted[r.Txn]; bad {
				break
			}
			for id, keys := range ops {
				if _, isTainted := tainted[id]; !isTainted {
					continue
				}
				if _, conflict := keys[r.Key]; conflict {
					taint(r.Txn, Reason{Kind: "conflict", LSN: r.LSN, Via: id}, gen[id]+1)
					break
				}
			}
			if _, bad := tainted[r.Txn]; !bad {
				if ops[r.Txn] == nil {
					ops[r.Txn] = make(map[wal.ObjectKey]struct{})
				}
				ops[r.Txn][r.Key] = struct{}{}
			}
		case wal.KindTxnCommit:
			if tt, bad := tainted[r.Txn]; bad {
				tt.Committed = true
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	// Emit final copies sorted by first-taint LSN.
	for _, tt := range tainted {
		if tt.Reason.Kind == "seed" {
			continue
		}
		res.Tainted = append(res.Tainted, *tt)
	}
	sort.Slice(res.Tainted, func(i, j int) bool {
		return res.Tainted[i].Reason.LSN < res.Tainted[j].Reason.LSN
	})
	res.Data = data
	for id, g := range gen {
		res.Generations[id] = g
	}
	return res, nil
}

// generationOf assigns a taint generation: 1 + the highest generation of
// a tainted transaction that wrote into the record's range, or 1 if the
// range came from the seed.
func generationOf(gen map[wal.TxnID]int, tainted map[wal.TxnID]*TxnTrace, r *wal.Record) int {
	n := r.Len
	if r.Kind == wal.KindPhysRedo {
		n = len(r.Data)
	}
	best := 0
	for id, tt := range tainted {
		for _, w := range tt.Wrote {
			end := w.Start + mem.Addr(w.Len)
			rEnd := r.Addr + mem.Addr(n)
			if w.Start < rEnd && r.Addr < end {
				if g := gen[id]; g > best {
					best = g
				}
			}
		}
	}
	return best + 1
}

// Report renders a human-readable propagation report.
func (res *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scanned %d log records\n", res.Records)
	if len(res.Tainted) == 0 {
		b.WriteString("no transactions tainted\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d transaction(s) tainted:\n", len(res.Tainted))
	for _, tt := range res.Tainted {
		state := "in-flight"
		if tt.Committed {
			state = "COMMITTED — needs manual compensation"
		}
		fmt.Fprintf(&b, "  txn %-6d gen %d  %-40s  %s\n",
			tt.ID, res.Generations[tt.ID], tt.Reason, state)
		for _, w := range tt.Wrote {
			fmt.Fprintf(&b, "      tainted write %v\n", w)
		}
	}
	fmt.Fprintf(&b, "final corrupt data: %d range(s)\n", res.Data.Len())
	return b.String()
}
