package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names a layer boundary the benchmark times. Spans wrap the
// benchmark's own calls into each layer's public functions; the engine
// itself is not instrumented.
type spanKind uint8

const (
	spanTxn        spanKind = iota // one transaction attempt (root)
	spanOp                         // one TPC-B operation: 3 read+update pairs and an insert
	spanHeapRead                   // heap.Table.Read
	spanHeapUpdate                 // heap.Table.Update
	spanHeapInsert                 // heap.Table.Insert
	spanBegin                      // core.DB.BeginCtx
	spanCommit                     // core.Txn.Commit
	spanCheckpoint                 // core.DB.Checkpoint
	spanRecovery                   // recovery.Open / shard.Open after a crash
	spanWireBegin                  // wire.Client.Begin
	spanWireGet                    // wire.Client.Get
	spanWirePut                    // wire.Client.Put
	spanWireCommit                 // wire.Client.Commit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "op", "heap.read", "heap.update", "heap.insert", "core.begin",
	"core.commit", "core.checkpoint", "recovery.open", "wire.begin",
	"wire.get", "wire.put", "wire.commit",
}

// span is one timed call. Parent indexes the enclosing span within the
// same root's span list (-1 for a root); Start and End are nanoseconds
// since the tracer's epoch.
type span struct {
	Kind   spanKind
	Parent int32
	Txn    uint64
	Start  int64
	End    int64
}

// retainSpans bounds how many raw spans one tracer keeps for the trace
// file; the per-kind aggregates cover every span regardless.
const retainSpans = 50_000

// tracer records spans for one goroutine. A nil *tracer records nothing,
// so untraced code paths pay one nil check per call.
type tracer struct {
	epoch time.Time
	txn   uint64
	open  []int32 // stack of open spans in cur
	cur   []span  // spans of the root being recorded

	durs     [numSpanKinds][]float64 // span durations, ns
	selfSum  [numSpanKinds]int64     // summed self time, ns
	retained []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// setTxn tags the spans recorded from now on with a transaction attempt id.
func (t *tracer) setTxn(id uint64) {
	if t != nil {
		t.txn = id
	}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.cur = append(t.cur, span{Kind: k, Parent: parent, Txn: t.txn, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, int32(len(t.cur)-1))
}

// end closes the innermost open span. Closing a root folds its spans into
// the aggregates.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.cur[t.open[n-1]].End = int64(time.Since(t.epoch))
	t.open = t.open[:n-1]
	if n == 1 {
		t.fold()
	}
}

// fold adds a finished root's spans to the aggregates and clears it.
func (t *tracer) fold() {
	self := selfTimes(t.cur)
	for i, s := range t.cur {
		t.durs[s.Kind] = append(t.durs[s.Kind], float64(s.End-s.Start))
		t.selfSum[s.Kind] += self[i]
	}
	if room := retainSpans - len(t.retained); room > 0 {
		if room > len(t.cur) {
			room = len(t.cur)
		}
		base := int32(len(t.retained))
		for _, s := range t.cur[:room] {
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.retained = append(t.retained, s)
		}
	}
	t.cur = t.cur[:0]
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another and may stick
// out of their parent; only the union of their intervals inside the parent
// counts.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make([][][2]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
		}
	}
	for i, iv := range kids {
		if len(iv) == 0 {
			continue
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		lo, hi := iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > hi {
				covered += hi - lo
				lo, hi = x[0], x[1]
			} else if x[1] > hi {
				hi = x[1]
			}
		}
		covered += hi - lo
		self[i] -= covered
	}
	return self
}

// traceStats merges the aggregates of several tracers.
type traceStats struct {
	durs    [numSpanKinds][]float64
	selfSum [numSpanKinds]int64
	spans   []span
}

func mergeTracers(ts []*tracer) *traceStats {
	st := &traceStats{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for k := range t.durs {
			st.durs[k] = append(st.durs[k], t.durs[k]...)
			st.selfSum[k] += t.selfSum[k]
		}
		base := int32(len(st.spans))
		for _, s := range t.retained {
			if s.Parent >= 0 {
				s.Parent += base
			}
			st.spans = append(st.spans, s)
		}
	}
	return st
}

// dist summarises the durations of one span kind, in nanoseconds.
func (st *traceStats) dist(k spanKind) dist { return summarize(st.durs[k]) }

// total is the summed duration of one span kind, in nanoseconds.
func (st *traceStats) total(k spanKind) float64 {
	var s float64
	for _, d := range st.durs[k] {
		s += d
	}
	return s
}

// selfShare is kind k's summed self time as a share of the summed duration
// of kind of (the span k's time is a part of).
func (st *traceStats) selfShare(k, of spanKind) float64 {
	return ratio(float64(st.selfSum[k]), st.total(of))
}

// write stores the retained spans as JSON lines at path.
func (st *traceStats) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range st.spans {
		rec := struct {
			Name   string `json:"name"`
			Txn    uint64 `json:"txn"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{spanNames[s.Kind], s.Txn, s.Parent, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
