package main

import (
	"testing"
	"time"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Parent: -1, Start: 0, End: 100},   // 0: root
		{Parent: 0, Start: 10, End: 40},    // 1
		{Parent: 0, Start: 30, End: 60},    // 2 overlaps 1
		{Parent: 0, Start: 90, End: 120},   // 3 sticks out of the root
		{Parent: 1, Start: 15, End: 20},    // 4 grandchild
		{Parent: 1, Start: 15, End: 20},    // 5 duplicate of 4
		{Parent: -1, Start: 200, End: 210}, // 6: second root, no children
	}
	want := []int64{
		100 - (50 + 10), // children cover [10,60] and [90,100]
		30 - 5,          // grandchildren cover [15,20] once
		30,
		30,
		5,
		5,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerFoldsRootsAndNilIsFree(t *testing.T) {
	var none *tracer
	none.begin(spanTxn) // must not panic
	none.end()

	tr := newTracer(time.Now())
	tr.setTxn(7)
	tr.begin(spanTxn)
	tr.begin(spanOp)
	tr.begin(spanHeapRead)
	tr.end()
	tr.end()
	tr.begin(spanCommit)
	tr.end()
	tr.end()
	if len(tr.cur) != 0 || len(tr.open) != 0 {
		t.Fatalf("root not folded: %d spans, %d open", len(tr.cur), len(tr.open))
	}
	st := mergeTracers([]*tracer{tr, nil})
	for _, k := range []spanKind{spanTxn, spanOp, spanHeapRead, spanCommit} {
		if n := len(st.durs[k]); n != 1 {
			t.Errorf("%s: %d durations, want 1", spanNames[k], n)
		}
	}
	if len(st.spans) != 4 || st.spans[2].Parent != 1 || st.spans[3].Parent != 0 || st.spans[0].Txn != 7 {
		t.Fatalf("retained spans = %+v", st.spans)
	}
	if self := st.selfSum[spanHeapRead]; self != int64(st.durs[spanHeapRead][0]) {
		t.Errorf("leaf self time %d != its duration %g", self, st.durs[spanHeapRead][0])
	}
}
