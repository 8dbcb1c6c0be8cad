package main

import (
	"math"
	"testing"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, // rank 990, 10 beyond
		{999, 0.95},  // p99 rank 990 leaves 9 beyond
		{5000, 0.99},
		{200, 0.95}, // rank 190, 10 beyond
		{199, 0.90},
		{100, 0.90},
		{40, 0.75},
		{20, 0.50},
		{5, 0.50}, // nothing qualifies: the median
	} {
		if got := tailQuantile(tc.n, 0.99); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := tailQuantile(100_000, 0.95); got != 0.95 {
		t.Errorf("tailQuantile never exceeds the percentile asked for; got %g", got)
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.Tail != 990 || d.TailQ != 0.99 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", d)
	}
	if d := summarize(nil); d != (dist{}) {
		t.Fatalf("summarize(nil) = %+v", d)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %g", g)
	}
	if g := geomean([]float64{5, 0}); g != 0 {
		t.Errorf("geomean with a zero = %g, want 0", g)
	}
}
