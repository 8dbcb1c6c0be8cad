package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail metric may fall back to, highest
// first. A metric named p99 reports the highest of these that its sample
// supports, and the report names the one used.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie above a percentile for it to be
// reported: with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile in n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailQuantile picks the highest candidate percentile, at most want, with at
// least minBeyond samples beyond it. With too few samples for any candidate
// it returns the median.
func tailQuantile(n int, want float64) float64 {
	for _, q := range tailCandidates {
		if q > want {
			continue
		}
		if n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// quantile is the nearest-rank q-quantile of sorted (ascending, non-empty).
func quantile(sorted []float64, q float64) float64 {
	return sorted[rank(q, len(sorted))-1]
}

// dist summarises a latency sample: its median and the supported tail
// percentile, with the sample count behind both.
type dist struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

// summarize sorts xs in place and returns its median and its tail up to
// the 99th percentile. An empty sample gives the zero dist.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	q := tailQuantile(len(xs), 0.99)
	return dist{N: len(xs), P50: quantile(xs, 0.5), Tail: quantile(xs, q), TailQ: q}
}

// median of xs (not modified); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive xs; 0 when empty or any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowWidth is the width of the windows a closed-loop run's commit acks
// are grouped into. Throughput and the latency tail are reported as the
// median over windows, so a burst of load from outside the benchmark (a
// slow patch of fsyncs on a shared disk, say) moves a few windows rather
// than the run.
const windowWidth = time.Second

// windows groups the latency samples of commit acks by when they arrived.
type windows struct {
	start time.Time
	lats  [][]float64 // per window, ms
}

func newWindows(start time.Time) *windows { return &windows{start: start} }

func (w *windows) add(at time.Time, latMS float64) {
	i := int(at.Sub(w.start) / windowWidth)
	for len(w.lats) <= i {
		w.lats = append(w.lats, nil)
	}
	w.lats[i] = append(w.lats[i], latMS)
}

// merge adds o's samples (windows with the same start) to w.
func (w *windows) merge(o *windows) {
	for i, l := range o.lats {
		for len(w.lats) <= i {
			w.lats = append(w.lats, nil)
		}
		w.lats[i] = append(w.lats[i], l...)
	}
}

// summary returns, over the whole windows before end, the commit rates
// (per second) and the tail latencies of the windows. The window end falls
// in is partial and left out.
func (w *windows) summary(end time.Time) (rates, tails []float64) {
	full := min(int(end.Sub(w.start)/windowWidth), len(w.lats))
	for _, l := range w.lats[:full] {
		rates = append(rates, float64(len(l))/windowWidth.Seconds())
		if len(l) > 0 {
			tails = append(tails, summarize(append([]float64(nil), l...)).Tail)
		}
	}
	return rates, tails
}

// quartiles renders a sample's minimum, quartiles and maximum.
func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("min %.4g q1 %.4g q2 %.4g q3 %.4g max %.4g",
		s[0], quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75), s[len(s)-1])
}
