package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/wire"
)

// env is what every workload is given: where to put its databases, the
// seed its inputs come from, how long to measure and whether to trace.
type env struct {
	workdir string
	seed    int64
	seconds float64
	trace   bool
	epoch   time.Time // tracers' time origin
}

// freshDir makes an empty directory for one database under the workdir.
func (e *env) freshDir(name string) (string, error) {
	dir := filepath.Join(e.workdir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// tracerFor returns a tracer for a transaction attempt when this is a
// traced run and the attempt falls in a traced slice, else nil. Traced
// runs alternate slices of untraced and traced attempts so the tracing
// overhead is measured on the same database, in the same run.
func (e *env) tracerFor(t *tracer, traced bool) *tracer {
	if e.trace && traced {
		return t
	}
	return nil
}

// metric is one named figure of the human-readable report.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the value; 0 when it is not a sample statistic
	Note  string
}

// failCause classifies a failed transaction attempt.
type failCause int

const (
	failDeadlineLockWait failCause = iota // client deadline passed while waiting for a lock
	failDeadlineOther                     // client deadline passed outside a lock wait
	failLockTimeout                       // the engine's lock-wait timeout fired
	failRemote                            // the server answered with an error code
	failBusy                              // admission control refused the connection
	numFailCauses
)

var failNames = [numFailCauses]string{"deadline_lockwait", "deadline_other", "lock_timeout", "remote_error", "busy"}

type failCounts [numFailCauses]int

func (f *failCounts) add(o failCounts) {
	for i := range f {
		f[i] += o[i]
	}
}

func (f failCounts) total() int {
	n := 0
	for _, v := range f {
		n += v
	}
	return n
}

// classify maps an attempt's error to its cause. inLockWait says the error
// came from a call that takes transaction locks. An error that is none of
// the expected causes is returned as fatal.
func classify(err error, inLockWait bool) (failCause, error) {
	var remote *wire.RemoteError
	switch {
	case errors.Is(err, lockmgr.ErrTimeout):
		return failLockTimeout, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if inLockWait {
			return failDeadlineLockWait, nil
		}
		return failDeadlineOther, nil
	case errors.Is(err, wire.ErrServerBusy):
		return failBusy, nil
	case errors.As(err, &remote):
		return failRemote, nil
	}
	return 0, err
}

// result is what one workload run measured.
type result struct {
	attempted int
	fails     failCounts

	opsPerS     float64 // committed record operations per second
	lat         dist    // request latency, ms
	latUnit     string  // what one latency sample is
	latTailNote string  // how the tail was taken
	recoveryS   float64
	setupS      float64
	spaceAmp    float64

	report []metric           // everything else the report prints
	layers map[string]float64 // per-layer metrics (traced runs)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files of the tree src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// goStats is a window's allocation and GC counts from the Go runtime.
type goStats struct {
	allocBytes uint64
	gcs        uint32
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{allocBytes: ms.TotalAlloc, gcs: ms.NumGC}
}

func (g goStats) sub(prev goStats) goStats {
	return goStats{allocBytes: g.allocBytes - prev.allocBytes, gcs: g.gcs - prev.gcs}
}

// obsDelta returns after minus before for counters and histograms (gauges
// are taken from after). Histogram buckets are matched by lower bound.
func obsDelta(after, before obs.Snapshot) obs.Snapshot {
	out := after.Sub(before)
	out.Histograms = make(map[string]obs.HistogramSnapshot, len(after.Histograms))
	for name, h := range after.Histograms {
		prev := before.Histograms[name]
		prevCount := make(map[uint64]uint64, len(prev.Buckets))
		for _, b := range prev.Buckets {
			prevCount[b.Low] = b.Count
		}
		d := obs.HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
		for _, b := range h.Buckets {
			if n := b.Count - prevCount[b.Low]; n > 0 {
				d.Buckets = append(d.Buckets, obs.Bucket{Low: b.Low, High: b.High, Count: n})
			}
		}
		out.Histograms[name] = d
	}
	return out
}

// obsAdd sums two snapshots' counters and histograms (gauges from b), for
// aggregating several databases or shards.
func obsAdd(a, b obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		TakenAt:    b.TakenAt,
		Counters:   make(map[string]uint64),
		Gauges:     b.Gauges,
		Histograms: make(map[string]obs.HistogramSnapshot),
	}
	for _, s := range []obs.Snapshot{a, b} {
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, h := range s.Histograms {
			sum := out.Histograms[name]
			sum.Count += h.Count
			sum.Sum += h.Sum
			for _, bk := range h.Buckets {
				merged := false
				for i := range sum.Buckets {
					if sum.Buckets[i].Low == bk.Low {
						sum.Buckets[i].Count += bk.Count
						merged = true
						break
					}
				}
				if !merged {
					sum.Buckets = append(sum.Buckets, bk)
				}
			}
			sort.Slice(sum.Buckets, func(i, j int) bool { return sum.Buckets[i].Low < sum.Buckets[j].Low })
			out.Histograms[name] = sum
		}
	}
	return out
}

// loopStats is what one closed-loop client accounts for.
type loopStats struct {
	attempts  int
	fails     failCounts
	committed int
	lats      []float64 // first attempt to commit ack, ms
	win       *windows
	lastAck   time.Time
	txns      [2]int   // committed transactions, untraced and traced
	txnNS     [2]int64 // their summed latency
}

func newLoopStats(start time.Time) loopStats { return loopStats{win: newWindows(start)} }

// ack records a committed transaction whose first attempt began at first.
func (s *loopStats) ack(first, at time.Time, traced bool) {
	lat := at.Sub(first)
	ms := float64(lat) / 1e6
	s.lats = append(s.lats, ms)
	s.win.add(at, ms)
	s.lastAck = at
	s.committed++
	mode := 0
	if traced {
		mode = 1
	}
	s.txns[mode]++
	s.txnNS[mode] += int64(lat)
}

// loopSummary combines the clients' stats into res: attempts and failures,
// throughput and the latency tail as medians over windows, the overall
// latency distribution, and the tracing overhead. It returns the
// committed transaction count and the overhead.
func loopSummary(res *result, stats []*loopStats, start time.Time, opsPerTxn int) (txns int, overhead float64) {
	all := newWindows(start)
	var lats []float64
	var last time.Time
	var n [2]int
	var ns [2]int64
	for _, s := range stats {
		res.attempted += s.attempts
		res.fails.add(s.fails)
		txns += s.committed
		lats = append(lats, s.lats...)
		all.merge(s.win)
		if s.lastAck.After(last) {
			last = s.lastAck
		}
		for m := range n {
			n[m] += s.txns[m]
			ns[m] += s.txnNS[m]
		}
	}
	elapsed := last.Sub(start).Seconds()
	overall := summarize(lats)
	rates, tails := all.summary(last)
	nwin := len(rates)
	res.lat = dist{N: overall.N, P50: overall.P50, Tail: median(tails), TailQ: overall.TailQ}
	res.opsPerS = median(rates) * float64(opsPerTxn)
	res.latTailNote = fmt.Sprintf("median over %d 1-s windows of each window's tail", nwin)
	if nwin < minWindows {
		// Too short a run for windows: whole-run figures.
		res.opsPerS = float64(txns*opsPerTxn) / elapsed
		res.lat.Tail = overall.Tail
		res.latTailNote = "whole run"
	}
	res.report = append(res.report,
		metric{Name: "txn_per_s", Value: res.opsPerS / float64(opsPerTxn), Unit: "txn/s", N: nwin,
			Note: fmt.Sprintf("median over 1-s windows; windows %s", quartiles(rates))},
		metric{Name: "txn_per_s.whole_run", Value: float64(txns) / elapsed, Unit: "txn/s", N: txns},
		metric{Name: fmt.Sprintf("latency_p%g_ms.whole_run", 100*overall.TailQ), Value: overall.Tail, Unit: "ms", N: overall.N},
		metric{Name: "measured_s", Value: elapsed, Unit: "s"})
	// Untraced runs put every transaction in n[0], leaving overhead 0.
	overhead = 1 - ratio(float64(n[1]), float64(ns[1]))/ratio(float64(n[0]), float64(ns[0]))
	if n[1] == 0 {
		overhead = 0
	}
	return txns, overhead
}

// minWindows is the fewest whole windows the windowed figures need.
const minWindows = 5
