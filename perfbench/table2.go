package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/benchtab"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/tpcb"
)

// table2RowNames are the metric names of the paper's Table 2 rows, in the
// order benchtab.Table2Schemes lists them.
var table2RowNames = []string{
	"baseline", "data_cw", "precheck_64", "readlog", "cw_readlog", "precheck_512", "hw", "precheck_8k",
}

// table2DrillRow is the scheme of the database table2 crashes and
// recovers: the one oltp and kv-wire also run under.
const table2DrillRow = "precheck_64"

const (
	// table2MaxRate sizes each row's history table: a row stops early
	// rather than fail if it runs faster than this many ops per second.
	table2MaxRate = 80_000
	// drillTxns is the fixed work between the drill database's set-up
	// checkpoint and its crash, in paper-sized transactions.
	drillTxns = 40
)

// history record layout: sequence, account, teller, branch, delta.
func historyRecord(seq uint64, op tpcbOp) []byte {
	rec := make([]byte, tpcb.RecordSize)
	binary.LittleEndian.PutUint64(rec[0:], seq)
	binary.LittleEndian.PutUint32(rec[8:], op.acct)
	binary.LittleEndian.PutUint32(rec[12:], op.tell)
	binary.LittleEndian.PutUint32(rec[16:], op.brch)
	binary.LittleEndian.PutUint64(rec[20:], uint64(op.delta))
	return rec
}

// balanceOffset is where tpcb records keep their balance.
const balanceOffset = 8

// tpcbTables are the four tables tpcb.Setup creates.
type tpcbTables struct {
	account, teller, branch, history *heap.Table
}

func tablesOf(w *tpcb.Workload) tpcbTables {
	a, t, b, h := w.Tables()
	return tpcbTables{account: a, teller: t, branch: b, history: h}
}

// bump reads a record's balance and writes it back moved by delta.
func bump(txn *core.Txn, tr *tracer, t *heap.Table, slot uint32, delta int64) error {
	rid := heap.RID{Table: t.ID, Slot: slot}
	tr.begin(spanHeapRead)
	rec, err := t.Read(txn, rid)
	tr.end()
	if err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(binary.LittleEndian.Uint64(rec[balanceOffset:]))+delta))
	tr.begin(spanHeapUpdate)
	err = t.Update(txn, rid, balanceOffset, buf[:])
	tr.end()
	return err
}

// doOp runs one TPC-B operation through the heap layer.
func doOp(txn *core.Txn, tr *tracer, tb tpcbTables, op tpcbOp, seq uint64) error {
	tr.begin(spanOp)
	defer tr.end()
	if err := bump(txn, tr, tb.account, op.acct, op.delta); err != nil {
		return err
	}
	if err := bump(txn, tr, tb.teller, op.tell, op.delta); err != nil {
		return err
	}
	if err := bump(txn, tr, tb.branch, op.brch, op.delta); err != nil {
		return err
	}
	tr.begin(spanHeapInsert)
	_, err := tb.history.Insert(txn, historyRecord(seq, op))
	tr.end()
	return err
}

// balanceSums scans the three balance columns.
func balanceSums(tb tpcbTables) [3]int64 {
	var out [3]int64
	for i, t := range []*heap.Table{tb.account, tb.teller, tb.branch} {
		t.Scan(func(_ heap.RID, rec []byte) bool {
			out[i] += int64(binary.LittleEndian.Uint64(rec[balanceOffset:]))
			return true
		})
	}
	return out
}

// checkTPCB verifies the paper's consistency condition after committed
// work: every balance column moved by the same total delta, the history
// table holds one record per committed op, and the codeword audit is clean.
func checkTPCB(db *core.DB, tb tpcbTables, before [3]int64, delta int64, ops int) error {
	after := balanceSums(tb)
	for i, name := range []string{"account", "teller", "branch"} {
		if got := after[i] - before[i]; got != delta {
			return fmt.Errorf("%s balances moved by %d, committed ops moved %d", name, got, delta)
		}
	}
	if n := tb.history.Count(); n != ops {
		return fmt.Errorf("history holds %d records, %d ops committed", n, ops)
	}
	if err := db.Audit(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// table2Row is one measured Table 2 configuration.
type table2Row struct {
	name      string
	opsPerS   float64 // median slice rate, untraced
	tracedOps float64 // median slice rate, traced (traced runs only)
	slices    int
	opLat     dist      // per-op latency, ms
	txnLats   []float64 // untraced transactions' latencies, ms
	setupS    float64
	txns      int
	ops       int
	obs       obs.Snapshot
	goStats   goStats
}

// runTable2 is the paper's §5.3 protocol: one client, paper-scale tables,
// 500-op transactions, each configuration on a fresh database in Table 2
// order, each measured for an equal share of the run. A crash drill on a
// database of its own follows.
func runTable2(e *env) (*result, error) {
	specs := benchtab.Table2Schemes(true)
	if len(specs) != len(table2RowNames) {
		return nil, fmt.Errorf("table2: %d schemes, %d row names", len(specs), len(table2RowNames))
	}
	rowSeconds := e.seconds / float64(len(specs))
	res := &result{latUnit: "500-op transaction, begin to commit ack", latTailNote: "per row, then the geometric mean over rows"}
	var rows []table2Row
	var obsSum obs.Snapshot
	var gs goStats
	tr := newTracer(e.epoch)
	for i, spec := range specs {
		row, err := runTable2Row(e, table2RowNames[i], spec, rowSeconds, tr)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", table2RowNames[i], err)
		}
		rows = append(rows, row)
		obsSum = obsAdd(obsSum, row.obs)
		gs.allocBytes += row.goStats.allocBytes
		gs.gcs += row.goStats.gcs
	}
	drill, err := table2Drill(e, specs[slices.Index(table2RowNames, table2DrillRow)], e.tracerFor(tr, true))
	if err != nil {
		return nil, fmt.Errorf("table2 crash drill: %w", err)
	}
	res.recoveryS, res.spaceAmp = drill.recoveryS, drill.spaceAmp

	// Latency is per 500-op transaction, as in the other workloads. Every
	// row's tail is taken at the highest percentile the smallest row's
	// sample supports, so the rows' tails are comparable.
	minTxns := math.MaxInt
	for _, r := range rows {
		minTxns = min(minTxns, len(r.txnLats))
	}
	tailQ := tailQuantile(minTxns, 0.99)
	var rates, p50s, tails, tracedRates []float64
	ops, samples := 0, 0
	for _, r := range rows {
		sort.Float64s(r.txnLats)
		rates = append(rates, r.opsPerS)
		tracedRates = append(tracedRates, r.tracedOps)
		p50s = append(p50s, quantile(r.txnLats, 0.5))
		tails = append(tails, quantile(r.txnLats, tailQ))
		samples += len(r.txnLats)
		res.setupS += r.setupS
		res.attempted += r.txns
		ops += r.ops
	}
	res.opsPerS = geomean(rates)
	res.lat = dist{N: samples, P50: geomean(p50s), Tail: geomean(tails), TailQ: tailQ}

	base := rows[0].opsPerS
	for _, r := range rows {
		res.report = append(res.report,
			metric{Name: "ops_per_s." + r.name, Value: r.opsPerS, Unit: "ops/s", N: r.slices,
				Note: fmt.Sprintf("median of %d-txn slices; %d ops", table2SliceTxns, r.ops)},
			metric{Name: "pct_slower." + r.name, Value: 100 * (1 - r.opsPerS/base), Unit: "%", Note: "vs baseline"},
			metric{Name: "txn_p50_ms." + r.name, Value: quantile(r.txnLats, 0.5), Unit: "ms", N: len(r.txnLats)},
			metric{Name: "op_p50_ms." + r.name, Value: r.opLat.P50, Unit: "ms", N: r.opLat.N},
			metric{Name: fmt.Sprintf("op_p%g_ms.%s", 100*r.opLat.TailQ, r.name), Value: r.opLat.Tail, Unit: "ms", N: r.opLat.N},
			metric{Name: "setup_s." + r.name, Value: r.setupS, Unit: "s"})
	}
	res.report = append(res.report,
		metric{Name: "drill.recovery_s", Value: drill.recoveryS, Unit: "s", N: drillCopies, Note: table2DrillRow + ", median of recovered copies"},
		metric{Name: "drill.records_scanned", Value: float64(drill.report.RecordsScanned), Unit: "count"},
		metric{Name: "drill.redo_applied", Value: float64(drill.report.RedoApplied), Unit: "count"})

	if e.trace {
		in := layerInput{
			obs: obsSum, goStats: gs, ops: ops, txns: res.attempted, attempts: res.attempted,
			overhead: 1 - geomean(tracedRates)/geomean(rates),
			recovery: &recoveryFacts{scanned: drill.report.RecordsScanned, redone: drill.report.RedoApplied},
			trace:    mergeTracers([]*tracer{tr}),
		}
		res.layers = layerMetrics(in)
		for _, r := range rows {
			res.layers["table2."+r.name+".ops_per_s"] = r.opsPerS
		}
		if err := in.trace.write(traceFile(e, "table2")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// table2SliceTxns is the slice a row's throughput is measured over: a row
// reports the median of its slices' rates, so a burst of load from outside
// the benchmark moves one slice rather than the row.
const table2SliceTxns = 10

// slicer cuts one row's transactions into slices of table2SliceTxns.
type slicer struct {
	ns    int64
	txns  int
	lats  []float64 // op latencies of the open slice, ms
	rates []float64 // per slice, ops/s
	all   []float64 // every closed slice's op latencies
}

// add counts a transaction whose op latencies are already in s.lats.
func (s *slicer) add(d time.Duration) {
	s.ns += int64(d)
	if s.txns++; s.txns == table2SliceTxns {
		s.close()
	}
}

// close ends the open slice, if it holds any transaction.
func (s *slicer) close() {
	if s.txns == 0 {
		return
	}
	s.rates = append(s.rates, float64(s.txns*tpcb.CommitEvery)/(float64(s.ns)/1e9))
	s.all = append(s.all, s.lats...)
	s.ns, s.txns, s.lats = 0, 0, s.lats[:0]
}

// openTPCB creates a paper-scale TPC-B database under spec in dir and
// returns it with its set-up time: open, load and first checkpoint.
func openTPCB(e *env, dir string, spec benchtab.SchemeSpec, scale tpcb.Scale) (*core.DB, tpcbTables, core.Config, float64, error) {
	cfg := core.Config{Dir: dir, ArenaSize: scale.ArenaSize(), Protect: spec.Protect, FS: pageCacheFS{}}
	if rs := spec.Protect.Defaulted().RegionSize; rs > 4096 {
		// Pages must hold whole regions (core.Config.Validate).
		cfg.PageSize = rs
	}
	start := time.Now()
	db, err := core.Open(cfg)
	if err != nil {
		return nil, tpcbTables{}, cfg, 0, err
	}
	w, err := tpcb.Setup(db, scale, e.seed)
	if err != nil {
		db.Close()
		return nil, tpcbTables{}, cfg, 0, err
	}
	return db, tablesOf(w), cfg, time.Since(start).Seconds(), nil
}

func runTable2Row(e *env, name string, spec benchtab.SchemeSpec, rowSeconds float64, tr *tracer) (table2Row, error) {
	row := table2Row{name: name}
	scale := tpcb.PaperScale
	scale.HistoryCap = max(scale.HistoryCap, int(rowSeconds*table2MaxRate)) + warmupTxns*tpcb.CommitEvery
	dir, err := e.freshDir("table2-" + name)
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	db, tb, _, setup, err := openTPCB(e, dir, spec, scale)
	if err != nil {
		return row, err
	}
	defer db.Close()
	row.setupS = setup
	sums := balanceSums(tb)

	p := &paperClient{db: db, tb: tb, gen: newTPCBGen(e.seed, 0, scale)}
	for i := 0; i < warmupTxns; i++ {
		if err := p.txn(nil, nil); err != nil {
			return row, fmt.Errorf("warm-up: %w", err)
		}
	}
	// Untraced (0) and traced (1) transactions are sliced separately.
	var sl [2]slicer
	budget := time.Duration(rowSeconds * float64(time.Second))

	runtime.GC() // leave set-up's garbage out of the measured phase
	obs0, gs0 := db.Metrics(), readGoStats()
	t0 := time.Now()
	for time.Since(t0) < budget && int(p.seq)+tpcb.CommitEvery <= scale.HistoryCap {
		mode := 0
		if e.trace && row.txns%2 == 1 {
			mode = 1
		}
		ttr := e.tracerFor(tr, mode == 1)
		ttr.setTxn(uint64(row.txns))
		txnStart := time.Now()
		if err := p.txn(ttr, &sl[mode].lats); err != nil {
			return row, err
		}
		took := time.Since(txnStart)
		sl[mode].add(took)
		if mode == 0 {
			row.txnLats = append(row.txnLats, float64(took)/1e6)
		}
		row.txns++
	}
	row.obs = obsDelta(db.Metrics(), obs0)
	row.goStats = readGoStats().sub(gs0)
	row.ops = row.txns * tpcb.CommitEvery
	for mode := range sl {
		if len(sl[mode].rates) == 0 {
			// A row too slow for one whole slice reports its partial one.
			sl[mode].close()
		}
	}
	row.opsPerS, row.tracedOps, row.slices = median(sl[0].rates), median(sl[1].rates), len(sl[0].rates)
	row.opLat = summarize(sl[0].all)
	return row, checkTPCB(db, tb, sums, p.delta, int(p.seq))
}

type drillResult struct {
	recoveryS float64
	spaceAmp  float64
	report    *recovery.Report
}

// table2Drill builds a paper-scale database (50,000-record history, the
// paper's 16 MB arena), runs a fixed amount of seeded work, measures the
// space it occupies, crashes and times restart recovery. Its own database
// and fixed work keep recovery time and space independent of how fast the
// measured rows ran.
func table2Drill(e *env, spec benchtab.SchemeSpec, tr *tracer) (*drillResult, error) {
	scale := tpcb.PaperScale
	dir, err := e.freshDir("table2-drill")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, tb, cfg, _, err := openTPCB(e, dir, spec, scale)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	sums := balanceSums(tb)
	p := &paperClient{db: db, tb: tb, gen: newTPCBGen(e.seed, streamRecoveryTail, scale)}
	for t := 0; t < drillTxns; t++ {
		if err := p.txn(nil, nil); err != nil {
			return nil, err
		}
	}
	ops := int(p.seq)
	amp, err := spaceAmp(cfg.Dir, float64((scale.Accounts+scale.Tellers+scale.Branches+ops)*tpcb.RecordSize))
	if err != nil {
		return nil, err
	}
	if err := db.Crash(); err != nil {
		return nil, err
	}
	var rep *recovery.Report
	secs, err := recoverCopies(cfg.Dir, func(dir string) (time.Duration, error) {
		c := cfg
		c.Dir = dir
		start := time.Now()
		tr.begin(spanRecovery)
		db, r, err := recovery.Open(c, recovery.Options{})
		tr.end()
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		defer db.Close()
		rep = r
		w, err := tpcb.Attach(db, scale, 0)
		if err != nil {
			return 0, err
		}
		return took, checkTPCB(db, tablesOf(w), sums, p.delta, ops)
	})
	if err != nil {
		return nil, err
	}
	return &drillResult{recoveryS: secs, spaceAmp: amp, report: rep}, nil
}

// warmupTxns paper-sized transactions run untimed before each row's
// measurement, so page faults and heap growth of a fresh database are not
// charged to whichever row runs first.
const warmupTxns = 10

// paperClient is table2's single client: it runs 500-op transactions and
// tracks what they committed.
type paperClient struct {
	db    *core.DB
	tb    tpcbTables
	gen   *tpcbGen
	seq   uint64 // ops committed = next history sequence number
	delta int64  // summed delta of committed ops
}

// txn runs and commits one 500-op transaction. With lats non-nil it
// appends each op's latency in ms; the begin is charged to the first op
// and the commit to the last.
func (p *paperClient) txn(tr *tracer, lats *[]float64) error {
	last := time.Now()
	tr.begin(spanTxn)
	defer tr.end()
	tr.begin(spanBegin)
	txn, err := p.db.BeginCtx(context.Background())
	tr.end()
	if err != nil {
		return err
	}
	var delta int64
	for i := uint64(0); i < tpcb.CommitEvery; i++ {
		op := p.gen.next()
		if err := doOp(txn, tr, p.tb, op, p.seq+i); err != nil {
			return fmt.Errorf("op %d: %w", p.seq+i, err)
		}
		delta += op.delta
		if i == tpcb.CommitEvery-1 {
			tr.begin(spanCommit)
			err = txn.Commit()
			tr.end()
			if err != nil {
				return err
			}
		}
		if lats != nil {
			now := time.Now()
			*lats = append(*lats, float64(now.Sub(last))/1e6)
			last = now
		}
	}
	p.seq += tpcb.CommitEvery
	p.delta += delta
	return nil
}

// spaceAmp is the bytes a database directory holds on disk (log and
// checkpoint images) per byte of live user data.
func spaceAmp(dir string, liveBytes float64) (float64, error) {
	n, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}
	return float64(n) / liveBytes, nil
}

// drillCopies is how many copies of a crashed database are recovered; the
// reported recovery time is their median.
const drillCopies = 5

// recoverCopies copies the crashed database in dir drillCopies times and
// recovers each copy with recoverOne, which checks the recovered state and
// returns how long recovery took. It returns the median time in seconds.
func recoverCopies(dir string, recoverOne func(dir string) (time.Duration, error)) (float64, error) {
	var secs []float64
	for i := 0; i < drillCopies; i++ {
		c := fmt.Sprintf("%s.recover%d", dir, i)
		if err := copyDir(dir, c); err != nil {
			return 0, err
		}
		runtime.GC() // leave the copy's garbage out of the timed recovery
		took, err := recoverOne(c)
		if err != nil {
			return 0, fmt.Errorf("recovered copy %d: %w", i, err)
		}
		if err := os.RemoveAll(c); err != nil {
			return 0, err
		}
		secs = append(secs, took.Seconds())
	}
	return median(secs), nil
}
