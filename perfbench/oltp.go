package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/tpcb"
)

const (
	oltpClients = 2
	// oltpOpsPerTxn is the transaction size: short transactions, so that
	// commits, group commit and lock conflicts dominate, unlike table2.
	oltpOpsPerTxn = 10
	// oltpDeadline is the client's latency limit on one attempt. It is a
	// property of the client: an attempt that misses it is aborted,
	// counted as failed and retried.
	oltpDeadline = 100 * time.Millisecond
	// oltpCkptEvery is the checkpoint cadence in committed transactions.
	oltpCkptEvery = 4000
	// oltpNominalRate (txn/s, about the seed's rate on 2 cores) sizes an
	// oltp run's fixed work from --seconds.
	oltpNominalRate = 1200
	// setupRepeats is how many times a workload builds its database; the
	// reported set-up time is the median and the last one is measured.
	setupRepeats = 3
	// initialBalance is what tpcb.Setup stores in every balance.
	initialBalance = 1_000_000
)

var oltpProtect = protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}

// oltpClient is one closed-loop client and everything it accounts for.
type oltpClient struct {
	loopStats
	id  int
	db  *core.DB
	tb  tpcbTables
	gen *tpcbGen
	tr  *tracer
	seq uint64 // next history sequence number (client id in the high bits)

	// Balance deltas of acknowledged transactions, indexed by record id.
	acct, tell, brch []int64
}

// attempt runs one try of a transaction under the client deadline. It
// returns ok, or the cause of a failed try; err is for failures the
// benchmark does not expect.
func (c *oltpClient) attempt(ops []tpcbOp, tr *tracer) (ok bool, cause failCause, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The deadline cancels the context only up to the commit call: a
	// commit already in its group-commit wait is never cut short, so its
	// outcome is always known.
	timer := time.AfterFunc(oltpDeadline, cancel)
	tr.begin(spanTxn)
	defer tr.end()
	tr.begin(spanBegin)
	txn, err := c.db.BeginCtx(ctx)
	tr.end()
	if err != nil {
		timer.Stop()
		cause, err := classify(err, false)
		return false, cause, err
	}
	abort := func(cause failCause) (bool, failCause, error) {
		if err := txn.Abort(); err != nil {
			return false, 0, fmt.Errorf("abort: %w", err)
		}
		return false, cause, nil
	}
	for i, op := range ops {
		if err := doOp(txn, tr, c.tb, op, c.seq+uint64(i)); err != nil {
			timer.Stop()
			cause, cerr := classify(err, true)
			if cerr != nil {
				txn.Abort()
				return false, 0, cerr
			}
			return abort(cause)
		}
	}
	if !timer.Stop() {
		return abort(failDeadlineOther)
	}
	tr.begin(spanCommit)
	err = txn.Commit()
	tr.end()
	if err != nil {
		return false, 0, fmt.Errorf("commit: %w", err)
	}
	return true, 0, nil
}

// run runs transactions while claim grants them, retrying each failed
// attempt with the same ops.
func (c *oltpClient) run(e *env, claim func() bool, onCommit func()) error {
	ops := make([]tpcbOp, oltpOpsPerTxn)
	for n := 0; claim(); n++ {
		for i := range ops {
			ops[i] = c.gen.next()
		}
		traced := e.trace && n%2 == 1
		tr := e.tracerFor(c.tr, traced)
		first := time.Now()
		for {
			c.attempts++
			tr.setTxn(uint64(c.id)<<40 | uint64(c.attempts))
			ok, cause, err := c.attempt(ops, tr)
			if err != nil {
				return fmt.Errorf("client %d: %w", c.id, err)
			}
			if ok {
				break
			}
			c.fails[cause]++
		}
		c.ack(first, time.Now(), traced)
		for _, op := range ops {
			c.acct[op.acct] += op.delta
			c.tell[op.tell] += op.delta
			c.brch[op.brch] += op.delta
		}
		c.seq += uint64(len(ops))
		onCommit()
	}
	return nil
}

// oltpTxns is the fixed work of an oltp run: about --seconds of
// transactions at oltpNominalRate, ending half a checkpoint cadence after
// a checkpoint trigger, so that recovery replays about the same log in
// every run and the history table holds the same number of records.
func oltpTxns(seconds float64) int64 {
	n := int64(seconds*oltpNominalRate) / oltpCkptEvery * oltpCkptEvery
	return n + oltpCkptEvery/2
}

// runOLTP is two clients running short TPC-B transactions at paper scale
// under Data CW w/Precheck 64 B, with a checkpoint every oltpCkptEvery
// commits, followed by a crash and a timed restart recovery.
func runOLTP(e *env) (*result, error) {
	total := oltpTxns(e.seconds)
	scale := tpcb.PaperScale
	scale.HistoryCap = int(total) * oltpOpsPerTxn
	res := &result{latUnit: "transaction, first attempt to commit ack"}

	var setups []float64
	var db *core.DB
	var tb tpcbTables
	var cfg core.Config
	for i := 0; i < setupRepeats; i++ {
		dir, err := e.freshDir(fmt.Sprintf("oltp-%d", i))
		if err != nil {
			return nil, err
		}
		cfg = core.Config{Dir: dir, ArenaSize: scale.ArenaSize(), Protect: oltpProtect, FS: pageCacheFS{}}
		start := time.Now()
		if db, err = core.Open(cfg); err != nil {
			return nil, err
		}
		w, err := tpcb.Setup(db, scale, e.seed)
		if err != nil {
			db.Close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		tb = tablesOf(w)
		if i < setupRepeats-1 {
			if err := db.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	res.setupS = median(setups)
	defer os.RemoveAll(cfg.Dir)

	runtime.GC() // leave set-up's garbage out of the measured phase
	t0 := time.Now()
	clients := make([]*oltpClient, oltpClients)
	stats := make([]*loopStats, oltpClients)
	tracers := []*tracer{newTracer(e.epoch)} // [0] is the checkpointer's
	for i := range clients {
		clients[i] = &oltpClient{
			loopStats: newLoopStats(t0),
			id:        i, db: db, tb: tb, gen: newTPCBGen(e.seed, uint64(1+i), scale),
			tr:   newTracer(e.epoch),
			seq:  uint64(i) << 40,
			acct: make([]int64, scale.Accounts), tell: make([]int64, scale.Tellers), brch: make([]int64, scale.Branches),
		}
		stats[i] = &clients[i].loopStats
		tracers = append(tracers, clients[i].tr)
	}

	var (
		claimed, committed atomic.Int64
		ckpts              int
		ckptErr            error
		wg                 sync.WaitGroup
	)
	claim := func() bool { return claimed.Add(1) <= total }
	ckptReq := make(chan struct{}, 1)
	onCommit := func() {
		if committed.Add(1)%oltpCkptEvery == 0 {
			select {
			case ckptReq <- struct{}{}:
			default: // a checkpoint is already pending
			}
		}
	}

	obs0, gs0 := db.Metrics(), readGoStats()
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		tr := e.tracerFor(tracers[0], true)
		for range ckptReq {
			tr.begin(spanCheckpoint)
			err := db.Checkpoint()
			tr.end()
			if err != nil {
				ckptErr = err
				return
			}
			ckpts++
		}
	}()
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *oltpClient) {
			defer wg.Done()
			errs[i] = c.run(e, claim, onCommit)
		}(i, c)
	}
	wg.Wait()
	close(ckptReq)
	<-ckptDone
	if err := errors.Join(append(errs, ckptErr)...); err != nil {
		return nil, err
	}

	obsDeltaRun := obsDelta(db.Metrics(), obs0)
	gs := readGoStats().sub(gs0)
	txns, overhead := loopSummary(res, stats, t0, oltpOpsPerTxn)
	ops := txns * oltpOpsPerTxn
	res.report = append(res.report,
		metric{Name: "checkpoints", Value: float64(ckpts), Unit: "count", Note: fmt.Sprintf("every %d commits", oltpCkptEvery)})

	history := tb.history.Count()
	if history != ops {
		return nil, fmt.Errorf("history holds %d records, %d ops committed", history, ops)
	}
	amp, err := spaceAmp(cfg.Dir, float64((scale.Accounts+scale.Tellers+scale.Branches+history)*tpcb.RecordSize))
	if err != nil {
		return nil, err
	}
	res.spaceAmp = amp
	if err := db.Crash(); err != nil {
		return nil, err
	}
	var rtr *tracer
	if e.trace {
		rtr = tracers[0]
	}
	var rep *recovery.Report
	secs, err := recoverCopies(cfg.Dir, func(dir string) (time.Duration, error) {
		c := cfg
		c.Dir = dir
		start := time.Now()
		rtr.begin(spanRecovery)
		rdb, r, err := recovery.Open(c, recovery.Options{})
		rtr.end()
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		defer rdb.Close()
		rep = r
		w, err := tpcb.Attach(rdb, scale, 0)
		if err != nil {
			return 0, err
		}
		return took, checkOLTP(rdb, tablesOf(w), clients, ops)
	})
	if err != nil {
		return nil, err
	}
	res.recoveryS = secs

	if e.trace {
		st := mergeTracers(tracers)
		res.layers = layerMetrics(layerInput{
			trace: st, obs: obsDeltaRun, ckpt: obsDeltaRun, goStats: gs, ops: ops, txns: txns,
			attempts: res.attempted, fails: res.fails, overhead: overhead,
			recovery: &recoveryFacts{scanned: rep.RecordsScanned, redone: rep.RedoApplied},
		})
		if err := st.write(traceFile(e, "oltp")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkOLTP verifies a recovered database against what the clients were
// told committed: every balance equals its initial value plus the
// acknowledged deltas, the history holds exactly the acknowledged ops and
// their deltas, and the codeword audit is clean.
func checkOLTP(db *core.DB, tb tpcbTables, clients []*oltpClient, ops int) error {
	for _, t := range []struct {
		name  string
		table *heap.Table
		delta func(*oltpClient) []int64
	}{
		{"account", tb.account, func(c *oltpClient) []int64 { return c.acct }},
		{"teller", tb.teller, func(c *oltpClient) []int64 { return c.tell }},
		{"branch", tb.branch, func(c *oltpClient) []int64 { return c.brch }},
	} {
		var bad error
		t.table.Scan(func(_ heap.RID, rec []byte) bool {
			id := binary.LittleEndian.Uint64(rec[0:])
			want := int64(initialBalance)
			for _, c := range clients {
				want += t.delta(c)[id]
			}
			if got := int64(binary.LittleEndian.Uint64(rec[balanceOffset:])); got != want {
				bad = fmt.Errorf("%s %d: balance %d, acknowledged %d", t.name, id, got, want)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	var histDelta, ackDelta int64
	tb.history.Scan(func(_ heap.RID, rec []byte) bool {
		histDelta += int64(binary.LittleEndian.Uint64(rec[20:]))
		return true
	})
	for _, c := range clients {
		for _, d := range c.acct {
			ackDelta += d
		}
	}
	if n := tb.history.Count(); n != ops || histDelta != ackDelta {
		return fmt.Errorf("history holds %d records moving %d, acknowledged %d ops moving %d", n, histDelta, ops, ackDelta)
	}
	if err := db.Audit(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}
