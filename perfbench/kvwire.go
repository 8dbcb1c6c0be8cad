package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

const (
	kvShards  = 2
	kvClients = 2
	kvKeys    = 100_000
	kvValue   = 100
	// kvOpsPerTxn is a transaction's 4 Gets and 1 Put.
	kvOpsPerTxn = 5
	// kvCapacity is the KV record capacity per shard: the keys hash
	// about evenly over the shards, with room to spare.
	kvCapacity = 64_000
	// kvArena holds one shard's table (capacity x 110-byte records) and
	// its hash index (2 x capacity x 24-byte entries).
	kvArena = 16 << 20
	// kvPreloadBatch is how many Puts one preload transaction carries.
	kvPreloadBatch = 500
	// kvReadBatch is how many Gets one read-back transaction carries.
	kvReadBatch = 500
	// kvDrillTxns is the fixed work between the drill's checkpoint and its
	// crash.
	kvDrillTxns = 1000
)

// kvServer is a router behind a wire server on a loopback port.
type kvServer struct {
	cfg    shard.Config
	router *shard.Router
	srv    *wire.Server
	addr   string
	served chan error
}

func startKV(cfg shard.Config) (*kvServer, error) {
	router, _, err := shard.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		return nil, err
	}
	s := &kvServer{cfg: cfg, router: router, srv: wire.NewServer(router, wire.ServerConfig{}), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for it to exit. The router stays open.
func (s *kvServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// kvModel records the acknowledged Puts of one key space. For each key it
// keeps the values whose commit was acknowledged and the interval of each
// commit call, so that a read-back can tell which of them may be last.
type kvModel struct {
	mu   sync.Mutex
	puts map[uint64][]ackedPut
}

type ackedPut struct {
	val        []byte
	start, end time.Time // commit call
}

func newKVModel() *kvModel { return &kvModel{puts: make(map[uint64][]ackedPut)} }

func (m *kvModel) ack(key uint64, p ackedPut) {
	m.mu.Lock()
	m.puts[key] = append(m.puts[key], p)
	m.mu.Unlock()
}

// allowed reports whether v may be the final value of key: it must be an
// acknowledged value that no other acknowledged Put of the key provably
// followed. A Put whose commit began after another's was acknowledged was
// serialized after it, because each held the key's lock to its commit.
func (m *kvModel) allowed(key uint64, v []byte) bool {
	ps := m.puts[key]
	for _, p := range ps {
		if !bytes.Equal(p.val, v) {
			continue
		}
		superseded := false
		for _, q := range ps {
			if q.start.After(p.end) {
				superseded = true
				break
			}
		}
		return !superseded
	}
	return false
}

// keys lists the keys with an acknowledged Put.
func (m *kvModel) keys() []uint64 {
	out := make([]uint64, 0, len(m.puts))
	for k := range m.puts {
		out = append(out, k)
	}
	return out
}

// verify reads keys through get, batch by batch, and checks each value.
// It only reads the model, so several verifies may run at once.
func (m *kvModel) verify(keys []uint64, get func(keys []uint64) ([][]byte, error)) error {
	for i := 0; i < len(keys); i += kvReadBatch {
		batch := keys[i:min(i+kvReadBatch, len(keys))]
		vals, err := get(batch)
		if err != nil {
			return err
		}
		for j, k := range batch {
			if !m.allowed(k, vals[j]) {
				return fmt.Errorf("key %d: read back a value that is not its last acknowledged Put", k)
			}
		}
	}
	return nil
}

// readBack checks every acknowledged Put over kvClients fresh connections,
// each reading its share of the keys.
func readBack(addr string, m *kvModel) error {
	keys := m.keys()
	errs := make([]error, kvClients)
	var wg sync.WaitGroup
	for i := range errs {
		share := keys[i*len(keys)/kvClients : (i+1)*len(keys)/kvClients]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			errs[i] = m.verify(share, func(b []uint64) ([][]byte, error) { return wireGet(c, b) })
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// wireGet reads keys in one transaction over c.
func wireGet(c *wire.Client, keys []uint64) ([][]byte, error) {
	if err := c.Begin(); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := c.Get(k)
		if err != nil {
			c.Abort()
			return nil, fmt.Errorf("get %d: %w", k, err)
		}
		out[i] = v
	}
	return out, c.Commit()
}

// kvClient is one closed-loop connection.
type kvClient struct {
	loopStats
	id    int
	conn  *wire.Client
	gen   *kvGen
	tr    *tracer
	model *kvModel
}

// attempt runs one try of t over the connection.
func (c *kvClient) attempt(t kvTxn, tr *tracer) (ok bool, cause failCause, commit ackedPut, err error) {
	tr.begin(spanTxn)
	defer tr.end()
	fail := func(err error, open bool) (bool, failCause, ackedPut, error) {
		cause, cerr := classify(err, true)
		if cerr != nil {
			return false, 0, ackedPut{}, cerr
		}
		if open {
			if err := c.conn.Abort(); err != nil {
				return false, 0, ackedPut{}, fmt.Errorf("abort: %w", err)
			}
		}
		return false, cause, ackedPut{}, nil
	}
	tr.begin(spanWireBegin)
	err = c.conn.Begin()
	tr.end()
	if err != nil {
		return fail(err, false)
	}
	for _, k := range t.gets {
		tr.begin(spanWireGet)
		_, err := c.conn.Get(k)
		tr.end()
		if err != nil {
			return fail(err, true)
		}
	}
	tr.begin(spanWirePut)
	err = c.conn.Put(t.put, t.val)
	tr.end()
	if err != nil {
		return fail(err, true)
	}
	commit.start = time.Now()
	tr.begin(spanWireCommit)
	err = c.conn.Commit()
	tr.end()
	commit.end = time.Now()
	if err != nil {
		// The server has closed the transaction either way; a failed
		// commit aborted it.
		return fail(err, false)
	}
	commit.val = t.val
	return true, 0, commit, nil
}

func (c *kvClient) run(e *env, stop <-chan struct{}) error {
	for n := 0; ; n++ {
		select {
		case <-stop:
			return nil
		default:
		}
		t := c.gen.next()
		traced := e.trace && n%2 == 1
		tr := e.tracerFor(c.tr, traced)
		first := time.Now()
		for {
			c.attempts++
			tr.setTxn(uint64(c.id)<<40 | uint64(c.attempts))
			ok, cause, put, err := c.attempt(t, tr)
			if err != nil {
				return fmt.Errorf("client %d: %w", c.id, err)
			}
			if ok {
				c.ack(first, put.end, traced)
				c.model.ack(t.put, put)
				break
			}
			c.fails[cause]++
		}
	}
}

// kvPreload stores every key once over one connection.
func kvPreload(addr string, seed int64) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	gen := newKVGen(seed, streamPreload, kvKeys, kvValue)
	for k := 0; k < kvKeys; k += kvPreloadBatch {
		if err := c.Begin(); err != nil {
			return err
		}
		for key := uint64(k); key < uint64(min(k+kvPreloadBatch, kvKeys)); key++ {
			v := gen.value()
			if err := c.Put(key, v); err != nil {
				c.Abort()
				return fmt.Errorf("preload put %d: %w", key, err)
			}
		}
		if err := c.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func kvConfig(dir string) shard.Config {
	return shard.Config{
		Dir: dir, Shards: kvShards, ArenaSize: kvArena, Protect: oltpProtect, FS: pageCacheFS{},
		ValueSize: kvValue, Capacity: kvCapacity,
	}
}

// routerObs sums the shards' engine metrics and returns them with the
// router's own (router and server) metrics.
func routerObs(r *shard.Router) (engine, router obs.Snapshot) {
	m := r.Metrics()
	for name, s := range m {
		if name == "router" {
			router = s
		} else {
			engine = obsAdd(engine, s)
		}
	}
	return engine, router
}

// runKVWire is a wire server over a two-shard router on loopback, two
// connections running 4-Get-1-Put transactions on uniformly drawn keys.
func runKVWire(e *env) (*result, error) {
	res := &result{latUnit: "transaction, first attempt to commit ack"}
	var setups []float64
	var kv *kvServer
	for i := 0; i < setupRepeats; i++ {
		dir, err := e.freshDir(fmt.Sprintf("kv-%d", i))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if kv, err = startKV(kvConfig(dir)); err != nil {
			return nil, err
		}
		if err := kvPreload(kv.addr, e.seed); err != nil {
			return nil, err
		}
		if err := kv.router.Checkpoint(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := errors.Join(kv.stop(), kv.router.Close(), os.RemoveAll(dir)); err != nil {
				return nil, err
			}
		}
	}
	res.setupS = median(setups)
	defer os.RemoveAll(kv.cfg.Dir)
	defer kv.router.Close()
	stopped := false
	defer func() {
		if !stopped {
			kv.stop()
		}
	}()

	model := newKVModel()
	runtime.GC() // leave set-up's garbage out of the measured phase
	t0 := time.Now()
	clients := make([]*kvClient, kvClients)
	stats := make([]*loopStats, kvClients)
	var tracers []*tracer
	for i := range clients {
		conn, err := wire.Dial(kv.addr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		clients[i] = &kvClient{loopStats: newLoopStats(t0), id: i, conn: conn,
			gen: newKVGen(e.seed, uint64(1+i), kvKeys, kvValue), tr: newTracer(e.epoch), model: model}
		stats[i] = &clients[i].loopStats
		tracers = append(tracers, clients[i].tr)
	}

	eng0, rt0 := routerObs(kv.router)
	gs0 := readGoStats()
	stop := make(chan struct{})
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *kvClient) {
			defer wg.Done()
			errs[i] = c.run(e, stop)
		}(i, c)
	}
	time.Sleep(time.Duration(e.seconds * float64(time.Second)))
	close(stop)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	eng1, rt1 := routerObs(kv.router)
	gs := readGoStats().sub(gs0)

	txns, overhead := loopSummary(res, stats, t0, kvOpsPerTxn)
	ops := txns * kvOpsPerTxn
	rtDelta := obsDelta(rt1, rt0)
	cross := float64(rtDelta.Counter(obs.NameShardCrossCommits))
	res.report = append(res.report,
		metric{Name: "cross_shard_commit_frac", Value: ratio(cross, cross+float64(rtDelta.Counter(obs.NameShardFastpathCommits))), Unit: "ratio", N: txns})

	if err := readBack(kv.addr, model); err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	if err := kv.router.Audit(); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}

	// Crash drill: checkpoint, a fixed amount of seeded work, crash every
	// shard, recover.
	ckpt0, _ := routerObs(kv.router)
	ctr := e.tracerFor(tracers[0], true)
	ctr.begin(spanCheckpoint)
	err := kv.router.Checkpoint()
	ctr.end()
	if err != nil {
		return nil, err
	}
	ckpt1, _ := routerObs(kv.router)
	drill := &kvClient{}
	if drill.conn, err = wire.Dial(kv.addr); err != nil {
		return nil, err
	}
	gen := newKVGen(e.seed, streamRecoveryTail, kvKeys, kvValue)
	for i := 0; i < kvDrillTxns; i++ {
		t := gen.next()
		ok, cause, p, err := drill.attempt(t, nil)
		if err == nil && !ok {
			err = fmt.Errorf("failed: %s", failNames[cause])
		}
		if err != nil {
			drill.conn.Close()
			return nil, fmt.Errorf("drill transaction %d: %w", i, err)
		}
		model.ack(t.put, p)
	}
	drill.conn.Close()
	res.spaceAmp, err = spaceAmp(kv.cfg.Dir, kvKeys*(8+kvValue))
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := kv.stop(); err != nil {
		return nil, err
	}
	for i := 0; i < kvShards; i++ {
		if err := kv.router.DB(i).Crash(); err != nil {
			return nil, err
		}
	}
	var rtr *tracer
	if e.trace {
		rtr = tracers[0]
	}
	var scanned, redone int
	res.recoveryS, err = recoverCopies(kv.cfg.Dir, func(dir string) (time.Duration, error) {
		start := time.Now()
		rtr.begin(spanRecovery)
		r, rep, err := shard.Open(kvConfig(dir))
		rtr.end()
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		scanned, redone = 0, 0
		for _, p := range rep.PerShard {
			scanned += p.RecordsScanned
			redone += p.RedoApplied
		}
		if err := model.verify(model.keys(), func(keys []uint64) ([][]byte, error) { return routerGet(r, keys) }); err != nil {
			return 0, err
		}
		return took, r.Audit()
	})
	if err != nil {
		return nil, err
	}

	if e.trace {
		st := mergeTracers(tracers)
		res.layers = layerMetrics(layerInput{
			trace: st, obs: obsDelta(eng1, eng0), ckpt: obsDelta(ckpt1, ckpt0), router: rtDelta, goStats: gs, ops: ops, txns: txns,
			attempts: res.attempted, fails: res.fails, overhead: overhead,
			recovery: &recoveryFacts{scanned: scanned, redone: redone},
		})
		if err := st.write(traceFile(e, "kv-wire")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// routerGet reads keys in one router transaction, in process.
func routerGet(r *shard.Router, keys []uint64) ([][]byte, error) {
	t := r.Begin()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := t.Get(k)
		if err != nil {
			t.Abort()
			return nil, fmt.Errorf("get %d: %w", k, err)
		}
		out[i] = v
	}
	return out, t.Commit()
}
