package protect

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/region"
)

// deferredScheme is the Deferred Maintenance codeword scheme the paper
// references in §4.3 (detailed in the underlying thesis): a Data Codeword
// variant in which endUpdate does not touch the codeword table at all —
// it queues the per-region XOR deltas, and the deltas are folded in
// batches, either when the queue passes a threshold or at the start of an
// audit. The update hot path thereby avoids the codeword latch entirely;
// the price is that the stored codewords lag the data between drains, so
// every verification must drain first.
//
// Correctness of the audit: each region's check takes the protection
// latch exclusive and then drains the queue. Updaters hold the protection
// latch shared across the whole bracket and queue their delta before
// releasing it, so once the auditor holds a region exclusively, every
// completed update of that region has its delta either applied or in the
// queue the auditor is about to drain — and no new delta for that region
// can appear until the auditor releases the latch.
type deferredScheme struct {
	arena *mem.Arena
	tab   *region.Table
	prot  *latch.Striped //dbvet:latch protection

	mu      sync.Mutex
	pending []region.Delta
	// drainThreshold bounds queue growth; EndUpdate drains inline past it.
	drainThreshold int

	drains uint64

	onHeal func(region.RepairResult, time.Duration)

	mDrains  *obs.Counter
	gPending *obs.Gauge
}

func newDeferredScheme(arena *mem.Arena, cfg Config) (*deferredScheme, error) {
	tab, err := region.NewTable(arena.Size(), cfg.RegionSize)
	if err != nil {
		return nil, err
	}
	s := &deferredScheme{
		arena:          arena,
		tab:            tab,
		prot:           latch.NewStriped(min(latchStripes, tab.NumRegions())),
		drainThreshold: 4096,
		onHeal:         cfg.OnHeal,
		mDrains:        cfg.Obs.Counter(obs.NameDeferredDrains),
		gPending:       cfg.Obs.Gauge(obs.NameRegionDeferredQueue),
	}
	tab.SetRegistry(cfg.Obs)
	if !cfg.DisableECC {
		tab.EnableECC()
	}
	s.prot.Instrument(cfg.Obs, "protect",
		cfg.Obs.Histogram(obs.NameProtLatchWaitNS), cfg.Obs.Counter(obs.NameProtLatchContends))
	tab.RecomputeAll(arena)
	return s, nil
}

func (s *deferredScheme) Name() string {
	return fmt.Sprintf("Data CW deferred (%dB)", s.tab.RegionSize())
}

func (s *deferredScheme) Kind() Kind               { return KindDeferredCW }
func (s *deferredScheme) RegionSize() int          { return s.tab.RegionSize() }
func (s *deferredScheme) Protector() mem.Protector { return mem.NopProtector{} }

func (s *deferredScheme) BeginUpdate(addr mem.Addr, n int) (*UpdateToken, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return nil, err
	}
	first, last := s.tab.RegionRange(addr, n)
	g := s.prot.AcquireRange(uint64(first), uint64(last), false)
	return &UpdateToken{addr: addr, n: n, guard: g}, nil
}

// EndUpdate queues the codeword deltas — still under the protection
// latch — instead of folding them.
func (s *deferredScheme) EndUpdate(tok *UpdateToken, old, new []byte) error {
	deltas, err := s.tab.UpdateDeltas(nil, tok.addr, old, new)
	if err != nil {
		tok.guard.Release()
		return err
	}
	s.mu.Lock()
	s.pending = append(s.pending, deltas...)
	needDrain := len(s.pending) >= s.drainThreshold
	s.gPending.Set(int64(len(s.pending)))
	s.mu.Unlock()
	tok.guard.Release()
	if needDrain {
		s.Drain()
	}
	return nil
}

func (s *deferredScheme) AbortUpdate(tok *UpdateToken) error {
	tok.guard.Release()
	return nil
}

func (s *deferredScheme) PreWriteCW(mem.Addr, []byte, []byte) (region.Codeword, bool) {
	return 0, false
}

func (s *deferredScheme) Read(addr mem.Addr, n int) (ReadInfo, error) {
	return ReadInfo{}, s.arena.CheckRange(addr, n)
}

// Drain folds every queued delta into the codeword table. The queue
// mutex is held across the application so a concurrent drainer cannot
// leave deltas half-applied while an auditor (whose own Drain call would
// then see an empty queue) verifies the region.
func (s *deferredScheme) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.pending {
		s.tab.XorDelta(d)
	}
	s.pending = s.pending[:0]
	s.drains++
	s.mDrains.Inc()
	s.gPending.Set(0)
}

// PendingDeltas reports the current queue depth (tests, instrumentation).
func (s *deferredScheme) PendingDeltas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Drains reports completed drain batches.
func (s *deferredScheme) Drains() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drains
}

func (s *deferredScheme) Audit() []region.Mismatch {
	return s.AuditRange(0, s.arena.Size())
}

// AuditRange audits the regions intersecting [addr, addr+n), region by
// region: protection latch exclusive, drain the delta queue, then verify
// — so a concurrently completed update of region r is either applied by
// the drain or blocked on r's latch until the verification is done.
func (s *deferredScheme) AuditRange(addr mem.Addr, n int) []region.Mismatch {
	first, last := s.tab.RegionRange(addr, n)
	return auditRegions(s.tab, first, last, func(r int) (region.Mismatch, bool) {
		l := s.prot.For(uint64(r))
		l.Lock()
		defer l.Unlock()
		s.Drain()
		return s.tab.AuditRegion(s.arena, r)
	})
}

// Diagnose classifies region r's ECC syndrome under the audit discipline:
// protection latch exclusive, drain the queue (stored codewords and
// planes lag the data between drains), then compute syndromes.
func (s *deferredScheme) Diagnose(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	s.Drain()
	return s.tab.Diagnose(s.arena, r)
}

// Heal attempts in-place correction of region r under the audit
// discipline (latch exclusive, drain, repair).
func (s *deferredScheme) Heal(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	s.Drain()
	return healRegion(s.tab, s.arena, r, s.onHeal)
}

func (s *deferredScheme) Recompute() error {
	s.mu.Lock()
	s.pending = nil
	s.mu.Unlock()
	s.tab.RecomputeAll(s.arena)
	return nil
}

// Table exposes the codeword table for white-box tests.
func (s *deferredScheme) Table() *region.Table { return s.tab }
