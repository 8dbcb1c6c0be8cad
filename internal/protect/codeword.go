package protect

import (
	"fmt"
	"time"

	"repro/internal/latch"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/region"
)

// codewordScheme implements Data Codeword, Read Logging and CW Read
// Logging, which share codeword maintenance and differ in read-side
// behaviour:
//
//   - Data Codeword (§3.2): updaters hold the protection latch in shared
//     mode (the codeword latch inside region.Table serializes the actual
//     codeword words); audits take the protection latch exclusive region
//     by region. Reads are free.
//   - Read Logging (§4.2): same, plus every read is reported for logging
//     (identity only: start and byte count).
//   - CW Read Logging (§4.3 extension): read-log records additionally
//     carry the codeword computed from the contents of the covering
//     region(s), and write records carry the pre-update region codeword;
//     the protection latch is taken shared while computing so a
//     half-complete concurrent update cannot tear the value.
type codewordScheme struct {
	kind  Kind
	arena *mem.Arena
	tab   *region.Table
	prot  *latch.Striped //dbvet:latch protection — the paper's protection latches

	onHeal func(region.RepairResult, time.Duration)

	mCWCaptures *obs.Counter // codewords captured for read-log records
}

func newCodewordScheme(arena *mem.Arena, cfg Config) (*codewordScheme, error) {
	tab, err := region.NewTable(arena.Size(), cfg.RegionSize)
	if err != nil {
		return nil, err
	}
	s := &codewordScheme{
		kind:        cfg.Kind,
		arena:       arena,
		tab:         tab,
		prot:        latch.NewStriped(min(latchStripes, tab.NumRegions())),
		onHeal:      cfg.OnHeal,
		mCWCaptures: cfg.Obs.Counter(obs.NameCWCaptures),
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

func (s *codewordScheme) Name() string {
	switch s.kind {
	case KindReadLog:
		return fmt.Sprintf("Data CW w/ReadLog (%dB)", s.tab.RegionSize())
	case KindCWReadLog:
		return fmt.Sprintf("Data CW w/CW ReadLog (%dB)", s.tab.RegionSize())
	default:
		return fmt.Sprintf("Data CW (%dB)", s.tab.RegionSize())
	}
}

func (s *codewordScheme) Kind() Kind      { return s.kind }
func (s *codewordScheme) RegionSize() int { return s.tab.RegionSize() }

func (s *codewordScheme) Protector() mem.Protector { return mem.NopProtector{} }

// BeginUpdate takes the protection latches covering the update in shared
// mode; they are held across the user's in-place write so that an audit
// (which takes them exclusive) can never observe a half-applied update
// whose codeword has not yet been maintained.
func (s *codewordScheme) BeginUpdate(addr mem.Addr, n int) (*UpdateToken, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return nil, err
	}
	first, last := s.tab.RegionRange(addr, n)
	g := s.prot.AcquireRange(uint64(first), uint64(last), false)
	return &UpdateToken{addr: addr, n: n, guard: g}, nil
}

// EndUpdate folds old⊕new into the affected codewords (under the codeword
// latch inside the table) and releases the protection latches.
func (s *codewordScheme) EndUpdate(tok *UpdateToken, old, new []byte) error {
	defer tok.guard.Release()
	return s.tab.ApplyUpdate(tok.addr, old, new)
}

// AbortUpdate releases the latches without codeword maintenance: the
// caller restored the before-image, and the codeword still describes it.
func (s *codewordScheme) AbortUpdate(tok *UpdateToken) error {
	tok.guard.Release()
	return nil
}

// PreWriteCW implements the "write treated as read followed by write"
// rule of the CW Read Logging extension. The caller has already written
// new over old in place, so the pre-update codeword of each covered
// region is the current codeword with new⊕old folded back in; the XOR of
// those per-region values is returned. The caller still holds the
// update's protection latches, making the computation stable.
func (s *codewordScheme) PreWriteCW(addr mem.Addr, old, new []byte) (region.Codeword, bool) {
	if s.kind != KindCWReadLog {
		return 0, false
	}
	first, last := s.tab.RegionRange(addr, len(new))
	var cw region.Codeword
	for r := first; r <= last; r++ {
		start := s.tab.RegionStart(r)
		cw ^= region.Compute(s.arena.Slice(start, s.tab.RegionSize()))
	}
	// Fold the in-place write back out to recover the pre-update value.
	cw = foldDelta(cw, addr, old, new, s.tab)
	return cw, true
}

// foldDelta XORs the lane-aligned old⊕new delta of an update into cw.
// Folding a delta into the XOR-combined codeword of the covered regions
// is region-independent because XOR is associative. region.FoldDelta
// fuses the XOR of the two images into the fold, so no delta slice is
// materialized.
func foldDelta(cw region.Codeword, addr mem.Addr, old, new []byte, tab *region.Table) region.Codeword {
	return region.FoldDelta(cw, old, new, int(addr&7))
}

// Read implements read-side behaviour. For KindCWReadLog the covering
// protection latches are taken shared while the codeword is computed from
// region contents; updaters also hold them shared, but any update already
// applied to the bytes has, by the time our latch is granted... — note:
// updaters hold the latch across the whole write bracket, so a shared
// co-holder can be mid-write. Reads of the same object are serialized
// against writes by transaction locks above this layer; unrelated data in
// the same region may be mid-update, which is why the computation folds
// the region contents as they are: the logged codeword describes exactly
// the bytes this transaction could have observed.
func (s *codewordScheme) Read(addr mem.Addr, n int) (ReadInfo, error) {
	if err := s.arena.CheckRange(addr, n); err != nil {
		return ReadInfo{}, err
	}
	switch s.kind {
	case KindDataCW:
		return ReadInfo{}, nil
	case KindReadLog:
		return ReadInfo{LogRead: true}, nil
	}
	// KindCWReadLog: compute contents codeword of covering regions.
	first, last := s.tab.RegionRange(addr, n)
	g := s.prot.AcquireRange(uint64(first), uint64(last), false)
	var cw region.Codeword
	for r := first; r <= last; r++ {
		start := s.tab.RegionStart(r)
		cw ^= region.Compute(s.arena.Slice(start, s.tab.RegionSize()))
	}
	g.Release()
	s.mCWCaptures.Inc()
	return ReadInfo{LogRead: true, HasCW: true, CW: cw}, nil
}

// Audit checks every region, taking each region's protection latch
// exclusive for the duration of its check (paper §3.2: "during audit, the
// protection latch must be taken in exclusive mode to obtain a consistent
// image of the protection region and associated codeword").
func (s *codewordScheme) Audit() []region.Mismatch {
	return s.AuditRange(0, s.arena.Size())
}

// AuditRange audits the regions intersecting [addr, addr+n), taking the
// protection latch exclusive region by region.
func (s *codewordScheme) AuditRange(addr mem.Addr, n int) []region.Mismatch {
	first, last := s.tab.RegionRange(addr, n)
	return auditRegions(s.tab, first, last, func(r int) (region.Mismatch, bool) {
		l := s.prot.For(uint64(r))
		l.Lock()
		defer l.Unlock()
		return s.tab.AuditRegion(s.arena, r)
	})
}

// Diagnose classifies region r's ECC syndrome under the audit latching
// (protection latch exclusive) without mutating anything.
func (s *codewordScheme) Diagnose(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	return s.tab.Diagnose(s.arena, r)
}

// Heal attempts in-place correction of region r under the audit latching.
func (s *codewordScheme) Heal(r int) region.RepairResult {
	l := s.prot.For(uint64(r))
	l.Lock()
	defer l.Unlock()
	return healRegion(s.tab, s.arena, r, s.onHeal)
}

// Recompute re-derives all codewords from the image.
func (s *codewordScheme) Recompute() error {
	s.tab.RecomputeAll(s.arena)
	return nil
}

// Table exposes the codeword table for white-box tests.
func (s *codewordScheme) Table() *region.Table { return s.tab }
