package region

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/latch"
	"repro/internal/mem"
)

func newArena(t *testing.T, size int) *mem.Arena {
	t.Helper()
	a, err := mem.NewArena(size, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func TestComputeMatchesFold(t *testing.T) {
	f := func(data []byte) bool {
		return Compute(data) == Fold(0, data, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldIsInvolution(t *testing.T) {
	// Folding the same data twice cancels: cw ^ fold(d) ^ fold(d) == cw.
	f := func(cw uint64, data []byte, phase uint8) bool {
		p := int(phase % 8)
		once := Fold(Codeword(cw), data, p)
		twice := Fold(once, data, p)
		return twice == Codeword(cw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldPhaseWraps(t *testing.T) {
	// A byte folded at phase p lands in bit lane 8p.
	for p := 0; p < 8; p++ {
		got := Fold(0, []byte{0xFF}, p)
		want := Codeword(uint64(0xFF) << (8 * p))
		if got != want {
			t.Errorf("phase %d: got %016x want %016x", p, uint64(got), uint64(want))
		}
	}
	// Nine bytes at phase 7: last byte wraps twice through lane arithmetic.
	got := Fold(0, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 7)
	want := Fold(Fold(0, []byte{1}, 7), []byte{2, 3, 4, 5, 6, 7, 8, 9}, 0)
	if got != want {
		t.Fatalf("wrap: got %016x want %016x", uint64(got), uint64(want))
	}
}

func TestComputeWordExample(t *testing.T) {
	// One little-endian word 0x0807060504030201.
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if got := Compute(data); got != 0x0807060504030201 {
		t.Fatalf("got %016x", uint64(got))
	}
	// Two identical words XOR to zero.
	if got := Compute(append(data, data...)); got != 0 {
		t.Fatalf("two identical words: got %016x, want 0", uint64(got))
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(4096, 7); err == nil {
		t.Error("accepted non-power-of-two region size")
	}
	if _, err := NewTable(4096, 4); err == nil {
		t.Error("accepted region size below minimum")
	}
	if _, err := NewTable(4100, 64); err == nil {
		t.Error("accepted arena size not a multiple of region size")
	}
	if _, err := NewTable(0, 64); err == nil {
		t.Error("accepted zero arena size")
	}
	tab, err := NewTable(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRegions() != 64 {
		t.Fatalf("regions = %d, want 64", tab.NumRegions())
	}
	if tab.RegionSize() != 64 {
		t.Fatalf("region size = %d, want 64", tab.RegionSize())
	}
}

func TestRegionOfAndRange(t *testing.T) {
	tab, err := NewTable(4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	if tab.RegionOf(0) != 0 || tab.RegionOf(511) != 0 || tab.RegionOf(512) != 1 {
		t.Fatal("RegionOf boundaries wrong")
	}
	first, last := tab.RegionRange(500, 100)
	if first != 0 || last != 1 {
		t.Fatalf("RegionRange(500,100) = %d,%d", first, last)
	}
	first, last = tab.RegionRange(1024, 0)
	if first != 2 || last != 2 {
		t.Fatalf("zero-length range = %d,%d", first, last)
	}
	if tab.RegionStart(3) != 1536 {
		t.Fatalf("RegionStart(3) = %d", tab.RegionStart(3))
	}
}

func TestApplyUpdateMatchesRecompute(t *testing.T) {
	const arenaSize = 1 << 16
	a := newArena(t, arenaSize)
	tab, err := NewTable(arenaSize, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	rng.Read(a.Bytes())
	tab.RecomputeAll(a)

	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(300) // frequently spans regions
		addr := mem.Addr(rng.Intn(arenaSize - n))
		oldData := append([]byte(nil), a.Slice(addr, n)...)
		newData := make([]byte, n)
		rng.Read(newData)
		copy(a.Slice(addr, n), newData)
		if err := tab.ApplyUpdate(addr, oldData, newData); err != nil {
			t.Fatal(err)
		}
	}
	if bad := tab.AuditAll(a); len(bad) != 0 {
		t.Fatalf("incremental maintenance diverged from contents: %v", bad[0])
	}
}

func TestApplyUpdateLengthMismatch(t *testing.T) {
	tab, err := NewTable(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.ApplyUpdate(0, []byte{1}, []byte{1, 2}); err == nil {
		t.Fatal("accepted mismatched image lengths")
	}
}

func TestApplyUpdateBeyondTable(t *testing.T) {
	tab, err := NewTable(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.ApplyUpdate(127, []byte{1, 2}, []byte{3, 4}); err == nil {
		t.Fatal("accepted update beyond codeword table")
	}
}

func TestAuditDetectsWildWrite(t *testing.T) {
	const arenaSize = 8192
	a := newArena(t, arenaSize)
	tab, err := NewTable(arenaSize, 64)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Read(a.Bytes())
	tab.RecomputeAll(a)
	if bad := tab.AuditAll(a); len(bad) != 0 {
		t.Fatalf("clean image failed audit: %v", bad)
	}

	// Wild write bypassing codeword maintenance.
	a.Bytes()[777] ^= 0x40
	bad := tab.AuditAll(a)
	if len(bad) != 1 {
		t.Fatalf("audit found %d mismatches, want 1", len(bad))
	}
	if bad[0].Region != 777/64 {
		t.Fatalf("mismatch in region %d, want %d", bad[0].Region, 777/64)
	}
	if bad[0].Stored == bad[0].Actual {
		t.Fatal("mismatch reports equal codewords")
	}
	if bad[0].String() == "" {
		t.Fatal("empty mismatch description")
	}
}

// TestRecomputeAndAuditParallelMatchSerial checks that region scans split
// across goroutines over disjoint region ranges, as a caller may run them,
// produce the same codewords as RecomputeAll and, concatenated in range
// order, exactly the mismatches of AuditAll in ascending order.
func TestRecomputeAndAuditParallelMatchSerial(t *testing.T) {
	const arenaSize = 1 << 20
	const workers = 4
	a := newArena(t, arenaSize)
	rand.New(rand.NewSource(11)).Read(a.Bytes())

	serial, _ := NewTable(arenaSize, 512)
	parallel, _ := NewTable(arenaSize, 512)
	serial.RecomputeAll(a)
	n := parallel.NumRegions()
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for r := lo; r < hi; r++ {
				parallel.recomputeRegion(a, r)
			}
		}(lo, hi)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if serial.Codeword(r) != parallel.Codeword(r) {
			t.Fatalf("region %d: serial %016x parallel %016x",
				r, uint64(serial.Codeword(r)), uint64(parallel.Codeword(r)))
		}
	}

	// Corrupt a few regions; the split audit must report exactly the same
	// mismatches in the same ascending order.
	for _, off := range []int{100, 99_000, 512_001, arenaSize - 5} {
		a.Bytes()[off] ^= 0x5a
	}
	sm := serial.AuditAll(a)
	parts := make([][]Mismatch, workers)
	for i := range parts {
		lo := i * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			parts[i] = parallel.AuditRange(a, parallel.RegionStart(lo), (hi-lo)*parallel.RegionSize())
		}(i, lo, hi)
	}
	wg.Wait()
	var pm []Mismatch
	for _, p := range parts {
		pm = append(pm, p...)
	}
	if len(sm) != len(pm) {
		t.Fatalf("serial found %d mismatches, parallel %d", len(sm), len(pm))
	}
	for i := range sm {
		if sm[i] != pm[i] {
			t.Fatalf("mismatch %d differs: serial %v parallel %v", i, sm[i], pm[i])
		}
	}
	if len(sm) != 4 {
		t.Fatalf("expected 4 corrupt regions, audit found %d", len(sm))
	}
}

func TestAuditRangeScopesToRegions(t *testing.T) {
	const arenaSize = 8192
	a := newArena(t, arenaSize)
	tab, err := NewTable(arenaSize, 512)
	if err != nil {
		t.Fatal(err)
	}
	tab.RecomputeAll(a)
	a.Bytes()[100] = 0xFF  // region 0
	a.Bytes()[4000] = 0xFF // region 7

	if bad := tab.AuditRange(a, 0, 512); len(bad) != 1 || bad[0].Region != 0 {
		t.Fatalf("range audit of region 0: %v", bad)
	}
	if bad := tab.AuditRange(a, 600, 100); len(bad) != 0 {
		t.Fatalf("range audit of clean region reported: %v", bad)
	}
	if bad := tab.AuditAll(a); len(bad) != 2 {
		t.Fatalf("full audit found %d, want 2", len(bad))
	}
}

func TestRollbackWithCodewordNotApplied(t *testing.T) {
	// Paper §3.1: if rollback happens while codeword-applied is set (i.e.
	// endUpdate has not folded the change in), the undo image must be
	// applied WITHOUT updating the codeword. Model both orders here.
	const arenaSize = 4096
	a := newArena(t, arenaSize)
	tab, err := NewTable(arenaSize, 64)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(3)).Read(a.Bytes())
	tab.RecomputeAll(a)

	addr := mem.Addr(100)
	oldData := append([]byte(nil), a.Slice(addr, 16)...)

	// Case 1: update in flight, codeword NOT yet applied. Restore bytes,
	// leave codeword alone.
	copy(a.Slice(addr, 16), make([]byte, 16))
	copy(a.Slice(addr, 16), oldData)
	if bad := tab.AuditAll(a); len(bad) != 0 {
		t.Fatalf("case 1: audit failed after rollback: %v", bad)
	}

	// Case 2: codeword already applied; rollback must fold old^new again.
	newData := make([]byte, 16)
	copy(a.Slice(addr, 16), newData)
	if err := tab.ApplyUpdate(addr, oldData, newData); err != nil {
		t.Fatal(err)
	}
	copy(a.Slice(addr, 16), oldData)
	if err := tab.ApplyUpdate(addr, newData, oldData); err != nil {
		t.Fatal(err)
	}
	if bad := tab.AuditAll(a); len(bad) != 0 {
		t.Fatalf("case 2: audit failed after rollback: %v", bad)
	}
}

func TestVerifyRegion(t *testing.T) {
	a := newArena(t, 4096)
	tab, err := NewTable(4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	tab.RecomputeAll(a)
	if !tab.VerifyRegion(a, 0) {
		t.Fatal("clean region failed verification")
	}
	a.Bytes()[5]++
	if tab.VerifyRegion(a, 0) {
		t.Fatal("corrupt region passed verification")
	}
	if !tab.VerifyRegion(a, 1) {
		t.Fatal("unrelated region failed verification")
	}
}

func TestApplyUpdateCommutesProperty(t *testing.T) {
	// Applying updates in either order yields the same codewords (XOR is
	// commutative), provided both are applied with matching old images.
	const arenaSize = 4096
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() (*mem.Arena, *Table) {
			a, _ := mem.NewArena(arenaSize, 4096, mem.WithHeapBacking())
			tab, _ := NewTable(arenaSize, 128)
			tab.RecomputeAll(a)
			return a, tab
		}
		type upd struct {
			addr mem.Addr
			data []byte
		}
		var us []upd
		for i := 0; i < 4; i++ {
			n := 1 + rng.Intn(32)
			// Non-overlapping quadrants so order does not matter for bytes.
			base := i * 1024
			u := upd{addr: mem.Addr(base + rng.Intn(1024-n)), data: make([]byte, n)}
			rng.Read(u.data)
			us = append(us, u)
		}
		apply := func(a *mem.Arena, tab *Table, order []int) []Codeword {
			for _, i := range order {
				u := us[i]
				oldData := append([]byte(nil), a.Slice(u.addr, len(u.data))...)
				copy(a.Slice(u.addr, len(u.data)), u.data)
				tab.ApplyUpdate(u.addr, oldData, u.data)
			}
			out := make([]Codeword, tab.NumRegions())
			for r := range out {
				out[r] = tab.Codeword(r)
			}
			a.Close()
			return out
		}
		a1, t1 := mk()
		a2, t2 := mk()
		c1 := apply(a1, t1, []int{0, 1, 2, 3})
		c2 := apply(a2, t2, []int{3, 1, 0, 2})
		for i := range c1 {
			if c1[i] != c2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFoldAuditNoTear runs prescribed folds, direct codeword
// reads and audits concurrently, under the Data Codeword latch
// discipline: writers hold each touched region's protection stripe
// shared across the arena write and its ApplyUpdate, and auditors take
// the stripe exclusive region by region. An audit then sees each region
// either before or after a whole update, so any mismatch means a torn
// codeword. Under -race this also proves every access to a region's
// codeword word goes through the same stripe of the codeword latch
// (Table.latchFor).
func TestConcurrentFoldAuditNoTear(t *testing.T) {
	const arenaSize = 1 << 18
	const regionSize = 512
	a := newArena(t, arenaSize)
	rand.New(rand.NewSource(13)).Read(a.Bytes())
	tab, err := NewTable(arenaSize, regionSize)
	if err != nil {
		t.Fatal(err)
	}
	tab.RecomputeAll(a)
	// Fewer stripes than regions, so unrelated regions share stripes.
	prot := latch.NewStriped(64)
	audit := func(first, last int) []Mismatch {
		var out []Mismatch
		for r := first; r <= last; r++ {
			l := prot.For(uint64(r))
			l.Lock()
			if m, bad := tab.AuditRegion(a, r); bad {
				out = append(out, m)
			}
			l.Unlock()
		}
		return out
	}

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: each owns a disjoint slice of the arena and repeatedly
	// applies an update and then its inverse, through the prescribed
	// ApplyUpdate path, including region-straddling unaligned spans.
	span := arenaSize / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			base := w * span
			update := func(addr mem.Addr, n int, fill func([]byte)) error {
				first, last := tab.RegionRange(addr, n)
				g := prot.AcquireRange(uint64(first), uint64(last), false)
				defer g.Release()
				oldData := append([]byte(nil), a.Slice(addr, n)...)
				fill(a.Slice(addr, n))
				return tab.ApplyUpdate(addr, oldData, a.Slice(addr, n))
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.Intn(3*regionSize/2)
				addr := mem.Addr(base + rng.Intn(span-n))
				var saved []byte
				if err := update(addr, n, func(b []byte) {
					saved = append(saved, b...)
					rng.Read(b)
				}); err != nil {
					t.Error(err)
					return
				}
				if err := update(addr, n, func(b []byte) { copy(b, saved) }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Auditors: full sweeps while the folds are in flight.
	var sweeps atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if bad := audit(0, tab.NumRegions()-1); len(bad) != 0 {
						t.Errorf("audit under exclusive latches saw a torn codeword: %v", bad[0])
						return
					}
					sweeps.Add(1)
				}
			}
		}()
	}
	// Direct codeword readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				_ = tab.Codeword(i % tab.NumRegions())
			}
		}
	}()
	// Range audits until the auditors have swept the arena 20 times.
	for iter := 0; sweeps.Load() < 20 && !t.Failed(); iter++ {
		first := iter % tab.NumRegions()
		if bad := audit(first, min(first+3, tab.NumRegions()-1)); len(bad) != 0 {
			t.Errorf("range audit saw a torn codeword: %v", bad[0])
			break
		}
	}
	close(stop)
	wg.Wait()

	if bad := tab.AuditAll(a); len(bad) != 0 {
		t.Fatalf("codewords diverged after concurrent folds: %v", bad[0])
	}
}
