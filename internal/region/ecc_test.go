package region

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// eccArena builds a heap-backed arena of size bytes filled with seeded
// random data and an ECC-enabled table over it with the given region
// size, codewords and planes derived from the contents.
func eccArena(t *testing.T, size, regionSize int, seed int64) (*mem.Arena, *Table) {
	t.Helper()
	a, err := mem.NewArena(size, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	rand.New(rand.NewSource(seed)).Read(a.Bytes())
	tab, err := NewTable(size, regionSize)
	if err != nil {
		t.Fatal(err)
	}
	tab.EnableECC()
	tab.RecomputeAll(a)
	return a, tab
}

// smashWord XORs delta into the aligned word at region-relative index w
// of region r, bypassing maintenance — a modeled wild write.
func smashWord(a *mem.Arena, tab *Table, r, w int, delta uint64) {
	buf := a.Slice(tab.RegionStart(r)+mem.Addr(w*8), 8)
	binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)^delta)
}

// foldDeltaPlanesRef is the byte-at-a-time reference for the fused
// cw+plane delta fold: the byte at data offset j sits at region-relative
// byte offset rel*8+phase+j, i.e. in word (rel*8+phase+j)/8 at lane
// (rel*8+phase+j) mod 8. TestFoldDeltaPlanesMatchesRef checks
// foldDeltaPlanes against it.
func foldDeltaPlanesRef(planes []uint64, rel int, old, new []byte, phase int) Codeword {
	var cw uint64
	for j := range old {
		off := rel*8 + (phase & 7) + j
		d := uint64(old[j]^new[j]) << (uint(off&7) * 8)
		cw ^= d
		xorPlanes(planes, off>>3, d)
	}
	return Codeword(cw)
}

// TestFoldDeltaPlanesMatchesRef cross-checks the fused cw+plane delta
// kernel against the byte-at-a-time reference, and its codeword result
// against the existing rotate-trick delta kernel, for every phase and
// lengths around the word boundaries.
func TestFoldDeltaPlanesMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for length := 0; length <= 136; length++ {
		old := make([]byte, length)
		new := make([]byte, length)
		rng.Read(old)
		rng.Read(new)
		for phase := 0; phase < 8; phase++ {
			for _, rel := range []int{0, 1, 5, 63, 500} {
				for _, np := range []int{0, 3, 6, 10} {
					got := make([]uint64, np)
					want := make([]uint64, np)
					gotCW := foldDeltaPlanes(got, rel, old, new, phase)
					wantCW := foldDeltaPlanesRef(want, rel, old, new, phase)
					if gotCW != wantCW {
						t.Fatalf("len %d phase %d rel %d: cw %016x ref %016x", length, phase, rel, uint64(gotCW), uint64(wantCW))
					}
					if kernCW := foldDeltaKernel(0, old, new, phase); gotCW != kernCW {
						t.Fatalf("len %d phase %d: planes cw %016x delta kernel %016x", length, phase, uint64(gotCW), uint64(kernCW))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("len %d phase %d rel %d plane %d: %016x ref %016x", length, phase, rel, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestComputeECCMatchesCompute checks the one-pass cw+planes computation
// against Compute and against accumulating per-word folds.
func TestComputeECCMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{8, 64, 512, 8192} {
		data := make([]byte, size)
		rng.Read(data)
		np := numPlanesFor(size)
		planes := make([]uint64, np)
		cw := computeECC(data, planes)
		if cw != Compute(data) {
			t.Fatalf("size %d: computeECC cw %016x Compute %016x", size, uint64(cw), uint64(Compute(data)))
		}
		want := make([]uint64, np)
		for w := 0; w*8 < size; w++ {
			xorPlanes(want, w, binary.LittleEndian.Uint64(data[w*8:]))
		}
		for j := range planes {
			if planes[j] != want[j] {
				t.Fatalf("size %d plane %d: %016x want %016x", size, j, planes[j], want[j])
			}
		}
	}
}

// TestApplyUpdateMaintainsPlanes drives random unaligned prescribed
// updates through ApplyUpdate on an ECC table and checks after each that
// every touched region's stored planes equal planes recomputed from the
// image — the fused hot-path maintenance agrees with the from-scratch
// definition.
func TestApplyUpdateMaintainsPlanes(t *testing.T) {
	const size = 1 << 14
	for _, regionSize := range []int{64, 512, 4096} {
		a, tab := eccArena(t, size, regionSize, int64(regionSize))
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 200; i++ {
			n := 1 + rng.Intn(3*regionSize)
			addr := mem.Addr(rng.Intn(size - n))
			old := append([]byte(nil), a.Slice(addr, n)...)
			new := make([]byte, n)
			rng.Read(new)
			copy(a.Slice(addr, n), new)
			if err := tab.ApplyUpdate(addr, old, new); err != nil {
				t.Fatal(err)
			}
			first, last := tab.RegionRange(addr, n)
			for r := first; r <= last; r++ {
				want := make([]uint64, tab.NumPlanes())
				computeECC(a.Slice(tab.RegionStart(r), regionSize), want)
				got := tab.Planes(r)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("region %d plane %d after update %d: stored %016x image %016x", r, j, i, got[j], want[j])
					}
				}
				if !tab.VerifyRegion(a, r) {
					t.Fatalf("region %d codeword stale after update %d", r, i)
				}
			}
		}
	}
}

// TestRepairSingleWord checks the tentpole property across region sizes:
// any single-word wild write — from one flipped bit to a fully smashed
// word — is located and repaired in place, byte-identical to the
// pre-corruption image.
func TestRepairSingleWord(t *testing.T) {
	const size = 1 << 14
	for _, regionSize := range []int{8, 64, 512, 8192} {
		rng := rand.New(rand.NewSource(int64(regionSize)))
		a, tab := eccArena(t, size, regionSize, 99)
		shadow := append([]byte(nil), a.Bytes()...)
		words := regionSize / 8
		for i := 0; i < 100; i++ {
			r := rng.Intn(tab.NumRegions())
			w := rng.Intn(words)
			var delta uint64
			if i%2 == 0 {
				delta = 1 << uint(rng.Intn(64)) // single bit
			} else {
				for delta == 0 {
					delta = rng.Uint64() // arbitrary word damage
				}
			}
			smashWord(a, tab, r, w, delta)

			diag := tab.Diagnose(a, r)
			if diag.Verdict != VerdictRepairable || diag.WordIndex != w {
				t.Fatalf("region %dB r=%d w=%d: diagnose %v (word %d)", regionSize, r, w, diag.Verdict, diag.WordIndex)
			}
			res := tab.Repair(a, r)
			if res.Verdict != VerdictRepaired || res.WordIndex != w || res.Delta != Codeword(delta) {
				t.Fatalf("region %dB r=%d w=%d: repair %+v", regionSize, r, w, res)
			}
			if got := tab.Diagnose(a, r); got.Verdict != VerdictClean {
				t.Fatalf("region %dB r=%d: post-repair diagnose %v", regionSize, r, got.Verdict)
			}
			if !bytes.Equal(a.Bytes(), shadow) {
				t.Fatalf("region %dB r=%d w=%d: repaired image differs from pre-corruption state", regionSize, r, w)
			}
		}
	}
}

// TestRepairDoubleWordEscalates checks the first escalation rung: two
// damaged words with distinct nonzero deltas always produce a plane
// syndrome outside {0, S0}, so the region is declared unrepairable and
// left untouched for delete-transaction recovery.
func TestRepairDoubleWordEscalates(t *testing.T) {
	const size = 1 << 13
	rng := rand.New(rand.NewSource(21))
	a, tab := eccArena(t, size, 512, 7)
	for i := 0; i < 100; i++ {
		r := rng.Intn(tab.NumRegions())
		w1 := rng.Intn(64)
		w2 := (w1 + 1 + rng.Intn(63)) % 64
		d1, d2 := rng.Uint64()|1, rng.Uint64()|2
		if d1 == d2 {
			d2 ^= 4
		}
		smashWord(a, tab, r, w1, d1)
		smashWord(a, tab, r, w2, d2)
		damaged := append([]byte(nil), a.Slice(tab.RegionStart(r), 512)...)

		if diag := tab.Diagnose(a, r); diag.Verdict != VerdictUnrepairable {
			t.Fatalf("r=%d w=%d,%d: diagnose %v, want unrepairable", r, w1, w2, diag.Verdict)
		}
		if res := tab.Repair(a, r); res.Verdict != VerdictUnrepairable {
			t.Fatalf("r=%d: repair %v, want unrepairable", r, res.Verdict)
		}
		if !bytes.Equal(a.Slice(tab.RegionStart(r), 512), damaged) {
			t.Fatalf("r=%d: unrepairable region was mutated", r)
		}
		// Undo for the next iteration.
		smashWord(a, tab, r, w1, d1)
		smashWord(a, tab, r, w2, d2)
	}
}

// TestRepairParityStale checks the plane-damage rung: with the data
// intact, plane corruption diagnoses parity-stale and Repair rebuilds
// the planes from the image without touching the data.
func TestRepairParityStale(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 31)
	shadow := append([]byte(nil), a.Bytes()...)
	if err := tab.CorruptPlane(3, 2, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	diag := tab.Diagnose(a, 3)
	if diag.Verdict != VerdictParityStale || diag.StalePlanes != 1 {
		t.Fatalf("diagnose %+v, want parity-stale with 1 stale plane", diag)
	}
	if res := tab.Repair(a, 3); res.Verdict != VerdictParityStale {
		t.Fatalf("repair %v", res.Verdict)
	}
	if got := tab.Diagnose(a, 3); got.Verdict != VerdictClean {
		t.Fatalf("post-rebuild diagnose %v", got.Verdict)
	}
	if !bytes.Equal(a.Bytes(), shadow) {
		t.Fatal("parity rebuild modified the data image")
	}
}

// TestRepairParityPlusDataEscalates checks the combined rung: a damaged
// word plus a damaged plane exceeds the correction radius.
func TestRepairParityPlusDataEscalates(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 41)
	smashWord(a, tab, 5, 9, 0xfefefefefefefefe)
	if err := tab.CorruptPlane(5, 0, 1); err != nil {
		t.Fatal(err)
	}
	if diag := tab.Diagnose(a, 5); diag.Verdict != VerdictUnrepairable {
		t.Fatalf("diagnose %v, want unrepairable", diag.Verdict)
	}
	if res := tab.Repair(a, 5); res.Verdict != VerdictUnrepairable {
		t.Fatalf("repair %v, want unrepairable", res.Verdict)
	}
}

// TestXorDeltaCarriesPlanes drives the deferred-maintenance flow:
// UpdateDeltas computes plane-carrying deltas without touching the
// table, XorDelta applies them later, and the region still diagnoses
// clean (planes included).
func TestXorDeltaCarriesPlanes(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 55)
	rng := rand.New(rand.NewSource(56))
	var queued []Delta
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(1024)
		addr := mem.Addr(rng.Intn(size - n))
		old := append([]byte(nil), a.Slice(addr, n)...)
		new := make([]byte, n)
		rng.Read(new)
		copy(a.Slice(addr, n), new)
		var err error
		queued, err = tab.UpdateDeltas(queued, addr, old, new)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range queued {
		tab.XorDelta(d)
	}
	for r := 0; r < tab.NumRegions(); r++ {
		if diag := tab.Diagnose(a, r); diag.Verdict != VerdictClean {
			t.Fatalf("region %d after drain: %v", r, diag.Verdict)
		}
	}
}

// TestDiagnoseWithoutECC reports VerdictUnsupported from a plain table.
func TestDiagnoseWithoutECC(t *testing.T) {
	a, err := mem.NewArena(1<<12, 4096, mem.WithHeapBacking())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tab, err := NewTable(1<<12, 512)
	if err != nil {
		t.Fatal(err)
	}
	tab.RecomputeAll(a)
	if got := tab.Diagnose(a, 0); got.Verdict != VerdictUnsupported {
		t.Fatalf("diagnose on non-ECC table: %v", got.Verdict)
	}
}

// TestSetLeavesPlanesStale pins the documented Set contract: installing
// a raw codeword leaves planes stale, the region diagnoses parity-stale
// (never a miscorrection), and Repair rebuilds.
func TestSetLeavesPlanesStale(t *testing.T) {
	const size = 1 << 13
	a, tab := eccArena(t, size, 512, 77)
	// Change the image out-of-band and install the matching codeword the
	// way a checkpoint loader would — without plane history.
	buf := a.Slice(tab.RegionStart(2), 512)
	buf[17] ^= 0x5a
	tab.Set(2, Compute(buf))
	diag := tab.Diagnose(a, 2)
	if diag.Verdict != VerdictParityStale {
		t.Fatalf("diagnose %v, want parity-stale", diag.Verdict)
	}
	tab.Repair(a, 2)
	if got := tab.Diagnose(a, 2); got.Verdict != VerdictClean {
		t.Fatalf("post-rebuild %v", got.Verdict)
	}
}
