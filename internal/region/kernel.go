// Codeword kernels: the byte-folding primitives behind Fold, Compute and
// delta maintenance, in two implementations.
//
// The fast kernels work a 64-bit word at a time. A codeword is the XOR of
// the region's little-endian 64-bit words, so for phase-0 data the kernel
// is just an unrolled XOR of 8-byte loads (encoding/binary little-endian
// loads compile to single MOVs on little-endian hardware and remain
// correct, if slower, on big-endian hardware). Arbitrary phase reduces to
// the aligned case by one rotation: a byte at data offset j of an update
// whose first byte sits at byte lane p lands in lane (p+j) mod 8, i.e.
// its contribution is the phase-0 contribution rotated left by 8·p bits —
// and since rotation distributes over XOR, the whole fold at phase p is
//
//	Fold(data, p) = RotateLeft64(Fold(data, 0), 8*p).
//
// The kernels therefore accumulate aligned words, rotate once, and handle
// the sub-word tail with the scalar loop. There is no head fixup: data
// offsets need no memory alignment for the loads, and the tail starts at
// a multiple of 8, so its first byte is again at lane p.
//
// foldGeneric, the byte-at-a-time fold, is both the specification and the
// tail loop the fast kernels share. The other reference kernels
// (computeGeneric, foldDeltaPlanesRef) exist only for the differential
// tests in kernel_test.go and ecc_test.go, which cross-check the fast
// kernels against them for every phase and length; the microbenchmarks in
// bench_test.go report the speedup.
package region

import (
	"encoding/binary"
	"math/bits"
)

// foldGeneric is the byte-at-a-time reference fold: XOR data into cw
// starting at byte lane phase (0..7). It is the specification for the
// word-at-a-time kernels and folds their sub-word tails.
func foldGeneric(cw Codeword, data []byte, phase int) Codeword {
	lane := uint(phase&7) * 8
	for _, b := range data {
		cw ^= Codeword(uint64(b) << lane)
		lane += 8
		if lane == 64 {
			lane = 0
		}
	}
	return cw
}

// foldWords XORs the 8-byte little-endian words of data[0:8*(len/8)] and
// reports the accumulated word and the index where the sub-word tail
// begins. The main loop is unrolled 4x: the four loads are independent,
// so the XOR chain is the only serial dependency.
func foldWords(data []byte) (acc uint64, tail int) {
	i := 0
	for ; i+32 <= len(data); i += 32 {
		acc ^= binary.LittleEndian.Uint64(data[i:]) ^
			binary.LittleEndian.Uint64(data[i+8:]) ^
			binary.LittleEndian.Uint64(data[i+16:]) ^
			binary.LittleEndian.Uint64(data[i+24:])
	}
	for ; i+8 <= len(data); i += 8 {
		acc ^= binary.LittleEndian.Uint64(data[i:])
	}
	return acc, i
}

// foldKernel is the word-at-a-time fold of data at the given phase.
func foldKernel(cw Codeword, data []byte, phase int) Codeword {
	acc, i := foldWords(data)
	cw ^= Codeword(bits.RotateLeft64(acc, (phase&7)*8))
	// Sub-word tail: i is a multiple of 8, so the tail starts at lane
	// phase again.
	if i < len(data) {
		cw = foldGeneric(cw, data[i:], phase)
	}
	return cw
}

// foldDeltaKernel folds the old⊕new delta of an in-place update at the
// given phase into cw without materializing the delta bytes: old and new
// words are loaded pairwise and XORed in registers. len(old) must equal
// len(new).
func foldDeltaKernel(cw Codeword, old, new []byte, phase int) Codeword {
	var acc uint64
	i := 0
	for ; i+32 <= len(old); i += 32 {
		acc ^= (binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])) ^
			(binary.LittleEndian.Uint64(old[i+8:]) ^ binary.LittleEndian.Uint64(new[i+8:])) ^
			(binary.LittleEndian.Uint64(old[i+16:]) ^ binary.LittleEndian.Uint64(new[i+16:])) ^
			(binary.LittleEndian.Uint64(old[i+24:]) ^ binary.LittleEndian.Uint64(new[i+24:]))
	}
	for ; i+8 <= len(old); i += 8 {
		acc ^= binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
	}
	cw ^= Codeword(bits.RotateLeft64(acc, (phase&7)*8))
	lane := uint(phase&7) * 8
	for ; i < len(old); i++ {
		cw ^= Codeword(uint64(old[i]^new[i]) << lane)
		lane += 8
		if lane == 64 {
			lane = 0
		}
	}
	return cw
}

// FoldDelta folds the old⊕new delta of an update whose first byte sits at
// byte lane phase into cw. It is the fused form of building the delta
// slice and calling Fold, used by schemes that reconstruct pre-update
// codewords (CW Read Logging) and by delta maintenance.
func FoldDelta(cw Codeword, old, new []byte, phase int) Codeword {
	if len(old) != len(new) {
		panic("region: FoldDelta images differ in length")
	}
	return foldDeltaKernel(cw, old, new, phase)
}

// --- ECC locator-plane kernels ----------------------------------------------
//
// The ECC tier adds locator planes to each region: plane j is the XOR of
// the region's words whose region-relative word index has bit j set. A
// word's delta therefore folds into exactly the planes selected by the
// bits of its index, and comparing stored against recomputed planes
// yields a per-plane syndrome that spells out the index of a single
// damaged word in binary (see ecc.go).

// xorPlanes folds a word delta d of the word at region-relative index w
// into the planes selected by the bits of w.
func xorPlanes(planes []uint64, w int, d uint64) {
	for j := 0; j < len(planes); j++ {
		if w&(1<<j) != 0 {
			planes[j] ^= d
		}
	}
}

// foldDeltaPlanes is the fused ECC delta kernel: one pass over old/new
// accumulates both the codeword delta and the per-plane deltas. rel is
// the region-relative index of the word containing old[0] and phase its
// byte lane (0..7). Because each word's delta is assembled lane-aligned
// before it is folded, the codeword delta needs no final rotation — the
// plane folds are the only cost the ECC tier adds over foldDeltaKernel.
// len(old) must equal len(new).
func foldDeltaPlanes(planes []uint64, rel int, old, new []byte, phase int) Codeword {
	var cw uint64
	i := 0
	// Head: bytes of a partial first word, lanes phase..7.
	if phase &= 7; phase != 0 {
		var d uint64
		for lane := uint(phase) * 8; i < len(old) && lane < 64; i, lane = i+1, lane+8 {
			d |= uint64(old[i]^new[i]) << lane
		}
		cw ^= d
		xorPlanes(planes, rel, d)
		rel++
	}
	// Aligned full words, singly until rel reaches an 8-word boundary.
	for ; i+8 <= len(old) && rel&7 != 0; i, rel = i+8, rel+1 {
		d := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
		cw ^= d
		xorPlanes(planes, rel, d)
	}
	// Groups of 8 aligned words sharing their upper index bits: the three
	// low planes fold with fixed intra-group masks and the upper planes
	// take one XOR of the group total, so plane maintenance costs O(1)
	// amortized per word instead of O(planes). Regions of >= 8 words have
	// >= 3 planes; smaller plane sets (tiny regions, or the reference
	// tests) fall through to the scalar loop below.
	for ; len(planes) >= 3 && i+64 <= len(old); i, rel = i+64, rel+8 {
		d0 := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
		d1 := binary.LittleEndian.Uint64(old[i+8:]) ^ binary.LittleEndian.Uint64(new[i+8:])
		d2 := binary.LittleEndian.Uint64(old[i+16:]) ^ binary.LittleEndian.Uint64(new[i+16:])
		d3 := binary.LittleEndian.Uint64(old[i+24:]) ^ binary.LittleEndian.Uint64(new[i+24:])
		d4 := binary.LittleEndian.Uint64(old[i+32:]) ^ binary.LittleEndian.Uint64(new[i+32:])
		d5 := binary.LittleEndian.Uint64(old[i+40:]) ^ binary.LittleEndian.Uint64(new[i+40:])
		d6 := binary.LittleEndian.Uint64(old[i+48:]) ^ binary.LittleEndian.Uint64(new[i+48:])
		d7 := binary.LittleEndian.Uint64(old[i+56:]) ^ binary.LittleEndian.Uint64(new[i+56:])
		g := d0 ^ d1 ^ d2 ^ d3 ^ d4 ^ d5 ^ d6 ^ d7
		cw ^= g
		planes[0] ^= d1 ^ d3 ^ d5 ^ d7
		planes[1] ^= d2 ^ d3 ^ d6 ^ d7
		planes[2] ^= d4 ^ d5 ^ d6 ^ d7
		for j, u := 3, rel>>3; j < len(planes); j, u = j+1, u>>1 {
			if u&1 != 0 {
				planes[j] ^= g
			}
		}
	}
	// Remaining aligned words of a partial last group.
	for ; i+8 <= len(old); i, rel = i+8, rel+1 {
		d := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
		cw ^= d
		xorPlanes(planes, rel, d)
	}
	// Tail: a partial last word starting at lane 0.
	if i < len(old) {
		var d uint64
		for lane := uint(0); i < len(old); i, lane = i+1, lane+8 {
			d |= uint64(old[i]^new[i]) << lane
		}
		cw ^= d
		xorPlanes(planes, rel, d)
	}
	return Codeword(cw)
}

// computeECC computes both the codeword and the locator planes of a full
// region image in one pass. planes must be zeroed by the caller. Uses the
// same 8-word grouping as foldDeltaPlanes (region data starts at word
// index 0, so the grouping is always aligned; regions of >= 8 words have
// >= 3 planes, and smaller plane sets use the scalar loop).
func computeECC(data []byte, planes []uint64) Codeword {
	var cw uint64
	i, w := 0, 0
	for ; len(planes) >= 3 && i+64 <= len(data); i, w = i+64, w+8 {
		d0 := binary.LittleEndian.Uint64(data[i:])
		d1 := binary.LittleEndian.Uint64(data[i+8:])
		d2 := binary.LittleEndian.Uint64(data[i+16:])
		d3 := binary.LittleEndian.Uint64(data[i+24:])
		d4 := binary.LittleEndian.Uint64(data[i+32:])
		d5 := binary.LittleEndian.Uint64(data[i+40:])
		d6 := binary.LittleEndian.Uint64(data[i+48:])
		d7 := binary.LittleEndian.Uint64(data[i+56:])
		g := d0 ^ d1 ^ d2 ^ d3 ^ d4 ^ d5 ^ d6 ^ d7
		cw ^= g
		planes[0] ^= d1 ^ d3 ^ d5 ^ d7
		planes[1] ^= d2 ^ d3 ^ d6 ^ d7
		planes[2] ^= d4 ^ d5 ^ d6 ^ d7
		for j, u := 3, w>>3; j < len(planes); j, u = j+1, u>>1 {
			if u&1 != 0 {
				planes[j] ^= g
			}
		}
	}
	for ; i+8 <= len(data); i, w = i+8, w+1 {
		d := binary.LittleEndian.Uint64(data[i:])
		cw ^= d
		xorPlanes(planes, w, d)
	}
	return Codeword(cw)
}
