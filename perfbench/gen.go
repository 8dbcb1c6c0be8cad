package main

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/tpcb"
)

// Every key, delta and value the benchmark sends is drawn from a stream
// derived from the --seed argument, so a seed names an exact op sequence.
// Streams are numbered so that clients, rows and drills draw independently.
const (
	streamRecoveryTail = 1 << 20 // the fixed work done between the last checkpoint and a crash drill
	streamPreload      = 1 << 21 // kv-wire preload values
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newRand returns the generator of one numbered stream of a seed.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ splitmix64(stream)))))
}

// tpcbOp is one TPC-B operation: move delta into one account, teller and
// branch, and log it in the history table.
type tpcbOp struct {
	acct, tell, brch uint32
	delta            int64
}

type tpcbGen struct {
	r     *rand.Rand
	scale tpcb.Scale
}

func newTPCBGen(seed int64, stream uint64, scale tpcb.Scale) *tpcbGen {
	return &tpcbGen{r: newRand(seed, stream), scale: scale}
}

func (g *tpcbGen) next() tpcbOp {
	return tpcbOp{
		acct:  uint32(g.r.Intn(g.scale.Accounts)),
		tell:  uint32(g.r.Intn(g.scale.Tellers)),
		brch:  uint32(g.r.Intn(g.scale.Branches)),
		delta: int64(g.r.Intn(1999) - 999),
	}
}

// kvTxn is one kv-wire transaction: four reads and one write of keys drawn
// uniformly from the preloaded key space.
type kvTxn struct {
	gets [4]uint64
	put  uint64
	val  []byte
}

type kvGen struct {
	r      *rand.Rand
	keys   int
	valLen int
	tag    uint64 // stream id, stamped into every value with a sequence number
	seq    uint64
}

func newKVGen(seed int64, stream uint64, keys, valLen int) *kvGen {
	return &kvGen{r: newRand(seed, stream), keys: keys, valLen: valLen, tag: stream}
}

func (g *kvGen) next() kvTxn {
	var t kvTxn
	for i := range t.gets {
		t.gets[i] = uint64(g.r.Intn(g.keys))
	}
	t.put = uint64(g.r.Intn(g.keys))
	t.val = g.value()
	return t
}

// value returns a fresh value: stream tag and sequence number, then seeded
// random bytes, so no two writes store the same bytes.
func (g *kvGen) value() []byte {
	v := make([]byte, g.valLen)
	binary.LittleEndian.PutUint64(v[0:], g.tag)
	binary.LittleEndian.PutUint64(v[8:], g.seq)
	g.seq++
	g.r.Read(v[16:])
	return v
}
