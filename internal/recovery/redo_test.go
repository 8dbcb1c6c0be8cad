package recovery

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/protect"
)

// crashedOverwrites builds a database whose post-checkpoint log holds
// transactions repeatedly overwriting the same slots, then crashes it.
// Replaying the physical redos in anything but log order would leave a
// stale value, so the returned want values are only reachable through an
// order-preserving replay.
func crashedOverwrites(t *testing.T, rounds int) (core.Config, [][]byte) {
	t.Helper()
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	const slots = 8
	db, tb := setupTable(t, cfg, slots)
	want := make([][]byte, slots)
	for r := 0; r < rounds; r++ {
		for s := uint32(0); s < slots; s++ {
			val := bytes.Repeat([]byte{byte(r + 2), byte(s + 1)}, 32)
			updateRec(t, db, tb, s, val)
			want[s] = val
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	return cfg, want
}

// TestRedoReplaysOverwritesInLogOrder recovers a crashed database whose
// redo holds repeated overwrites of the same slots and requires the last
// committed value in every slot: the redo loop must apply physical redos
// exactly in scan order.
func TestRedoReplaysOverwritesInLogOrder(t *testing.T) {
	cfg, want := crashedOverwrites(t, 6)
	db, tb, rep := reopen(t, cfg, Options{})
	defer db.Close()
	if rep.RedoApplied == 0 {
		t.Fatal("the crashed log has nothing to redo")
	}
	for s := range want {
		if got := readRec(t, db, tb, uint32(s)); !bytes.Equal(got, want[s]) {
			t.Fatalf("slot %d after redo: %x, want %x", s, got[:4], want[s][:4])
		}
	}
}
