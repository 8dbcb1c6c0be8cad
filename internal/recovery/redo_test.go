package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protect"
)

// crashedOverwrites builds a database whose post-checkpoint log holds
// transactions repeatedly overwriting the same slots, then crashes it.
// Replaying the physical redos in anything but log order would leave a
// stale value, so the returned want image is only reachable through an
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

// TestParallelRedoMatchesSerial recovers the same crashed database twice,
// once with the serial redo and once with the partitioned parallel apply
// at four workers, and requires byte-identical images, identical report
// counts, the last committed value in every slot, and the parallel-redo
// metrics.
func TestParallelRedoMatchesSerial(t *testing.T) {
	cfg, want := crashedOverwrites(t, 6)
	par := filepath.Join(t.TempDir(), "par")
	if err := os.MkdirAll(par, 0o755); err != nil {
		t.Fatal(err)
	}
	copyDir(t, cfg.Dir, par)

	serialDB, _, serialRep := reopen(t, cfg, Options{
		RedoWorkers: 1, SkipCompletionCheckpoint: true,
	})
	defer serialDB.Close()

	pcfg := cfg
	pcfg.Dir = par
	parDB, parTb, parRep := reopen(t, pcfg, Options{
		RedoWorkers: 4, SkipCompletionCheckpoint: true,
	})
	defer parDB.Close()

	if serialRep.RedoWorkers != 1 || parRep.RedoWorkers != 4 {
		t.Fatalf("redo workers: serial %d, parallel %d; want 1 and 4", serialRep.RedoWorkers, parRep.RedoWorkers)
	}
	if serialRep.RedoApplied == 0 {
		t.Fatal("the crashed log has nothing to redo")
	}
	if serialRep.RecordsScanned != parRep.RecordsScanned ||
		serialRep.RedoApplied != parRep.RedoApplied {
		t.Fatalf("reports diverge: serial %d/%d, parallel %d/%d",
			serialRep.RecordsScanned, serialRep.RedoApplied,
			parRep.RecordsScanned, parRep.RedoApplied)
	}
	if !bytes.Equal(serialDB.Internals().Arena.Bytes(), parDB.Internals().Arena.Bytes()) {
		t.Fatal("parallel redo produced a different arena than serial redo")
	}
	for s := range want {
		if got := readRec(t, parDB, parTb, uint32(s)); !bytes.Equal(got, want[s]) {
			t.Fatalf("slot %d after parallel redo: %x, want %x", s, got[:4], want[s][:4])
		}
	}
	snap := parDB.Observability().Snapshot()
	if snap.Gauge(obs.NameRecoveryRedoWorkers) != 4 {
		t.Fatalf("gauge %s = %d, want 4", obs.NameRecoveryRedoWorkers, snap.Gauge(obs.NameRecoveryRedoWorkers))
	}
	if h := snap.Histogram(obs.NameRecoveryParallelNS); h.Count == 0 {
		t.Fatalf("histogram %s never observed", obs.NameRecoveryParallelNS)
	}
}
