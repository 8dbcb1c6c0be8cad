package tpcb

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protect"
	"repro/internal/recovery"
)

func setupSmall(t *testing.T, pc protect.Config) (*core.DB, *Workload) {
	t.Helper()
	cfg := core.Config{
		Dir:       t.TempDir(),
		ArenaSize: SmallScale.ArenaSize(),
		Protect:   pc,
	}
	if rs := pc.Defaulted().RegionSize; rs > 4096 {
		// Pages must hold whole regions (core.Config.Validate).
		cfg.PageSize = rs
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	w, err := Setup(db, SmallScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return db, w
}

func TestSetupPopulatesTables(t *testing.T) {
	_, w := setupSmall(t, protect.Config{})
	a, te, b, h := w.Tables()
	if a.Count() != SmallScale.Accounts {
		t.Fatalf("accounts = %d", a.Count())
	}
	if te.Count() != SmallScale.Tellers {
		t.Fatalf("tellers = %d", te.Count())
	}
	if b.Count() != SmallScale.Branches {
		t.Fatalf("branches = %d", b.Count())
	}
	if h.Count() != 0 {
		t.Fatalf("history = %d", h.Count())
	}
}

func TestRunMovesBalancesConsistently(t *testing.T) {
	_, w := setupSmall(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 512})
	a0, t0, b0 := w.Balances()
	const ops = 1200
	if err := w.Run(ops); err != nil {
		t.Fatal(err)
	}
	a1, t1, b1 := w.Balances()
	da, dt, db_ := a1-a0, t1-t0, b1-b0
	if da != dt || dt != db_ {
		t.Fatalf("balance deltas diverged: %d %d %d", da, dt, db_)
	}
	if w.HistoryCount() != ops {
		t.Fatalf("history = %d, want %d", w.HistoryCount(), ops)
	}
	if w.OpsDone() != ops {
		t.Fatalf("ops = %d", w.OpsDone())
	}
	if err := w.DB().Audit(); err != nil {
		t.Fatalf("audit after run: %v", err)
	}
}

// TestRunAcrossAllSchemes runs the workload under every scheme, and
// under Read Prechecking at each of Table 2's three region sizes: the
// 8 KiB row needs 8 KiB pages.
func TestRunAcrossAllSchemes(t *testing.T) {
	for _, tc := range []struct {
		name string
		pc   protect.Config
	}{
		{"baseline", protect.Config{Kind: protect.KindBaseline}},
		{"data-cw", protect.Config{Kind: protect.KindDataCW, RegionSize: 512}},
		{"precheck", protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}},
		{"precheck-512", protect.Config{Kind: protect.KindPrecheck, RegionSize: 512}},
		{"precheck-8192", protect.Config{Kind: protect.KindPrecheck, RegionSize: 8192}},
		{"read-log", protect.Config{Kind: protect.KindReadLog, RegionSize: 512}},
		{"cw-read-log", protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64}},
		{"deferred-cw", protect.Config{Kind: protect.KindDeferredCW, RegionSize: 512}},
		{"hw-protect", protect.Config{Kind: protect.KindHW, ForceSimProtect: true}},
	} {
		pc := tc.pc
		t.Run(tc.name, func(t *testing.T) {
			_, w := setupSmall(t, pc)
			if err := w.Run(600); err != nil {
				t.Fatal(err)
			}
			a, te, b := w.Balances()
			if a-int64(SmallScale.Accounts)*1_000_000 != te-int64(SmallScale.Tellers)*1_000_000 ||
				te-int64(SmallScale.Tellers)*1_000_000 != b-int64(SmallScale.Branches)*1_000_000 {
				t.Fatalf("inconsistent balances under %v", pc.Kind)
			}
			if err := w.DB().Audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
		})
	}
}

func TestWorkloadSurvivesCrashRecovery(t *testing.T) {
	cfg := core.Config{
		Dir:       t.TempDir(),
		ArenaSize: SmallScale.ArenaSize(),
		Protect:   protect.Config{Kind: protect.KindReadLog, RegionSize: 512},
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Setup(db, SmallScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(1000); err != nil { // two full txns of 500
		t.Fatal(err)
	}
	aWant, tWant, bWant := w.Balances()
	histWant := w.HistoryCount()
	db.Crash()

	db2, rep, err := recovery.Open(cfg, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.CorruptionMode {
		t.Fatal("unexpected corruption mode")
	}
	w2, err := Attach(db2, SmallScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, te, b := w2.Balances()
	if a != aWant || te != tWant || b != bWant {
		t.Fatalf("balances after recovery: %d/%d/%d want %d/%d/%d", a, te, b, aWant, tWant, bWant)
	}
	if w2.HistoryCount() != histWant {
		t.Fatalf("history after recovery = %d, want %d", w2.HistoryCount(), histWant)
	}
	// Workload continues after recovery.
	if err := w2.Run(500); err != nil {
		t.Fatal(err)
	}
	if err := db2.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleArenaSize(t *testing.T) {
	if SmallScale.ArenaSize() <= 0 {
		t.Fatal("bad arena size")
	}
	if PaperScale.ArenaSize() < 100_000*RecordSize {
		t.Fatal("paper arena too small for accounts alone")
	}
}
