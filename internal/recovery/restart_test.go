package recovery

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/wal"
)

// testConfig returns a small database config in a fresh directory.
// DisableHeal pins the paper's §4 semantics throughout this package:
// these tests inject single-word wild writes and assert the
// detect → crash → delete-transaction ladder, which the ECC tier would
// otherwise short-circuit by repairing the word in place (that path has
// its own coverage in core and faultstudy).
func testConfig(t *testing.T, pc protect.Config) core.Config {
	t.Helper()
	pc.DisableHeal = true
	return core.Config{
		Dir:       t.TempDir(),
		ArenaSize: 1 << 18,
		Protect:   pc,
	}
}

// setupTable creates a fresh DB with one table of count committed
// records (record i filled with byte i+1), checkpoints, and returns it.
func setupTable(t *testing.T, cfg core.Config, count int) (*core.DB, *heap.Table) {
	t.Helper()
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := heap.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.CreateTable("t", 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 64)
		if _, err := tb.Insert(txn, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db, tb
}

// reopen runs recovery and rebinds the heap catalog.
func reopen(t *testing.T, cfg core.Config, opts Options) (*core.DB, *heap.Table, *Report) {
	t.Helper()
	db, rep, err := Open(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := heap.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return db, tb, rep
}

// readRec reads a whole record in a throwaway transaction.
func readRec(t *testing.T, db *core.DB, tb *heap.Table, slot uint32) []byte {
	t.Helper()
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Commit()
	got, err := tb.Read(txn, heap.RID{Table: tb.ID, Slot: slot})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// updateRec overwrites the first n bytes of a record in its own txn.
func updateRec(t *testing.T, db *core.DB, tb *heap.Table, slot uint32, data []byte) wal.TxnID {
	t.Helper()
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: slot}, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return txn.ID()
}

// assertPhaseHistograms requires each recovery phase histogram in db's
// registry to hold exactly one observation: the one recovery that opened
// it.
func assertPhaseHistograms(t *testing.T, db *core.DB) {
	t.Helper()
	snap := db.Observability().Snapshot()
	for _, name := range []string{
		obs.NameRecoveryScanNS, obs.NameRecoveryRedoNS, obs.NameRecoveryRebuildNS,
		obs.NameRecoveryUndoNS, obs.NameRecoveryCheckpointNS,
	} {
		if n := snap.Histogram(name).Count; n != 1 {
			t.Errorf("histogram %s count = %d after one recovery, want 1", name, n)
		}
	}
}

func TestOpenFreshDatabase(t *testing.T) {
	cfg := testConfig(t, protect.Config{})
	db, rep, err := Open(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !rep.FreshDatabase {
		t.Fatal("fresh dir not reported fresh")
	}
}

func TestRecoveryCommittedSurvivesCrash(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 5)
	id := updateRec(t, db, tb, 2, []byte("committed-data"))
	_ = id
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db2, tb2, rep := reopen(t, cfg, Options{})
	defer db2.Close()
	if rep.FreshDatabase {
		t.Fatal("recovered DB reported fresh")
	}
	if rep.CorruptionMode {
		t.Fatal("corruption mode without corruption")
	}
	got := readRec(t, db2, tb2, 2)
	if string(got[:14]) != "committed-data" {
		t.Fatalf("committed update lost: %q", got[:14])
	}
	if got := readRec(t, db2, tb2, 3); got[0] != 4 {
		t.Fatalf("unrelated record damaged: %v", got[0])
	}
	if err := db2.Audit(); err != nil {
		t.Fatalf("audit after recovery: %v", err)
	}
	assertPhaseHistograms(t, db2)
}

func TestRecoveryRollsBackIncompleteTxn(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 3)
	// An uncommitted transaction with a committed op (logical undo needed)
	// and an open op (physical undo needed).
	txn, _ := db.Begin()
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: 0}, 0, []byte("UNCOMMITTED")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(txn, bytes.Repeat([]byte{0x77}, 64)); err != nil {
		t.Fatal(err)
	}
	// Force the local redo into the system log without committing: another
	// committed txn's flush carries it? No — local logging keeps it
	// private. To exercise logical undo at recovery, checkpoint now: the
	// checkpointed ATT carries the undo log.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db2, tb2, rep := reopen(t, cfg, Options{})
	defer db2.Close()
	if len(rep.RolledBack) != 1 {
		t.Fatalf("rolled back %v, want one txn", rep.RolledBack)
	}
	got := readRec(t, db2, tb2, 0)
	if got[0] != 1 {
		t.Fatalf("uncommitted update not rolled back: %q", got[:11])
	}
	if tb2.Count() != 3 {
		t.Fatalf("uncommitted insert survived: count=%d", tb2.Count())
	}
	if err := db2.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestRecoveryWithoutAnyCheckpoint(t *testing.T) {
	// Crash before the first checkpoint: replay from the zero image.
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := heap.Open(db)
	tb, err := cat.CreateTable("t", 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := db.Begin()
	if _, err := tb.Insert(txn, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	// The catalog was never checkpointed, so the table is gone — but the
	// physical history must replay cleanly and the image must audit.
	db2, rep, err := Open(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.FreshDatabase || rep.CheckpointSeq != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.RedoApplied == 0 {
		t.Fatal("no redo applied")
	}
	if err := db2.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryAcrossMultipleCheckpoints(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 8)
	for round := 0; round < 5; round++ {
		for slot := uint32(0); slot < 8; slot++ {
			updateRec(t, db, tb, slot, []byte{byte(round + 100), byte(slot)})
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Updates after the last checkpoint.
	updateRec(t, db, tb, 7, []byte{0xFE, 0xDC})
	db.Crash()

	db2, tb2, _ := reopen(t, cfg, Options{})
	defer db2.Close()
	for slot := uint32(0); slot < 7; slot++ {
		got := readRec(t, db2, tb2, slot)
		if got[0] != 104 || got[1] != byte(slot) {
			t.Fatalf("slot %d = %v, want round-4 value", slot, got[:2])
		}
	}
	if got := readRec(t, db2, tb2, 7); got[0] != 0xFE || got[1] != 0xDC {
		t.Fatalf("slot 7 = %v, want post-checkpoint value", got[:2])
	}
	if err := db2.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryIdempotentAfterRecovery(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindReadLog, RegionSize: 64})
	db, tb := setupTable(t, cfg, 4)
	updateRec(t, db, tb, 1, []byte("v2"))
	db.Crash()

	db2, tb2, _ := reopen(t, cfg, Options{})
	state := readRec(t, db2, tb2, 1)
	db2.Crash() // crash immediately after recovery

	db3, tb3, rep := reopen(t, cfg, Options{})
	defer db3.Close()
	if len(rep.RolledBack) != 0 || len(rep.Deleted) != 0 {
		t.Fatalf("second recovery not clean: %+v", rep)
	}
	if got := readRec(t, db3, tb3, 1); !bytes.Equal(got, state) {
		t.Fatal("state changed across idempotent recovery")
	}
}

// corruptionScenario drives the paper's §4.3 scenario:
//
//	setup:    records 0..4 committed, checkpoint (clean audit = Audit_SN)
//	T-clean1: updates record 0            (clean, must survive)
//	FAULT:    wild write corrupts record 1 (direct physical corruption)
//	T-carrier: reads record 1, writes record 2   (indirect corruption)
//	T-second: reads record 2, writes record 3    (carried further)
//	T-clean2: reads+writes record 4              (clean, must survive)
//	detection: audit fails (or not, in CW mode), database crashes
//
// It returns cfg plus the IDs of the four transactions.
func corruptionScenario(t *testing.T, pc protect.Config, runAudit bool) (core.Config, [4]wal.TxnID) {
	t.Helper()
	cfg := testConfig(t, pc)
	db, tb := setupTable(t, cfg, 5)

	var ids [4]wal.TxnID
	ids[0] = updateRec(t, db, tb, 0, []byte("clean-one"))

	// Direct physical corruption of record 1 via a wild write.
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 1)
	recAddr := tb.RecordAddr(1)
	if trapped, err := inj.WildWrite(recAddr+3, []byte{0xBA, 0xD1}); err != nil || trapped {
		t.Fatalf("wild write: trapped=%v err=%v", trapped, err)
	}

	// T-carrier reads the corrupt record and writes record 2.
	txn, _ := db.Begin()
	v, err := tb.Read(txn, heap.RID{Table: tb.ID, Slot: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: 2}, 0, v[:8]); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	ids[1] = txn.ID()

	// T-second reads record 2 (indirectly corrupt) and writes record 3.
	txn2, _ := db.Begin()
	v2, err := tb.Read(txn2, heap.RID{Table: tb.ID, Slot: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn2, heap.RID{Table: tb.ID, Slot: 3}, 0, v2[:4]); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	ids[2] = txn2.ID()

	// T-clean2 touches only record 4.
	txn3, _ := db.Begin()
	if _, err := tb.Read(txn3, heap.RID{Table: tb.ID, Slot: 4}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn3, heap.RID{Table: tb.ID, Slot: 4}, 0, []byte("clean-two")); err != nil {
		t.Fatal(err)
	}
	if err := txn3.Commit(); err != nil {
		t.Fatal(err)
	}
	ids[3] = txn3.ID()

	if runAudit {
		err := db.Audit()
		var ce *core.CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("audit should have detected corruption: %v", err)
		}
	}
	db.Crash()
	return cfg, ids
}

func TestDeleteTxnRecoveryTracesIndirectCorruption(t *testing.T) {
	pc := protect.Config{Kind: protect.KindReadLog, RegionSize: 64}
	cfg, ids := corruptionScenario(t, pc, true)

	db, tb, rep := reopen(t, cfg, Options{})
	defer db.Close()
	if !rep.CorruptionMode || rep.CWMode {
		t.Fatalf("mode: %+v", rep)
	}
	// The carrier and second-generation transactions are deleted; both
	// had committed.
	if len(rep.Deleted) != 2 {
		t.Fatalf("deleted: %+v, want 2", rep.Deleted)
	}
	wantDeleted := map[wal.TxnID]bool{ids[1]: true, ids[2]: true}
	for _, d := range rep.Deleted {
		if !wantDeleted[d.ID] {
			t.Fatalf("unexpected deletion of txn %d", d.ID)
		}
		if !d.Committed {
			t.Fatalf("txn %d should be reported as having committed", d.ID)
		}
	}

	// Record 0 and 4: clean transactions' effects preserved.
	if got := readRec(t, db, tb, 0); string(got[:9]) != "clean-one" {
		t.Fatalf("record 0 = %q", got[:9])
	}
	if got := readRec(t, db, tb, 4); string(got[:9]) != "clean-two" {
		t.Fatalf("record 4 = %q", got[:9])
	}
	// Records 1, 2, 3: restored to pre-corruption values (fill bytes).
	for slot, fill := range map[uint32]byte{1: 2, 2: 3, 3: 4} {
		got := readRec(t, db, tb, slot)
		for i, b := range got {
			if b != fill {
				t.Fatalf("record %d byte %d = %#x, want %#x", slot, i, b, fill)
			}
		}
	}
	if err := db.Audit(); err != nil {
		t.Fatalf("audit after delete-recovery: %v", err)
	}
	// The corrupt data table traced the corruption flow.
	if len(rep.FinalCorrupt) == 0 || len(rep.SeedCorrupt) == 0 {
		t.Fatalf("corrupt ranges not reported: %+v", rep)
	}
	assertPhaseHistograms(t, db)
}

func TestDeleteTxnRecoveryCWModeWithoutAudit(t *testing.T) {
	// The §4.3 extension's second benefit: with codewords in read log
	// records, corruption that occurred after the last audit is detected
	// on a crash that nobody attributed to corruption.
	pc := protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64}
	cfg, ids := corruptionScenario(t, pc, false /* no audit before crash */)

	db, tb, rep := reopen(t, cfg, Options{})
	defer db.Close()
	if !rep.CWMode {
		t.Fatal("CW mode not engaged for cw-read-log scheme")
	}
	wantDeleted := map[wal.TxnID]bool{ids[1]: true, ids[2]: true}
	if len(rep.Deleted) != 2 {
		t.Fatalf("deleted: %+v", rep.Deleted)
	}
	for _, d := range rep.Deleted {
		if !wantDeleted[d.ID] {
			t.Fatalf("unexpected deletion of txn %d", d.ID)
		}
	}
	if got := readRec(t, db, tb, 0); string(got[:9]) != "clean-one" {
		t.Fatalf("record 0 = %q", got[:9])
	}
	if got := readRec(t, db, tb, 4); string(got[:9]) != "clean-two" {
		t.Fatalf("record 4 = %q", got[:9])
	}
	if err := db.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadLogSchemeMissesCorruptionWithoutAudit(t *testing.T) {
	// Contrast case: plain Read Logging cannot detect the corruption on a
	// true crash (no failed audit in the log), so recovery runs in plain
	// mode and the carrier transactions survive. This is exactly why the
	// paper executes the CW variant on every restart.
	pc := protect.Config{Kind: protect.KindReadLog, RegionSize: 64}
	cfg, _ := corruptionScenario(t, pc, false)

	db, _, rep := reopen(t, cfg, Options{})
	defer db.Close()
	if rep.CorruptionMode {
		t.Fatal("corruption mode engaged with no failed audit on record")
	}
	if len(rep.Deleted) != 0 {
		t.Fatalf("deleted: %+v", rep.Deleted)
	}
}

func TestDeleteTxnConflictRule(t *testing.T) {
	// A transaction that never reads corrupt data but operates on an
	// object that a corrupt transaction had updated *before* reading the
	// corruption must also be deleted, so the corrupt transaction's
	// pre-corruption operation can be rolled back (§4.3 begin-op rule).
	pc := protect.Config{Kind: protect.KindReadLog, RegionSize: 64}
	cfg := testConfig(t, pc)
	db, tb := setupTable(t, cfg, 6)

	// T-corrupt first commits an op on record 5 (pre-corruption)...
	tc, _ := db.Begin()
	if err := tb.Update(tc, heap.RID{Table: tb.ID, Slot: 5}, 0, []byte("pre-corruption")); err != nil {
		t.Fatal(err)
	}
	// ... then corruption appears and T-corrupt reads it.
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 2)
	if _, err := inj.WildWrite(tb.RecordAddr(1)+5, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Read(tc, heap.RID{Table: tb.ID, Slot: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tc.Commit(); err != nil {
		t.Fatal(err)
	}

	// T-later operates on record 5 after T-corrupt: conflicts with the
	// deleted transaction's undo log.
	tl, _ := db.Begin()
	if err := tb.Update(tl, heap.RID{Table: tb.ID, Slot: 5}, 0, []byte("later-writer!!")); err != nil {
		t.Fatal(err)
	}
	if err := tl.Commit(); err != nil {
		t.Fatal(err)
	}

	var ce *core.CorruptionError
	if err := db.Audit(); !errors.As(err, &ce) {
		t.Fatalf("audit: %v", err)
	}
	db.Crash()

	db2, tb2, rep := reopen(t, cfg, Options{})
	defer db2.Close()
	deleted := map[wal.TxnID]bool{}
	for _, d := range rep.Deleted {
		deleted[d.ID] = true
	}
	if !deleted[tc.ID()] || !deleted[tl.ID()] {
		t.Fatalf("deleted = %+v, want both %d and %d", rep.Deleted, tc.ID(), tl.ID())
	}
	// Record 5 is back to its original fill (6), with both writes gone.
	got := readRec(t, db2, tb2, 5)
	if got[0] != 6 {
		t.Fatalf("record 5 = %v, want original fill 6", got[:4])
	}
	if err := db2.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestCWModeViewConsistencyKeepsIdenticalWriter(t *testing.T) {
	// The CW variant produces a view-consistent delete history: if the
	// deleted transaction wrote the same bytes the data already had, a
	// later reader of that data read a value that is unchanged in the
	// delete history, so the reader is NOT deleted (§4.3, final note).
	pc := protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64}
	cfg := testConfig(t, pc)
	db, tb := setupTable(t, cfg, 5)

	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 3)
	if _, err := inj.WildWrite(tb.RecordAddr(1), []byte{0x99}); err != nil {
		t.Fatal(err)
	}

	// T-carrier reads corrupt record 1, then writes record 2's bytes with
	// the value record 2 ALREADY HAS (fill 3).
	tcar, _ := db.Begin()
	if _, err := tb.Read(tcar, heap.RID{Table: tb.ID, Slot: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(tcar, heap.RID{Table: tb.ID, Slot: 2}, 0, []byte{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tcar.Commit(); err != nil {
		t.Fatal(err)
	}

	// T-reader reads record 2: in the delete history its value is the
	// same, so T-reader survives under view-consistency.
	trd, _ := db.Begin()
	if _, err := tb.Read(trd, heap.RID{Table: tb.ID, Slot: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(trd, heap.RID{Table: tb.ID, Slot: 4}, 0, []byte("reader-output")); err != nil {
		t.Fatal(err)
	}
	if err := trd.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db2, tb2, rep := reopen(t, cfg, Options{})
	defer db2.Close()
	deleted := map[wal.TxnID]bool{}
	for _, d := range rep.Deleted {
		deleted[d.ID] = true
	}
	if !deleted[tcar.ID()] {
		t.Fatalf("carrier %d not deleted: %+v", tcar.ID(), rep.Deleted)
	}
	if deleted[trd.ID()] {
		t.Fatalf("reader %d deleted despite unchanged view: %+v", trd.ID(), rep.Deleted)
	}
	if got := readRec(t, db2, tb2, 4); string(got[:13]) != "reader-output" {
		t.Fatalf("surviving reader's write lost: %q", got[:13])
	}
}

func TestExtraCorruptRangesForceRecovery(t *testing.T) {
	// Corruption found by an external assert (paper §4: other audit
	// mechanisms): no failed audit in the log, ranges supplied by caller.
	pc := protect.Config{Kind: protect.KindReadLog, RegionSize: 64}
	cfg := testConfig(t, pc)
	db, tb := setupTable(t, cfg, 4)

	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 4)
	if _, err := inj.WildWrite(tb.RecordAddr(1), []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	// Carrier reads record 1, writes record 3.
	txn, _ := db.Begin()
	if _, err := tb.Read(txn, heap.RID{Table: tb.ID, Slot: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: 3}, 0, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	db.Crash()

	corruptRange := Range{Start: tb.RecordAddr(1), Len: 64}
	db2, tb2, rep := reopen(t, cfg, Options{ExtraCorrupt: []Range{corruptRange}})
	defer db2.Close()
	if !rep.CorruptionMode {
		t.Fatal("extra ranges did not engage corruption mode")
	}
	if len(rep.Deleted) != 1 || rep.Deleted[0].ID != txn.ID() {
		t.Fatalf("deleted: %+v", rep.Deleted)
	}
	if got := readRec(t, db2, tb2, 3); got[0] != 4 {
		t.Fatalf("record 3 = %v, want original fill", got[:3])
	}
}

func TestRecoveryAfterDeleteRecoveryIsClean(t *testing.T) {
	// §4.3: the completion checkpoint prevents a future recovery from
	// rediscovering the same corruption.
	pc := protect.Config{Kind: protect.KindReadLog, RegionSize: 64}
	cfg, _ := corruptionScenario(t, pc, true)

	db, tb, rep1 := reopen(t, cfg, Options{})
	if len(rep1.Deleted) == 0 {
		t.Fatal("scenario produced no deletions")
	}
	// New post-recovery work, then crash again.
	updateRec(t, db, tb, 0, []byte("after-recovery"))
	db.Crash()

	db2, tb2, rep2 := reopen(t, cfg, Options{})
	defer db2.Close()
	if rep2.CorruptionMode {
		t.Fatalf("second recovery re-entered corruption mode: %+v", rep2)
	}
	if len(rep2.Deleted) != 0 {
		t.Fatalf("second recovery deleted transactions: %+v", rep2.Deleted)
	}
	if got := readRec(t, db2, tb2, 0); string(got[:14]) != "after-recovery" {
		t.Fatalf("post-recovery work lost: %q", got[:14])
	}
}

func TestCacheRecoveryRepairsInPlace(t *testing.T) {
	pc := protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}
	cfg := testConfig(t, pc)
	db, tb := setupTable(t, cfg, 4)
	defer db.Close()

	// Committed post-checkpoint history that must survive the repair.
	updateRec(t, db, tb, 1, []byte("post-ckpt"))

	// Wild write inside record 1's region.
	inj := fault.New(db.Internals().Arena, db.Scheme().Protector(), 5)
	if _, err := inj.WildWrite(tb.RecordAddr(1)+20, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}

	// A precheck on read detects it.
	txn, _ := db.Begin()
	_, err := tb.Read(txn, heap.RID{Table: tb.ID, Slot: 1})
	if !errors.Is(err, protect.ErrPrecheckFailed) {
		t.Fatalf("read of corrupt record: %v", err)
	}
	txn.Abort()

	// Cache recovery restores the region from checkpoint + log replay.
	if err := CacheRecover(db, []Range{{Start: tb.RecordAddr(1), Len: 64}}); err != nil {
		t.Fatal(err)
	}
	got := readRec(t, db, tb, 1)
	if string(got[:9]) != "post-ckpt" {
		t.Fatalf("record 1 after cache recovery: %q", got[:9])
	}
	if got[20] != 2 { // original fill byte restored where the fault hit
		t.Fatalf("fault bytes not repaired: %#x", got[20])
	}
	if err := db.Audit(); err != nil {
		t.Fatalf("audit after cache recovery: %v", err)
	}
}

func TestCacheRecoveryRequiresQuiescence(t *testing.T) {
	pc := protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}
	cfg := testConfig(t, pc)
	db, tb := setupTable(t, cfg, 2)
	defer db.Close()
	txn, _ := db.Begin()
	if err := CacheRecover(db, []Range{{Start: tb.RecordAddr(0), Len: 64}}); err == nil {
		t.Fatal("cache recovery ran with an active transaction")
	}
	txn.Commit()
	if err := CacheRecover(db, nil); err != nil {
		t.Fatalf("empty cache recovery: %v", err)
	}
}

func TestDisableCorruptionMode(t *testing.T) {
	pc := protect.Config{Kind: protect.KindReadLog, RegionSize: 64}
	cfg, _ := corruptionScenario(t, pc, true)
	db, _, rep := reopen(t, cfg, Options{DisableCorruptionMode: true})
	defer db.Close()
	if rep.CorruptionMode || len(rep.Deleted) != 0 {
		t.Fatalf("corruption mode not disabled: %+v", rep)
	}
}
