package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/iofault"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/trace"
	"repro/internal/wal"
)

// goldenWorkload runs a fixed, seeded, single-goroutine workload that
// writes every system-log record kind the engine produces (inserts,
// updates, deletes, read records with codewords, a rollback, a 2PC
// prepare and decision, audits), takes one checkpoint in the middle and
// one archive at the end, and closes the database. It returns the database
// directory and the archive path.
func goldenWorkload(t *testing.T) (dir, arc string) {
	t.Helper()
	dir = t.TempDir()
	cfg := core.Config{
		Dir:       dir,
		ArenaSize: 1 << 17,
		Workers:   1,
		Protect:   protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64},
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := heap.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.CreateTable("golden", 48, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	record := func() []byte {
		b := make([]byte, 48)
		rng.Read(b)
		return b
	}
	var rids []heap.RID
	txnRound := func(n int, abort bool) {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			switch op := rng.Intn(4); {
			case op == 0 || len(rids) < 4:
				rid, err := tb.Insert(txn, record())
				if err != nil {
					t.Fatal(err)
				}
				rids = append(rids, rid)
			case op == 1:
				rid := rids[rng.Intn(len(rids))]
				if _, err := tb.Read(txn, rid); err != nil {
					t.Fatal(err)
				}
			case op == 2:
				rid := rids[rng.Intn(len(rids))]
				if err := tb.Update(txn, rid, rng.Intn(40), record()[:8]); err != nil {
					t.Fatal(err)
				}
			default:
				k := rng.Intn(len(rids))
				if err := tb.Delete(txn, rids[k]); err != nil {
					t.Fatal(err)
				}
				rids = append(rids[:k], rids[k+1:]...)
			}
		}
		if abort {
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		txnRound(8, false)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	saved := append([]heap.RID(nil), rids...)
	txnRound(5, true)
	rids = saved
	for i := 0; i < 4; i++ {
		txnRound(6, false)
	}
	// A prepared participant committed by a locally logged decision.
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(txn, rids[0], 0, record()[:16]); err != nil {
		t.Fatal(err)
	}
	if err := txn.Prepare(77); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendDecision(77, true); err != nil {
		t.Fatal(err)
	}
	if err := txn.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	arc = filepath.Join(t.TempDir(), "golden.arc")
	if _, err := Write(db, arc); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, arc
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOnDiskFormatGolden pins the bytes of the system log, the checkpoint
// anchor and meta file, and the archive written by a fixed workload. The
// digests were taken from the build that still carried the optional
// multi-stream log layer, running this same workload with one log: a
// mismatch means the single-log on-disk format changed.
func TestOnDiskFormatGolden(t *testing.T) {
	dir, arc := goldenWorkload(t)
	want := map[string]string{
		filepath.Join(dir, wal.LogFileName):     "39764da60ff17e98081338aea2761e98588eec987efb91f8e585331db2ac4f3f",
		filepath.Join(dir, ckpt.AnchorFileName): "e707c33e2cbf72193a428141d43e32164a8dfd5216f4f7c8356a2feed7e7631e",
		filepath.Join(dir, "ckpt_A.meta"):       "3365732c8da3d0c458f6710441e10550b0da2bd22e390ff6fd9b16a067853fd7",
		arc:                                     "5be791e8b2d685971e7273b0a3cfe3fd406889b49199b062b7b738f5707d03a8",
	}
	for path, digest := range want {
		if got := fileDigest(t, path); got != digest {
			t.Errorf("%s: sha256 %s, want %s", filepath.Base(path), got, digest)
		}
	}
}

// snapshotDir records every file in dir with its content and modification
// time, so a test can prove a refused open left the directory untouched.
type fileState struct {
	data  []byte
	mtime int64
}

func snapshotDir(t *testing.T, dir string) map[string]fileState {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]fileState, len(entries))
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fileState{data: b, mtime: fi.ModTime().UnixNano()}
	}
	return out
}

func assertUnchanged(t *testing.T, dir string, before map[string]fileState) {
	t.Helper()
	after := snapshotDir(t, dir)
	for name, b := range before {
		a, ok := after[name]
		switch {
		case !ok:
			t.Errorf("%s was removed", name)
		case !bytes.Equal(a.data, b.data):
			t.Errorf("%s was rewritten or truncated (%d -> %d bytes)", name, len(b.data), len(a.data))
		case a.mtime != b.mtime:
			t.Errorf("%s was rewritten (modification time changed)", name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("%s was created", name)
		}
	}
}

// withVector appends an n-entry little-endian LSN vector to a
// checksummed file body the way the multi-stream layout did: the vector
// (prefixed by its length, lenBytes wide) goes before the trailing
// CRC-32C, which is recomputed over the extended body.
func withVector(t *testing.T, file []byte, lenBytes int, vec ...uint64) []byte {
	t.Helper()
	body := append([]byte(nil), file[:len(file)-4]...)
	if lenBytes == 4 {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(vec)))
	} else {
		body = binary.LittleEndian.AppendUint64(body, uint64(len(vec)))
	}
	for _, v := range vec {
		body = binary.LittleEndian.AppendUint64(body, v)
	}
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// assertRefused checks that err is a multi-stream refusal naming file.
func assertRefused(t *testing.T, what string, err error, file string) {
	t.Helper()
	if !errors.Is(err, wal.ErrMultiStreamLog) {
		t.Errorf("%s: err = %v, want a multi-stream refusal", what, err)
		return
	}
	if !strings.Contains(err.Error(), file) {
		t.Errorf("%s: refusal %q does not name %s", what, err, file)
	}
}

// TestRefuseMultiStreamLayout proves that a database directory or archive
// written in the multi-stream log layout is refused — by core.Open,
// recovery.Open, archive restore and the log readers the offline tools
// use — with an error naming the offending file, and that the refusal
// leaves every file exactly as it was. Opening system.log alone would
// hide the acknowledged commits held in the other stream files.
func TestRefuseMultiStreamLayout(t *testing.T) {
	dir, arc := goldenWorkload(t)
	cfg := core.Config{
		Dir:       dir,
		ArenaSize: 1 << 17,
		Workers:   1,
		Protect:   protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64},
	}
	fsys := iofault.OS

	t.Run("stream file", func(t *testing.T) {
		stream := filepath.Join(dir, "system-1.log")
		var log []byte
		log = append(log, "DALILOG1"...)
		log = binary.LittleEndian.AppendUint64(log, 0)
		log = (&wal.Record{Kind: wal.KindTxnCommit, Txn: 9}).Encode(log)
		if err := os.WriteFile(stream, log, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(stream)
		before := snapshotDir(t, dir)

		_, err := core.Open(cfg)
		assertRefused(t, "core.Open", err, "system-1.log")
		_, _, err = recovery.Open(cfg, recovery.Options{})
		assertRefused(t, "recovery.Open", err, "system-1.log")
		_, _, err = Recover(cfg, arc)
		assertRefused(t, "archive.Recover", err, "system-1.log")
		_, err = wal.LogBaseFS(fsys, dir)
		assertRefused(t, "wal.LogBaseFS", err, "system-1.log")
		err = wal.ScanFS(fsys, dir, 0, func(*wal.Record) bool { return true })
		assertRefused(t, "wal.ScanFS", err, "system-1.log")
		_, err = wal.OpenSystemLogFS(fsys, dir, 4096)
		assertRefused(t, "wal.OpenSystemLogFS", err, "system-1.log")
		_, err = trace.Run(dir, trace.Options{})
		assertRefused(t, "trace.Run", err, "system-1.log")
		assertUnchanged(t, dir, before)
	})

	t.Run("anchor vector", func(t *testing.T) {
		anchorPath := filepath.Join(dir, ckpt.AnchorFileName)
		orig, err := os.ReadFile(anchorPath)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ckpt.LoadFS(fsys, dir)
		if err != nil {
			t.Fatal(err)
		}
		ck := uint64(a.Anchor.CKEnd)
		if err := os.WriteFile(anchorPath, withVector(t, orig, 4, ck, 16), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(anchorPath, orig, 0o644)
		before := snapshotDir(t, dir)

		_, _, err = recovery.Open(cfg, recovery.Options{})
		assertRefused(t, "recovery.Open", err, ckpt.AnchorFileName)
		_, _, err = Recover(cfg, arc)
		assertRefused(t, "archive.Recover", err, ckpt.AnchorFileName)
		_, err = ckpt.LoadFS(fsys, dir)
		assertRefused(t, "ckpt.LoadFS", err, ckpt.AnchorFileName)
		_, err = ckpt.OpenFS(fsys, dir, 4096)
		assertRefused(t, "ckpt.OpenFS", err, ckpt.AnchorFileName)
		assertUnchanged(t, dir, before)
	})

	t.Run("meta vector", func(t *testing.T) {
		metaPath := filepath.Join(dir, "ckpt_A.meta")
		orig, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath, withVector(t, orig, 8, 100, 16), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(metaPath, orig, 0o644)
		before := snapshotDir(t, dir)

		_, _, err = recovery.Open(cfg, recovery.Options{})
		assertRefused(t, "recovery.Open", err, "ckpt_A.meta")
		assertUnchanged(t, dir, before)
	})

	t.Run("archive vector", func(t *testing.T) {
		orig, err := os.ReadFile(arc)
		if err != nil {
			t.Fatal(err)
		}
		info, _, _, err := Read(arc)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(t.TempDir(), "multi.arc")
		if err := os.WriteFile(bad, withVector(t, orig, 8, uint64(info.CKEnd), 16), 0o644); err != nil {
			t.Fatal(err)
		}
		before := snapshotDir(t, dir)

		_, _, _, err = Read(bad)
		assertRefused(t, "archive.Read", err, bad)
		_, _, err = Recover(cfg, bad)
		assertRefused(t, "archive.Recover", err, bad)
		assertUnchanged(t, dir, before)
	})

	// With every hand-written file restored, the database opens normally.
	db, _, err := recovery.Open(cfg, recovery.Options{})
	if err != nil {
		t.Fatalf("restored directory no longer opens: %v", err)
	}
	db.Close()
}
