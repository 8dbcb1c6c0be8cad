package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/wal"
)

func TestConfigValidate(t *testing.T) {
	valid := Config{ArenaSize: 1 << 16}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"zero arena", Config{}, "ArenaSize"},
		{"negative arena", Config{ArenaSize: -4096}, "ArenaSize"},
		{"non-power-of-two page", Config{ArenaSize: 1 << 16, PageSize: 3000}, "PageSize"},
		{"negative page", Config{ArenaSize: 1 << 16, PageSize: -4096}, "PageSize"},
		{"negative lock timeout", Config{ArenaSize: 1 << 16, LockTimeout: -time.Second}, "LockTimeout"},
		{"page smaller than region", Config{
			ArenaSize: 1 << 16, PageSize: 4096,
			Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 8192},
		}, "smaller than the protection region"},
		{"non-power-of-two region", Config{
			ArenaSize: 1 << 16,
			Protect:   protect.Config{Kind: protect.KindDataCW, RegionSize: 48},
		}, "region size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := Open(tc.cfg); err == nil {
				t.Fatal("Open accepted a config Validate rejects")
			}
		})
	}
	// A large region is fine when the page covers it.
	big := Config{
		ArenaSize: 1 << 16, PageSize: 8192,
		Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 8192},
	}
	if err := big.Validate(); err != nil {
		t.Fatalf("8K region with 8K pages rejected: %v", err)
	}
}

func TestErrorsIsCorruption(t *testing.T) {
	// DisableHeal: this test pins the error taxonomy of a *detected*
	// corruption; with ECC on, a single-bit flip would be healed instead.
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64, DisableHeal: true})
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	opUpdate(t, txn, 1, 128, []byte("payload!"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Stray store outside the prescribed interface: the codeword is stale.
	db.Internals().Arena.Bytes()[130] ^= 0xFF

	txn2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn2.Abort()
	_, rerr := txn2.Read(128, 8)
	if rerr == nil {
		t.Fatal("read of corrupt region succeeded")
	}
	if !errors.Is(rerr, ErrCorruption) {
		t.Fatalf("read error %q does not match ErrCorruption", rerr)
	}
	if !errors.Is(rerr, protect.ErrPrecheckFailed) {
		t.Fatalf("read error %q does not match protect.ErrPrecheckFailed", rerr)
	}

	// A dirty audit yields *CorruptionError, matching both errors.Is on
	// the sentinel and errors.As on the concrete type.
	aerr := db.Audit()
	if aerr == nil {
		t.Fatal("audit of corrupt database came back clean")
	}
	if !errors.Is(aerr, ErrCorruption) {
		t.Fatalf("audit error %q does not match ErrCorruption", aerr)
	}
	var ce *CorruptionError
	if !errors.As(aerr, &ce) || len(ce.Mismatches) == 0 {
		t.Fatalf("audit error %q is not a *CorruptionError with mismatches", aerr)
	}
}

func TestErrorsIsLockTimeout(t *testing.T) {
	db, err := Open(Config{
		Dir:         t.TempDir(),
		ArenaSize:   1 << 14,
		LockTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	t1, _ := db.Begin()
	t2, _ := db.Begin()
	defer t1.Abort()
	defer t2.Abort()
	if err := t1.Lock(7, lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	lerr := t2.Lock(7, lockmgr.Exclusive)
	if lerr == nil {
		t.Fatal("conflicting lock granted")
	}
	if !errors.Is(lerr, ErrLockTimeout) {
		t.Fatalf("lock error %q does not match core.ErrLockTimeout", lerr)
	}
	if !errors.Is(lerr, lockmgr.ErrTimeout) {
		t.Fatalf("lock error %q does not match lockmgr.ErrTimeout", lerr)
	}
	s := db.Metrics()
	if s.Counter(obs.NameLockTimeouts) == 0 {
		t.Fatalf("timeout not counted: %v", s.Counters)
	}
}

// TestMetricsConcurrent hammers the engine from several goroutines while
// snapshots and checkpoints run; under -race it proves DB.Metrics is a
// consistent, data-race-free snapshot (the old Stats read its atomics
// one by one with no snapshot discipline).
func TestMetricsConcurrent(t *testing.T) {
	db := testDB(t, protect.Config{Kind: protect.KindPrecheck, RegionSize: 64})
	const (
		workers = 4
		txns    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				txn, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				key := wal.ObjectKey(w)
				if err := txn.Lock(key, lockmgr.Exclusive); err != nil {
					txn.Abort()
					continue
				}
				opUpdate(t, txn, key, mem128(w), []byte("abcdefgh"))
				if _, err := txn.Read(mem128(w), 8); err != nil {
					t.Error(err)
					txn.Abort()
					return
				}
				if i%5 == 4 {
					if err := txn.Abort(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(2)
	go func() {
		defer snaps.Done()
		// Concurrent snapshots: each value is an atomic load (no torn
		// reads, which -race would flag on the old Stats fields), and a
		// monotone counter never regresses across snapshots.
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := db.Metrics()
			begun := s.Counter(obs.NameTxnsBegun)
			if begun < last {
				t.Errorf("txns_begun went backwards: %d -> %d", last, begun)
				return
			}
			last = begun
		}
	}()
	go func() {
		defer snaps.Done()
		for i := 0; i < 5; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := db.Metrics()
	if got := s.Counter(obs.NameTxnsBegun); got != workers*txns {
		t.Fatalf("txns begun = %d, want %d", got, workers*txns)
	}
	if s.Counter(obs.NameTxnsCommitted)+s.Counter(obs.NameTxnsAborted) != workers*txns {
		t.Fatalf("finished != begun: %v", s.Counters)
	}
	if s.Counter(obs.NamePrecheckRegions) == 0 {
		t.Fatal("precheck counter never moved")
	}
	if s.Counter(obs.NameCheckpoints) != 5 {
		t.Fatalf("checkpoints = %d, want 5", s.Counter(obs.NameCheckpoints))
	}
	h := s.Histogram(obs.NameWALFsyncNS)
	if h.Count == 0 {
		t.Fatal("fsync histogram empty after commits")
	}
	if gc := s.Histogram(obs.NameWALGroupCommit); gc.Count == 0 || gc.Mean() < 1 {
		t.Fatalf("group-commit histogram: %+v", gc)
	}
}

// mem128 spaces workers 128 bytes apart so their updates hit disjoint
// protection regions.
func mem128(w int) mem.Addr { return mem.Addr(1024 + 128*w) }
