// Package torture drives exhaustive crash-point recovery testing against
// the injectable storage-fault layer. A fixed, deterministic workload is
// run once fault-free to count its I/O points; it is then rerun with a
// simulated crash at every point K in [0, N), the frozen durable state is
// materialized into a fresh directory, and restart recovery is run
// against it. Recovery must converge, a full codeword audit must come
// back clean, every transaction whose commit succeeded before the crash
// must be present, and every other transaction must be absent — the
// ALICE/CrashMonkey discipline applied to the paper's Dalí-style storage
// manager.
package torture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/iofault"
	"repro/internal/mem"
	"repro/internal/protect"
	"repro/internal/recovery"
)

// Config sizes the canonical workload. The zero value is unusable; use
// DefaultConfig (or SmokeConfig) as a starting point.
type Config struct {
	// PageSize and ArenaSize shape the database.
	PageSize  int
	ArenaSize int
	// Slots and RecSize shape the heap table; the workload round-robins
	// its updates over the slots.
	Slots   int
	RecSize int
	// Txns is the number of single-update transactions after the initial
	// load; CheckpointEvery inserts a ping-pong checkpoint every that many
	// transactions (0 = only the post-load checkpoint).
	Txns            int
	CheckpointEvery int
}

// DefaultConfig is the exhaustive-test workload: small enough that the
// full crash-point space stays in the hundreds, large enough to cross
// several group commits and three checkpoints (so crash points land
// inside image writes, meta writes, the anchor install and its directory
// sync, not just log flushes).
func DefaultConfig() Config {
	return Config{
		PageSize:        4096,
		ArenaSize:       32 << 10,
		Slots:           8,
		RecSize:         64,
		Txns:            12,
		CheckpointEvery: 4,
	}
}

// SmokeConfig is a bounded variant for CI smoke runs (make torture-smoke).
func SmokeConfig() Config {
	c := DefaultConfig()
	c.Txns = 4
	c.CheckpointEvery = 2
	return c
}

// CoreConfig is the database configuration the workload runs under:
// single-threaded scan pool (fully deterministic I/O-point sequence),
// data codewords with small regions, and no log compaction — retaining
// the log keeps the older ping-pong image recoverable, which the
// torn-page fallback path depends on.
func CoreConfig(dir string, fsys iofault.FS, c Config) core.Config {
	return core.Config{
		Dir:                  dir,
		ArenaSize:            c.ArenaSize,
		PageSize:             c.PageSize,
		Protect:              protect.Config{Kind: protect.KindDataCW, RegionSize: 64},
		Workers:              1,
		DisableLogCompaction: true,
		FS:                   fsys,
	}
}

// RunResult captures what one workload run durably promised: the record
// bytes each slot must hold after recovery (reflecting exactly the
// transactions whose Commit returned nil) and where those records live.
type RunResult struct {
	// Addrs[s] is the arena address of slot s's record; nil if the run
	// crashed before the table existed.
	Addrs []mem.Addr
	// Expected[s] is slot s's full record image per the committed history.
	Expected [][]byte
	// Committed counts update transactions whose Commit returned nil.
	Committed int
	// Checkpoints counts completed checkpoints.
	Checkpoints int
	// Err is the first error the workload hit (nil on a fault-free run).
	Err error
}

// initRecord fills slot's record from a slot-seeded LCG. Structured fills
// are invisible to XOR codewords — a repeated byte makes every word
// identical (even counts cancel to zero, the codeword of absent data),
// and even slot⊕offset patterns are separable and cancel the same way —
// so the fill must be effectively random per byte for torn-page tests to
// have teeth.
func initRecord(c Config, slot int) []byte {
	rec := make([]byte, c.RecSize)
	x := uint32(slot)*2654435761 + 12345
	for j := range rec {
		x = x*1664525 + 1013904223
		rec[j] = byte(x >> 24)
	}
	return rec
}

// Run executes the canonical workload in dir through fsys, stopping at
// the first error (on a crash-armed filesystem that is the simulated
// machine going down). The returned result's Expected state reflects only
// commits that were acknowledged — the contract Verify holds recovery to.
func Run(dir string, fsys iofault.FS, c Config) *RunResult {
	res := &RunResult{}
	fail := func(db *core.DB, err error) *RunResult {
		res.Err = err
		if db != nil {
			db.Crash()
		}
		return res
	}
	db, err := core.Open(CoreConfig(dir, fsys, c))
	if err != nil {
		return fail(nil, err)
	}
	cat, err := heap.Open(db)
	if err != nil {
		return fail(db, err)
	}
	tb, err := cat.CreateTable("torture", c.RecSize, c.Slots)
	if err != nil {
		return fail(db, err)
	}
	res.Addrs = make([]mem.Addr, c.Slots)
	res.Expected = make([][]byte, c.Slots)
	for s := 0; s < c.Slots; s++ {
		res.Addrs[s] = tb.RecordAddr(uint32(s))
		res.Expected[s] = make([]byte, c.RecSize) // nothing committed yet
	}

	// Initial load: one transaction inserting every slot, then a
	// checkpoint so the catalog metadata is durable.
	rids := make([]heap.RID, c.Slots)
	txn, err := db.Begin()
	if err != nil {
		return fail(db, err)
	}
	for s := 0; s < c.Slots; s++ {
		if rids[s], err = tb.Insert(txn, initRecord(c, s)); err != nil {
			return fail(db, err)
		}
	}
	if err := txn.Commit(); err != nil {
		return fail(db, err)
	}
	for s := 0; s < c.Slots; s++ {
		res.Expected[s] = initRecord(c, s)
	}
	if err := db.Checkpoint(); err != nil {
		return fail(db, err)
	}
	res.Checkpoints++

	// Update transactions: txn i writes i+1 into slot i%Slots at a fixed
	// field offset. Expected state advances only on acknowledged commit.
	for i := 0; i < c.Txns; i++ {
		s := i % c.Slots
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(i+1))
		txn, err := db.Begin()
		if err != nil {
			return fail(db, err)
		}
		if err := tb.Update(txn, rids[s], 8, v[:]); err != nil {
			return fail(db, err)
		}
		if err := txn.Commit(); err != nil {
			return fail(db, err)
		}
		copy(res.Expected[s][8:16], v[:])
		res.Committed++
		if c.CheckpointEvery > 0 && (i+1)%c.CheckpointEvery == 0 {
			if err := db.Checkpoint(); err != nil {
				return fail(db, err)
			}
			res.Checkpoints++
		}
	}
	if err := db.Close(); err != nil {
		res.Err = err
	}
	return res
}

// Verify materializes fsys's frozen durable state into recoverDir, runs
// restart recovery there on the real filesystem (exactly as a restarted
// process would), and asserts the recovery contract: recovery converges,
// a full codeword audit is clean, acknowledged commits are present and
// unacknowledged transactions absent. The recovery Report is returned for
// callers interested in fallback/corruption details.
func Verify(fsys *iofault.FaultFS, recoverDir string, c Config, res *RunResult) (*recovery.Report, error) {
	if err := fsys.MaterializeDurable(recoverDir); err != nil {
		return nil, fmt.Errorf("torture: materialize durable state: %w", err)
	}
	db, rep, err := recovery.Open(CoreConfig(recoverDir, nil, c), recovery.Options{})
	if err != nil {
		return nil, fmt.Errorf("torture: recovery did not converge: %w", err)
	}
	defer db.Close()
	if err := db.Audit(); err != nil {
		return rep, fmt.Errorf("torture: post-recovery audit: %w", err)
	}
	if res.Addrs == nil {
		// Crashed before the table existed: convergence and the clean
		// audit are the whole contract.
		return rep, nil
	}
	arena := db.Internals().Arena
	for s, want := range res.Expected {
		got := arena.Slice(res.Addrs[s], len(want))
		if !bytes.Equal(got, want) {
			return rep, fmt.Errorf("torture: slot %d at addr %d: recovered %x, want %x",
				s, res.Addrs[s], got, want)
		}
	}
	return rep, nil
}

// CrashPoint runs the workload in workDir with a crash armed at point k,
// then verifies recovery from the frozen durable state in recoverDir.
// Both directories are created. It returns the run and verification
// results; verr is the verification failure, if any.
func CrashPoint(workDir, recoverDir string, c Config, k int64) (res *RunResult, rep *recovery.Report, verr error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	fsys := iofault.NewFaultFS(workDir)
	fsys.CrashAtPoint(k)
	res = Run(workDir, fsys, c)
	if !fsys.Crashed() {
		return res, nil, fmt.Errorf("torture: crash point %d never fired (workload has %d points)", k, fsys.Points())
	}
	rep, verr = Verify(fsys, recoverDir, c, res)
	return res, rep, verr
}

// CountPoints runs the workload fault-free in dir and reports its I/O
// point count — the exhaustive crash-point space.
func CountPoints(dir string, c Config) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	fsys := iofault.NewFaultFS(dir)
	res := Run(dir, fsys, c)
	if res.Err != nil {
		return 0, fmt.Errorf("torture: fault-free run failed: %w", res.Err)
	}
	return fsys.Points(), nil
}
