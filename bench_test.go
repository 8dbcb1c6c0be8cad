// Package repro's benchmarks are ablations of the design choices
// DESIGN.md calls out: read-path cost per scheme, hardware protection by
// storage layout, immediate vs deferred codeword maintenance, system-log
// append, restart recovery and the scheme-level audit sweep.
//
//	go test -run=xxx -bench=. -benchmem
//
// The paper's tables have their own runners: Table 1 is cmd/protbench
// and Table 2 is the perfbench table2 workload. The codeword kernels and
// region-level scans are benchmarked in internal/region.
package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/recovery"
	"repro/internal/tpcb"
	"repro/internal/wal"
)

// benchScale keeps setup time moderate while staying out of cache effects;
// history capacity is generous and recycled so b.N is unbounded.
var benchScale = tpcb.Scale{Accounts: 20_000, Tellers: 2_000, Branches: 200, HistoryCap: 200_000}

// BenchmarkAuditSweep measures a full-database audit by region size: the
// asynchronous detection cost the Data Codeword scheme amortizes into
// checkpoints.
func BenchmarkAuditSweep(b *testing.B) {
	const arenaSize = 1 << 24 // 16 MiB
	for _, size := range []int{64, 512, 8192} {
		size := size
		b.Run(fmt.Sprintf("region-%dB", size), func(b *testing.B) {
			arena, err := mem.NewArena(arenaSize, 4096, mem.WithHeapBacking())
			if err != nil {
				b.Fatal(err)
			}
			defer arena.Close()
			s, err := protect.New(arena, protect.Config{Kind: protect.KindDataCW, RegionSize: size})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(arenaSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bad := s.Audit(); bad != nil {
					b.Fatal("clean arena failed audit")
				}
			}
		})
	}
}

// BenchmarkReadPath isolates the per-read cost of each scheme (precheck
// XOR, read-log record creation, CW capture) without the rest of the
// workload.
func BenchmarkReadPath(b *testing.B) {
	specs := []struct {
		name string
		pc   protect.Config
	}{
		{"baseline", protect.Config{Kind: protect.KindBaseline}},
		{"datacw-512", protect.Config{Kind: protect.KindDataCW, RegionSize: 512}},
		{"precheck-64", protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}},
		{"precheck-512", protect.Config{Kind: protect.KindPrecheck, RegionSize: 512}},
		{"precheck-8K", protect.Config{Kind: protect.KindPrecheck, RegionSize: 8192}},
		{"readlog-512", protect.Config{Kind: protect.KindReadLog, RegionSize: 512}},
		{"cwreadlog-64", protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64}},
	}
	for _, spec := range specs {
		spec := spec
		b.Run(spec.name, func(b *testing.B) {
			cfg := core.Config{
				Dir:       b.TempDir(),
				ArenaSize: 1 << 22,
				Protect:   spec.pc,
			}
			if rs := spec.pc.Defaulted().RegionSize; rs > 4096 {
				cfg.PageSize = rs
			}
			db, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			txn, err := db.Begin()
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := mem.Addr((i * 100) % (1<<22 - 128))
				if _, err := txn.ReadInto(addr, buf); err != nil {
					b.Fatal(err)
				}
				// Keep the pending read-log records bounded.
				if len(txn.Entry().Redo) >= 4096 {
					txn.Entry().Redo = txn.Entry().Redo[:0]
				}
			}
		})
	}
}

// BenchmarkHWProtectionByLayout reproduces the paper's §5.3 speculation:
// "this number [pages touched per operation] may be significantly smaller
// for a page-based system, which would improve the performance of
// Hardware Protection". The same TPC-B workload runs under real mprotect
// with the Dalí off-page-allocation layout and with a page-local layout;
// compare pages/op and ns/op.
func BenchmarkHWProtectionByLayout(b *testing.B) {
	for _, spec := range []struct {
		name   string
		layout heap.Layout
	}{
		{"dali-separate-alloc", heap.LayoutSeparate},
		{"page-local-alloc", heap.LayoutPageLocal},
	} {
		spec := spec
		b.Run(spec.name, func(b *testing.B) {
			scale := benchScale
			scale.Layout = spec.layout
			db, err := core.Open(core.Config{
				Dir:       b.TempDir(),
				ArenaSize: scale.ArenaSize(),
				Protect:   protect.Config{Kind: protect.KindHW, HWDeferReprotect: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			w, err := tpcb.Setup(db, scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			w.Recycle = true
			txn, err := db.Begin()
			if err != nil {
				b.Fatal(err)
			}
			inTxn := 0
			before := db.Metrics()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Op(txn); err != nil {
					b.Fatal(err)
				}
				if inTxn++; inTxn == tpcb.CommitEvery {
					if err := txn.Commit(); err != nil {
						b.Fatal(err)
					}
					if txn, err = db.Begin(); err != nil {
						b.Fatal(err)
					}
					inTxn = 0
				}
			}
			b.StopTimer()
			txn.Commit()
			if calls := db.Metrics().Sub(before).Counter(obs.NameProtectCalls); b.N > 0 {
				b.ReportMetric(float64(calls)/2/float64(b.N), "pages/op")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkCodewordMaintenancePolicy compares immediate codeword
// maintenance (Data CW) against the deferred-maintenance variant on the
// update path: the deferred scheme trades codeword-latch work at
// endUpdate for batched drains.
func BenchmarkCodewordMaintenancePolicy(b *testing.B) {
	for _, spec := range []struct {
		name string
		kind protect.Kind
	}{
		{"immediate", protect.KindDataCW},
		{"deferred", protect.KindDeferredCW},
	} {
		spec := spec
		b.Run(spec.name, func(b *testing.B) {
			arena, err := mem.NewArena(1<<22, 4096, mem.WithHeapBacking())
			if err != nil {
				b.Fatal(err)
			}
			defer arena.Close()
			s, err := protect.New(arena, protect.Config{Kind: spec.kind, RegionSize: 512})
			if err != nil {
				b.Fatal(err)
			}
			old := make([]byte, 100)
			data := make([]byte, 100)
			for i := range data {
				data[i] = byte(i)
			}
			b.SetBytes(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := mem.Addr((i * 128) % (1<<22 - 256))
				tok, err := s.BeginUpdate(addr, 100)
				if err != nil {
					b.Fatal(err)
				}
				copy(arena.Slice(addr, 100), data)
				if err := s.EndUpdate(tok, old, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogAppendFlush measures system-log append and group-flush
// throughput, the substrate cost behind the read-logging overhead.
func BenchmarkLogAppendFlush(b *testing.B) {
	db, err := core.Open(core.Config{Dir: b.TempDir(), ArenaSize: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	log := db.Internals().Log
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append(benchPhysRecord(i))
		if i%500 == 499 {
			if err := log.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchPhysRecord returns a representative physical record for log benches.
func benchPhysRecord(i int) *wal.Record {
	return &wal.Record{Kind: wal.KindPhysRedo, Txn: 1, Addr: mem.Addr(i % 4096), Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
}

// BenchmarkRestartRecovery measures restart recovery wall time as a
// function of the log suffix replayed (operations since the last
// checkpoint). One iteration = one full recovery (load checkpoint, redo
// scan, undo, completion checkpoint).
func BenchmarkRestartRecovery(b *testing.B) {
	for _, opsSinceCkpt := range []int{1000, 10000} {
		opsSinceCkpt := opsSinceCkpt
		b.Run(fmt.Sprintf("ops-%d", opsSinceCkpt), func(b *testing.B) {
			scale := tpcb.SmallScale
			if scale.HistoryCap < opsSinceCkpt {
				scale.HistoryCap = opsSinceCkpt
			}
			cfg := core.Config{
				Dir:       b.TempDir(),
				ArenaSize: scale.ArenaSize(),
				Protect:   protect.Config{Kind: protect.KindReadLog, RegionSize: 512},
			}
			db, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			w, err := tpcb.Setup(db, scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Run(opsSinceCkpt); err != nil {
				b.Fatal(err)
			}
			if err := db.Crash(); err != nil {
				b.Fatal(err)
			}
			// Recovery ends with a checkpoint, so recovering the same
			// directory twice would replay nothing; each iteration
			// recovers a fresh copy of the crashed directory instead.
			var records float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				iterDir := b.TempDir()
				copyDirBench(b, cfg.Dir, iterDir)
				iterCfg := cfg
				iterCfg.Dir = iterDir
				b.StartTimer()
				db2, rep, err := recovery.Open(iterCfg, recovery.Options{})
				if err != nil {
					b.Fatal(err)
				}
				records = float64(rep.RecordsScanned)
				b.StopTimer()
				db2.Crash()
				b.StartTimer()
			}
			b.ReportMetric(records, "records")
		})
	}
}

func copyDirBench(b *testing.B, src, dst string) {
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(dst+"/"+e.Name(), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
