# Codeword-protection reproduction — common targets.

GO ?= go

.PHONY: all build vet test race cover bench bench-smoke server-smoke torture torture-smoke heal heal-smoke table1 table2 faultstudy faultstudy-disk examples clean

all: build vet test

build:
	$(GO) build ./...

# Static checks plus a race-detector pass over the subsystems with the
# most cross-goroutine state (metrics registry, WAL group commit, the
# concurrent TPC-B driver, lock manager, restart recovery) and over the
# scan code (protection schemes, checkpoint writer, codeword tables) at
# 1, 2 and 4 procs, and a one-iteration smoke of the kernel and ablation
# benchmarks.
# hashidx, shard and wire stay off the -cpu sweep: the lock layer's S->X
# conversion deadlock already makes server-smoke time out about one run
# in six, and more procs would only add to that flake. dbvet is the
# repo's own eleven-pass suite (latch order, guarded writes, codeword
# pairing, metric names, I/O path, error flow, 2PC protocol, context
# propagation, field-level locksets, latch-cycle detection, replay
# determinism); the passes share one load
# and run in parallel, so the eleven-pass suite costs roughly the same
# wall time as the original four. The -stats invocation reuses that
# load to gate suppression debt: the count of //dbvet:allow sites per
# pass must not grow past the checked-in dbvet.debt.json baseline.
# See DESIGN.md "Machine-checked invariants".
vet: bench-smoke torture-smoke server-smoke heal-smoke
	$(GO) vet ./...
	$(GO) run ./cmd/dbvet ./...
	$(GO) run ./cmd/dbvet -stats -debt-baseline dbvet.debt.json ./...
	$(GO) test -race -cpu 1,2,4 ./internal/core ./internal/wal ./internal/obs ./internal/tpcb ./internal/lockmgr ./internal/recovery ./internal/protect ./internal/ckpt ./internal/region

# End-to-end smoke of the TCP front end: a K=4 sharded server takes a
# concurrent mixed load over the wire protocol, drains gracefully, and
# every shard must pass a full audit — plus the codec fuzz corpus and
# the client/server suite, all under the race detector.
server-smoke:
	$(GO) test -race -short ./internal/wire ./internal/shard

# Bounded crash-point recovery torture: the smoke workload is crashed at
# every I/O point, recovery is verified from each frozen durable state,
# and the fail-stop log-poisoning tests run under the race detector.
# Includes the hot-slot sweep (TestCrashPointExhaustiveHotSlot): every
# transaction overwrites one slot, so each recovery's redo holds
# overlapping writes that only an in-order replay reproduces.
torture-smoke:
	$(GO) test -race -short ./internal/iofault/...

# Error-correction smoke: a small targeted-damage campaign (every
# ECC-bearing scheme x damage shape) whose gates require each repairable
# fault to heal in place byte-identically with zero delete-transaction
# recoveries, and double-word damage to escalate to a clean recovery.
# The JSON outcome table is the artifact CI uploads.
heal-smoke:
	$(GO) run ./cmd/faultstudy -heal -campaigns 8 -txns 3 -json heal.smoke.json

# The full healing campaign behind the PR's acceptance numbers
# (>= 99% of single-word wild writes silently repaired in place).
heal:
	$(GO) run ./cmd/faultstudy -heal -campaigns 100

# The full exhaustive sweep (DefaultConfig workload, hundreds of crash
# points) plus the disk fault-study campaign.
torture:
	$(GO) test -race ./internal/iofault/...
	$(GO) run ./cmd/faultstudy -disk

# Compile-and-run smoke of the kernel/scan microbenchmarks and the root
# ablation benchmarks (one iteration each), plus vet and a race pass over
# the region package, whose codeword and ECC-plane latching is the most
# concurrency-sensitive code in the tree. Every scan runs on its caller,
# so the race pass exercises the same code paths at any core count.
bench-smoke:
	$(GO) vet ./internal/region
	$(GO) test -race ./internal/region
	$(GO) test -run=xxx -bench=. -benchtime=1x ./internal/region
	$(GO) test -run=xxx -bench=. -benchtime=1x .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test ./internal/... -coverpkg=./internal/... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# The paper's experiments.
table1:
	$(GO) run ./cmd/protbench

table2:
	python3 perfbench/run.py --workload table2

faultstudy:
	$(GO) run ./cmd/faultstudy -campaigns 25

faultstudy-disk:
	$(GO) run ./cmd/faultstudy -disk

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/corruption_audit
	$(GO) run ./examples/delete_recovery
	$(GO) run ./examples/tpcb -ops 2000
	$(GO) run ./examples/extensible_index

clean:
	rm -f cover.out test_output.txt bench_output.txt heal.smoke.json
