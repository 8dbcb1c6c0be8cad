package main

import (
	"repro/internal/obs"
)

// perLayerNames lists every per-layer metric, in BENCHMARK.json order. A
// traced run of any workload reports all of them; a layer the workload
// does not exercise reads 0.
var perLayerNames = []string{
	"heap.read_ns.p50", "heap.read_ns.p99", "heap.read.self_share",
	"heap.update_ns.p50", "heap.update_ns.p99", "heap.update.self_share",
	"heap.insert_ns.p50", "heap.insert_ns.p99", "heap.insert.self_share",
	"core.begin_ns.p50", "core.begin_ns.p99",
	"core.commit_ns.p50", "core.commit_ns.p99",
	"core.checkpoint_ns.p50", "core.checkpoint_ns.p99",
	"go.alloc_bytes_per_op", "go.gc_per_kop",
	"protect.precheck_regions_per_op", "region.folds_per_op", "region.fold_bytes_per_op",
	"protect.cw_captures_per_op", "protect.hw_exposes_per_op",
	"protect.latch_contended", "region.cwlatch_contended",
	"wal.append_bytes_per_op", "wal.flushes_per_txn", "wal.group_commit_records.mean",
	"wal.fsync_ns.p50", "wal.fsync_ns.p99", "wal.latch_contended",
	"lockmgr.acquires_per_op", "lockmgr.waits_per_txn", "lockmgr.wait_ns.p99",
	"lockmgr.timeouts", "lockmgr.cancels",
	"ckpt.bytes_written", "core.ckpt_total_ns.mean", "core.ckpt_audit_ns.mean",
	"recovery.open_ns", "recovery.records_scanned", "recovery.redo_applied",
	"shard.cross_commit_frac", "shard.twopc_commit_ns.p50", "shard.twopc_commit_ns.p99",
	"wire.get_ns.p50", "wire.get_ns.p99", "wire.put_ns.p50", "wire.put_ns.p99",
	"wire.commit_ns.p50", "wire.commit_ns.p99",
	"server.request_ns.p50", "server.request_ns.p99", "wire.transport_ns.mean",
	"txn.failed_frac",
	"txn.fail.deadline_lockwait_frac", "txn.fail.deadline_other_frac", "txn.fail.lock_timeout_frac",
	"txn.fail.remote_error_frac", "txn.fail.busy_frac",
	"trace.overhead_frac",
	"table2.baseline.ops_per_s", "table2.data_cw.ops_per_s", "table2.precheck_64.ops_per_s",
	"table2.readlog.ops_per_s", "table2.cw_readlog.ops_per_s", "table2.precheck_512.ops_per_s",
	"table2.hw.ops_per_s", "table2.precheck_8k.ops_per_s",
}

// layerInput is what a traced run hands the per-layer breakdown.
type layerInput struct {
	trace   *traceStats
	obs     obs.Snapshot // engine metrics over the measured window, summed over databases
	ckpt    obs.Snapshot // engine metrics over the checkpoints the run timed
	router  obs.Snapshot // router and server metrics (kv-wire)
	goStats goStats
	ops     int // committed record operations
	txns    int // committed transactions
	// attempts is the base of every failure ratio.
	attempts int
	fails    failCounts
	overhead float64 // 1 - traced/untraced throughput
	recovery *recoveryFacts
}

// recoveryFacts are the crash drill's recovery report counts.
type recoveryFacts struct {
	scanned, redone int
}

// histTail is an obs histogram's p99, or the highest percentile its count
// supports (see tailQuantile).
func histTail(h obs.HistogramSnapshot) float64 {
	return float64(h.Quantile(tailQuantile(int(h.Count), 0.99)))
}

// layerMetrics derives every per-layer metric from a traced run.
func layerMetrics(in layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayerNames))
	for _, n := range perLayerNames {
		m[n] = 0
	}
	spanDist := func(prefix string, k spanKind) {
		d := in.trace.dist(k)
		m[prefix+".p50"] = d.P50
		m[prefix+".p99"] = d.Tail
	}
	spanDist("heap.read_ns", spanHeapRead)
	spanDist("heap.update_ns", spanHeapUpdate)
	spanDist("heap.insert_ns", spanHeapInsert)
	m["heap.read.self_share"] = in.trace.selfShare(spanHeapRead, spanOp)
	m["heap.update.self_share"] = in.trace.selfShare(spanHeapUpdate, spanOp)
	m["heap.insert.self_share"] = in.trace.selfShare(spanHeapInsert, spanOp)
	spanDist("core.begin_ns", spanBegin)
	spanDist("core.commit_ns", spanCommit)
	spanDist("core.checkpoint_ns", spanCheckpoint)
	spanDist("wire.get_ns", spanWireGet)
	spanDist("wire.put_ns", spanWirePut)
	spanDist("wire.commit_ns", spanWireCommit)
	if d := in.trace.dist(spanRecovery); d.N > 0 {
		m["recovery.open_ns"] = d.P50
	}

	ops, txns := float64(in.ops), float64(in.txns)
	m["go.alloc_bytes_per_op"] = ratio(float64(in.goStats.allocBytes), ops)
	m["go.gc_per_kop"] = ratio(1000*float64(in.goStats.gcs), ops)

	c := func(name string) float64 { return float64(in.obs.Counter(name)) }
	m["protect.precheck_regions_per_op"] = ratio(c(obs.NamePrecheckRegions), ops)
	m["region.folds_per_op"] = ratio(c(obs.NameRegionFolds), ops)
	m["region.fold_bytes_per_op"] = ratio(c(obs.NameRegionFoldBytes), ops)
	m["protect.cw_captures_per_op"] = ratio(c(obs.NameCWCaptures), ops)
	m["protect.hw_exposes_per_op"] = ratio(c(obs.NameHWExposes), ops)
	m["protect.latch_contended"] = c(obs.NameProtLatchContends)
	m["region.cwlatch_contended"] = c(obs.NameRegionCWContends)
	m["wal.append_bytes_per_op"] = ratio(c(obs.NameWALAppendBytes), ops)
	m["wal.flushes_per_txn"] = ratio(c(obs.NameWALFlushes), txns)
	m["wal.group_commit_records.mean"] = in.obs.Histogram(obs.NameWALGroupCommit).Mean()
	fsync := in.obs.Histogram(obs.NameWALFsyncNS)
	m["wal.fsync_ns.p50"] = float64(fsync.Quantile(0.5))
	m["wal.fsync_ns.p99"] = histTail(fsync)
	m["wal.latch_contended"] = c(obs.NameWALLatchContends)
	m["lockmgr.acquires_per_op"] = ratio(c(obs.NameLockAcquires), ops)
	m["lockmgr.waits_per_txn"] = ratio(c(obs.NameLockWaits), float64(in.attempts))
	m["lockmgr.wait_ns.p99"] = histTail(in.obs.Histogram(obs.NameLockWaitNS))
	m["lockmgr.timeouts"] = c(obs.NameLockTimeouts)
	m["lockmgr.cancels"] = c(obs.NameLockCancels)
	m["ckpt.bytes_written"] = float64(in.ckpt.Counter(obs.NameCkptBytesWritten))
	m["core.ckpt_total_ns.mean"] = in.ckpt.Histogram(obs.NameCkptTotalNS).Mean()
	m["core.ckpt_audit_ns.mean"] = in.ckpt.Histogram(obs.NameCkptAuditNS).Mean()
	if in.recovery != nil {
		m["recovery.records_scanned"] = float64(in.recovery.scanned)
		m["recovery.redo_applied"] = float64(in.recovery.redone)
	}

	r := func(name string) float64 { return float64(in.router.Counter(name)) }
	m["shard.cross_commit_frac"] = ratio(r(obs.NameShardCrossCommits), r(obs.NameShardCrossCommits)+r(obs.NameShardFastpathCommits))
	twopc := in.router.Histogram(obs.NameShard2PCCommitNS)
	m["shard.twopc_commit_ns.p50"] = float64(twopc.Quantile(0.5))
	m["shard.twopc_commit_ns.p99"] = histTail(twopc)
	req := in.router.Histogram(obs.NameServerRequestNS)
	m["server.request_ns.p50"] = float64(req.Quantile(0.5))
	m["server.request_ns.p99"] = histTail(req)
	if req.Count > 0 {
		var client, n float64
		for _, k := range []spanKind{spanWireBegin, spanWireGet, spanWirePut, spanWireCommit} {
			client += in.trace.total(k)
			n += float64(len(in.trace.durs[k]))
		}
		// Client spans cover only the traced slices while the server
		// histogram covers every request, so compare means.
		m["wire.transport_ns.mean"] = ratio(client, n) - req.Mean()
	}

	attempts := float64(in.attempts)
	m["txn.failed_frac"] = ratio(float64(in.fails.total()), attempts)
	for i, name := range failNames {
		m["txn.fail."+name+"_frac"] = ratio(float64(in.fails[i]), attempts)
	}
	m["trace.overhead_frac"] = in.overhead
	return m
}
