package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"

	"blinktree/internal/core"
	"blinktree/internal/obs"
	"blinktree/internal/server"
)

// snapshot is every counter that bounds a measured window. A window's
// counts are the difference of two snapshots: one taken after set-up and
// warm-up, one after the last measured operation.
type snapshot struct {
	tree core.TreeMetrics
	mem  runtime.MemStats
	// walBytes is the size of wal.log; zero for volatile trees.
	walBytes int64
	// io holds the storage and log-device decorator totals (traced runs).
	io map[string]spanAgg
	// srv holds the server's counters (wire workloads).
	srv *server.Stats
	// wireBytes is the bytes the wire clients moved.
	wireBytes int64
}

func takeSnapshot(m core.TreeMetrics, dir string, fileBacked bool) snapshot {
	s := snapshot{tree: m}
	runtime.ReadMemStats(&s.mem)
	if fileBacked {
		if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
			s.walBytes = fi.Size()
		}
	}
	return s
}

// window is what the derivation needs about one measured window: the two
// snapshots, the operations the clients completed and the benchmark's own
// span totals.
type window struct {
	before, after snapshot
	// counts holds completed operations by kind.
	counts [numKinds]int64
	// bench holds the benchmark's spans around layer calls (core, resp).
	bench map[string]spanAgg
	// records and scanNS are scanned records and their scans' time.
	records, scanNS int64
}

// layerMetric declares one per-layer metric: its unit, which direction is
// better, and the end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics lists the per-layer metrics, grouped by the module that
// owns the layer.
var layerMetrics = []layerMetric{
	{"core.optread_restarts_per_1k_gets", "count", "lower", "get_p99_us @ embedded-hot"},
	{"core.optread_fallbacks_per_1k_gets", "count", "lower", "get_p99_us @ embedded-hot"},
	{"core.side_traversals_per_1k_ops", "count", "lower", "get_p50_us @ embedded-hot"},
	{"core.traverse_restarts_per_1k_ops", "count", "lower", "put_p99_us @ embedded-hot"},
	{"core.splits_per_1k_puts", "count", "lower", "put_p99_us @ embedded-hot"},
	{"core.append_fast_hit_ratio", "ratio", "higher", "put_p50_us @ embedded-hot"},
	{"core.combine_publishes_per_1k_writes", "count", "lower", "put_p99_us @ embedded-hot"},
	{"core.combine_ops_per_batch", "count", "higher", "put_p99_us @ embedded-hot"},
	{"core.scan_ns_per_record", "ns", "lower", "scan_p50_us @ scan-evict"},
	{"core.allocs_per_op", "count", "lower", "ops_per_s @ embedded-hot, scan_p50_us @ scan-evict"},
	{"core.alloc_bytes_per_op", "B", "lower", "ops_per_s @ embedded-hot, scan_p50_us @ scan-evict"},
	{"core.height", "levels", "lower", "space_amp @ all"},
	{"core.leaf_fill", "ratio", "higher", "space_amp @ all"},

	{"todo.actions_per_1k_writes", "count", "lower", "put_p99_us @ embedded-hot"},
	{"todo.inline_assists_per_1k_writes", "count", "lower", "put_p99_us @ embedded-hot"},
	{"todo.queue_high_water", "count", "lower", "put_p99_us @ embedded-hot"},
	{"todo.post_abort_ratio", "ratio", "lower", "put_p99_us @ embedded-hot"},
	{"todo.delete_abort_ratio", "ratio", "lower", "space_amp @ embedded-hot"},
	{"todo.consolidations_per_1k_deletes", "count", "higher", "space_amp @ embedded-hot"},

	{"latch.acquires_per_op", "count", "lower", "get_p50_us @ embedded-hot"},
	{"stage.latch-s_ns_per_op", "ns", "lower", "get_p50_us @ embedded-hot"},
	{"latch.waits_per_1k_ops", "count", "lower", "put_p99_us, ops_per_s @ embedded-hot"},
	{"latch.wait_ns_per_op", "ns", "lower", "put_p99_us, ops_per_s @ embedded-hot"},
	{"latch.try_failures_per_1k_ops", "count", "lower", "put_p99_us, ops_per_s @ embedded-hot"},
	{"stage.latch-x_ns_per_op", "ns", "lower", "put_p99_us, ops_per_s @ embedded-hot"},

	{"stage.buf-fetch_ns_per_op", "ns", "lower", "get_p50_us @ embedded-hot"},
	{"buffer.hit_ratio", "ratio", "higher", "get_p50_us, ops_per_s @ scan-evict"},
	{"buffer.misses_per_op", "count", "lower", "get_p50_us, ops_per_s @ scan-evict"},
	{"stage.page-load_ns_per_op", "ns", "lower", "get_p50_us, ops_per_s @ scan-evict"},
	{"buffer.evictions_per_op", "count", "lower", "scan_p99_us @ scan-evict"},
	{"buffer.writebacks_per_op", "count", "lower", "put_p99_us @ scan-evict"},

	{"storage.reads_per_op", "count", "lower", "get_p50_us, scan_p50_us @ scan-evict"},
	{"storage.read_ns_per_call", "ns", "lower", "get_p50_us, scan_p50_us @ scan-evict"},
	{"storage.writes_per_op", "count", "lower", "put_p99_us @ scan-evict"},
	{"storage.write_ns_per_call", "ns", "lower", "put_p99_us @ scan-evict"},

	{"wal.appends_per_op", "count", "lower", "put_p50_us @ scan-evict"},
	{"wal.bytes_per_user_byte", "B/B", "lower", "put_p50_us @ scan-evict"},
	{"wal.syncs_per_1k_ops", "count", "lower", "put_p99_us, scan_p99_us @ scan-evict"},
	{"wal.sync_ns_per_call", "ns", "lower", "put_p99_us, scan_p99_us @ scan-evict"},
	{"wal.forces_per_commit", "count", "lower", "commit_p50_us @ net-txn"},
	{"stage.commit-force_ns_per_commit", "ns", "lower", "commit_p50_us @ net-txn"},
	{"stage.commit-park_ns_per_commit", "ns", "lower", "commit_p50_us @ net-txn"},
	{"stage.wal-append_ns_per_op", "ns", "lower", "commit_p50_us @ net-txn"},
	{"wal.forces_per_set", "count", "lower", "put_p50_us @ net-txn"},

	{"lock.grants_per_txn", "count", "lower", "commit_p99_us @ net-txn"},
	{"lock.waits_per_1k_txns", "count", "lower", "commit_p99_us @ net-txn"},
	{"lock.nowait_denials_per_1k_txns", "count", "lower", "commit_p99_us @ net-txn"},
	{"lock.deadlocks", "count", "lower", "commit_p99_us @ net-txn"},
	{"stage.lock-wait_ns_per_commit", "ns", "lower", "commit_p99_us @ net-txn"},

	{"resp.send_ns_per_cmd", "ns", "lower", "ops_per_s @ net-txn"},
	{"resp.bytes_per_op", "B", "lower", "ops_per_s @ net-txn"},
	{"resp.flush_ns_per_window", "ns", "lower", "get_p50_us @ net-txn"},

	{"server.exec_p50_us.GET", "us", "lower", "get_p50_us @ net-txn"},
	{"server.exec_p50_us.SET", "us", "lower", "put_p50_us @ net-txn"},
	{"server.exec_p50_us.COMMIT", "us", "lower", "commit_p50_us @ net-txn"},
	{"server.wire_us_per_cmd", "us", "lower", "get_p50_us @ net-txn"},
	{"server.pipeline_depth_avg", "count", "lower", "get_p99_us @ net-txn"},

	{"trace.overhead_pct", "%", "lower", "every metric @ its workload (traced vs untraced ops_per_s)"},
	{"stage.residual_pct", "%", "lower", "every latency @ its workload (call time no stage covers)"},
}

// per divides, giving zero for an empty base: a window with no
// operations reports zero for every per-operation count.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func per1k(a, b float64) float64 { return 1000 * per(a, b) }

// deltas returns the raw counter differences over the window, by name.
// The zero-operation self-test checks that all of them are zero.
func (w *window) deltas() map[string]float64 {
	b, a := w.before.tree, w.after.tree
	s0, s1 := b.Stats, a.Stats
	d := map[string]float64{}
	sub := func(name string, x, y uint64) { d[name] = float64(y - x) }
	sub("searches", s0.Searches, s1.Searches)
	sub("inserts", s0.Inserts, s1.Inserts)
	sub("updates", s0.Updates, s1.Updates)
	sub("deletes", s0.Deletes, s1.Deletes)
	sub("scans", s0.Scans, s1.Scans)
	sub("side_traversals", s0.SideTraversals, s1.SideTraversals)
	sub("restarts", s0.Restarts, s1.Restarts)
	sub("optread_restarts", s0.OptReadRestarts, s1.OptReadRestarts)
	sub("optread_fallbacks", s0.OptReadFallbacks, s1.OptReadFallbacks)
	sub("splits", s0.Splits, s1.Splits)
	sub("posts_done", s0.PostsDone, s1.PostsDone)
	sub("posts_duplicate", s0.PostsDuplicate, s1.PostsDuplicate)
	sub("posts_abort", s0.PostsAbortDX+s0.PostsAbortDD+s0.PostsAbortID, s1.PostsAbortDX+s1.PostsAbortDD+s1.PostsAbortID)
	sub("consolidations", s0.LeafConsolidated+s0.IndexConsolidated, s1.LeafConsolidated+s1.IndexConsolidated)
	sub("delete_abort", s0.DeleteAbortDX+s0.DeleteAbortID+s0.DeleteAbortEdge, s1.DeleteAbortDX+s1.DeleteAbortID+s1.DeleteAbortEdge)
	sub("delete_skip_fit", s0.DeleteSkipFit, s1.DeleteSkipFit)
	sub("todo_processed", s0.TodoProcessed, s1.TodoProcessed)
	sub("todo_inline_assists", s0.TodoInlineAssists, s1.TodoInlineAssists)
	sub("combine_publishes", s0.CombinePublishes, s1.CombinePublishes)
	sub("combine_drained", s0.CombineDrained, s1.CombineDrained)
	sub("combine_batches", s0.CombineBatches, s1.CombineBatches)
	sub("append_fast_hits", s0.AppendFastHits, s1.AppendFastHits)
	sub("latch_acquires", b.Latch.AcquireShared+b.Latch.AcquireUpdate+b.Latch.AcquireExclusive,
		a.Latch.AcquireShared+a.Latch.AcquireUpdate+a.Latch.AcquireExclusive)
	sub("latch_waits", b.Latch.Waits, a.Latch.Waits)
	sub("latch_wait_ns", b.Latch.WaitNanos, a.Latch.WaitNanos)
	sub("latch_try_failures", b.Latch.TryFailures, a.Latch.TryFailures)
	sub("pool_hits", b.Pool.Hits, a.Pool.Hits)
	sub("pool_misses", b.Pool.Misses, a.Pool.Misses)
	sub("pool_evictions", b.Pool.Evictions, a.Pool.Evictions)
	sub("pool_writebacks", b.Pool.WriteBacks, a.Pool.WriteBacks)
	sub("store_reads", b.Store.Reads, a.Store.Reads)
	sub("store_writes", b.Store.Writes, a.Store.Writes)
	sub("log_appends", b.LogAppends, a.LogAppends)
	sub("log_forces", b.LogForces, a.LogForces)
	sub("lock_grants", b.Locks.Grants, a.Locks.Grants)
	sub("lock_waits", b.Locks.Waits, a.Locks.Waits)
	sub("lock_nowait_denials", b.Locks.NoWaitDenials, a.Locks.NoWaitDenials)
	sub("lock_deadlocks", b.Locks.Deadlocks, a.Locks.Deadlocks)
	sub("mallocs", w.before.mem.Mallocs, w.after.mem.Mallocs)
	sub("alloc_bytes", w.before.mem.TotalAlloc, w.after.mem.TotalAlloc)
	d["wal_bytes"] = float64(w.after.walBytes - w.before.walBytes)
	d["wire_bytes"] = float64(w.after.wireBytes - w.before.wireBytes)
	if b.Obs != nil && a.Obs != nil {
		for st := obs.SpanStage(0); st < obs.StageCount; st++ {
			sub("stage_ns."+st.String(), b.Obs.SpanStages[st].Sum, a.Obs.SpanStages[st].Sum)
		}
		sub("log_flush_ns", b.Obs.LogFlush.Sum, a.Obs.LogFlush.Sum)
		sub("log_flush_n", b.Obs.LogFlush.Count, a.Obs.LogFlush.Count)
	}
	for k, x := range w.after.io {
		y := w.before.io[k]
		d["io_n."+k] = float64(x.N - y.N)
		d["io_ns."+k] = float64(x.NS - y.NS)
	}
	if w.before.srv != nil && w.after.srv != nil {
		sub("pipeline_depth_sum", w.before.srv.PipelineDepthSum, w.after.srv.PipelineDepthSum)
		sub("pipeline_depth_obs", w.before.srv.PipelineDepthObs, w.after.srv.PipelineDepthObs)
		for verb, h := range w.after.srv.VerbLatency {
			h0 := w.before.srv.VerbLatency[verb]
			sub("exec_n."+verb, h0.Count, h.Count)
			sub("exec_ns."+verb, h0.Sum, h.Sum)
		}
	}
	return d
}

// derive computes every windowed per-layer metric. Level metrics (height,
// leaf fill, queue high water) and the trace ledger's metrics are added by
// the caller.
func (w *window) derive() map[string]float64 {
	d := w.deltas()
	c := w.counts
	var ops float64
	for _, n := range c {
		ops += float64(n)
	}
	gets := float64(c[opGet])
	puts := float64(c[opPut] + c[opAppend] + txnPuts*c[opTxn])
	deletes := float64(c[opDelete])
	writes := puts + deletes
	txns := float64(c[opTxn])
	m := map[string]float64{}

	m["core.optread_restarts_per_1k_gets"] = per1k(d["optread_restarts"], gets)
	m["core.optread_fallbacks_per_1k_gets"] = per1k(d["optread_fallbacks"], gets)
	m["core.side_traversals_per_1k_ops"] = per1k(d["side_traversals"], ops)
	m["core.traverse_restarts_per_1k_ops"] = per1k(d["restarts"], ops)
	m["core.splits_per_1k_puts"] = per1k(d["splits"], puts)
	m["core.append_fast_hit_ratio"] = per(d["append_fast_hits"], float64(c[opAppend]))
	m["core.combine_publishes_per_1k_writes"] = per1k(d["combine_publishes"], writes)
	m["core.combine_ops_per_batch"] = per(d["combine_drained"], d["combine_batches"])
	m["core.scan_ns_per_record"] = per(float64(w.scanNS), float64(w.records))
	m["core.allocs_per_op"] = per(d["mallocs"], ops)
	m["core.alloc_bytes_per_op"] = per(d["alloc_bytes"], ops)

	m["todo.actions_per_1k_writes"] = per1k(d["todo_processed"], writes)
	m["todo.inline_assists_per_1k_writes"] = per1k(d["todo_inline_assists"], writes)
	m["todo.post_abort_ratio"] = per(d["posts_abort"], d["posts_done"]+d["posts_duplicate"]+d["posts_abort"])
	m["todo.delete_abort_ratio"] = per(d["delete_abort"], d["consolidations"]+d["delete_abort"]+d["delete_skip_fit"])
	m["todo.consolidations_per_1k_deletes"] = per1k(d["consolidations"], deletes)

	m["latch.acquires_per_op"] = per(d["latch_acquires"], ops)
	m["latch.waits_per_1k_ops"] = per1k(d["latch_waits"], ops)
	m["latch.wait_ns_per_op"] = per(d["latch_wait_ns"], ops)
	m["latch.try_failures_per_1k_ops"] = per1k(d["latch_try_failures"], ops)
	for _, st := range []string{"latch-s", "latch-x", "buf-fetch", "page-load", "wal-append"} {
		m["stage."+st+"_ns_per_op"] = per(d["stage_ns."+st], ops)
	}
	for _, st := range []string{"commit-force", "commit-park", "lock-wait"} {
		m["stage."+st+"_ns_per_commit"] = per(d["stage_ns."+st], txns)
	}

	m["buffer.hit_ratio"] = per(d["pool_hits"], d["pool_hits"]+d["pool_misses"])
	m["buffer.misses_per_op"] = per(d["pool_misses"], ops)
	m["buffer.evictions_per_op"] = per(d["pool_evictions"], ops)
	m["buffer.writebacks_per_op"] = per(d["pool_writebacks"], ops)

	// Storage and log-device figures come from the decorators where the
	// benchmark owns the store (embedded workloads), and from the tree's
	// own counters where the server owns it (wire workloads).
	if w.after.io != nil {
		m["storage.reads_per_op"] = per(d["io_n.storage.read"], ops)
		m["storage.read_ns_per_call"] = per(d["io_ns.storage.read"], d["io_n.storage.read"])
		m["storage.writes_per_op"] = per(d["io_n.storage.write"], ops)
		m["storage.write_ns_per_call"] = per(d["io_ns.storage.write"], d["io_n.storage.write"])
		m["wal.appends_per_op"] = per(d["io_n.wal.append"], ops)
		m["wal.syncs_per_1k_ops"] = per1k(d["io_n.wal.sync"], ops)
		m["wal.sync_ns_per_call"] = per(d["io_ns.wal.sync"], d["io_n.wal.sync"])
	} else {
		m["storage.reads_per_op"] = per(d["store_reads"], ops)
		m["storage.read_ns_per_call"] = 0
		m["storage.writes_per_op"] = per(d["store_writes"], ops)
		m["storage.write_ns_per_call"] = 0
		m["wal.appends_per_op"] = per(d["log_appends"], ops)
		m["wal.syncs_per_1k_ops"] = per1k(d["log_forces"], ops)
		m["wal.sync_ns_per_call"] = per(d["log_flush_ns"], d["log_flush_n"])
	}
	m["wal.bytes_per_user_byte"] = per(d["wal_bytes"], writes*(keyLen+valLen))
	m["wal.forces_per_commit"] = per(d["log_forces"], txns)
	// Forces beyond one per commit: none means a plain SET or Put is
	// acknowledged before its log record is durable.
	extra := d["log_forces"] - txns
	if extra < 0 {
		extra = 0
	}
	m["wal.forces_per_set"] = per(extra, float64(c[opPut]))

	m["lock.grants_per_txn"] = per(d["lock_grants"], txns)
	m["lock.waits_per_1k_txns"] = per1k(d["lock_waits"], txns)
	m["lock.nowait_denials_per_1k_txns"] = per1k(d["lock_nowait_denials"], txns)
	m["lock.deadlocks"] = d["lock_deadlocks"]

	sends, flushes := w.bench["resp.send"], w.bench["resp.flush"]
	m["resp.send_ns_per_cmd"] = per(float64(sends.NS), float64(sends.N))
	m["resp.bytes_per_op"] = per(d["wire_bytes"], ops)
	m["resp.flush_ns_per_window"] = per(float64(flushes.NS), float64(flushes.N))

	for _, verb := range []string{"GET", "SET", "COMMIT"} {
		m["server.exec_p50_us."+verb] = w.execQuantile(verb, 0.5) / 1e3
	}
	m["server.pipeline_depth_avg"] = per(d["pipeline_depth_sum"], d["pipeline_depth_obs"])
	return m
}

// execQuantile estimates a verb's server execution-time quantile in
// nanoseconds over the window, interpolating inside the power-of-two
// histogram bucket that holds it.
func (w *window) execQuantile(verb string, q float64) float64 {
	if w.before.srv == nil || w.after.srv == nil {
		return 0
	}
	h := w.after.srv.VerbLatency[verb].Delta(w.before.srv.VerbLatency[verb])
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			hi := float64(h.BucketBound(i))
			lo := 0.0
			if i > 0 {
				lo = float64(h.BucketBound(i - 1))
			}
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	return float64(h.BucketBound(len(h.Buckets) - 1))
}

// ledger reconciles the tree's own per-stage self-times with the
// benchmark-timed calls. callNS is the timed call time the stages should
// account for; the stage sum excludes "other", the tree's uninstrumented
// remainder, so residual_pct is the share of call time no named stage
// explains.
type ledger struct {
	callNS   float64
	stageNS  [obs.StageCount]float64
	residual float64
}

func (w *window) ledger(callNS float64) ledger {
	d := w.deltas()
	l := ledger{callNS: callNS}
	var named float64
	for st := obs.SpanStage(0); st < obs.StageCount; st++ {
		l.stageNS[st] = d["stage_ns."+st.String()]
		if st != obs.StageOther {
			named += l.stageNS[st]
		}
	}
	l.residual = 100 * per(callNS-named, callNS)
	return l
}

// benchOps maps the benchmark's core call names onto the tree's span
// operation classes, for the per-operation stage table.
var benchOps = []struct {
	name  string
	calls []string
	ops   []obs.Op
}{
	{"get", []string{"core.get"}, []obs.Op{obs.OpSearch}},
	{"put", []string{"core.put", "core.append", "core.txn-put"}, []obs.Op{obs.OpInsert, obs.OpUpdate}},
	{"delete", []string{"core.delete"}, []obs.Op{obs.OpDelete}},
	{"scan", []string{"core.scan"}, []obs.Op{obs.OpScan}},
	{"commit", []string{"core.commit"}, []obs.Op{obs.OpCommit}},
}

// writeStageTables prints, for each operation kind, the mean timed call
// (calls, keyed like the benchmark's core spans) beside the tree's exact
// mean span time over the window (its per-operation histograms), split
// into stages in the proportions of the tree's kept sampled spans (the
// most recent ones).
func (w *window) writeStageTables(out io.Writer, calls map[string]spanAgg, spans []obs.OpTrace) {
	b0, b1 := w.before.tree.Obs, w.after.tree.Obs
	if b0 == nil || b1 == nil {
		return
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "op\tcalls\tcall_ns\tspans\tspan_ns\t")
	for st := obs.SpanStage(0); st < obs.StageCount; st++ {
		fmt.Fprintf(tw, "%s\t", st)
	}
	fmt.Fprint(tw, "residual_pct\t\n")
	for _, b := range benchOps {
		var call spanAgg
		for _, c := range b.calls {
			a := calls[c]
			call.N += a.N
			call.NS += a.NS
		}
		if call.N == 0 {
			continue
		}
		var n, ns uint64
		for _, op := range b.ops {
			h := b1.Ops[op].Delta(b0.Ops[op])
			n += h.Count
			ns += h.Sum
		}
		var sampled float64
		var stages [obs.StageCount]float64
		for _, sp := range spans {
			if sp.Sampled && containsOp(b.ops, sp.Op) {
				sampled += float64(sp.Total)
				for st := range sp.Stages {
					stages[st] += float64(sp.Stages[st])
				}
			}
		}
		callMean := float64(call.NS) / float64(call.N)
		spanMean := per(float64(ns), float64(n))
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%.0f\t", b.name, call.N, callMean, n, spanMean)
		var named float64
		for st := obs.SpanStage(0); st < obs.StageCount; st++ {
			mean := spanMean * per(stages[st], sampled)
			if st != obs.StageOther {
				named += mean
			}
			fmt.Fprintf(tw, "%.0f\t", mean)
		}
		fmt.Fprintf(tw, "%.1f\t\n", 100*per(callMean-named, callMean))
	}
	tw.Flush()
}

func containsOp(ops []obs.Op, op obs.Op) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
