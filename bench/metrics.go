package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// tables (the driver reads that file, not this one); bench_test.go fails
// when the two disagree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share
	how    string  // estimator, printed in the report
}

// e2eMetrics are what a user of the served store sees. The bounds on the
// four timings are as wide as the driver allows because the sandbox itself
// drifts by 10-20 % over half an hour (NOISE.md); op_p99_us, which drifts
// most, is reported but not gated (client.op_p99_us in the traced run).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of 3 set-ups: server start + prefill + key pools + warm-up"},
	{"throughput_ops_s", "1/s", "higher", 0.25, "median over 30 op-count slices of ops completed / slice wall"},
	{"cpu_us_per_op", "us", "lower", 0.25, "median over 30 slices of getrusage user+sys / ops, load generator included"},
	{"op_p50_us", "us", "lower", 0.25, "median over 30 op-count slices of the slice's p50"},
	{"heap_mb", "MB", "lower", 0.03, "live heap (HeapAlloc) after two forced GCs, load generator state dropped"},
	{"store_b_per_key", "B", "lower", 0.03, "(live heap + bytes under the data dir after a clean close) / live keys"},
}

func e2eDef(name string) metricDef {
	for _, d := range e2eMetrics {
		if d.name == name {
			return d
		}
	}
	panic("no end-to-end metric " + name)
}

// layerMetrics are the per-layer numbers of the traced run, outside in.
var layerMetrics = []metricDef{
	// workload: the generator's share of the load generator's CPU.
	{name: "workload.gen_ns_per_op", unit: "ns", better: "lower"},
	// server: wire codec, batching, connection goroutines; seen from the
	// client's spans and the server's own counters.
	{name: "protocol.read_req_ns", unit: "ns", better: "lower"},
	{name: "protocol.append_resp_ns", unit: "ns", better: "lower"},
	{name: "protocol.allocs_per_op", unit: "count", better: "lower"},
	{name: "server.op_mean_us", unit: "us", better: "lower"},
	{name: "server.shed_share", unit: "share", better: "lower"},
	{name: "server.wire_queue_us", unit: "us", better: "lower"},
	{name: "client.encode_us", unit: "us", better: "lower"},
	{name: "client.flush_us", unit: "us", better: "lower"},
	{name: "client.wait_us", unit: "us", better: "lower"},
	{name: "client.drain_us", unit: "us", better: "lower"},
	{name: "client.op_p99_us", unit: "us", better: "lower"},
	{name: "client.op_p999_us", unit: "us", better: "lower"},
	{name: "client.op_max_us", unit: "us", better: "lower"},
	{name: "client.inflight_mean", unit: "count", better: "higher"},
	// cbtree: the in-memory tree.
	{name: "cbtree.search_ns", unit: "ns", better: "lower"},
	{name: "cbtree.insert_ns", unit: "ns", better: "lower"},
	{name: "cbtree.delete_ns", unit: "ns", better: "lower"},
	{name: "cbtree.range_ns_per_key", unit: "ns", better: "lower"},
	{name: "cbtree.alloc_b_per_insert", unit: "B", better: "lower"},
	{name: "cbtree.allocs_per_op", unit: "count", better: "lower"},
	{name: "cbtree.splits_per_kop", unit: "count", better: "lower"},
	{name: "cbtree.read_restarts_per_kop", unit: "count", better: "lower"},
	{name: "cbtree.read_fallbacks_per_kop", unit: "count", better: "lower"},
	{name: "cbtree.nodes_per_kkey", unit: "count", better: "lower"},
	{name: "cbtree.height", unit: "count", better: "lower"},
	{name: "cbtree.par2_ns_per_op", unit: "ns", better: "lower"},
	// lock: the FCFS and version locks, bare and as the served tree saw them.
	{name: "lock.fcfs_rlock_ns", unit: "ns", better: "lower"},
	{name: "lock.fcfs_wlock_ns", unit: "ns", better: "lower"},
	{name: "lock.version_read_ns", unit: "ns", better: "lower"},
	{name: "lock.root_rho_w", unit: "share", better: "lower"},
	{name: "lock.root_wait_w_us", unit: "us", better: "lower"},
	{name: "lock.leaf_hold_w_us", unit: "us", better: "lower"},
	{name: "lock.mu_w_leaf", unit: "1/s", better: "higher"},
	// query: scan fan-out, merge and continuation tokens.
	{name: "query.merge_ns_per_page", unit: "ns", better: "lower"},
	{name: "query.token_ns", unit: "ns", better: "lower"},
	{name: "query.allocs_per_page", unit: "count", better: "lower"},
	{name: "query.keys_per_page", unit: "count", better: "higher"},
	// diskbtree: the disk tree and its buffer pool, at a cache that holds
	// the tree (.fit) and at the workload's (.spill); checkpoints.
	{name: "diskbtree.search_us.fit", unit: "us", better: "lower"},
	{name: "diskbtree.search_us.spill", unit: "us", better: "lower"},
	{name: "diskbtree.insert_us.fit", unit: "us", better: "lower"},
	{name: "diskbtree.insert_us.spill", unit: "us", better: "lower"},
	{name: "diskbtree.delete_us.fit", unit: "us", better: "lower"},
	{name: "diskbtree.delete_us.spill", unit: "us", better: "lower"},
	{name: "diskbtree.pages_per_lookup", unit: "count", better: "lower"},
	{name: "cache.hit_ratio", unit: "share", better: "higher"},
	{name: "cache.evictions_per_kop", unit: "count", better: "lower"},
	{name: "ckpt.count", unit: "count", better: "higher"},
	{name: "ckpt.pause_max_us", unit: "us", better: "lower"},
	{name: "ckpt.busy_share", unit: "share", better: "lower"},
	// journal: the oplog and its group commit.
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.commit_us", unit: "us", better: "lower"},
	{name: "journal.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "journal.ops_per_fsync", unit: "count", better: "higher"},
	{name: "journal.bytes_per_op", unit: "B", better: "lower"},
	{name: "journal.fsyncs", unit: "count", better: "lower"},
	// pagestore: page file I/O.
	{name: "pagestore.read_us", unit: "us", better: "lower"},
	{name: "pagestore.write_us", unit: "us", better: "lower"},
	{name: "pagestore.reads_per_kop", unit: "count", better: "lower"},
	{name: "pagestore.writes_per_kop", unit: "count", better: "lower"},
	{name: "pagestore.write_amp", unit: "B/B", better: "lower"},
	// qmodel: the paper's own check on the live server.
	{name: "model.pred_obs_gap", unit: "share", better: "lower"},
	{name: "model.lambda_rho_half", unit: "1/s", better: "higher"},
	// Where cpu_us_per_op goes, and what tracing costs.
	{name: "cpu_share.workload", unit: "share", better: "lower"},
	{name: "cpu_share.client", unit: "share", better: "lower"},
	{name: "cpu_share.protocol", unit: "share", better: "lower"},
	{name: "cpu_share.cbtree", unit: "share", better: "lower"},
	{name: "cpu_share.query", unit: "share", better: "lower"},
	{name: "cpu_share.diskbtree", unit: "share", better: "lower"},
	{name: "cpu_share.journal", unit: "share", better: "lower"},
	{name: "cpu_share.pagestore", unit: "share", better: "lower"},
	{name: "cpu_share.other", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}
