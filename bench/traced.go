package main

import (
	"fmt"
	"sort"
	"strings"
)

// runTraced is the traced run: a quarter of the timed phase untraced,
// another quarter with client spans and server scrapes on, the usual
// output checks, then the layer replay. It reports every per-layer
// metric and writes the spans to <outDir>/<workload>.trace.json.
func runTraced(o options) (result, error) {
	sp := o.sp
	inst, err := setup(sp, o.seed, o.scale, o.outDir, true)
	if err != nil {
		return result{}, err
	}
	defer func() { inst.teardown() }()
	logf("inputs: stream_hash %s, warm-up %d ops", inst.streamHash, inst.warmupOps)

	ops := phaseOps(timedOpsFor(o) / 4)
	plain, err := inst.measure(ops, nil)
	if err != nil {
		return result{}, err
	}
	sc0, raw0, err := inst.scrapeMetrics()
	if err != nil {
		return result{}, err
	}
	if _, err := httpGet(inst.httpURL + "/debug/model"); err != nil { // opens the model's window
		return result{}, err
	}
	poller := startCkptPoller(inst.srv.Engine())
	tr := newTracer(ops / conns / burstSize)
	tm, err := inst.measure(ops, tr)
	busy := poller.share()
	if err != nil {
		return result{}, err
	}
	sc1, raw1, err := inst.scrapeMetrics()
	if err != nil {
		return result{}, err
	}
	model, err := httpGet(inst.httpURL + "/debug/model")
	if err != nil {
		return result{}, err
	}
	height := inst.srv.Engine().Height()
	algName := inst.srv.Engine().Algorithm()

	ck := new(checker)
	fin, err := inst.finish(ck, tm)
	if err != nil {
		return result{}, err
	}
	if err := inst.teardown(); err != nil {
		return result{}, err
	}

	rec := newRecorder()
	rp, err := newReplay(o, rec)
	if err != nil {
		return result{}, err
	}
	defer rp.close()
	if err := rp.run(); err != nil {
		return result{}, err
	}

	// Served half: client spans and the server's own counters over the
	// traced quarter.
	out := rp.out
	n := float64(tm.ops)
	bursts := float64(tm.bursts)
	dOps := float64(sc1.ops() - sc0.ops())
	thrPlain := float64(plain.ops) / float64(plain.wallNs)
	thrTraced := n / float64(tm.wallNs)
	out["trace.overhead_share"] = 1 - thrTraced/thrPlain
	out["client.encode_us"] = float64(tm.encNs) / bursts / 1e3
	out["client.flush_us"] = float64(tm.flushNs) / bursts / 1e3
	out["client.wait_us"] = float64(tm.waitNs) / bursts / 1e3
	out["client.drain_us"] = float64(tm.drainNs) / bursts / 1e3
	var p99s []float64
	for _, h := range tm.slices {
		p99s = append(p99s, h.quantile(0.99)/1e3)
	}
	out["client.op_p99_us"] = median(p99s)
	out["client.op_p999_us"] = tm.total.quantile(0.999) / 1e3
	out["client.op_max_us"] = tm.total.max() / 1e3
	out["client.inflight_mean"] = float64(tm.latNs) / float64(tm.wallNs)
	out["server.op_mean_us"] = sc1.OpMeanUs
	out["server.shed_share"] = float64(sc1.ShedOverload+sc1.ShedBusy-sc0.ShedOverload-sc0.ShedBusy) / max(dOps, 1)
	out["server.wire_queue_us"] = out["client.wait_us"] - sc1.OpMeanUs
	out["cbtree.read_restarts_per_kop"] = float64(sc1.ReadRestarts-sc0.ReadRestarts) / max(dOps, 1) * 1000
	out["cbtree.read_fallbacks_per_kop"] = float64(sc1.ReadFallbacks-sc0.ReadFallbacks) / max(dOps, 1) * 1000
	for _, lv := range sc1.Levels {
		if lv.Root {
			out["lock.root_rho_w"] = lv.RhoW
			out["lock.root_wait_w_us"] = lv.WaitWUs
		}
		if lv.Level == 1 {
			out["lock.leaf_hold_w_us"] = lv.HoldWUs
			out["lock.mu_w_leaf"] = lv.MuW
		}
	}
	fsyncs := float64(sc1.Fsyncs - sc0.Fsyncs)
	out["journal.fsyncs"] = fsyncs
	if fsyncs > 0 {
		out["journal.ops_per_fsync"] = float64(sc1.SeqAppended-sc0.SeqAppended) / fsyncs
	}
	out["ckpt.count"] = float64(sc1.Checkpoints - sc0.Checkpoints)
	out["ckpt.pause_max_us"] = sc1.CkptPauseMaxUs
	out["ckpt.busy_share"] = busy
	gap, lam := modelNumbers(string(model), modelAlgName(algName))
	out["model.pred_obs_gap"] = gap
	out["model.lambda_rho_half"] = lam

	// Attribution: what each layer's replayed cost, weighted by the traced
	// quarter's op mix, is as a share of the process's CPU per op.
	cpu := tm.cpuUs / n * 1e3 // ns per op
	gets, puts, dels := float64(sc1.Gets-sc0.Gets), float64(sc1.Puts-sc0.Puts), float64(sc1.Dels-sc0.Dels)
	pages, pageKeys := float64(sc1.ScanPages-sc0.ScanPages), float64(sc1.ScanKeys-sc0.ScanKeys)
	share := map[string]float64{
		"workload": out["workload.gen_ns_per_op"],
		"client":   max((float64(tm.encNs+tm.drainNs))/n-out["workload.gen_ns_per_op"], 0),
		"protocol": out["protocol.read_req_ns"] + out["protocol.append_resp_ns"],
	}
	if sp.disk {
		pageIO := (out["pagestore.reads_per_kop"]*out["pagestore.read_us"] + out["pagestore.writes_per_kop"]*out["pagestore.write_us"]) // ns per op: per-kop x us
		tree := (gets*out["diskbtree.search_us.spill"] + puts*out["diskbtree.insert_us.spill"] + dels*out["diskbtree.delete_us.spill"]) / max(dOps, 1) * 1e3
		share["pagestore"] = pageIO
		share["diskbtree"] = max(tree-pageIO, 0)
		share["journal"] = (puts + dels) * out["journal.cpu_us_per_op"] / max(dOps, 1) * 1e3
	} else {
		share["cbtree"] = (gets*out["cbtree.search_ns"] + puts*out["cbtree.insert_ns"] + dels*out["cbtree.delete_ns"] + pageKeys*out["cbtree.range_ns_per_key"]) / max(dOps, 1)
		share["query"] = pages * (out["query.merge_ns_per_page"] + out["query.token_ns"]) / max(dOps, 1)
	}
	var known float64
	for _, layer := range shareLayers {
		out["cpu_share."+layer] = share[layer] / cpu
		known += share[layer]
	}
	out["cpu_share.other"] = max(1-known/cpu, 0)

	tf := &traceFile{
		Workload:     sp.name,
		Seed:         o.seed,
		Note:         fmt.Sprintf("client.* spans: one group per flush burst of %d requests. replay.* spans: every call is counted in calls, one in %d is kept as a span.", burstSize, replaySampleEvery),
		MetricsStart: raw0,
		MetricsEnd:   raw1,
		ModelEnd:     string(model),
	}
	if err := writeTrace(tracePath(o), tf, tr, rec); err != nil {
		return result{}, err
	}

	logf("traced: %d ops in %.2f s traced, %d ops in %.2f s untraced; cpu %.3f us/op; tree height %d; spans in %s",
		tm.ops, float64(tm.wallNs)/1e9, plain.ops, float64(plain.wallNs)/1e9, cpu/1e3, height, tracePath(o))
	logf("replay: %d ops of the same stream, single-threaded; exact counts: %s", len(rp.merged), strings.Join(rp.counts, " "))
	res := result{Correct: ck.ok(), Attempted: fin.attempted, Failed: fin.failed, Metrics: map[string]value{}}
	for _, d := range layerMetrics {
		v, ok := out[d.name]
		if !ok {
			v = 0 // the layer is not on this workload's path
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		logf("layer %-30s %14.4f %s", d.name, v, d.unit)
	}
	var extra []string
	for name := range out {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("metrics computed but not declared in layerMetrics: %v", extra)
	}
	return res, nil
}

// shareLayers are the layers cpu_us_per_op is attributed to; the rest
// (syscalls, scheduling, batch dispatch, GC) is cpu_share.other.
var shareLayers = []string{"workload", "client", "protocol", "cbtree", "query", "diskbtree", "journal", "pagestore"}

// modelAlgName maps an engine's algorithm name onto /debug/model's
// forecast labels.
func modelAlgName(engineAlg string) string {
	switch engineAlg {
	case "olc":
		return "olc"
	case "lock-coupling":
		return "naive-lock-coupling"
	case "optimistic":
		return "optimistic-descent"
	default: // link-type, link-type(disk)
		return "link-type"
	}
}
