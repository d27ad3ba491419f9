package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The telemetry table. Every number /metrics reports is declared once, as
// a row of `telemetry`; the JSON document, the text lines, the merged
// view of a sharded server and its per-shard blocks are all derived from
// the rows. To add a metric: one counter constant (if it counts events),
// one row, and optionally one slot in a text template.

// place says which views of a document carry a metric: the top level (a
// lone shard's own values, or the merged view of several), and each
// shard's block of a multi-shard document.
type place uint8

const (
	top place = 1 << iota
	block
)

// rule is how the shards' readings of a metric become the top level's.
type rule uint8

const (
	unmerged rule = iota // block-only rows
	sumOf                // counts and rates: the load the server as a whole carried
	// Heights, windows and pauses — and a utilization is never summed: N
	// roots at ρ_w = .3 are not one root at 1.2, and the model's question
	// is whether any one root is saturated.
	maxOf
	anyOf      // flags
	pooled     // read from the shards' pooled scrape (see pool): quantiles and means do not fold value by value
	serverWide // not per shard at all: read from the capture
)

// metric is one row: a JSON key (text templates use the same name), the
// views it appears in, its merge rule, and how to read it — from one
// shard's scrape, or from the capture when it is serverWide. Readers
// return int64, float64, bool, string or anything json.Marshal renders;
// nil omits the key.
type metric struct {
	name  string
	in    place
	merge rule
	shard func(*shardScrape) any
	whole func(*capture) any
}

func count(name string, in place, c counter) metric {
	return metric{name, in, sumOf, func(sc *shardScrape) any { return sc.ctr[c] }, nil}
}

func stat(name string, in place, r rule, read func(*shardScrape) any) metric {
	return metric{name, in, r, read, nil}
}

func wide(name string, read func(*capture) any) metric {
	return metric{name, top, serverWide, nil, read}
}

func govName(g GovStatus) string {
	if g.Disabled {
		return "disabled"
	}
	return g.State.String()
}

func nsUs(ns int64) float64 { return float64(ns) / 1e3 } // nanoseconds as µs

// telemetry is in the JSON documents' key order. root_rho_w and saturated
// appear twice because a block reports them after the OLC read counters
// and the top level before, and root_rho_w means the measured gauge in a
// block (beside model_rho_w) but the worse of the two at the top.
var telemetry = []metric{
	wide("uptime_s", func(c *capture) any { return c.uptime }),
	wide("algorithm", func(c *capture) any { return c.algorithm }),
	wide("capacity", func(c *capture) any { return c.capacity }),
	wide("shards", func(c *capture) any { return int64(len(c.shards)) }),
	stat("shard", block, unmerged, func(sc *shardScrape) any { return int64(sc.id) }),
	stat("keys", top|block, sumOf, func(sc *shardScrape) any { return sc.keys }),
	stat("height", top|block, maxOf, func(sc *shardScrape) any { return int64(sc.height) }),
	wide("connections", func(c *capture) any { return c.conns }),
	stat("window_s", top|block, maxOf, func(sc *shardScrape) any { return sc.win.Dt }),
	stat("ops_per_sec", top|block, sumOf, func(sc *shardScrape) any { return sc.win.OpRate }),
	count("gets", top|block, cGets),
	count("puts", top|block, cPuts),
	count("dels", top|block, cDels),
	// Malformed frames are counted per connection, bad ops per shard.
	wide("bad_requests", func(c *capture) any { return c.badFrames + c.total(cBad) }),
	// The share of the window the lock probes listened (over all shards):
	// what the per-level figures were taken over. At 0 the window has no
	// lock sample and they are absent.
	stat("measured_share", top, pooled, func(sc *shardScrape) any {
		if sc.win.Dt <= 0 {
			return 0.0
		}
		return sc.win.Measured / sc.win.Dt
	}),
	// Query traffic: pages served (a scan of k pages counts k), entries
	// returned on those pages, and — when the server runs the secondary
	// index — lookup pages, lookup entries, and the index's current size.
	count("scan_pages", top|block, cScans),
	count("scan_keys", top|block, cScanKeys),
	count("seeks", top|block, cSeeks),
	count("lookup_pages", top|block, cLookups),
	count("lookup_keys", top|block, cLookupKeys),
	wide("indexed", func(c *capture) any { return c.indexed }),
	stat("index_keys", top, sumOf, func(sc *shardScrape) any { return sc.indexKeys }),
	stat("op_mean_us", top|block, pooled, func(sc *shardScrape) any { return sc.win.ObsMeanNs / 1e3 }),
	// Served op tails are quantiles of per-batch means: ObserveN puts a
	// batch's ops in the bucket of their mean, so the mean above is
	// exact and these are batch-smoothed.
	stat("op_p50_us", top|block, pooled, func(sc *shardScrape) any { return nsUs(sc.win.OpHist.Quantile(0.5)) }),
	stat("op_p99_us", top|block, pooled, func(sc *shardScrape) any { return nsUs(sc.win.OpHist.Quantile(0.99)) }),
	stat("splits", top|block, sumOf, func(sc *shardScrape) any { return sc.es.Splits }),
	stat("lends", top|block, sumOf, func(sc *shardScrape) any { return sc.es.Lends }),
	stat("restarts", top|block, sumOf, func(sc *shardScrape) any { return sc.es.Restarts }),
	stat("crossings", top|block, sumOf, func(sc *shardScrape) any { return sc.es.Crossings }),
	stat("root_rho_w", top, pooled, func(sc *shardScrape) any { return sc.rho(max(sc.rhoMeas, sc.rhoModel)) }),
	stat("saturated", top, anyOf, func(sc *shardScrape) any { return sc.saturated }),
	// OLC latch-free read telemetry; zero under the locking algorithms.
	stat("read_restarts", top|block, sumOf, func(sc *shardScrape) any { return sc.es.ReadRestarts }),
	stat("read_fallbacks", top|block, sumOf, func(sc *shardScrape) any { return sc.es.ReadFallbacks }),
	stat("stale_hints", top|block, sumOf, func(sc *shardScrape) any { return sc.es.StaleHints }),
	stat("root_rho_w", block, unmerged, func(sc *shardScrape) any { return sc.rho(sc.rhoMeas) }),
	stat("model_rho_w", block, unmerged, func(sc *shardScrape) any { return sc.rho(sc.rhoModel) }),
	stat("saturated", block, unmerged, func(sc *shardScrape) any { return sc.saturated }),
	wide("engine", func(c *capture) any { return c.engine }),
	stat("poisoned", top|block, anyOf, func(sc *shardScrape) any { return sc.poisoned }),
	stat("recovered_ops", top, sumOf, func(sc *shardScrape) any { return sc.es.Recovered }),
	stat("oplog_appended", top, sumOf, func(sc *shardScrape) any { return sc.es.Appended }),
	stat("oplog_synced", top, sumOf, func(sc *shardScrape) any { return sc.es.Synced }),
	stat("oplog_bytes", top, sumOf, func(sc *shardScrape) any { return sc.es.OplogBytes }),
	stat("group_commit_fsyncs", top, sumOf, func(sc *shardScrape) any { return sc.es.Fsyncs }),
	stat("checkpoints", top, sumOf, func(sc *shardScrape) any { return sc.es.Checkpoints }),
	stat("checkpoint_lag", top, sumOf, func(sc *shardScrape) any { return sc.es.CheckpointLag }),
	stat("ckpt_fails", top, sumOf, func(sc *shardScrape) any { return sc.es.CheckpointFails }),
	// The commit pipeline (durable shards): groups the committer synced
	// and the mutating batches in them — their ratio is batches per fsync —
	// and what the pipeline cost such a batch, hand-off → release. The op_*
	// rows above still run pickup → release, so they include it.
	count("commit_groups", top, cCommitGroups),
	count("commit_batches", top, cCommitBatches),
	stat("commit_wait_mean_us", top, pooled, func(sc *shardScrape) any { return sc.win.CommitWaitMeanNs / 1e3 }),
	stat("commit_wait_p99_us", top, pooled, func(sc *shardScrape) any { return nsUs(sc.win.CommitWaitHist.Quantile(0.99)) }),
	// The oplog's fsyncs in the window, each call to return; the max is
	// the bucket of the slowest (within 1/16).
	stat("oplog_fsyncs", top, pooled, func(sc *shardScrape) any { return sc.win.FsyncHist.N() }),
	stat("oplog_fsync_mean_us", top, pooled, func(sc *shardScrape) any { return sc.win.FsyncHist.Mean() / 1e3 }),
	stat("oplog_fsync_p99_us", top, pooled, func(sc *shardScrape) any { return nsUs(sc.win.FsyncHist.Quantile(0.99)) }),
	stat("oplog_fsync_max_us", top, pooled, func(sc *shardScrape) any { return nsUs(sc.win.FsyncHist.Quantile(1)) }),
	count("commit_fails", top|block, cCommitFails),
	count("unavail", top|block, cUnavail),
	// Sequence positions are summed at the top (each shard's own is its
	// block's seq, and on /healthz); retention is what the oplog holds for
	// lagging followers; the checkpoint pause is how long a checkpoint's
	// cut held writers and its trim held commits, the worst shard's, and its
	// chunks are the pages it writes.
	stat("seq_appended", top, sumOf, func(sc *shardScrape) any { return sc.es.SeqAppended }),
	stat("seq_durable", top, sumOf, func(sc *shardScrape) any { return sc.es.SeqDurable }),
	stat("seq_lowest", top, sumOf, func(sc *shardScrape) any { return sc.es.SeqLowest }),
	stat("retained_segments", top, sumOf, func(sc *shardScrape) any { return sc.es.RetainedSegs }),
	stat("retained_bytes", top, sumOf, func(sc *shardScrape) any { return sc.es.RetainedBytes }),
	stat("ckpt_pause_last_us", top, maxOf, func(sc *shardScrape) any { return nsUs(sc.es.CkptPauseLastNs) }),
	stat("ckpt_pause_max_us", top, maxOf, func(sc *shardScrape) any { return nsUs(sc.es.CkptPauseMaxNs) }),
	stat("ckpt_write_last_us", top, maxOf, func(sc *shardScrape) any { return nsUs(sc.es.CkptWriteLastNs) }),
	stat("ckpt_sync_last_us", top, maxOf, func(sc *shardScrape) any { return nsUs(sc.es.CkptSyncLastNs) }),
	stat("ckpt_chunks_done", top, sumOf, func(sc *shardScrape) any { return sc.es.CkptChunksDone }),
	stat("ckpt_chunks_total", top, sumOf, func(sc *shardScrape) any { return sc.es.CkptChunksTotal }),
	// The tree files' length in slots — a running high-water mark, which
	// only a clean close's compaction lowers — and the free slots in it.
	stat("store_slots", top, sumOf, func(sc *shardScrape) any { return sc.es.StoreSlots }),
	stat("store_free_slots", top, sumOf, func(sc *shardScrape) any { return sc.es.StoreFreeSlots }),
	wide("replication", func(c *capture) any {
		if c.repl == nil {
			return nil // present only on a leader or follower
		}
		return c.repl
	}),
	stat("governor", top|block, pooled, func(sc *shardScrape) any { return govName(sc.gov) }),
	stat("governor_rho_w", top|block, pooled, func(sc *shardScrape) any { return sc.gov.RootRhoW }),
	stat("governor_threshold", top, pooled, func(sc *shardScrape) any { return sc.gov.Rho }),
	stat("governor_exit", top, pooled, func(sc *shardScrape) any { return sc.gov.ExitRho }),
	stat("governor_transitions", top, pooled, func(sc *shardScrape) any { return sc.gov.Transitions }),
	count("shed_overload", top|block, cShedOverload),
	stat("conn_rejects", top, pooled, func(sc *shardScrape) any { return sc.gov.ConnRejects }),
	wide("read_timeouts", func(c *capture) any { return c.readTimeouts }),
	wide("write_timeouts", func(c *capture) any { return c.writeTimeouts }),
	stat("seq", block, unmerged, func(sc *shardScrape) any { return sc.seq }),
	stat("levels", top|block, pooled, func(sc *shardScrape) any { return sc.levels }),
}

// The text layout: each {name} or {name:verb} slot is the view's value of
// that metric, printed with %v or %verb.
const (
	headerLine = "btserved uptime_s={uptime_s:.1f} algorithm={algorithm} cap={capacity} keys={keys} height={height} conns={connections}"
	shardLine  = "shard={shard} keys={keys} height={height} rate={ops_per_sec:.0f} root_rho_w={root_rho_w} model_rho_w={model_rho_w} saturated={saturated} governor={governor} poisoned={poisoned} shed_overload={shed_overload} commit_fails={commit_fails} unavail={unavail} seq={seq}\n"
)

var summaryLines = []string{
	"ops window_s={window_s:.2f} rate={ops_per_sec:.0f} gets={gets} puts={puts} dels={dels} bad={bad_requests} measured_share={measured_share:.4f}\n",
	"query scan_pages={scan_pages} scan_keys={scan_keys} seeks={seeks} lookup_pages={lookup_pages} lookup_keys={lookup_keys} indexed={indexed} index_keys={index_keys}\n",
	"op_latency_us mean={op_mean_us:.1f} p50={op_p50_us:.1f} p99={op_p99_us:.1f}\n",
	"tree splits={splits} lends={lends} restarts={restarts} crossings={crossings} read_restarts={read_restarts} read_fallbacks={read_fallbacks} stale_hints={stale_hints}\n",
	"engine kind={engine} poisoned={poisoned} recovered={recovered_ops} oplog_appended={oplog_appended} oplog_synced={oplog_synced} oplog_bytes={oplog_bytes} fsyncs={group_commit_fsyncs} checkpoints={checkpoints} checkpoint_lag={checkpoint_lag} ckpt_fails={ckpt_fails} commit_fails={commit_fails} unavail={unavail}\n",
	"commit groups={commit_groups} batches={commit_batches} wait_mean_us={commit_wait_mean_us:.1f} wait_p99_us={commit_wait_p99_us:.1f}\n",
	"oplog_fsync count={oplog_fsyncs} mean_us={oplog_fsync_mean_us:.1f} p99_us={oplog_fsync_p99_us:.1f} max_us={oplog_fsync_max_us:.1f}\n",
	"checkpoint pause_last_us={ckpt_pause_last_us:.1f} pause_max_us={ckpt_pause_max_us:.1f} write_last_us={ckpt_write_last_us:.1f} sync_last_us={ckpt_sync_last_us:.1f} chunks_done={ckpt_chunks_done} chunks_total={ckpt_chunks_total} behind={checkpoint_lag} store_slots={store_slots} store_free_slots={store_free_slots}\n",
	"seqs appended={seq_appended} durable={seq_durable} lowest={seq_lowest} retained_segments={retained_segments} retained_bytes={retained_bytes}\n",
}

var closingLines = []string{
	"governor state={governor} rho_w={governor_rho_w:.4f} threshold={governor_threshold:.2f} exit={governor_exit:.2f} transitions={governor_transitions} shed_overload={shed_overload} conn_rejects={conn_rejects} read_timeouts={read_timeouts} write_timeouts={write_timeouts}\n",
	fmt.Sprintf("saturation root_rho_w={root_rho_w} threshold=%.2f saturated={saturated}\n", SaturationRho),
}

// total sums one counter over the capture's shards.
func (c *capture) total(k counter) (n int64) {
	for i := range c.shards {
		n += c.shards[i].ctr[k]
	}
	return n
}

// pool folds the shards' scrapes into the one the top level's pooled rows
// read: histograms added, the mean op-weighted, governors merged, the
// hottest measured and model root ρ_w, and the per-level rows merged by
// mergeLevels. Its window's Dt is the sum — shard-seconds, what Measured
// is a share of; the document's window_s is the max and is not read from
// here.
func pool(shards []shardScrape) *shardScrape {
	p := &shardScrape{gov: shards[0].gov, levels: mergeLevels(shards)}
	var opNs, commitNs float64
	for i, sc := range shards {
		p.win.Dt += sc.win.Dt
		p.win.Measured += sc.win.Measured
		p.win.Ops += sc.win.Ops
		opNs += sc.win.ObsMeanNs * float64(sc.win.Ops)
		p.win.OpHist = p.win.OpHist.Add(sc.win.OpHist)
		commitNs += sc.win.CommitWaitMeanNs * float64(sc.win.CommitWaitHist.N())
		p.win.CommitWaitHist = p.win.CommitWaitHist.Add(sc.win.CommitWaitHist)
		p.win.FsyncHist = p.win.FsyncHist.Add(sc.win.FsyncHist)
		p.rhoMeas, p.rhoModel = max(p.rhoMeas, sc.rhoMeas), max(p.rhoModel, sc.rhoModel)
		if i > 0 {
			p.gov.merge(sc.gov)
		}
	}
	if p.win.Ops > 0 {
		p.win.ObsMeanNs = opNs / float64(p.win.Ops)
	}
	if n := p.win.CommitWaitHist.N(); n > 0 {
		p.win.CommitWaitMeanNs = commitNs / float64(n)
	}
	return p
}

// fold adds one shard's reading v to the running merge acc (nil before
// the first shard: sums and maxima start from zero).
func fold(r rule, acc, v any) any {
	switch v := v.(type) {
	case int64:
		return foldNum(r, acc, v)
	case float64:
		return foldNum(r, acc, v)
	}
	a, _ := acc.(bool)
	return a || v.(bool)
}

func foldNum[T int64 | float64](r rule, acc any, v T) T {
	a, _ := acc.(T)
	if r == sumOf {
		return a + v
	}
	return max(a, v)
}

// values reads the table for one view, row by row: a shard's own block,
// or with sc nil the top level, merged over every shard by each row's
// rule. A row that is not in the view, or has nothing to say, is nil.
func (c *capture) values(sc *shardScrape) []any {
	in := block
	if sc == nil {
		in, sc = top, pool(c.shards)
	}
	vals := make([]any, len(telemetry))
	for i, m := range telemetry {
		switch {
		case m.in&in == 0:
		case m.merge == serverWide:
			vals[i] = m.whole(c)
		case in == block || m.merge == pooled:
			vals[i] = m.shard(sc)
		default:
			for j := range c.shards {
				vals[i] = fold(m.merge, vals[i], m.shard(&c.shards[j]))
			}
		}
	}
	return vals
}

// get finds a metric by name among a view's values.
func get(vals []any, name string) any {
	for i, m := range telemetry {
		if m.name == name && vals[i] != nil {
			return vals[i]
		}
	}
	panic("telemetry: no metric " + name + " in this view")
}

// appendJSON appends a view's values as a JSON object in table order,
// left open for the caller to extend or close. Every value goes through
// json.Marshal, so numbers are formatted exactly as a struct's fields
// would be; one that JSON cannot carry (NaN, ±Inf) is null.
func appendJSON(b []byte, vals []any) []byte {
	b = append(b, '{')
	for i, val := range vals {
		if val == nil {
			continue
		}
		enc, err := json.Marshal(val)
		if err != nil {
			enc = []byte("null")
		}
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), telemetry[i].name...), `":`...)
		b = append(b, enc...)
	}
	return b
}

// writeJSON renders the ?format=json document. On a multi-shard server
// shard_blocks carries each shard's own block under the merged top level;
// a single-shard server reports its one shard at the top level, with no
// blocks, exactly as before sharding.
func (c *capture) writeJSON(w io.Writer) error {
	b := appendJSON(nil, c.values(nil))
	if len(c.shards) > 1 {
		b = append(b, `,"shard_blocks":[`...)
		for i := range c.shards {
			b = append(appendJSON(b, c.values(&c.shards[i])), "},"...)
		}
		b[len(b)-1] = ']'
	}
	_, err := w.Write(append(b, "}\n"...))
	return err
}

// expand appends tmpl with each {name} slot replaced by the view's value
// of that metric, printed with %v, or with %verb for {name:verb}.
func expand(b []byte, tmpl string, vals []any) []byte {
	for {
		lit, rest, more := strings.Cut(tmpl, "{")
		b = append(b, lit...)
		if !more {
			return b
		}
		var slot string
		slot, tmpl, _ = strings.Cut(rest, "}")
		name, verb, _ := strings.Cut(slot, ":")
		b = fmt.Appendf(b, "%"+cmp.Or(verb, "v"), get(vals, name))
	}
}

// writeText renders the line-oriented form of the same document.
func (c *capture) writeText(w io.Writer) error {
	vals := c.values(nil)
	b := expand(nil, headerLine, vals)
	if len(c.shards) > 1 {
		b = expand(b, " shards={shards}", vals)
	}
	b = append(b, '\n')
	for _, l := range summaryLines {
		b = expand(b, l, vals)
	}
	if rp := c.repl; rp != nil && rp.Role == "leader" {
		b = fmt.Appendf(b, "replication role=leader epoch=%d acks=%d ack_timeouts=%d ops_shipped=%d bytes_shipped=%d acks_received=%d snapshots=%d evictions=%d followers=%d\n",
			rp.Epoch, rp.Acks, rp.AckTimeouts, rp.OpsShipped, rp.BytesShipped,
			rp.AcksRecv, rp.Snapshots, rp.Evictions, len(rp.Followers))
		for _, f := range rp.Followers {
			b = fmt.Appendf(b, "follower id=%d addr=%s connected=%v acked=%v lag_seqs=%d lag_bytes=%d\n",
				f.ID, f.Addr, f.Connected, f.Acked, f.LagSeqs, f.LagBytes)
		}
	} else if rp != nil {
		b = fmt.Appendf(b, "replication role=follower epoch=%d connected=%v applied=%v heads=%v lag_seqs=%d ops_applied=%d snapshots=%d reconnects=%d not_leader=%d lagging=%d\n",
			rp.Epoch, rp.Connected, rp.Applied, rp.Heads, rp.LagSeqs,
			rp.OpsApplied, rp.Snapshots, rp.Reconnects, rp.NotLeader, rp.Lagging)
	}
	if len(c.shards) > 1 {
		// Per-shard ρ_w gauges: one line per shard with its own root
		// utilization, model prediction, governor, and shed counters.
		for i := range c.shards {
			b = expand(b, shardLine, c.values(&c.shards[i]))
		}
	}
	olc := get(vals, "read_restarts").(int64) > 0 || get(vals, "read_fallbacks").(int64) > 0
	for _, l := range get(vals, "levels").([]levelMetricsJSON) {
		b = l.appendText(b, olc)
	}
	for _, l := range closingLines {
		b = expand(b, l, vals)
	}
	if get(vals, "saturated").(bool) {
		b = fmt.Appendf(b, "WARNING: root writer utilization rho_w >= %.2f — the tree is past the paper's effective maximum arrival rate (§6, rules of thumb 1–4)\n", SaturationRho)
	}
	_, err := w.Write(b)
	return err
}
