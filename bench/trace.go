package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/server"
)

// span is one timed interval. Spans of one burst (or of one replay) share
// a group; a span's parent is the span that caused it (0 for a root).
type span struct {
	id, parent, group int64
	name              int // index into the trace's name table
	start, end        int64
}

// The five spans of a flush burst, outside in.
var burstSpanNames = []string{"client.burst", "client.encode", "client.flush", "client.wait", "client.drain"}

// connTrace holds one connection's burst spans in memory until the run
// ends; only its own goroutine appends.
type connTrace struct {
	idBase int64 // span ids are idBase+1, idBase+2, ...: unique across connections
	spans  []span
}

// tracer records the served half of a traced run.
type tracer struct {
	conns []*connTrace
}

func newTracer(bursts int) *tracer {
	tr := &tracer{}
	for i := 0; i < conns; i++ {
		tr.conns = append(tr.conns, &connTrace{idBase: int64(i+1) << 40, spans: make([]span, 0, 5*bursts)})
	}
	return tr
}

// burst records the five spans of one flush burst from its timestamps.
func (ct *connTrace) burst(t0, t1, t2, t3, t4 int64) {
	root := ct.idBase + int64(len(ct.spans)) + 1
	ct.spans = append(ct.spans,
		span{root, 0, root, 0, t0, t4},
		span{root + 1, root, root, 1, t0, t1},
		span{root + 2, root, root, 2, t1, t2},
		span{root + 3, root, root, 3, t2, t3},
		span{root + 4, root, root, 4, t3, t4})
}

// callStat aggregates every call of one replayed function.
type callStat struct {
	name    string
	nameIdx int
	parent  int64
	n       int64
	ns      int64
	timed   int64 // intervals ns was summed over: one clock read's cost each
}

// replaySampleEvery: a replay times every call but keeps one span in this
// many; a span per call would be tens of millions of lines.
const replaySampleEvery = 256

// recorder holds the layer replay's spans and call aggregates. The
// single-threaded replays use it from one goroutine only.
type recorder struct {
	names  []string
	spans  []span
	calls  []*callStat
	nextID int64
}

func newRecorder() *recorder {
	return &recorder{names: append([]string(nil), burstSpanNames...), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) nameIdx(name string) int {
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	r.names = append(r.names, name)
	return len(r.names) - 1
}

// begin opens a root span for one layer's replay; the returned func
// closes it.
func (r *recorder) begin(name string) (id int64, end func()) {
	r.nextID++
	id = r.nextID
	i := len(r.spans)
	r.spans = append(r.spans, span{id: id, group: id, name: r.nameIdx(name), start: nowNs()})
	return id, func() { r.spans[i].end = nowNs() }
}

// call registers a replayed function under the root span parent.
func (r *recorder) call(parent int64, name string) *callStat {
	cs := &callStat{name: name, nameIdx: r.nameIdx(name), parent: parent}
	r.calls = append(r.calls, cs)
	return cs
}

// observe records one call of cs that ran from t0 to t1.
func (r *recorder) observe(cs *callStat, t0, t1 int64) {
	cs.n++
	cs.timed++
	cs.ns += t1 - t0
	if cs.n%replaySampleEvery == 1 {
		r.nextID++
		r.spans = append(r.spans, span{r.nextID, cs.parent, cs.parent, cs.nameIdx, t0, t1})
	}
}

// observeBlock records n back-to-back calls of cs that ran from t0 to t1:
// calls of a few nanoseconds are timed a block at a time, since a clock
// read costs more than they do. Every block leaves a span.
func (r *recorder) observeBlock(cs *callStat, n int, t0, t1 int64) {
	if n == 0 {
		return
	}
	cs.n += int64(n)
	cs.timed++
	cs.ns += t1 - t0
	r.nextID++
	r.spans = append(r.spans, span{r.nextID, cs.parent, cs.parent, cs.nameIdx, t0, t1})
}

// traceFile is the JSON written to <outDir>/<workload>.trace.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Note     string   `json:"note"`
	Names    []string `json:"names"`
	// Spans are [id, parent, group, name index, start ns, end ns]; parent 0
	// marks a root. Times are nanoseconds since process start.
	Spans [][6]int64 `json:"spans"`
	// Calls aggregates every replayed call, sampled or not.
	Calls map[string]callJSON `json:"calls"`
	// Scrapes are the server's own counters at the start and the end of
	// the traced phase.
	MetricsStart json.RawMessage `json:"metrics_start"`
	MetricsEnd   json.RawMessage `json:"metrics_end"`
	ModelEnd     string          `json:"model_end"`
}

type callJSON struct {
	N  int64 `json:"n"`
	Ns int64 `json:"ns"`
}

func writeTrace(path string, tf *traceFile, tr *tracer, rec *recorder) error {
	tf.Names = rec.names
	tf.Calls = map[string]callJSON{}
	for _, cs := range rec.calls {
		tf.Calls[cs.name] = callJSON{cs.n, cs.ns}
	}
	add := func(ss []span) {
		for _, s := range ss {
			tf.Spans = append(tf.Spans, [6]int64{s.id, s.parent, s.group, int64(s.name), s.start, s.end})
		}
	}
	for _, ct := range tr.conns {
		add(ct.spans)
	}
	add(rec.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape is the part of /metrics?format=json the per-layer metrics use.
type scrape struct {
	Gets           int64   `json:"gets"`
	Puts           int64   `json:"puts"`
	Dels           int64   `json:"dels"`
	ScanPages      int64   `json:"scan_pages"`
	ScanKeys       int64   `json:"scan_keys"`
	OpMeanUs       float64 `json:"op_mean_us"`
	ReadRestarts   int64   `json:"read_restarts"`
	ReadFallbacks  int64   `json:"read_fallbacks"`
	SeqAppended    int64   `json:"seq_appended"`
	Fsyncs         int64   `json:"group_commit_fsyncs"`
	Checkpoints    int64   `json:"checkpoints"`
	CkptPauseMaxUs float64 `json:"ckpt_pause_max_us"`
	ShedOverload   int64   `json:"shed_overload"`
	ShedBusy       int64   `json:"shed_busy"`
	Levels         []struct {
		Level   int     `json:"level"`
		Root    bool    `json:"root"`
		MuW     float64 `json:"mu_w"`
		HoldWUs float64 `json:"hold_w_us"`
		WaitWUs float64 `json:"wait_w_us"`
		RhoW    float64 `json:"rho_w"`
	} `json:"levels"`
}

func (sc *scrape) ops() int64 { return sc.Gets + sc.Puts + sc.Dels + sc.ScanPages }

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeMetrics reads the server's JSON metrics. Each scrape closes the
// server's rate window, so the second of two scrapes reports rates and
// means over exactly the interval between them.
func (inst *instance) scrapeMetrics() (*scrape, json.RawMessage, error) {
	raw, err := httpGet(inst.httpURL + "/metrics?format=json")
	if err != nil {
		return nil, nil, err
	}
	sc := new(scrape)
	if err := json.Unmarshal(raw, sc); err != nil {
		return nil, nil, fmt.Errorf("/metrics: %w", err)
	}
	return sc, raw, nil
}

var (
	predObsRE = regexp.MustCompile(`pred/obs = ([0-9.eE+-]+)`)
	lambdaRE  = regexp.MustCompile(`(?m)^\s+(\S+)\s+λ_eff = (\S+)$`)
)

// modelNumbers pulls the paper's own check out of /debug/model: how far
// the queueing model's predicted response time is from the observed one
// (|pred/obs - 1|; 0 when the engine has no lock probe to evaluate), and
// the predicted λ at root ρ_w = .5 for the algorithm being served.
func modelNumbers(text, alg string) (gap, lambdaHalf float64) {
	if m := predObsRE.FindStringSubmatch(text); m != nil {
		if r, err := strconv.ParseFloat(m[1], 64); err == nil {
			gap = r - 1
			if gap < 0 {
				gap = -gap
			}
		}
	}
	for _, m := range lambdaRE.FindAllStringSubmatch(text, -1) {
		if m[1] == alg {
			lambdaHalf, _ = strconv.ParseFloat(m[2], 64)
		}
	}
	return gap, lambdaHalf
}

// ckptPoller samples whether an incremental checkpoint is walking, every
// 20 ms, for ckpt.busy_share. Traced runs only.
type ckptPoller struct {
	stop       chan struct{}
	done       sync.WaitGroup
	busy, seen atomic.Int64
}

func startCkptPoller(eng server.Engine) *ckptPoller {
	p := &ckptPoller{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.seen.Add(1)
				if eng.Stats().CkptChunksTotal > 0 {
					p.busy.Add(1)
				}
			}
		}
	}()
	return p
}

func (p *ckptPoller) share() float64 {
	close(p.stop)
	p.done.Wait()
	if p.seen.Load() == 0 {
		return 0
	}
	return float64(p.busy.Load()) / float64(p.seen.Load())
}

func tracePath(o options) string {
	return filepath.Join(o.outDir, o.sp.name+".trace.json")
}
