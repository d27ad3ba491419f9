package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"btreeperf/internal/cbtree"
)

// scrapedMetrics is the part of /metrics?format=json the tests read back.
type scrapedMetrics struct {
	Shards        int                `json:"shards"`
	Keys          int                `json:"keys"`
	WindowS       float64            `json:"window_s"`
	Gets          int64              `json:"gets"`
	Puts          int64              `json:"puts"`
	Dels          int64              `json:"dels"`
	MeasuredShare float64            `json:"measured_share"`
	Levels        []levelMetricsJSON `json:"levels"`
	ShardBlocks   []struct {
		Shard  int                `json:"shard"`
		Keys   int                `json:"keys"`
		Gets   int64              `json:"gets"`
		Puts   int64              `json:"puts"`
		Levels []levelMetricsJSON `json:"levels"`
	} `json:"shard_blocks"`
}

// notInTable are the counters no table row reports, and where they go.
var notInTable = map[counter]string{
	cPings:       "counted as ops only",
	cNotLeader:   "replication block",
	cLagging:     "replication block",
	cAckTimeouts: "replication block",
}

var slotRE = regexp.MustCompile(`\{(\w+)(?::([^}]+))?\}`)

func allTemplates() []string {
	return append(append([]string{headerLine + " shards={shards}", shardLine}, summaryLines...), closingLines...)
}

// TestEveryCounterHasOneRow pins the table's bookkeeping: a counter is
// reported by exactly one row (or is listed above), a name is used once
// per view, and every slot of every text template names a row.
func TestEveryCounterHasOneRow(t *testing.T) {
	// A capture whose every counter holds a value nothing else does.
	probe := &capture{shards: []shardScrape{{}}}
	for c := range probe.shards[0].ctr {
		probe.shards[0].ctr[c] = 1<<40 + int64(c)
	}
	// The two windowed means, likewise (as µs: what their rows report).
	const opMeanUs, commitWaitMeanUs = float64(1<<41 + 1), float64(1<<41 + 2)
	probe.shards[0].win.Ops = 1
	probe.shards[0].win.ObsMeanNs = opMeanUs * 1e3
	probe.shards[0].win.CommitWaitMeanNs = commitWaitMeanUs * 1e3
	probe.shards[0].win.CommitWaitHist.Buckets[12] = 1
	rows := map[float64]int{}
	names := map[place]map[string]bool{top: {}, block: {}}
	for i, m := range telemetry {
		if (m.merge == serverWide) != (m.whole != nil) || (m.whole == nil) == (m.shard == nil) {
			t.Errorf("row %s: merge rule %d does not match its readers", m.name, m.merge)
		}
		for _, p := range []place{top, block} {
			if m.in&p == 0 {
				continue
			}
			if names[p][m.name] {
				t.Errorf("name %s appears twice in view %d", m.name, p)
			}
			names[p][m.name] = true
		}
		vals := probe.values(nil)
		if m.in == block {
			vals = probe.values(&probe.shards[0])
		}
		switch n := vals[i].(type) {
		case int64:
			rows[float64(n)]++
		case float64:
			rows[n]++
		}
	}
	for c, v := range probe.shards[0].ctr {
		want := 1
		if notInTable[counter(c)] != "" {
			want = 0
		}
		if rows[float64(v)] != want {
			t.Errorf("counter %d is reported by %d rows, want %d", c, rows[float64(v)], want)
		}
	}
	for name, v := range map[string]float64{"op_mean_us": opMeanUs, "commit_wait_mean_us": commitWaitMeanUs} {
		if rows[v] != 1 {
			t.Errorf("the window's %s is reported by %d rows, want 1", name, rows[v])
		}
	}
	for _, tmpl := range allTemplates() {
		in := top
		if tmpl == shardLine {
			in = block
		}
		for _, slot := range slotRE.FindAllStringSubmatch(tmpl, -1) {
			if !names[in][slot[1]] {
				t.Errorf("template %q: no metric %s in view %d", tmpl, slot[1], in)
			}
		}
	}
}

// TestTextAndJSONAgree re-derives every templated text line from the JSON
// document of the same capture: each slot filled with the JSON value of
// the metric it names, formatted with the slot's verb, must give the line
// the text encoder wrote.
func TestTextAndJSONAgree(t *testing.T) {
	for name, c := range goldenCaptures() {
		var text, js bytes.Buffer
		if err := c.writeText(&text); err != nil {
			t.Fatal(err)
		}
		if err := c.writeJSON(&js); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		dec := json.NewDecoder(&js)
		dec.UseNumber()
		if err := dec.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		lines := map[string]bool{}
		for _, l := range strings.SplitAfter(text.String(), "\n") {
			lines[l] = true
		}
		// fill fills tmpl from the JSON object obj; vals is the same view
		// as the encoders read it, consulted only for which gauges print
		// n/a (no lock sample), which JSON does not say.
		fill := func(tmpl string, obj map[string]any, vals []any) string {
			return slotRE.ReplaceAllStringFunc(tmpl, func(slot string) string {
				m := slotRE.FindStringSubmatch(slot)
				val, ok := obj[m[1]]
				if !ok {
					t.Fatalf("%s: JSON has no %s", name, m[1])
				}
				if g, isRho := get(vals, m[1]).(rhoGauge); isRho {
					if !g.sampled {
						return "n/a"
					}
					m[2] = ".4f"
				}
				if m[2] == "" {
					return fmt.Sprint(val)
				}
				f, err := val.(json.Number).Float64()
				if err != nil {
					t.Fatalf("%s: %s has verb %s but is %v", name, m[1], m[2], val)
				}
				return fmt.Sprintf("%"+m[2], f)
			})
		}
		topVals := c.values(nil)
		want := []string{fill(headerLine, doc, topVals) + "\n"}
		if len(c.shards) > 1 {
			want[0] = fill(headerLine+" shards={shards}\n", doc, topVals)
			for i, b := range doc["shard_blocks"].([]any) {
				want = append(want, fill(shardLine, b.(map[string]any), c.values(&c.shards[i])))
			}
		}
		for _, tmpl := range append(append([]string{}, summaryLines...), closingLines...) {
			want = append(want, fill(tmpl, doc, topVals))
		}
		for _, l := range want {
			if !lines[l] {
				t.Errorf("%s: the JSON document says\n%sbut the text has no such line:\n%s", name, l, text.String())
			}
		}
	}
}

// TestShardBlocksSumToMerged scrapes a 4-shard server under load: in
// every document the merged top level must be the fold of that same
// document's shard blocks, which holds only if each shard's counters are
// read once per response.
func TestShardBlocksSumToMerged(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, Capacity: 16, Shards: 4, Prefill: 2000})
	defer shutdown()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := int64(w); ; k += 4 {
				select {
				case <-stop:
					return
				default:
				}
				const burst = 48
				for i := int64(0); i < burst; i += 4 {
					c.Send(Request{Op: OpPut, Key: (k*burst + i) % 9973, Val: uint64(k)})
					c.Send(Request{Op: OpGet, Key: (k*burst + i) % 9973})
					c.Send(Request{Op: OpDel, Key: (k*burst + i + 7) % 9973})
					c.Send(Request{Op: OpScan, Key: i, Hi: i + 40, Limit: 8})
				}
				c.Flush()
				for i := 0; i < burst; i++ {
					recv := c.Recv
					if i%4 == 3 {
						recv = c.RecvPage
					}
					if _, err := recv(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	summed := []string{"keys", "gets", "puts", "dels", "scan_pages", "scan_keys", "commit_fails", "unavail", "shed_overload"}
	for scrape := 0; scrape < 200; scrape++ {
		var doc struct {
			Top    map[string]any
			Blocks []map[string]any `json:"shard_blocks"`
		}
		body := httpGet(t, hs.URL+"/metrics?format=json")
		if err := json.Unmarshal([]byte(body), &doc.Top); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Blocks) != 4 {
			t.Fatalf("%d shard blocks, want 4", len(doc.Blocks))
		}
		for _, f := range summed {
			var sum float64
			for _, b := range doc.Blocks {
				sum += b[f].(float64)
			}
			if got := doc.Top[f].(float64); got != sum {
				t.Errorf("scrape %d: merged %s = %.0f, the same document's shard blocks sum to %.0f", scrape, f, got, sum)
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
