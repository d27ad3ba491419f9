package server

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/cbtree"
)

// TestLiveTelemetryAgreesWithOpCounters checks, on a serving server, that
// the lock telemetry still feeds the model now that it is taken in epochs
// and no longer exhaustive: over a few seconds of a fixed mix of point
// operations, the per-level lock arrival rates from /metrics — counts
// heard in about one part in 64 of the time, divided by that time — must
// agree within 15 % with what the server's own, exhaustive operation
// counters imply, the mean holds must be positive and finite, and
// /debug/model must print a finite predicted/observed pair.
//
// Link-type takes one lock per level per operation (right-link crossings
// and splits add well under a percent at this capacity). OLC's readers
// take none, and its writers lock the leaf only.
//
// The load is paced, some way below what the server can take: arrivals
// that do not depend on how fast the server answers, the open system the
// paper models. A closed loop that saturates the processors is slowed
// inside an epoch by the measurement itself, and its epochs, rightly,
// report the rates of that slower system.
func TestLiveTelemetryAgreesWithOpCounters(t *testing.T) {
	for _, alg := range []cbtree.Algorithm{cbtree.LinkType, cbtree.OLC} {
		t.Run(alg.String(), func(t *testing.T) {
			s, addr, shutdown := startServer(t, Config{Algorithm: alg, Prefill: 200_000})
			defer shutdown()
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()
			height := s.shards[0].tree.Height()
			if height < 3 {
				t.Fatalf("prefilled tree has height %d, want >= 3", height)
			}

			// Two pipelined connections, half gets, a quarter each puts and
			// deletes, over the prefilled key range.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for conn := 0; conn < 2; conn++ {
				wg.Add(1)
				go func(conn int) {
					defer wg.Done()
					c, err := Dial(addr)
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					k := uint64(conn) * 7919
					for {
						select {
						case <-stop:
							return
						default:
						}
						const burst = 32
						next := time.Now().Add(500 * time.Microsecond)
						for i := 0; i < burst; i++ {
							k++
							key := int64(k*2654435761) % (1 << 40)
							switch k % 4 {
							case 0:
								c.Send(Request{Op: OpPut, Key: key, Val: k})
							case 1:
								c.Send(Request{Op: OpDel, Key: key})
							default:
								c.Send(Request{Op: OpGet, Key: key})
							}
						}
						if err := c.Flush(); err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < burst; i++ {
							if _, err := c.Recv(); err != nil {
								t.Error(err)
								return
							}
						}
						// Not a sleep: an idle runtime wakes its sleepers in
						// step with the goroutine that opens the epochs.
						for time.Now().Before(next) {
							runtime.Gosched()
						}
					}
				}(conn)
			}

			scrape := func() (m scrapedMetrics) {
				t.Helper()
				if err := json.Unmarshal([]byte(httpGet(t, hs.URL+"/metrics?format=json")), &m); err != nil {
					t.Fatal(err)
				}
				return m
			}
			time.Sleep(200 * time.Millisecond) // let the load settle
			m0 := scrape()
			httpGet(t, hs.URL+"/debug/model") // opens the model's window
			time.Sleep(3 * time.Second)
			m1 := scrape()
			model := httpGet(t, hs.URL+"/debug/model")
			close(stop)
			wg.Wait()

			opRate := float64(m1.Gets+m1.Puts+m1.Dels-m0.Gets-m0.Puts-m0.Dels) / m1.WindowS
			mutRate := float64(m1.Puts+m1.Dels-m0.Puts-m0.Dels) / m1.WindowS
			if opRate < 1000 {
				t.Fatalf("only %.0f ops/s got through", opRate)
			}
			if m1.MeasuredShare <= 0 || m1.MeasuredShare > 0.2 {
				t.Errorf("measured_share = %v, want about 1/64", m1.MeasuredShare)
			}
			within := func(what string, got, want float64) {
				t.Helper()
				t.Logf("%s: telemetry %.0f/s, op counters %.0f/s (%+.1f%%)", what, got, want, 100*(got/want-1))
				if raceEnabled {
					// Ten times slower, the server is saturated by this
					// load: see above. The race build is here for the races.
					return
				}
				if math.IsNaN(got) || math.Abs(got/want-1) > 0.15 {
					t.Errorf("%s: telemetry says %.0f/s, the op counters %.0f/s (%+.1f%%), want within 15%%",
						what, got, want, 100*(got/want-1))
				}
			}
			positive := func(what string, us float64) {
				t.Helper()
				if !(us > 0) || math.IsInf(us, 0) {
					t.Errorf("%s = %v µs, want positive and finite", what, us)
				}
			}
			seen := 0
			for _, lv := range m1.Levels {
				lam := lv.LambdaR + lv.LambdaW
				switch {
				case alg == cbtree.LinkType:
					seen++
					within("level "+strconv.Itoa(lv.Level)+" lambda_r+lambda_w", lam, opRate)
					if lv.Root || lv.Level == 1 {
						positive("level "+strconv.Itoa(lv.Level)+" hold_r_us", lv.HoldRUs)
					}
					if lv.Level == 1 {
						within("leaf lambda_w", lv.LambdaW, mutRate)
						positive("leaf hold_w_us", lv.HoldWUs)
					}
				case lv.Level == 1:
					seen++
					within("olc leaf lambda_w", lv.LambdaW, mutRate)
					positive("olc leaf hold_w_us", lv.HoldWUs)
					if lv.LambdaR > 0.05*opRate {
						t.Errorf("olc leaf lambda_r = %.0f/s of %.0f ops/s: readers are taking locks", lv.LambdaR, opRate)
					}
				case lam > 0.05*opRate:
					t.Errorf("olc level %d sees %.0f lock arrivals/s of %.0f ops/s, want writers at the leaf only", lv.Level, lam, opRate)
				}
			}
			if want := map[cbtree.Algorithm]int{cbtree.LinkType: height, cbtree.OLC: 1}[alg]; seen != want {
				t.Errorf("%d levels checked, want %d: %+v", seen, want, m1.Levels)
			}

			pm := regexp.MustCompile(`observed mean ([0-9.]+) µs, model predicted ([0-9.]+) µs \(pred/obs = ([0-9.]+)\)`).FindStringSubmatch(model)
			if pm == nil {
				t.Fatalf("/debug/model has no predicted/observed pair:\n%s", model)
			}
			for _, f := range pm[1:] {
				if v, err := strconv.ParseFloat(f, 64); err != nil || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("/debug/model pair %v: %q is not a positive finite number", pm[1:], f)
				}
			}
		})
	}
}
