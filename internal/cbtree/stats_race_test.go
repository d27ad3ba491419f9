package cbtree

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/lock"
	"btreeperf/internal/metrics"
)

// TestStatsConcurrentWithMutators exercises Stats, Len, and Height while
// mutators run, for every algorithm. Run under -race (the CI race matrix
// includes this package): any unsynchronized counter read shows up here.
func TestStatsConcurrentWithMutators(t *testing.T) {
	for _, alg := range []Algorithm{LockCoupling, Optimistic, LinkType, OLC} {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(8, alg)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 3000; i++ {
						k := int64(w*3000 + i)
						tr.Insert(k, uint64(k))
						if i%3 == 0 {
							tr.Delete(k)
						}
						tr.Search(k)
					}
				}(w)
			}
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				var last Stats
				for !stop.Load() {
					s := tr.Stats()
					if s.Splits < last.Splits || s.Restarts < last.Restarts || s.Crossings < last.Crossings {
						t.Error("counters went backwards")
						return
					}
					last = s
					_ = tr.Len()
					_ = tr.Height()
				}
			}()
			wg.Wait()
			stop.Store(true)
			<-readerDone
			if s := tr.Stats(); alg != LinkType && alg != OLC && s.Crossings != 0 {
				t.Errorf("%v recorded %d link crossings", alg, s.Crossings)
			}
		})
	}
}

// TestInstrumentCoversAllLevels builds a multi-level tree, instruments it,
// runs concurrent traffic, and checks that telemetry appears at every
// level including the root, with balanced acquire/release counts.
func TestInstrumentCoversAllLevels(t *testing.T) {
	for _, alg := range []Algorithm{LockCoupling, Optimistic, LinkType} {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(4, alg)
			for i := int64(0); i < 200; i++ {
				tr.Insert(i, uint64(i))
			}
			probe := metrics.NewTreeProbe()
			tr.Instrument(func(level int) lock.Probe { return probe.Level(level) })

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						k := int64(200 + w*1000 + i)
						tr.Insert(k, uint64(k))
						tr.Search(k)
					}
				}(w)
			}
			wg.Wait()

			snap := probe.Snapshot()
			height := tr.Height()
			if len(snap.Levels) < height {
				t.Fatalf("telemetry at %d levels, tree height %d", len(snap.Levels), height)
			}
			for _, ls := range snap.Levels {
				acquired := ls.WaitHistR.N() + ls.WaitHistW.N()
				if acquired == 0 {
					t.Errorf("level %d saw no acquisitions", ls.Level)
				}
				if got, want := ls.ReleasedR+ls.ReleasedW, acquired; got != want {
					t.Errorf("level %d releases %d != acquisitions %d", ls.Level, got, want)
				}
			}
		})
	}
}

// TestOLCRestartTelemetry drives concurrent latch-free readers against
// writers on an OLC tree and checks that validation restarts and locked
// fallbacks observed by the tree are mirrored, count for count, in the
// per-level probes (metrics.LevelStats implements lock.VersionProbe).
func TestOLCRestartTelemetry(t *testing.T) {
	tr := New(4, OLC)
	for i := int64(0); i < 500; i++ {
		tr.Insert(i*2, uint64(i))
	}
	probe := metrics.NewTreeProbe()
	tr.Instrument(func(level int) lock.Probe { return probe.Level(level) })

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // writers churn the keyspace, forcing conflicts
			defer wg.Done()
			k := int64(w)
			for !stop.Load() {
				tr.Insert(k*2+1, uint64(k))
				tr.Delete(k*2 + 1)
				k = (k + 2) % 500
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			k := int64(r)
			for !stop.Load() {
				tr.Search(k * 2)
				tr.Range(k*2, k*2+20, func(int64, uint64) bool { return true })
				k = (k + 1) % 500
			}
		}(r)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tr.Stats().ReadRestarts == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	st := tr.Stats()
	snap := probe.Snapshot()
	var probeRestarts, probeFallbacks int64
	for _, ls := range snap.Levels {
		probeRestarts += ls.ReadRestarts
		probeFallbacks += ls.ReadFallbacks
	}
	if probeRestarts != st.ReadRestarts {
		t.Errorf("probe restarts %d != tree restarts %d", probeRestarts, st.ReadRestarts)
	}
	if probeFallbacks != st.ReadFallbacks {
		t.Errorf("probe fallbacks %d != tree fallbacks %d", probeFallbacks, st.ReadFallbacks)
	}
	if st.ReadRestarts == 0 {
		t.Log("no restart observed this run; telemetry equality still checked")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
