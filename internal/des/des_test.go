package des

import (
	"math"
	"testing"

	"btreeperf/internal/xrand"
)

func TestDelayAdvancesClock(t *testing.T) {
	env := NewEnvironment()
	var times []float64
	env.Spawn("p", func(p *Proc) {
		p.Delay(5)
		times = append(times, p.Now())
		p.Delay(2.5)
		times = append(times, p.Now())
	})
	end := env.RunAll()
	if len(times) != 2 || times[0] != 5 || times[1] != 7.5 {
		t.Fatalf("times = %v", times)
	}
	if end != 7.5 {
		t.Fatalf("final time %v", end)
	}
}

func TestZeroDelay(t *testing.T) {
	env := NewEnvironment()
	ran := false
	env.Spawn("p", func(p *Proc) {
		p.Delay(0)
		ran = true
	})
	env.RunAll()
	if !ran {
		t.Fatal("process with zero delay did not complete")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	env := NewEnvironment()
	var recovered interface{}
	env.Spawn("p", func(p *Proc) {
		defer func() { recovered = recover() }()
		p.Delay(-1)
	})
	env.RunAll()
	if recovered == nil {
		t.Fatal("negative delay did not panic in process")
	}
}

func TestEventOrdering(t *testing.T) {
	env := NewEnvironment()
	var order []int
	env.Schedule(3, func() { order = append(order, 3) })
	env.Schedule(1, func() { order = append(order, 1) })
	env.Schedule(2, func() { order = append(order, 2) })
	env.Schedule(1, func() { order = append(order, 10) }) // same time: FIFO
	env.RunAll()
	want := []int{1, 10, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	env := NewEnvironment()
	env.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		env.Schedule(4, func() {})
	})
	env.RunAll()
}

// A run stops early when an event closes the environment: the clock ends
// at that event and later events never fire.
func TestRunUntilStopsEarly(t *testing.T) {
	env := NewEnvironment()
	fired := 0
	env.Schedule(1, func() { fired++ })
	env.Schedule(10, func() { fired++ })
	env.Schedule(5, env.Close)
	if got := env.RunAll(); fired != 1 || got != 5 {
		t.Fatalf("fired=%d now=%v", fired, got)
	}
	if got := env.RunAll(); fired != 1 || got != 5 {
		t.Fatalf("after Close: fired=%d now=%v", fired, got)
	}
}

func TestInterleavedProcessesDeterministic(t *testing.T) {
	run := func() []string {
		env := NewEnvironment()
		var log []string
		for _, d := range []struct {
			name  string
			delay float64
		}{{"a", 2}, {"b", 1}, {"c", 3}, {"d", 1}} {
			d := d
			env.Spawn(d.name, func(p *Proc) {
				p.Delay(d.delay)
				log = append(log, d.name)
				p.Delay(d.delay)
				log = append(log, d.name+"2")
			})
		}
		env.RunAll()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("length differs across runs")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged at %d: %v vs %v", i, j, first, again)
			}
		}
	}
	// b and d fire at t=1 in spawn order, then a, then b2/d2 at 2...
	if first[0] != "b" || first[1] != "d" {
		t.Fatalf("log = %v", first)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnvironment()
	done := 0
	env.Spawn("parent", func(p *Proc) {
		p.Delay(1)
		for i := 0; i < 3; i++ {
			env.Spawn("child", func(c *Proc) {
				c.Delay(1)
				done++
			})
		}
	})
	env.RunAll()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if env.Live() != 0 {
		t.Fatalf("%d processes leaked", env.Live())
	}
}

// Shutting the environment down from an event, mid-run, kills a parked
// process without letting it run past its Delay.
func TestShutdownKillsParked(t *testing.T) {
	env := NewEnvironment()
	reached := false
	env.Spawn("sleeper", func(p *Proc) {
		p.Delay(1e9)
		reached = true
	})
	env.Schedule(10, func() {
		if env.Live() != 1 {
			t.Errorf("Live = %d, want 1", env.Live())
		}
		env.Close()
	})
	env.RunAll()
	if env.Live() != 0 {
		t.Fatalf("Live after shutdown = %d", env.Live())
	}
	if reached {
		t.Fatal("killed process ran past its Delay")
	}
}

func TestRWLockSharedReaders(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	concurrent := 0
	maxConcurrent := 0
	for i := 0; i < 5; i++ {
		env.Spawn("r", func(p *Proc) {
			g := l.Acquire(p, Read)
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Delay(10)
			concurrent--
			l.Release(g)
		})
	}
	env.RunAll()
	if maxConcurrent != 5 {
		t.Fatalf("max concurrent readers = %d, want 5", maxConcurrent)
	}
}

func TestRWLockWriterExclusive(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	inCritical := 0
	violations := 0
	for i := 0; i < 4; i++ {
		env.Spawn("w", func(p *Proc) {
			g := l.Acquire(p, Write)
			inCritical++
			if inCritical > 1 {
				violations++
			}
			p.Delay(3)
			inCritical--
			l.Release(g)
		})
	}
	end := env.RunAll()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
	if end != 12 {
		t.Fatalf("4 serialized writers of 3 units should end at 12, got %v", end)
	}
}

func TestRWLockFCFSReaderBehindWriterWaits(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	var order []string
	// t=0: reader1 gets the lock, holds 10.
	env.Spawn("r1", func(p *Proc) {
		g := l.Acquire(p, Read)
		order = append(order, "r1")
		p.Delay(10)
		l.Release(g)
	})
	// t=1: writer queues.
	env.Spawn("w", func(p *Proc) {
		p.Delay(1)
		g := l.Acquire(p, Write)
		order = append(order, "w")
		p.Delay(10)
		l.Release(g)
	})
	// t=2: reader2 arrives; although compatible with r1, FCFS makes it
	// wait behind the queued writer.
	env.Spawn("r2", func(p *Proc) {
		p.Delay(2)
		g := l.Acquire(p, Read)
		order = append(order, "r2")
		if p.Now() != 20 {
			t.Errorf("r2 granted at %v, want 20 (after the writer)", p.Now())
		}
		l.Release(g)
	})
	env.RunAll()
	if len(order) != 3 || order[0] != "r1" || order[1] != "w" || order[2] != "r2" {
		t.Fatalf("grant order = %v", order)
	}
}

func TestRWLockReaderBatchGrant(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	var grantedAt []float64
	env.Spawn("w", func(p *Proc) {
		g := l.Acquire(p, Write)
		p.Delay(5)
		l.Release(g)
	})
	for i := 0; i < 3; i++ {
		env.Spawn("r", func(p *Proc) {
			p.Delay(1)
			g := l.Acquire(p, Read)
			grantedAt = append(grantedAt, p.Now())
			p.Delay(4)
			l.Release(g)
		})
	}
	// A second writer behind the readers.
	env.Spawn("w2", func(p *Proc) {
		p.Delay(2)
		g := l.Acquire(p, Write)
		if p.Now() != 9 {
			t.Errorf("w2 granted at %v, want 9", p.Now())
		}
		l.Release(g)
	})
	env.RunAll()
	if len(grantedAt) != 3 {
		t.Fatalf("granted %d readers", len(grantedAt))
	}
	for _, g := range grantedAt {
		if g != 5 {
			t.Fatalf("readers granted at %v, want all at 5 (batch)", grantedAt)
		}
	}
}

func TestRWLockImmediateGrantRequiresEmptyQueue(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	// Holder: reader until t=10. Writer queues at t=1. Reader at t=2 must
	// queue (not jump the writer), even though readers currently hold it.
	env.Spawn("hold", func(p *Proc) {
		g := l.Acquire(p, Read)
		p.Delay(10)
		l.Release(g)
	})
	env.Spawn("w", func(p *Proc) {
		p.Delay(1)
		g := l.Acquire(p, Write)
		p.Delay(1)
		l.Release(g)
	})
	env.Spawn("r", func(p *Proc) {
		p.Delay(2)
		g := l.Acquire(p, Read)
		if p.Now() != 11 {
			t.Errorf("late reader granted at %v, want 11", p.Now())
		}
		l.Release(g)
	})
	env.RunAll()
}

func TestRWLockStats(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	env.Spawn("w1", func(p *Proc) {
		g := l.Acquire(p, Write)
		p.Delay(4)
		l.Release(g)
	})
	env.Spawn("w2", func(p *Proc) {
		g := l.Acquire(p, Write)
		p.Delay(4)
		l.Release(g)
	})
	end := env.RunAll()
	s := l.Snapshot(end)
	if s.GrantsW != 2 {
		t.Fatalf("GrantsW = %d", s.GrantsW)
	}
	if s.MeanHoldW != 4 {
		t.Fatalf("MeanHoldW = %v", s.MeanHoldW)
	}
	if s.MeanWaitW != 2 { // w1 waits 0, w2 waits 4
		t.Fatalf("MeanWaitW = %v", s.MeanWaitW)
	}
	if math.Abs(s.RhoW-1) > 1e-9 { // a writer is in the system for all 8 units
		t.Fatalf("RhoW = %v", s.RhoW)
	}
}

func TestReleaseValidation(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	l2 := NewRWLock(env, "y")
	env.Spawn("p", func(p *Proc) {
		g := l.Acquire(p, Read)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("foreign release did not panic")
				}
			}()
			l2.Release(g)
		}()
		l.Release(g)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("double release did not panic")
				}
			}()
			l.Release(g)
		}()
	})
	env.RunAll()
}

// TestMM1AgainstTheory drives the lock as an M/M/1 queue (writers only) and
// compares the measured mean wait with ρ/((1-ρ)μ). This validates the
// kernel and the lock against queueing theory end to end.
func TestMM1AgainstTheory(t *testing.T) {
	lambda, mu := 0.6, 1.0
	rho := lambda / mu
	wantWait := rho / ((1 - rho) * mu)

	env := NewEnvironment()
	l := NewRWLock(env, "mm1")
	src := xrand.New(42)
	arrivals := src.Split(1)
	services := src.Split(2)
	const n = 60000
	env.Spawn("arrivals", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Delay(arrivals.ExpRate(lambda))
			svc := services.Exp(1 / mu)
			env.Spawn("job", func(j *Proc) {
				g := l.Acquire(j, Write)
				j.Delay(svc)
				l.Release(g)
			})
		}
	})
	end := env.RunAll()
	s := l.Snapshot(end)
	if math.Abs(s.MeanWaitW-wantWait) > 0.15*wantWait {
		t.Fatalf("M/M/1 wait = %v, theory %v", s.MeanWaitW, wantWait)
	}
	// Writer-in-system probability for M/M/1 is ρ.
	if math.Abs(s.RhoW-rho) > 0.05 {
		t.Fatalf("RhoW = %v, theory %v", s.RhoW, rho)
	}
}

// TestMM1ReadersDontQueue checks that a reader-only workload (shared
// grants) sees zero waiting regardless of load.
func TestReadersOnlyNeverWait(t *testing.T) {
	env := NewEnvironment()
	l := NewRWLock(env, "r")
	src := xrand.New(7)
	const n = 5000
	env.Spawn("arrivals", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Delay(src.ExpRate(5))
			svc := src.Exp(1)
			env.Spawn("job", func(j *Proc) {
				g := l.Acquire(j, Read)
				j.Delay(svc)
				l.Release(g)
			})
		}
	})
	end := env.RunAll()
	s := l.Snapshot(end)
	if s.MeanWaitR != 0 {
		t.Fatalf("readers waited %v without writers", s.MeanWaitR)
	}
	if s.GrantsR != n {
		t.Fatalf("GrantsR = %d", s.GrantsR)
	}
}

func TestClassString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("Class.String")
	}
}
