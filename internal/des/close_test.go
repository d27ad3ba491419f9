package des

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseReleasesGoroutines parks many processes on long delays and lock
// queues, abandons the run early, and asserts Close unwinds every process
// goroutine — the leak the simulator's early-exit paths would otherwise
// accumulate per abandoned Environment.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnvironment()
	l := NewRWLock(env, "x")
	for i := 0; i < 50; i++ {
		env.Spawn("sleeper", func(p *Proc) {
			p.Delay(1e9)
		})
		env.Spawn("waiter", func(p *Proc) {
			g := l.Acquire(p, Write)
			p.Delay(1e9)
			l.Release(g)
		})
	}
	env.Schedule(1, func() { // everyone has started and parked far in the future
		if env.Live() != 100 {
			t.Errorf("Live = %d, want 100", env.Live())
		}
		env.Close()
	})
	env.RunAll()
	if env.Live() != 0 {
		t.Fatalf("Live after Close = %d", env.Live())
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending after Close = %d, want 0", env.Pending())
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
}

// TestCloseKillsNeverStarted asserts a process spawned but never started
// (its start event still pending) is unwound without running its body.
func TestCloseKillsNeverStarted(t *testing.T) {
	env := NewEnvironment()
	ran := false
	env.Spawn("unstarted", func(p *Proc) {
		ran = true
	})
	// No RunAll: the start event never fires.
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Live after Close = %d", env.Live())
	}
	if ran {
		t.Fatal("Close executed a never-started process body")
	}
}

// TestCloseIdempotent closes twice, with a fresh spawn in between killed on
// the second call.
func TestCloseIdempotent(t *testing.T) {
	env := NewEnvironment()
	env.Spawn("a", func(p *Proc) { p.Delay(100) })
	env.Schedule(1, env.Close)
	env.RunAll()
	env.Close()
	if env.Live() != 0 || env.Pending() != 0 {
		t.Fatalf("Live=%d Pending=%d after double Close", env.Live(), env.Pending())
	}
}
