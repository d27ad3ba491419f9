package main

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"

	"btreeperf/internal/server"
)

// sampleKeys is how many tracked keys per connection are read back.
const sampleKeys = 10000

// sample is one key whose final state the oracle knows.
type sample struct {
	key  int64
	val  uint64
	live bool
}

// checker collects the output checks of one run. Every check prints one
// line; the run is correct only if all of them passed.
type checker struct {
	failed []string
}

func (ck *checker) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		logf("check ok   %s", msg)
		return
	}
	logf("check FAIL %s", msg)
	ck.failed = append(ck.failed, msg)
}

func (ck *checker) ok() bool { return len(ck.failed) == 0 }

// samples picks up to sampleKeys keys the connection's oracle is sure
// about, spread evenly over the sorted key range.
func (lc *loadConn) samples() []sample {
	var keys []int64
	for k, e := range lc.oracle {
		if e.known && e.inflight == 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	n := min(len(keys), sampleKeys)
	out := make([]sample, n)
	for i := range out {
		k := keys[i*len(keys)/n]
		e := lc.oracle[k]
		out[i] = sample{key: k, val: e.val, live: e.live}
	}
	return out
}

// mismatch describes how a read of s disagrees with the oracle, or "".
func (s sample) mismatch(val uint64, found bool) string {
	switch {
	case s.live && !found:
		return fmt.Sprintf("key %d: acked put of %d is gone", s.key, s.val)
	case s.live && val != s.val:
		return fmt.Sprintf("key %d: read %d, last acked put wrote %d", s.key, val, s.val)
	case !s.live && found:
		return fmt.Sprintf("key %d: read %d after an acked delete", s.key, val)
	}
	return ""
}

// readBack reads every sample over the connection that wrote it and
// returns the mismatches.
func (lc *loadConn) readBack(ss []sample) ([]string, error) {
	var bad []string
	for lo := 0; lo < len(ss); lo += burstSize {
		chunk := ss[lo:min(lo+burstSize, len(ss))]
		for _, s := range chunk {
			if err := lc.c.Send(server.Request{Op: server.OpGet, Key: s.key}); err != nil {
				return bad, err
			}
		}
		if err := lc.c.Flush(); err != nil {
			return bad, err
		}
		for _, s := range chunk {
			resp, err := lc.c.Recv()
			if err != nil {
				return bad, err
			}
			if resp.Status != server.StatusOK && resp.Status != server.StatusMiss {
				bad = append(bad, fmt.Sprintf("key %d: read-back answered %s", s.key, server.StatusName(resp.Status)))
			} else if m := s.mismatch(resp.Val, resp.Status == server.StatusOK); m != "" {
				bad = append(bad, m)
			}
		}
	}
	return bad, nil
}

// verifyServed runs the checks that need the live server: sampled keys
// read back with the last acked value, scan pages well-formed, Little's
// law on the timed phase. It returns the samples for the restart check.
func (inst *instance) verifyServed(ck *checker, tm *timed) [][]sample {
	all := make([][]sample, len(inst.conns))
	for i, lc := range inst.conns {
		all[i] = lc.samples()
		bad, err := lc.readBack(all[i])
		if err != nil {
			bad = append(bad, err.Error())
		}
		first := ""
		if len(bad) > 0 {
			first = ": " + bad[0]
		}
		ck.check(len(bad) == 0, "conn %d: %d sampled keys read back with the last acked value, %d wrong%s", i, len(all[i]), len(bad), first)
		if inst.sp.scanLimit > 0 {
			ck.check(lc.badPages == 0 && lc.scanPages > 0, "conn %d: %d scan pages ascending, in range and <= %d entries, %d malformed %s",
				i, lc.scanPages, inst.sp.scanLimit, lc.badPages, lc.firstBad)
		}
	}

	// Little's law, L = λ·W. L is the time-averaged number of requests in
	// flight from the exact latency sum; λ·W uses the histogram's mean, so
	// the identity holds only if the histogram the percentiles come from
	// saw every op and is unbiased.
	wall := float64(tm.wallNs)
	l := float64(tm.latNs) / wall
	lw := float64(tm.total.n) / wall * tm.total.mean()
	ck.check(tm.total.n == tm.ops && math.Abs(lw/l-1) < 0.03,
		"Little's law: %.2f in flight vs rate x mean latency = %.2f over %d of %d ops", l, lw, tm.total.n, tm.ops)
	return all
}

// expectedLen is the key count the acknowledged results imply.
func (inst *instance) expectedLen() int {
	n := inst.prefill
	for _, lc := range inst.conns {
		n += int(lc.liveDelta)
	}
	return n
}

// verifyRestart closes nothing itself: the caller has closed the server
// cleanly. It reopens the disk engine from its files and checks that every
// acknowledged write survived.
func (inst *instance) verifyRestart(ck *checker, all [][]sample, wantLen int) {
	eng, err := server.NewDiskEngine(inst.diskCfg)
	if err != nil {
		ck.check(false, "reopen %s: %v", inst.diskCfg.Path, err)
		return
	}
	defer eng.Close()
	ck.check(eng.Len() == wantLen, "reopened engine holds %d keys, acked results imply %d (%d ops replayed)", eng.Len(), wantLen, eng.Recovered())
	n, bad, first := 0, 0, ""
	for _, ss := range all {
		for _, s := range ss {
			n++
			val, found, err := eng.Get(s.key)
			m := ""
			if err != nil {
				m = err.Error()
			} else {
				m = s.mismatch(val, found)
			}
			if m != "" {
				bad++
				if first == "" {
					first = ": " + m
				}
			}
		}
	}
	ck.check(bad == 0, "reopened engine: %d sampled keys hold the last acked value, %d wrong%s", n, bad, first)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
