// Replica mode: -replicas=addr,... splits the generated load across a
// replicated deployment the way a replication-aware application would.
// Mutations go to -addr (the leader); searches go to the follower
// assigned to the connection slot as bounded-staleness reads (OpGetSeq
// carrying the shared read floor), and scans go to the same follower as
// plain range reads. The floor is learned from the leader's acks: in
// replicated mode every put/del response is stamped with the shard's
// durable sequence, and the stamp raises a per-shard atomic floor shared
// by all connections — so a follower that has not yet applied a write
// this very load generator performed refuses the read (StatusLagging,
// counted per target, never retried and never answered stale) rather
// than serving the pre-write state.
//
// The slot and its pipes (main.go, pipe.go) do the driving; this file is
// the state the slots share.
package main

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"btreeperf/internal/server"
)

// replTargets is the shared replica-mode state: the per-shard read
// floors (one slot per leader shard) and per-target accounting.
type replTargets struct {
	floors server.ReadFloor // highest acked durable seq observed, per shard
	addrs  []string

	gets    []atomic.Int64 // per target: getseqs answered OK/Miss
	scans   []atomic.Int64 // per target: scan pages answered OK
	lagging []atomic.Int64 // per target: StatusLagging refusals
	errsT   []atomic.Int64 // per target: reads refused with another status or lost in flight
}

// newReplTargets probes the leader for its shard count (the Seqs op
// returns one entry per shard) and sizes the shared state.
func newReplTargets(dialTo func(addr string) (*server.Client, error), leader, spec string) (*replTargets, error) {
	addrs := strings.Split(spec, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			return nil, fmt.Errorf("empty address in -replicas %q", spec)
		}
	}
	c, err := dialTo(leader)
	if err != nil {
		return nil, fmt.Errorf("leader %s: %w", leader, err)
	}
	defer c.Close()
	seqs, err := c.Seqs()
	if err != nil {
		return nil, fmt.Errorf("leader %s seqs: %w", leader, err)
	}
	return &replTargets{
		floors:  make(server.ReadFloor, len(seqs)),
		addrs:   addrs,
		gets:    make([]atomic.Int64, len(addrs)),
		scans:   make([]atomic.Int64, len(addrs)),
		lagging: make([]atomic.Int64, len(addrs)),
		errsT:   make([]atomic.Int64, len(addrs)),
	}, nil
}

// report prints the per-target split after the run.
func (rt *replTargets) report(elapsed time.Duration) {
	for i, addr := range rt.addrs {
		g, sc := rt.gets[i].Load(), rt.scans[i].Load()
		lag, e := rt.lagging[i].Load(), rt.errsT[i].Load()
		reads := g + sc + lag
		lagPct := 0.0
		if reads > 0 {
			lagPct = 100 * float64(lag) / float64(reads)
		}
		fmt.Printf("replica %s: %d gets, %d scan pages (%.0f reads/s), %d lagging refusals (%.2f%%), %d errors\n",
			addr, g, sc, float64(g+sc)/elapsed.Seconds(), lag, lagPct, e)
	}
	fmt.Printf("read floors at exit (per shard): %v\n", rt.floors.Seqs())
}

// setupReplicas validates the replica-mode flag combination and builds
// the shared state; exits on misuse.
func setupReplicas(dialTo func(addr string) (*server.Client, error),
	leader, spec, chaos, audit, auditVerify string,
) *replTargets {
	if spec == "" {
		return nil
	}
	if chaos != "" || audit != "" || auditVerify != "" {
		fmt.Fprintln(os.Stderr, "btload: -replicas is incompatible with -chaos and -audit modes")
		os.Exit(2)
	}
	rt, err := newReplTargets(dialTo, leader, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btload:", err)
		os.Exit(2)
	}
	return rt
}
