// Command btserved serves the concurrent B-tree as a network key-value
// store, with the paper's lock-queue telemetry measured live.
//
//	btserved -alg link-type -cap 64 -listen :9400 -http :9401 -shards 2
//
// The binary protocol (see internal/server) listens on -listen; the
// telemetry endpoints /metrics, /debug/model, and /healthz listen on
// -http. The server tracks, per tree level, the model's λ_r, λ_w, μ_r,
// μ_w, queue waits, and ρ_w, evaluates the paper's queueing model at
// the measured parameters, and warns once the root's writer utilization
// crosses .5 — the effective maximum arrival rate of §6's rules of
// thumb.
//
// The serving layer defends itself: connections past -max-conns are
// refused with a Busy frame, idle or byte-trickling connections are
// reaped after -idle-timeout, peers that stop draining responses are
// cut after -write-timeout, a full pipeline (-depth requests per
// connection; with -engine disk, a shard's full commit queue) stops reading
// from the connection until it drains, and on a mem server the overload
// governor sheds update traffic with Overload frames while measured root
// ρ_w stays at or above .5 (the paper's §6 saturation threshold),
// recovering hysteretically below .4; -governor-off disables it.
//
// -pprof mounts net/http/pprof on the telemetry server (/debug/pprof/),
// exposing CPU, heap, goroutine, mutex, and block profiles of the live
// serving path, and turns on the runtime's block sampling (one event per
// 10 µs blocked) and mutex sampling (1 contention event in 5) so the
// latter two are never empty.
//
// -chaos wraps the listener in the internal/faults injector for
// self-inflicted failure testing:
//
//	btserved -chaos 'latency=100us,preset=0.001,pdrop=0.01,seed=7'
//
// SIGINT/SIGTERM drain gracefully: accepted requests are answered before
// the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/faults"
	"btreeperf/internal/server"
)

func main() {
	var (
		algName  = flag.String("alg", "link-type", "algorithm: lock-coupling, optimistic, link-type, olc")
		capacity = flag.Int("cap", 64, "node capacity (items per node)")
		listen   = flag.String("listen", ":9400", "binary protocol listen address")
		httpAddr = flag.String("http", ":9401", "telemetry listen address (/metrics, /debug/model, /healthz); empty disables")
		shards   = flag.Int("shards", 1, "keyspace shards, each an independent engine with its own governor (with -engine disk, its own commit pipeline instead)")
		depth    = flag.Int("depth", 128, "per-connection pipeline bound")
		prefill  = flag.Int("prefill", 0, "keys inserted before serving")

		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof on the telemetry server under /debug/pprof/, with block and mutex sampling on")

		maxConns     = flag.Int("max-conns", 0, "connection cap, refused with Busy past it (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", server.DefaultIdleTimeout, "reap connections idle this long (0 disables)")
		writeTimeout = flag.Duration("write-timeout", server.DefaultWriteTimeout, "cut peers that stall response writes this long (0 disables)")

		govOff = flag.Bool("governor-off", false, "disable the overload governor (it sheds updates at root rho_w >= .5, and stops after 4 samples, 250ms apart, below .4)")

		chaosSpec = flag.String("chaos", "", "fault-injection spec for the listener, e.g. 'latency=100us,preset=0.001,pdrop=0.01,seed=7'")

		engineName = flag.String("engine", "mem", "storage engine: mem (volatile) or disk (durable, group-committed)")
		path       = flag.String("path", "", "disk engine data file (required with -engine disk)")
		ckptOps    = flag.Int64("checkpoint-ops", 0, "disk engine: mutations of replay debt that trigger a checkpoint (0 = default 262144, negative disables)")
		cacheNodes = flag.Int("cache-nodes", 0, "disk engine buffer-pool size in nodes (0 = default 4096)")

		indexOn = flag.Bool("index", false, "maintain the secondary value index (enables the lookup op; rebuilt from the primary at startup)")

		replListen  = flag.String("repl-listen", "", "replication hub listen address: lead here (requires -engine disk), or with -follow, the address this process ships from after promotion")
		follow      = flag.String("follow", "", "follow the leader whose replication hub is at this address (mutations answer NotLeader; reads serve with bounded staleness)")
		replRetain  = flag.Int64("repl-retain-mb", 64, "per-shard oplog retention budget in MiB; followers farther behind than retained history resync via snapshot")
		replState   = flag.String("repl-state", "", "follower sidecar file persisting {epoch, applied seqs} across restarts (default: derived from -path for disk followers; mem followers never persist)")
		replResync  = flag.Bool("resync", false, "discard persisted replication state: claim no position, so the leader resyncs every shard from a snapshot")
		replAcks    = flag.Int("repl-acks", 0, "semi-sync: acknowledge mutations only after this many followers applied them (0 = async)")
		replAckWait = flag.Duration("repl-ack-timeout", 0, "semi-sync wait bound; a batch missing it answers Busy though locally durable (0 = default 2s)")
	)
	flag.Parse()

	alg, err := parseAlg(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btserved:", err)
		os.Exit(2)
	}

	// CLI semantics: 0 disables a timeout. Config semantics: 0 means
	// default, negative disables. Translate.
	cliTimeout := func(d time.Duration) time.Duration {
		if d == 0 {
			return -1
		}
		return d
	}

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "btserved: -shards %d (want >= 1)\n", *shards)
		os.Exit(2)
	}
	if *capacity < 3 {
		fmt.Fprintf(os.Stderr, "btserved: -cap %d (want >= 3)\n", *capacity)
		os.Exit(2)
	}
	if *replAckWait < 0 {
		fmt.Fprintf(os.Stderr, "btserved: -repl-ack-timeout %v (want >= 0)\n", *replAckWait)
		os.Exit(2)
	}
	if *depth < 1 {
		fmt.Fprintf(os.Stderr, "btserved: -depth %d (want >= 1)\n", *depth)
		os.Exit(2)
	}
	if *maxConns < 0 {
		fmt.Fprintf(os.Stderr, "btserved: -max-conns %d (want >= 0; 0 = unlimited)\n", *maxConns)
		os.Exit(2)
	}
	if *prefill < 0 {
		fmt.Fprintf(os.Stderr, "btserved: -prefill %d (want >= 0)\n", *prefill)
		os.Exit(2)
	}
	if *replAcks < 0 {
		fmt.Fprintf(os.Stderr, "btserved: -repl-acks %d (want >= 0; 0 = async)\n", *replAcks)
		os.Exit(2)
	}

	// Disk mode builds one engine per shard. A single shard keeps the
	// legacy layout (-path is the data file); with -shards=N the path is
	// a directory holding one subdirectory per shard, so each shard gets
	// its own pagestore and group-commit journal.
	var engines []server.Engine
	switch *engineName {
	case "mem":
	case "disk":
		if *cacheNodes < 0 {
			fmt.Fprintf(os.Stderr, "btserved: -cache-nodes %d (want >= 0)\n", *cacheNodes)
			os.Exit(2)
		}
		// A positive threshold below the batch size would demand a
		// checkpoint mid-batch, which group commit can never satisfy:
		// every committed batch would immediately re-cross the threshold.
		if *ckptOps > 0 && *ckptOps < server.DefaultMaxBatch {
			fmt.Fprintf(os.Stderr, "btserved: -checkpoint-ops %d is below the commit batch size %d; every batch would re-cross the threshold\n",
				*ckptOps, server.DefaultMaxBatch)
			os.Exit(2)
		}
		for i := 0; i < *shards; i++ {
			p := *path
			if *shards > 1 {
				dir := filepath.Join(*path, fmt.Sprintf("shard-%d", i))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "btserved:", err)
					os.Exit(1)
				}
				p = filepath.Join(dir, "tree.db")
			}
			diskEng, err := server.NewDiskEngine(server.DiskEngineConfig{
				Path:          p,
				Cap:           *capacity,
				CacheNodes:    *cacheNodes,
				CheckpointOps: *ckptOps,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "btserved:", err)
				os.Exit(1)
			}
			engines = append(engines, diskEng)
			fmt.Fprintf(os.Stderr, "btserved: disk engine at %s: %d keys, %d ops recovered\n",
				p, diskEng.Len(), diskEng.Recovered())
		}
	default:
		fmt.Fprintf(os.Stderr, "btserved: unknown engine %q (want mem or disk)\n", *engineName)
		os.Exit(2)
	}

	cfg := server.Config{
		Algorithm:      alg,
		Shards:         *shards,
		Capacity:       *capacity,
		Depth:          *depth,
		Prefill:        *prefill,
		Index:          *indexOn,
		MaxConns:       *maxConns,
		IdleTimeout:    cliTimeout(*idleTimeout),
		WriteTimeout:   cliTimeout(*writeTimeout),
		Governor:       server.GovernorConfig{Disabled: *govOff},
		ReplAcks:       *replAcks,
		ReplAckTimeout: *replAckWait,
	}
	switch len(engines) {
	case 0:
	case 1:
		cfg.Engine = engines[0]
	default:
		cfg.Engines = engines
	}
	s := server.New(cfg)

	// The replication role: leader hub, follower applier, or a promotable
	// follower (both flags). Only a disk engine has a -path to keep the
	// state file beside.
	dataPath := ""
	if *engineName == "disk" {
		dataPath = *path
	}
	err = s.StartRepl(replOptions(*replListen, *follow, *replRetain, *replState, *replResync, dataPath, *shards,
		func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "btserved: "+format+"\n", args...)
		}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "btserved:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btserved:", err)
		os.Exit(1)
	}

	var inj *faults.Injector
	if *chaosSpec != "" {
		fc, err := faults.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btserved:", err)
			os.Exit(2)
		}
		inj = faults.New(fc)
		ln = inj.Listener(ln)
		fmt.Fprintf(os.Stderr, "btserved: chaos injection on: %s\n", *chaosSpec)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	var hs *http.Server
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btserved:", err)
			os.Exit(1)
		}
		handler := s.Handler()
		if *pprofOn {
			handler = s.HandlerWithProfiling()
			runtime.SetBlockProfileRate(pprofBlockRate)
			runtime.SetMutexProfileFraction(pprofMutexFrac)
			fmt.Fprintf(os.Stderr, "btserved: pprof on http://%s/debug/pprof/ (block-rate=%d mutex-frac=%d)\n",
				hln.Addr(), pprofBlockRate, pprofMutexFrac)
		}
		hs = &http.Server{Handler: handler}
		go hs.Serve(hln)
		fmt.Fprintf(os.Stderr, "btserved: telemetry on http://%s/metrics, /debug/model, /healthz\n", hln.Addr())
	}

	fmt.Fprintf(os.Stderr, "btserved: %s tree (cap %d, prefill %d, shards %d) serving on %s\n",
		alg, *capacity, *prefill, s.NumShards(), ln.Addr())
	if err := s.Serve(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, "btserved:", err)
		os.Exit(1)
	}
	if inj != nil {
		fmt.Fprintf(os.Stderr, "btserved: chaos injected: %s\n", inj.Stats())
	}
	// Shutdown order matters: stop the telemetry listener before closing
	// the engines, so no new scrape can begin against a closing engine
	// (Server.Close additionally excludes any scrape already in flight
	// via the lifecycle lock). Serve has already drained — every acked
	// batch's group commit returned before it did. Close ends the
	// replication role before it closes the engines.
	if hs != nil {
		hs.Close()
	}
	keys := s.Len()
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "btserved: engine close:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "btserved: drained; %d keys in tree at exit\n", keys)
}

// The block and mutex sampling -pprof turns on (ns blocked per sampled
// event, 1/n contention events), so the two profiles it mounts are
// never empty.
const (
	pprofBlockRate = 10000
	pprofMutexFrac = 5
)

func parseAlg(name string) (cbtree.Algorithm, error) {
	switch name {
	case "lock-coupling", "lc", "naive":
		return cbtree.LockCoupling, nil
	case "optimistic", "opt":
		return cbtree.Optimistic, nil
	case "link-type", "link", "ly":
		return cbtree.LinkType, nil
	case "olc", "optimistic-lock-coupling":
		return cbtree.OLC, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want lock-coupling, optimistic, link-type, or olc)", name)
	}
}
