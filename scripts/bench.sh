#!/usr/bin/env bash
# Tracked benchmark baselines, one JSON per layer group: each pass below
# runs one group's `go test -bench` and writes the median of -count runs
# of every counted per-op unit (allocs/op, B/op, keys/op, ops/fsync),
# which repeat from machine to machine, to $BENCH_DIR/BENCH_<name>.json
# (default results/, the tracked files). Timings (ns/op, sampled p50/p99
# response times) stay in the raw, benchstat-comparable text, which goes
# to stdout and to $BENCH_RAW_DIR/BENCH_<name>.txt (default: a temporary
# directory). CI gates every results/BENCH_*.json on allocs/op with
# `benchjson -compare`.
#
#   scripts/bench.sh                 # full baselines, -count=3 (~6 min)
#   scripts/bench.sh -quick          # one short pass, for CI smoke
#
# The passes: serving — the protocol codec, batch dispatch and end-to-end
# loopback serving, including the BenchmarkServeLoopbackSharded shard-count
# sweep (N=1,2,4,8 on the mixed depth-128 workload; distinct benchmark
# names, so the N=1 ServeLoopback baseline stays comparable with runs that
# predate sharding); storage — the layers under the disk engine and the
# durable serving path that sits on all three; lock — the FCFS lock's two
# paths, its contended hand-off, the version word, and the latency
# histogram its probe and the serving path record into; cbtree — the in-memory
# tree under each of the four algorithms.
set -euo pipefail

cd "$(dirname "$0")/.."

count=3
benchtime=1s
if [[ "${1:-}" == "-quick" ]]; then
  count=1
  benchtime=0.2s
fi
dir="${BENCH_DIR:-results}"
rawdir="${BENCH_RAW_DIR:-$(mktemp -d)}"
mkdir -p "$dir" "$rawdir"

# name, packages, -bench regexp, note
passes=(
  serving
  "./internal/server"
  'BenchmarkAppendRequest|BenchmarkAppendResponse|BenchmarkReadRequest|BenchmarkReadResponse|BenchmarkBatchDispatch|BenchmarkServeLoopback|BenchmarkScanLoopback|BenchmarkReplicatedGet'
  "ServeLoopback is a mixed get/put/del pipeline over loopback TCP, client and server in one process, swept over all four algorithms; ServeLoopbackReadHeavy is the 87.5%-get mix head-to-head between link-type and olc (latch-free reads); ServeLoopbackSharded sweeps the hash-routed shard count on the depth-128 mix; ScanLoopback is one paged range-scan request per op (fan-out + k-way merge), keys/op = page fill; ReplicatedGet is one bounded-staleness get (OpGetSeq carrying a shared ReadFloor) on a per-goroutine Client against a disk leader plus N oplog-streaming followers, writes quiesced"

  storage
  "./internal/diskbtree ./internal/journal ./internal/pagestore ./internal/server"
  'BenchmarkDiskTree|BenchmarkJournal|BenchmarkPagestore|BenchmarkServeDurable'
  "DiskTree{Search,Insert,Delete} are point operations on a bulk-loaded, non-durable 200k-key tree whose buffer pool holds all of it (fit) or a fifth (spill); JournalAppend is one logged mutation plus its share of a 25-mutation group commit over a file layer that swallows writes and syncs (the journal's own cost), JournalCommit one such batch and its commit on a real file (the tail's write and the fsync); PagestoreReadInto/WritePage are the buffer pool's two calls on a page-cache-resident file; ServeDurable is the paper mix from 2 pipelined connections (depth 128) against the disk engine on a real file, through the commit pipeline, ops/fsync = mutations covered per group-commit fsync, allocs/op covering client and server"

  lock
  "./internal/metrics ./internal/lock"
  'BenchmarkFCFS|BenchmarkVersion|BenchmarkHist'
  "HistObserve is one sample into a shared metrics.Hist (a lock wait inside an epoch), HistObserveN one 32-op batch's service time (the serving path), both over values log-uniform on 1 ns to 1 s; FCFS{RLock,Lock} and VersionLockV are one uncontended acquire/release pair on a lock with no probe, with a probe whose gate is closed (a served tree's locks between measurement epochs: the fast path, one compare-and-swap each way) and with a listening probe (inside an epoch: the internal mutex, one clock read and the reports each way); FCFSParallelRLock is the same shared pair from 2 and from GOMAXPROCS goroutines on one lock (the root's case; its ns/op depends on whether the goroutines run at once); FCFSHandoff is one release that grants a queued request, writer to writer and writer to a run of two readers, wake-up included, allocs/op being the waiter's queue entry and channel; VersionRead is one ReadBegin/Validate pair"

  cbtree
  "./internal/cbtree"
  'BenchmarkTree'
  "Tree{Search,Locate,Insert,Delete,RangeLeaves} are single-goroutine operations on a bulk-loaded 200k-key tree of capacity 64 (fill .69) under each of the four algorithms, which share one node kernel and differ only in locking protocol: Search draws stored keys uniformly, Search1M is Search on 1M keys (a lone descent that misses the cache at most levels), SearchFat is Search on 30k keys in one capacity-65536 leaf (the fat-root shape: the node search halves the leaf down to blink.ScanRun keys, then scans), Locate is Search 32 keys at a time, their descents run side by side and each key answered from its hint (per key; the locking algorithms leave the hints empty and search from the root), Insert adds one new key between every two stored ones in a scattered order and rebuilds the tree off the clock after each pass (every leaf splits once per pass: its B/op is the splits' share per op), Delete removes stored keys in a scattered order and refills off the clock, RangeLeaves scans 100 consecutive stored keys (keys/op)"
)

for ((i = 0; i < ${#passes[@]}; i += 4)); do
  name=${passes[i]} pkgs=${passes[i + 1]} bench=${passes[i + 2]} note=${passes[i + 3]}
  # shellcheck disable=SC2086 # pkgs is a list
  go test $pkgs -run '^$' -bench "$bench" \
    -benchmem -benchtime "$benchtime" -count "$count" | tee "$rawdir/BENCH_$name.txt"
  go run ./cmd/benchjson \
    -note "scripts/bench.sh: count=$count benchtime=$benchtime; $note" \
    <"$rawdir/BENCH_$name.txt" >"$dir/BENCH_$name.json"
  echo "wrote $dir/BENCH_$name.json"
done
