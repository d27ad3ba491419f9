#!/usr/bin/env bash
# Serving-path benchmark baseline: runs the protocol codec, batch
# dispatch, and end-to-end loopback serving benchmarks — including the
# BenchmarkServeLoopbackSharded shard-count sweep (N=1,2,4,8 on the
# mixed depth-128 workload) — and writes the tracked JSON baseline: the
# median of -count runs of every counted per-op unit (allocs/op, B/op,
# keys/op, ops/fsync), which repeat from machine to machine. Timings
# (ns/op, sampled p50/p99 response times) are in the raw text only. The
# sharded sweep uses distinct benchmark names, so the N=1 ServeLoopback
# baseline stays benchstat-comparable across runs that predate sharding.
#
#   scripts/bench.sh                 # full baseline, -count=3 (~6 min)
#   scripts/bench.sh -quick          # one short pass, for CI smoke
#
# The raw `go test -bench` text (benchstat-comparable) goes to stdout
# and to $BENCH_RAW if set; the JSON summary goes to
# results/BENCH_serving.json (override with $BENCH_OUT).
#
# A second pass does the same for the storage layers under the disk
# engine — the disk tree's point operations with the pool fitting and
# spilling, the oplog's append and group commit, the page file's read and
# write, and the durable serving path that sits on all three (disk engine,
# commit pipeline, one fsync per group) — into results/BENCH_storage.json
# (override with $BENCH_STORAGE_OUT; raw text to $BENCH_STORAGE_RAW), and a
# third for the lock layer under the in-memory trees — the FCFS lock's two
# paths, its contended hand-off, the version word — into
# results/BENCH_lock.json (override with $BENCH_LOCK_OUT; raw text to
# $BENCH_LOCK_RAW), and a fourth for the in-memory tree itself — search,
# insert, delete and leaf-chain scan under each of the four algorithms —
# into results/BENCH_cbtree.json (override with $BENCH_CBTREE_OUT; raw
# text to $BENCH_CBTREE_RAW): one tracked JSON per layer group, gated on
# allocs/op by `benchjson -compare` in CI.
set -euo pipefail

cd "$(dirname "$0")/.."

count=3
benchtime=1s
if [[ "${1:-}" == "-quick" ]]; then
  count=1
  benchtime=0.2s
fi
out="${BENCH_OUT:-results/BENCH_serving.json}"
raw="${BENCH_RAW:-$(mktemp)}"

go test ./internal/server -run '^$' \
  -bench 'BenchmarkAppendRequest|BenchmarkAppendResponse|BenchmarkReadRequest|BenchmarkReadResponse|BenchmarkBatchDispatch|BenchmarkServeLoopback|BenchmarkScanLoopback|BenchmarkReplicatedGet' \
  -benchmem -benchtime "$benchtime" -count "$count" | tee "$raw"

go run ./cmd/benchjson \
  -note "scripts/bench.sh: count=$count benchtime=$benchtime; ServeLoopback is a mixed get/put/del pipeline over loopback TCP, client and server in one process, swept over all four algorithms; ServeLoopbackReadHeavy is the 87.5%-get mix head-to-head between link-type and olc (latch-free reads); ServeLoopbackSharded sweeps the hash-routed shard count on the depth-128 mix; ScanLoopback is one paged range-scan request per op (fan-out + k-way merge), keys/op = page fill; ReplicatedGet is one bounded-staleness get through a ReplicaSet against a disk leader plus N oplog-streaming followers, writes quiesced" \
  <"$raw" >"$out"
echo "wrote $out"

out="${BENCH_STORAGE_OUT:-results/BENCH_storage.json}"
raw="${BENCH_STORAGE_RAW:-$(mktemp)}"

go test ./internal/diskbtree ./internal/journal ./internal/pagestore ./internal/server -run '^$' \
  -bench 'BenchmarkDiskTree|BenchmarkJournal|BenchmarkPagestore|BenchmarkServeDurable' \
  -benchmem -benchtime "$benchtime" -count "$count" | tee "$raw"

go run ./cmd/benchjson \
  -note "scripts/bench.sh: count=$count benchtime=$benchtime; DiskTree{Search,Insert,Delete} are point operations on a bulk-loaded, non-durable 200k-key tree whose buffer pool holds all of it (fit) or a fifth (spill); JournalAppend is one logged mutation plus its share of a 25-mutation group commit over a file layer that swallows writes and syncs (the journal's own cost), JournalCommit one such batch and its commit on a real file (the tail's write and the fsync); PagestoreReadInto/WritePage are the buffer pool's two calls on a page-cache-resident file; ServeDurable is the paper mix from 2 pipelined connections (depth 128) against the disk engine on a real file, through the commit pipeline, ops/fsync = mutations covered per group-commit fsync, allocs/op covering client and server" \
  <"$raw" >"$out"
echo "wrote $out"

out="${BENCH_LOCK_OUT:-results/BENCH_lock.json}"
raw="${BENCH_LOCK_RAW:-$(mktemp)}"

go test ./internal/lock -run '^$' \
  -bench 'BenchmarkFCFS|BenchmarkVersion' \
  -benchmem -benchtime "$benchtime" -count "$count" | tee "$raw"

go run ./cmd/benchjson \
  -note "scripts/bench.sh: count=$count benchtime=$benchtime; FCFS{RLock,Lock} and VersionLockV are one uncontended acquire/release pair on a lock with no probe, with a probe whose gate is closed (a served tree's locks between measurement epochs: the fast path, one compare-and-swap each way) and with a listening probe (inside an epoch: the internal mutex, one clock read and the reports each way); FCFSParallelRLock is the same shared pair from 2 and from GOMAXPROCS goroutines on one lock (the root's case; its ns/op depends on whether the goroutines run at once); FCFSHandoff is one release that grants a queued request, writer to writer and writer to a run of two readers, wake-up included, allocs/op being the waiter's queue entry and channel; VersionRead is one ReadBegin/Validate pair" \
  <"$raw" >"$out"
echo "wrote $out"

out="${BENCH_CBTREE_OUT:-results/BENCH_cbtree.json}"
raw="${BENCH_CBTREE_RAW:-$(mktemp)}"

go test ./internal/cbtree -run '^$' \
  -bench 'BenchmarkTree' \
  -benchmem -benchtime "$benchtime" -count "$count" | tee "$raw"

go run ./cmd/benchjson \
  -note "scripts/bench.sh: count=$count benchtime=$benchtime; Tree{Search,Insert,Delete,RangeLeaves} are single-goroutine operations on a bulk-loaded 200k-key tree of capacity 64 (fill .69) under each of the four algorithms, which share one node kernel and differ only in locking protocol: Search draws stored keys uniformly, Insert adds one new key between every two stored ones in a scattered order and rebuilds the tree off the clock after each pass (every leaf splits once per pass: its B/op is the splits' share per op), Delete removes stored keys in a scattered order and refills off the clock, RangeLeaves scans 100 consecutive stored keys (keys/op)" \
  <"$raw" >"$out"
echo "wrote $out"
