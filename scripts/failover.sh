#!/usr/bin/env bash
# Survivable-failover harness: the end-to-end check that no write the
# LEADER acknowledged is ever lost to losing the leader.
#
# Two btserved nodes run on disk engines with semi-synchronous
# replication (-repl-acks 1): the leader acknowledges a mutation only
# after the follower has applied and acked it, so an ack is a promise
# the write exists on both nodes. Each cycle drives the leader with
# `btload -audit` (recording every ACKED write), kill -9s the leader
# mid-load, promotes the follower over POST /promote, and replays the
# whole accumulated audit file against the promoted node: every acked
# write must be present. The loss budget is zero.
#
# Roles then rotate: the promoted node keeps leading the next cycle and
# the killed node rejoins as a follower — its on-disk state carries the
# dead lineage's epoch (plus any unacked writes the new leader never
# saw), so the rejoin exercises the epoch-mismatch path: full snapshot
# resync from the new leader, then tail. The harness waits for the
# rejoined follower to report zero lag before the next kill.
#
# Before the first kill a short `btload -replicas` pass splits a mixed
# load across the pair — mutations to the leader, bounded-staleness reads
# to the follower under the read floor the leader's acks raise — and the
# follower must answer reads with no errors. After the last cycle the
# final leader must acknowledge a write burst through its follower's acks,
# and both survivors get SIGTERM and must drain and exit 0: a promoted
# node's clean shutdown is checked here and nowhere else. Last, a pass on
# their disks stops the follower, writes until the leader seals what the
# follower misses into segments, and requires the restarted follower to
# catch up from them without a snapshot; it ends by restarting a caught-up
# follower with -resync, which must cost the leader one snapshot per shard.
#
#   scripts/failover.sh             # 3 cycles
#   CYCLES=5 scripts/failover.sh
#   SHARDS=4 scripts/failover.sh    # sharded engines, one oplog each
set -euo pipefail

cd "$(dirname "$0")/.."
cycles="${CYCLES:-3}"
shards="${SHARDS:-1}"
bin="$(mktemp -d)"
trap 'kill -9 "${pid_a:-}" "${pid_b:-}" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/btserved" ./cmd/btserved
go build -o "$bin/btload" ./cmd/btload

# Fixed per-node addresses; the leader role moves between the nodes.
declare -A listen=([a]=127.0.0.1:9480 [b]=127.0.0.1:9485)
declare -A http=([a]=127.0.0.1:9481 [b]=127.0.0.1:9486)
declare -A repl=([a]=127.0.0.1:9482 [b]=127.0.0.1:9487)
mkdir -p "$bin/a" "$bin/b"
audit="$bin/audit.log"

# At SHARDS>1 btserved treats -path as a directory (one shard-N/tree.db
# under it); at 1 it is the data file itself.
db_path() {
  if [ "$shards" -gt 1 ]; then echo "$bin/$1"; else echo "$bin/$1/tree.db"; fi
}

# start_node NODE [FOLLOW_NODE] — leader when no follow target. Both
# roles pass -repl-listen: a follower's hub listener sits pre-opened
# until promotion. The cycles run semi-sync (nodeflags, -repl-acks 1),
# which is what turns the audit's acks into cross-node promises.
start_node() {
  local n="$1" followflags=()
  [ $# -gt 1 ] && followflags=(-follow "${repl[$2]}")
  "$bin/btserved" -engine disk -path "$(db_path "$n")" -shards "$shards" -cap 64 \
    -listen "${listen[$n]}" -http "${http[$n]}" -repl-listen "${repl[$n]}" \
    "${nodeflags[@]}" "${followflags[@]}" \
    >>"$bin/$n.log" 2>&1 &
  eval "pid_$n=\$!"
  local pid; eval "pid=\$pid_$n"
  for _ in $(seq 100); do
    curl -sf "http://${http[$n]}/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$pid" 2>/dev/null || { echo "FAIL: node $n died on startup" >&2; tail "$bin/$n.log" >&2; exit 1; }
    sleep 0.1
  done
  echo "FAIL: node $n never became healthy" >&2; exit 1
}

# wait_caught_up LEADER_NODE — poll the leader's /metrics until its one
# follower is connected with zero sequence lag (covers both initial
# snapshot resync and post-rejoin catch-up).
wait_caught_up() {
  local n="$1"
  for _ in $(seq 600); do
    if curl -sf "http://${http[$n]}/metrics" 2>/dev/null \
        | grep -q 'follower id=.*connected=true.*lag_seqs=0'; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: follower never caught up to leader $n" >&2
  curl -s "http://${http[$n]}/metrics" | grep -E '^replication|^follower' >&2 || true
  tail "$bin/a.log" "$bin/b.log" >&2
  exit 1
}

# stop_node NODE — SIGTERM; the node must drain and exit 0.
stop_node() {
  local pid; eval "pid=\$pid_$1"
  kill -TERM "$pid"
  wait "$pid" || { echo "FAIL: node $1 exited nonzero on SIGTERM" >&2; tail "$bin/$1.log" >&2; exit 1; }
  tail -1 "$bin/$1.log" | grep -q drained || {
    echo "FAIL: node $1 did not drain cleanly" >&2; tail "$bin/$1.log" >&2; exit 1; }
}

# metric NODE NAME — NAME's value on the first /metrics line that has it
# (at SHARDS>1 the merged line, ahead of the per-shard ones).
metric() {
  curl -sf "http://${http[$1]}/metrics" | grep -m1 -oE "(^| )$2=[0-9]+" | cut -d= -f2
}

nodeflags=(-repl-acks 1 -repl-ack-timeout 10s)
leader=a; follower=b
start_node "$leader"
start_node "$follower" "$leader"

delays=(0.60 1.10 0.45 0.90 0.75 1.30 0.50 1.00)
failover_times=()

for ((i = 0; i < cycles; i++)); do
  wait_caught_up "$leader"

  if [ "$i" -eq 0 ]; then
    # Bounded-staleness reads on the real binaries. Semi-sync means every
    # write this pass gets acked is already on the follower, so a read
    # carrying the floor from that ack is served, not refused.
    "$bin/btload" -addr "${listen[$leader]}" -replicas "${listen[$follower]}" \
      -conns 2 -depth 16 -duration 2s >"$bin/replicas.out" 2>&1 || {
      echo "FAIL: btload -replicas exited nonzero" >&2; tail "$bin/replicas.out" >&2; exit 1; }
    awk -v shards="$shards" '
      /^replica / { gets = $3; errs = $(NF-1); seen = 1 }
      /^read floors at exit/ { sub(/.*\[/, ""); sub(/\].*/, ""); nf = split($0, f, " "); for (k in f) if (f[k] + 0 > 0) raised = 1 }
      END {
        if (!seen)        { print "FAIL: btload -replicas printed no per-replica line" > "/dev/stderr"; exit 1 }
        if (gets + 0 <= 0) { print "FAIL: follower served " gets " gets" > "/dev/stderr"; exit 1 }
        if (errs + 0 != 0) { print "FAIL: " errs " follower read errors" > "/dev/stderr"; exit 1 }
        if (nf != shards || !raised) { print "FAIL: read floors: " nf " shards, want " shards " with one raised" > "/dev/stderr"; exit 1 }
        print "failover: replica reads ok: follower served " gets " gets, 0 errors, floors raised on " nf " shard(s)"
      }' "$bin/replicas.out" || { cat "$bin/replicas.out" >&2; exit 1; }
  fi

  "$bin/btload" -addr "${listen[$leader]}" -audit "$audit" \
    -keystart "$((i * 10000000))" -conns 4 -depth 64 -duration 30s \
    >>"$bin/load.log" 2>&1 &
  lpid=$!
  sleep "${delays[$((i % ${#delays[@]}))]}"

  t0=$(date +%s%N)
  eval "kill -9 \$pid_$leader"
  eval "wait \$pid_$leader 2>/dev/null || true"
  wait "$lpid" || { echo "FAIL: btload did not survive the kill (cycle $i)" >&2; tail "$bin/load.log" >&2; exit 1; }

  out="$(curl -sf -X POST "http://${http[$follower]}/promote")" || {
    echo "FAIL: promote refused (cycle $i): $out" >&2
    tail "$bin/$follower.log" >&2
    exit 1
  }
  case "$out" in promoted\ epoch=*) ;; *)
    echo "FAIL: unexpected promote response: $out" >&2; exit 1 ;;
  esac
  # Promoted-and-serving: healthz must report the leader role.
  for _ in $(seq 100); do
    curl -sf "http://${http[$follower]}/healthz" 2>/dev/null | grep -q 'role=leader' && break
    sleep 0.05
  done
  t1=$(date +%s%N)
  failover_times+=("$(((t1 - t0) / 1000000))")

  # Zero-loss check: every write ever acked must live on the promoted
  # node. The -repl-acks 1 barrier is what makes this exact — an acked
  # write was applied by this node before its ack left the old leader.
  "$bin/btload" -addr "${listen[$follower]}" -audit-verify "$audit" \
    -conns 4 -depth 128 >>"$bin/verify.log" 2>&1 || {
    echo "FAIL: acked writes lost across failover (cycle $i)" >&2
    tail "$bin/verify.log" "$bin/$follower.log" >&2
    exit 1
  }

  # Rotate: the killed node rejoins as a follower of the new leader.
  # Its disk still holds the dead lineage (stale epoch, possibly writes
  # the new leader never acked) — the epoch mismatch forces a full
  # snapshot resync, discarding the divergent tail.
  old=$leader; leader=$follower; follower=$old
  start_node "$follower" "$leader"
done

wait_caught_up "$leader"
acked="$(wc -l <"$audit")"
floor="$((cycles * 50))"
[ "$acked" -ge "$floor" ] || {
  echo "FAIL: only $acked acked writes across $cycles cycles (floor $floor) — the harness is not exercising the ack path" >&2
  exit 1
}
# The final leader served the last rejoin, whose stale epoch must have
# forced a snapshot resync — visible on its hub counters.
curl -s "http://${http[$leader]}/metrics" | grep -qE '^replication .*snapshots=[1-9]' || {
  echo "FAIL: no snapshot resync observed — the rejoin path was not exercised" >&2
  curl -s "http://${http[$leader]}/metrics" | grep '^replication' >&2 || true
  exit 1
}

# The semi-sync barrier on a process that exits cleanly (a kill -9ed one
# keeps no coverage counters, scripts/reach.sh): writes to the final leader
# with its follower attached are acknowledged through the follower's acks,
# and none is shed.
"$bin/btload" -addr "${listen[$leader]}" -qs 0 -qi 1 -qd 0 -n 2000 -conns 2 -depth 16 \
  >"$bin/semisync.out" 2>&1 || {
  echo "FAIL: btload against the final leader exited nonzero" >&2; tail "$bin/semisync.out" >&2; exit 1; }
if grep '^shed:' "$bin/semisync.out" >&2; then
  echo "FAIL: the final leader shed writes with its follower attached" >&2; exit 1
fi

# Both survivors drain on SIGTERM: the follower first, so the leader's
# hub closes with no stream attached, then the promoted leader itself.
stop_node "$follower"
stop_node "$leader"

# Segment catch-up, on the survivors' disks. A stopped follower stays
# registered with the hub, holding the leader's retention floor where it
# stopped, so the leader's checkpoints, its shutdown's included, seal the
# records it misses into segments instead of truncating them. The restarted
# follower must catch up from those segments, not from a snapshot. A leader
# reopened from its disk deletes every segment at recovery: it leads a new
# epoch, which no follower could tail them into.
# Semi-sync would hold every write made with the follower stopped for the
# whole ack timeout, so this pass acknowledges asynchronously, and it
# checkpoints every 64 mutations.
nodeflags=(-checkpoint-ops 64)
seal_behind() { # stop the follower, then write until the leader seals
  stop_node "$follower"
  "$bin/btload" -addr "${listen[$leader]}" -qs 0 -qi 1 -qd 0 -n "$((shards * 256))" -conns 4 -depth 64 \
    >"$bin/seal.out" 2>&1 || {
    echo "FAIL: btload against the leader with its follower stopped exited nonzero" >&2; tail "$bin/seal.out" >&2; exit 1; }
  segs="$(metric "$leader" retained_segments)"
  [ "${segs:-0}" -gt 0 ] || {
    echo "FAIL: no segment sealed while the follower was stopped" >&2; curl -s "http://${http[$leader]}/metrics" | grep '^seqs' >&2; exit 1; }
}
segfiles() { find "$bin/$1" -name '*.seg-*' | wc -l; }
start_node "$leader"
start_node "$follower" "$leader" # a new epoch: the follower resyncs
wait_caught_up "$leader"
seal_behind
snaps="$(metric "$leader" snapshots)"
start_node "$follower" "$leader"
wait_caught_up "$leader"
[ "$(metric "$leader" snapshots)" = "$snaps" ] || {
  echo "FAIL: the restarted follower took a snapshot, not the $segs retained segment(s)" >&2; exit 1; }
caught_up_from="$segs"
seal_behind
stop_node "$leader"
kept="$(segfiles "$leader")"
[ "$kept" -gt 0 ] || { echo "FAIL: the leader's shutdown dropped the segments its stopped follower needs" >&2; exit 1; }
start_node "$leader"
[ "$(segfiles "$leader")" -eq 0 ] || { echo "FAIL: the reopened leader kept segments of an epoch it no longer leads" >&2; exit 1; }
# -resync's promise: a follower that could tail (it caught up in this
# leader's epoch) claims no position when restarted with the flag, so the
# leader snapshots every shard.
start_node "$follower" "$leader" # a new epoch: the follower resyncs
wait_caught_up "$leader"
stop_node "$follower"
snaps="$(metric "$leader" snapshots)"
nodeflags=(-checkpoint-ops 64 -resync)
start_node "$follower" "$leader"
# The stopped follower's registration can still read connected with zero
# lag (the hub notices a closed stream at its next write), so wait for the
# snapshots themselves before the caught-up check.
for _ in $(seq 100); do
  [ "$(metric "$leader" snapshots)" -ge "$((snaps + shards))" ] && break
  sleep 0.1
done
wait_caught_up "$leader"
resynced="$(($(metric "$leader" snapshots) - snaps))"
[ "$resynced" -eq "$shards" ] || {
  echo "FAIL: a -resync restart cost $resynced snapshot(s), want one per shard ($shards)" >&2; exit 1; }
stop_node "$follower"
stop_node "$leader"

echo "failover: $cycles kill-the-leader cycles at shards=$shards, $acked acked writes, zero lost"
echo "failover: promote-to-serving times (ms): ${failover_times[*]}"
echo "failover: segments: $caught_up_from sealed behind a stopped follower and caught up from without a snapshot; $kept kept through a shutdown, dropped on reopen"
echo "failover: -resync: $resynced snapshot(s), one per shard"
