#!/usr/bin/env bash
# Acked-durability kill harness: the end-to-end check that no write the
# server acknowledged is ever lost to a crash.
#
# Each cycle starts btserved on the disk engine (recovering whatever the
# previous kill left behind), drives it with `btload -audit` — a
# puts-only workload that appends every ACKNOWLEDGED write to an audit
# file — and kill -9s the server mid-load. btload must absorb the dead
# connections and exit 0. After all cycles a final server runs recovery
# one last time and `btload -audit-verify` replays the audit file as
# gets: every acked write must be present with its recorded value. The
# loss budget is zero.
#
# Mild network chaos (injected latency + resets) runs on the server's
# listener throughout, so the kills land while connections are already
# misbehaving. The reset rate is low enough that the audit load (which
# ends a connection at its first error) outlives the longest kill delay:
# every kill must find btload still running, or the cycle killed an idle
# server and audited nothing past its first moments.
#
#   scripts/crash.sh              # 25 cycles, ~45 s
#   CYCLES=5 scripts/crash.sh     # quicker local run
#   SHARDS=4 scripts/crash.sh     # sharded disk engine: one journal per
#                                 # shard, all must replay on recovery
#   CKPT_KILL=1 scripts/crash.sh  # retune the server to checkpoint
#                                 # constantly (low threshold) and time
#                                 # each kill into the checkpoint window,
#                                 # so recovery runs against half-written
#                                 # cut pages / map / meta page / oplog
#                                 # trim left by a mid-checkpoint
#                                 # death
set -euo pipefail

cd "$(dirname "$0")/.."
cycles="${CYCLES:-25}"
shards="${SHARDS:-1}"
ckptkill="${CKPT_KILL:-0}"
bin="$(mktemp -d)"
trap 'kill -9 "${spid:-}" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/btserved" ./cmd/btserved
go build -o "$bin/btload" ./cmd/btload

listen=127.0.0.1:9470
http=127.0.0.1:9471
# At SHARDS>1 btserved treats -path as a directory and lays out one
# shard-N/tree.db under it; at 1 it is the legacy single db file.
if [ "$shards" -gt 1 ]; then db="$bin/db"; else db="$bin/tree.db"; fi
audit="$bin/audit.log"
# Each connection draws its own fault stream, so the four audit
# connections reset at unrelated times: at seed 11 under preset=0.0001,
# at their 8,154th, 15,005th, 20,681st and 30,826th read or write (one
# draw each), not all together.
chaos='latency=50us,preset=0.0001,seed=11'

# start_server [chaos-spec] — no argument serves a clean listener (the
# final verification pass must not have its gets reset mid-replay).
start_server() {
  local chaosflags=() ckptflags=()
  [ $# -gt 0 ] && chaosflags=(-chaos "$1")
  [ "$ckptkill" = 1 ] && ckptflags=(-checkpoint-ops 2000)
  "$bin/btserved" -engine disk -path "$db" -shards "$shards" -cap 64 \
    -listen "$listen" -http "$http" "${chaosflags[@]}" "${ckptflags[@]}" \
    >>"$bin/serv.log" 2>&1 &
  spid=$!
  for _ in $(seq 100); do
    curl -sf "http://$http/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$spid" 2>/dev/null || { echo "FAIL: btserved died on startup" >&2; tail "$bin/serv.log" >&2; exit 1; }
    sleep 0.1
  done
  echo "FAIL: btserved never became healthy" >&2; exit 1
}

# Deterministic "random-ish" kill delays, cycling so kills land at
# different phases of the load: mid-rampup, steady state, etc.
delays=(0.30 0.70 0.45 1.00 0.25 0.85 0.55 0.40 0.90 0.60)
inside=0 # CKPT_KILL=1: kills that found a checkpoint writing its pages
idle=0   # kills that found the load already gone
idle_budget=$((cycles / 10))

for ((i = 0; i < cycles; i++)); do
  start_server "$chaos"
  # A disjoint key range per cycle keeps every audited write unique.
  "$bin/btload" -addr "$listen" -audit "$audit" -keystart "$((i * 10000000))" \
    -conns 4 -depth 128 -duration 30s >>"$bin/load.log" 2>&1 &
  lpid=$!
  if [ "$ckptkill" = 1 ]; then
    # Kill the instant /metrics shows a checkpoint writing its pages
    # (chunks_done > 0). Polling starts with the load: a checkpoint now
    # writes only the pages dirtied since the last one, a few
    # milliseconds' work. If none shows within the budget, the fallback
    # kill still lands near a commit: the 2000-mutation threshold keeps
    # checkpoints nearly back-to-back under load. The count of kills that
    # met one is printed at the end.
    for _ in $(seq 150); do
      m="$(curl -sf "http://$http/metrics" 2>/dev/null | grep '^checkpoint ' || true)"
      case "$m" in
      *"chunks_done=0 "*) ;;
      *chunks_done=*) inside=$((inside + 1)); break ;;
      esac
      sleep 0.01
    done
  else
    sleep "${delays[$((i % ${#delays[@]}))]}"
  fi
  kill -0 "$lpid" 2>/dev/null || idle=$((idle + 1))
  kill -9 "$spid"
  wait "$spid" 2>/dev/null || true
  wait "$lpid" || { echo "FAIL: btload did not survive the kill (cycle $i)" >&2; tail "$bin/load.log" >&2; exit 1; }
done

acked="$(wc -l <"$audit")"
[ "$idle" -le "$idle_budget" ] || {
  echo "FAIL: $idle of $cycles kills found btload already gone (budget $idle_budget) — the kills landed on an idle server" >&2
  exit 1
}
floor="$((cycles * 50))"
[ "$acked" -ge "$floor" ] || {
  echo "FAIL: only $acked acked writes across $cycles cycles (floor $floor) — the harness is not exercising the ack path" >&2
  exit 1
}

# Final recovery, then replay the whole audit file. Zero-loss budget.
start_server
grep -q 'ops recovered' "$bin/serv.log" || {
  echo "FAIL: server never reported recovery" >&2; exit 1; }
"$bin/btload" -addr "$listen" -audit-verify "$audit" -conns 4 -depth 128 | tee "$bin/verify.out" || {
  echo "FAIL: acked writes lost after $cycles kill -9 cycles" >&2
  tail "$bin/serv.log" >&2
  exit 1
}

kill -TERM "$spid"
wait "$spid" || { echo "FAIL: final btserved exited nonzero" >&2; exit 1; }

mode="random kills"
[ "$ckptkill" = 1 ] && mode="kills timed into the checkpoint window, $inside of them inside one"
echo "crash: $cycles kill -9 cycles ($mode) at shards=$shards, $idle on an idle server, $acked acked writes ($((acked / cycles)) per cycle), zero lost"
