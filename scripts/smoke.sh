#!/usr/bin/env bash
# Smoke test for the btserved/btload serving path: for each of the four
# concurrency-control algorithms, start a server, push a pipelined burst
# through it with btload, then scrape /metrics and assert the per-level
# telemetry saw the traffic (nonzero arrival rate and a populated rho_w
# column). Exercises the real binaries over loopback TCP, not the test
# harness.
#
# First, btserved must refuse bad and deleted flags with exit 2, and
# btload bad values likewise.
#
#   scripts/smoke.sh            # ~20 s, four server runs
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
trap 'kill "${spid:-}" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/btserved" ./cmd/btserved
go build -o "$bin/btload" ./cmd/btload
go build -o "$bin/btquery" ./cmd/btquery

listen=127.0.0.1:9470
http=127.0.0.1:9471

# The flag surface: a bad value is refused at parse with exit 2 and one
# line saying why, and a deleted flag is refused as undefined; neither
# may panic.
for args in "-cap 2" "-repl-ack-timeout -1s" "-depth 0" "-depth -1" "-max-conns -1" "-prefill -1" "-repl-acks -1" \
  "-fsync op" "-governor-rho 0.6" "-max-batch 8" "-pprof-block-rate 10000" "-pprof-mutex-frac 5" "-checkpoint-chunk 256"; do
  code=0
  timeout 10 "$bin/btserved" $args -listen "$listen" -http "" 2>"$bin/flag.err" || code=$?
  [ "$code" -eq 2 ] || { echo "FAIL(flags): btserved $args exited $code, want 2" >&2; cat "$bin/flag.err" >&2; exit 1; }
  ! grep -q panic "$bin/flag.err" || { echo "FAIL(flags): btserved $args panicked" >&2; cat "$bin/flag.err" >&2; exit 1; }
  case "$args" in
  "-cap "* | "-repl-ack-timeout "* | "-depth "* | "-max-conns "* | "-prefill "* | "-repl-acks "*)
    [ "$(wc -l <"$bin/flag.err")" -eq 1 ] || {
      echo "FAIL(flags): btserved $args printed more than one line" >&2; cat "$bin/flag.err" >&2; exit 1; } ;;
  *)
    grep -q "flag provided but not defined: ${args%% *}" "$bin/flag.err" || {
      echo "FAIL(flags): btserved $args was not refused as undefined" >&2; cat "$bin/flag.err" >&2; exit 1; } ;;
  esac
  echo "ok: btserved $args refused: $(head -1 "$bin/flag.err")"
done
# btload likewise refuses, before it dials, a run that would measure
# nothing and a value it would otherwise silently rewrite.
for args in "-n -5" "-duration 0s" "-n -5 -duration 0s" "-scan-span -1" "-scan-limit -1" "-op-timeout -1s"; do
  code=0
  timeout 10 "$bin/btload" $args -addr "$listen" >/dev/null 2>"$bin/flag.err" || code=$?
  [ "$code" -eq 2 ] || { echo "FAIL(flags): btload $args exited $code, want 2" >&2; cat "$bin/flag.err" >&2; exit 1; }
  [ "$(wc -l <"$bin/flag.err")" -eq 1 ] || {
    echo "FAIL(flags): btload $args printed more than one line" >&2; cat "$bin/flag.err" >&2; exit 1; }
  echo "ok: btload $args refused: $(head -1 "$bin/flag.err")"
done

for alg in lock-coupling optimistic link-type olc; do
  echo "== $alg =="
  "$bin/btserved" -alg "$alg" -listen "$listen" -http "$http" -prefill 20000 \
    2>"$bin/serv-$alg.log" &
  spid=$!

  # Wait for both listeners to come up.
  for _ in $(seq 50); do
    curl -sf "http://$http/metrics" >/dev/null 2>&1 && break
    sleep 0.2
  done

  "$bin/btload" -addr "$listen" -conns 2 -depth 32 -duration 2s

  metrics="$(curl -sf "http://$http/metrics")"
  echo "$metrics" | grep -E '^level=' || {
    echo "FAIL($alg): /metrics has no per-level telemetry" >&2; exit 1; }

  # The burst is write-heavy (paper mix), so the leaf level must report a
  # nonzero writer arrival rate and a nonzero writer utilization rho_w.
  echo "$metrics" | awk -F'[ =]' '
    /^level=1 / {
      for (i = 1; i < NF; i++) {
        if ($i == "lambda_w") lw = $(i+1)
        if ($i == "rho_w")    rw = $(i+1)
      }
      found = 1
    }
    END {
      if (!found)   { print "FAIL: no level=1 line" > "/dev/stderr"; exit 1 }
      if (lw+0 <= 0) { print "FAIL: leaf lambda_w=" lw " not > 0" > "/dev/stderr"; exit 1 }
      if (rw+0 <= 0) { print "FAIL: leaf rho_w=" rw " not > 0" > "/dev/stderr"; exit 1 }
      print "ok: leaf lambda_w=" lw " rho_w=" rw
    }'
  echo "$metrics" | grep -E '^saturation ' || {
    echo "FAIL($alg): /metrics has no saturation line" >&2; exit 1; }
  # The olc engine must export its latch-free read telemetry.
  if [ "$alg" = olc ]; then
    echo "$metrics" | grep -E '^tree .*read_restarts=' >/dev/null || {
      echo "FAIL(olc): /metrics tree line has no read_restarts counter" >&2; exit 1; }
  fi
  curl -sf "http://$http/debug/model" | grep -q 'qmodel evaluated' || {
    echo "FAIL($alg): /debug/model did not evaluate the model" >&2; exit 1; }

  kill -TERM "$spid"
  wait "$spid" || { echo "FAIL($alg): btserved exited nonzero" >&2; exit 1; }
  grep -q drained "$bin/serv-$alg.log" || {
    echo "FAIL($alg): btserved did not drain cleanly" >&2; exit 1; }
done

# Sharded pass: the same burst against a 4-shard server, with the
# secondary index and the profiling endpoints on and scan traffic in the
# mix. The merged view must still carry the per-level telemetry, and
# every shard must report its own rho_w gauge line — the router spreading
# traffic across all four is what makes the per-shard gauges nonempty.
shards=4
echo "== link-type -shards=$shards -index =="
"$bin/btserved" -alg link-type -shards "$shards" -index -pprof -listen "$listen" -http "$http" -prefill 20000 \
  2>"$bin/serv-sharded.log" &
spid=$!
for _ in $(seq 50); do
  curl -sf "http://$http/metrics" >/dev/null 2>&1 && break
  sleep 0.2
done

"$bin/btload" -addr "$listen" -conns 2 -depth 32 -duration 2s -scenario scan-mixed

# Query path end to end: paged scans with token-following, a seek, and a
# secondary-index lookup, all through btquery against the live server.
# Prefill key i is i*2654435761 with value i, so looking up value 7 must
# return its deterministic primary key.
count_out="$("$bin/btquery" -addr "$listen" -limit 128 count 0 1099511627776)"
echo "$count_out"
keys=$(echo "$count_out" | awk '{print $1}')
pages=$(echo "$count_out" | awk '{print $(NF-1)}')
[ "$keys" -ge 15000 ] || { echo "FAIL(query): full-range count saw $keys keys, want >= 15000" >&2; exit 1; }
[ "$pages" -ge 2 ] || { echo "FAIL(query): count used $pages pages, token paging untested" >&2; exit 1; }
# Output is captured before it is matched: btquery prints a summary line
# after the keys, and `grep -q` leaving a pipe early would kill it with
# SIGPIPE, which pipefail then reports as a failed lookup.
seek_out="$("$bin/btquery" -addr "$listen" seek 0)"
grep -Eq '^[0-9]+ [0-9]+$' <<<"$seek_out" || {
  echo "FAIL(query): seek 0 found no key" >&2; exit 1; }
lookup_out="$("$bin/btquery" -addr "$listen" lookup 7)"
grep -q '^18581050327$' <<<"$lookup_out" || {
  echo "FAIL(query): lookup 7 missing prefill key 18581050327" >&2; exit 1; }

metrics="$(curl -sf "http://$http/metrics")"
echo "$metrics" | grep -E '^level=' >/dev/null || {
  echo "FAIL(sharded): /metrics has no merged per-level telemetry" >&2; exit 1; }
for sh in 0 1 2 3; do
  echo "$metrics" | grep -E "^shard=$sh " >/dev/null || {
    echo "FAIL(sharded): /metrics has no gauge line for shard $sh" >&2; exit 1; }
done
echo "$metrics" | awk -F'[ =]' '
  /^shard=/ {
    for (i = 1; i < NF; i++) if ($i == "rate") r = $(i+1)
    if (r + 0 <= 0) { print "FAIL: shard line with zero rate: " $0 > "/dev/stderr"; exit 1 }
    n++
  }
  END {
    if (n != 4) { print "FAIL: " n " shard gauge lines, want 4" > "/dev/stderr"; exit 1 }
    print "ok: all 4 shards served traffic"
  }'
# The query traffic above (btload scans + btquery) must show up in the
# aggregate query counters, and the index must report itself populated.
echo "$metrics" | grep -E '^query ' || {
  echo "FAIL(sharded): /metrics has no query line" >&2; exit 1; }
echo "$metrics" | awk -F'[ =]' '
  /^query / {
    for (i = 1; i < NF; i++) {
      if ($i == "scan_pages")   sp = $(i+1)
      if ($i == "lookup_pages") lp = $(i+1)
      if ($i == "indexed")      ix = $(i+1)
      if ($i == "index_keys")   ik = $(i+1)
    }
    found = 1
  }
  END {
    if (!found)     { print "FAIL: no query line" > "/dev/stderr"; exit 1 }
    if (sp+0 <= 0)  { print "FAIL: scan_pages=" sp " not > 0" > "/dev/stderr"; exit 1 }
    if (lp+0 <= 0)  { print "FAIL: lookup_pages=" lp " not > 0" > "/dev/stderr"; exit 1 }
    if (ix != "true") { print "FAIL: indexed=" ix ", want true" > "/dev/stderr"; exit 1 }
    if (ik+0 <= 0)  { print "FAIL: index_keys=" ik " not > 0" > "/dev/stderr"; exit 1 }
    print "ok: query counters scan_pages=" sp " lookup_pages=" lp " index_keys=" ik
  }'

# The JSON form comes from the same table through another encoder: it
# must carry one block per shard.
blocks=$(curl -sf "http://$http/metrics?format=json" | grep -o '"shard":' | wc -l)
[ "$blocks" -eq "$shards" ] || {
  echo "FAIL(sharded): /metrics?format=json has $blocks shard blocks, want $shards" >&2; exit 1; }
echo "ok: JSON carries $blocks shard blocks"

# -pprof mounts net/http/pprof beside the telemetry endpoints.
curl -sf "http://$http/debug/pprof/cmdline" | tr '\0' ' ' | grep -q btserved || {
  echo "FAIL(sharded): -pprof did not mount /debug/pprof/" >&2; exit 1; }

model="$(curl -sf "http://$http/debug/model")"
echo "$model" | grep -q 'shard 3' || {
  echo "FAIL(sharded): /debug/model has no per-shard sections" >&2; exit 1; }
echo "$model" | grep -q 'aggregate:' || {
  echo "FAIL(sharded): /debug/model has no aggregate verdict" >&2; exit 1; }

kill -TERM "$spid"
wait "$spid" || { echo "FAIL(sharded): btserved exited nonzero" >&2; exit 1; }
grep -q drained "$bin/serv-sharded.log" || {
  echo "FAIL(sharded): btserved did not drain cleanly" >&2; exit 1; }

echo "smoke: all four algorithms plus the 4-shard indexed server served point and query traffic, drained, and reported telemetry"
