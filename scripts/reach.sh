#!/usr/bin/env bash
# Reach audit: one coverage profile over everything that counts as use,
# and the list of non-test functions that profile does not reach.
#
# Every build the steps below make — this script's own, the other
# scripts', bench/run.sh's — is instrumented through the environment
# (GOFLAGS=-cover -coverpkg=btreeperf/...), so nothing is edited to be
# measured. Counters are kept on two sides:
#
#   tests  go test ./... and (cd bench && go test .)
#   runs   the four bench/ workloads (traced), smoke.sh, chaos.sh,
#          crash.sh (plain, SHARDS=4, CKPT_KILL=1), failover.sh (plain,
#          SHARDS=4), bench.sh -quick and the four benchjson -compare
#          gates, btfigures -fig all, btmodel, btsim, btquery (inside
#          smoke.sh) and the five examples
#
# and results/REACH.txt lists each function of the root module as
#
#   none   no statement of it ran anywhere
#   tests  statements ran, but only under go test
#
# keyed pkg.Recv.Name with no line numbers, so the next audit is a diff.
# The universe of functions comes from the tier-1 tests' -coverprofile,
# where `go test` also lists, at zero, every package that no test binary
# links: a package no run executes is absent from merged counters
# altogether. A process killed with -9 writes no counters; what only
# such a process runs reads as unreached (EXPERIMENTS.md "Reach audit").
#
#   scripts/reach.sh          # ~8 min on 2 cores, rewrites results/REACH.txt
set -euo pipefail

cd "$(dirname "$0")/.."
export LC_ALL=C # sort and join must agree on the order
root="$PWD"
out="results/REACH.txt"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/runs" "$work/shim" "$work/bin"

# Functions whose class depends on timing, one "name<TAB>why" a line.
# They are named in the header and left out of both lists, so that two
# runs on one commit write the same file.
flaps="scripts/reach.flaps"

export GOFLAGS="-cover -coverpkg=btreeperf/..."
step() { echo "reach: $*" >&2; }

step "tests: go test ./..."
go test -count=1 -coverprofile="$work/tier1.prof" ./... >"$work/tests.log" 2>&1 ||
  { tail -30 "$work/tests.log" >&2; exit 1; }
step "tests: (cd bench && go test .)"
# TestReplayCountsRepeat is a known one-in-three flake; its counters
# are written either way.
(cd bench && go test -count=1 -coverprofile="$work/bench.prof" .) >"$work/benchtests.log" 2>&1 ||
  tail -5 "$work/benchtests.log" >&2
cat "$work/tier1.prof" "$work/bench.prof" >"$work/tests.all"

# Everything below writes its counters to $GOCOVERDIR at exit. bench.sh
# runs `go test -bench`, which hands its binary a private
# -test.gocoverdir and throws the counters away; the shim on PATH sends
# them to $GOCOVERDIR like any other instrumented binary's.
real_go="$(command -v go)"
printf '%s\n' '#!/usr/bin/env bash' \
  'if [ "${1:-}" = test ]; then' \
  "  exec '$real_go' \"\$@\" -args -test.gocoverdir=\"\$GOCOVERDIR\"" \
  'fi' \
  "exec '$real_go' \"\$@\"" >"$work/shim/go"
chmod +x "$work/shim/go"
export PATH="$work/shim:$PATH"
export GOCOVERDIR="$work/runs"

for w in mem-paper-olc mem-read-zipf mem-scan-mixed disk-spill-paper; do
  step "runs: bench/run.sh $w"
  bash bench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 1 >"$work/run.log" 2>&1 ||
    { tail -20 "$work/run.log" >&2; exit 1; }
done
run() {
  step "runs: $*"
  env "$@" >"$work/run.log" 2>&1 || { tail -30 "$work/run.log" >&2; exit 1; }
}
run scripts/smoke.sh
run scripts/chaos.sh
run CYCLES=3 scripts/crash.sh
run SHARDS=4 CYCLES=3 scripts/crash.sh
run CKPT_KILL=1 CYCLES=3 scripts/crash.sh
run CYCLES=2 scripts/failover.sh
run SHARDS=4 CYCLES=2 scripts/failover.sh
run BENCH_DIR="$work/bench" scripts/bench.sh -quick
for f in results/BENCH_*.json; do
  # CI's allocation gates. At -quick one benchmark rounds to 0 or 1
  # allocs/op from run to run; the audit wants the counters, not the verdict.
  go run ./cmd/benchjson -compare "$f" "$work/bench/$(basename "$f")" >/dev/null 2>&1 || true
done
for c in btfigures btmodel btsim; do go build -o "$work/bin/$c" "./cmd/$c"; done
run "$work/bin/btfigures" -fig all -progress=false -out "$work/figs"
run "$work/bin/btfigures" -fig 10 -quick -out "" # the progress ticker, on by default
run "$work/bin/btmodel" -alg nlc -lambda 0.3 -items 3000 -simulate 3 -simops 500
run "$work/bin/btsim" -alg od -lambda 1.5 -items 5000 -ops 800 -warmup 80 -seeds 4
for e in examples/*/; do
  go build -o "$work/bin/example" "./$e"
  run "$work/bin/example"
done

unset GOFLAGS GOCOVERDIR
export PATH="${PATH#"$work/shim:"}"
go tool covdata textfmt -i="$work/runs" -o="$work/runs.all"

# One text profile per side, root module only (bench/ is another module
# whose sources `go tool cover` cannot resolve from here), and one
# "pkg.Recv.Name reached" table per side with the receiver read back
# from the source line, because `go tool cover -func` prints bare names.
funcs() {
  { echo "mode: set"; grep -v -e '^mode:' -e '^btreeperf/bench/' "$work/$1.all"; } >"$work/$1.prof"
  go tool cover -func="$work/$1.prof" | awk -v root="$root" '
    $1 == "total:" { next }
    {
      split($1, loc, ":"); line = loc[2] + 0
      path = loc[1]; sub(/^btreeperf\//, "", path)
      if (path != cur) {
        if (cur != "") close(root "/" cur)
        cur = path; n = 0
        while ((getline l < (root "/" path)) > 0) src[++n] = l
      }
      decl = src[line]
      if (decl ~ /\{ *\}$/) next            # no statements: nothing to reach
      pkg = path; sub(/\/[^\/]*$/, "", pkg); sub(/^internal\//, "", pkg)
      if (pkg == path) pkg = "btreeperf"     # a file at the module root
      recv = ""
      if (decl ~ /^func \(/) {
        recv = decl; sub(/^func \(/, "", recv); sub(/\).*/, "", recv)
        sub(/^[A-Za-z_0-9]+ /, "", recv); sub(/^\*/, "", recv); sub(/\[.*/, "", recv)
        recv = recv "."
      }
      print pkg "." recv $2, ($3 == "0.0%" ? 0 : 1)
    }' | sort >"$work/$1.funcs"
}
funcs tests
funcs runs

# tests.funcs is the universe; a function missing from runs.funcs
# belongs to a package no run executed.
join -a1 -e0 -o 0,1.2,2.2 "$work/tests.funcs" "$work/runs.funcs" |
  awk -F'[ \t]' 'FILENAME != "-" { flap[$1] = 1; next }
       $1 in flap { next }
       $2 == 0 && $3 == 0 { print "none", $1 }
       $2 == 1 && $3 == 0 { print "tests", $1 }' "$flaps" - >"$work/classes"

{
  echo "# Reach audit (scripts/reach.sh). Functions of the root module, outside"
  echo "# _test.go files, that the merged coverage profile does not reach:"
  echo "#   none   no statement ran under any test, script, benchmark workload or tool"
  echo "#   tests  statements ran only under go test (tier-1 or bench/)"
  echo "# Every none entry has its reason in EXPERIMENTS.md \"Reach audit\"."
  echo "# $(grep -c '^none' "$work/classes") none, $(grep -c '^tests' "$work/classes") tests, of $(wc -l <"$work/tests.funcs") functions."
  if [ -s "$flaps" ]; then
    echo "#"
    echo "# Timing-dependent (scripts/reach.flaps), so left out of both lists:"
    sed 's/^/#   /' "$flaps"
  fi
  echo
  echo "[none]"
  sed -n 's/^none //p' "$work/classes"
  echo
  echo "[tests]"
  sed -n 's/^tests //p' "$work/classes"
} >"$out"

# Statement totals go to the terminal, not the file: error paths that
# depend on timing move them by a few between runs.
awk '/^mode:/ { next }
  { stm[$1] = $2; if ($3 > 0) hit[FILENAME, $1] = 1 }
  END {
    t = ARGV[1]; r = ARGV[2]
    for (b in stm) {
      total += stm[b]
      if (!((t, b) in hit) && !((r, b) in hit)) none += stm[b]
      else if (!((r, b) in hit)) tests += stm[b]
    }
    printf "reach: %d statements, %d reached by nothing, %d by tests only\n", total, none, tests
  }' "$work/tests.prof" "$work/runs.prof" >&2
echo "wrote $out"
