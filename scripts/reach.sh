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
# The file ends with a [knobs] table: one row per btserved and btload
# flag and per exported field of server.Config, GovernorConfig,
# DiskEngineConfig, ReplOptions and diskbtree.Options. A flag's row names
# the runs that passed it a value other than its default (the build shim
# below wraps both binaries so that each invocation's argv is recorded);
# a field's row names the files under cmd/, examples/ and bench/, tests
# aside, that set it. A knob that nothing sets needs a verdict line in
# scripts/reach.knobs (name, tab, verdict); one with neither fails the
# audit.
#
#   scripts/reach.sh                # ~8 min on 2 cores, rewrites results/REACH.txt
#   scripts/reach.sh --knobs-check  # seconds: every knob has a [knobs] row, and no row names a lost knob
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
knobs="scripts/reach.knobs"

# flags <binary> <name>: one "<name> -flag<TAB>bool|value<TAB>default"
# line per flag, read from the binary's own -h.
flags() {
  "$1" -h 2>&1 | awk -v cmd="$2" '
    function emit() { if (f != "") printf "%s -%s\t%s\t%s\n", cmd, f, kind, def }
    /^  -/ {
      emit()
      f = $1; sub(/^-/, "", f); sub(/\t.*/, "", f)
      kind = ($0 ~ /^  -[^ \t]+( |$)/ && NF > 1) ? "value" : "bool"
      def = kind == "bool" ? "false" : ($2 == "string" ? "" : ($2 == "duration" ? "0s" : "0"))
    }
    /\(default .*\)$/ { d = $0; sub(/.*\(default /, "", d); sub(/\)$/, "", d); gsub(/^"|"$/, "", d); def = d }
    END { emit() }'
}

# fields: one "pkg.Type.Field" line per exported field of the audited
# structs, in declaration order.
fields() {
  for spec in internal/server/server.go:server.Config internal/server/governor.go:server.GovernorConfig \
    internal/server/engine.go:server.DiskEngineConfig internal/server/repl.go:server.ReplOptions \
    internal/diskbtree/tree.go:diskbtree.Options; do
    awk -v q="${spec#*:}" '
      BEGIN { t = q; sub(/.*\./, "", t) }
      $0 ~ "^type " t " struct \\{" { in_ = 1; next }
      in_ && /^}/ { exit }
      in_ && /^\t[A-Z]/ {
        names = $0; sub(/^\t/, "", names)
        match(names, /^[A-Za-z0-9_]+(, *[A-Za-z0-9_]+)*/)
        n = split(substr(names, 1, RLENGTH), f, /, */)
        for (i = 1; i <= n; i++) print q "." f[i]
      }' "${spec%%:*}"
  done
}

# knob_list: every knob, flags first, one "name<TAB>kind<TAB>default" a
# line (fields have kind "field"). The binaries are built plainly into $1.
knob_list() {
  for c in btserved btload; do
    GOFLAGS= go build -o "$1/$c" "./cmd/$c"
    flags "$1/$c" "$c"
  done
  fields | sed 's/$/\tfield\t/'
}

if [ "${1:-}" = --knobs-check ]; then
  knob_list "$work/bin" | cut -f1 | sort >"$work/knobs"
  sed -n '/^\[knobs\]$/,/^$/p' "$out" | sed '1d;/^$/d' | cut -f1 | sort >"$work/rows"
  missing="$(comm -23 "$work/knobs" "$work/rows")" lost="$(comm -13 "$work/knobs" "$work/rows")"
  [ -z "$missing" ] || { echo "reach: knobs with no [knobs] row in $out (run scripts/reach.sh):" >&2; echo "$missing" >&2; }
  [ -z "$lost" ] || { echo "reach: [knobs] rows in $out for knobs that no longer exist:" >&2; echo "$lost" >&2; }
  [ -z "$missing$lost" ] || exit 1
  echo "reach: $(wc -l <"$work/knobs") knobs, each with a [knobs] row in $out"
  exit 0
fi

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
# them to $GOCOVERDIR like any other instrumented binary's. A script's
# `go build -o X ./cmd/btserved` (or btload) gets X.bin, and at X a
# wrapper that appends its argv to $REACH_ARGV under the running step's
# name before it execs X.bin, keeping its pid for the script's kill -9.
real_go="$(command -v go)"
cat >"$work/shim/go" <<SHIM
#!/usr/bin/env bash
if [ "\${1:-}" = test ]; then
  exec '$real_go' "\$@" -args -test.gocoverdir="\$GOCOVERDIR"
fi
case "\${1:-} \${*: -1}" in
"build ./cmd/btserved" | "build ./cmd/btload")
  '$real_go' "\$@" || exit
  while [ "\$1" != -o ]; do shift; done
  mv "\$2" "\$2.bin"
  cp '$work/argv-wrapper' "\$2"
  exit ;;
esac
exec '$real_go' "\$@"
SHIM
cat >"$work/argv-wrapper" <<'WRAPPER'
#!/usr/bin/env bash
printf '%s\n' ">>> ${0##*/} $REACH_STEP" "$@" >>"$REACH_ARGV"
exec "$0.bin" "$@"
WRAPPER
chmod +x "$work/shim/go" "$work/argv-wrapper"
export PATH="$work/shim:$PATH"
export GOCOVERDIR="$work/runs"
export REACH_ARGV="$work/argv.log" REACH_STEP=
: >"$REACH_ARGV"

for w in mem-paper-olc mem-read-zipf mem-scan-mixed disk-spill-paper; do
  step "runs: bench/run.sh $w"
  bash bench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 1 >"$work/run.log" 2>&1 ||
    { tail -20 "$work/run.log" >&2; exit 1; }
done
run() {
  step "runs: $*"
  REACH_STEP="$(echo "$*" | sed -e 's|scripts/||' -e 's/CYCLES=[0-9]* //')"
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

# The [knobs] table. A flag counts as set by a step when one of the
# step's invocations passed it a value other than its -h default; the
# argv is read the way the flag package reads it, up to the first
# non-flag argument or an undefined flag.
knob_list "$work/bin" >"$work/knobs"
awk -F'\t' '
  FNR == NR { kind[$1] = $2; def[$1] = $3; next }
  /^>>> / { split(substr($0, 5), h, " "); bin = h[1]; stepname = substr($0, 6 + length(bin)); want = ""; done = 0; next }
  done { next }
  want != "" { set(want, $0); want = ""; next }
  $0 !~ /^-./ || $0 == "--" { done = 1; next }
  {
    f = $0; sub(/^--?/, "", f); v = ""; eq = index(f, "=")
    if (eq) { v = substr(f, eq + 1); f = substr(f, 1, eq - 1) }
    k = bin " -" f
    if (!(k in kind)) done = 1
    else if (eq) set(k, v)
    else if (kind[k] == "bool") set(k, "true")
    else want = k
  }
  function set(k, v) {
    if (v != def[k] && index(", " runs[k] ", ", ", " stepname ", ") == 0)
      runs[k] = (runs[k] == "" ? "" : runs[k] ", ") stepname
  }
  END { for (k in runs) print k "\t" runs[k] }' "$work/knobs" "$REACH_ARGV" >"$work/knobruns"

# Who sets a field: keys of a composite literal of the struct's type, and
# assignments to a variable declared from one, in the non-test files
# under cmd/, examples/ and bench/.
find cmd examples bench -name '*.go' ! -name '*_test.go' | sort | xargs awk '
  function norm(t) { return t == "btreeperf.DiskTreeOptions" ? "diskbtree.Options" : t }
  function note(k) { if (index(" " by[k] " ", " " FILENAME " ") == 0) by[k] = by[k] " " FILENAME }
  BEGIN { ty = "(server\\.(Config|GovernorConfig|DiskEngineConfig|ReplOptions)|diskbtree\\.Options|btreeperf\\.DiskTreeOptions)" }
  FNR == 1 { depth = 0; split("", vars) }
  {
    line = $0
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    sub(/\/\/.*/, "", line)
    if (match(line, "[A-Za-z_][A-Za-z0-9_]* *:?= *&?" ty "\\{")) {
      d = substr(line, RSTART, RLENGTH); v = d; sub(/[ :=].*/, "", v)
      sub(/^[^=]*= *&?/, "", d); sub(/\{$/, "", d); vars[v] = norm(d)
    }
    if (match(line, /^[ \t]*[A-Za-z_][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]* *= /)) {
      a = substr(line, RSTART, RLENGTH); sub(/^[ \t]*/, "", a); sub(/ *= $/, "", a)
      split(a, vf, ".")
      if (vf[1] in vars) note(vars[vf[1]] "." vf[2])
    }
    for (i = 1; i <= length(line); i++) {
      c = substr(line, i, 1)
      if (c == "{") {
        t = ""
        if (match(substr(line, 1, i - 1), ty "$")) t = norm(substr(line, RSTART, RLENGTH))
        stk[++depth] = t
      } else if (c == "}") {
        if (depth > 0) depth--
      } else if (depth > 0 && stk[depth] != "" && c ~ /[A-Z]/ && substr(line, i - 1, 1) !~ /[A-Za-z0-9_.]/ &&
        match(substr(line, i), /^[A-Za-z0-9_]+ *:/) && substr(line, i + RLENGTH, 1) != "=") {
        pre = substr(line, 1, i - 1); sub(/[ \t]+$/, "", pre)
        if (pre == "" || pre ~ /[{,]$/) { k = substr(line, i, RLENGTH); sub(/ *:$/, "", k); note(stk[depth] "." k) }
        i += RLENGTH - 1
      }
    }
  }
  END { for (k in by) print k "\t" substr(by[k], 2) }' >"$work/knobcallers"

awk -F'\t' -v runs_="$work/knobruns" -v callers="$work/knobcallers" -v verdicts="$knobs" '
  FILENAME == runs_    { runs[$1] = "runs: " $2; next }
  FILENAME == callers  { runs[$1] = "set by: " $2; next }
  FILENAME == verdicts { verdict[$1] = "verdict: " $2; next }
  {
    row = runs[$1]
    if ($1 in verdict) row = (row == "" ? "" : row " | ") verdict[$1]
    if (row == "") { row = "UNPRICED: no run or caller sets it, and scripts/reach.knobs has no verdict"; bad++ }
    print $1 "\t" row
  }
  END { exit bad > 0 }' "$work/knobruns" "$work/knobcallers" "$knobs" "$work/knobs" >"$work/knobrows" || unpriced=1

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
  echo
  echo "[knobs]"
  cat "$work/knobrows"
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
if [ -n "${unpriced:-}" ]; then
  echo "reach: knobs with neither a run, a caller nor a verdict (UNPRICED in $out):" >&2
  grep -F UNPRICED "$work/knobrows" | cut -f1 >&2
  exit 1
fi
