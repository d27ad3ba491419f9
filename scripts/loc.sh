#!/usr/bin/env bash
# The ruler the simplicity PRs are measured with: `wc -l` over the root
# module's .go files (bench/ is its own module and is left out), split
# into non-test and _test.go lines, per package and in total; the number
# of exported names each package declares outside _test.go files
# (top-level types, funcs, vars and consts, and exported methods of
# exported types); and the number of command-line flags btserved and
# btload define.
#
#   scripts/loc.sh            # table on stdout
#   scripts/loc.sh <checkout> # the same for another checkout (the parent's)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
export LC_ALL=C

lines() { # lines <dir> <code|test>: wc -l over the directory's own files
  if [ "$2" = test ]; then
    find "$1" -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l
  else
    find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
  fi
}

exported() { # exported <dir>: exported names declared in the directory's non-test files
  find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec awk '
    /^(const|var|type) \($/ { grouped = 1; next }
    grouped && /^\)/        { grouped = 0; next }
    grouped && /^\t[A-Z]/   { sub(/^\t/, ""); sub(/[ \t=].*/, ""); n += split($0, names, ","); next }
    /^(const|var|type) [A-Z]/ { n++; next }
    /^func [A-Z]/             { n++; next }
    /^func \(([A-Za-z_][A-Za-z0-9_]* )?\*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) [A-Z]/ { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

printf '%-28s %9s %9s %9s\n' package non-test test exported
total_code=0 total_test=0 total_exp=0
while read -r dir; do
  code=$(lines "$dir" code) test=$(lines "$dir" test) exp=$(exported "$dir")
  total_code=$((total_code + code)) total_test=$((total_test + test)) total_exp=$((total_exp + exp))
  printf '%-28s %9d %9d %9d\n' "${dir#./}" "$code" "$test" "$exp"
done < <(find . -name '*.go' ! -path './bench/*' -exec dirname {} + | sort -u)
printf '%-28s %9d %9d %9d\n' "root module" "$total_code" "$total_test" "$total_exp"

for cmd in btserved btload; do
  printf '%-28s %9d\n' "$cmd flags" "$(grep -hoE 'flag\.(String|Int|Int64|Uint|Uint64|Bool|Float64|Duration)\(' cmd/$cmd/*.go | wc -l)"
done
