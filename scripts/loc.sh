#!/usr/bin/env bash
# Net Rust line count: non-blank, non-comment lines per crate and in
# total. `//`, `///` and `//!` lines and `/* … */` blocks that start a
# line are comments; build output (`target/`, `.bench_build/`) and the
# standalone `perfbench/` package are excluded. Deleting comments or
# reformatting whitespace does not move the number.
#
#   scripts/loc.sh [REPO_ROOT]
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

count() {
  find "$@" -name '*.rs' -not -path '*/target/*' -not -path '*/.bench_build/*' -print0 2>/dev/null |
    xargs -0 -r cat |
    awk '
      { line = $0; sub(/^[ \t]+/, "", line) }
      in_block { if (line ~ /\*\//) in_block = 0; next }
      line == "" { next }
      line ~ /^\/\// { next }
      line ~ /^\/\*/ { if (line !~ /\*\//) in_block = 1; next }
      { n++ }
      END { print n + 0 }'
}

total=0
printf '%-22s %8s\n' crate lines
for dir in crates/*/; do
  name="srtd-$(basename "$dir")"
  n=$(count "$dir")
  printf '%-22s %8d\n' "$name" "$n"
  total=$((total + n))
done
root_dirs=()
for d in src tests examples; do
  [ -d "$d" ] && root_dirs+=("$d")
done
n=$(count "${root_dirs[@]}")
printf '%-22s %8d\n' "sybil-td (root)" "$n"
total=$((total + n))
printf '%-22s %8d\n' total "$total"
