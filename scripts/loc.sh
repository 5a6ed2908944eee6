#!/usr/bin/env bash
# Non-test Rust lines per workspace crate: for every crates/<crate>/src/**/*.rs,
# the lines before the file's first `#[cfg(test)]` (the whole file when it has
# none). The figure ROADMAP asks every PR to report in CHANGES.md. A last
# `vendor` row counts every line of vendor/*/src/**/*.rs (tests included), so
# stub code is seen beside workspace code; it is not part of `total`.
#
# Usage: scripts/loc.sh [repo-root]    (default: the checkout this script is in)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

printf '%-16s %8s\n' crate non-test
total=0
for dir in "$root"/crates/*/; do
    [ -d "$dir/src" ] || continue
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')
    printf '%-16s %8d\n' "$(basename "$dir")" "$lines"
    total=$((total + lines))
done
printf '%-16s %8d\n' total "$total"
printf '%-16s %8d\n' vendor "$(find "$root"/vendor/*/src -name '*.rs' -exec cat {} + | wc -l)"
