#!/usr/bin/env bash
# Non-test Rust lines per workspace crate: for every crates/<crate>/src/**/*.rs,
# the lines before the file's first `#[cfg(test)]` attribute line (the whole
# file when it has none). The figure ROADMAP asks every PR to report in
# CHANGES.md. The `pub` column counts the public declarations among those
# lines: `pub fn|struct|enum|trait|const|static|type|mod`, not `pub(crate)`. A
# last `vendor` row counts every line of vendor/*/src/**/*.rs (tests
# included), so stub code is seen beside workspace code; it is not part of
# `total`.
#
# Usage: scripts/loc.sh [repo-root]    (default: the checkout this script is in)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

printf '%-16s %8s %6s\n' crate non-test pub
total=0
total_pub=0
for dir in "$root"/crates/*/; do
    [ -d "$dir/src" ] || continue
    read -r lines pubs < <(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            counting && /^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod)[[:space:]]/ { p++ }
            END { print n + 0, p + 0 }')
    printf '%-16s %8d %6d\n' "$(basename "$dir")" "$lines" "$pubs"
    total=$((total + lines))
    total_pub=$((total_pub + pubs))
done
printf '%-16s %8d %6d\n' total "$total" "$total_pub"
printf '%-16s %8d\n' vendor "$(find "$root"/vendor/*/src -name '*.rs' -exec cat {} + | wc -l)"
