#!/bin/sh
# Counts Rust the way the roadmap and the issues quote it.
#
#   scripts/loc.sh [FILE...]
#
# Over every *.rs file under crates/ src/ tests/ examples/ it prints
#   total     all lines
#   non-test  lines before each file's test module — the `#[cfg(test)]`
#             that opens a `mod` (the whole file when it has none; see
#             scripts/non_test.awk)
# and, for each FILE named, that file's non-test count, then their sum.
# Run from the repository root.
set -eu

non_test() { awk -f scripts/non_test.awk "$@" | wc -l | tr -d ' '; }

# No path in this repository contains whitespace.
files=$(find crates src tests examples -name '*.rs' -type f)
echo "total    $(cat $files | wc -l | tr -d ' ')"
echo "non-test $(non_test $files)"

sum=0
for f in "$@"; do
    n=$(non_test "$f")
    sum=$((sum + n))
    printf '%8d %s\n' "$n" "$f"
done
[ "$#" -eq 0 ] || printf '%8d sum of the %d files named\n' "$sum" "$#"
