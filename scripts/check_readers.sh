#!/bin/sh
# Each bench bin is run in EXPERIMENTS.md, each result has a writer, each example a README line.
set -eu
fail=0
miss() { echo "$1"; fail=1; }
for b in $(basename -s .rs crates/bench/src/bin/*.rs); do
    grep -q -- "--bin $b\$\|--bin $b " EXPERIMENTS.md || miss "$b: no --bin line in EXPERIMENTS.md"
done
for j in $(basename -s .json bench_results/*.json); do
    grep -rqF "\"$j\"" crates/bench/src || miss "bench_results/$j.json: no bin writes it"
done
for e in $(basename -s .rs examples/*.rs); do
    grep -q "$e" README.md || miss "examples/$e.rs: not named in README.md"
done
exit $fail
