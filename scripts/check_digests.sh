#!/bin/sh
# Outside each file's test module (scripts/non_test.awk), FNV-1a hashes names and seeds only (block bytes are XXH64), and dvdc-parity forks only in ReedSolomon::encode.
set -eu
non_test='scripts/non_test.awk'
fnv=$(awk -f "$non_test" $(find crates src examples -name '*.rs' -type f) | grep -w 'fnv1a64\|fnv64' |
    grep -v '^crates/simcore/src/rng\.rs:\|^crates/faults/src/buggify\.rs:' |
    grep -v '^crates/core/src/protocol/node_core\.rs:[0-9]*:pub use dvdc_simcore::rng::fnv1a64 as fnv64;$' |
    grep -v '^crates/core/src/protocol/mod\.rs:[0-9]*: *block_digest, fnv64, ' || true)
fork=$(awk -f "$non_test" crates/parity/src/*.rs | grep 'thread::scope\|thread::spawn\|available_parallelism' || true)
# rs.rs keeps two: encode_workers' one available_parallelism and encode's one thread::scope.
[ "$(echo "$fork" | grep -c '^crates/parity/src/rs\.rs:')" -le 2 ] && fork=$(echo "$fork" | grep -v '^crates/parity/src/rs\.rs:' || true)
[ -z "$fnv$fork" ] || { printf 'byte-serial digest or fork-join off its allowed lines:\n%s\n%s\n' "$fnv" "$fork"; exit 1; }
