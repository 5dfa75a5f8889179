# Prints FILE:LINE:text for every line of each Rust file named before the
# `#[cfg(test)]` that opens a `mod` — the file's test module — or for the
# whole file when it has none. A `#[cfg(test)]` on any other item (a
# test-only trait, impl or fn) does not end the file's non-test part.
#
#   awk -f scripts/non_test.awk FILE...
#
# Shared by scripts/loc.sh and scripts/check_digests.sh.

function flush() {
    printf "%s", held
    held = ""
}

FNR == 1 { flush(); stop = 0 }
stop { next }
{ line = FILENAME ":" FNR ":" $0 "\n" }
# A `#[cfg(test)]` and the attributes after it are held until the item
# they belong to shows whether it is the test module.
/^[[:space:]]*#\[cfg\(test\)\]/ || (held != "" && /^[[:space:]]*#\[/) { held = held line; next }
held != "" && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { held = ""; stop = 1; next }
{ flush(); printf "%s", line }
END { flush() }
