#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails unless at least one
# test ran and passed. `cargo test <filter>` exits 0 with "0 passed" when
# the filter matches nothing, so a renamed or deleted test would otherwise
# turn the line that names it into a silent no-op.
#
#   .github/scripts/cargo-test-nonempty.sh -p vmn --release modular::
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
if [ "$passed" -eq 0 ]; then
    echo "error: \`cargo test $*\` ran no test" >&2
    exit 1
fi
