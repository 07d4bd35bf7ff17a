#!/usr/bin/env bash
# Build perf_ledger in release and run it. Run from the root of a checkout.
#
#   perf_ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line is the JSON result
#       (the contract in BENCHMARK.json)
#   perf_ledger/run.sh [--seed N] [--seconds S] [--repeat N]
#       the whole suite: every workload, both passes, one summary
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The build goes to $CARGO_TARGET_DIR when the caller sets one (relative to
# the caller's directory, like cargo itself), else beside the package.
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# Everything the run writes stays under perf_ledger/out: the traces, and the
# executor's spill directories (it makes one per eval under the temp dir and
# leaves the empty directory behind). Each run gets a temp dir of its own,
# removed when it ends, so no run sees what another left.
export TMPDIR="$here/out/tmp.$$"
mkdir -p "$TMPDIR"
trap 'rm -rf "$TMPDIR"' EXIT
# The program's own knobs and sinks (DMML_TRACE, DMML_PROFILE_DIR,
# DMML_THREADS, ...) must not leak in from the caller's shell and change
# what is measured.
for knob in "${!DMML_@}"; do unset "$knob"; done

"$target/release/perf_ledger" --out "$here/out" "$@"
