#!/bin/sh
# Repeatability self-check: runs every workload twice on the same code
# (untraced and traced, each in its own process) and fails if an end-to-end
# metric differs by more than its bound or an exact count differs at all.
# Extra arguments are passed through, e.g. `benchmark/check.sh --seed 7`.
cd "$(dirname "$0")/.." || exit 1
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check "$@"
