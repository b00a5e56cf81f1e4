#!/usr/bin/env bash
# The repository benchmark: build, then run each workload in its own process.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
#
# Without --workload every workload runs in turn. `--seconds` is the
# driver's: it scales the fixed operation counts, which are sized for the
# `run_seconds` of BENCHMARK.json. Every answer is verified;
# every metric is printed by name with its unit and clock, and each run ends
# its standard output with one JSON object. `--trace 0` (default) is the gated
# run with the nine end-to-end metrics; `--trace 1` is the traced run with the
# per-layer metrics and benchmark/out/trace_<workload>.json. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build from inside the crate so the repository's .cargo/config.toml (the
# x86-64-v3 baseline) applies wherever this script is called from. Cargo
# reports on standard error; standard output stays the benchmark's.
(cd "$here" && cargo build --offline --release --quiet) >&2

export DEEPSTORE_BENCH_OUT="$here/out"
bin="$target/release/deepstore-benchmark"

workload=""
rest=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload)
      workload="${2:?--workload needs a value}"
      shift 2
      ;;
    *)
      rest+=("$1")
      shift
      ;;
  esac
done

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" "${rest[@]}"
fi

status=0
for w in scan_textqa batch_tir serve_zipf cluster_scatter ingest_restart; do
  "$bin" --workload "$w" "${rest[@]}" || status=$?
done
exit "$status"
