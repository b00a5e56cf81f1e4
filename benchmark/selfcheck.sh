#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs the full set of gated runs twice
# on the same code and compares the two sets.
#
#   benchmark/selfcheck.sh      # 2 x 5 workloads x 10 seeds, about 40 minutes
#
# Run i of either set uses --seed i, so both sets see the same inputs. For
# every workload and end-to-end metric it prints each set's median and
# quartiles and fails if
#   * the second set's median is worse than the first's by more than the
#     metric's bound in BENCHMARK.json,
#   * the spread of either set (first to third quartile, as a share of the
#     median) exceeds the bound (setup_s excepted),
#   * ok_share, stored_bytes_per_user_byte or sim_probe_latency_us differ at
#     all within or between the sets, or
#   * any run was not correct.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=10
workloads="scan_textqa batch_tir serve_zipf cluster_scatter ingest_restart"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
results="$here/out/selfcheck"
rm -rf "$results"
mkdir -p "$results"

for set in first second; do
  for w in $workloads; do
    for seed in $(seq 1 "$runs"); do
      echo "set $set: $w --seed $seed" >&2
      "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 >>"$results/$set.$w.jsonl"
    done
  done
done

python3 - "$here/../BENCHMARK.json" "$results" $workloads <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
results, workloads = sys.argv[2], sys.argv[3:]
EXACT = {"ok_share", "stored_bytes_per_user_byte", "sim_probe_latency_us"}
failures = []

def load(which, workload):
    return [json.loads(line) for line in open(f"{results}/{which}.{workload}.jsonl")]

def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3

for w in workloads:
    first, second = load("first", w), load("second", w)
    for which, rows in (("first", first), ("second", second)):
        for i, row in enumerate(rows, 1):
            if not row["correct"] or row["failed"]:
                failures.append(f"{w}: {which} set, seed {i}: not correct")
    print(f"\n{w}: {len(first)} + {len(second)} runs")
    print(f"  {'metric':28} {'first median [q1, q3]':>42} {'second median [q1, q3]':>42}  spread  worse-by  bound")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in first]
        b = [r["metrics"][name]["value"] for r in second]
        (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
        spread = max((a3 - a1) / ma, (b3 - b1) / mb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        print(f"  {name:28} {ma:16.6g} [{a1:10.6g}, {a3:10.6g}] {mb:16.6g} [{b1:10.6g}, {b3:10.6g}]"
              f"  {spread:6.2%}  {worse:+7.2%}  {bound:.3f}")
        if worse > bound:
            failures.append(f"{w}/{name}: second median worse by {worse:.2%} > bound {bound}")
        if name != "setup_s" and spread > bound:
            failures.append(f"{w}/{name}: spread {spread:.2%} > bound {bound}")
        if name in EXACT and len(set(a + b)) != 1:
            failures.append(f"{w}/{name}: must repeat exactly, saw {sorted(set(a + b))}")

print()
if failures:
    print("SELFCHECK FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("selfcheck passed: both sets agree within every bound")
PY
