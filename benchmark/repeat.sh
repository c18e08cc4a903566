#!/usr/bin/env bash
# Runs N full sets of the benchmark (every workload once per set, untraced,
# set i with seed SEED0+i) and prints, for every end-to-end metric of every
# workload, the median, the quartiles and the spread (q3-q1)/median next to
# the metric's bound from BENCHMARK.json.
#
# Exits non-zero when a run fails, when a spread (other than setup_s) is
# wider than its bound, or when the medians of the first and second half
# of the sets disagree by more than the bound.
#
#   benchmark/repeat.sh N [SEED0] [WORKLOAD...]
set -euo pipefail

n=${1:?usage: benchmark/repeat.sh N [SEED0] [WORKLOAD...]}
seed0=${2:-0}
shift $(( $# < 2 ? $# : 2 ))
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
target=${CARGO_TARGET_DIR:-$here/target}

cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
bin=$target/release/polymix-benchmark
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
fi

results=$(mktemp)
trap 'rm -f "$results"' EXIT
for i in $(seq 1 "$n"); do
    for w in "${workloads[@]}"; do
        line=$("$bin" --workload "$w" --seed $((seed0 + i)) --json | tail -n 1)
        echo "$w $line" >> "$results"
        echo "set $i $w done" >&2
    done
done

python3 - "$root/BENCHMARK.json" "$results" <<'EOF'
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
bounds = {m["name"]: m for m in manifest["end_to_end"]}
runs = {}
bad = 0
for line in open(sys.argv[2]):
    workload, _, body = line.partition(" ")
    r = json.loads(body)
    if not r["correct"]:
        bad += 1
        print(f"FAILED {workload}: {r['failed']} of {r['attempted']} operations")
    for name, m in r["metrics"].items():
        runs.setdefault((workload, name), []).append(m["value"])

print(f"{'workload':<16} {'metric':<16} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'drift':>7} {'bound':>6}")
for (workload, name), values in runs.items():
    meta = bounds[name]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med
    half = len(values) // 2
    a, b = statistics.median(values[:half] or values), statistics.median(values[half:])
    # Worse means higher for "lower is better" and the reverse.
    drift = (b - a) / a if meta["better"] == "lower" else (a - b) / a
    verdict = ""
    if name != "setup_s" and spread > meta["bound"]:
        verdict, bad = "SPREAD", bad + 1
    if half and drift > meta["bound"]:
        verdict, bad = verdict + " DRIFT", bad + 1
    print(f"{workload:<16} {name:<16} {len(values):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
          f"{spread:>7.2%} {drift:>+7.2%} {meta['bound']:>6.0%} {verdict}")
sys.exit(1 if bad else 0)
EOF
