#!/usr/bin/env bash
# One snapshot of the repository benchmark (BENCHMARK.json, perfbench/),
# committed as BENCH_<label>.json so that a change can cite a before/after
# pair. Every workload runs `runs` times (default 5) with --trace 0 at
# seeds 1..runs, then once with --trace 1 at seed 1. The file holds:
#   - the git sha and the host: nproc, and the median speed-gauge reading
#     (reference kernel time / measured kernel time; 1.0 = reference speed,
#     taken per run as CPU per op at reference speed over CPU per op as
#     measured);
#   - per workload, the median, interquartile range, n and unit of every
#     end-to-end metric, the runs' correctness and failed ops, and the
#     per-layer metrics of the traced run (one run, n = 1).
#
# Usage: scripts/bench_snapshot.sh <label> [runs] [seconds]
# (seconds defaults to BENCHMARK.json's run_seconds). Run it on a quiet
# host: each run takes `seconds` plus set-up, the traced one twice that.
# Raw run output goes to ${CARGO_TARGET_DIR:-.bench_build}/snapshot-<label>.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:?usage: scripts/bench_snapshot.sh <label> [runs] [seconds]}"
runs="${2:-5}"
bench_field() {
  python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); $1"
}
seconds="${3:-$(bench_field 'print(b["run_seconds"])')}"
out_dir="${CARGO_TARGET_DIR:-.bench_build}/snapshot-$label"
rm -rf "$out_dir"
mkdir -p "$out_dir"

# A failed correctness gate exits non-zero; the run's JSON line still
# records it, so the snapshot goes on and reports it.
for w in $(bench_field 'print(" ".join(w["name"] for w in b["workloads"]))'); do
  for seed in $(seq 1 "$runs"); do
    echo "bench_snapshot: $w seed $seed" >&2
    python3 perfbench/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace 0 >"$out_dir/$w.$seed.txt" \
      2>>"$out_dir/build.log" || true
  done
  echo "bench_snapshot: $w traced" >&2
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds "$seconds" \
    --trace 1 >"$out_dir/$w.trace.txt" 2>>"$out_dir/build.log" || true
done

python3 - "$out_dir" "$runs" "$seconds" "$(git rev-parse HEAD)" \
  "$(nproc)" >"BENCH_$label.json" <<'EOF'
import glob, json, os, statistics, sys

out_dir, runs, seconds, sha, nproc = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))


def parse(path):
    """The run's JSON result and its e2e console lines, in order."""
    lines = open(path).read().splitlines()
    last = lines[-1] if lines else ""
    result = json.loads(last) if last.startswith("{") else None
    e2e = [l.split() for l in lines if l.startswith("e2e ")]
    return result, e2e


def summary(values, unit):
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values), "unit": unit}


speeds, workloads = [], {}
for w in (x["name"] for x in bench["workloads"]):
    results, values, units = [], {}, {}
    for path in sorted(glob.glob(os.path.join(out_dir, f"{w}.[0-9]*.txt"))):
        result, e2e = parse(path)
        if result is None:
            results.append({"correct": False, "failed": None})
            continue
        results.append({"correct": result["correct"],
                        "failed": result["failed"]})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        # e2e line 3 is the workload's CPU per op as measured.
        measured_cpu = float(e2e[2][2]) if len(e2e) > 2 else 0.0
        if measured_cpu > 0:
            ref_cpu = result["metrics"]["op_cpu_us"]["value"]
            speeds.append(ref_cpu / measured_cpu)
    traced, _ = parse(os.path.join(out_dir, f"{w}.trace.txt"))
    workloads[w] = {
        "runs": results,
        "end_to_end": {m["name"]: summary(values[m["name"]], units[m["name"]])
                       for m in bench["end_to_end"] if m["name"] in values},
        "per_layer": {} if traced is None else {
            name: {"value": m["value"], "n": 1, "unit": m["unit"]}
            for name, m in traced["metrics"].items()},
        "traced_run": None if traced is None else {
            "correct": traced["correct"], "failed": traced["failed"]},
    }

gauge = statistics.median(speeds) if speeds else None
json.dump({"sha": sha, "runs": int(runs), "seconds": float(seconds),
           "seeds": list(range(1, int(runs) + 1)),
           "host": {"nproc": int(nproc), "speed_gauge_median": gauge},
           "workloads": workloads}, sys.stdout, indent=1)
print()
EOF
echo "bench_snapshot: wrote BENCH_$label.json" >&2
