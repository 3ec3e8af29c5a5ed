"""Record a baseline of the benchmark in bench/baseline.json.

Run from the repository root (about 20 minutes per set on a 2-core box):

    python3 bench/baseline.py --sets 1

Each set runs every workload once per seed, untraced, one process at a
time; then one traced run per workload at seed 0 gives the per-layer
metrics.  For each end-to-end metric it records the median of the runs and
spread = (q3 - q1) / median, the quartiles as `statistics.quantiles(values,
n=4)` gives them; with two sets, also the change of the second set's median
against the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    record = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    print(workload, seed, trace, json.dumps(result["metrics"]), flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {
        "description": f"Baseline of the frustra-gp benchmark: untraced runs of --seconds"
        f" {seconds} at seeds 0-{args.seeds - 1}, {args.sets} set(s), and one traced run per"
        " workload at seed 0; timings in reference seconds (see bench/run.py).",
        "workloads": {},
    }
    sets = [
        {w["name"]: [run(w["name"], seed, seconds, 0) for seed in range(args.seeds)]
         for w in bench["workloads"]}
        for _ in range(args.sets)
    ]
    for w in bench["workloads"]:
        name = w["name"]
        first = sets[0][name]
        traced = run(name, 0, seconds, 1)
        out["machine"] = traced["record"]["machine"]
        entry = {
            "argv_seed0": traced["record"]["argv"],
            "why": w["why"],
            "counters": traced["record"]["counters"],
            "attempted": [r["attempted"] for s in sets for r in s[name]],
            "failed": sum(r["failed"] for s in sets for r in s[name]),
            "correct": all(r["correct"] for s in sets for r in s[name]),
            "end_to_end": {},
            "traced_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for m in bench["end_to_end"]:
            key = m["name"]
            stats = [summary([r["metrics"][key]["value"] for r in s[name]]) for s in sets]
            entry["end_to_end"][key] = dict(stats[0], unit=m["unit"], bound=m["bound"])
            if len(stats) == 2:
                entry["end_to_end"][key]["second_set"] = stats[1]
                entry["end_to_end"][key]["second_set_change"] = (
                    stats[1]["median"] / stats[0]["median"] - 1
                )
        out["workloads"][name] = entry
        print(name, {k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()},
              flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
