"""Record the benchmark's baseline: repeated runs per workload, summarized.

Run from the repository root:

    python3 perfbench/baseline.py [--runs 10] [--first-seed 100] [--workloads a,b]

For each workload it makes ``--runs`` untraced runs, each with the next seed,
then one traced run, and records in ``perfbench/baseline.json`` (replacing
the entries of the workloads it ran): every value, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``,
plus the per-layer metrics of the traced run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return {"seed": seed, "result": json.loads(lines[-1]),
            "contended_start": record["contended_start"],
            "steal_during_run": record["during_run"]["steal"]}


def summarize(values, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": bound}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()

    path = os.path.join(HERE, "baseline.json")
    out = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            out = json.load(fh)
    for workload in args.workloads.split(","):
        runs = [one_run(workload, args.first_seed + i, bench["run_seconds"], 0)
                for i in range(args.runs)]
        entry = {"run_seconds": bench["run_seconds"],
                 "seeds": [r["seed"] for r in runs],
                 "all_correct": all(r["result"]["correct"] for r in runs),
                 "contended_starts": sum(r["contended_start"] for r in runs),
                 "steal_during_run": [r["steal_during_run"] for r in runs],
                 "metrics": {}}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(values, m["bound"])
            entry["metrics"][m["name"]] = dict(s, unit=m["unit"])
            print(f"{workload:18s} {m['name']:14s} median {s['median']:.5g} {m['unit']:4s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                  f"(bound {m['bound']}, a third {m['bound'] / 3:.3f})", flush=True)
        traced = one_run(workload, args.first_seed, bench["run_seconds"], 1)
        entry["per_layer_seed"] = traced["seed"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        out["workloads"][workload] = entry
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
