"""Run one workload of the tmfc benchmark and print its metrics.

Run from the repository root (no installation needed; the program is
imported from ``src/``):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: numeric-ssvm-pool, analytic-fig6, weak-catalog (see
``workloads.py`` for why each was chosen).  The seed picks the points a run evaluates; the same seed
gives the same inputs.

The end-to-end metrics (``--trace 0``):

``setup_s``       cold interpreter start to the first timed call: imports,
                  reference loading, workload building and the first-call
                  warm-up; the median of nine cold starts, four before
                  the measuring process and four after it
``points_per_s``  operations completed per second over the run (an
                  operation is a sweep point; for weak-catalog a case, the
                  round trip or the export)
``point_s.p50``   median per-operation latency
``peak_rss_mb``   the larger ``ru_maxrss`` of the measuring process and of
                  its children (the pool workers)

The report lines also give ``point_s.p90`` (only where at least ten samples
lie beyond it), ``failed_share`` and ``sel_err`` (the largest |S - S_ref|
against the higher-accuracy references).  ``--trace 1`` prints the per-layer
metrics of ``layers.py`` and the tracing overhead instead.

Every output is checked against ``references.json``; a mismatch is a failed
operation and makes the command exit with 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Each run also writes its full record (environment, load before
and after, selection, latencies) to ``.perfbench_out/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("numeric-ssvm-pool", "analytic-fig6", "weak-catalog")
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "point_s.p50": "s",
                    "peak_rss_mb": "MB"}
# a run counts as contended when, just before it, other work kept this
# share of the machine's CPUs busy or the hypervisor stole it
CONTENDED_SHARE = 0.2


class BenchError(Exception):
    pass


def cpu_times():
    """Aggregate (busy, steal, total) jiffies from /proc/stat."""
    with open("/proc/stat") as fh:
        vals = [int(x) for x in fh.readline().split()[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = vals
    return user + nice + system + irq + softirq, steal, sum(vals)


def shares(a, b) -> dict:
    total = max(b[2] - a[2], 1)
    return {"busy": (b[0] - a[0]) / total, "steal": (b[1] - a[1]) / total}


def load() -> dict:
    with open("/proc/loadavg") as fh:
        fields = fh.read().split()
    return {"loadavg": [float(x) for x in fields[:3]], "runnable": fields[3]}


def run_child(cmd, env, deadline: float) -> dict:
    """Run one worker in its own process group and parse its last line."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    finally:
        try:  # pool workers left behind by a failed worker
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile_report(lat) -> dict:
    """p90 is reported only where at least ten samples lie beyond it."""
    out = {"n": len(lat)}
    if len(lat) >= 2:
        p90 = statistics.quantiles(lat, n=10)[-1]
        beyond = sum(x > p90 for x in lat)
        out.update(p90=p90 if beyond >= 10 else None, beyond_p90=beyond)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one tmfc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tmfc", "__init__.py")):
        print("perfbench: no src/tmfc here; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)

    before = cpu_times()
    time.sleep(0.5)
    idle_probe = shares(before, cpu_times())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "machine": {"cpu_count": os.cpu_count(),
                          "affinity": sorted(os.sched_getaffinity(0)),
                          "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}},
              "load_before": load(), "idle_probe": idle_probe,
              "contended_start": idle_probe["busy"] + idle_probe["steal"] > CONTENDED_SHARE}
    start = cpu_times()

    def cmd(*extra):
        return [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", out_dir, "--t0", repr(time.monotonic()), *extra]

    def setup_samples(n):
        return [run_child(cmd("--setup-only"), env, deadline)["setup_s"] for _ in range(n)]

    # the set-up samples go half before and half after the measuring
    # process, so that one slow phase of the host touches few of them
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = setup_samples(extra // 2)
        result = run_child(cmd(), env, deadline)
        setups += [result.pop("setup_s")] + setup_samples(extra - extra // 2)
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record.update(load_after=load(), during_run=shares(start, cpu_times()),
                  setup_samples=setups, **result)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        lat = result["latencies"]
        values = {"setup_s": statistics.median(setups),
                  "points_per_s": len(lat) / result["elapsed"],
                  "point_s.p50": statistics.median(lat),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record["point_s"] = quantile_report(lat)
    record["failed_share"] = failed / attempted
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)

    env_info = result["environment"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed; selection {result['selection']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        q = record["point_s"]
        p90 = (f"{q['p90']:.6g} s" if q.get("p90") is not None else
               f"not reported ({q.get('beyond_p90', 0)} samples beyond it, needs 10)")
        print(f"  point_s.p90 = {p90}; samples n = {q['n']}, cycles {result['cycles']:.2f}")
    print(f"  failed_share = {record['failed_share']:.6g} 1")
    print(f"  sel_err = {result['sel_err']:.6g} 1")
    print(f"  env: {record['machine']['cpu_count']} cpus, affinity "
          f"{record['machine']['affinity']}, {env_info['blas']['name']} "
          f"{env_info['blas']['version']}, thread env {record['machine']['thread_env']}, "
          f"python {env_info['python']}, numpy {env_info['numpy']}, scipy {env_info['scipy']}")
    print(f"  load before {record['load_before']}, after {record['load_after']}; "
          f"busy/steal share before {idle_probe['busy']:.2f}/{idle_probe['steal']:.2f}"
          f"{' CONTENDED START' if record['contended_start'] else ''}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem.strip()}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
