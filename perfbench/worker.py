"""Measuring process of the benchmark; ``run.py`` starts it, once per sample.

It imports the program from ``src/`` of the current directory, loads the
pinned references, builds the workload from the seed and runs the
first-call warm-up.  That is the set-up, timed from the moment ``run.py``
started this interpreter (``--t0``, a ``time.monotonic`` reading).  With
``--setup-only`` it stops there.  Otherwise it runs the workload's
operations round-robin, one whole cycle at least, until ``--seconds`` have
passed, checks every output against the references, and prints one JSON
line with the raw measurements.

With ``--trace 1`` it instead runs each operation four times back to back:
once to settle, then untraced, traced with the wrappers of ``layers.py``
installed, and untraced again.  It reports the per-layer metrics of the traced calls, the tracing
overhead against the mean of the untraced calls around them, and the share
of the traced time the wrappers spent outside the calls they wrap.  Pooled calls
are never traced: the pool workload makes one pooled cycle first, then runs
its points with workers=1, because the workers of a pool would keep their
spans to themselves.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import List

clock = time.monotonic


@dataclass
class Pass:
    """One round-robin pass over a workload's operations and what it produced."""

    elapsed: float = 0.0
    cycles: float = 0.0
    points: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def run_cycles(ops, seconds: float) -> Pass:
    """Run ``ops`` round-robin: every op once, then on until ``seconds`` pass.

    Stopping at an op boundary rather than a cycle boundary keeps a run near
    ``seconds``; the first whole cycle makes every chosen point checked.
    """
    from workloads import Outcome

    result = Pass()
    start = clock()
    n = 0
    while n < len(ops) or clock() - start < seconds:
        op = ops[n % len(ops)]
        t0 = clock()
        try:
            outcomes = op.run()
        except Exception:  # a raising call is a failed operation, not a crash
            outcomes = [Outcome(op.label, problems=[traceback.format_exc()])] * op.points
        dt = clock() - t0
        n += 1
        result.points += op.points
        result.latencies += [dt] * op.points
        result.outcomes += outcomes
        bad = [o for o in outcomes if o.problems]
        result.failed += len(bad)
        result.problems += [p for o in bad for p in o.problems]
    result.elapsed = clock() - start
    result.cycles = n / len(ops)
    return result


def sel_err(passes) -> float:
    errs = [abs(o.selectivity - o.s_ref) for p in passes for o in p.outcomes
            if o.selectivity is not None and o.s_ref is not None]
    return max(errs) if errs else 0.0


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import tmfc
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(tmfc.__file__).startswith(src + os.sep):
        print(f"tmfc imported from {tmfc.__file__}, not from {src}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from spans import Tracer

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "references.json")) as fh:
        refs = json.load(fh)
    wl = workloads.build(args.workload, args.seed, refs, args.out_dir)
    wl.warm_up()
    out = {"setup_s": clock() - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out.update(environment=environment(), selection=wl.selection)
    if not args.trace:
        passes = [run_cycles(wl.ops, args.seconds)]
        main_pass = passes[0]
        out.update(elapsed=main_pass.elapsed, cycles=main_pass.cycles,
                   latencies=main_pass.latencies, peak_rss_mb=peak_rss_mb())
    else:
        passes = [run_cycles(wl.ops, 0)] if wl.workers > 1 else []
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
        untraced, traced = [], []
        for op in wl.serial_ops:
            # the first call after another operation is slower than the
            # calls that repeat it, so the three compared calls follow one
            passes.append(run_cycles([op], 0))
            untraced.append(run_cycles([op], 0))
            layers.install(tracer)
            tracer.enabled = True
            try:
                traced.append(run_cycles([op], 0))
            finally:
                tracer.enabled = False
                tracer.uninstall()
            untraced.append(run_cycles([op], 0))
        passes += untraced + traced
        # each traced call against the mean of the untraced calls just
        # before and after it, so the host's drift cancels to first order
        base_s = sum(p.elapsed for p in untraced) / 2
        traced_s = sum(p.elapsed for p in traced)
        overhead = 100.0 * (1.0 - base_s / traced_s)
        if wl.workers > 1:
            pool_efficiency = base_s / (wl.workers * passes[0].elapsed)
        else:
            busy = sum(s.duration for s in tracer.spans if s.name == "harness.point")
            wall = sum(s.duration for s in tracer.spans if s.name == "harness.sweep")
            pool_efficiency = busy / wall if wall else 0.0
        tracer.dump(os.path.join(args.out_dir,
                                 f"spans-{args.workload}-seed{args.seed}.jsonl"))
        out["per_layer"] = layers.layer_metrics(tracer, pool_efficiency, overhead,
                                                traced_s)
    out.update(attempted=sum(p.points for p in passes),
               failed=sum(p.failed for p in passes),
               problems=[q for p in passes for q in p.problems][:20],
               sel_err=sel_err(passes))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
