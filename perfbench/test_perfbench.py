"""Self-tests of the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The last test runs the cheapest workload end to end (about 30 s).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _refs():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def test_reference_gate_rejects_perturbed_value():
    refs = _refs()
    for name in workloads.NAMES:
        key, ref = sorted((k, v) for k, v in refs[name].items())[0]
        got = {"selectivity": ref["selectivity"], "separability": ref["separability"],
               "rho": list(ref["rho"]), "error": ""}
        assert workloads.compare(key, got, ref) == []
        near = dict(got, selectivity=ref["selectivity"] * (1 + 0.5 * workloads.TOL))
        assert workloads.compare(key, near, ref) == []
        far = dict(got, selectivity=ref["selectivity"] * (1 + 2 * workloads.TOL))
        assert workloads.compare(key, far, ref)
        rho = list(ref["rho"])
        rho[-1] += 2 * workloads.TOL * rho[0]
        assert workloads.compare(key, dict(got, rho=rho), ref)
        assert workloads.compare(key, dict(got, error="RegimeError: x"), ref)


def test_every_pool_point_is_pinned():
    refs = _refs()
    for name in workloads.NAMES[:-1]:
        keys = {workloads.point_key(v) for v in workloads.pool_spec(name).points()}
        assert keys == set(refs[name])
    assert set(workloads.WEAK_CASES) == set(refs["weak-catalog"])
    assert all("verdicts" in v for v in refs["weak-catalog"].values())


def test_seed_fixes_the_selection():
    refs = _refs()
    for name in workloads.NAMES:
        a = workloads.build(name, 7, refs, "unused").selection
        b = workloads.build(name, 7, refs, "unused").selection
        assert a == b
    picks = {tuple(workloads.build("analytic-fig6", s, refs, "unused").selection["points"])
             for s in range(5)}
    assert len(picks) > 1


def test_self_times_sum_to_parent_span():
    ticks = iter(range(1000))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))

    class Box:
        @staticmethod
        def leaf():
            return 1

        @staticmethod
        def mid():
            return Box.leaf() + Box.leaf()

        @staticmethod
        def root():
            return Box.mid() + Box.leaf()

    originals = {attr: Box.__dict__[attr] for attr in ("leaf", "mid", "root")}
    for attr in originals:
        tracer.wrap(Box, attr, attr)
    tracer.enabled = True
    assert Box.root() == 3
    tracer.uninstall()
    assert all(Box.__dict__[attr] is raw for attr, raw in originals.items())

    self_t = tracer.self_times()
    kids = tracer.children()
    for span in tracer.spans:
        children = kids.get(span.span_id, [])
        assert self_t[span.span_id] + sum(c.duration for c in children) == span.duration
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(self_t.values()) == root.duration
    assert {s.name for s in kids[root.span_id]} == {"mid", "leaf"}


def test_wrappers_nest_real_layers_and_uninstall():
    import tmfc.harness.sweep as sweep
    from tmfc.harness.cases import fig6_spec

    original = (sweep.run_sweep, sweep.ssvm_gf, np.linalg.svd)
    tracer = Tracer("t")
    layers.install(tracer)
    tracer.enabled = True
    try:
        spec = workloads.single_point_specs(fig6_spec(step=0.5, lo=0.5, hi=1.0))[0]
        rec = sweep.run_sweep(spec).records[0]
    finally:
        tracer.uninstall()
    assert (sweep.run_sweep, sweep.ssvm_gf, np.linalg.svd) == original
    assert not rec["error"]
    names = {s.span_id: s.name for s in tracer.spans}
    parent = {s.name: names.get(s.parent) for s in tracer.spans}
    assert parent["harness.point"] == "harness.sweep"
    assert parent["gf_analytic.ssvm_gf"] == "harness.point"
    assert parent["model.eval_pump"] == "gf_analytic.ssvm_gf"
    assert parent["schmidt.svd"] == "schmidt.decompose"
    metrics = layers.layer_metrics(tracer, 1.0, 0.0, 1.0)
    assert metrics["schmidt.svd_elems"]["value"] > 0
    assert sum(metrics[f"schmidt.tau_source.{k}"]["value"]
               for k in ("gss", "grr", "unitarity")) == 1.0


def test_metric_tables_match_benchmark_json():
    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER_UNITS
    assert set(w["name"] for w in bench["workloads"]) <= set(run.WORKLOADS)
    assert run.WORKLOADS == workloads.NAMES


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_a_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "analytic-fig6",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=180, check=True)
    last = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 25
    wanted = {m["name"]: m["unit"] for m in _bench()[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())
