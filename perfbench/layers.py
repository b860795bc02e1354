"""Where the per-layer spans are taken, and the metrics derived from them.

``install`` puts a wrapper at each attribute the program's callers look up;
``layer_metrics`` turns the recorded spans into the per-layer metrics named
in ``BENCHMARK.json``.  Computed counts (cells, FFTs, stage bytes, samples,
SVD elements) come from array shapes, not from hardware counters.
"""

import os
import statistics

import numpy as np

import tmfc.gf_analytic
import tmfc.gf_numeric
import tmfc.harness.cases
import tmfc.harness.gfio
import tmfc.harness.sweep
import tmfc.model
import tmfc.schmidt
import tmfc.solver

from spans import Tracer

# per-layer metric name -> unit; the order is the print order
PER_LAYER_UNITS = {
    "model.grid_s": "s",
    "model.basis_s": "s",
    "model.eval_pump_s": "s",
    "model.eval_pump_calls": "count",
    "solver.setup_s": "s",
    "solver.run_s": "s",
    "solver.columns": "count",
    "solver.cells": "count",
    "solver.ns_per_cell": "ns",
    "solver.fft_count": "count",
    "solver.stage_mb": "MB",
    "gf_numeric.assemble_s": "s",
    "gf_numeric.assemble_self_s": "s",
    "gf_numeric.worst_leak": "1",
    "gf_numeric.unitarity_defect": "1",
    "gf_analytic.ssvm_gf_s": "s",
    "gf_analytic.sample_low_ce_s": "s",
    "gf_analytic.samples": "count",
    "gf_analytic.ns_per_sample": "ns",
    "schmidt.decompose_s": "s",
    "schmidt.svd_s": "s",
    "schmidt.pairing_s": "s",
    "schmidt.svd_elems": "count",
    "schmidt.tau_source.gss": "count",
    "schmidt.tau_source.grr": "count",
    "schmidt.tau_source.unitarity": "count",
    "harness.point_s": "s",
    "harness.sweep_self_s": "s",
    "harness.pool_efficiency": "1",
    "harness.reproduce_s": "s",
    "harness.checks": "count",
    "harness.checks_failed": "count",
    "harness.save_gf_s": "s",
    "harness.load_gf_s": "s",
    "harness.gf_mb": "MB",
    "harness.export_s": "s",
    "harness.export_mb": "MB",
    "trace.overhead_pct": "%",
    "trace.wrapper_pct": "%",
}


def _propagator_setup(args, kwargs, result):
    prop = args[0]
    stages = getattr(prop, "_stages", None)
    return {"stage_bytes": float(stages.nbytes) if stages is not None else 0.0}


def _propagator_run(args, kwargs, result):
    prop = args[0]
    grid, params = prop.grid, prop.params
    shifting = (params.beta_r != 0) + (params.beta_s != 0)
    # one forward and one inverse FFT per shifting channel: a half step in,
    # n_z - 1 full steps, and a half step out
    return {"cells": float(grid.n_t * grid.n_z),
            "ffts": float(2 * shifting * (grid.n_z + 1))}


def _assembled(args, kwargs, result):
    return {"worst_leak": float(tmfc.gf_numeric.leakage_report(result)["max"]),
            "unitarity_defect": float(tmfc.gf_numeric.unitarity_defect(result))}


def _sampled(args, kwargs, result):
    return {"samples": float(sum(m.size for m in
                                 (result.g_rr, result.g_rs, result.g_sr, result.g_ss)
                                 if m is not None))}


def _decomposed(args, kwargs, result):
    return {f"tau_{result.tau_source}": 1.0}


def _svd(args, kwargs, result):
    return {"elems": float(np.asarray(args[0]).size)}


def _reproduced(args, kwargs, result):
    report = result[1]
    return {"checks": float(len(report.checks)),
            "checks_failed": float(sum(not c.ok for c in report.checks))}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": float(os.path.getsize(path))}


def _loaded_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": float(os.path.getsize(path))}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    sweep = tmfc.harness.sweep
    gfio = tmfc.harness.gfio
    tracer.wrap(tmfc.model.TemporalGrid, "for_interaction", "model.grid")
    tracer.wrap(tmfc.gf_numeric, "hermite_gauss_basis", "model.basis")
    tracer.wrap(tmfc.solver, "eval_pump", "model.eval_pump")
    tracer.wrap(tmfc.gf_analytic, "eval_pump", "model.eval_pump")
    tracer.wrap(tmfc.solver.Propagator, "__init__", "solver.setup", _propagator_setup)
    tracer.wrap(tmfc.solver.Propagator, "run", "solver.run", _propagator_run)
    tracer.wrap(sweep, "assemble_gf", "gf_numeric.assemble", _assembled)
    tracer.wrap(sweep, "ssvm_gf", "gf_analytic.ssvm_gf", _sampled)
    tracer.wrap(sweep, "sample_low_ce", "gf_analytic.sample_low_ce", _sampled)
    tracer.wrap(sweep, "decompose", "schmidt.decompose", _decomposed)
    tracer.wrap(tmfc.schmidt, "decompose", "schmidt.decompose", _decomposed)
    tracer.wrap(np.linalg, "svd", "schmidt.svd", _svd, only_under="schmidt.decompose")
    tracer.wrap(sweep, "evaluate_point", "harness.point")
    tracer.wrap(sweep, "run_sweep", "harness.sweep")
    tracer.wrap(tmfc.harness.cases, "run_sweep", "harness.sweep")
    tracer.wrap(tmfc.harness.cases, "reproduce", "harness.reproduce", _reproduced)
    tracer.wrap(gfio, "save_gf", "harness.save_gf", _file_bytes)
    tracer.wrap(gfio, "load_gf", "harness.load_gf", _loaded_bytes)
    tracer.wrap(gfio, "export_csv", "harness.export", _file_bytes)
    tracer.wrap(gfio, "export_json", "harness.export", _file_bytes)


def layer_metrics(tracer: Tracer, pool_efficiency: float,
                  overhead_pct: float, traced_s: float) -> dict:
    """Per-layer metrics from the spans of one traced pass of ``traced_s``."""
    self_t = tracer.self_times()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(name):
        return sum(self_t[s.span_id] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def counter(name, key, how=sum):
        vals = [s.counters.get(key, 0.0) for s in by_name.get(name, ())]
        return float(how(vals)) if vals else 0.0

    def per(numer_s, denom):
        return numer_s / denom * 1e9 if denom else 0.0

    points = [s.duration for s in by_name.get("harness.point", ())]
    cells = counter("solver.run", "cells")
    samples = (counter("gf_analytic.ssvm_gf", "samples")
               + counter("gf_analytic.sample_low_ce", "samples"))
    values = {
        "model.grid_s": total("model.grid"),
        "model.basis_s": total("model.basis"),
        "model.eval_pump_s": total("model.eval_pump"),
        "model.eval_pump_calls": float(count("model.eval_pump")),
        "solver.setup_s": self_total("solver.setup"),
        "solver.run_s": total("solver.run"),
        "solver.columns": float(count("solver.run")),
        "solver.cells": cells,
        "solver.ns_per_cell": per(total("solver.run"), cells),
        "solver.fft_count": counter("solver.run", "ffts"),
        "solver.stage_mb": counter("solver.setup", "stage_bytes", max) / 1e6,
        "gf_numeric.assemble_s": total("gf_numeric.assemble"),
        "gf_numeric.assemble_self_s": self_total("gf_numeric.assemble"),
        "gf_numeric.worst_leak": counter("gf_numeric.assemble", "worst_leak", max),
        "gf_numeric.unitarity_defect": counter("gf_numeric.assemble",
                                               "unitarity_defect", max),
        "gf_analytic.ssvm_gf_s": total("gf_analytic.ssvm_gf"),
        "gf_analytic.sample_low_ce_s": total("gf_analytic.sample_low_ce"),
        "gf_analytic.samples": samples,
        "gf_analytic.ns_per_sample": per(total("gf_analytic.ssvm_gf")
                                         + total("gf_analytic.sample_low_ce"), samples),
        "schmidt.decompose_s": total("schmidt.decompose"),
        "schmidt.svd_s": total("schmidt.svd"),
        "schmidt.pairing_s": self_total("schmidt.decompose"),
        "schmidt.svd_elems": counter("schmidt.svd", "elems"),
        "schmidt.tau_source.gss": counter("schmidt.decompose", "tau_gss"),
        "schmidt.tau_source.grr": counter("schmidt.decompose", "tau_grr"),
        "schmidt.tau_source.unitarity": counter("schmidt.decompose", "tau_unitarity"),
        "harness.point_s": statistics.median(points) if points else 0.0,
        "harness.sweep_self_s": self_total("harness.sweep"),
        "harness.pool_efficiency": pool_efficiency,
        "harness.reproduce_s": total("harness.reproduce"),
        "harness.checks": counter("harness.reproduce", "checks"),
        "harness.checks_failed": counter("harness.reproduce", "checks_failed"),
        "harness.save_gf_s": total("harness.save_gf"),
        "harness.load_gf_s": total("harness.load_gf"),
        "harness.gf_mb": counter("harness.save_gf", "bytes", max) / 1e6,
        "harness.export_s": total("harness.export"),
        "harness.export_mb": counter("harness.export", "bytes") / 1e6,
        "trace.overhead_pct": overhead_pct,
        "trace.wrapper_pct": 100.0 * tracer.own_s / traced_s if traced_s else 0.0,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
