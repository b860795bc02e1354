"""The three workloads: their pools, the seeded choice, operations and checks.

Every workload is closed-loop with one caller: the benchmark issues the next
call only when the previous one has returned.  The seed picks the points a
run evaluates from the workload's pre-registered pool (and, for
``weak-catalog``, the round-trip case); the program receives only the chosen
``SweepSpec``s and Green functions.  Every call goes through a module
attribute looked up at call time (``sweep.run_sweep``, ``cases.reproduce``,
``gfio.save_gf`` ...), so a traced pass sees it through the wrappers of
``layers.py``.

Why each workload, and what it should leave unchanged:

``numeric-ssvm-pool``
    Two points of the velocity-matched short pump (beta=(2, 0, 0),
    tau_p=0.1) through ``run_sweep(workers=2)``, one point per worker: a
    large grid (n_t 1728, n_z 461, 12.8 MB of pump stages) with a pump static
    in the frame, and the only workload on the process pool.  The BLAS and
    OpenMP thread variables are passed through as found, because setting
    them would hide the pool's oversubscription on a small machine.  Kernel
    and SVD changes should leave its points_per_s and point_s.p50 unchanged.
``analytic-fig6``
    Serial ``analytic-ssvm`` sweep of 25 of the 49 points of
    ``fig6_spec(step=0.05)``: about 30 % ``ssvm_gf`` and 70 % SVD of a
    1153x513 matrix.  No solver: solver and pool changes should leave every
    end-to-end metric unchanged.
``weak-catalog``
    The eight weak-conversion ``reproduce()`` cases (1024x1024 ``sample_low_ce``
    grids and the largest SVDs in the catalog), one
    ``save_gf`` -> ``load_gf`` -> ``decompose`` round trip of a 33.6 MB
    container (the ``tmfc decompose`` path) and a CSV plus JSON export of
    the case results.  No solver: solver and pool changes should leave every
    end-to-end metric unchanged.
"""

import csv
import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import tmfc.gf_analytic as gf_analytic
import tmfc.gf_numeric as gf_numeric
import tmfc.harness.cases as cases
import tmfc.harness.gfio as gfio
import tmfc.harness.sweep as sweep
import tmfc.model as model
import tmfc.schmidt as schmidt

# ROADMAP item 3's tolerance, taken relative: to the pinned value for S and
# the separability, to the pinned rho_1 for every rho_n
TOL = 1e-4
WEAK_CASES = ("table1-a", "table1-b", "table1-c", "table1-d",
              "fig2", "fig3a", "fig3b", "fig5")
POOL_GAMMAS = tuple(round(0.5 + 0.1 * i, 10) for i in range(11))
NAMES = ("numeric-ssvm-pool", "analytic-fig6", "weak-catalog")


def ssvm_pool_spec(gammas: Sequence[float] = POOL_GAMMAS) -> sweep.SweepSpec:
    """Numeric engine at the velocity-matched short-pump point."""
    params = model.RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    return sweep.SweepSpec(params=params, pump=model.PumpSpec(tau_p=0.1),
                           axes=(("gamma_bar", tuple(gammas)),),
                           engine="numeric", n_report=8)


def pool_spec(name: str) -> sweep.SweepSpec:
    """The full pre-registered pool of a sweep workload."""
    if name == "numeric-ssvm-pool":
        return ssvm_pool_spec()
    if name == "analytic-fig6":
        return cases.fig6_spec(step=0.05)
    raise KeyError(name)


def point_key(values: Dict[str, float]) -> str:
    return ",".join(f"{k}={v:g}" for k, v in values.items())


def single_point_specs(spec: sweep.SweepSpec) -> List[sweep.SweepSpec]:
    """One spec per point, axes kept in declaration order."""
    return [replace(spec, axes=tuple((k, (v,)) for k, v in values.items()))
            for values in spec.points()]


# ---------------------------------------------------------------------------
# checks


@dataclass
class Outcome:
    """What one point, case or step produced, checked against its reference."""

    key: str
    selectivity: Optional[float] = None
    s_ref: Optional[float] = None
    problems: List[str] = field(default_factory=list)


def compare(key: str, got: dict, ref: dict) -> List[str]:
    """Problems with one result (selectivity, separability, rho list)."""
    if got.get("error"):
        return [f"{key}: error record {got['error']}"]
    problems = []
    for name in ("selectivity", "separability"):
        if not abs(got[name] - ref[name]) <= TOL * abs(ref[name]):
            problems.append(f"{key}: {name} {got[name]!r} vs pinned {ref[name]!r}")
    rho, rho_ref = list(got["rho"]), ref["rho"]
    if len(rho) != len(rho_ref):
        problems.append(f"{key}: {len(rho)} rho values vs pinned {len(rho_ref)}")
    elif not all(abs(a - b) <= TOL * rho_ref[0] for a, b in zip(rho, rho_ref)):
        problems.append(f"{key}: rho {rho} vs pinned {rho_ref}")
    return problems


def _outcome(key: str, got: dict, refs: dict) -> Outcome:
    ref = refs.get(key)
    if ref is None:
        return Outcome(key, problems=[f"{key}: no pinned reference"])
    return Outcome(key, got.get("selectivity"), ref["s_ref"], compare(key, got, ref))


def verdicts(report) -> dict:
    return {"passed": bool(report.passed),
            "checks": {c.name: bool(c.ok) for c in report.checks}}


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One closed-loop call; ``points`` operations complete when it returns."""

    label: str
    run: Callable[[], List[Outcome]]
    points: int = 1


@dataclass
class Workload:
    name: str
    selection: dict
    ops: List[Op]
    # the same points with workers=1; the traced pass runs these, and the
    # pool's efficiency is measured against their untraced time
    serial_ops: List[Op]
    workers: int
    warm_up: Callable[[], None]


def _sweep_op(spec: sweep.SweepSpec, refs: dict, workers: int = 1) -> Op:
    keys = [point_key(v) for v in spec.points()]

    def run() -> List[Outcome]:
        result = sweep.run_sweep(spec, workers=workers)
        return [_outcome(k, rec, refs) for k, rec in zip(keys, result.records)]

    return Op(";".join(keys), run, len(keys))


def _warm_sweep(spec: sweep.SweepSpec) -> Callable[[], None]:
    """First-call warm-up on arrays of the real size.

    A numeric point propagates two columns per channel on the point's own
    grid; an ssvm point is evaluated whole.  Allocating and freeing arrays
    of the real size once lets the allocator settle, which a tiny warm-up
    leaves to the first timed cycle.
    """
    first = single_point_specs(spec)[0]
    if spec.engine == "numeric":
        params, pump = first.point_config(first.points()[0])
        grid = gf_numeric.grid_for_basis(params, pump,
                                         gf_numeric.default_basis_layout(params, pump))
        first = replace(first, grid=grid, basis={"n_r": 2, "n_s": 2, "tol_leak": 1.0})
    elif spec.engine == "low-ce":
        first = replace(first, low_ce_n=64)

    def warm():
        rec = sweep.run_sweep(first).records[0]
        if rec["error"]:
            raise RuntimeError(f"warm-up point failed: {rec['error']}")
    return warm


def _sweep_workload(name: str, seed: int, refs: dict) -> Workload:
    rng = random.Random(seed)
    base = pool_spec(name)
    axes = dict(base.axes)
    if name == "numeric-ssvm-pool":
        spec = ssvm_pool_spec(sorted(rng.sample(POOL_GAMMAS, 2)))
        specs = [spec]
        ops = [_sweep_op(spec, refs, workers=2)]
        serial, workers = [_sweep_op(spec, refs)], 2
    else:
        gammas = sorted(rng.sample(axes["gamma_bar"], 25))
        specs = single_point_specs(replace(base, axes=(("gamma_bar", tuple(gammas)),)))
        ops = [_sweep_op(s, refs) for s in specs]
        serial, workers = ops, 1
    selection = {"points": [point_key(v) for s in specs for v in s.points()]}
    return Workload(name, selection, ops, serial, workers, _warm_sweep(specs[0]))


def _weak_case_gf(case_id: str):
    """The Green function a weak case's sweep point samples."""
    spec = cases.low_ce_spec(case_id)
    (o_lo, o_hi), (i_lo, i_hi) = model.conversion_support(
        spec.params, spec.pump, margin=spec.low_ce_margin)
    return gf_analytic.sample_low_ce(
        spec.params, spec.pump,
        np.linspace(o_lo, o_hi, spec.low_ce_n), np.linspace(i_lo, i_hi, spec.low_ce_n))


def _weak_workload(seed: int, refs: dict, out_dir: str) -> Workload:
    rng = random.Random(seed)
    trip_case = rng.choice(WEAK_CASES)
    results: Dict[str, object] = {}
    gf_box = {}

    def case_op(case_id: str) -> Op:
        def run() -> List[Outcome]:
            result, report = cases.reproduce(case_id)
            results[case_id] = result
            out = _outcome(case_id, result.records[0], refs)
            pinned = refs.get(case_id, {}).get("verdicts")
            if verdicts(report) != pinned:
                out.problems.append(f"{case_id}: verdicts {verdicts(report)} "
                                    f"vs pinned {pinned}")
            return [out]
        return Op(case_id, run)

    def round_trip() -> List[Outcome]:
        path = os.path.join(out_dir, "round_trip.gf")
        gfio.save_gf(gf_box["gf"], path)
        res = schmidt.decompose(gfio.load_gf(path), n_report=8, want_modes=False)
        got = {"selectivity": res.selectivity, "separability": res.separability,
               "rho": [float(x) for x in res.rho]}
        return [_outcome(trip_case, got, refs)]

    def export() -> List[Outcome]:
        problems = []
        for case_id in WEAK_CASES:
            result = results[case_id]
            stem = os.path.join(out_dir, f"export-{case_id}")
            gfio.export_csv(result, stem + ".csv")
            gfio.export_json(result, stem + ".json")
            if gfio.import_json(stem + ".json")["records"] != result.records:
                problems.append(f"{case_id}: JSON export does not read back")
            with open(stem + ".csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            want = result.records[0]["selectivity"]
            if len(rows) != 1 or not math.isclose(float(rows[0]["selectivity"]),
                                                  want, rel_tol=1e-11):
                problems.append(f"{case_id}: CSV export does not read back")
        return [Outcome("export", problems=problems)]

    def warm():
        _warm_sweep(cases.low_ce_spec(WEAK_CASES[0]))()
        gf_box["gf"] = _weak_case_gf(trip_case)

    ops = [case_op(c) for c in WEAK_CASES]
    ops += [Op(f"round-trip {trip_case}", round_trip), Op("export", export)]
    return Workload("weak-catalog", {"round_trip_case": trip_case}, ops, ops, 1, warm)


def build(name: str, seed: int, refs: dict, out_dir: str) -> Workload:
    if name == "weak-catalog":
        return _weak_workload(seed, refs[name], out_dir)
    return _sweep_workload(name, seed, refs[name])
