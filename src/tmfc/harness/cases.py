"""Pre-registered reproduction cases with stored expected values.

Each case pins one published table, figure study, or limit check to a
concrete sweep configuration and compares the result against expected
values at per-case tolerances.  Tolerances live with the case because the
sources carry different precision: three-significant-figure table entries
get relative bounds, one or two digit prints get absolute
half-print-step bounds, and curve studies get qualitative bounds (peak
value within 0.05, peak location within stated bands).
"""

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..model import (
    FieldState,
    PumpShape,
    PumpSpec,
    RegimeParams,
    TemporalGrid,
)
from ..gf_analytic import (
    default_ssvm_grids,
    ecop_bessel_identity_error,
    ecop_output,
    short_pump_limit_peak,
    ssvm_gf,
    ssvm_to_ecop_limit_check,
)
from ..schmidt import decompose
from ..solver import Propagator
from .sweep import SweepResult, SweepSpec, run_sweep


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    passed: bool
    checks: Tuple[Check, ...]
    notes: Tuple[str, ...] = ()

    def lines(self) -> List[str]:
        out = [f"{self.case_id}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            out.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        for n in self.notes:
            out.append(f"  note: {n}")
        return out


def _report(case_id: str, checks: Sequence[Check],
            notes: Sequence[str] = ()) -> CaseReport:
    return CaseReport(case_id=case_id, passed=all(c.ok for c in checks),
                      checks=tuple(checks), notes=tuple(notes))


def _bound_check(name: str, err: float, tol: float, detail: str) -> Check:
    """``err <= tol``, with the share of the tolerance used ending the detail."""
    return Check(name, bool(err <= tol),
                 f"{detail} (tol {tol:g}, {100.0 * err / tol:.1f} % used)")


def _rel_check(name: str, measured: float, target: float, tol: float) -> Check:
    err = abs(measured / target - 1.0)
    return _bound_check(name, err, tol, f"measured {measured:.5g}, target "
                                        f"{target:g}, rel err {err:.2e}")


def _abs_check(name: str, measured: float, target: float, tol: float) -> Check:
    err = abs(measured - target)
    return _bound_check(name, err, tol, f"measured {measured:.5g}, target "
                                        f"{target:g}, abs err {err:.2e}")


# ---------------------------------------------------------------------------
# low-conversion table and figure cases

_GBAR_WEAK = 0.01


class _WeakCase(NamedTuple):
    """A one-point ``low-ce`` sweep at gamma_bar 0.01, checked against the
    published separability (within 2 %) and CE ratios to the leading mode,
    each ratio as ``(mode, target, tolerance)`` under ``ratio_check``."""

    title: str
    betas: Tuple[float, float, float]
    shape: str
    tau_p: float
    separability: float
    ratios: Tuple[Tuple[int, float, float], ...] = ()
    ratio_check: Callable = _rel_check
    notes: Tuple[str, ...] = ()


def _table1(*targets: float) -> Tuple[Tuple[int, float, float], ...]:
    """Table 1's three-figure ratios of modes 1 to 4, each within 2 %."""
    return tuple((mode, target, 0.02) for mode, target in enumerate(targets, 1))


_GAUSS = PumpShape.GAUSSIAN.value
# the figures print one or two digits: absolute half-print-step bounds, or
# full steps where the print looks truncated
_FIG3 = dict(
    ratios=((2, 0.022, 5e-4), (3, 0.006, 1e-3), (4, 0.003, 1e-3)),
    ratio_check=_abs_check,
    notes=("single-digit CE prints look truncated rather than rounded "
           "(converged ratio 3 is 0.0066); those carry full-print-step bounds",))

_WEAK_CASES: Dict[str, _WeakCase] = {
    "table1-a": _WeakCase("weak-conversion CE table, pump-matched r channel",
                          (1.0, -1.0, 1.0), _GAUSS, 1.0, 0.646,
                          _table1(1.0, 0.306, 0.088, 0.037)),
    "table1-b": _WeakCase("weak-conversion CE table, pump between channels",
                          (4.0, 2.0, 3.0), _GAUSS, 1.0, 0.676,
                          _table1(1.0, 0.275, 0.064, 0.033)),
    "table1-c": _WeakCase("weak-conversion CE table, pump-matched s channel",
                          (3.5, 1.5, 1.5), _GAUSS, 1.0, 0.646,
                          _table1(1.0, 0.306, 0.088, 0.037)),
    "table1-d": _WeakCase("weak-conversion CE table, detuned pump",
                          (3.5, 1.5, 1.0), _GAUSS, 1.0, 0.610,
                          _table1(1.0, 0.342, 0.115, 0.047)),
    "fig2": _WeakCase("near-separable weak kernel", (8.0, 4.0, 6.0), _GAUSS,
                      0.707, 0.913,
                      ((2, 0.029, 5e-4), (3, 0.028, 5e-4), (4, 0.011, 5e-4)),
                      _abs_check),
    "fig3a": _WeakCase("short-pump weak kernel, r matched", (1.0, -1.0, 1.0),
                       _GAUSS, 0.1, 0.967, **_FIG3),
    "fig3b": _WeakCase("short-pump weak kernel, s matched", (2.0, 0.0, 0.0),
                       _GAUSS, 0.1, 0.967, **_FIG3),
    "fig5": _WeakCase("first-order Hermite-Gaussian pump", (1.0, -1.0, 1.0),
                      PumpShape.HERMITE_GAUSS_1.value, 0.1, 0.936),
}


def low_ce_spec(case_id: str) -> SweepSpec:
    case = _WEAK_CASES[case_id]
    params = RegimeParams(*case.betas).with_gamma_bar(_GBAR_WEAK)
    return SweepSpec(params=params, pump=PumpSpec(shape=case.shape, tau_p=case.tau_p),
                     engine="low-ce", n_report=8)


def _case_weak(case_id: str, workers: int = 1):
    case = _WEAK_CASES[case_id]
    result = run_sweep(low_ce_spec(case_id), workers=workers)
    record = result.records[0]
    if record["error"]:
        raise ConfigurationError(f"{case_id} evaluation failed: {record['error']}")
    ce = record["ce"]
    checks = [case.ratio_check(f"CE ratio {mode}", ce[mode - 1] / ce[0], target, tol)
              for mode, target, tol in case.ratios]
    checks.append(_rel_check("separability", record["separability"],
                             case.separability, 0.02))
    return result, _report(case_id, checks, case.notes)


# ---------------------------------------------------------------------------
# exact-kernel sweep cases


def fig6_spec(step: float = 0.1, lo: float = 0.1, hi: float = 2.5) -> SweepSpec:
    """Selectivity vs coupling at the short-pump velocity-matched point."""
    count = int(round((hi - lo) / step)) + 1
    gbars = tuple(round(lo + i * step, 10) for i in range(count))
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    return SweepSpec(params=params, pump=PumpSpec(tau_p=0.1),
                     axes=(("gamma_bar", gbars),), engine="analytic-ssvm",
                     n_report=8)


def _peak(result: SweepResult, key: str = "selectivity"):
    vals = [(r[key], r) for r in result.records if not r["error"]]
    if not vals:
        raise ConfigurationError("no successful sweep points")
    best, record = max(vals, key=lambda p: p[0])
    return best, record


def _refined_peak(records: Sequence[dict]) -> Tuple[float, float]:
    """``(gamma_bar, S)`` at the vertex of the parabola through the
    selectivity argmax of an evenly spaced ``gamma_bar`` sweep and its two
    neighbours."""
    recs = [r for r in records if not r["error"]]
    gbar = np.array([r["gamma_bar"] for r in recs])
    sel = np.array([r["selectivity"] for r in recs])
    k = int(np.argmax(sel))
    if not 0 < k < sel.size - 1:
        raise ConfigurationError("selectivity peak on the sweep edge")
    y0, y1, y2 = sel[k - 1:k + 2]
    offset = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    return (float(gbar[k] + offset * (gbar[k + 1] - gbar[k])),
            float(y1 - 0.25 * (y0 - y2) * offset))


def _case_fig6(workers: int = 1):
    result = run_sweep(fig6_spec(), workers=workers)
    best, record = _peak(result)
    vertex = _refined_peak(result.records)[0]
    checks = [
        _abs_check("peak selectivity", best, 0.81, 0.05),
        Check("peak location", 0.8 <= record["gamma_bar"] <= 1.2,
              f"argmax gamma_bar {record['gamma_bar']:g} in [0.8, 1.2], "
              f"parabola vertex {vertex:.4f} "
              "(published location 1.0, band 20%)"),
    ]
    notes = ("curve study: qualitative bounds (peak value within 0.05, "
             "location within 20%); a parabola through the peak of a 0.05 "
             "step sweep puts it at gamma_bar 1.159, which tends to 1.1272 "
             "as tau_p -> 0 (short_pump_limit_peak)",)
    return result, _report("fig6", checks, notes)


def ssvm_limit_spec() -> SweepSpec:
    gbars = tuple(round(0.9 + 0.05 * i, 10) for i in range(11))
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    return SweepSpec(params=params, pump=PumpSpec(tau_p=0.01),
                     axes=(("gamma_bar", gbars),), engine="analytic-ssvm",
                     n_report=8)


def _case_ssvm_limit(workers: int = 1):
    result = run_sweep(ssvm_limit_spec(), workers=workers)
    best, record = _peak(result)
    checks = [
        _abs_check("limiting peak selectivity", best, 0.85, 0.05),
    ]
    notes = ("0.826 is the tau_p 0.01 grid value; the exact tau_p -> 0 "
             "limit (short_pump_limit_peak) is 0.829644 at gamma_bar 1.1272, "
             "below the published approximately 0.85; the qualitative 0.05 "
             "band covers both",)
    return result, _report("ssvm-limit-0.85", checks, notes)


def _case_ssvm_limit_exact(workers: int = 1):
    s_star, gbar_star = short_pump_limit_peak(ssvm_limit_spec().params)
    checks = [
        _abs_check("limit peak selectivity", s_star, 0.829644, 1e-5),
        _abs_check("limit peak coupling", gbar_star, 1.1272, 1e-3),
    ]
    notes = ("exact tau_p -> 0 limit of the velocity-matched rs kernel, "
             "g J0(2 g sqrt((1 - u) v)) on the unit square with "
             "g = gamma_bar sqrt(beta_rs L) (short_pump_limit_peak): "
             "S* 0.829644 at gamma_bar* 1.1272 for beta_rs L = 2; the grid "
             "approaches it from below, S 0.7993 at tau_p 0.1 and 0.8260 at "
             "tau_p 0.01 (gamma_bar 1.15)",)
    payload = {"s_star": s_star, "gamma_bar_star": gbar_star}
    return payload, _report("ssvm-limit-exact", checks, notes)


def scup_opt_spec() -> SweepSpec:
    params = RegimeParams(beta_r=4.0, beta_s=0.0, beta_p=2.0).with_gamma_bar(1.0)
    return SweepSpec(
        params=params, pump=PumpSpec(tau_p=1.0),
        axes=(("tau_p", (0.5, 1.0, 1.5, 2.0)),
              ("gamma_bar", (0.45, 0.6, 0.75, 0.9, 1.05, 1.2, 1.35, 1.5))),
        engine="numeric", n_report=8)


def _case_scup_opt(workers: int = 1):
    result = run_sweep(scup_opt_spec(), workers=workers)
    best, record = _peak(result)
    vertex = _refined_peak([r for r in result.records
                            if r["tau_p"] == record["tau_p"]])[0]
    checks = [
        _abs_check("peak selectivity", best, 0.70, 0.05),
        Check("peak pump width", 1.0 <= record["tau_p"] <= 2.0,
              f"argmax tau_p {record['tau_p']:g} in [1.0, 2.0] "
              "(published location 1.5; the ridge is flat)"),
        Check("peak coupling", 0.6 <= record["gamma_bar"] <= 0.9,
              f"argmax gamma_bar {record['gamma_bar']:g} in [0.6, 0.9], "
              f"parabola vertex {vertex:.4f} at tau_p {record['tau_p']:g} "
              "(published location 0.75)"),
    ]
    notes = ("curve study: qualitative bounds; the grid argmax is tau_p 1.0, "
             "gamma_bar 0.9 (S 0.695), while the optimum sits between grid "
             "points: a gamma_bar axis of step 0.025 at tau_p 1.0 puts it at "
             "gamma_bar 0.844 with peak 0.700, and tau_p 0.75 and 1.25 peak "
             "lower (0.667, 0.689)",)
    return result, _report("scup-opt", checks, notes)


def _case_betap_symmetry(workers: int = 1):
    params = RegimeParams(beta_r=4.0, beta_s=0.0, beta_p=2.0).with_gamma_bar(_GBAR_WEAK)
    spec = SweepSpec(params=params, pump=PumpSpec(tau_p=0.5),
                     axes=(("beta_p", (0.5, 1.0, 1.5, 2.5, 3.0, 3.5)),),
                     engine="low-ce", n_report=8)
    result = run_sweep(spec, workers=workers)
    by_bp = {r["beta_p"]: r for r in result.records if not r["error"]}
    checks = []
    for delta in (0.5, 1.0, 1.5):
        lo = by_bp[2.0 - delta]["selectivity"] / _GBAR_WEAK ** 2
        hi = by_bp[2.0 + delta]["selectivity"] / _GBAR_WEAK ** 2
        checks.append(_abs_check(f"S/gbar^2 mirror delta={delta:g}", hi, lo, 1e-3))
    return result, _report("betap-symmetry", checks)


def _case_chirp_invariance(workers: int = 1):
    from ..model import QuadraticChirp

    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    plain = PumpSpec(tau_p=1.0)
    chirped = replace(plain, chirp=QuadraticChirp(5.0))
    t_out, t_in = default_ssvm_grids(params, plain)
    # every singular value: at n_report = min(shape) one values-only SVD
    n = min(t_out.size, t_in.size)
    rho0, rho1 = (decompose(ssvm_gf(params, pump, t_out, t_in, weighted=True), n,
                            want_modes=False).rho for pump in (plain, chirped))
    diff = float(np.max(np.abs(rho0 - rho1)))
    checks = [
        _bound_check("spectrum invariance", diff, 1e-6,
                     f"max |delta rho| {diff:.2e} over {n} values"),
    ]
    payload = {"max_abs_diff": diff, "n_values": int(n)}
    return payload, _report("chirp-invariance", checks)


def _case_ecop_limit(workers: int = 1):
    rows = ssvm_to_ecop_limit_check(beta_rs_values=(0.1, 0.03, 0.01, 3e-3, 1e-3))
    errs = [err for _, err in rows]
    checks = [
        Check("limit convergence", all(a > b for a, b in zip(errs, errs[1:])),
              "quadrature error decreases along beta_rs = "
              + ", ".join(f"{b:g}" for b, _ in rows)),
        _abs_check("limit error at beta_rs=1e-3", errs[-1], 0.0, 1e-2),
    ]
    for g in (0.5, 2.0, 10.0):
        err = ecop_bessel_identity_error(g)
        checks.append(_bound_check(f"band integral identity g={g:g}", err, 1e-8,
                                   f"residual {err:.2e}"))
    params = RegimeParams(beta_r=0.3, beta_s=0.3, beta_p=1.0, gamma=1.2)
    pump = PumpSpec(tau_p=0.5)
    grid = TemporalGrid(-6.0, 6.0, 2048, 400)
    t = grid.times
    a_r0 = np.exp(-((t - 0.3) ** 2)) * (1.0 + 0j)
    a_s0 = (t + 0.1) * np.exp(-(t ** 2) / 0.8) * (1.0 + 0j)
    out = Propagator(params, pump, grid).run(a_r0, a_s0)
    ref = ecop_output(params, pump, grid, FieldState(a_r=a_r0, a_s=a_s0))
    err_r = np.linalg.norm(out.a_r - ref.a_r) / np.linalg.norm(ref.a_r)
    err_s = np.linalg.norm(out.a_s - ref.a_s) / np.linalg.norm(ref.a_s)
    checks.append(_bound_check("solver vs closed form", max(err_r, err_s), 1e-4,
                               f"rel L2 r {err_r:.2e}, s {err_s:.2e}"))
    payload = {"limit_rows": [[b, e] for b, e in rows],
               "solver_rel_l2": [float(err_r), float(err_s)]}
    return payload, _report("ecop-limit", checks)


# ---------------------------------------------------------------------------
# catalog

CATALOG: Dict[str, Tuple[str, Callable]] = {
    **{case_id: (case.title, functools.partial(_case_weak, case_id))
       for case_id, case in _WEAK_CASES.items()},
    "fig6": ("selectivity vs coupling, exact kernel", _case_fig6),
    "scup-opt": ("symmetric counter-propagating optimum", _case_scup_opt),
    "ssvm-limit-0.85": ("short-pump limiting selectivity", _case_ssvm_limit),
    "ssvm-limit-exact": ("exact short-pump limit of the selectivity peak",
                         _case_ssvm_limit_exact),
    "betap-symmetry": ("pump-slowness reflection symmetry", _case_betap_symmetry),
    "chirp-invariance": ("pump chirp leaves the spectrum unchanged",
                         _case_chirp_invariance),
    "ecop-limit": ("equal-slowness limits and identities", _case_ecop_limit),
}


def case_ids() -> List[str]:
    return list(CATALOG)


def reproduce(case_id: str, workers: int = 1):
    """Run one pre-registered case; returns (payload, report).

    The payload is the underlying sweep result where the case is a sweep,
    or a small dictionary of measured numbers for the limit/identity cases.
    """
    if case_id not in CATALOG:
        raise ConfigurationError(
            f"unknown case {case_id!r}; known cases: {', '.join(CATALOG)}")
    _, runner = CATALOG[case_id]
    return runner(workers=workers)
