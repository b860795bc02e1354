"""Acceptance suite: eleven criteria against stored reference values.

Each test prints one verdict line (shown even under output capture) and
then asserts the criterion bounds.

Criteria 4 and 5 check the velocity-matched short-pump selectivity peak
against its exact tau_p -> 0 limit, ``short_pump_limit``: the rs kernel
tends to ``g J0(2 g sqrt((1 - u) v))`` on the unit square, with ``u`` the
pump cumulative intensity, ``v`` the remaining walk-off fraction and
``g = gamma_bar sqrt(beta_rs L)``.  Its peak is S* = 0.829644 at
gamma_bar* = 1.12721 (beta_rs L = 2).  Finite pumps approach it from below
at first order in tau_p, and their peak location drifts upward by about
0.3 tau_p:

  criterion 4: at tau_p 0.1 the parabola-refined peak is S 0.7994 at
      gamma_bar 1.159, checked against 0.81 +- 0.02 and against
      [gamma_bar*, gamma_bar* + 0.5 tau_p].
  criterion 5: the oracle's S* and gamma_bar*; refined grid peaks at
      tau_p 0.02 and 0.01 below S*; their Richardson estimate within 1e-3.

The published figures (peak location 1.0, limit about 0.85) lie outside
what the documented model gives (S = rho_1^4 / sum rho_n^2, gamma_bar =
gamma / (beta_r - beta_s), square-normalized pump); the verdict lines print
the offset from each.  Whether the paper uses another gamma_bar scale
cannot be settled from the abstract alone.  Criterion 6's location offset
points the same way: its argmax gamma_bar 0.9 passes on the inclusive upper
edge of [0.6, 0.9], against a published 0.75.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from tmfc import (
    BasisSpec,
    FieldState,
    Propagator,
    PumpSpec,
    RegimeParams,
    TemporalGrid,
    assemble_gf,
    conversion_support,
    decompose,
    default_ssvm_grids,
    ecop_bessel_identity_error,
    ecop_output,
    energy,
    gf_fourier,
    hermite_gauss_basis,
    low_ce_gf,
    low_ce_gf_freq,
    ridge_slope,
    sample_low_ce,
    shape_fidelity,
    short_pump_limit_peak,
    ssvm_gf,
    ssvm_to_ecop_limit_check,
)
from tmfc.model import QuadraticChirp
from tmfc.harness import SweepSpec, cases, run_sweep
from tmfc.harness.cases import (
    _refined_peak,
    fig6_spec,
    low_ce_spec,
    scup_opt_spec,
    ssvm_limit_spec,
)

GBAR_WEAK = 0.01

TABLE1_RATIOS = {
    "table1-a": (1.0, 0.306, 0.088, 0.037),
    "table1-b": (1.0, 0.275, 0.064, 0.033),
    "table1-c": (1.0, 0.306, 0.088, 0.037),
    "table1-d": (1.0, 0.342, 0.115, 0.047),
}
SEPARABILITY = {
    "table1-a": 0.646, "table1-b": 0.676, "table1-c": 0.646,
    "table1-d": 0.610, "fig2": 0.913, "fig3a": 0.967, "fig3b": 0.967,
    "fig5": 0.936,
}

# converged separabilities of the same cases (rho_1^2 over the full SVD
# sum): they sit 0.6-2.0 % below the published values, whose sums look
# truncated after 5 to 26 modes; pinned to catch any drift of the engine
CONVERGED_SEPARABILITY = {
    "table1-a": 0.638096234731, "table1-b": 0.669341698708,
    "table1-c": 0.638096234731, "table1-d": 0.602165873085,
    "fig2": 0.894772824377, "fig3a": 0.960552228448,
    "fig3b": 0.960459192905, "fig5": 0.930588495485,
}


def test_catalog_constants_match_published():
    """The catalog checks the same published figures as criteria 1 and 2."""
    weak = cases._WEAK_CASES
    assert {c: case.separability for c, case in weak.items()} == SEPARABILITY
    for case_id, targets in TABLE1_RATIOS.items():
        assert weak[case_id].ratios == tuple(
            (mode, target, 0.02) for mode, target in enumerate(targets, 1))


def _verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {num:2d} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def low_ce_records():
    """All eight weak-conversion cases, evaluated once, with wall times."""
    records = {}
    times = {}
    for case_id in SEPARABILITY:
        t0 = time.perf_counter()
        rec = run_sweep(low_ce_spec(case_id)).records[0]
        times[case_id] = time.perf_counter() - t0
        assert rec["error"] == ""
        records[case_id] = rec
    return records, times


def test_criterion_01_weak_ce_table(low_ce_records, capsys):
    records, times = low_ce_records
    worst = 0.0
    for case_id, targets in TABLE1_RATIOS.items():
        ce = np.asarray(records[case_id]["ce"])
        ratios = ce[:4] / ce[0]
        worst = max(worst, float(np.max(np.abs(ratios / targets - 1.0))))
    total = sum(times[c] for c in TABLE1_RATIOS)
    ok = worst <= 0.02 and total < 30.0
    _verdict(capsys, 1, "weak-conversion CE table", ok,
             f"worst rel dev {worst:.2%} (tol 2%), wall {total:.1f}s (< 30s)")
    assert worst <= 0.02
    assert total < 30.0


def test_criterion_02_weak_separabilities(low_ce_records, capsys):
    records, _ = low_ce_records
    worst = 0.0
    for case_id, target in SEPARABILITY.items():
        measured = records[case_id]["separability"]
        worst = max(worst, abs(measured / target - 1.0))
    ok = worst <= 0.02
    _verdict(capsys, 2, "weak-limit mode separabilities", ok,
             f"worst rel dev {worst:.2%} over 8 cases (tol 2%)")
    assert worst <= 0.02


def test_weak_separabilities_converged_values(low_ce_records):
    records, _ = low_ce_records
    for case_id, pinned in CONVERGED_SEPARABILITY.items():
        measured = records[case_id]["separability"]
        assert abs(measured / pinned - 1.0) <= 1e-9, (case_id, measured)


def test_criterion_03_exact_vs_numeric(capsys):
    pump = PumpSpec(tau_p=0.1)
    base = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0)
    worst_rho = worst_sel = worst_wall = 0.0
    for gbar in (0.5, 1.0, 2.0):
        params = base.with_gamma_bar(gbar)
        t0 = time.perf_counter()
        gf = assemble_gf(params, pump,
                         tol_leak=0.03 if gbar == 2.0 else 1e-2)
        num = decompose(gf, want_modes=False)
        wall = time.perf_counter() - t0
        t_out, t_in = default_ssvm_grids(params, pump)
        ref = decompose(ssvm_gf(params, pump, t_out, t_in), want_modes=False)
        worst_rho = max(worst_rho, abs(num.rho[0] / ref.rho[0] - 1.0))
        worst_sel = max(worst_sel, abs(num.selectivity / ref.selectivity - 1.0))
        worst_wall = max(worst_wall, wall)
    ok = worst_rho <= 0.01 and worst_sel <= 0.02 and worst_wall < 300.0
    _verdict(capsys, 3, "exact-kernel vs numeric oracle", ok,
             f"rho1 dev {worst_rho:.2%} (tol 1%), S dev {worst_sel:.2%} "
             f"(tol 2%), worst point {worst_wall:.0f}s (< 300s)")
    assert worst_rho <= 0.01
    assert worst_sel <= 0.02
    assert worst_wall < 300.0


def test_criterion_04_selectivity_peak(capsys):
    spec = fig6_spec(step=0.05)
    loc, peak = _refined_peak(run_sweep(spec).records)
    _, gbar_star = short_pump_limit_peak(spec.params)
    # the peak drifts up from the tau_p -> 0 location by about 0.3 tau_p
    lo, hi = gbar_star, gbar_star + 0.5 * spec.pump.tau_p
    value_ok = abs(peak - 0.81) <= 0.02
    loc_ok = lo <= loc <= hi
    _verdict(capsys, 4, "peak selectivity vs coupling", value_ok and loc_ok,
             f"max S {peak:.4f} (target 0.81 +- 0.02) at gamma_bar "
             f"{loc:.4f} (band [{lo:.4f}, {hi:.4f}] from the tau_p->0 peak; "
             f"published 1.0, offset {loc - 1.0:+.3f})")
    assert value_ok
    assert loc_ok


def test_criterion_05_limiting_selectivity(capsys):
    spec = ssvm_limit_spec()
    s_star, gbar_star = short_pump_limit_peak(spec.params)
    tau_fine = spec.pump.tau_p
    result, report = cases.reproduce("ssvm-limit-0.85")
    assert result.spec == spec
    fine = _refined_peak(result.records)[1]
    coarse_spec = replace(spec, pump=replace(spec.pump, tau_p=2.0 * tau_fine))
    coarse = _refined_peak(run_sweep(coarse_spec).records)[1]
    # first-order Richardson extrapolation of the peaks to tau_p -> 0
    rich_dev = abs(2.0 * fine - coarse - s_star)
    star_ok = abs(s_star - 0.82964) <= 1e-5 and abs(gbar_star - 1.1272) <= 1e-3
    below_ok = coarse < s_star and fine < s_star
    ok = star_ok and below_ok and rich_dev <= 1e-3
    _verdict(capsys, 5, "short-pump limiting selectivity", ok,
             f"limit S* {s_star:.6f} (target 0.82964 +- 1e-5) at gamma_bar "
             f"{gbar_star:.5f} (target 1.1272 +- 1e-3); grid peaks "
             f"{coarse:.5f}, {fine:.5f} at tau_p {2.0 * tau_fine:g}, "
             f"{tau_fine:g} (below S*); Richardson dev {rich_dev:.1e} "
             f"(tol 1e-3); published ~0.85, offset {s_star - 0.85:+.4f}")
    assert abs(s_star - 0.82964) <= 1e-5
    assert abs(gbar_star - 1.1272) <= 1e-3
    assert coarse < s_star
    assert fine < s_star
    assert rich_dev <= 1e-3
    assert report.passed


def test_criterion_06_scup_optimum(capsys):
    result, report = cases.reproduce("scup-opt")
    assert result.spec == scup_opt_spec()
    recs = [r for r in result.records if not r["error"]]
    best = max(recs, key=lambda r: r["selectivity"])
    peak, tau, gbar = best["selectivity"], best["tau_p"], best["gamma_bar"]
    value_ok = abs(peak - 0.70) <= 0.03
    loc_ok = 1.0 <= tau <= 2.0 and 0.6 <= gbar <= 0.9
    _verdict(capsys, 6, "counter-propagating optimum", value_ok and loc_ok,
             f"max S {peak:.4f} (target 0.70 +- 0.03) at tau_p {tau:g}, "
             f"gamma_bar {gbar:g} (bands [1, 2] x [0.6, 0.9])")
    assert value_ok
    assert loc_ok
    assert report.passed


def test_criterion_07_pump_slowness_reflection(capsys):
    pump = PumpSpec(tau_p=0.5)
    base = RegimeParams(beta_r=4.0, beta_s=0.0, beta_p=2.0).with_gamma_bar(GBAR_WEAK)
    spec = SweepSpec(params=base, pump=pump,
                     axes=(("beta_p", (0.5, 1.0, 1.5, 2.5, 3.0, 3.5)),),
                     engine="low-ce", n_report=8)
    result, report = cases.reproduce("betap-symmetry")
    assert result.spec == spec
    by_bp = {r["beta_p"]: r["selectivity"] / GBAR_WEAK ** 2
             for r in result.records}
    worst_weak = max(abs(by_bp[2.0 - d] - by_bp[2.0 + d])
                     for d in (0.5, 1.0, 1.5))
    # finite-coupling spot pair through the full numeric pipeline
    finite = []
    for bp in (0.5, 3.5):
        params = RegimeParams(beta_r=4.0, beta_s=0.0,
                              beta_p=bp).with_gamma_bar(1.0)
        gf = assemble_gf(params, pump, n_r=56, n_s=56)
        finite.append(decompose(gf, want_modes=False).selectivity)
    diff_num = abs(finite[0] - finite[1])
    ok = worst_weak <= 1e-3 and diff_num <= 1e-3
    _verdict(capsys, 7, "pump-slowness reflection symmetry", ok,
             f"weak-limit S/gbar^2 mirror dev {worst_weak:.1e}, numeric "
             f"pair dev {diff_num:.1e} (tol 1e-3)")
    assert worst_weak <= 1e-3
    assert diff_num <= 1e-3
    assert report.passed


def test_criterion_08_chirp_invariance(capsys):
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    plain = PumpSpec(tau_p=1.0)
    chirped = PumpSpec(tau_p=1.0, chirp=QuadraticChirp(5.0))
    t_out, t_in = default_ssvm_grids(params, plain)
    n_all = min(t_out.size, t_in.size)
    rho0 = decompose(ssvm_gf(params, plain, t_out, t_in), n_all,
                     want_modes=False).rho
    rho1 = decompose(ssvm_gf(params, chirped, t_out, t_in), n_all,
                     want_modes=False).rho
    n = min(rho0.size, rho1.size)
    diff = float(np.max(np.abs(rho0[:n] - rho1[:n])))
    ok = diff <= 1e-6
    _verdict(capsys, 8, "pump-chirp invariance", ok,
             f"max per-value spectrum dev {diff:.1e} (tol 1e-6)")
    assert diff <= 1e-6


def test_criterion_09_equal_slowness_limits(capsys):
    # (i) solver against the closed equal-slowness output
    params = RegimeParams(beta_r=0.3, beta_s=0.3, beta_p=1.0, gamma=1.2)
    pump = PumpSpec(tau_p=0.5)
    grid = TemporalGrid(-6.0, 6.0, 2048, 400)
    t = grid.times
    a_r0 = np.exp(-((t - 0.3) ** 2)) + 0j
    a_s0 = (t + 0.1) * np.exp(-(t ** 2) / 0.8) + 0j
    out = Propagator(params, pump, grid).run(a_r0, a_s0)
    ref = ecop_output(params, pump, grid, FieldState(a_r=a_r0, a_s=a_s0))
    solver_dev = max(
        np.linalg.norm(out.a_r - ref.a_r) / np.linalg.norm(ref.a_r),
        np.linalg.norm(out.a_s - ref.a_s) / np.linalg.norm(ref.a_s))
    # (ii) exact-kernel quadrature converging to the equal-slowness form
    rows = ssvm_to_ecop_limit_check(beta_rs_values=(0.1, 0.01, 1e-3))
    limit_dev = rows[-1][1]
    # (iii) band integral identity
    identity_dev = max(ecop_bessel_identity_error(g) for g in (0.5, 2.0, 10.0))
    ok = solver_dev <= 1e-4 and limit_dev <= 1e-2 and identity_dev <= 1e-8
    _verdict(capsys, 9, "equal-slowness limits and identities", ok,
             f"solver dev {solver_dev:.1e} (tol 1e-4), limit dev "
             f"{limit_dev:.1e} (tol 1e-2), identity {identity_dev:.1e} "
             "(tol 1e-8)")
    assert solver_dev <= 1e-4
    assert limit_dev <= 1e-2
    assert identity_dev <= 1e-8


def _random_state(grid: TemporalGrid, seed: int):
    rng = np.random.default_rng(seed)
    basis = hermite_gauss_basis(6, grid.times, width=1.0)
    c_r = rng.normal(size=6) + 1j * rng.normal(size=6)
    c_s = rng.normal(size=6) + 1j * rng.normal(size=6)
    return c_r @ basis, c_s @ basis


def _slope_law_worst() -> float:
    pump = PumpSpec(tau_p=0.2)
    worst = 0.0
    for betas, (t_lo, t_hi) in [((1.0, -1.0, 0.0), (0.0, 1.0)),
                                ((4.0, 0.0, 2.0), (2.0, 4.0)),
                                ((2.0, 1.0, 3.0), (2.0, 3.0))]:
        params = RegimeParams(*betas).with_gamma_bar(0.01)
        span = t_hi - t_lo
        rows = np.linspace(t_lo + 0.2 * span, t_hi - 0.2 * span, 9)
        peaks = []
        for t in rows:
            tp = np.linspace(t - params.beta_r, t - params.beta_s, 4001)
            mag = np.abs(low_ce_gf(params, pump, np.full_like(tp, t), tp))
            k = int(np.argmax(mag))
            tp_pk = tp[k]
            if 0 < k < mag.size - 1:
                y0, y1, y2 = mag[k - 1], mag[k], mag[k + 1]
                den = y0 - 2.0 * y1 + y2
                if den < 0:
                    tp_pk += 0.5 * (y0 - y2) / den * (tp[1] - tp[0])
            peaks.append(tp_pk)
        slope = np.polyfit(rows, peaks, 1)[0]
        worst = max(worst, abs(slope / ridge_slope(params) - 1.0))
    return worst


def _fourier_consistency():
    """Folded central-half-band and naive full-band deviations of the
    discretized weak kernel transform against the closed frequency form."""
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
    pump = PumpSpec(tau_p=1.0)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(params, pump, margin=8.0)
    n = 2048
    t_out = np.linspace(o_lo, o_hi, n)
    t_in = np.linspace(i_lo, i_hi, n)
    gf = sample_low_ce(params, pump, t_out, t_in)
    kern = gf_fourier(gf)
    w = kern.omega_out[:, None]
    wp = kern.omega_in[None, :]
    om_out = 2.0 * np.pi / gf.dt_out
    om_in = 2.0 * np.pi / gf.dt_in
    # the discrete transform equals the continuous one summed over grid
    # aliases, each carrying the boundary phase of its shifted frequency
    folded = np.zeros(kern.values.shape, dtype=complex)
    for k in (-1, 0, 1):
        for l in (-1, 0, 1):
            folded += low_ce_gf_freq(params, pump, w + k * om_out,
                                     wp + l * om_in) \
                * np.exp(-1j * k * om_out * t_out[0]) \
                * np.exp(1j * l * om_in * t_in[0])
    scale = np.max(np.abs(folded))
    dev = np.abs(kern.values - folded) / scale
    q = n // 4
    folded_central = float(np.max(dev[q:-q, q:-q]))
    naive = low_ce_gf_freq(params, pump, w, wp)
    naive_full = float(np.max(np.abs(kern.values - naive))
                       / np.max(np.abs(naive)))
    return folded_central, naive_full


def test_criterion_10_property_suites(capsys):
    pump = PumpSpec(tau_p=1.0)
    params = RegimeParams(beta_r=1.0, beta_s=-0.5, beta_p=0.3, gamma=1.1)
    grid = TemporalGrid(-9.0, 9.0, 1024, 128)
    prop = Propagator(params, pump, grid)
    a1r, a1s = _random_state(grid, 11)
    a2r, a2s = _random_state(grid, 12)
    out1 = prop.run(a1r, a1s)
    out2 = prop.run(a2r, a2s)
    alpha, beta = 0.7 - 0.2j, -0.4 + 1.1j
    mixed = prop.run(alpha * a1r + beta * a2r, alpha * a1s + beta * a2s)
    lin_dev = max(
        np.linalg.norm(mixed.a_r - alpha * out1.a_r - beta * out2.a_r),
        np.linalg.norm(mixed.a_s - alpha * out1.a_s - beta * out2.a_s),
    ) / np.linalg.norm(np.concatenate([mixed.a_r, mixed.a_s]))
    energy_dev = abs(energy(out1, grid) / energy(FieldState(a1r, a1s), grid) - 1.0)

    gf = assemble_gf(RegimeParams(beta_r=1.0, beta_s=0.0,
                                  beta_p=0.0).with_gamma_bar(0.5),
                     pump, n_r=48, n_s=48)
    res = decompose(gf, n_report=10, want_modes=False)
    pairing_dev = float(np.max(np.abs(res.tau_abs ** 2 + res.rho ** 2 - 1.0)))
    u, sig, vh = np.linalg.svd(gf.g_rs)
    recon = (u[:, :sig.size] * sig) @ vh
    svd_dev = np.linalg.norm(recon - gf.g_rs) / np.linalg.norm(gf.g_rs)

    slope_dev = _slope_law_worst()
    fourier_central, fourier_naive = _fourier_consistency()

    ok = (lin_dev <= 1e-8 and energy_dev <= 1e-6 and pairing_dev <= 1e-3
          and svd_dev <= 1e-8 and slope_dev <= 0.02
          and fourier_central <= 1e-3 and fourier_naive <= 1e-2)
    _verdict(capsys, 10, "property suites", ok,
             f"linearity {lin_dev:.1e}, energy {energy_dev:.1e}, pairing "
             f"{pairing_dev:.1e}, svd {svd_dev:.1e}, slope {slope_dev:.1e}, "
             f"fourier {fourier_central:.1e}/{fourier_naive:.1e}")
    assert lin_dev <= 1e-8
    assert energy_dev <= 1e-6
    assert pairing_dev <= 1e-3
    assert svd_dev <= 1e-8
    assert slope_dev <= 0.02
    assert fourier_central <= 1e-3
    assert fourier_naive <= 1e-2


def test_criterion_11_shape_preservation(capsys):
    params = RegimeParams(beta_r=4.0, beta_s=0.0, beta_p=2.0).with_gamma_bar(3.36)
    pump = PumpSpec(tau_p=0.1)
    layout = {
        "in_s": BasisSpec(64, 0.5, 1.0),
        "in_r": BasisSpec(64, 0.5, -1.0),
        "out_r": BasisSpec(96, 0.5, 3.0),
        "out_s": BasisSpec(96, 0.5, 1.0),
    }
    gf = assemble_gf(params, pump, layout=layout)
    res = decompose(gf, n_report=8, want_modes=True)
    ce = res.ce[:7]
    spread = float(np.max(ce) - np.min(ce))
    fids = [shape_fidelity(res.modes_in_s[k], res.modes_out_r[k],
                           res.dt_in, res.dt_out) for k in range(3)]
    ok = spread <= 0.05 and min(fids) >= 0.95
    _verdict(capsys, 11, "shape-preserving conversion", ok,
             f"CE1..7 spread {spread:.3f} (tol 0.05), min fidelity "
             f"{min(fids):.3f} (>= 0.95), CE1 {ce[0]:.3f}")
    assert spread <= 0.05
    assert min(fids) >= 0.95
