"""Closed-form kernel tests: weak-conversion, velocity-matched, limits."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from tmfc import (
    ConfigurationError,
    FieldState,
    Propagator,
    PumpSpec,
    QuadraticChirp,
    RegimeError,
    RegimeParams,
    TemporalGrid,
    UnsupportedConfigurationError,
    band_mask,
    conversion_support,
    dechirp_transform,
    decompose,
    default_ssvm_grids,
    ecop_bessel_identity_error,
    ecop_mixing_angle,
    ecop_output,
    energy,
    eval_pump,
    low_ce_gf,
    low_ce_gf_freq,
    pump_cumulative_intensity,
    ridge_slope,
    sample_low_ce,
    short_pump_limit,
    short_pump_limit_peak,
    ssvm_gf,
    ssvm_kernel_variables,
    ssvm_to_ecop_limit_check,
)
import tmfc.gf_analytic
from tmfc.gf_analytic import _band_blocks, _j1_over_x, _row_blocks
from tmfc.gf_numeric import apply_block
from tmfc.harness.cases import low_ce_spec

PUMP = PumpSpec(tau_p=1.0)


# high-precision references (30-digit arbitrary-precision evaluation)
BESSEL_J0 = {
    0.5: 0.9384698072408129042284046736,
    1.0: 0.765197686557966551449717526103,
    2.404825557695773: -1.20119500736768575e-16,  # first zero
    5.0: -0.177596771314338304347397013075,
    10.0: -0.245935764451348335197760862485,
}
BESSEL_J1 = {
    0.5: 0.242268457674873886383954576142,
    1.0: 0.440050585744933515959682203719,
    3.831705970207512: 1.27116679472571705e-16,  # first zero
    5.0: -0.32757913759146522203773432191,
}


def test_bessel_reference_values():
    for x, ref in BESSEL_J0.items():
        assert abs(special.j0(x) - ref) < 1e-12 * max(1.0, abs(ref))
    for x, ref in BESSEL_J1.items():
        assert abs(special.j1(x) - ref) < 1e-12 * max(1.0, abs(ref))


def test_band_mask_edges_inclusive():
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=0.0)
    t = 0.5
    assert band_mask(params, t, t - 1.0)
    assert band_mask(params, t, t + 1.0)
    assert not band_mask(params, t, t + 1.0 + 1e-9)
    assert not band_mask(params, t, t - 1.0 - 1e-9)


def test_low_ce_kernel_values():
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
    # on the pump-center ridge the kernel magnitude is gbar * Ap(0)
    t, tp = 1.0, 0.0
    val = low_ce_gf(params, PUMP, t, tp, block="rs")
    assert np.isclose(val, 1j * 0.01 * eval_pump(PUMP, 0.0))
    # outside the band it vanishes
    assert low_ce_gf(params, PUMP, 1.0, 2.5, block="rs") == 0.0
    with pytest.raises(ConfigurationError):
        low_ce_gf(params, PUMP, t, tp, block="rr")
    ecop = RegimeParams(beta_r=1.0, beta_s=1.0, beta_p=0.0)
    with pytest.raises(RegimeError):
        low_ce_gf(ecop, PUMP, t, tp)


def test_low_ce_shifted_adjoint():
    """g_sr(t, t') = conj(g_rs(t' + beta_r L, t - beta_s L)).

    The free transit delays map the sr crossing geometry onto the rs one;
    with the kernel's sign convention no extra minus appears.
    """
    params = RegimeParams(beta_r=3.5, beta_s=1.5, beta_p=1.0,
                          L=1.0).with_gamma_bar(0.01)
    rng = np.random.default_rng(0)
    t = rng.uniform(-2.0, 6.0, 500)
    tp = rng.uniform(-4.0, 4.0, 500)
    sr = low_ce_gf(params, PUMP, t, tp, block="sr")
    rs = low_ce_gf(params, PUMP, tp + params.beta_r * params.L,
                   t - params.beta_s * params.L, block="rs")
    assert np.max(np.abs(sr - np.conj(rs))) < 1e-14


def test_ridge_slope_from_kernel_peaks():
    """Fitted input-output slope of the kernel ridge matches beta_sp/beta_rp."""
    pump = PumpSpec(tau_p=0.2)
    cases = [
        ((1.0, -1.0, 0.0), (0.0, 1.0)),
        ((4.0, 0.0, 2.0), (2.0, 4.0)),
        ((2.0, 1.0, 3.0), (2.0, 3.0)),
    ]
    for betas, (t_lo, t_hi) in cases:
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
        assert abs(slope / ridge_slope(params) - 1.0) < 0.02


def test_ridge_slope_vertical_guard():
    matched_r = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0)
    with pytest.raises(RegimeError):
        ridge_slope(matched_r)


def _row_block_grids():
    """The fig6 grid, whose 1153 rows are not a whole number of row blocks,
    its 1 x n and n x 1 slices, and the fig6 input axis against an output
    axis three times as wide, whose outer row blocks meet no input column
    and whose inner ones have spans cut by the input axis's ends."""
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    t_out, t_in = default_ssvm_grids(params, PumpSpec(tau_p=0.1))
    assert (t_out.size, t_in.size) == (1153, 513)
    blocks = _row_blocks(t_out.size, t_in.size)
    assert len(blocks) > 1 and blocks[-1].stop > t_out.size
    wide = np.linspace(t_out[0] - 4.0, t_out[-1] + 4.0, 1153)
    spans = _band_blocks(params, wide, t_in)
    assert len(spans) < len(_row_blocks(wide.size, t_in.size))
    assert any(cols == slice(0, t_in.size) for _, cols in spans)
    assert any(cols.start == 0 < cols.stop < t_in.size for _, cols in spans)
    assert any(0 < cols.start < cols.stop == t_in.size for _, cols in spans)
    return params, [(t_out, t_in), (t_out[700:701], t_in), (t_out, t_in[200:201]),
                    (wide, t_in)]


def _fig2_edge_grid():
    """Fig2's kernel on [0, 14] x [-6, 8] at n = 1023, where both band
    edges land on samples (to within the half-weight tolerance)."""
    params = RegimeParams(beta_r=8.0, beta_s=4.0, beta_p=6.0).with_gamma_bar(0.01)
    return params, PumpSpec(tau_p=0.75), np.linspace(0.0, 14.0, 1023), \
        np.linspace(-6.0, 8.0, 1023)


def test_band_blocks_skip_empty_rows_and_need_ascending_inputs():
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    t_out = np.linspace(-10.0, -5.0, 50)
    t_in = np.linspace(0.0, 1.0, 20)
    assert _band_blocks(params, t_out, t_in) == []
    gf = sample_low_ce(params, PUMP, t_out, t_in)
    assert not gf.g_rs.any() and not gf.g_sr.any()
    with pytest.raises(ConfigurationError):
        sample_low_ce(params, PUMP, t_out, t_in[::-1])
    with pytest.raises(ConfigurationError):
        ssvm_gf(params, PUMP, t_out, t_in[::-1])


def test_sample_low_ce_delta_lines_and_edge_weight():
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(params, PUMP)
    t_out = np.linspace(o_lo, o_hi, 300)
    t_in = np.linspace(i_lo, i_hi, 200)
    gf = sample_low_ce(params, PUMP, t_out, t_in)
    assert gf.delta_rr.delay == params.beta_r * params.L
    assert gf.delta_ss.delay == params.beta_s * params.L
    assert gf.g_rr is None and gf.g_ss is None
    # a sample placed exactly on the band edge carries half weight
    t0 = np.array([0.5])
    tp_edge = np.array([0.5 - params.beta_r * params.L])
    full = low_ce_gf(params, PUMP, t0[:, None], tp_edge[None, :])
    halved = sample_low_ce(params, PUMP, t0, tp_edge).g_rs
    assert np.isclose(halved[0, 0], 0.5 * full[0, 0])


@pytest.mark.parametrize("axis", ["output", "input"])
@pytest.mark.parametrize("sample, params", [
    (ssvm_gf, RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.5)),
    (sample_low_ce, RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)),
], ids=["ssvm", "low-ce"])
def test_weighted_block_needs_two_samples_per_axis(sample, params, axis):
    """The weight sqrt(dt_out dt_in) needs two samples on each axis; the
    Green-function path keeps a one-sample axis."""
    one, five = np.array([1.0]), np.linspace(-1.0, 1.0, 5)
    t_out, t_in = (one, five) if axis == "output" else (five, one)
    with pytest.raises(ConfigurationError, match=f"two {axis} samples, got 1"):
        sample(params, PUMP, t_out, t_in, weighted=True)
    assert sample(params, PUMP, t_out, t_in, blocks=("rs",)).g_rs.shape == (t_out.size, t_in.size)


def test_sample_low_ce_matches_meshgrid_reference():
    """Broadcast-axis sampling is bit-identical to the kernel on meshgrid
    arrays times the half-weight mask, on dyadic axes whose samples fall
    exactly on both band edges."""
    t_out = np.arange(-16, 17) * 0.25
    t_in = np.arange(-10, 11) * 0.25
    tt, pp = np.meshgrid(t_out, t_in, indexing="ij")
    cases = [
        (RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=0.5).with_gamma_bar(0.01), PUMP),
        (RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=0.25, gamma=0.02 + 0.01j),
         PumpSpec(tau_p=0.5, chirp=QuadraticChirp(0.7))),
    ]
    for params, pump in cases:
        L = params.L
        slow_edge = pp == tt - params.beta_s * L
        fast_edge = pp == tt - params.beta_r * L
        assert slow_edge.any() and fast_edge.any()
        weight = np.where(slow_edge | fast_edge, 0.5, 1.0)
        gf = sample_low_ce(params, pump, t_out, t_in)
        for b in ("rs", "sr"):
            ref = low_ce_gf(params, pump, tt, pp, block=b) * weight
            assert np.array_equal(gf.block(b).view(float), ref.view(float))


def test_sample_low_ce_row_blocks_match_full_grid():
    """Row-blocked sampling over the band's column spans is bit-identical
    to the kernel evaluated once on the full grid times the half-weight of
    on-edge samples: on the row-block grids and on fig2's edge-on-sample
    grid, whose on-edge samples all keep their half weight."""
    params, grids = _row_block_grids()
    cases = [(params, PUMP, t_out, t_in) for t_out, t_in in grids]
    cases.append(_fig2_edge_grid())
    for params, pump, t_out, t_in in cases:
        L = params.L
        tt, pp = t_out[:, None], t_in[None, :]
        tol = 1e-6 * min(g[1] - g[0] for g in (t_out, t_in) if g.size > 1)
        on_edge = (np.abs(pp - (tt - params.beta_r * L)) <= tol) \
            | (np.abs((tt - params.beta_s * L) - pp) <= tol)
        weight = np.where(on_edge, 0.5, 1.0)
        gf = sample_low_ce(params, pump, t_out, t_in)
        for b in ("rs", "sr"):
            ref = low_ce_gf(params, pump, tt, pp, block=b) * weight
            assert np.array_equal(gf.block(b).view(float), ref.view(float))
            assert not gf.block(b).flags.writeable
    # fig2's edges land on samples: about one on-edge sample per row
    assert np.count_nonzero((weight == 0.5) & band_mask(params, tt, pp)) > 1000


def test_low_ce_freq_kernel_against_quadrature():
    """Spot-check the closed frequency kernel against double quadrature."""
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
    t = np.linspace(-7.0, 7.0, 3001)
    tp = np.linspace(-8.0, 6.0, 3001)
    kernel = low_ce_gf(params, PUMP, t[:, None], tp[None, :])
    dt, dtp = t[1] - t[0], tp[1] - tp[0]
    for w, wp in [(0.3, -0.4), (1.0, 1.0), (0.0, 2.0)]:
        closed = low_ce_gf_freq(params, PUMP, w, wp)
        direct = (np.exp(1j * w * t) @ kernel @ np.exp(-1j * wp * tp)) * dt * dtp
        assert abs(closed - direct) < 2e-4


def test_low_ce_freq_separable_when_r_matched():
    """With beta_rp = 0 the sinc argument depends on the input frequency
    alone, so the kernel divided by its pump factor is constant along
    the output-frequency axis."""
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
    w = np.array([-1.0, 0.0, 1.5])
    wp = 0.8
    vals = low_ce_gf_freq(params, PUMP, w, wp)
    from tmfc import pump_spectrum

    diff = w - wp
    pump_fac = pump_spectrum(PUMP, diff) * np.exp(
        -1j * params.L * params.beta_r * diff * params.beta_sp / params.beta_rs)
    ratio = vals / pump_fac
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12 * np.abs(ratio[0])


def test_ssvm_kernel_structure():
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.8)
    t_out, t_in = default_ssvm_grids(params, PUMP)
    assert t_out[0] < t_in[0] or t_out[-1] > t_in[-1]
    kv = ssvm_kernel_variables(params, PUMP, t_out[:, None], t_in[None, :])
    assert kv.x.shape == (t_out.size, t_in.size)
    assert np.all(kv.eta >= 0.0)
    gf = ssvm_gf(params, PUMP, t_out, t_in)
    for name in ("rr", "rs", "sr", "ss"):
        assert gf.block(name) is not None
    # smooth diagonal parts are second order: small at weak coupling
    weak = ssvm_gf(params.with_gamma_bar(1e-3), PUMP, t_out, t_in)
    assert np.max(np.abs(weak.g_rr)) < 2e-6
    assert np.max(np.abs(weak.g_rs)) > 1e-4


def test_ssvm_matches_low_ce_at_weak_coupling():
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1e-3)
    t_out, t_in = default_ssvm_grids(params, PUMP)
    exact = ssvm_gf(params, PUMP, t_out, t_in, blocks=("rs",)).g_rs
    weak = low_ce_gf(params, PUMP, t_out[:, None], t_in[None, :])
    assert np.max(np.abs(exact - weak)) < 1e-8


def test_ssvm_quadrature_energy_conservation():
    """rs and ss outputs (with the transmitted delta) carry unit energy."""
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.8)
    t = np.linspace(-8.0, 9.0, 2049)
    dt = t[1] - t[0]
    gf = ssvm_gf(params, PUMP, t, t)
    phi = (math.pi * 0.49) ** -0.25 * np.exp(-(t - 0.2) ** 2 / (2 * 0.49))
    e_in = np.sum(np.abs(phi) ** 2) * dt
    out_r = apply_block(gf, "rs", phi)
    out_s = apply_block(gf, "ss", phi)
    e_out = (np.sum(np.abs(out_r) ** 2) + np.sum(np.abs(out_s) ** 2)) * dt
    assert abs(e_out / e_in - 1.0) < 1e-3


def test_ssvm_regime_guards():
    mismatched = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.3)
    with pytest.raises(RegimeError):
        ssvm_gf(mismatched, PUMP, np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    complex_gamma = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0,
                                 gamma=1.0 + 0.5j)
    with pytest.raises(UnsupportedConfigurationError):
        ssvm_gf(complex_gamma, PUMP, np.linspace(0, 1, 4), np.linspace(0, 1, 4))


def _ssvm_meshgrid_reference(params, pump, t_out, t_in):
    """The documented ``ssvm_gf`` formulas evaluated elementwise on full
    ``meshgrid`` arrays."""
    tt, pp = np.meshgrid(t_out, t_in, indexing="ij")
    L = params.L
    tau = tt - params.beta_s * L
    xi = params.beta_r * L - tt + pp
    eta = np.maximum(pump_cumulative_intensity(pump, tau)
                     - pump_cumulative_intensity(pump, pp), 0.0)
    mask = (tau - pp >= 0.0) & (xi >= 0.0)
    x = 2.0 * abs(params.gamma_bar) * np.sqrt(np.maximum(eta * xi, 0.0))
    gbar = complex(params.gamma).real / params.beta_rs
    ap_in = eval_pump(pump, pp)
    ap_out_c = np.conj(eval_pump(pump, tau))
    blocks = {
        "rs": np.where(mask, 1j * gbar * ap_in * special.j0(x), 0.0),
        "sr": np.where(mask, 1j * gbar * ap_out_c * special.j0(x), 0.0),
        "rr": np.where(mask, -(gbar ** 2) * eta * _j1_over_x(x), 0.0),
        "ss": np.where(mask, -(gbar ** 2) * xi * ap_out_c * ap_in * _j1_over_x(x), 0.0),
    }
    # a GreenFunction stores every block as complex
    return {b: v.astype(complex) for b, v in blocks.items()}


def test_ssvm_gf_matches_meshgrid_reference():
    """Per-axis pump factors, shared Bessel factors and row-blocked filling
    leave every block bit-identical to the meshgrid evaluation."""
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.8)
    grid = np.linspace(-2.0, 2.0, 41)
    tabulated = PumpSpec(shape="custom-tabulated", tau_p=0.5,
                         table=(grid, np.exp(-grid ** 2) * np.exp(0.4j * grid)))
    pumps = (PUMP, PumpSpec(shape="hermite-gauss-1", tau_p=0.7), tabulated,
             PumpSpec(tau_p=0.6, chirp=QuadraticChirp(0.7)))
    square = np.linspace(-4.0, 5.0, 181)
    axes = [(square, square), (np.linspace(-4.0, 6.0, 203), np.linspace(-3.0, 3.0, 97)),
            *_row_block_grids()[1]]
    for pump in pumps:
        for t_out, t_in in axes:
            ref = _ssvm_meshgrid_reference(params, pump, t_out, t_in)
            full = ssvm_gf(params, pump, t_out, t_in)
            for b in ("rs", "sr", "rr", "ss"):
                assert np.array_equal(full.block(b).view(float), ref[b].view(float))
            assert full.delta_rr.delay == params.beta_r * params.L
            assert full.delta_ss.delay == params.beta_s * params.L
            rs_only = ssvm_gf(params, pump, t_out, t_in, blocks=("rs",))
            assert np.array_equal(rs_only.g_rs.view(float), ref["rs"].view(float))
            assert rs_only.delta_rr is None and rs_only.delta_ss is None


def test_ssvm_kernel_variables_once_per_row_block(monkeypatch):
    """A four-block ``ssvm_gf`` call and a values-only one each compute the
    kernel variables once per band row block; the values-only block is the
    rs block over ``i``, weighted by ``sqrt(dt_out dt_in)``."""
    calls = []
    real = tmfc.gf_analytic._kernel_variables

    def spy(*args):
        calls.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(tmfc.gf_analytic, "_kernel_variables", spy)
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    pump = PumpSpec(tau_p=0.1)
    t_out, t_in = default_ssvm_grids(params, pump)
    n_blocks = len(_band_blocks(params, t_out, t_in))
    gf = ssvm_gf(params, pump, t_out, t_in)
    assert len(calls) == n_blocks > 1
    kernel = ssvm_gf(params, pump, t_out, t_in, weighted=True)
    assert len(calls) == 2 * n_blocks
    weight = math.sqrt(gf.dt_out) * math.sqrt(gf.dt_in)
    assert kernel.g_rs.dtype == float and not gf.g_rs.real.any()
    assert np.array_equal(kernel.g_rs, gf.g_rs.imag * weight)


def test_ssvm_gf_pump_terms_stay_one_dimensional(monkeypatch):
    """On the fig6 grid an rs-only block evaluates the pump terms on the
    axes, never on the (n_out, n_in) grid, and samples the pump once."""
    sizes = {"eval_pump": [], "pump_cumulative_intensity": []}
    for name in sizes:
        real = getattr(tmfc.gf_analytic, name)

        def spy(pump, t, _real=real, _seen=sizes[name]):
            _seen.append(np.size(t))
            return _real(pump, t)

        monkeypatch.setattr(tmfc.gf_analytic, name, spy)
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    pump = PumpSpec(tau_p=0.1)
    t_out, t_in = default_ssvm_grids(params, pump)
    assert (t_out.size, t_in.size) == (1153, 513)
    ssvm_gf(params, pump, t_out, t_in, blocks=("rs",))
    assert len(sizes["eval_pump"]) == 1
    assert sizes["pump_cumulative_intensity"]
    for seen in sizes.values():
        assert max(seen) <= max(t_out.size, t_in.size)


def _table1_a_low_ce():
    """``sample_low_ce`` rs and sr of table1-a on its 1024 x 1024 grids."""
    spec = low_ce_spec("table1-a")
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(
        spec.params, spec.pump, margin=spec.low_ce_margin)
    return sample_low_ce(spec.params, spec.pump, np.linspace(o_lo, o_hi, spec.low_ce_n),
                         np.linspace(i_lo, i_hi, spec.low_ce_n))


def _fig6_four_blocks():
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    pump = PumpSpec(tau_p=0.1)
    return ssvm_gf(params, pump, *default_ssvm_grids(params, pump))


@pytest.mark.parametrize("make, bound", [(_table1_a_low_ce, 1.1), (_fig6_four_blocks, 1.2)],
                         ids=["low-ce-rs-sr", "ssvm-four-blocks"])
def test_sampled_gf_holds_no_full_size_temporary(make, bound):
    """A sampler's traced allocation peak stays within ``bound`` times the
    blocks it returns, so no temporary spans the grid, and a real kernel
    over ``i`` leaves +0.0 in every real part of its rs block, the sign
    that keeps its saved bytes fixed and that ``np.array_equal`` misses."""
    make()
    tracemalloc.start()
    try:
        gf = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(m.nbytes for m in (gf.g_rr, gf.g_rs, gf.g_sr, gf.g_ss) if m is not None)
    assert peak <= bound * held
    assert not np.signbit(gf.g_rs.real).any()


def test_short_pump_limit_node_convergence():
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.127)
    rho20, sel20 = short_pump_limit(params, n_nodes=20)
    rho60, sel60 = short_pump_limit(params, n_nodes=60)
    assert abs(sel20 - sel60) <= 1e-9
    assert np.max(np.abs(rho20[:3] - rho60[:3])) <= 1e-9


def test_short_pump_limit_depends_on_g_only():
    """S* and g* = gbar* sqrt(beta_rs L) do not move with the walk-off."""
    peaks = []
    for beta_r in (2.0, 4.0):
        params = RegimeParams(beta_r=beta_r, beta_s=0.0, beta_p=0.0)
        s_star, gbar_star = short_pump_limit_peak(params)
        peaks.append((s_star, gbar_star * math.sqrt(beta_r)))
    (s2, g2), (s4, g4) = peaks
    assert abs(s2 - s4) <= 1e-9
    assert abs(g2 - g4) <= 1e-6
    assert abs(g2 - 1.5941) <= 1e-4


def test_short_pump_limit_matches_short_pump_kernel():
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.127)
    pump = PumpSpec(tau_p=0.01)
    t_out, t_in = default_ssvm_grids(params, pump)
    grid = decompose(ssvm_gf(params, pump, t_out, t_in, blocks=("rs",)),
                     n_report=2, want_modes=False)
    rho, _ = short_pump_limit(params)
    assert abs(grid.rho[0] / rho[0] - 1.0) <= 0.01


def test_ecop_mixing_angle_limits():
    pump = PumpSpec(tau_p=0.5)
    riding = RegimeParams(beta_r=0.3, beta_s=0.3, beta_p=0.3, gamma=1.2)
    u = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(ecop_mixing_angle(riding, pump, u),
                       1.2 * np.real(eval_pump(pump, u)))
    walking = RegimeParams(beta_r=0.3, beta_s=0.3, beta_p=1.0, gamma=1.2)
    angle = ecop_mixing_angle(walking, pump, u)
    # finite walk-off: windowed average of the pump amplitude
    from tmfc import pump_cumulative_amplitude

    btp = 0.7
    ref = 1.2 / btp * (pump_cumulative_amplitude(pump, u)
                       - pump_cumulative_amplitude(pump, u - btp))
    assert np.allclose(angle, ref)
    split = RegimeParams(beta_r=0.4, beta_s=0.3, beta_p=0.3)
    with pytest.raises(RegimeError):
        ecop_mixing_angle(split, pump, u)


def test_ecop_output_conserves_energy():
    params = RegimeParams(beta_r=0.3, beta_s=0.3, beta_p=1.0, gamma=1.2)
    pump = PumpSpec(tau_p=0.5)
    grid = TemporalGrid(-6.0, 6.0, 1024, 64)
    t = grid.times
    state = FieldState(np.exp(-(t - 0.3) ** 2) + 0j,
                       (t + 0.1) * np.exp(-t ** 2 / 0.8) + 0j)
    out = ecop_output(params, pump, grid, state)
    assert abs(energy(out, grid) / energy(state, grid) - 1.0) < 1e-12


def test_ecop_output_matches_solver():
    params = RegimeParams(beta_r=0.3, beta_s=0.3, beta_p=1.0, gamma=1.2)
    pump = PumpSpec(tau_p=0.5)
    grid = TemporalGrid(-6.0, 6.0, 2048, 400)
    t = grid.times
    a_r0 = np.exp(-(t - 0.3) ** 2) + 0j
    a_s0 = (t + 0.1) * np.exp(-t ** 2 / 0.8) + 0j
    solved = Propagator(params, pump, grid).run(a_r0, a_s0)
    closed = ecop_output(params, pump, grid, FieldState(a_r0, a_s0))
    err_r = np.linalg.norm(solved.a_r - closed.a_r) / np.linalg.norm(closed.a_r)
    err_s = np.linalg.norm(solved.a_s - closed.a_s) / np.linalg.norm(closed.a_s)
    assert max(err_r, err_s) < 1e-4


def test_ssvm_to_ecop_limit_first_order():
    rows = ssvm_to_ecop_limit_check(beta_rs_values=(0.1, 0.01, 1e-3))
    errs = [err for _, err in rows]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2
    # first-order convergence: error scales about linearly with beta_rs
    assert 3.0 < errs[0] / errs[1] < 30.0


def test_ecop_bessel_identity():
    for g in (0.5, 2.0, 10.0):
        assert ecop_bessel_identity_error(g) < 1e-8


def test_dechirp_transform_splits_phase():
    chirped = PumpSpec(tau_p=0.7, center=0.2, chirp=QuadraticChirp(3.0))
    real_pump, theta = dechirp_transform(chirped)
    assert real_pump.is_real
    t = np.linspace(-3.0, 3.0, 601)
    rebuilt = eval_pump(real_pump, t) * np.exp(1j * theta(t))
    assert np.max(np.abs(rebuilt - eval_pump(chirped, t))) < 1e-12
    plain = PumpSpec(tau_p=0.7)
    same, zero = dechirp_transform(plain)
    assert same is plain
    assert np.all(zero(t) == 0.0)
    # the modulus of a complex table's interpolant is no real table's
    x = np.linspace(-3.0, 3.0, 17)
    table = (x, np.exp(-x ** 2) * 1j ** np.arange(17))
    for chirp in (None, QuadraticChirp(3.0)):
        with pytest.raises(UnsupportedConfigurationError):
            dechirp_transform(PumpSpec(shape="custom-tabulated", table=table, chirp=chirp))


def test_chirp_leaves_ssvm_spectrum():
    """Quadratic pump chirp rotates mode phases but not singular values."""
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    plain = PumpSpec(tau_p=1.0)
    chirped = PumpSpec(tau_p=1.0, chirp=QuadraticChirp(5.0))
    t_out, t_in = default_ssvm_grids(params, plain, oversample=16)
    n_all = min(t_out.size, t_in.size)
    rho0 = decompose(ssvm_gf(params, plain, t_out, t_in), n_all,
                     want_modes=False).rho
    rho1 = decompose(ssvm_gf(params, chirped, t_out, t_in), n_all,
                     want_modes=False).rho
    n = min(rho0.size, rho1.size)
    assert np.max(np.abs(rho0[:n] - rho1[:n])) < 1e-6
