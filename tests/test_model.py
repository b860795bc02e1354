"""Tests for the domain model: pumps, parameters, grids, bases."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from tmfc import (
    ConfigurationError,
    CoverageError,
    EPS_BETA,
    FieldState,
    PumpShape,
    PumpSpec,
    QuadraticChirp,
    RegimeClass,
    RegimeParams,
    RegimeError,
    ResolutionError,
    TemporalGrid,
    classify_regime,
    conversion_support,
    eval_pump,
    hermite_gauss_basis,
    interaction_support,
    pump_cumulative_amplitude,
    pump_cumulative_intensity,
    pump_spectrum,
)
from tmfc.model import _next_fast_len

WIDE = np.linspace(-12.0, 12.0, 4801)
DT = WIDE[1] - WIDE[0]


def test_gaussian_pump_normalized():
    for tau in (0.1, 0.707, 1.0, 2.5):
        pump = PumpSpec(tau_p=tau)
        vals = eval_pump(pump, WIDE)
        assert np.isclose(np.sum(np.abs(vals) ** 2) * DT, 1.0, atol=1e-9)
        # peak value of the square-normalized Gaussian
        assert np.isclose(eval_pump(pump, 0.0), (tau ** 2 * math.pi) ** -0.25)


def test_hermite_gauss_pump_normalized_and_odd():
    pump = PumpSpec(shape="hermite-gauss-1", tau_p=0.8, center=0.3)
    vals = eval_pump(pump, WIDE)
    assert np.isclose(np.sum(np.abs(vals) ** 2) * DT, 1.0, atol=1e-9)
    assert np.isclose(eval_pump(pump, 0.3), 0.0, atol=1e-14)
    left = eval_pump(pump, 0.3 - 0.5)
    right = eval_pump(pump, 0.3 + 0.5)
    assert np.isclose(left, -right)


def _cumtrapz(f: np.ndarray, dt: float) -> np.ndarray:
    inner = np.cumsum(0.5 * (f[1:] + f[:-1])) * dt
    return np.concatenate([[0.0], inner])


def test_cumulative_intensity_matches_quadrature():
    for shape in ("gaussian", "hermite-gauss-1"):
        pump = PumpSpec(shape=shape, tau_p=0.6, center=-0.4)
        closed = pump_cumulative_intensity(pump, WIDE)
        numeric = _cumtrapz(np.abs(eval_pump(pump, WIDE)) ** 2, DT)
        assert np.isclose(closed[0], 0.0, atol=1e-12)
        assert np.isclose(closed[-1], 1.0, atol=1e-12)
        assert np.max(np.abs(closed - numeric)) < 1e-4


def test_cumulative_amplitude_matches_quadrature():
    pump = PumpSpec(tau_p=1.3, center=0.2)
    closed = pump_cumulative_amplitude(pump, WIDE)
    numeric = _cumtrapz(np.real(eval_pump(pump, WIDE)), DT)
    assert np.max(np.abs(closed - numeric)) < 1e-4
    chirped = PumpSpec(tau_p=1.3, chirp=QuadraticChirp(1.0))
    with pytest.raises(Exception):
        pump_cumulative_amplitude(chirped, 0.0)


def test_cumulative_functions_keep_input_shape():
    """Scalars stay 0-d and columns/rows keep their shape for every pump
    shape, with the values of the flat evaluation."""
    grid = np.linspace(-2.0, 2.0, 41)
    tabulated = PumpSpec(shape="custom-tabulated", tau_p=0.5,
                         table=(grid, np.exp(-grid ** 2)))
    pumps = (PumpSpec(tau_p=0.6, center=0.1),
             PumpSpec(shape="hermite-gauss-1", tau_p=0.6), tabulated)
    t = np.linspace(-3.0, 3.0, 7)
    for pump in pumps:
        for fn in (pump_cumulative_intensity, pump_cumulative_amplitude):
            flat = fn(pump, t)
            assert np.shape(fn(pump, 0.3)) == ()
            assert fn(pump, 0.3) == fn(pump, np.array([0.3]))[0]
            for arg in (t, t[:, None], t[None, :]):
                out = fn(pump, arg)
                assert np.shape(out) == arg.shape
                assert np.array_equal(np.ravel(out), flat)


def test_pump_spectrum_against_direct_transform():
    pump = PumpSpec(tau_p=0.9, center=0.15)
    omegas = np.array([-2.0, -0.5, 0.0, 0.7, 3.1])
    closed = pump_spectrum(pump, omegas)
    vals = eval_pump(pump, WIDE)
    for w, c in zip(omegas, closed):
        direct = np.sum(np.exp(1j * w * WIDE) * vals) * DT
        assert np.isclose(c, direct, atol=1e-8)
    hg = PumpSpec(shape="hermite-gauss-1", tau_p=0.9)
    assert np.isclose(pump_spectrum(hg, 0.0), 0.0, atol=1e-14)


def test_tabulated_pump_spectrum_converges_at_second_order():
    """A Gaussian tabulated on [-8, 8] around center 0.7: over |w| <= 3 the
    quadrature spectrum approaches the closed form four times closer per
    halving of the table step."""
    w = np.linspace(-3.0, 3.0, 121)
    ref = pump_spectrum(PumpSpec(tau_p=1.0, center=0.7), w)
    errs = []
    for n in (201, 401, 801):
        t = np.linspace(-8.0, 8.0, n)
        pump = PumpSpec(shape="custom-tabulated", center=0.7, table=(t, np.exp(-0.5 * t * t)))
        errs.append(np.max(np.abs(pump_spectrum(pump, w) - ref)) / np.max(np.abs(ref)))
    assert all(3.5 <= a / b <= 4.5 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 5e-5


def test_tabulated_pump_renormalizes():
    times = np.linspace(-3.0, 3.0, 401)
    values = 5.0 * np.exp(-times ** 2)  # deliberately unnormalized
    pump = PumpSpec(shape="custom-tabulated", tau_p=1.0, table=(times, values))
    vals = eval_pump(pump, WIDE)
    assert np.isclose(np.sum(np.abs(vals) ** 2) * DT, 1.0, atol=1e-4)
    # zero outside the tabulated range
    assert eval_pump(pump, 4.0) == 0.0
    assert eval_pump(pump, -3.5) == 0.0


def test_tabulated_pump_validation():
    times = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ConfigurationError):
        PumpSpec(shape="custom-tabulated", table=None)
    with pytest.raises(ConfigurationError):
        PumpSpec(shape="custom-tabulated", table=(times, np.ones(2)))
    with pytest.raises(ConfigurationError):
        PumpSpec(shape="custom-tabulated",
                 table=(np.array([0.0, 0.0, 1.0]), np.ones(3)))
    with pytest.raises(ConfigurationError):
        PumpSpec(shape="custom-tabulated", table=(times, np.zeros(3)))
    with pytest.raises(ConfigurationError):
        PumpSpec(shape="gaussian", table=(times, np.ones(3)))


def test_pump_spec_validation():
    with pytest.raises(ConfigurationError):
        PumpSpec(shape="lorentzian")
    with pytest.raises(ConfigurationError):
        PumpSpec(tau_p=0.0)
    with pytest.raises(ConfigurationError):
        PumpSpec(tau_p=-1.0)
    with pytest.raises(ConfigurationError):
        PumpSpec(chirp=3.0)


def test_chirp_preserves_magnitude_and_pickles():
    chirp = QuadraticChirp(2.5)
    plain = PumpSpec(tau_p=0.7)
    chirped = PumpSpec(tau_p=0.7, chirp=chirp)
    assert not chirped.is_real and plain.is_real
    assert np.allclose(np.abs(eval_pump(chirped, WIDE)),
                       np.abs(eval_pump(plain, WIDE)))
    clone = pickle.loads(pickle.dumps(chirped))
    assert np.allclose(eval_pump(clone, WIDE), eval_pump(chirped, WIDE))


def test_regime_params_differences():
    p = RegimeParams(beta_r=4.0, beta_s=1.0, beta_p=2.5, L=2.0, gamma=0.6)
    assert p.beta_rs == 3.0
    assert p.beta_rp == 1.5
    assert p.beta_sp == -1.5
    assert np.isclose(p.gamma_bar, 0.2)
    assert isinstance(p.gamma_bar, float)
    q = p.with_gamma_bar(1.2)
    assert np.isclose(q.gamma, 3.6)
    assert q.L == p.L
    # an imaginary part within EPS_BETA of the real one is dropped
    snapped = replace(p, gamma=complex(1.3, 1e-300)).gamma
    assert type(snapped) is float and snapped == 1.3
    assert replace(p, gamma=complex(1.3, 1e-9)).gamma == complex(1.3, 1e-9)


def test_regime_params_validation():
    with pytest.raises(ConfigurationError):
        RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0, L=0.0)
    with pytest.raises(ConfigurationError):
        RegimeParams(beta_r=float("nan"), beta_s=0.0, beta_p=0.0)
    ecop = RegimeParams(beta_r=1.0, beta_s=1.0, beta_p=0.0)
    with pytest.raises(RegimeError):
        ecop.gamma_bar
    with pytest.raises(RegimeError):
        ecop.with_gamma_bar(1.0)


def test_classify_regime_branches():
    mk = lambda br, bs, bp: RegimeParams(beta_r=br, beta_s=bs, beta_p=bp)
    assert classify_regime(mk(1.0, 1.0, 0.0)) is RegimeClass.ECOP
    assert classify_regime(mk(2.0, 0.0, 0.0)) is RegimeClass.SSVM
    assert classify_regime(mk(2.0, 0.0, 2.0)) is RegimeClass.SSVM
    assert classify_regime(mk(4.0, 0.0, 2.0)) is RegimeClass.SCUP
    assert classify_regime(mk(1.0, -1.0, 0.5)) is RegimeClass.CUP
    assert classify_regime(mk(3.5, 1.5, 1.0)) is RegimeClass.COP


def test_classify_regime_shift_invariant():
    base = RegimeParams(beta_r=4.0, beta_s=0.0, beta_p=2.0)
    for shift in (-3.0, 0.7, 10.0):
        shifted = RegimeParams(beta_r=4.0 + shift, beta_s=shift,
                               beta_p=2.0 + shift)
        assert classify_regime(shifted) is classify_regime(base)


def test_interaction_support_contains_exit_delays():
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0)
    pump = PumpSpec(tau_p=0.1, center=0.3)
    lo, hi = interaction_support(params, pump)
    for point in (0.0, -1.0, 1.0, 2.0, 0.0):
        assert lo <= point + 0.3 <= hi
    # margin of five pump widths on both sides
    assert lo <= -1.0 + 0.3 - 0.5 + 1e-12
    assert hi >= 2.0 + 0.3 + 0.5 - 1e-12


def test_conversion_support_window_rule():
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0, L=1.0)
    pump = PumpSpec(tau_p=0.1, center=0.0)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(params, pump, margin=5.0)
    cross = (params.beta_p - params.beta_s) * params.L  # 2.0
    assert np.isclose(i_lo, min(0.0, cross) - 0.5)
    assert np.isclose(i_hi, max(0.0, cross) + 0.5)
    assert np.isclose(o_lo, min(params.beta_r, params.beta_p) - 0.5)
    assert np.isclose(o_hi, max(params.beta_r, params.beta_p) + 0.5)


def test_temporal_grid_basics():
    grid = TemporalGrid(-2.0, 2.0, n_t=5, n_z=3)
    assert np.isclose(grid.dt, 1.0)
    assert np.allclose(grid.times, [-2.0, -1.0, 0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        grid.times[0] = 5.0  # read-only view
    with pytest.raises(ConfigurationError):
        TemporalGrid(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        TemporalGrid(0.0, 1.0, n_t=1)
    with pytest.raises(ConfigurationError):
        TemporalGrid(0.0, 1.0, n_z=0)


def test_grid_coverage_contract():
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=0.0)
    pump = PumpSpec(tau_p=0.5)
    good = TemporalGrid(-3.6, 3.6, 512, 64)
    assert good.covers(params, pump)
    good.require_coverage(params, pump)
    tight = TemporalGrid(-2.0, 2.0, 512, 64)
    assert not tight.covers(params, pump)
    with pytest.raises(CoverageError):
        tight.require_coverage(params, pump)


def test_for_interaction_builds_covering_grid():
    params = RegimeParams(beta_r=3.5, beta_s=1.5, beta_p=1.0)
    pump = PumpSpec(tau_p=0.3)
    grid = TemporalGrid.for_interaction(params, pump)
    assert grid.covers(params, pump)
    # dz satisfies the advection bound with margin
    dz = params.L / grid.n_z
    assert dz <= grid.dt / 3.5 + 1e-12
    fine = TemporalGrid.for_interaction(params, pump, dt_max=0.01)
    assert fine.dt <= 0.01
    wide = TemporalGrid.for_interaction(params, pump, extra=[-20.0, 9.0])
    assert wide.t_min <= -20.0 and wide.t_max >= 9.0


def test_next_fast_len_matches_scipy():
    """The grid's FFT size helper returns what scipy's default returns."""
    from scipy.fft import next_fast_len

    got = [_next_fast_len(n) for n in range(1, 20001)]
    assert got == [next_fast_len(n) for n in range(1, 20001)]


def test_next_fast_len_5_smooth_matches_brute_force():
    """With primes (2, 3, 5), the helper returns the smallest 2^a 3^b 5^c
    at or above n."""
    import bisect

    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(16) for b in range(10) for c in range(7)
                    if 2 ** a * 3 ** b * 5 ** c <= 1 << 15)
    got = [_next_fast_len(n, primes=(2, 3, 5)) for n in range(1, 20001)]
    assert got == [smooth[bisect.bisect_left(smooth, n)] for n in range(1, 20001)]


def test_field_state_immutable():
    grid = TemporalGrid(-1.0, 1.0, 8, 4)
    state = FieldState.zero(grid)
    assert state.a_r.shape == (8,)
    with pytest.raises(ValueError):
        state.a_r[0] = 1.0
    with pytest.raises(Exception):
        FieldState(np.zeros(4), np.zeros(5))


def test_hermite_gauss_orthonormal():
    t = np.linspace(-10.0, 10.0, 2001)
    dt = t[1] - t[0]
    basis = hermite_gauss_basis(12, t, width=0.8, center=0.4)
    gram = basis @ basis.T * dt
    assert np.max(np.abs(gram - np.eye(12))) < 1e-9


def test_hermite_gauss_values():
    """Row 2 against the explicit second Hermite function."""
    w, c = 0.7, -0.2
    t = np.linspace(-6.0, 6.0, 1201)
    basis = hermite_gauss_basis(3, t, width=w, center=c)
    x = (t - c) / w
    h2 = math.pi ** -0.25 / math.sqrt(8.0) * (4.0 * x ** 2 - 2.0) \
        * np.exp(-0.5 * x ** 2) / math.sqrt(w)
    assert np.allclose(basis[2], h2, atol=1e-12)


def test_hermite_gauss_resolution_guard():
    t = np.linspace(-5.0, 5.0, 21)  # far too coarse for order 30
    with pytest.raises(ResolutionError):
        hermite_gauss_basis(31, t, width=0.1)
    ragged = np.concatenate([np.linspace(0, 1, 10), [1.5, 2.5]])
    with pytest.raises(ConfigurationError):
        hermite_gauss_basis(2, ragged)
    with pytest.raises(ConfigurationError):
        hermite_gauss_basis(0, t)


def test_eps_beta_is_small():
    assert 0.0 < EPS_BETA < 1e-9
    assert PumpShape.GAUSSIAN.value == "gaussian"
