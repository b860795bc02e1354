"""Solver tests: linearity, conservation, convergence, guard rails."""

from dataclasses import replace

import numpy as np
import pytest

from tmfc import (
    ConfigurationError,
    CoverageError,
    DataError,
    FieldState,
    NumericalError,
    Propagator,
    PumpSpec,
    QuadraticChirp,
    RegimeParams,
    TemporalGrid,
    dechirp_transform,
    energy,
    eval_pump,
    propagate,
)
from tmfc import solver

PARAMS = RegimeParams(beta_r=1.0, beta_s=-0.5, beta_p=0.3, gamma=1.1)
PUMP = PumpSpec(tau_p=1.0)
GRID = TemporalGrid(-9.0, 9.0, 1024, 128)


def _inputs(grid, seed=7):
    rng = np.random.default_rng(seed)
    t = grid.times
    env_r = np.exp(-(t - 0.4) ** 2) * np.exp(1j * rng.uniform(-1, 1) * t)
    env_s = np.exp(-(t + 0.2) ** 2 / 1.5) * rng.uniform(0.5, 1.5)
    return env_r, env_s


def test_linearity():
    prop = Propagator(PARAMS, PUMP, GRID)
    a_r, a_s = _inputs(GRID, seed=1)
    b_r, b_s = _inputs(GRID, seed=2)
    alpha, beta = 0.37 - 0.52j, -1.1 + 0.25j
    combined = prop.run(alpha * a_r + beta * b_r, alpha * a_s + beta * b_s)
    out_a = prop.run(a_r, a_s)
    out_b = prop.run(b_r, b_s)
    ref_r = alpha * out_a.a_r + beta * out_b.a_r
    ref_s = alpha * out_a.a_s + beta * out_b.a_s
    scale = np.linalg.norm(ref_r) + np.linalg.norm(ref_s)
    err = (np.linalg.norm(combined.a_r - ref_r)
           + np.linalg.norm(combined.a_s - ref_s)) / scale
    assert err < 1e-8


def test_energy_conservation():
    a_r, a_s = _inputs(GRID)
    state = FieldState(a_r, a_s)
    out = propagate(PARAMS, PUMP, GRID, state)
    e_in = energy(state, GRID)
    e_out = energy(out, GRID)
    # spectral advection and the exact coupling rotation are both unitary:
    # drift far below the 1e-6 contract
    assert abs(e_out / e_in - 1.0) < 1e-9


def test_exact_unitarity_at_strong_coupling():
    """|kappa| dz reaches 1.9 per slice: a Taylor step loses energy here, the
    slice rotation cannot."""
    params = RegimeParams(beta_r=0.0, beta_s=0.0, beta_p=0.0, gamma=40.0)
    grid = TemporalGrid(-9.0, 9.0, 1024, 16)
    a_r, a_s = _inputs(grid)
    out = Propagator(params, PUMP, grid).run(a_r, a_s)
    e_in = energy(FieldState(a_r, a_s), grid)
    assert abs(energy(out, grid) / e_in - 1.0) <= 1e-12


def test_batch_matches_column_runs():
    prop = Propagator(PARAMS, PUMP, GRID)
    cols = [_inputs(GRID, seed=k) for k in range(5)]
    batch = prop.run(np.array([c[0] for c in cols]), np.array([c[1] for c in cols]))
    assert batch.a_r.shape == (5, GRID.n_t)
    for k, (a_r, a_s) in enumerate(cols):
        single = prop.run(a_r, a_s)
        scale = np.linalg.norm(single.a_r) + np.linalg.norm(single.a_s)
        err = (np.linalg.norm(batch.a_r[k] - single.a_r)
               + np.linalg.norm(batch.a_s[k] - single.a_s)) / scale
        assert err <= 1e-13


def _rel_diff(out, ref):
    scale = np.linalg.norm(ref.a_r) + np.linalg.norm(ref.a_s)
    return (np.linalg.norm(out.a_r - ref.a_r) + np.linalg.norm(out.a_s - ref.a_s)) / scale


def test_chirp_gauge_identity():
    """With beta_s = beta_p = 0 the chirp phase moves onto the s channel:
    the chirped run (complex dtype) on s input e^{-i theta} a_s equals the
    plain run (real dtype) with its s output multiplied by e^{-i theta}."""
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0, gamma=1.1)
    chirped = PumpSpec(tau_p=1.0, chirp=QuadraticChirp(0.7))
    plain, theta = dechirp_transform(chirped)
    phase = np.exp(-1j * theta(GRID.times))
    a_r, a_s = _inputs(GRID)
    out = Propagator(params, chirped, GRID).run(a_r, phase * a_s)
    ref = Propagator(params, plain, GRID).run(a_r, a_s)
    assert _rel_diff(out, FieldState(ref.a_r, phase * ref.a_s)) <= 1e-12


@pytest.mark.parametrize("n_t", [1024, 1023])
def test_real_and_complex_dtype_agree(n_t):
    """A zero chirp switches the pass to complex dtype; a complex input
    stack (with an s-only and an all-zero row) must give the same fields,
    with and without a Nyquist bin."""
    grid = TemporalGrid(-9.0, 9.0, n_t, 128)
    cols = [_inputs(grid, seed=k) for k in range(3)]
    a_r = np.array([cols[0][0], cols[1][0], np.zeros(n_t), np.zeros(n_t)])
    a_s = np.array([1j * c[1] for c in cols] + [np.zeros(n_t)])
    a_s[0] += 0.3 * cols[1][0]
    params = replace(PARAMS, gamma=1.3)
    out = Propagator(params, PUMP, grid).run(a_r, a_s)
    ref = Propagator(params, replace(PUMP, chirp=QuadraticChirp(0.0)), grid).run(a_r, a_s)
    assert _rel_diff(out, ref) <= 1e-12
    assert not out.a_r[-1].any() and not out.a_s[-1].any()


@pytest.mark.parametrize("beta_s", [0.0, -0.5])
def test_packed_real_path_matches_complex_path(beta_s):
    """The real-kappa pass holds each live row pair (a_r, b_s) as one
    complex row a_r + i b_s, rotated by one multiply; it agrees with the
    complex-dtype pass (reached through a zero chirp) on the same batch,
    with and without an s-channel shift."""
    params = replace(PARAMS, beta_s=beta_s, gamma=1.3)
    cols = [_inputs(GRID, seed=k) for k in range(4)]
    a_r = np.array([c[0] for c in cols])
    a_s = np.array([c[1] for c in cols])
    packed = Propagator(params, PUMP, GRID)
    assert packed._real
    ref = Propagator(params, replace(PUMP, chirp=QuadraticChirp(0.0)), GRID).run(a_r, a_s)
    assert _rel_diff(packed.run(a_r, a_s), ref) <= 1e-13


@pytest.mark.parametrize("pump", [PUMP, replace(PUMP, chirp=QuadraticChirp(0.0))],
                         ids=["real", "complex"])
def test_blow_up_raises_numerical_error(pump):
    """A finite input whose spectrum overflows leaves non-finite fields
    after the first z-step; both passes raise instead of returning them."""
    with pytest.raises(NumericalError, match=f"after z-step 1 of {GRID.n_z}$"), \
            np.errstate(over="ignore", invalid="ignore"):
        Propagator(PARAMS, pump, GRID).run(np.full(GRID.n_t, 1e308), np.zeros(GRID.n_t))


@pytest.mark.parametrize("gamma", [1.1, complex(1.1, 0.4)])
def test_static_pump_matches_moving_reference(monkeypatch, gamma):
    """At beta_p = 0 one pump evaluation and one rotation serve every slice;
    the fields equal, bit for bit, those of the per-slice pump evaluation
    (reached through a pump velocity too small to move the pump)."""
    calls = []

    def spy(pump, t):
        calls.append(t)
        return eval_pump(pump, t)

    monkeypatch.setattr(solver, "eval_pump", spy)
    a_r, a_s = _inputs(GRID)
    out = Propagator(replace(PARAMS, beta_p=0.0, gamma=gamma), PUMP, GRID).run(a_r, a_s)
    assert len(calls) == 1
    calls.clear()
    moving = Propagator(replace(PARAMS, beta_p=1e-300, gamma=gamma), PUMP, GRID)
    ref = moving.run(a_r, a_s)
    assert len(calls) == GRID.n_z
    assert np.array_equal(out.a_r, ref.a_r) and np.array_equal(out.a_s, ref.a_s)


def test_batch_shape_validation():
    prop = Propagator(PARAMS, PUMP, GRID)
    stack = np.zeros((3, GRID.n_t))
    with pytest.raises(DataError):
        prop.run(stack, np.zeros((2, GRID.n_t)))
    with pytest.raises(DataError):
        prop.run(stack, np.zeros(GRID.n_t))
    with pytest.raises(DataError):
        prop.run(np.zeros((3, GRID.n_t - 1)), np.zeros((3, GRID.n_t - 1)))
    with pytest.raises(DataError):
        prop.run(np.zeros((2, 3, GRID.n_t)), np.zeros((2, 3, GRID.n_t)))


def test_zero_coupling_is_pure_advection():
    params = RegimeParams(beta_r=0.8, beta_s=-0.3, beta_p=0.0, gamma=0.0)
    t = GRID.times
    a_r = np.exp(-t ** 2)
    a_s = np.exp(-(t - 0.5) ** 2 / 2.0)
    out = Propagator(params, PUMP, GRID).run(a_r, a_s)
    # outputs are the inputs delayed by beta L
    ref_r = np.exp(-(t - 0.8) ** 2)
    ref_s = np.exp(-(t + 0.3 - 0.5) ** 2 / 2.0)
    assert np.max(np.abs(out.a_r - ref_r)) < 1e-10
    assert np.max(np.abs(out.a_s - ref_s)) < 1e-10


def test_second_order_convergence_in_dz():
    """Strang splitting: halving dz should cut the error by about 4."""
    ref_grid = TemporalGrid(-9.0, 9.0, 1024, 1024)
    a_r, a_s = _inputs(ref_grid)
    ref = Propagator(PARAMS, PUMP, ref_grid).run(a_r, a_s)
    errs = []
    for n_z in (64, 128, 256):
        grid = TemporalGrid(-9.0, 9.0, 1024, n_z)
        out = Propagator(PARAMS, PUMP, grid).run(a_r, a_s)
        errs.append(np.linalg.norm(out.a_r - ref.a_r)
                    / np.linalg.norm(ref.a_r))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_conversion_actually_happens():
    a_r, a_s = _inputs(GRID)
    out = Propagator(PARAMS, PUMP, GRID).run(np.zeros_like(a_r), a_s)
    dt = GRID.dt
    converted = dt * np.sum(np.abs(out.a_r) ** 2)
    total = dt * np.sum(np.abs(a_s) ** 2)
    assert converted > 0.05 * total


def test_advection_stability_guard():
    # dz too large for the fastest channel
    coarse = TemporalGrid(-9.0, 9.0, 1024, 4)
    with pytest.raises(ConfigurationError):
        Propagator(PARAMS, PUMP, coarse)


def test_coverage_guard():
    tight = TemporalGrid(-2.0, 2.0, 512, 256)
    with pytest.raises(CoverageError):
        Propagator(PARAMS, PUMP, tight)


def test_input_validation():
    prop = Propagator(PARAMS, PUMP, GRID)
    with pytest.raises(DataError):
        prop.run(np.zeros(10), np.zeros(10))
    bad = np.zeros(GRID.n_t, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(DataError):
        prop.run(bad, np.zeros(GRID.n_t))
    state = FieldState(np.zeros(GRID.n_t), np.zeros(GRID.n_t), z=0.5)
    with pytest.raises(ConfigurationError):
        propagate(PARAMS, PUMP, GRID, state)


def test_energy_helper_validation():
    state = FieldState(np.zeros(8), np.zeros(8))
    with pytest.raises(DataError):
        energy(state, GRID)
