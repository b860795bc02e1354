"""Green-function container and numeric assembly tests."""

import warnings

import numpy as np
import pytest

from tmfc import (
    BasisSpec,
    ConfigurationError,
    CoverageError,
    DataError,
    DeltaLine,
    GreenFunction,
    Propagator,
    PumpSpec,
    RegimeParams,
    TruncationError,
    apply_block,
    assemble_gf,
    composite_matrix,
    decompose,
    default_basis_layout,
    grid_for_basis,
    leakage_report,
    to_grid_form,
    unitarity_defect,
)

PUMP = PumpSpec(tau_p=1.0)
SSVM = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.5)


@pytest.fixture(scope="module")
def gf_small():
    return assemble_gf(SSVM, PUMP, n_r=24, n_s=24)


def test_basis_spec_sampling():
    spec = BasisSpec(n=6, width=0.7, center=1.2)
    t = np.linspace(-5.0, 8.0, 1301)
    dt = t[1] - t[0]
    b = spec.sample(t)
    assert b.shape == (6, t.size)
    gram = b @ b.T * dt
    assert np.max(np.abs(gram - np.eye(6))) < 1e-9
    lo, hi = spec.extent()
    # nearly all of every mode's energy inside the extent
    inside = (t >= lo) & (t <= hi)
    assert np.sum(b[5][~inside] ** 2) * dt < 1e-8


def test_default_basis_layout_geometry():
    layout = default_basis_layout(SSVM, PUMP)
    # s channel rides with the pump: pump-width basis around the pump
    assert np.isclose(layout["in_s"].width, PUMP.tau_p)
    assert np.isclose(layout["in_s"].center,
                      PUMP.center - SSVM.beta_sp * SSVM.L / 2.0)
    # output bases are delayed copies
    assert np.isclose(layout["out_r"].center - layout["in_r"].center,
                      SSVM.beta_r * SSVM.L)
    assert np.isclose(layout["out_s"].center - layout["in_s"].center,
                      SSVM.beta_s * SSVM.L)


def test_green_function_validation():
    with pytest.raises(ConfigurationError):
        GreenFunction(form="tensor", g_rs=np.eye(2))
    with pytest.raises(ConfigurationError):
        GreenFunction(form="grid")
    with pytest.raises(ConfigurationError):
        GreenFunction(form="grid", g_rs=np.eye(3))  # missing axes
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(DataError):
        GreenFunction(form="grid", g_rs=np.eye(4), t_out=t, t_in=t)
    bad = np.eye(3)
    bad = bad + 0j
    bad_nan = bad.copy()
    bad_nan[0, 0] = np.nan
    with pytest.raises(DataError):
        GreenFunction(form="grid", g_rs=bad_nan, t_out=t, t_in=t)
    gf = GreenFunction(form="grid", g_rs=bad, t_out=t, t_in=t)
    assert gf.block("rs") is not None
    assert gf.block("sr") is None
    with pytest.raises(ConfigurationError):
        gf.block("g_rs")


def test_green_function_accepts_transposed_block():
    t_out = np.linspace(0.0, 1.0, 3)
    t_in = np.linspace(0.0, 1.0, 5)
    m = np.arange(15.0).reshape(5, 3) + 1j
    gf = GreenFunction(form="grid", g_rs=m.T, t_out=t_out, t_in=t_in)
    assert np.array_equal(gf.g_rs, m.T)
    assert gf.g_rs.flags.c_contiguous and not gf.g_rs.flags.writeable
    bad = m.copy()
    bad[1, 2] = np.inf
    with pytest.raises(DataError):
        GreenFunction(form="grid", g_rs=bad.T, t_out=t_out, t_in=t_in)


def test_green_function_keeps_read_only_owning_block():
    t_out, t_in = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)
    arr = np.arange(12.0).reshape(3, 4) + 1j
    arr.setflags(write=False)
    gf = GreenFunction(form="grid", g_rs=arr, t_out=t_out, t_in=t_in)
    assert gf.g_rs is arr
    # the finiteness check still runs on a kept block
    bad = np.full((3, 4), np.nan + 0j)
    bad.setflags(write=False)
    with pytest.raises(DataError):
        GreenFunction(form="grid", g_rs=bad, t_out=t_out, t_in=t_in)


@pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                   complex(-np.inf, 0.0)],
                         ids=["nan", "inf-imag", "inf-real"])
def test_green_function_rejects_one_non_finite_entry(entry):
    t = np.linspace(0.0, 1.0, 4)
    bad = np.ones((4, 4), dtype=complex)
    bad[2, 1] = entry
    with pytest.raises(DataError, match="block rs contains non-finite entries"):
        GreenFunction(form="grid", g_rs=bad, t_out=t, t_in=t)


def test_green_function_accepts_finite_block_whose_sum_overflows():
    t = np.linspace(0.0, 1.0, 4)
    big = np.full((4, 4), 1e308 + 1e308j)
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.sum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gf = GreenFunction(form="grid", g_rs=big, t_out=t, t_in=t)
    assert np.array_equal(gf.g_rs, big)


def _writable(base):
    return base, base


def _read_only_view(base):
    view = base[:, :]
    view.setflags(write=False)
    return view, base


def _real(base):
    real = base.real.copy()
    real.setflags(write=False)
    return real, real


@pytest.mark.parametrize("make", [_writable, _read_only_view, _real])
def test_green_function_copies_other_blocks(make):
    """A writable array, a read-only view of writable memory and a real
    array are copied: later writes by the caller do not reach the block."""
    t_out, t_in = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)
    block, owner = make(np.arange(12.0).reshape(3, 4) + 1j)
    want = np.array(block, dtype=complex)
    gf = GreenFunction(form="grid", g_rs=block, t_out=t_out, t_in=t_in)
    assert gf.g_rs is not block
    owner.setflags(write=True)
    owner[...] = 7.0
    assert np.array_equal(gf.g_rs, want)
    assert gf.g_rs.dtype == np.complex128 and not gf.g_rs.flags.writeable


def test_leakage_report_ties_go_to_s_side():
    spec = BasisSpec(n=2, width=1.0, center=0.0)
    gf = GreenFunction(form="basis", g_rs=np.eye(2), basis_out_r=spec,
                       basis_in_s=spec,
                       metadata={"leak_s": np.array([0.1, 0.3]),
                                 "leak_r": np.array([0.3, 0.2])})
    report = leakage_report(gf)
    assert (report["worst_side"], report["worst_column"]) == ("s", 1)
    assert report["max"] == 0.3


def test_assembly_propagates_one_batch(monkeypatch):
    calls = []
    run = Propagator.run

    def counting_run(self, a_r, a_s):
        calls.append(np.shape(a_r))
        return run(self, a_r, a_s)

    monkeypatch.setattr(Propagator, "run", counting_run)
    gf = assemble_gf(SSVM, PUMP, n_r=6, n_s=4, tol_leak=0.5)
    assert len(calls) == 1 and calls[0][0] == 10
    assert gf.g_rs.shape == (6, 4) and gf.g_sr.shape == (4, 6)


def test_assembly_column_energies(gf_small):
    meta = gf_small.metadata
    # per-column conversion + transmission energies sum to about 1
    totals = meta["conv_energy_s"] + meta["trans_energy_s"]
    assert np.max(np.abs(totals - 1.0)) < 1e-6
    report = leakage_report(gf_small)
    assert report["max"] < 1e-2
    assert report["worst_side"] in ("r", "s")


def test_composite_unitarity(gf_small):
    u = composite_matrix(gf_small)
    n = 2 * 24
    assert u.shape == (n, n)
    assert unitarity_defect(gf_small) < 2e-3


def test_svd_reconstruction(gf_small):
    """The rs coefficient matrix is rebuilt from its own SVD to 1e-8."""
    m = gf_small.g_rs
    u, s, vh = np.linalg.svd(m)
    rebuilt = (u * s) @ vh
    assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) < 1e-8


def test_grid_synthesis_preserves_spectrum(gf_small):
    res_basis = decompose(gf_small, n_report=5, want_modes=False)
    res_grid = decompose(to_grid_form(gf_small), n_report=5, want_modes=False)
    assert np.max(np.abs(res_basis.rho - res_grid.rho)) < 1e-12


def test_truncation_guard():
    with pytest.raises(TruncationError):
        assemble_gf(SSVM, PUMP, n_r=6, n_s=6, tol_leak=1e-4)


def test_explicit_grid_must_cover_basis_tails():
    from tmfc import TemporalGrid

    layout = default_basis_layout(SSVM, PUMP, n_r=8, n_s=8)
    with pytest.raises(CoverageError):
        assemble_gf(SSVM, PUMP, grid=TemporalGrid(-2.0, 2.0, 512, 256),
                    layout=layout)


POOL = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.1)
POOL_PUMP = PumpSpec(tau_p=0.1)


def test_explicit_grid_needs_the_propagated_input_tails_only():
    """An rs/ss assembly reads no r input, so a grid without the r-input
    tails [-7.5, 5.5] runs; one without an output tail still raises."""
    from tmfc import TemporalGrid

    layout = default_basis_layout(POOL, POOL_PUMP)
    gf = assemble_gf(POOL, POOL_PUMP, grid=TemporalGrid(-5.6, 7.6, 1536, 480),
                     blocks=("rs", "ss"))
    assert gf.g_rs.shape == (40, 40) and gf.grid.n_t == 1536
    assert layout["out_r"].extent()[1] == pytest.approx(7.5)
    with pytest.raises(CoverageError):
        assemble_gf(POOL, POOL_PUMP, grid=TemporalGrid(-5.6, 7.4, 1536, 480),
                    blocks=("rs", "ss"))


@pytest.mark.parametrize("params, pump, n, inside", [
    (POOL, POOL_PUMP, 12, True),
    (SSVM, PUMP, 8, False),  # the light cone reaches the grid edge
], ids=["pool-window", "ssvm-full-grid"])
def test_assembly_propagates_light_cone_window(monkeypatch, params, pump, n, inside):
    """The one batch runs on a window of the grid where the window fits
    strictly inside it, and on the whole grid otherwise; blocks, energies
    and leaks agree with a propagation over the whole grid."""
    calls = []
    run = Propagator.run

    def counting_run(self, a_r, a_s):
        calls.append(np.shape(a_r))
        return run(self, a_r, a_s)

    monkeypatch.setattr(Propagator, "run", counting_run)
    gf = assemble_gf(params, pump, n_r=n, n_s=n, tol_leak=0.5, blocks=("rs", "ss"))
    assert len(calls) == 1 and calls[0][0] == n
    assert (calls[0][1] < gf.grid.n_t) if inside else (calls[0][1] == gf.grid.n_t)

    t, dt = gf.grid.times, gf.grid.dt
    b_in = gf.basis_in_s.sample(t)
    out = run(Propagator(params, pump, gf.grid), np.zeros_like(b_in), b_in)
    proj_r = (out.a_r @ gf.basis_out_r.sample(t).T) * dt
    proj_s = (out.a_s @ gf.basis_out_s.sample(t).T) * dt
    conv = dt * np.sum(np.abs(out.a_r) ** 2, axis=1)
    trans = dt * np.sum(np.abs(out.a_s) ** 2, axis=1)
    captured = np.sum(np.abs(proj_r) ** 2, axis=1) + np.sum(np.abs(proj_s) ** 2, axis=1)
    ref = {"rs": proj_r.T, "ss": proj_s.T, "conv_energy_s": conv,
           "trans_energy_s": trans,
           "leak_s": np.maximum(0.0, 1.0 - captured / (conv + trans))}
    got = {"rs": gf.g_rs, "ss": gf.g_ss,
           **{k: gf.metadata[k] for k in ("conv_energy_s", "trans_energy_s", "leak_s")}}
    for key, want in ref.items():
        assert np.max(np.abs(got[key] - want)) <= 1e-12 * np.max(np.abs(want)), key


def _largest_prime_factor(n):
    p, k, largest = 2, n, 1
    while k > 1:
        while k % p == 0:
            k, largest = k // p, p
        p += 1
    return largest


@pytest.mark.parametrize("params, pump, n_r, n_s, inputs, size", [
    (POOL, POOL_PUMP, 12, 12, ("in_s",), 360),
    (POOL, POOL_PUMP, 24, 24, ("in_s",), 384),
    (POOL, POOL_PUMP, 40, 40, ("in_r",), None),
    (SSVM, PUMP, 40, 40, ("in_s",), None),
    (SSVM, PUMP, 6, 4, ("in_r",), 810),
    (SSVM, PUMP, 24, 24, ("in_r",), 540),
    (SSVM, PUMP, 40, 40, ("in_r",), 512),
], ids=["pool-s12", "pool-s24", "pool-r40", "ssvm-s40", "ssvm-r6", "ssvm-r24",
        "ssvm-r40"])
def test_propagation_window_is_5_smooth(params, pump, n_r, n_s, inputs, size):
    """A window inside the grid has a length with no prime factor above 5;
    ``None`` marks a case whose window is the whole grid.  The pool point
    itself is :func:`test_pool_point_propagates_540_samples`."""
    from tmfc.gf_numeric import _propagation_window

    layout = default_basis_layout(params, pump, n_r=n_r, n_s=n_s)
    grid = grid_for_basis(params, pump, layout)
    window = _propagation_window(params, pump, grid, [layout[k] for k in inputs])
    length = window.stop - window.start
    if size is None:
        assert window == slice(0, grid.n_t)
    else:
        assert length == size < grid.n_t
        assert _largest_prime_factor(length) <= 5


def test_pool_point_propagates_540_samples(monkeypatch):
    """The pool point's rs/ss assembly runs its one batch on 540 = 2^2 3^3 5
    of the grid's 1728 samples, not on the 11-smooth 539 = 7^2 11."""
    calls = []
    run = Propagator.run

    def counting_run(self, a_r, a_s):
        calls.append(np.shape(a_r))
        return run(self, a_r, a_s)

    monkeypatch.setattr(Propagator, "run", counting_run)
    gf = assemble_gf(POOL, POOL_PUMP, blocks=("rs", "ss"))
    assert calls == [(40, 540)] and gf.grid.n_t == 1728


def test_grid_for_basis_resolves_highest_mode():
    layout = default_basis_layout(SSVM, PUMP, n_r=30, n_s=30)
    grid = grid_for_basis(SSVM, PUMP, layout)
    for spec in layout.values():
        lo, hi = spec.extent()
        assert grid.t_min <= lo and grid.t_max >= hi
        spec.sample(grid.times)  # passes the resolution check


def test_apply_block_basis_form(gf_small):
    rng = np.random.default_rng(3)
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    assert np.allclose(apply_block(gf_small, "rs", v), gf_small.g_rs @ v)
    assert np.allclose(apply_block(gf_small, "rs", v, adjoint=True),
                       gf_small.g_rs.conj().T @ v)
    with pytest.raises(ConfigurationError):
        apply_block(gf_small, "g_rs", v)


def test_apply_block_grid_delta_shift():
    """A pure delta line acts as the free transit delay."""
    t = np.linspace(-8.0, 8.0, 1024, endpoint=False)
    dt = t[1] - t[0]
    zero = np.zeros((t.size, t.size), dtype=complex)
    gf = GreenFunction(form="grid", g_rr=zero, t_out=t, t_in=t,
                       delta_rr=DeltaLine(delay=0.7, weight=1.0))
    v = np.exp(-t ** 2) * np.exp(0.3j * t)
    out = apply_block(gf, "rr", v)
    ref = np.exp(-(t - 0.7) ** 2) * np.exp(0.3j * (t - 0.7))
    assert np.max(np.abs(out - ref)) < 1e-9


def test_apply_block_adjoint_pairing():
    """<u, G v> equals <G^H u, v> under the grid quadrature."""
    rng = np.random.default_rng(11)
    t_out = np.linspace(-1.0, 3.0, 200)
    t_in = np.linspace(-2.0, 2.0, 160)
    m = rng.normal(size=(200, 160)) + 1j * rng.normal(size=(200, 160))
    gf = GreenFunction(form="grid", g_rs=m, t_out=t_out, t_in=t_in)
    u = rng.normal(size=200) + 1j * rng.normal(size=200)
    v = rng.normal(size=160) + 1j * rng.normal(size=160)
    lhs = np.vdot(u, apply_block(gf, "rs", v)) * gf.dt_out
    rhs = np.vdot(apply_block(gf, "rs", u, adjoint=True), v) * gf.dt_in
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_apply_block_stack_matches_rows():
    """A (k, n) stack gives the row-by-row images, delta line included, in
    both directions."""
    rng = np.random.default_rng(5)
    t_in = np.linspace(-4.0, 4.0, 256, endpoint=False)
    t_out = t_in + 1.3
    n = t_in.size
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gf = GreenFunction(form="grid", g_ss=m, t_out=t_out, t_in=t_in,
                       delta_ss=DeltaLine(delay=0.9, weight=0.6 - 0.8j))
    vecs = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    for adjoint in (False, True):
        stack = apply_block(gf, "ss", vecs, adjoint=adjoint)
        rows = np.array([apply_block(gf, "ss", v, adjoint=adjoint) for v in vecs])
        assert stack.shape == (3, n)
        assert np.max(np.abs(stack - rows)) <= 1e-13 * np.max(np.abs(rows))


def test_assembly_is_deterministic():
    a = assemble_gf(SSVM, PUMP, n_r=10, n_s=10, tol_leak=0.05)
    b = assemble_gf(SSVM, PUMP, n_r=10, n_s=10, tol_leak=0.05)
    assert np.array_equal(a.g_rs, b.g_rs)
    assert np.array_equal(a.g_ss, b.g_ss)


@pytest.fixture(scope="module")
def gf_s_inputs():
    return assemble_gf(SSVM, PUMP, n_r=24, n_s=24, blocks=("rs", "ss"))


def test_partial_assembly_matches_full(gf_small, gf_s_inputs):
    """Blocks, s-side energies and s-side leaks of an rs/ss assembly are
    those of the four-block one, bit for bit; the r side is left out."""
    gf = gf_s_inputs
    assert gf.g_rr is None and gf.g_sr is None and gf.basis_in_r is None
    assert np.array_equal(gf.g_rs, gf_small.g_rs)
    assert np.array_equal(gf.g_ss, gf_small.g_ss)
    for key in ("conv_energy_s", "trans_energy_s", "leak_s"):
        assert np.array_equal(gf.metadata[key], gf_small.metadata[key])
    for key in ("conv_energy_r", "trans_energy_r", "leak_r"):
        assert gf.metadata[key].size == 0


def test_partial_assembly_propagates_read_inputs(monkeypatch):
    calls = []
    run = Propagator.run

    def counting_run(self, a_r, a_s):
        calls.append(np.shape(a_r))
        return run(self, a_r, a_s)

    monkeypatch.setattr(Propagator, "run", counting_run)
    gf = assemble_gf(SSVM, PUMP, n_r=6, n_s=4, tol_leak=0.5, blocks=("sr",))
    # the r-input window: the coverage window [-5, 6] holds the r-input light,
    # 805 of the grid's 1024 samples, rounded up to the fast length 810
    assert calls == [(6, 810)]
    assert gf.g_sr.shape == (4, 6) and gf.g_rs is None
    assert gf.metadata["leak_s"].size == 0


def test_assembly_rejects_unknown_block():
    for blocks in (("rs", "g_ss"), ()):
        with pytest.raises(ConfigurationError):
            assemble_gf(SSVM, PUMP, n_r=6, n_s=6, tol_leak=0.5, blocks=blocks)


def test_partial_assembly_diagnostics(gf_small, gf_s_inputs):
    """Unitarity and leakage cover the input columns present; with all four
    blocks they are those of the composite matrix."""
    u = composite_matrix(gf_small)
    ref = np.linalg.norm(u.conj().T @ u - np.eye(48)) / np.sqrt(48)
    assert unitarity_defect(gf_small) == float(ref)
    cols = np.vstack([gf_s_inputs.g_rs, gf_s_inputs.g_ss])
    ref_s = np.linalg.norm(cols.conj().T @ cols - np.eye(24)) / np.sqrt(24)
    assert unitarity_defect(gf_s_inputs) == float(ref_s)
    assert unitarity_defect(gf_s_inputs) < 2e-3
    report = leakage_report(gf_s_inputs)
    assert report["worst_side"] == "s" and report["r"].size == 0
    assert report["max"] == float(np.max(gf_small.metadata["leak_s"]))
    with pytest.raises(ConfigurationError):
        composite_matrix(gf_s_inputs)
    # a column without its s outputs has no defined defect
    rs_only = GreenFunction(form="basis", g_rs=gf_s_inputs.g_rs,
                            basis_out_r=gf_s_inputs.basis_out_r,
                            basis_in_s=gf_s_inputs.basis_in_s)
    with pytest.raises(ConfigurationError):
        unitarity_defect(rs_only)


def test_partial_assembly_grid_synthesis(gf_s_inputs):
    grid_gf = to_grid_form(gf_s_inputs)
    assert grid_gf.g_rr is None and grid_gf.g_ss is not None
    res_basis = decompose(gf_s_inputs, n_report=5, want_modes=False)
    res_grid = decompose(grid_gf, n_report=5, want_modes=False)
    assert np.max(np.abs(res_basis.rho - res_grid.rho)) < 1e-12
