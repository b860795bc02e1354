"""Schmidt decomposition, figures of merit, and the frequency view."""

import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tmfc import (
    ConfigurationError,
    DataError,
    PumpSpec,
    QuadraticChirp,
    RegimeParams,
    SchmidtResult,
    UnsupportedConfigurationError,
    assemble_gf,
    beamsplitter_apply,
    conversion_support,
    decompose,
    default_ssvm_grids,
    gf_fourier,
    sample_low_ce,
    selectivity,
    separability,
    shape_fidelity,
    ssvm_gf,
)
from tmfc import GreenFunction, schmidt
from tmfc.gf_numeric import WeightedRs, _row_blocks
from tmfc.harness.cases import fig6_spec, low_ce_spec
from tmfc.harness.sweep import _gf_for_point

PUMP = PumpSpec(tau_p=1.0)
SSVM = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.5)


@pytest.fixture(scope="module")
def gf_small():
    return assemble_gf(SSVM, PUMP, n_r=24, n_s=24)


@pytest.fixture(scope="module")
def gf_weak_grid():
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(params, PUMP)
    t_out = np.linspace(o_lo - 1.0, o_hi + 1.0, 257)
    t_in = np.linspace(i_lo - 1.0, i_hi + 1.0, 241)
    return sample_low_ce(params, PUMP, t_out, t_in)


def test_selectivity_separability_formulas():
    rho = np.array([0.9, 0.3, 0.1])
    total = 0.91
    assert np.isclose(selectivity(rho), 0.9 ** 4 / total)
    assert np.isclose(separability(rho), 0.81 / total)
    assert selectivity(np.zeros(3)) == 0.0
    assert separability(np.zeros(3)) == 0.0
    assert np.isclose(selectivity(np.array([1.0])), 1.0)
    assert np.isclose(separability(np.array([1.0])), 1.0)


def test_decompose_ordering_and_derived_fields(gf_small):
    res = decompose(gf_small, n_report=8)
    full = decompose(gf_small, n_report=min(gf_small.g_rs.shape),
                     want_modes=False).rho
    assert np.all(np.diff(res.rho) <= 1e-15)
    assert np.allclose(res.ce, res.rho ** 2)
    assert full.size >= res.rho.size
    assert np.allclose(full[:8], res.rho)
    # the Hilbert-Schmidt weight counts conversion past the output basis too
    assert res.sum_rho_sq >= np.sum(full ** 2) - 1e-12
    assert np.isclose(res.selectivity, res.rho[0] ** 4 / res.sum_rho_sq)
    assert np.isclose(res.separability, res.rho[0] ** 2 / res.sum_rho_sq)


def test_decompose_pairs_transmission(gf_small):
    res = decompose(gf_small, n_report=8)
    assert res.tau_source == "gss"
    defect = np.abs(res.tau_abs ** 2 + res.rho ** 2 - 1.0)
    assert np.max(defect) < 2e-3
    # real pump and coupling: transmission phases vanish
    assert np.max(np.abs(res.tau_phase)) < 1e-6


def test_decompose_pairs_through_delta_line():
    """On square axes the ss block applies together with its delta line.

    Without the delta line |tau|^2 + rho^2 would fall short of 1 by 0.73
    or more.  What remains is the first-order error of sampling the
    kernel's jump edges: 2.5e-3 on this grid, 1.3e-3 at twice the points
    and 1.0e-3 at four times."""
    t = np.linspace(-8.0, 9.0, 1025)
    gf = ssvm_gf(SSVM.with_gamma_bar(0.8), PUMP, t, t)
    res = decompose(gf, n_report=4, want_modes=False)
    assert res.tau_source == "gss"
    assert np.max(np.abs(res.tau_abs ** 2 + res.rho ** 2 - 1.0)) < 5e-3


def test_decompose_values_only_when_no_vector_is_read(monkeypatch):
    """An rs-only grid Green function pairs tau by unitarity, so without
    modes no singular vector is read and the SVD returns values alone."""
    params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(params, PUMP)
    gf = sample_low_ce(params, PUMP, np.linspace(o_lo - 1.0, o_hi + 1.0, 257),
                       np.linspace(i_lo - 1.0, i_hi + 1.0, 241), blocks=("rs",))
    full = decompose(gf, n_report=8, want_modes=True)
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    lean = decompose(gf, n_report=8, want_modes=False)
    assert calls == [False]
    assert lean.modes_in_s is None and lean.tau_source == "unitarity"
    n_all = min(gf.g_rs.shape)
    spectra = [decompose(gf, n_all, want_modes=want).rho for want in (False, True)]
    # relative to the largest value: the tail of the spectrum sits at round-off
    for a, b in [(lean.rho, full.rho), spectra]:
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13 * b[0]
    for name in ("selectivity", "separability", "sum_rho_sq"):
        assert math.isclose(getattr(lean, name), getattr(full, name),
                            rel_tol=1e-13)


WEAK = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)


def _weighted(gf):
    """The weighted rs matrix ``decompose`` works on."""
    g, scale = gf.g_rs, math.sqrt(gf.dt_out) * math.sqrt(gf.dt_in)
    return (g.imag if not g.real.any() else g) * scale


def _weak_block(pump, n_out, n_in):
    """The weighted rs matrix ``decompose`` works on, and its Green function."""
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(WEAK, pump)
    gf = sample_low_ce(WEAK, pump, np.linspace(o_lo, o_hi, n_out),
                       np.linspace(i_lo, i_hi, n_in), blocks=("rs",))
    return _weighted(gf), gf


def _with_spectrum(sig, m, n, seed=5, dtype=float):
    rng = np.random.default_rng(seed)

    def orthonormal(rows):
        a = rng.standard_normal((rows, sig.size))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((rows, sig.size))
        return np.linalg.qr(a)[0]

    u, v = orthonormal(m), orthonormal(n)
    return (u * sig) @ v.conj().T


def _leading_error(mat, k=8):
    """Largest deviation of the iterated leading values from LAPACK's,
    relative to the largest value; ``None`` when the iteration declined."""
    got = schmidt._leading_values(mat, k)
    ref = np.linalg.svd(mat, compute_uv=False)[:k]
    if got is None:
        return None
    assert got.shape == ref.shape
    return float(np.max(np.abs(got - ref))) / ref[0]


@pytest.mark.parametrize("chirp", [None, QuadraticChirp(5.0)], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(321, 201), (201, 321), (257, 257)],
                         ids=["tall", "wide", "square"])
def test_leading_values_match_full_svd_on_kernel_blocks(chirp, shape):
    """Real (plain pump) and complex (chirped pump) weak blocks, tall, wide
    and square: the iteration runs and its values agree with LAPACK's to
    round-off of the largest one."""
    mat, _ = _weak_block(PumpSpec(tau_p=1.0, chirp=chirp), *shape)
    assert np.iscomplexobj(mat) == (chirp is not None)
    err = _leading_error(mat)
    assert err is not None and err <= 1e-14


@pytest.mark.parametrize("sig, dtype", [
    pytest.param(1.0 / np.arange(1, 201), float, id="one-over-j"),
    pytest.param(np.r_[np.geomspace(1.0, 0.1, 8), np.geomspace(0.1, 1e-4, 192)],
                 float, id="tie-at-k"),
    pytest.param(np.r_[np.geomspace(1.0, 0.1, 8), np.geomspace(0.1, 1e-4, 192)],
                 complex, id="tie-at-k-complex"),
    pytest.param(np.r_[np.ones(10), np.geomspace(0.5, 1e-3, 190)], float,
                 id="cluster-10"),
    pytest.param(np.r_[1.0, 0.5, 0.2, np.zeros(197)], float, id="rank-3"),
    pytest.param(np.r_[np.geomspace(1.0, 0.1, 8), np.zeros(192)], float,
                 id="rank-b"),
    pytest.param(np.r_[np.geomspace(1.0, 0.1, 9), np.zeros(191)], float,
                 id="rank-b+1"),
])
def test_leading_values_on_hard_spectra(sig, dtype):
    """Small gaps, a tie between the k-th and (k+1)-th value, ten equal
    leading values, and ranks of 3, b = k = 8 and b + 1, where the Krylov
    space turns invariant and a block of ``mat^H y`` is rank-deficient: the
    iteration settles and agrees with LAPACK to round-off."""
    err = _leading_error(_with_spectrum(sig, 300, 200, dtype=dtype))
    assert err is not None and err <= 1e-14


def _table1_gf(chirp=None):
    """The 1024 x 1024 table1-a Green function on the weak catalog's grids;
    about a fifth of its block lies in the interaction band."""
    spec = low_ce_spec("table1-a")
    pump = replace(spec.pump, chirp=chirp)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(spec.params, pump,
                                                    margin=spec.low_ce_margin)
    return sample_low_ce(spec.params, pump, np.linspace(o_lo, o_hi, spec.low_ce_n),
                         np.linspace(i_lo, i_hi, spec.low_ce_n), blocks=("rs",))


def _fig6_gf():
    """A fig6 Green function (1153 x 513); more than half of its block lies
    in the band."""
    params = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0)
    pump = PumpSpec(tau_p=0.1)
    return ssvm_gf(params, pump, *default_ssvm_grids(params, pump), blocks=("rs",))


def _table1_block(chirp=None):
    return _weighted(_table1_gf(chirp))


def _fig6_block():
    return _weighted(_fig6_gf())


class _RowReads(np.ndarray):
    """An array that records the keys it is indexed with."""

    def __getitem__(self, key):
        self.reads.append(key)
        return np.asarray(super().__getitem__(key))


@pytest.mark.parametrize("make", [
    _table1_block,
    lambda: _table1_block(QuadraticChirp(5.0)),
    lambda: np.pad(_table1_block(), ((150, 200), (0, 0))),
    _fig6_block,
    lambda: _with_spectrum(1.0 / np.arange(1, 201), 300, 200),
], ids=["table1", "table1-chirped", "zero-end-rows", "fig6", "dense"])
def test_leading_values_band_pieces(monkeypatch, make):
    """The pieces hold every nonzero entry, each between its row block's
    first and last nonzero column, and leave out all-zero row blocks; one
    call scans every row block once, then each depth of the iteration
    indexes every piece once, and the values agree with LAPACK's to
    round-off."""
    mat = make()
    err = _leading_error(mat)
    assert err is not None and err <= 1e-14
    pieces = schmidt._pieces(mat)
    inside = np.zeros(mat.shape, dtype=bool)
    for rows, cols in pieces:
        inside[rows, cols] = True
        assert mat[rows, cols.start].any() and mat[rows, cols.stop - 1].any()
    assert not mat[~inside].any()
    step = _row_blocks(*mat.shape)[0].stop
    live_blocks = {r // step for r in np.flatnonzero(mat.any(axis=1))}
    assert [rows.start // step for rows, _ in pieces] == sorted(live_blocks)
    # one eigvalsh call per depth reached
    depths = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        depths.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    reader = mat.view(_RowReads)
    reader.reads = []
    assert schmidt._leading_values(reader, 8) is not None
    # the scan reads row blocks by a slice, the products pieces by (rows, cols)
    assert len(depths) >= 2
    assert reader.reads == _row_blocks(*mat.shape) + pieces * len(depths)


def test_decompose_values_path_zero_block():
    _, gf = _weak_block(PUMP, 257, 241)
    zero = replace(gf, g_rs=np.zeros_like(gf.g_rs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = decompose(zero, n_report=8, want_modes=False)
    assert res.selectivity == 0.0 and res.separability == 0.0
    assert res.sum_rho_sq == 0.0 and not res.rho.any()


@pytest.mark.parametrize("chirp", [None, QuadraticChirp(5.0)], ids=["real", "complex"])
def test_decompose_values_path_norm_and_determinism(chirp):
    """``sum_rho_sq`` is the Frobenius norm, equal to the full spectrum's
    weight; two calls agree bit for bit (fixed-seed start block), also
    across a pickle round trip."""
    _, gf = _weak_block(PumpSpec(tau_p=1.0, chirp=chirp), 257, 241)
    a = decompose(gf, n_report=8, want_modes=False)
    # pickled, as a process pool would
    b = pickle.loads(pickle.dumps(decompose(gf, n_report=8, want_modes=False)))
    n_all = min(gf.g_rs.shape)
    full_a = decompose(gf, n_all, want_modes=False).rho
    full_b = pickle.loads(pickle.dumps(decompose(gf, n_all, want_modes=False))).rho
    assert math.isclose(a.sum_rho_sq, float(np.sum(full_a ** 2)), rel_tol=1e-13)
    for name in ("rho", "tau_abs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(full_a, full_b)
    assert a.selectivity == b.selectivity and a.sum_rho_sq == b.sum_rho_sq


@pytest.mark.parametrize("chirp", [None, QuadraticChirp(5.0)], ids=["real", "complex"])
def test_decompose_values_path_pickles_without_the_block(chirp):
    """A values-only result holds its leading values and time axes, not the
    rs block: pickled, the 257 x 241 weak result stays under 16 kB, where
    the complex block alone takes 991 kB."""
    _, gf = _weak_block(PumpSpec(tau_p=1.0, chirp=chirp), 257, 241)
    res = decompose(gf, n_report=8, want_modes=False)
    assert len(pickle.dumps(res)) < 16 * 1024


def _svd_spy(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


@pytest.mark.parametrize("n_in, max_depth, n_report, chirp", [
    (16, None, 8, None),
    (241, 3, 8, None),
    (241, None, 241, None),
    (241, None, 241, QuadraticChirp(5.0)),
], ids=["block-spans-input", "depth-cap", "full-spectrum", "full-spectrum-complex"])
def test_decompose_values_path_falls_back_to_full_svd(monkeypatch, n_in, max_depth,
                                                      n_report, chirp):
    """A basis of two 8-column blocks would span a 16-point input side, an
    iteration capped at depth 3 has not settled, and ``n_report = min(shape)``
    asks for every value, on a real and a complex block: each takes one full
    values-only SVD, with exactly LAPACK's values."""
    mat, gf = _weak_block(PumpSpec(tau_p=1.0, chirp=chirp), 257, n_in)
    ref = np.linalg.svd(mat, compute_uv=False)
    if max_depth is not None:
        monkeypatch.setattr(schmidt, "_MAX_DEPTH", max_depth)
    calls = _svd_spy(monkeypatch)
    res = decompose(gf, n_report=n_report, want_modes=False)
    assert calls == [(mat.shape, False)]
    assert np.array_equal(res.rho, ref[:n_report])
    assert res.sum_rho_sq == float(np.sum(ref ** 2))


def test_decompose_values_path_reduces_only_a_thin_block(monkeypatch):
    """A 1024 x 1024 weak block, as the weak-conversion catalog samples it:
    the only SVD inside ``decompose`` is one values-only SVD of the Krylov
    block ``y``, whole 8-column blocks below the depth cap; the full
    spectrum, at ``n_report = 1024``, costs one full values-only SVD and
    returns exactly LAPACK's values, read-only."""
    mat, gf = _weak_block(PUMP, 1024, 1024)
    ref = np.linalg.svd(mat, compute_uv=False)
    calls = _svd_spy(monkeypatch)
    res = decompose(gf, n_report=8, want_modes=False)
    [((rows, width), uv)] = calls
    assert rows == 1024 and not uv
    assert width % 8 == 0 and width < schmidt._MAX_DEPTH * 8
    full = decompose(gf, n_report=1024, want_modes=False).rho
    assert calls[1:] == [(mat.shape, False)]
    assert np.array_equal(full, ref) and not full.flags.writeable
    assert len(calls) == 2
    assert np.max(np.abs(res.rho - ref[:8])) <= 1e-14 * ref[0]


@pytest.mark.parametrize("make", [_fig6_gf, _table1_gf], ids=["fig6", "table1"])
def test_decompose_values_path_settles_below_depth_cap(monkeypatch, make):
    """On the catalog's own blocks the iteration settles below its depth cap:
    ``decompose`` makes exactly one SVD call, values-only, of the thin Krylov
    block, never the full reduction it falls back to."""
    gf = make()
    calls = _svd_spy(monkeypatch)
    decompose(gf, n_report=8, want_modes=False)
    [((rows, width), uv)] = calls
    assert rows == gf.g_rs.shape[0] and not uv
    assert 2 * 8 <= width < schmidt._MAX_DEPTH * 8


def _values_and_full(engine, params, pump, t_out=None, t_in=None, n_report=8, spec=None):
    """``decompose`` of the engine's values-only :class:`WeightedRs` and of
    the rs-only Green function sampled on the same grids (by default those
    of a point of ``spec``, fig6 or fig3a).  The weighted block is the
    complex one over ``i`` times ``sqrt(dt_out dt_in)``, bit for bit."""
    sample = ssvm_gf if engine == "analytic-ssvm" else sample_low_ce
    if t_out is None:
        spec = spec or (low_ce_spec("fig3a") if engine == "low-ce" else fig6_spec())
        kernel = _gf_for_point(spec, params, pump)
        t_out, t_in = kernel.t_out, kernel.t_in
    else:
        kernel = sample(params, pump, t_out, t_in, weighted=True)
    assert isinstance(kernel, WeightedRs)
    full = sample(params, pump, t_out, t_in, blocks=("rs",))
    over_i = full.g_rs * -1j if np.iscomplexobj(kernel.g_rs) else full.g_rs.imag
    assert np.array_equal(kernel.g_rs, over_i * (math.sqrt(full.dt_out) * math.sqrt(full.dt_in)))
    got = decompose(kernel, n_report, want_modes=False)
    return got, decompose(full, n_report, want_modes=False)


def _assert_same_values(got, ref, rtol=1e-14):
    assert got.tau_source == "unitarity" and got.modes_in_s is None
    assert got.rho.shape == ref.rho.shape
    assert np.max(np.abs(got.rho - ref.rho)) <= rtol * ref.rho[0]
    assert np.max(np.abs(got.tau_abs - ref.tau_abs)) <= rtol
    for name in ("sum_rho_sq", "selectivity", "separability"):
        assert math.isclose(getattr(got, name), getattr(ref, name), rel_tol=rtol)


TABLE = np.linspace(-2.0, 2.0, 41)
TABULATED = PumpSpec(shape="custom-tabulated", tau_p=0.5,
                     table=(TABLE, np.exp(-TABLE ** 2)))
HG = PumpSpec(shape="hermite-gauss-1", tau_p=0.7)


@pytest.mark.parametrize("gamma_bar", [0.6, 1.15, 2.0])
def test_values_only_matches_decompose_on_fig6_points(gamma_bar):
    """A fig6 point's values-only kernel gives the values of its full rs
    block to round-off."""
    params, pump = fig6_spec().point_config({"gamma_bar": gamma_bar})
    _assert_same_values(*_values_and_full("analytic-ssvm", params, pump))


@pytest.mark.parametrize("case", ["table1-a", "table1-b", "table1-c", "table1-d",
                                  "fig2", "fig3a", "fig3b", "fig5"])
def test_values_only_matches_decompose_on_weak_catalog_grids(case):
    """Every weak catalog grid, most of them with samples on a band edge,
    where the pieces carry the half weights."""
    spec = low_ce_spec(case)
    _assert_same_values(*_values_and_full("low-ce", spec.params, spec.pump, spec=spec))


@pytest.mark.parametrize("engine, params, pump", [
    ("analytic-ssvm", SSVM.with_gamma_bar(1.2), PumpSpec(tau_p=0.5, chirp=QuadraticChirp(5.0))),
    ("low-ce", RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=0.25, gamma=0.02 + 0.01j),
     PUMP),
    ("low-ce", WEAK, PumpSpec(tau_p=0.5, chirp=QuadraticChirp(0.7))),
    ("analytic-ssvm", SSVM, HG),
    ("analytic-ssvm", SSVM, TABULATED),
    ("low-ce", WEAK, HG),
    ("low-ce", WEAK, TABULATED),
], ids=["ssvm-chirped", "low-ce-complex-gamma", "low-ce-chirped", "ssvm-hg",
        "ssvm-tabulated", "low-ce-hg", "low-ce-tabulated"])
def test_values_only_matches_decompose_on_other_pumps(engine, params, pump):
    """Complex kernels over i (a chirped pump, a complex coupling) and the
    Hermite-Gauss and tabulated pumps."""
    got, ref = _values_and_full(engine, params, pump)
    complex_ = pump.chirp is not None or isinstance(params.gamma, complex)
    sample = ssvm_gf if engine == "analytic-ssvm" else sample_low_ce
    t = np.linspace(-3.0, 3.0, 64)
    assert np.iscomplexobj(sample(params, pump, t, t, weighted=True).g_rs) == complex_
    _assert_same_values(got, ref)


@pytest.mark.parametrize("n_in, max_depth, n_report", [
    (16, None, 8), (241, 3, 8), (241, None, 241),
], ids=["block-spans-input", "depth-cap", "full-spectrum"])
@pytest.mark.parametrize("chirp", [None, QuadraticChirp(5.0)], ids=["real", "complex"])
def test_values_only_falls_back_to_full_svd(monkeypatch, n_in, max_depth, n_report, chirp):
    """Where the iteration declines, at depth < 2 or at its depth cap, one
    values-only SVD of the weighted block gives the values."""
    pump = PumpSpec(tau_p=1.0, chirp=chirp)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(WEAK, pump)
    t_out, t_in = np.linspace(o_lo, o_hi, 257), np.linspace(i_lo, i_hi, n_in)
    if max_depth is not None:
        monkeypatch.setattr(schmidt, "_MAX_DEPTH", max_depth)
    got, ref = _values_and_full("low-ce", WEAK, pump, t_out, t_in, n_report)
    kernel = sample_low_ce(WEAK, pump, t_out, t_in, weighted=True)
    calls = _svd_spy(monkeypatch)
    decompose(kernel, n_report, want_modes=False)
    assert calls == [((257, n_in), False)]
    _assert_same_values(got, ref)


def test_values_only_of_a_zero_kernel():
    """A pump far from the grids: the kernel is zero, and S is 0 without a
    warning."""
    t = np.linspace(-3.0, 3.0, 200)
    far = PumpSpec(tau_p=0.5, center=100.0)
    for sample, params in ((ssvm_gf, SSVM), (sample_low_ce, WEAK)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = decompose(sample(params, far, t, t, weighted=True), 8, want_modes=False)
        assert res.selectivity == 0.0 and res.separability == 0.0
        assert res.sum_rho_sq == 0.0 and not res.rho.any()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_values_only_rejects_non_finite_samples(bad):
    """A non-finite sample raises DataError, as the Green function of that
    block does; the clean kernel gives the modes of the complex block."""
    t = np.linspace(-3.0, 3.0, 64)
    kernel = sample_low_ce(WEAK, PUMP, t, t, weighted=True)
    mat = kernel.g_rs.copy()
    mat[t.size // 2, t.size // 2] = bad
    with pytest.raises(DataError):
        decompose(WeightedRs(mat, t, t), 8, want_modes=False)
    block = np.zeros(mat.shape, complex)
    block.imag = mat
    with pytest.raises(DataError):
        GreenFunction(form="grid", t_out=t, t_in=t, g_rs=block)
    modes, ref = decompose(kernel, 8), decompose(sample_low_ce(WEAK, PUMP, t, t, blocks=("rs",)), 8)
    for name in ("rho", "modes_in_s", "modes_out_r"):
        assert np.array_equal(getattr(modes, name), getattr(ref, name))


def test_decompose_real_kernel_path_matches_complex_path():
    """Real coupling and an unchirped pump make the rs block i times a real
    kernel, which takes the real SVD; a global phase on the block forces the
    complex one.  Both must give the same values and pairing, and output
    functions that differ only by that phase."""
    t = np.linspace(-6.0, 7.0, 513)
    gf = ssvm_gf(SSVM.with_gamma_bar(0.8), PUMP, t, t)
    assert not gf.g_rs.real.any()
    phase = np.exp(0.3j)
    rotated = replace(gf, g_rs=gf.g_rs * phase)
    assert rotated.g_rs.real.any() and rotated.g_rs.imag.any()
    real = decompose(gf, n_report=4)
    cplx = decompose(rotated, n_report=4)
    assert real.tau_source == cplx.tau_source == "gss"
    for name in ("rho", "tau_abs"):
        assert np.max(np.abs(getattr(real, name) - getattr(cplx, name))) < 1e-13
    assert np.max(np.abs(real.tau_phase - cplx.tau_phase)) < 1e-13
    scale_in = np.max(np.abs(real.modes_in_s))
    scale_out = np.max(np.abs(real.modes_out_r))
    assert np.max(np.abs(real.modes_in_s - cplx.modes_in_s)) < 1e-12 * scale_in
    assert np.max(np.abs(real.modes_out_r * phase - cplx.modes_out_r)) \
        < 1e-12 * scale_out


def test_decompose_grid_reconstruction(gf_weak_grid):
    n_full = min(gf_weak_grid.t_out.size, gf_weak_grid.t_in.size)
    res = decompose(gf_weak_grid, n_report=n_full)
    rebuilt = (res.modes_out_r.T * res.rho) @ np.conj(res.modes_in_s)
    scale = np.max(np.abs(gf_weak_grid.g_rs))
    assert np.max(np.abs(rebuilt - gf_weak_grid.g_rs)) < 1e-8 * scale


def test_decompose_grid_mode_orthonormality(gf_weak_grid):
    res = decompose(gf_weak_grid, n_report=4)
    gram_in = res.modes_in_s @ np.conj(res.modes_in_s.T) * res.dt_in
    gram_out = res.modes_out_r @ np.conj(res.modes_out_r.T) * res.dt_out
    assert np.max(np.abs(gram_in - np.eye(4))) < 1e-9
    assert np.max(np.abs(gram_out - np.eye(4))) < 1e-9


def test_decompose_rs_only_uses_unitarity(gf_weak_grid):
    res = decompose(gf_weak_grid, want_modes=False)
    assert res.tau_source == "unitarity"
    assert np.allclose(res.tau_abs, np.sqrt(1.0 - res.rho ** 2))
    assert np.all(res.tau_phase == 0.0)


def test_decompose_requires_rs(gf_weak_grid):
    from tmfc.gf_numeric import GreenFunction

    bare = GreenFunction(form="grid", g_rr=np.eye(8) + 0j,
                         t_out=np.linspace(0, 1, 8),
                         t_in=np.linspace(0, 1, 8))
    with pytest.raises(ConfigurationError):
        decompose(bare)


@pytest.mark.parametrize("want_modes", [False, True])
@pytest.mark.parametrize("n_report", [0, -3])
def test_decompose_rejects_nonpositive_n_report(gf_weak_grid, n_report, want_modes):
    with pytest.raises(ConfigurationError, match="n_report"):
        decompose(gf_weak_grid, n_report=n_report, want_modes=want_modes)


def _hand_result(tau_phase=(0.0, 0.0)):
    rho = np.array([0.6, 0.3])
    tau_abs = np.sqrt(1.0 - rho ** 2)
    return SchmidtResult(
        rho=rho, tau_abs=tau_abs, tau_phase=np.array(tau_phase),
        ce=rho ** 2, selectivity=selectivity(rho), separability=separability(rho),
        sum_rho_sq=float(np.sum(rho ** 2)), tau_source="unitarity",
    )


def test_beamsplitter_algebra():
    res = _hand_result()
    out_r, out_s = beamsplitter_apply(res, np.array([1.0, 0.0]),
                                      np.array([0.0, 1.0]))
    assert np.allclose(out_r, [res.tau_abs[0], res.rho[1]])
    assert np.allclose(out_s, [-res.rho[0], res.tau_abs[1]])
    # per-mode energy conservation for arbitrary complex inputs
    rng = np.random.default_rng(3)
    cr = rng.normal(size=2) + 1j * rng.normal(size=2)
    cs = rng.normal(size=2) + 1j * rng.normal(size=2)
    outr, outs = beamsplitter_apply(res, cr, cs)
    assert np.allclose(np.abs(outr) ** 2 + np.abs(outs) ** 2,
                       np.abs(cr) ** 2 + np.abs(cs) ** 2)


def test_beamsplitter_guards():
    res = _hand_result()
    with pytest.raises(DataError):
        beamsplitter_apply(res, np.ones(3), np.ones(3))
    skewed = _hand_result(tau_phase=(0.1, 0.0))
    with pytest.raises(UnsupportedConfigurationError):
        beamsplitter_apply(skewed, np.ones(2), np.ones(2))


def test_shape_fidelity_self_and_shift():
    t = np.linspace(-8.0, 8.0, 1601)
    dt = t[1] - t[0]
    a = np.exp(-t ** 2 / 2.0) + 0j
    assert shape_fidelity(a, a, dt, dt) > 1.0 - 1e-12
    # delay deliberately off the sample comb
    b = np.exp(-(t - 1.2374) ** 2 / 2.0) * np.exp(0.3j)
    assert shape_fidelity(a, b, dt, dt) > 1.0 - 1e-6


def test_shape_fidelity_chirped_gaussian():
    """Quadratic phase exp(i C t^2) on a unit Gaussian lowers the best
    overlap to 1 / sqrt(1 + C^2)."""
    t = np.linspace(-10.0, 10.0, 4001)
    dt = t[1] - t[0]
    a = np.exp(-t ** 2 / 2.0) + 0j
    b = np.exp(-t ** 2 / 2.0 + 2j * t ** 2)
    assert abs(shape_fidelity(a, b, dt, dt) - 1.0 / math.sqrt(5.0)) < 1e-6


def test_shape_fidelity_unequal_steps():
    """A Hermite-Gauss mode against its delayed, phased copy on a step 1.2
    times coarser: the coarser mode is interpolated linearly, so the
    fidelity deficit falls at least as h^3 over two halvings of h (h^4 is
    expected), whichever argument is the coarser.  An empty mode reads 0,
    as on equal steps, and a step that is not positive and finite raises."""
    deficits = []
    for h in (0.1, 0.05, 0.025, 0.0125, 0.00625):
        t_a = np.arange(-8.0, 8.0 + 0.5 * h, h)
        t_b = np.arange(-8.0, 8.0 + 0.6 * h, 1.2 * h)
        a = t_a * np.exp(-t_a ** 2 / 2.0) + 0j
        b = (t_b - 0.7371) * np.exp(-(t_b - 0.7371) ** 2 / 2.0 + 0.4j)
        deficit = 1.0 - shape_fidelity(a, b, h, 1.2 * h)
        assert 1.0 - shape_fidelity(b, a, 1.2 * h, h) == deficit
        deficits.append(deficit)
    assert all(d > 0 for d in deficits)
    assert all(d0 / d2 > 64.0 for d0, d2 in zip(deficits, deficits[2:]))
    assert deficits[-1] < 1e-9
    a = np.ones(8, dtype=complex)
    assert shape_fidelity(np.zeros(0), a, 0.02, 0.01) == 0.0
    for bad in (0.0, -0.02, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            shape_fidelity(a, a, 0.01, bad)


def test_gf_fourier_preserves_singular_values(gf_weak_grid):
    kern = gf_fourier(gf_weak_grid)
    sv = kern.singular_values()
    rho = decompose(gf_weak_grid, n_report=min(gf_weak_grid.g_rs.shape),
                    want_modes=False).rho
    assert sv.size == rho.size
    assert np.max(np.abs(sv - rho)) < 1e-12 * rho[0]


def test_gf_fourier_rejects_delta_blocks():
    t_out, t_in = default_ssvm_grids(SSVM, PUMP, oversample=8)
    gf = ssvm_gf(SSVM, PUMP, t_out, t_in)
    with pytest.raises(UnsupportedConfigurationError):
        gf_fourier(gf, block="ss")
    with pytest.raises(ConfigurationError):
        gf_fourier(gf, block="sp")
    kern = gf_fourier(gf, block="rs")
    assert kern.values.shape == (t_out.size, t_in.size)


def test_gf_fourier_from_basis_form(gf_small):
    kern = gf_fourier(gf_small)
    sv = kern.singular_values()
    rho = decompose(gf_small, n_report=5, want_modes=False).rho
    assert np.max(np.abs(sv[:5] - rho)) < 1e-9
