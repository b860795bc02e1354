"""Schmidt analysis of a conversion Green function.

The rs block admits a singular value decomposition
``G_rs(t, t') = sum_n rho_n Psi_n(t) phi_n*(t')`` with orthonormal input
functions ``phi_n`` and output functions ``Psi_n``.  Energy conservation
pairs each conversion amplitude ``rho_n`` with a transmission amplitude
``tau_n`` (``|tau_n|^2 + |rho_n|^2 = 1``); the diagonal blocks share the
same mode families.  The mode-n conversion efficiency is ``rho_n^2`` and
the figures of merit are::

    selectivity   S = rho_1^4 / sum_n rho_n^2
    separability      rho_1^2 / sum_n rho_n^2

Discrete operators approximate continuous ones through the quadrature
weights of their grids, so singular values are reported in the continuous
normalization regardless of sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, DataError, UnsupportedConfigurationError
from .gf_numeric import (
    GreenFunction,
    WeightedRs,
    _row_blocks,
    _sqrt_steps,
    apply_block,
    to_grid_form,
)

_PHASE_TOL = 1e-6
# block Krylov iteration for the leading singular values (Musco and Musco,
# NeurIPS 2015): depth cap, and the change of the squared Ritz values between
# two depths, relative to the largest, that stops it as round-off
_MAX_DEPTH = 32
_ROUND_OFF = 16 * np.finfo(float).eps


def _frozen(value) -> np.ndarray:
    value = np.asarray(value)
    value.setflags(write=False)
    return value


@dataclass(frozen=True)
class SchmidtResult:
    """Decomposition summary; arrays are ordered by decreasing ``rho``."""

    rho: np.ndarray
    tau_abs: np.ndarray
    tau_phase: np.ndarray
    ce: np.ndarray
    selectivity: float
    separability: float
    sum_rho_sq: float
    tau_source: str
    t_in: Optional[np.ndarray] = None
    t_out: Optional[np.ndarray] = None
    modes_in_s: Optional[np.ndarray] = None
    modes_out_r: Optional[np.ndarray] = None
    modes_in_r: Optional[np.ndarray] = None
    modes_out_s: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("rho", "tau_abs", "tau_phase", "ce",
                     "t_in", "t_out", "modes_in_s", "modes_out_r",
                     "modes_in_r", "modes_out_s"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _frozen(v))

    @property
    def tau(self) -> np.ndarray:
        return self.tau_abs * np.exp(1j * self.tau_phase)

    @property
    def dt_in(self) -> float:
        return float(self.t_in[1] - self.t_in[0])

    @property
    def dt_out(self) -> float:
        return float(self.t_out[1] - self.t_out[0])


def selectivity(rho: np.ndarray) -> float:
    """``rho_1^4 / sum rho_n^2`` for a descending singular value list."""
    rho = np.asarray(rho, dtype=float)
    total = float(np.sum(rho ** 2))
    if total <= 0.0:
        return 0.0
    return float(rho[0] ** 4 / total)


def separability(rho: np.ndarray) -> float:
    """``rho_1^2 / sum rho_n^2``; 1 for a single mode, 1/N for N equal ones."""
    rho = np.asarray(rho, dtype=float)
    total = float(np.sum(rho ** 2))
    if total <= 0.0:
        return 0.0
    return float(rho[0] ** 2 / total)


def _canonical_phase(vecs: np.ndarray) -> np.ndarray:
    """Per-row phase factors making the first significant component of each
    row positive real (1 for a zero row)."""
    mags = np.abs(vecs)
    idx = np.argmax(mags > 0.5 * mags.max(axis=1, keepdims=True), axis=1)
    z = vecs[np.arange(vecs.shape[0]), idx]
    z = np.where(z == 0.0, 1.0, z)
    return z / np.abs(z)


def decompose(gf: GreenFunction | WeightedRs, n_report: int = 10,
              want_modes: bool = True) -> SchmidtResult:
    """Schmidt-decompose the rs block and pair the transmission amplitudes.

    ``tau_n`` is recovered by applying the ss block to the matched input
    function or, failing that, the adjoint rr block to the matched output
    function, both as one batched :func:`apply_block` call; a block is
    skipped when absent or when its delta line cannot be applied on the
    grid.  When neither applies, the unitarity value ``sqrt(1 - rho_n^2)``
    is used and ``tau_source`` says so.  The pairing is the same for both
    forms: grid-form vectors carry the quadrature weight ``sqrt(dt)``,
    basis-form ones a weight of 1.

    Only what is read gets computed.  Singular vectors are computed, by the
    full SVD, when ``want_modes`` is set or an ss or rr block can pair
    ``tau``.  Otherwise only the leading ``n_report`` values are found, by
    block Krylov iteration run to round-off (Halko, Martinsson and Tropp,
    SIAM Rev. 53, 217 (2011); Musco and Musco, NeurIPS 2015; see
    :func:`_leading_values`), which reads the block's nonzero row pieces
    once per depth, and ``sum_rho_sq`` is the squared Frobenius norm of the
    weighted block, which equals the sum of all squared singular values.
    Where the basis would reach the smaller side or its depth cap, the full
    values-only SVD runs instead, so ``n_report = min(gf.g_rs.shape)`` with
    ``want_modes=False`` returns every singular value by that one SVD.
    Either way ``conv_energy_s`` of a basis-form Green function takes
    precedence for ``sum_rho_sq``.  An rs block with an identically zero
    real part (``i`` times a real kernel, as every sampled kernel at real
    coupling with an unchirped pump is) or zero imaginary part is
    decomposed as the real matrix, with the factor ``i`` carried by the
    output functions; any other block takes the complex SVD.

    A :class:`WeightedRs`, which the analytic samplers write for every
    analytic sweep point, is already that weighted matrix of the kernel
    over ``i``: its unit is ``i``, its weights are the square roots of its
    axis steps, and ``tau`` comes from unitarity.  Values and modes come
    from the same lines as for a grid-form Green function.  Where values
    alone are read, a non-finite entry raises :class:`DataError`; the full
    SVD raises ``LinAlgError`` on one.
    """
    if n_report < 1:
        raise ConfigurationError(f"n_report must be >= 1, got {n_report}")
    weighted = isinstance(gf, WeightedRs)
    if not weighted and gf.block("rs") is None:
        raise ConfigurationError("decomposition needs the rs block")
    basis = not weighted and gf.form == "basis"
    if basis:
        w_out = w_in = 1.0
        t_in = t_out = None if gf.grid is None else gf.grid.times
    else:
        t_in, t_out = gf.t_in, gf.t_out
        w_out, w_in = _sqrt_steps(t_out, t_in)

    def applicable(name: str) -> bool:
        return getattr(gf, f"g_{name}") is not None and (
            gf.delta(name) is None or gf.deltas_applicable)

    pair_rr, pair_ss = applicable("rr"), applicable("ss")
    vectors = want_modes or pair_rr or pair_ss
    if weighted:
        mat, unit = gf.g_rs, 1j
    else:
        g = gf.g_rs
        # a real kernel up to the factor i: the real SVD, i rides on the outputs
        if not g.real.any():
            part, unit = np.imag, 1j
        elif not g.imag.any():
            part, unit = np.real, 1.0 + 0j
        else:
            part, unit = np.asarray, 1.0 + 0j
        mat = part(g) * (w_out * w_in)
    n_report = min(n_report, min(mat.shape))
    if not vectors:
        # numpy's own reduction, not BLAS: its sum does not depend on the
        # BLAS thread count, so pooled and serial records agree
        parts = (mat.real, mat.imag) if np.iscomplexobj(mat) else (mat,)
        with np.errstate(over="ignore", invalid="ignore"):
            sum_rho_sq = float(sum(np.einsum("ij,ij->", p, p) for p in parts))
        if not math.isfinite(sum_rho_sq) and not np.isfinite(mat).all():
            raise DataError("the rs block contains non-finite entries")
    sig = None if vectors else _leading_values(mat, n_report)
    if sig is None:
        if vectors:
            u, sig, vh = np.linalg.svd(mat, full_matrices=False)
        else:
            sig = np.linalg.svd(mat, compute_uv=False)
        sum_rho_sq = float(np.sum(sig ** 2))
    if basis and "conv_energy_s" in gf.metadata:
        # include the conversion weight past the finite output basis: the
        # unprojected column energies sum to the Hilbert-Schmidt weight of
        # the rs block over the spanned inputs
        sum_rho_sq = float(np.sum(gf.metadata["conv_energy_s"]))
    rho = sig[:n_report]

    if vectors:
        # canonical phases: first significant component of each input
        # function positive real, the partner output function rotated with it
        in_vecs = vh[:n_report].conj().astype(complex)
        ph = _canonical_phase(in_vecs)[:, None]
        in_vecs = in_vecs / ph
        out_vecs = u[:, :n_report].T * unit / ph

    tau_abs = np.sqrt(np.clip(1.0 - rho ** 2, 0.0, None))
    tau_phase = np.zeros(n_report)
    tau_source = "unitarity"
    paired = {}

    if pair_rr:
        # G_rr^H Psi_n = tau_n* psi_n with unit psi_n
        imgs = apply_block(gf, "rr", out_vecs / w_out, adjoint=True) * w_in
        tau_abs, tau_phase, paired["in_r"] = _pair_tau(imgs)
        tau_source = "grr"
    if pair_ss:
        # G_ss phi_n = tau_n* Phi_n with unit Phi_n; preferred over rr
        imgs = apply_block(gf, "ss", in_vecs / w_in) * w_out
        tau_abs, tau_phase, paired["out_s"] = _pair_tau(imgs)
        tau_source = "gss"

    result_modes = {}
    if want_modes:
        if basis and gf.grid is None:
            raise ConfigurationError(
                "time-domain modes need a grid; pass want_modes=False")
        families = {"in_s": in_vecs, "out_r": out_vecs, **paired}
        for side, vecs in families.items():
            if basis:
                result_modes[f"modes_{side}"] = \
                    vecs @ getattr(gf, f"basis_{side}").sample(t_in)
            else:
                result_modes[f"modes_{side}"] = \
                    vecs / (w_in if side.startswith("in") else w_out)

    sel = float(rho[0] ** 4 / sum_rho_sq) if sum_rho_sq > 0.0 else 0.0
    sep = float(rho[0] ** 2 / sum_rho_sq) if sum_rho_sq > 0.0 else 0.0
    return SchmidtResult(
        rho=rho, tau_abs=tau_abs, tau_phase=tau_phase, ce=rho ** 2,
        selectivity=sel, separability=sep,
        sum_rho_sq=sum_rho_sq, tau_source=tau_source,
        t_in=t_in, t_out=t_out, **result_modes,
    )


def _pieces(mat: np.ndarray) -> List[Tuple[slice, slice]]:
    """``(rows, cols)`` pieces holding every nonzero entry of ``mat``.

    Rows are taken in the samplers' row blocks (:func:`_row_blocks`, about
    64 k entries each), each block with the span between its first and last
    nonzero column; all-zero row blocks are left out.
    """
    pieces = []
    for rows in _row_blocks(*mat.shape):
        cols = np.flatnonzero(mat[rows].any(axis=0))
        if cols.size:
            pieces.append((rows, slice(int(cols[0]), int(cols[-1]) + 1)))
    return pieces


def _leading_values(mat: np.ndarray, k: int) -> Optional[np.ndarray]:
    """The ``k`` leading singular values of ``mat`` by block Krylov (block
    Lanczos) iteration, or ``None`` where the full SVD should run instead.

    The basis starts from a fixed-seed Gaussian block of ``k`` orthonormal
    columns.  Each depth keeps ``y_j = mat q_j`` and appends ``mat^H y_j``,
    orthogonalized against the basis by two block Gram-Schmidt passes, each
    closed by a QR: the second QR keeps the basis orthonormal where the
    first meets a rank-deficient block.  Once two consecutive depths change
    the leading ``k`` eigenvalues of ``y^H y`` by at most ``16 eps`` of the
    largest, the singular values of ``y``, the exact Ritz values of the
    space, are returned (Musco and Musco, NeurIPS 2015).  ``None`` when the
    basis would reach the smaller side of ``mat`` or ``_MAX_DEPTH`` blocks.

    Each depth reads ``mat`` once, in one pass over its :func:`_pieces`: a
    piece gives its rows of ``y_j`` and, still in cache, adds its share of
    ``y_j^H mat``.  The zeros outside a sampled kernel's interaction band
    are never read, and rows that no piece covers stay zero in ``y``.  For
    an analytic sweep point, ``mat`` is the block the sampler wrote for its
    :class:`WeightedRs`, not a copy out of a complex block.
    """
    depth = min(_MAX_DEPTH, (min(mat.shape) - 1) // k)
    if depth < 2:
        return None
    pieces = _pieces(mat)
    # q and y are preallocated for the depth cap, columns never written cost
    # no memory; gram grows, as preallocated it pushed a fig6 point's heap
    # past glibc's trim threshold and about 7 MB was re-faulted every point
    dtype = np.result_type(mat, float)
    q = np.empty((mat.shape[1], depth * k), dtype, order="F")
    y = np.zeros((mat.shape[0], depth * k), dtype, order="F")
    gram = np.zeros((0, 0), dtype)
    rng = np.random.default_rng(0)
    q[:, :k] = np.linalg.qr(rng.standard_normal((mat.shape[1], k)))[0]
    last = np.inf
    for lo in range(0, depth * k, k):
        hi = lo + k
        if lo:
            # mat^H y_j, formed as (y_j^H mat)^H: no conjugated copy of mat
            z = zh.conj().T
            for _ in range(2):
                z = np.linalg.qr(z - q[:, :lo] @ (q[:, :lo].conj().T @ z))[0]
            q[:, lo:hi] = z
        zh = np.zeros((k, mat.shape[1]), dtype)
        for rows, cols in pieces:
            piece = mat[rows, cols]
            y_p = piece @ q[cols, lo:hi]
            y[rows, lo:hi] = y_p
            zh[:, cols] += y_p.conj().T @ piece
        # the new block row of y^H y; eigvalsh reads the lower triangle
        gram = np.pad(gram, ((0, k), (0, k)))
        gram[lo:hi, :hi] = y[:, lo:hi].conj().T @ y[:, :hi]
        ritz = np.linalg.eigvalsh(gram)[-k:]
        if np.max(np.abs(ritz - last)) <= _ROUND_OFF * ritz[-1]:
            return np.linalg.svd(y[:, :hi], compute_uv=False)[:k]
        last = ritz
    return None


def _pair_tau(imgs: np.ndarray):
    """Split images ``tau_n* X_n`` into ``|tau_n|``, the phase of ``tau_n``
    and canonical unit ``X_n`` (zero where the image vanishes)."""
    tau_abs = np.linalg.norm(imgs, axis=1)
    live = tau_abs > 1e-300
    ph = _canonical_phase(imgs)
    out = np.where(live[:, None],
                   imgs / (np.where(live, tau_abs, 1.0) * ph)[:, None], 0.0)
    # imgs = tau* X with X canonical, so tau* carries the phase ph
    return tau_abs, np.where(live, -np.angle(ph), 0.0), out


def beamsplitter_apply(result: SchmidtResult, coeffs_r: np.ndarray,
                       coeffs_s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mode-wise beamsplitter action of the medium.

    In the paired Schmidt bases each mode transforms independently::

        out_r_n = tau_n in_r_n + rho_n in_s_n
        out_s_n = tau_n in_s_n - rho_n in_r_n

    Requires an (up to numerical noise) real transmission phase, which holds
    for a real coupling and pump; otherwise the simple quadrature form above
    does not apply and an error is raised.
    """
    coeffs_r = np.asarray(coeffs_r, dtype=complex)
    coeffs_s = np.asarray(coeffs_s, dtype=complex)
    n = result.rho.size
    if coeffs_r.shape != (n,) or coeffs_s.shape != (n,):
        raise DataError(f"coefficient vectors must have length {n}")
    if np.any(np.abs(result.tau_phase) > _PHASE_TOL):
        raise UnsupportedConfigurationError(
            "transmission phases are not real within tolerance; the "
            "quadrature beamsplitter form does not apply"
        )
    tau = result.tau_abs
    rho = result.rho
    return tau * coeffs_r + rho * coeffs_s, tau * coeffs_s - rho * coeffs_r


def shape_fidelity(mode_a: np.ndarray, mode_b: np.ndarray,
                   dt_a: float, dt_b: float) -> float:
    """Maximum squared overlap of two mode shapes over a relative delay.

    Where the sampling steps differ, the mode on the coarser step is first
    interpolated linearly onto the finer step over its own support.  The
    discrete cross-correlation is scanned for its peak magnitude, refined
    with a three-point parabola, and normalized by the mode energies, giving
    a number in [0, 1] that is insensitive to global phase and to any time
    offset between the grids.
    """
    a = np.asarray(mode_a, dtype=complex)
    b = np.asarray(mode_b, dtype=complex)
    if not math.isclose(dt_a, dt_b, rel_tol=1e-9):
        if not all(0.0 < dt < math.inf for dt in (dt_a, dt_b)):
            raise ConfigurationError("sampling steps must be positive and finite")
        if dt_a > dt_b:
            a = _resampled(a, dt_a, dt_b)
        else:
            b = _resampled(b, dt_b, dt_a)
    ea = float(np.sum(np.abs(a) ** 2))
    eb = float(np.sum(np.abs(b) ** 2))
    if ea == 0.0 or eb == 0.0:
        return 0.0
    corr = np.correlate(b, a, mode="full")
    mags = np.abs(corr)
    k = int(np.argmax(mags))
    peak = mags[k]
    if 0 < k < mags.size - 1:
        y0, y1, y2 = mags[k - 1], mags[k], mags[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < -1e-30 * max(peak, 1.0):
            delta = 0.5 * (y0 - y2) / denom
            if abs(delta) <= 1.0:
                peak = y1 - 0.25 * (y0 - y2) * delta
    return float(min(1.0, peak ** 2 / (ea * eb)))


def _resampled(mode: np.ndarray, dt: float, step: float) -> np.ndarray:
    """``mode``, sampled at ``dt``, interpolated linearly at the multiples of
    the finer ``step`` that lie on its support."""
    if mode.size < 2:
        return mode
    end = (mode.size - 1) * dt
    n = int(math.floor(end / step * (1.0 + 1e-12))) + 1
    return np.interp(np.arange(n) * step, np.arange(mode.size) * dt, mode)


# ---------------------------------------------------------------------------
# frequency-domain view


@dataclass(frozen=True)
class FrequencyKernel:
    """One block transformed to frequency axes.

    Convention: ``K(w, w') = int int e^{i w t} K(t, t') e^{-i w' t'} dt dt'``.
    """

    values: np.ndarray
    omega_out: np.ndarray
    omega_in: np.ndarray

    def __post_init__(self):
        for name in ("values", "omega_out", "omega_in"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def d_omega_out(self) -> float:
        return float(self.omega_out[1] - self.omega_out[0])

    @property
    def d_omega_in(self) -> float:
        return float(self.omega_in[1] - self.omega_in[0])

    def singular_values(self) -> np.ndarray:
        """Continuous-normalized singular values; the frequency measure is
        ``d omega / (2 pi)`` per side, so they match the time-domain ones."""
        w = math.sqrt(self.d_omega_out * self.d_omega_in) / (2.0 * math.pi)
        return np.linalg.svd(self.values, compute_uv=False) * w


def gf_fourier(gf: GreenFunction, block: str = "rs") -> FrequencyKernel:
    """Discrete double Fourier transform of one smooth block.

    Output times transform with ``e^{+i w t}``, input times with
    ``e^{-i w' t'}``, matching the analytic frequency kernel convention.
    Blocks carrying a delta line are rejected: a delta transforms to a flat
    phase sheet that a finite grid cannot represent.
    """
    if gf.form == "basis":
        gf = to_grid_form(gf)
    m = gf.block(block)
    if m is None:
        raise ConfigurationError(f"block {block} is not present")
    if gf.delta(block) is not None:
        raise UnsupportedConfigurationError(
            "cannot Fourier transform a block with a delta line; "
            "transform the smooth blocks only"
        )
    n_out, n_in = m.shape
    dt_out, dt_in = gf.dt_out, gf.dt_in
    w_out = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n_out, dt_out))
    w_in = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n_in, dt_in))
    # e^{+i w t} over rows: inverse transform times n, then boundary phase
    rows = np.fft.ifft(m, axis=0) * n_out * dt_out
    rows = np.fft.fftshift(rows, axes=0) * np.exp(1j * w_out * gf.t_out[0])[:, None]
    # e^{-i w' t'} over columns: forward transform, then boundary phase
    cols = np.fft.fft(rows, axis=1) * dt_in
    cols = np.fft.fftshift(cols, axes=1) * np.exp(-1j * w_in * gf.t_in[0])[None, :]
    return FrequencyKernel(values=cols, omega_out=w_out, omega_in=w_in)
