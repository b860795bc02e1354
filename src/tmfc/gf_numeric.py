"""Green-function container and its numeric assembly from propagations.

A Green function maps the pair of input envelopes at z=0 to the pair of
output envelopes at z=L through four blocks::

    a_r(L) = G_rr a_r(0) + G_rs a_s(0)
    a_s(L) = G_sr a_r(0) + G_ss a_s(0)

Two representations are supported:

``basis``
    Coefficient matrices between orthonormal Hermite-Gaussian test bases,
    one basis per (channel, side).  This is the form produced by
    :func:`assemble_gf`: each input basis function is propagated through the
    medium and the outputs are projected onto delay-centered output bases.

``grid``
    Direct kernel samples ``G(t_out, t_in)`` on (possibly rectangular) time
    grids, as produced by the closed-form samplers.  The transmitted-delta
    parts of the rr/ss blocks of the exact kernels are kept symbolically as
    :class:`DeltaLine` descriptors and are never sampled as finite values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    CoverageError,
    DataError,
    TruncationError,
)
from .model import (
    EPS_BETA,
    PumpSpec,
    RegimeParams,
    TemporalGrid,
    hermite_gauss_basis,
)
from .solver import Propagator

_BLOCKS = ("rr", "rs", "sr", "ss")
# samples per row block of a sampled kernel or Krylov piece: its temporaries fit in L2
_ROW_BLOCK = 1 << 16


def _row_blocks(n_rows: int, n_cols: int) -> List[slice]:
    """Row slices, about ``_ROW_BLOCK`` samples each, covering ``n_rows``."""
    step = max(1, _ROW_BLOCK // max(n_cols, 1))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


@dataclass(frozen=True)
class DeltaLine:
    """Symbolic term ``weight * delta(t_in - (t_out - delay))``.

    Represents the unconverted, purely delayed part of a diagonal block.
    Consumers apply it as a time shift of the input function.
    """

    delay: float
    weight: complex = 1.0


@dataclass(frozen=True)
class BasisSpec:
    """Hermite-Gaussian test basis: ``n`` modes of a given width and center."""

    n: int
    width: float
    center: float

    def sample(self, t: np.ndarray) -> np.ndarray:
        return hermite_gauss_basis(self.n, t, self.width, self.center)

    def extent(self) -> Tuple[float, float]:
        """Interval containing the basis support (classical turning points
        of the highest mode plus four widths of Gaussian tail)."""
        half = self.width * (math.sqrt(2.0 * self.n + 1.0) + 4.0)
        return self.center - half, self.center + half


def _read_only(blocks: Dict[str, Optional[np.ndarray]]) -> Dict[str, Optional[np.ndarray]]:
    """Mark freshly built blocks read-only, so that :class:`GreenFunction`
    keeps them without a copy; ``None`` entries pass through."""
    for m in blocks.values():
        if m is not None:
            m.setflags(write=False)
    return blocks


@dataclass(frozen=True)
class GreenFunction:
    """Four-block Green function in basis-coefficient or grid-sampled form.

    Blocks are kept read-only and ``complex128``.  A block that already is
    read-only, ``complex128``, C-contiguous and owns its memory is taken
    over as it is, as the samplers, :func:`to_grid_form` and ``load_gf``
    hand over their fresh blocks; whoever passes such an array must not
    write to it afterwards.  Any other array is copied, so that later
    writes by the caller do not reach the Green function.
    """

    form: str
    g_rr: Optional[np.ndarray] = None
    g_rs: Optional[np.ndarray] = None
    g_sr: Optional[np.ndarray] = None
    g_ss: Optional[np.ndarray] = None
    # grid form
    t_out: Optional[np.ndarray] = None
    t_in: Optional[np.ndarray] = None
    delta_rr: Optional[DeltaLine] = None
    delta_ss: Optional[DeltaLine] = None
    # basis form
    basis_in_r: Optional[BasisSpec] = None
    basis_in_s: Optional[BasisSpec] = None
    basis_out_r: Optional[BasisSpec] = None
    basis_out_s: Optional[BasisSpec] = None
    grid: Optional[TemporalGrid] = None
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form not in ("basis", "grid"):
            raise ConfigurationError("form must be 'basis' or 'grid'")
        if all(getattr(self, f"g_{b}") is None for b in _BLOCKS):
            raise ConfigurationError("at least one block must be present")
        for b in _BLOCKS:
            m = getattr(self, f"g_{b}")
            if m is None:
                continue
            # a handed-over block is kept; anything else gets a C-contiguous
            # private copy, so transposed blocks are fine too
            if not (type(m) is np.ndarray and m.dtype == np.complex128
                    and m.flags.c_contiguous and m.flags.owndata
                    and not m.flags.writeable):
                m = np.array(m, dtype=complex, order="C")
                m.setflags(write=False)
            if m.ndim != 2:
                raise DataError(f"block {b} must be a 2-D array")
            # a finite sum proves every entry finite without a full-size
            # temporary; only a sum that overflowed needs the entrywise scan
            with np.errstate(over="ignore", invalid="ignore"):
                finite_sum = np.isfinite(m.sum())
            if not finite_sum and not np.all(np.isfinite(m.view(float))):
                raise DataError(f"block {b} contains non-finite entries")
            object.__setattr__(self, f"g_{b}", m)
        if self.form == "grid":
            if self.t_out is None or self.t_in is None:
                raise ConfigurationError("grid form requires t_out and t_in axes")
            for name in ("t_out", "t_in"):
                ax = np.asarray(getattr(self, name), dtype=float).copy()
                ax.setflags(write=False)
                object.__setattr__(self, name, ax)
            for b in _BLOCKS:
                m = getattr(self, f"g_{b}")
                if m is not None and m.shape != (self.t_out.size, self.t_in.size):
                    raise DataError(f"block {b} shape does not match the time axes")
        else:
            for b in _BLOCKS:
                m = getattr(self, f"g_{b}")
                if m is None:
                    continue
                bo = self.basis_out_r if b[0] == "r" else self.basis_out_s
                bi = self.basis_in_r if b[1] == "r" else self.basis_in_s
                if bo is None or bi is None:
                    raise ConfigurationError(f"basis form requires basis specs for block {b}")
                if m.shape != (bo.n, bi.n):
                    raise DataError(f"block {b} shape does not match its basis sizes")

    @property
    def dt_out(self) -> float:
        return float(self.t_out[1] - self.t_out[0])

    @property
    def dt_in(self) -> float:
        return float(self.t_in[1] - self.t_in[0])

    @property
    def deltas_applicable(self) -> bool:
        """Whether the delta lines can be applied.  A delta line shifts a
        function sampled on one axis onto the other, so grid form needs
        in/out axes of equal size and step; basis form never applies them."""
        return self.form == "basis" or (
            self.t_out.size == self.t_in.size
            and abs(self.dt_out - self.dt_in) <= 1e-12 * self.dt_in)

    def block(self, name: str) -> Optional[np.ndarray]:
        if name not in _BLOCKS:
            raise ConfigurationError(f"unknown block {name!r}")
        return getattr(self, f"g_{name}")

    def delta(self, name: str) -> Optional[DeltaLine]:
        """The delta line of block ``name`` (only rr and ss can carry one)."""
        return {"rr": self.delta_rr, "ss": self.delta_ss}.get(name)


@dataclass(frozen=True)
class WeightedRs:
    """A sampled rs block in the form its Schmidt decomposition is read from:
    ``g_rs`` is ``G_rs / i`` times ``sqrt(dt_out dt_in)`` on the ``t_out``
    x ``t_in`` grid, real for a real kernel over ``i`` (real coupling and
    a real pump) and complex otherwise, a dtype the analytic samplers know
    before they write a piece.  They return it when ``weighted``;
    :func:`~tmfc.schmidt.decompose` reads values and modes from it, and no
    complex block is built.  As for a :class:`GreenFunction` holding the
    rs block alone, the other blocks are ``None``."""

    g_rs: np.ndarray
    t_out: np.ndarray
    t_in: np.ndarray
    g_rr = g_sr = g_ss = None


def _spectral_shift(v: np.ndarray, delay: float, dt: float) -> np.ndarray:
    """Evaluate ``v(t - delay)`` for band-limited functions sampled along
    the last axis."""
    if delay == 0.0:
        return v.astype(complex)
    omega = 2.0 * math.pi * np.fft.fftfreq(v.shape[-1], dt)
    return np.fft.ifft(np.fft.fft(v) * np.exp(-1j * omega * delay))


def apply_block(gf: GreenFunction, name: str, vec: np.ndarray,
                adjoint: bool = False) -> np.ndarray:
    """Apply one block (including any delta part) to one input function
    ``(n,)`` or to a stack of them ``(k, n)``, along the last axis.

    For grid form, functions are sampled on ``t_in`` (``t_out`` when
    ``adjoint``) and the continuous integral is approximated with the grid
    quadrature.  For basis form, they hold basis coefficients.  ``adjoint``
    applies the conjugate-transposed block; its delta part is the reverse
    shift with the conjugate weight.
    """
    m = gf.block(name)
    if m is None:
        raise ConfigurationError(f"block {name} is not present")
    vec = np.asarray(vec, dtype=complex)
    mt = m.conj() if adjoint else m.T
    if gf.form == "basis":
        return vec @ mt
    dt = gf.dt_out if adjoint else gf.dt_in
    out = (vec @ mt) * dt
    delta = gf.delta(name)
    if delta is not None:
        if not gf.deltas_applicable:
            raise ConfigurationError("delta part needs matching in/out axes")
        shift = delta.delay + (gf.t_in[0] - gf.t_out[0])
        weight = delta.weight
        if adjoint:
            shift, weight = -shift, np.conj(weight)
        out = out + weight * _spectral_shift(vec, shift, dt)
    return out


# ---------------------------------------------------------------------------
# numeric assembly


def _run_metadata(engine: str, params: RegimeParams, pump: PumpSpec) -> Dict:
    """The run description each engine records with its Green function."""
    gamma = complex(params.gamma)
    return {"engine": engine, "beta_r": params.beta_r, "beta_s": params.beta_s,
            "beta_p": params.beta_p, "L": params.L,
            "gamma_re": gamma.real, "gamma_im": gamma.imag,
            "pump_shape": pump.shape, "tau_p": pump.tau_p,
            "pump_center": pump.center, "chirped": pump.chirp is not None}


def default_basis_layout(params: RegimeParams, pump: PumpSpec,
                         n_r: int = 40, n_s: int = 40,
                         width_r: Optional[float] = None,
                         width_s: Optional[float] = None
                         ) -> Dict[str, BasisSpec]:
    """Default test-basis geometry for a conversion problem.

    Input bases sit on the interval where each channel crosses the pump
    (center ``-beta_jp L / 2``); output bases are the same shapes delayed by
    the free transit time ``beta_j L``.  A channel that rides with the pump
    uses the pump width; otherwise the width scales with the interaction
    band, ``beta_rs L / 4``.
    """
    L = params.L
    band_w = abs(params.beta_rs) * L / 4.0
    if width_s is None:
        width_s = pump.tau_p if abs(params.beta_sp) <= EPS_BETA else band_w
    if width_r is None:
        width_r = pump.tau_p if abs(params.beta_rp) <= EPS_BETA else band_w
    if width_r <= 0 or width_s <= 0:
        raise ConfigurationError("basis widths must be positive (is beta_r == beta_s?)")
    c_r_in = pump.center - params.beta_rp * L / 2.0
    c_s_in = pump.center - params.beta_sp * L / 2.0
    return {
        "in_r": BasisSpec(n_r, width_r, c_r_in),
        "in_s": BasisSpec(n_s, width_s, c_s_in),
        "out_r": BasisSpec(n_r, width_r, c_r_in + params.beta_r * L),
        "out_s": BasisSpec(n_s, width_s, c_s_in + params.beta_s * L),
    }


def grid_for_basis(params: RegimeParams, pump: PumpSpec,
                   layout: Dict[str, BasisSpec]) -> TemporalGrid:
    """Covering grid for an assembly: interaction support plus basis tails,
    sampled finely enough for the pump and the highest basis order."""
    edges = []
    dt_req = pump.tau_p / 8.0
    for spec in layout.values():
        edges.extend(spec.extent())
        # quarter of the Nyquist bound of the highest mode
        dt_req = min(dt_req, 0.25 * math.pi * spec.width
                     / math.sqrt(2.0 * spec.n + 1.0))
    return TemporalGrid.for_interaction(params, pump, dt_max=dt_req, extra=edges)


def assemble_gf(
    params: RegimeParams,
    pump: PumpSpec,
    grid: Optional[TemporalGrid] = None,
    n_r: int = 40,
    n_s: int = 40,
    width_r: Optional[float] = None,
    width_s: Optional[float] = None,
    layout: Optional[Dict[str, BasisSpec]] = None,
    tol_leak: float = 1e-2,
    blocks: Sequence[str] = _BLOCKS,
) -> GreenFunction:
    """Assemble the basis-form Green function by propagating test signals.

    The input basis functions of every channel that ``blocks`` read (the
    second letter of each block name) are propagated through the medium in
    one batch and projected onto the r/s output bases: s-channel inputs
    give the columns of ``g_rs`` and ``g_ss``, r-channel inputs those of
    ``g_rr`` and ``g_sr``.  Only the requested blocks, and the basis specs
    they use, are kept; a sweep that reads rs and ss propagates half the
    columns of the full assembly.  Projections use the grid quadrature
    against the (real, orthonormal) output bases.

    Parameters default to the layout of :func:`default_basis_layout`.
    ``tol_leak`` bounds the per-column energy not captured by the output
    bases; exceeding it raises a truncation error naming the worst column.
    The leak check and the ``leak_*`` and ``*_energy_*`` metadata cover the
    propagated columns only (an input side not propagated has empty
    arrays).  Column order is fixed, so the result is bit-reproducible for
    identical inputs, and each block is the same whichever other blocks
    are requested.
    """
    blocks = tuple(blocks)
    if not blocks or any(b not in _BLOCKS for b in blocks):
        raise ConfigurationError(
            f"blocks must be a non-empty subset of {_BLOCKS}, got {blocks!r}")
    inputs = {f"in_{b[1]}" for b in blocks}
    if layout is None:
        layout = default_basis_layout(params, pump, n_r=n_r, n_s=n_s,
                                      width_r=width_r, width_s=width_s)
    if grid is None:
        grid = grid_for_basis(params, pump, layout)
    else:
        lo = min(e for spec in layout.values() for e in spec.extent())
        hi = max(e for spec in layout.values() for e in spec.extent())
        if grid.t_min > lo or grid.t_max < hi:
            raise CoverageError(
                f"grid [{grid.t_min}, {grid.t_max}] does not contain the basis "
                f"tails [{lo:.3g}, {hi:.3g}]"
            )
    dt = grid.dt
    # an input basis no requested block reads contributes no columns
    bases = {k: spec.sample(grid.times) if k in inputs or k.startswith("out_")
             else np.zeros((0, grid.n_t)) for k, spec in layout.items()}
    n_s_in = bases["in_s"].shape[0]

    # one batch: the s-input columns first, then the r-input columns
    zeros_s = np.zeros_like(bases["in_s"])
    zeros_r = np.zeros_like(bases["in_r"])
    out = Propagator(params, pump, grid).run(np.vstack([zeros_s, bases["in_r"]]),
                                             np.vstack([bases["in_s"], zeros_r]))
    proj_r = (out.a_r @ bases["out_r"].T) * dt
    proj_s = (out.a_s @ bases["out_s"].T) * dt
    energy_r = dt * np.sum(np.abs(out.a_r) ** 2, axis=1)
    energy_s = dt * np.sum(np.abs(out.a_s) ** 2, axis=1)
    captured = np.sum(np.abs(proj_r) ** 2, axis=1) + np.sum(np.abs(proj_s) ** 2, axis=1)
    leak = np.maximum(0.0, 1.0 - captured / (energy_r + energy_s))
    leak_s, leak_r = leak[:n_s_in], leak[n_s_in:]

    worst_side, worst_col, worst = _worst_leak(leak_s, leak_r)
    if worst > tol_leak:
        raise TruncationError(
            f"basis truncation: {worst_side}-input column {worst_col} leaks "
            f"{worst:.3e} of its energy past the output bases (tol {tol_leak:g}); "
            f"increase the mode count or widths"
        )

    meta = {
        **_run_metadata("numeric", params, pump),
        "n_t": grid.n_t, "n_z": grid.n_z,
        "t_min": grid.t_min, "t_max": grid.t_max,
        "leak_s": leak_s, "leak_r": leak_r,
        # unprojected per-column output energies: these see the full grid,
        # so their sums estimate the Hilbert-Schmidt weights of the blocks
        # without the output-basis truncation of the coefficient matrices
        "conv_energy_s": energy_r[:n_s_in], "trans_energy_s": energy_s[:n_s_in],
        "conv_energy_r": energy_s[n_s_in:], "trans_energy_r": energy_r[n_s_in:],
    }
    proj = {"r": proj_r, "s": proj_s}
    cols = {"s": slice(None, n_s_in), "r": slice(n_s_in, None)}
    kept = {f"g_{b}": proj[b[0]][cols[b[1]]].T for b in blocks}
    kept.update({f"basis_{side}_{c}": layout[f"{side}_{c}"]
                 for b in blocks for side, c in (("out", b[0]), ("in", b[1]))})
    return GreenFunction(form="basis", grid=grid, metadata=meta, **kept)


def leakage_report(gf: GreenFunction) -> Dict:
    """Per-column projection leakage recorded during assembly."""
    if gf.form != "basis" or "leak_s" not in gf.metadata:
        raise ConfigurationError("leakage is only recorded for numerically assembled GFs")
    leak_s = np.asarray(gf.metadata["leak_s"])
    leak_r = np.asarray(gf.metadata["leak_r"])
    side, col, worst = _worst_leak(leak_s, leak_r)
    return {"s": leak_s, "r": leak_r,
            "max": worst, "worst_side": side, "worst_column": col}


def _worst_leak(leak_s: np.ndarray, leak_r: np.ndarray) -> Tuple[str, int, float]:
    """(side, column, leak) of the leakiest column; ties go to the s side."""
    leak = np.concatenate([leak_s, leak_r])
    idx = int(np.argmax(leak))
    if idx < leak_s.size:
        return "s", idx, float(leak[idx])
    return "r", idx - leak_s.size, float(leak[idx])


def _input_columns(gf: GreenFunction) -> np.ndarray:
    """The basis-form columns of every input channel present (r before s),
    each column its r outputs over its s outputs."""
    if gf.form != "basis":
        raise ConfigurationError(
            "the composite matrix and unitarity are defined for basis form")
    cols = []
    for c in "rs":
        pair = [gf.block(f"r{c}"), gf.block(f"s{c}")]
        present = [m is not None for m in pair]
        if all(present):
            cols.append(np.vstack(pair))
        elif any(present):
            raise ConfigurationError(
                f"the {c}-input columns need both output blocks")
    return np.hstack(cols)


def composite_matrix(gf: GreenFunction) -> np.ndarray:
    """Stack the four basis-form blocks into one (r followed by s) matrix."""
    if any(gf.block(b) is None for b in _BLOCKS):
        raise ConfigurationError("composite matrix needs all four blocks")
    return _input_columns(gf)


def unitarity_defect(gf: GreenFunction) -> float:
    """Normalized Frobenius deviation ``|U^H U - I|_F / sqrt(n)`` over the
    ``n`` input columns present: the composite matrix for all four blocks,
    the stacked rs and ss blocks for an s-input-only assembly."""
    u = _input_columns(gf)
    n = u.shape[1]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n)) / math.sqrt(n))


def to_grid_form(gf: GreenFunction, grid: Optional[TemporalGrid] = None) -> GreenFunction:
    """Synthesize a basis-form Green function onto a time grid.

    ``g(t, t') = sum_kl B_out_k(t) c_kl B_in_l(t')`` per block.  The result
    has no delta descriptors: for a numerically assembled operator the
    transmitted part is already inside the coefficients.
    """
    if gf.form != "basis":
        return gf
    if grid is None:
        grid = gf.grid
    if grid is None:
        raise ConfigurationError("no grid available for synthesis")
    t = grid.times
    # only the bases of the blocks present: a partial assembly lacks the rest
    samples = {key: spec.sample(t) for key in
               ("in_r", "in_s", "out_r", "out_s")
               if (spec := getattr(gf, f"basis_{key}")) is not None}
    blocks = {}
    for b in _BLOCKS:
        m = gf.block(b)
        if m is None:
            blocks[f"g_{b}"] = None
            continue
        blocks[f"g_{b}"] = samples[f"out_{b[0]}"].T @ m @ samples[f"in_{b[1]}"]
    meta = dict(gf.metadata)
    meta["synthesized_from"] = "basis"
    return GreenFunction(form="grid", t_out=t, t_in=t, metadata=meta,
                         **_read_only(blocks))
