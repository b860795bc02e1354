"""Closed-form Green functions and limiting-regime solutions.

Three exactly solvable situations are covered:

* the weak-conversion (low-efficiency) kernel, valid to first order in the
  coupling for any group velocities, in time and in frequency form;
* the exact kernel when the s channel co-propagates with the pump
  (single-sideband velocity matched), built from Bessel functions of the
  pump cumulative intensity, and its pump-shape-free short-pump limit;
* the exact single-mode rotation when both converted channels co-propagate
  (extreme co-propagation), where the medium acts as a pointwise
  beamsplitter with mixing angle set by the pump cumulative amplitude.

All kernels follow the convention ``beta_r > beta_s`` and use the
dimensionless coupling ``gamma_bar = gamma / (beta_r - beta_s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    RegimeError,
    UnsupportedConfigurationError,
)
from .model import (
    EPS_BETA,
    FieldState,
    PumpShape,
    PumpSpec,
    RegimeParams,
    TemporalGrid,
    eval_pump,
    pump_cumulative_amplitude,
    pump_cumulative_intensity,
    pump_spectrum,
)
from .gf_numeric import (
    _BLOCKS,
    DeltaLine,
    GreenFunction,
    WeightedRs,
    _read_only,
    _row_blocks,
    _run_metadata,
    _spectral_shift,
)


def _require_real_gamma(params: RegimeParams, what: str) -> float:
    # RegimeParams keeps gamma complex only past a negligible imaginary part
    if isinstance(params.gamma, complex):
        raise UnsupportedConfigurationError(
            f"{what} is derived for a real coupling; got gamma={params.gamma!r}"
        )
    return params.gamma


def band_mask(params: RegimeParams, t, t_prime) -> np.ndarray:
    """Support of the interaction: the input time must lie between the exit
    times of the fast and slow channels, ``t - beta_r L <= t' <= t - beta_s L``.
    Boundaries are included."""
    t = np.asarray(t, dtype=float)
    t_prime = np.asarray(t_prime, dtype=float)
    L = params.L
    return ((t_prime - (t - params.beta_r * L)) >= 0.0) & \
           (((t - params.beta_s * L) - t_prime) >= 0.0)


def _band_blocks(params: RegimeParams, t_out: np.ndarray,
                 t_in: np.ndarray) -> List[Tuple[slice, slice]]:
    """Row blocks (:func:`_row_blocks`) of a sampled kernel, each paired with
    the span of input columns that can meet the band; blocks whose band
    holds no input sample are left out.

    Output times ``t`` of a block reach inputs in
    ``[min t - beta_r L, max t - beta_s L]``.  The span of samples inside
    is found by bisection on ``t_in``, which must be ascending, and padded
    by one sample on each side, so that a kernel whose band test rounds
    differently from :func:`band_mask` still sees every sample its test
    admits.  Every sample outside the spans lies outside the band, where
    the kernels vanish.
    """
    if np.any(np.diff(t_in) < 0.0):
        raise ConfigurationError("input times must be ascending")
    L = params.L
    spans = []
    for rows in _row_blocks(t_out.size, t_in.size):
        tt = t_out[rows]
        lo = int(np.searchsorted(t_in, tt.min() - params.beta_r * L))
        hi = int(np.searchsorted(t_in, tt.max() - params.beta_s * L, side="right"))
        if lo < hi:
            spans.append((rows, slice(max(lo - 1, 0), min(hi + 1, t_in.size))))
    return spans


# ---------------------------------------------------------------------------
# weak-conversion kernel


def low_ce_gf(params: RegimeParams, pump: PumpSpec, t, t_prime,
              block: str = "rs") -> np.ndarray:
    """First-order conversion kernel between bare input and output times.

    ``rs``: the pump is evaluated where the characteristics of the output r
    ray (departing at ``t``) and the input s ray (arriving at ``t'``) cross.
    ``sr`` is its adjoint-negative partner.  The first-order ``rr`` and
    ``ss`` blocks are the pure transmission deltas and are not sampled here;
    requesting them raises an error.
    """
    return 1j * _low_ce_over_i(params, pump, t, t_prime, block)


def _low_ce_over_i(params: RegimeParams, pump: PumpSpec, t, t_prime,
                   block: str) -> np.ndarray:
    """:func:`low_ce_gf` over ``i``, real for a real ``gbar Ap``."""
    if block not in ("rs", "sr"):
        raise ConfigurationError(
            "the weak-conversion kernel has only rs/sr smooth blocks"
        )
    t = np.asarray(t, dtype=float)
    t_prime = np.asarray(t_prime, dtype=float)
    L = params.L
    brs = params.beta_rs
    if abs(brs) <= EPS_BETA:
        raise RegimeError("beta_r and beta_s must differ for a conversion band")
    gbar = params.gamma_bar
    mask = band_mask(params, t, t_prime)
    if block == "rs":
        t_cross = (params.beta_rp * t_prime - params.beta_sp * (t - params.beta_r * L)) / brs
        vals = gbar * eval_pump(pump, t_cross)
    else:
        t_cross = (params.beta_rp * (t - params.beta_s * L) - params.beta_sp * t_prime) / brs
        vals = -np.conj(gbar) * np.conj(eval_pump(pump, t_cross))
    return np.where(mask, vals, 0.0)


def ridge_slope(params: RegimeParams) -> float:
    """Slope ``dt'/dt`` of the pump-center ridge of the weak rs kernel."""
    if abs(params.beta_rp) <= EPS_BETA:
        raise RegimeError("the ridge is vertical when the r channel rides with the pump")
    return params.beta_sp / params.beta_rp


def _over_i_block(shape: Tuple[int, int], dtype, weighted: bool,
                  t_out: np.ndarray, t_in: np.ndarray) -> tuple:
    """Zeroed block for a kernel over ``i``, as ``(block, view, scale)``: a
    band piece is stored by ``piece *= scale; view[rows, cols] = piece``.
    With ``weighted`` the :class:`WeightedRs` block of ``dtype``, weight
    ``sqrt(dt_out dt_in)``, which needs two samples on each axis; else a
    complex block, written through ``.imag`` for a real kernel over ``i``
    and times ``i`` for a complex one."""
    if weighted:
        for name, t in (("output", t_out), ("input", t_in)):
            if t.size < 2:
                raise ConfigurationError(f"a weighted block needs two {name} samples, got {t.size}")
        block = np.zeros(shape, dtype)
        return block, block, math.sqrt(t_out[1] - t_out[0]) * math.sqrt(t_in[1] - t_in[0])
    block = np.zeros(shape, dtype=complex)
    return (block, block.imag, 1.0) if dtype == float else (block, block, 1j)


def _sampled(engine: str, params: RegimeParams, pump: PumpSpec,
             t_out: np.ndarray, t_in: np.ndarray, data: dict,
             weighted: bool, deltas) -> GreenFunction | WeightedRs:
    """A sampler's result: the :class:`WeightedRs` of ``data["g_rs"]`` if
    ``weighted``, else the grid-form :class:`GreenFunction` of the blocks
    in ``data``, handed over read-only, with the unit delta lines of the
    blocks named in ``deltas``."""
    if weighted:
        return WeightedRs(data["g_rs"], t_out, t_in)
    return GreenFunction(
        form="grid", t_out=t_out, t_in=t_in,
        delta_rr=DeltaLine(params.beta_r * params.L) if "rr" in deltas else None,
        delta_ss=DeltaLine(params.beta_s * params.L) if "ss" in deltas else None,
        metadata=_run_metadata(engine, params, pump), **_read_only(data),
    )


def sample_low_ce(params: RegimeParams, pump: PumpSpec,
                  t_out: np.ndarray, t_in: np.ndarray,
                  blocks: Sequence[str] = ("rs", "sr"),
                  weighted: bool = False) -> GreenFunction | WeightedRs:
    """Sample the weak-conversion kernel on rectangular output/input grids.

    The rr/ss blocks are represented by unit delta lines at the free transit
    delays; their first-order smooth parts vanish.

    Samples landing exactly on a band edge carry quadrature weight 1/2
    (trapezoid treatment of the jump).  This does not remove the
    first-order error of the jump: on grids that put the edges on samples,
    singular values still converge at first order in the grid step.
    Fig2's kernel (beta 8, 4, 6, tau_p 0.75) on [0, 14] x [-6, 8], where
    both edges land on samples, reads separability 0.89632, 0.89497 and
    0.89427 at n = 512, 1023 and 2045.

    Each requested block comes from :func:`_over_i_block` and is filled in
    one loop over the :func:`_band_blocks`, which finds the on-edge samples
    once for every block; no temporary spans the full grid and no sample
    outside the band is evaluated.  With ``weighted`` the rs block alone,
    whatever ``blocks`` says, fills a :class:`WeightedRs`, from which
    :func:`~tmfc.schmidt.decompose` reads values and modes, and no complex
    block is built.  ``t_in`` must be ascending.
    """
    t_out = np.asarray(t_out, dtype=float)
    t_in = np.asarray(t_in, dtype=float)
    real = pump.is_real and not isinstance(params.gamma, complex)
    data, views = {}, {}
    for b in ("rs",) if weighted else blocks:
        data[f"g_{b}"], views[b], scale = _over_i_block(
            (t_out.size, t_in.size), float if real else complex, weighted, t_out, t_in)
    steps = [g[1] - g[0] for g in (t_out, t_in) if g.size > 1]
    tol = 1e-6 * min(steps) if steps else 0.0
    L = params.L
    for rows, cols in _band_blocks(params, t_out, t_in):
        tt = t_out[rows, None]
        pp = t_in[None, cols]
        on_edge = (np.abs(pp - (tt - params.beta_r * L)) <= tol) \
            | (np.abs((tt - params.beta_s * L) - pp) <= tol)
        for b, view in views.items():
            piece = _low_ce_over_i(params, pump, tt, pp, b)
            np.multiply(piece, 0.5, out=piece, where=on_edge)
            piece *= scale
            view[rows, cols] = piece
    return _sampled("low-ce", params, pump, t_out, t_in, data, weighted, ("rr", "ss"))


def low_ce_gf_freq(params: RegimeParams, pump: PumpSpec,
                   omega, omega_prime) -> np.ndarray:
    """Weak rs kernel between input and output frequencies.

    Separable product of a pump-spectrum factor in the frequency difference
    and a phase-matching sinc in the weighted mean frequency::

        difference   D  = omega - omega'
        mean         W  = (beta_rp omega - beta_sp omega') / (2 beta_rs)
        G(omega, omega') = i gbar Ap_tilde(D) exp(-i L beta_r D beta_sp / beta_rs)
                           * beta_rs L sinc(W beta_rs L / pi)
                           * exp(i L W (beta_r + beta_s))

    with the transform convention ``f_tilde(omega) = int e^{i omega t} f(t) dt``.
    """
    omega = np.asarray(omega, dtype=float)
    omega_prime = np.asarray(omega_prime, dtype=float)
    brs = params.beta_rs
    if abs(brs) <= EPS_BETA:
        raise RegimeError("beta_r and beta_s must differ for a conversion band")
    L = params.L
    gbar = params.gamma_bar
    diff = omega - omega_prime
    wbar = (params.beta_rp * omega - params.beta_sp * omega_prime) / (2.0 * brs)
    pump_fac = 1j * gbar * pump_spectrum(pump, diff) \
        * np.exp(-1j * L * params.beta_r * diff * params.beta_sp / brs)
    match_fac = brs * L * np.sinc(wbar * brs * L / math.pi) \
        * np.exp(1j * L * wbar * (params.beta_r + params.beta_s))
    return pump_fac * match_fac


# ---------------------------------------------------------------------------
# exact kernel, s channel locked to the pump


@dataclass(frozen=True)
class SSVMKernelParams:
    """Precomputed variables of the velocity-matched exact kernel.

    ``tau``/``tau_prime`` are the pump-frame arrival times of the output and
    input rays, ``xi`` the r-channel walk-through duration, ``eta`` the pump
    intensity accumulated between the two arrival times, and ``mask`` the
    causal support ``tau >= tau_prime``, ``xi >= 0``.  ``tau``/``tau_prime``
    keep their input shapes; the other fields broadcast to ``(n_out, n_in)``.
    """

    tau: np.ndarray
    tau_prime: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    mask: np.ndarray
    x: np.ndarray


def _check_ssvm(params: RegimeParams) -> float:
    if abs(params.beta_sp) > EPS_BETA:
        raise RegimeError(
            "exact kernel needs the s channel to ride with the pump "
            f"(beta_s == beta_p); got beta_sp={params.beta_sp:g}"
        )
    if params.beta_rs <= EPS_BETA:
        raise RegimeError("beta_r must exceed beta_s")
    return _require_real_gamma(params, "the velocity-matched kernel")


def ssvm_kernel_variables(params: RegimeParams, pump: PumpSpec,
                          t, t_prime) -> SSVMKernelParams:
    """:class:`SSVMKernelParams` of broadcasting times; pump terms per axis."""
    _check_ssvm(params)
    t = np.asarray(t, dtype=float)
    tau_prime = np.asarray(t_prime, dtype=float)
    return _kernel_variables(
        params, t, tau_prime,
        pump_cumulative_intensity(pump, t - params.beta_s * params.L),
        pump_cumulative_intensity(pump, tau_prime))


def _kernel_variables(params: RegimeParams, t: np.ndarray, tau_prime: np.ndarray,
                      f_out: np.ndarray, f_in: np.ndarray) -> SSVMKernelParams:
    """:func:`ssvm_kernel_variables` from the pump cumulative intensity
    already sampled at the output arrival times (``f_out``) and at the
    input times (``f_in``), each broadcasting like its time array."""
    L = params.L
    tau = t - params.beta_s * L
    xi = params.beta_r * L - t + tau_prime
    eta = np.asarray(f_out - f_in)
    np.maximum(eta, 0.0, out=eta)
    # tau >= tau' is tau - tau' >= 0 for finite times, without the difference
    mask = (tau >= tau_prime) & (xi >= 0.0)
    x = np.asarray(eta * xi)
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    x *= 2.0 * abs(params.gamma_bar)
    return SSVMKernelParams(tau=tau, tau_prime=tau_prime, xi=xi, eta=eta,
                            mask=mask, x=x)


def _j1_over_x(x: np.ndarray) -> np.ndarray:
    """``2 J1(x) / x``, continuous through x = 0."""
    from scipy import special

    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    out = 2.0 * special.j1(xs) / xs
    return np.where(small, 1.0 - x * x / 8.0, out)


def ssvm_gf(params: RegimeParams, pump: PumpSpec,
            t_out: np.ndarray, t_in: np.ndarray,
            blocks: Sequence[str] = _BLOCKS,
            weighted: bool = False) -> GreenFunction | WeightedRs:
    """Exact Green function when the s channel co-propagates with the pump.

    Smooth parts, with ``x = 2 |gbar| sqrt(eta xi)``::

        G_rs = i gbar Ap(tau') J0(x)
        G_sr = i gbar Ap*(tau) J0(x)
        G_rr = -gbar^2 eta ( 2 J1(x) / x )                  (+ delta at beta_r L)
        G_ss = -gbar^2 xi Ap*(tau) Ap(tau') (2 J1(x) / x)   (+ delta at beta_s L)

    A complex pump phase enters only through the explicit amplitude factors;
    the accumulated intensity ``eta`` is phase blind, so chirping the pump
    rotates the s-side functions without changing any conversion magnitude.
    The pump factors and the cumulative intensity are evaluated once per
    axis, the pump factors only when a requested block reads them.  Each
    requested block, rs from :func:`_over_i_block`, is filled in row blocks
    (:func:`_band_blocks`), each against only the input columns that can
    meet the band.  There ``J0(x)`` overwrites the one float buffer of
    ``x``, after ``2 J1(x) / x`` for rr and ss, and becomes ``G_rs / i``
    in place for a real amplitude.  With ``weighted`` only that piece is
    formed, into a :class:`WeightedRs` that gives values and modes, whatever
    ``blocks`` says, and no complex block is built.  ``t_in`` must be
    ascending.
    """
    from scipy import special

    gamma_real = _check_ssvm(params)
    t_out = np.asarray(t_out, dtype=float)
    t_in = np.asarray(t_in, dtype=float)
    tau = t_out[:, None] - params.beta_s * params.L
    tau_prime = t_in[None, :]
    f_out = pump_cumulative_intensity(pump, tau)
    f_in = pump_cumulative_intensity(pump, tau_prime)
    gbar = gamma_real / params.beta_rs
    need = {"rs"} if weighted else set(blocks)
    ap_in = eval_pump(pump, tau_prime) if need & {"rs", "ss"} else None
    ap_out_c = np.conj(eval_pump(pump, tau)) if need & {"sr", "ss"} else None
    gap = gbar * ap_in if "rs" in need else None
    shape = (t_out.size, t_in.size)
    data = {f"g_{b}": np.zeros(shape, dtype=complex) for b in _BLOCKS
            if b in need and b != "rs"}
    if "rs" in need:
        data["g_rs"], rs_view, scale = _over_i_block(
            shape, np.result_type(gap, float), weighted, t_out, t_in)
    for rows, cols in _band_blocks(params, t_out, t_in):
        kv = _kernel_variables(params, t_out[rows, None], tau_prime[:, cols],
                               f_out[rows], f_in[:, cols])
        j1x = _j1_over_x(kv.x) if need & {"rr", "ss"} else None
        # J0(x) overwrites x, and a real rs piece is then formed in that buffer
        j0 = special.j0(kv.x, out=kv.x) if need & {"rs", "sr"} else None
        if "rr" in need:
            data["g_rr"][rows, cols] = np.where(
                kv.mask, -(gbar ** 2) * kv.eta * j1x, 0.0)
        if "ss" in need:
            data["g_ss"][rows, cols] = np.where(
                kv.mask, -(gbar ** 2) * kv.xi * ap_out_c[rows] * ap_in[:, cols] * j1x,
                0.0)
        if "sr" in need:
            data["g_sr"][rows, cols] = np.where(
                kv.mask, 1j * gbar * ap_out_c[rows] * j0, 0.0)
        if "rs" in need:
            piece = np.multiply(j0, gap[:, cols], out=None if np.iscomplexobj(gap) else j0)
            np.copyto(piece, 0.0, where=~kv.mask)
            piece *= scale
            rs_view[rows, cols] = piece
    return _sampled("analytic-ssvm", params, pump, t_out, t_in, data, weighted, need)


def default_ssvm_grids(params: RegimeParams, pump: PumpSpec,
                       oversample: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Rectangular sampling grids adapted to the velocity-matched kernel.

    Input times only matter across the pump support, taken as eight pump
    widths either side of its center; output times span the image of that
    support under the free transit of either channel.  Both axes share a
    step fine enough for the pump and for the interaction band.
    """
    _check_ssvm(params)
    c = pump.center
    half = 8.0 * pump.tau_p
    dt = min(pump.tau_p / oversample, params.beta_rs * params.L / 64.0)
    lo_in, hi_in = c - half, c + half
    lo_out = lo_in + params.beta_s * params.L
    hi_out = hi_in + params.beta_r * params.L
    n_in = int(math.ceil((hi_in - lo_in) / dt)) + 1
    n_out = int(math.ceil((hi_out - lo_out) / dt)) + 1
    return np.linspace(lo_out, hi_out, n_out), np.linspace(lo_in, hi_in, n_in)


def short_pump_limit(params: RegimeParams,
                     n_nodes: int = 20) -> Tuple[np.ndarray, float]:
    """Schmidt values and selectivity of the rs block as ``tau_p -> 0``.

    On the input side substitute the pump cumulative intensity
    ``u = F(tau') in [0, 1]``: with a square-normalized pump,
    ``h(u) = f(tau') / |Ap(tau')|`` is an isometry and absorbs the
    ``Ap(tau')`` factor of ``G_rs``.  On the output side use the remaining
    walk-off fraction ``v = xi / (beta_rs L) in [0, 1]``.  Once the pump is
    shorter than every other scale, an output ray leaves the pump behind
    (``eta -> 1 - u``, ``xi -> beta_rs L v``) and the block becomes the
    pump-shape-free kernel on the unit square::

        k(v, u) = g J0(2 g sqrt((1 - u) v)),    g = gbar sqrt(beta_rs L)

    the Riemann function of the coupled Goursat problem.  The kernel is
    analytic, so a Gauss-Legendre Nystrom discretization with ``n_nodes``
    per axis converges exponentially (10 digits at 20 nodes near the
    selectivity peak).  Returns ``(rho, S)`` with ``S = rho_1^4 / sum rho^2``.
    """
    from scipy import special

    _check_ssvm(params)
    g = abs(params.gamma_bar) * math.sqrt(params.beta_rs * params.L)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (nodes + 1.0)
    sw = np.sqrt(0.5 * weights)
    kern = g * special.j0(2.0 * g * np.sqrt(np.outer(x, 1.0 - x)))
    rho = np.linalg.svd(sw[:, None] * kern * sw[None, :], compute_uv=False)
    return rho, float(rho[0] ** 4 / np.sum(rho ** 2))


def short_pump_limit_peak(params: RegimeParams) -> Tuple[float, float]:
    """Largest short-pump-limit selectivity over the coupling.

    The limit depends on the coupling only through ``g``; ``S(g)`` is
    unimodal with its peak at ``g = 1.594``, inside the searched
    ``0.5 <= g <= 3``.  Returns ``(S*, gbar*)`` at the walk-off of ``params``.
    """
    from scipy import optimize

    _check_ssvm(params)
    scale = math.sqrt(params.beta_rs * params.L)
    res = optimize.minimize_scalar(
        lambda g: -short_pump_limit(params.with_gamma_bar(g / scale))[1],
        bounds=(0.5, 3.0), method="bounded", options={"xatol": 1e-9})
    return float(-res.fun), float(res.x / scale)


# ---------------------------------------------------------------------------
# extreme co-propagation


def ecop_mixing_angle(params: RegimeParams, pump: PumpSpec, u) -> np.ndarray:
    """Accumulated beamsplitter angle ``P(u)`` at pump-frame exit time ``u``.

    ``P = (gamma / btp) [C(u) - C(u - btp L)]`` with ``C`` the pump
    cumulative amplitude and ``btp = beta_p - beta_r`` the residual pump
    walk-off; as ``btp -> 0`` this tends to ``gamma L Ap(u)``.
    """
    if abs(params.beta_rs) > EPS_BETA:
        raise RegimeError(
            "the co-propagation solution needs beta_r == beta_s; got "
            f"beta_rs={params.beta_rs:g}"
        )
    gamma_real = _require_real_gamma(params, "the co-propagation solution")
    if not pump.is_real:
        raise UnsupportedConfigurationError(
            "the co-propagation rotation is derived for a real pump"
        )
    u = np.asarray(u, dtype=float)
    btp = params.beta_p - params.beta_r
    L = params.L
    if abs(btp) <= EPS_BETA:
        return gamma_real * L * np.real(eval_pump(pump, u))
    upper = pump_cumulative_amplitude(pump, u)
    lower = pump_cumulative_amplitude(pump, u - btp * L)
    return gamma_real / btp * (upper - lower)


def ecop_output(params: RegimeParams, pump: PumpSpec, grid: TemporalGrid,
                state: FieldState) -> FieldState:
    """Exact output when both channels share one group velocity.

    Every temporal slice is rotated independently:
    ``a_r(L, t) = a_r(0, u) cos P + i a_s(0, u) sin P`` with ``u = t - c L``
    the launch time of the slice and ``P`` from :func:`ecop_mixing_angle`.
    Input functions are carried to the output frame with a spectral shift.
    """
    if state.z != 0.0:
        raise ConfigurationError("input state must sit at z = 0")
    if state.a_r.size != grid.n_t:
        raise ConfigurationError("state and grid sizes differ")
    c = params.beta_r
    L = params.L
    t = grid.times
    u = t - c * L
    p = ecop_mixing_angle(params, pump, u)
    a_r0 = _spectral_shift(state.a_r, c * L, grid.dt)
    a_s0 = _spectral_shift(state.a_s, c * L, grid.dt)
    a_r = a_r0 * np.cos(p) + 1j * a_s0 * np.sin(p)
    a_s = a_s0 * np.cos(p) + 1j * a_r0 * np.sin(p)
    return FieldState(a_r=a_r, a_s=a_s, z=L)


def ssvm_to_ecop_limit_check(
    beta_rs_values: Sequence[float] = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3),
) -> List[Tuple[float, float]]:
    """Collapse of the exact-kernel quadrature onto the pointwise rotation.

    With the pump and the s channel at rest (``beta_s = beta_p = 0``) and
    the r channel walking off by ``beta_rs``, the converted output is the
    band integral of ``Ap(t') J0(x) a_s(0, t')``.  As ``beta_rs -> 0`` it
    must approach ``i a_s(t - beta_rs L) sin(gamma L Ap(t - beta_rs L))``.
    The check runs at ``gamma = 1`` with a unit Gaussian pump and a unit
    Gaussian input ``a_s(0, t)``, both centered at 0, on 801 output times
    over [-5, 5] with a 96-node Gauss-Legendre rule per band.  Returns
    ``(beta_rs, relative l2 mismatch)`` rows, in the given order.
    """
    from scipy import special

    pump = PumpSpec(shape=PumpShape.GAUSSIAN, tau_p=1.0)
    t_eval = np.linspace(-5.0, 5.0, 801)
    nodes, weights = np.polynomial.legendre.leggauss(96)

    def a_in(x):
        return math.pi ** -0.25 * np.exp(-0.5 * x * x)

    rows: List[Tuple[float, float]] = []
    for brs in beta_rs_values:
        params = RegimeParams(beta_r=float(brs), beta_s=0.0, beta_p=0.0,
                              gamma=1.0)
        gbar = params.gamma_bar
        L = params.L
        lo = t_eval - brs * L
        hi = t_eval
        mid = 0.5 * (lo + hi)
        rad = 0.5 * (hi - lo)
        tp = mid[:, None] + rad[:, None] * nodes[None, :]
        kv = ssvm_kernel_variables(params, pump, hi[:, None], tp)
        integrand = np.real(eval_pump(pump, tp)) * special.j0(kv.x) * a_in(tp)
        quad = 1j * gbar * (integrand @ weights) * rad
        shift = t_eval - brs * L
        ref = 1j * a_in(shift) * np.sin(L * np.real(eval_pump(pump, shift)))
        err = np.linalg.norm(quad - ref) / np.linalg.norm(ref)
        rows.append((float(brs), float(err)))
    return rows


def ecop_bessel_identity_error(g: float) -> float:
    """Residual of ``g int_0^1 J0(|g| sqrt(u (1-u))) du = 2 sin(g/2)``.

    The identity underlies the collapse of the exact-kernel quadrature onto
    the sine rotation for a flat pump.
    """
    from scipy import integrate, special

    def f(u):
        return special.j0(abs(g) * math.sqrt(u * (1.0 - u)))

    val, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return abs(g * val - 2.0 * math.sin(g / 2.0))


# ---------------------------------------------------------------------------
# chirp handling


@dataclass(frozen=True)
class _ShiftedPhase:
    """Pump phase as a function of absolute time, ``theta(t - center)``."""

    phase: Callable[[np.ndarray], np.ndarray]
    center: float

    def __call__(self, t):
        return self.phase(np.asarray(t, dtype=float) - self.center)


def dechirp_transform(pump: PumpSpec) -> Tuple[PumpSpec, Callable]:
    """Split a chirped pump into a real pump and a phase function.

    Returns ``(real_pump, theta)`` with ``Ap(t) = |Ap|(t) e^{i theta(t)}``.
    Conversion magnitudes of the velocity-matched kernel depend on the pump
    only through ``|Ap|``; the phase reappears as fixed rotations of the
    s-side Schmidt functions.  For an unchirped real pump ``theta`` is zero.
    A complex table is rejected: the modulus of its linear interpolant is
    not the interpolant of the tabulated moduli, so no real table gives
    ``|Ap|``.
    """
    if pump.shape == PumpShape.CUSTOM and np.iscomplexobj(pump.table[1]):
        raise UnsupportedConfigurationError(
            "dechirp_transform needs a real pump table; got complex values")
    if pump.chirp is None:
        return pump, _zero_phase
    return replace(pump, chirp=None), _ShiftedPhase(pump.chirp, pump.center)


def _zero_phase(t):
    return np.zeros_like(np.asarray(t, dtype=float))
