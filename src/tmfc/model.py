"""Domain model: pump envelopes, regime parameters, time grids, field states.

Conventions used throughout the package:

* ``beta_r``, ``beta_s``, ``beta_p`` are the group slownesses (inverse group
  velocities) of the two signal channels r, s and of the strong pump p, in a
  frame already co-moving such that only differences matter.
* The medium occupies ``z in [0, L]``; fields are functions of local time t.
* Pump envelopes are square-normalized, ``Int |A_p(t)|^2 dt = 1``, so the
  coupling strength is carried entirely by ``gamma``.
* Channels are labelled so that ``beta_r >= beta_s`` (the r pulse exits last);
  the kernels in :mod:`tmfc.gf_analytic` assume this orientation.

Everything in this module is an immutable value object plus pure functions,
so instances can be shared freely between sweep workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    CoverageError,
    DataError,
    RegimeError,
    ResolutionError,
    UnsupportedConfigurationError,
)

#: Tolerance below which a slowness difference counts as exactly matched.
EPS_BETA = 1e-12

_PI_QUARTER = math.pi ** 0.25


class PumpShape(str, enum.Enum):
    """Supported analytic pump envelope families."""

    GAUSSIAN = "gaussian"
    HERMITE_GAUSS_1 = "hermite-gauss-1"
    CUSTOM = "custom-tabulated"


class RegimeClass(str, enum.Enum):
    """Phase-matching regime taxonomy based on slowness ordering."""

    SSVM = "ssvm"          # single-sided velocity matched: one channel rides with the pump
    SCUP = "scup"          # symmetrically counter-propagating (in the pump frame)
    CUP = "cup"            # counter-propagating signal channels (pump between)
    COP = "cop"            # co-propagating signal channels (pump outside)
    ECOP = "ecop"          # exactly co-propagating signal channels (beta_r == beta_s)
    GENERIC = "generic"


@dataclass(frozen=True)
class QuadraticChirp:
    """Picklable quadratic phase ``theta(t) = coefficient * t**2``.

    Chirp callables must be picklable for multi-process sweeps; a plain
    lambda is not, so the common case gets a small value type.
    """

    coefficient: float

    def __call__(self, t):
        return self.coefficient * np.asarray(t) ** 2


def _as_1d_float(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 2:
        raise ConfigurationError(f"{name} must be a 1-D array with at least 2 entries")
    if not np.all(np.isfinite(arr.real)) or (np.iscomplexobj(arr) and not np.all(np.isfinite(arr.imag))):
        raise DataError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PumpSpec:
    """Square-normalized pump envelope.

    Parameters
    ----------
    shape:
        One of ``gaussian``, ``hermite-gauss-1`` or ``custom-tabulated``.
    tau_p:
        Characteristic width of the envelope (standard Gaussian width for the
        analytic shapes; retained as descriptive metadata for tabulated pumps).
    center:
        Time offset of the envelope peak.
    chirp:
        Optional real phase function ``theta(u)`` applied as ``exp(i*theta(u))``
        with ``u = t - center``.  Does not change ``|A_p|``.
    table:
        For ``custom-tabulated`` pumps only: ``(times, values)`` samples.
        Values are linearly interpolated, zero outside the tabulated range,
        and renormalized to unit square-integral at construction.

    Notes
    -----
    The Gaussian is ``(tau_p^2 pi)^(-1/4) exp(-t^2 / (2 tau_p^2))``; the
    first-order Hermite-Gaussian is the matching odd mode of the same width.
    Both satisfy ``Int |A_p|^2 dt = 1`` exactly.
    """

    shape: str = PumpShape.GAUSSIAN.value
    tau_p: float = 1.0
    center: float = 0.0
    chirp: Optional[Callable] = None
    table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        try:
            shape = PumpShape(self.shape)
        except ValueError as exc:
            raise ConfigurationError(f"unknown pump shape {self.shape!r}") from exc
        object.__setattr__(self, "shape", shape.value)
        if not (np.isfinite(self.tau_p) and self.tau_p > 0):
            raise ConfigurationError("tau_p must be a positive finite number")
        if not np.isfinite(self.center):
            raise ConfigurationError("center must be finite")
        if self.chirp is not None and not callable(self.chirp):
            raise ConfigurationError("chirp must be callable or None")
        if shape is PumpShape.CUSTOM:
            if self.table is None:
                raise ConfigurationError("custom-tabulated pump requires table=(times, values)")
            times = _as_1d_float(self.table[0], "pump table times").astype(float)
            values = np.asarray(self.table[1])
            values = values.astype(complex) if np.iscomplexobj(values) else values.astype(float)
            if values.shape != times.shape:
                raise ConfigurationError("pump table times and values must have equal length")
            if np.any(np.diff(times) <= 0):
                raise ConfigurationError("pump table times must be strictly increasing")
            norm_sq = float(np.sum(_piecewise_linear_sq_segments(times, values)))
            if norm_sq <= 0:
                raise ConfigurationError("pump table is identically zero")
            values = values / math.sqrt(norm_sq)
            times = times.copy()
            times.setflags(write=False)
            values.setflags(write=False)
            object.__setattr__(self, "table", (times, values))
        elif self.table is not None:
            raise ConfigurationError("table is only meaningful for custom-tabulated pumps")

    @property
    def is_real(self) -> bool:
        """True when the envelope is real-valued (no chirp, real table)."""
        if self.chirp is not None:
            return False
        if self.shape == PumpShape.CUSTOM.value:
            return not np.iscomplexobj(self.table[1])
        return True


def _piecewise_linear_sq_segments(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact integral of |linear interpolant|^2 over each table segment:
    ``h/3 (|a|^2 + Re(a* b) + |b|^2)`` for end values ``a``, ``b`` and
    step ``h``."""
    h = np.diff(x)
    a = y[:-1]
    b = y[1:]
    return h / 3.0 * (np.abs(a) ** 2 + (np.conj(a) * b).real + np.abs(b) ** 2)


def eval_pump(pump: PumpSpec, t) -> np.ndarray:
    """Evaluate the pump envelope ``A_p(t)``.

    Vectorized over ``t``.  Returns a real array for real pumps and a complex
    array when a chirp or complex tabulation is present.
    """
    t = np.asarray(t, dtype=float)
    u = t - pump.center
    tau = pump.tau_p
    if pump.shape == PumpShape.GAUSSIAN.value:
        mag = (tau ** 2 * math.pi) ** -0.25 * np.exp(-(u ** 2) / (2.0 * tau ** 2))
    elif pump.shape == PumpShape.HERMITE_GAUSS_1.value:
        x = u / tau
        mag = math.sqrt(2.0) / (_PI_QUARTER * math.sqrt(tau)) * x * np.exp(-0.5 * x ** 2)
    else:
        times, values = pump.table
        if np.iscomplexobj(values):
            mag = np.interp(u, times, values.real, left=0.0, right=0.0).astype(complex)
            mag += 1j * np.interp(u, times, values.imag, left=0.0, right=0.0)
        else:
            mag = np.interp(u, times, values, left=0.0, right=0.0)
    if pump.chirp is not None:
        theta = np.asarray(pump.chirp(u), dtype=float)
        return mag * np.exp(1j * theta)
    return mag


def pump_cumulative_intensity(pump: PumpSpec, t) -> np.ndarray:
    """Cumulative pump power ``Int_{-inf}^{t} |A_p(x)|^2 dx``.

    Closed (error-function) forms for the analytic shapes; exact piecewise
    integration of the squared interpolant for tabulated pumps.  Chirp does
    not enter (it leaves ``|A_p|`` unchanged).
    """
    from scipy.special import erf

    t = np.asarray(t, dtype=float)
    u = t - pump.center
    tau = pump.tau_p
    if pump.shape == PumpShape.GAUSSIAN.value:
        return 0.5 * (1.0 + erf(u / tau))
    if pump.shape == PumpShape.HERMITE_GAUSS_1.value:
        x = u / tau
        return 0.5 * (1.0 + erf(x)) - x * np.exp(-(x ** 2)) / math.sqrt(math.pi)
    times, values = pump.table

    def partial(a, b, h, s):
        return h * (np.abs(a) ** 2 * (s - s ** 2 + s ** 3 / 3.0)
                    + (np.conj(a) * b).real * (s ** 2 - 2.0 * s ** 3 / 3.0)
                    + np.abs(b) ** 2 * s ** 3 / 3.0)

    return _table_cumulative(
        times, values, _piecewise_linear_sq_segments(times, values).real, partial, u)


def _table_cumulative(x: np.ndarray, y: np.ndarray, seg: np.ndarray,
                      partial: Callable, t) -> np.ndarray:
    """Exact integral, from the first table time to ``t``, of a function
    built segment by segment from the table ``(x, y)``: ``seg`` holds each
    segment's whole integral and ``partial(a, b, h, s)`` the integral over
    the first share ``s`` of a segment with end values ``a``, ``b`` and
    step ``h``.  0 before the table, the whole integral after it."""
    nodes = np.concatenate([[0.0], np.cumsum(seg)])
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    h = x[idx + 1] - x[idx]
    s = np.clip((t - x[idx]) / h, 0.0, 1.0)
    out = nodes[idx] + partial(y[idx], y[idx + 1], h, s)
    out = np.where(t >= x[-1], nodes[-1], out)
    return np.where(t < x[0], 0.0, out)


def pump_cumulative_amplitude(pump: PumpSpec, t) -> np.ndarray:
    """Cumulative pump amplitude ``Int_{-inf}^{t} A_p(x) dx`` (real pumps only)."""
    if not pump.is_real:
        raise UnsupportedConfigurationError(
            "cumulative amplitude is only defined for real (unchirped) pumps"
        )
    from scipy.special import erf

    t = np.asarray(t, dtype=float)
    u = t - pump.center
    tau = pump.tau_p
    if pump.shape == PumpShape.GAUSSIAN.value:
        return (
            math.sqrt(tau) * _PI_QUARTER / math.sqrt(2.0)
            * (1.0 + erf(u / (math.sqrt(2.0) * tau)))
        )
    if pump.shape == PumpShape.HERMITE_GAUSS_1.value:
        x = u / tau
        return -math.sqrt(2.0 * tau) / _PI_QUARTER * np.exp(-0.5 * x ** 2)
    times, values = pump.table
    # trapezoid is exact for a linear interpolant
    seg = np.diff(times) * (values[:-1] + values[1:]) / 2.0
    return _table_cumulative(times, values, seg,
                             lambda a, b, h, s: h * (a * s + (b - a) * s ** 2 / 2.0), u)


def pump_spectrum(pump: PumpSpec, omega) -> np.ndarray:
    """Pump spectrum under the convention ``A~_p(w) = Int dt exp(iwt) A_p(t)``.

    Closed forms for the analytic shapes; direct quadrature over the
    tabulated samples otherwise.  Chirped pumps are not supported here (the
    frequency-domain kernel is stated for transform-limited pumps).
    """
    if pump.chirp is not None:
        raise UnsupportedConfigurationError("closed-form spectra require an unchirped pump")
    omega = np.asarray(omega, dtype=float)
    tau = pump.tau_p
    phase = np.exp(1j * omega * pump.center)
    if pump.shape == PumpShape.GAUSSIAN.value:
        return math.sqrt(2.0) * _PI_QUARTER * math.sqrt(tau) * np.exp(-0.5 * (omega * tau) ** 2) * phase
    if pump.shape == PumpShape.HERMITE_GAUSS_1.value:
        return (
            2.0 * _PI_QUARTER * tau ** 1.5 * (1j * omega)
            * np.exp(-0.5 * (omega * tau) ** 2) * phase
        )
    times, values = pump.table
    # Riemann sum over a refined tabulation grid, chunked to bound memory.
    fine_t = np.linspace(times[0], times[-1], 8 * len(times))
    fine_v = eval_pump(replace(pump, chirp=None), fine_t + pump.center)
    dt = fine_t[1] - fine_t[0]
    flat = omega.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    chunk = max(1, 2_000_000 // len(fine_t))
    for i in range(0, len(flat), chunk):
        w = flat[i : i + chunk, None]
        out[i : i + chunk] = np.sum(np.exp(1j * w * fine_t[None, :]) * fine_v[None, :], axis=1) * dt
    return (out * np.exp(1j * flat * pump.center)).reshape(omega.shape)


# ---------------------------------------------------------------------------
# regime parameters


@dataclass(frozen=True)
class RegimeParams:
    """Medium and coupling parameters of one conversion problem.

    ``L`` is the medium length and ``gamma`` the pump-field coupling strength
    (units such that ``gamma * A_p`` is an inverse time per unit length).
    """

    beta_r: float
    beta_s: float
    beta_p: float
    L: float = 1.0
    gamma: complex = 1.0

    def __post_init__(self):
        for name in ("beta_r", "beta_s", "beta_p", "L"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigurationError(f"{name} must be finite")
        if self.L <= 0:
            raise ConfigurationError("L must be positive")
        g = complex(self.gamma)
        if not (np.isfinite(g.real) and np.isfinite(g.imag)):
            raise ConfigurationError("gamma must be finite")
        # a negligible imaginary part (the tolerance of the real-coupling
        # kernels) would only send the solver down its complex path
        negligible = abs(g.imag) <= EPS_BETA * max(1.0, abs(g.real))
        object.__setattr__(self, "gamma", g.real if negligible else g)

    @property
    def beta_rs(self) -> float:
        return self.beta_r - self.beta_s

    @property
    def beta_rp(self) -> float:
        return self.beta_r - self.beta_p

    @property
    def beta_sp(self) -> float:
        return self.beta_s - self.beta_p

    @property
    def gamma_bar(self) -> complex:
        """Dimensionless coupling ``gamma / beta_rs``."""
        if abs(self.beta_rs) <= EPS_BETA:
            raise RegimeError("gamma_bar undefined: beta_r == beta_s")
        g = self.gamma / self.beta_rs
        return g.real if isinstance(g, complex) and g.imag == 0 else g

    def with_gamma_bar(self, gamma_bar: float) -> "RegimeParams":
        """Return a copy whose coupling realizes the given ``gamma_bar``."""
        if abs(self.beta_rs) <= EPS_BETA:
            raise RegimeError("gamma_bar undefined: beta_r == beta_s")
        return replace(self, gamma=gamma_bar * self.beta_rs)


def classify_regime(params: RegimeParams) -> RegimeClass:
    """Classify the slowness configuration.

    Precedence: exactly co-propagating signals first, then single-sided
    velocity matching, then the symmetric counter-propagating special case,
    then the generic counter/co-propagating split by the sign of
    ``beta_sp * beta_rp``.  Invariant under a common shift of all three
    slownesses (only differences enter).  A difference of at most
    ``EPS_BETA`` counts as a match.
    """
    if abs(params.beta_rs) <= EPS_BETA:
        return RegimeClass.ECOP
    s_matched = abs(params.beta_sp) <= EPS_BETA
    r_matched = abs(params.beta_rp) <= EPS_BETA
    if s_matched != r_matched:
        return RegimeClass.SSVM
    if s_matched and r_matched:
        return RegimeClass.GENERIC
    if abs(params.beta_rp + params.beta_sp) <= EPS_BETA:
        return RegimeClass.SCUP
    product = params.beta_rp * params.beta_sp
    if product < 0:
        return RegimeClass.CUP
    if product > 0:
        return RegimeClass.COP
    return RegimeClass.GENERIC


# ---------------------------------------------------------------------------
# grids and fields


def interaction_support(params: RegimeParams, pump: PumpSpec) -> Tuple[float, float]:
    """Conservative time window containing all input/output structure.

    The candidate support points are the exit delays of the two channels,
    the pump transit times, and the channel/pump crossing times; the window
    extends five pump widths beyond their extremes, around the pump center.
    """
    L = params.L
    points = np.array([
        0.0,
        params.beta_s * L,
        params.beta_r * L,
        params.beta_p * L,
        (params.beta_p - params.beta_s) * L,
        (params.beta_p - params.beta_r) * L,
    ]) + pump.center
    m = 5.0 * pump.tau_p
    return float(points.min() - m), float(points.max() + m)


def conversion_support(params: RegimeParams, pump: PumpSpec,
                       margin: float = 5.0
                       ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """Tight supports of the rs conversion block, ``(t_out, t_in)`` intervals.

    An s-channel input launched at ``t'`` crosses the pump inside the medium
    only if ``t'`` lies within ``margin`` pump widths of
    ``pump.center + [0, (beta_p - beta_s) L]``; the r-channel light it
    creates exits within the image interval
    ``pump.center + [beta_p L, beta_r L]`` (interval endpoints sorted).
    """
    L = params.L
    c = pump.center
    m = margin * pump.tau_p
    cross = (params.beta_p - params.beta_s) * L
    t_in = (c + min(0.0, cross) - m, c + max(0.0, cross) + m)
    exit_lo = min(params.beta_r, params.beta_p) * L
    exit_hi = max(params.beta_r, params.beta_p) * L
    t_out = (c + exit_lo - m, c + exit_hi + m)
    return t_out, t_in


def _next_fast_len(n: int) -> int:
    """Smallest integer ``>= n`` with no prime factor above 11, the sizes
    pocketfft transforms fastest; ``scipy.fft.next_fast_len(n)`` returns
    the same."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


@dataclass(frozen=True)
class TemporalGrid:
    """Uniform time grid over ``[t_min, t_max]`` plus a z-step count.

    ``n_t`` points with spacing ``dt = (t_max - t_min) / (n_t - 1)``;
    propagation divides ``[0, L]`` into ``n_z`` slices.
    """

    t_min: float
    t_max: float
    n_t: int = 1024
    n_z: int = 64

    def __post_init__(self):
        if not (np.isfinite(self.t_min) and np.isfinite(self.t_max)):
            raise ConfigurationError("grid bounds must be finite")
        if self.t_max <= self.t_min:
            raise ConfigurationError("t_max must exceed t_min")
        if int(self.n_t) != self.n_t or self.n_t < 2:
            raise ConfigurationError("n_t must be an integer >= 2")
        if int(self.n_z) != self.n_z or self.n_z < 1:
            raise ConfigurationError("n_z must be an integer >= 1")
        object.__setattr__(self, "n_t", int(self.n_t))
        object.__setattr__(self, "n_z", int(self.n_z))

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)

    @property
    def times(self) -> np.ndarray:
        t = np.linspace(self.t_min, self.t_max, self.n_t)
        t.setflags(write=False)
        return t

    def covers(self, params: RegimeParams, pump: PumpSpec) -> bool:
        """Check the coverage contract: window reaches five pump widths
        beyond the earliest and latest free exit delays (0, beta_s L, beta_r L)."""
        L = params.L
        m = 5.0 * pump.tau_p
        lo = min(0.0, params.beta_s * L, params.beta_r * L) + pump.center - m
        hi = max(0.0, params.beta_s * L, params.beta_r * L) + pump.center + m
        return self.t_min <= lo + 1e-12 and self.t_max >= hi - 1e-12

    def require_coverage(self, params: RegimeParams, pump: PumpSpec) -> None:
        if not self.covers(params, pump):
            raise CoverageError(
                f"grid [{self.t_min}, {self.t_max}] does not cover the interaction "
                f"support of beta=({params.beta_r}, {params.beta_s}, {params.beta_p}), "
                f"L={params.L}, tau_p={pump.tau_p} (need 5 pump widths of margin)"
            )

    @classmethod
    def for_interaction(
        cls,
        params: RegimeParams,
        pump: PumpSpec,
        dt_max: Optional[float] = None,
        extra: Sequence[float] = (),
    ) -> "TemporalGrid":
        """Build a grid whose window covers the interaction support.

        ``extra`` lists additional time points the window must contain
        (basis tails, custom input supports).  ``dt_max`` forces a finer
        sampling than the default 1024 points when needed; ``n_z`` is the
        advection stability bound with a safety factor of 2.
        """
        lo, hi = interaction_support(params, pump)
        if len(extra):
            lo = min(lo, float(np.min(extra)))
            hi = max(hi, float(np.max(extra)))
        span = hi - lo
        nt = 1024
        if dt_max is not None:
            nt = max(nt, int(math.ceil(span / dt_max)) + 1)
        nt = _next_fast_len(nt)
        dt = span / (nt - 1)
        beta_max = max(abs(params.beta_r), abs(params.beta_s), abs(params.beta_p))
        nz = max(64, int(math.ceil(2.0 * beta_max * params.L / dt)))
        return cls(lo, hi, nt, nz)


@dataclass(frozen=True)
class FieldState:
    """Complex envelopes of both signal channels at one position ``z``.

    Each channel holds one envelope ``(n_t,)`` or a stack ``(n_cols, n_t)``
    of independent envelopes, as propagated together by the solver.
    """

    a_r: np.ndarray
    a_s: np.ndarray
    z: float = 0.0

    def __post_init__(self):
        a_r = np.asarray(self.a_r, dtype=complex)
        a_s = np.asarray(self.a_s, dtype=complex)
        if a_r.ndim not in (1, 2) or a_s.shape != a_r.shape:
            raise DataError("a_r and a_s must be 1-D or 2-D arrays of equal shape")
        a_r = a_r.copy()
        a_s = a_s.copy()
        a_r.setflags(write=False)
        a_s.setflags(write=False)
        object.__setattr__(self, "a_r", a_r)
        object.__setattr__(self, "a_s", a_s)
        object.__setattr__(self, "z", float(self.z))

    @classmethod
    def zero(cls, grid: TemporalGrid, z: float = 0.0) -> "FieldState":
        empty = np.zeros(grid.n_t, dtype=complex)
        return cls(empty, empty, z)


def hermite_gauss_basis(
    n_modes: int,
    t: np.ndarray,
    width: float = 1.0,
    center: float = 0.0,
) -> np.ndarray:
    """Orthonormal Hermite-Gaussian functions sampled on ``t``.

    Returns an ``(n_modes, len(t))`` array whose rows satisfy
    ``Int B_m(t) B_n(t) dt = delta_mn`` (continuous normalization; the
    discrete sum times ``dt`` reproduces this for well-resolved grids).
    Row 0 is the unit-width-``width`` Gaussian, row 1 the odd first-order
    mode, and so on via the stable three-term recurrence.

    Raises
    ------
    ConfigurationError
        If ``t`` is not a uniform grid.
    ResolutionError
        If the grid spacing cannot resolve the fastest oscillation of the
        highest requested order (Nyquist-style check, 4 samples per period).
    """
    if n_modes < 1:
        raise ConfigurationError("n_modes must be >= 1")
    if width <= 0 or not np.isfinite(width):
        raise ConfigurationError("width must be positive and finite")
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ConfigurationError("t must be a 1-D array with at least 2 points")
    steps = np.diff(t)
    dt = float(np.median(steps))
    if np.max(np.abs(steps - dt)) > 1e-9 * max(dt, 1.0):
        raise ConfigurationError("basis sampling requires a uniform grid")
    k_max = math.sqrt(2.0 * (n_modes - 1) + 1.0) / width
    if dt * k_max > 0.5 * math.pi:
        raise ResolutionError(
            f"grid spacing {dt:.3e} cannot resolve Hermite-Gauss order "
            f"{n_modes - 1} of width {width} (need dt <= {0.5 * math.pi / k_max:.3e})"
        )
    x = (t - center) / width
    out = np.empty((n_modes, t.size), dtype=float)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if n_modes > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, n_modes):
        out[n] = math.sqrt(2.0 / n) * x * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    out /= math.sqrt(width)
    return out
