"""Coupled-mode propagation of the two signal channels through the medium.

The equations of motion are first-order advection equations coupled locally
by the (non-depleting, analytically known) pump:

    (d/dz + beta_r d/dt) a_r = i kappa a_s,    kappa = gamma A_p(t - beta_p z)
    (d/dz + beta_s d/dt) a_s = i kappa* a_r

The solver carries ``(a_r, b_s = i a_s)``.  The scheme is symmetrized
operator splitting per z-slice: each channel's advection is applied exactly
in the Fourier domain (a pure phase, hence exactly energy conserving and
dispersion free), and the local two-level coupling across the slice is the
exact rotation for the pump sampled at the slice midpoint::

    a_r' = cos(|kappa| dz) a_r + (kappa / |kappa|) sin(|kappa| dz) b_s
    b_s' = cos(|kappa| dz) b_s - (kappa* / |kappa|) sin(|kappa| dz) a_r

Both sub-steps are unitary to round-off, so energy is conserved for any
step size; the splitting and the midpoint sample make the scheme second
order in dz.

For real ``kappa`` (real ``gamma``, real pump) the rotation is real, so the
real and imaginary input rows propagate apart in real arithmetic; rows
zero in both channels are skipped.  Each live row pair is held as one
complex row ``w = a_r + i b_s``, on which the rotation is one in-place
multiply by ``c - i o`` (formed once for a static pump), because::

    (c - i o)(a + i b) = (c a + o b) + i (c b - o a),   c = cos, o = off

numpy's complex multiply may fuse those products, which moves fields by
round-off only.  The advection shifts ``w.real``, and
``w.imag`` where ``beta_s != 0``, in place with ``rfft`` and ``irfft``
through one preallocated spectrum buffer.  Otherwise (chirp, complex
``gamma``) the same loop runs on separate complex rows with ``fft``.  For
even ``n_t``, ``irfft`` keeps only the real part of the Nyquist bin after
each shift: a round-off-level difference for resolved fields.

The time window is treated as periodic; the grid coverage contract (five
pump widths of margin beyond every exit delay) keeps wrap-around at the
level of Gaussian tails.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError
from .model import FieldState, PumpSpec, RegimeParams, TemporalGrid, eval_pump

_FINITE_CHECK_STRIDE = 16


class Propagator:
    """Reusable propagation engine for one (params, pump, grid) triple.

    Precomputes the spectral shift phases; :meth:`run` evaluates the pump
    coupling ``kappa`` at each slice midpoint as it reaches the slice.  A
    static pump (``beta_p == 0``) has one ``kappa`` for every slice, so
    :meth:`run` computes its rotation once.  :meth:`run`
    takes one envelope per channel or a ``(n_cols, n_t)`` stack of them and
    propagates every row in the same pass (as in Green-function assembly);
    the pass runs in real arithmetic when ``kappa`` is real (module docstring).
    A grid that violates the advection stability bound raises
    :class:`ConfigurationError`; one that does not cover the interaction
    support raises :class:`CoverageError` (``TemporalGrid.require_coverage``).
    """

    def __init__(self, params: RegimeParams, pump: PumpSpec, grid: TemporalGrid):
        grid_dt = grid.dt
        dz = params.L / grid.n_z
        beta_max = max(abs(params.beta_r), abs(params.beta_s), abs(params.beta_p))
        if beta_max * dz > grid_dt * (1.0 + 1e-9):
            raise ConfigurationError(
                f"advection stability violated: dz={dz:.3e} exceeds "
                f"dt/max|beta|={grid_dt / beta_max:.3e}; increase n_z"
            )
        grid.require_coverage(params, pump)
        self.params = params
        self.pump = pump
        self.grid = grid
        self.dz = dz
        self._real = np.imag(params.gamma) == 0 and pump.is_real
        freq = np.fft.rfftfreq if self._real else np.fft.fftfreq
        omega = 2.0 * math.pi * freq(grid.n_t, grid_dt)
        self._half_r = np.exp(-0.5j * omega * params.beta_r * dz)
        self._half_s = np.exp(-0.5j * omega * params.beta_s * dz)
        self._full_r = self._half_r ** 2
        self._full_s = self._half_s ** 2
        self._shift_r = abs(params.beta_r) > 0
        self._shift_s = abs(params.beta_s) > 0
        self._t = grid.times

    def _rotation(self, k: int):
        """``(cos(|kappa| dz), (kappa/|kappa|) sin(|kappa| dz), its conjugate)``
        of the z-slice ``k`` rotation, with ``kappa = gamma A_p`` at the slice
        midpoint; finite as kappa -> 0."""
        z = self.dz * (k + 0.5)
        kappa = self.params.gamma * eval_pump(self.pump, self._t - self.params.beta_p * z)
        theta = np.abs(kappa) * self.dz
        off = self.dz * kappa * np.sinc(theta / math.pi)
        return np.cos(theta), off, np.conj(off)

    def run(self, a_r: np.ndarray, a_s: np.ndarray) -> FieldState:
        """Propagate input envelopes from z=0 to z=L.

        ``a_r`` and ``a_s`` are either single envelopes of shape ``(n_t,)``
        or equal-shape stacks ``(n_cols, n_t)``; the output state has the
        shape of the input.
        """
        a_r = np.array(a_r, dtype=complex)
        a_s = np.array(a_s, dtype=complex)
        if a_r.shape != a_s.shape or a_r.ndim not in (1, 2) \
                or a_r.shape[-1] != self.grid.n_t:
            raise DataError("input envelopes must have equal shapes, (n_t,) or "
                            "(n_cols, n_t), matching the grid length")
        if not (np.all(np.isfinite(a_r.view(float))) and np.all(np.isfinite(a_s.view(float)))):
            raise DataError("input envelopes contain non-finite entries")

        n_t = self.grid.n_t
        couple = self.params.gamma != 0
        static = self.params.beta_p == 0  # every slice shares one rotation
        shape = a_r.shape
        b_s = 1j * a_s
        if self._real:
            # real and imaginary parts evolve apart; all-zero rows stay zero;
            # each live row pair is one complex row w = a_r + i b_s
            rows = np.stack([a_r.real, a_r.imag, b_s.real, b_s.imag]).reshape(2, -1, n_t)
            live = np.flatnonzero(rows.any(axis=(0, 2)))
            w = np.empty((live.size, n_t), dtype=complex)
            w.real, w.imag = rows[:, live]
            a_r, b_s = w.real, w.imag
            spectrum = np.empty((live.size, n_t // 2 + 1), dtype=complex)

            def shift(v, phase):
                np.multiply(np.fft.rfft(v, out=spectrum), phase, out=spectrum)
                return np.fft.irfft(spectrum, n_t, out=v)
        else:
            def shift(v, phase):
                return np.fft.ifft(np.fft.fft(v) * phase)

        if self._shift_r:
            a_r = shift(a_r, self._half_r)
        if self._shift_s:
            b_s = shift(b_s, self._half_s)

        for k in range(self.grid.n_z):
            if couple:
                if k == 0 or not static:
                    cos, off, off_conj = self._rotation(k)
                    if self._real:
                        turn = cos - 1j * off
                if self._real:
                    w *= turn
                else:
                    a_r, b_s = cos * a_r + off * b_s, cos * b_s - off_conj * a_r
            last = k == self.grid.n_z - 1
            if self._shift_r:
                a_r = shift(a_r, self._half_r if last else self._full_r)
            if self._shift_s:
                b_s = shift(b_s, self._half_s if last else self._full_s)
            if k % _FINITE_CHECK_STRIDE == 0 or last:
                fields = (w,) if self._real else (a_r, b_s)
                if not all(np.all(np.isfinite(f.view(float))) for f in fields):
                    raise NumericalError(
                        f"numerical blow-up: non-finite field after z-step {k + 1}"
                        f" of {self.grid.n_z}"
                    )
        if self._real:
            rows[:, live] = a_r, b_s  # the other rows are still zero
            parts = rows.reshape((2, 2) + shape)
            a_r, b_s = parts[:, 0] + 1j * parts[:, 1]
        return FieldState(a_r, -1j * b_s, z=self.params.L)


def propagate(params: RegimeParams, pump: PumpSpec, grid: TemporalGrid,
              state: FieldState) -> FieldState:
    """Propagate a z=0 field state to the end of the medium.

    Convenience wrapper around :class:`Propagator` for one-shot use; see the
    module docstring for the scheme.  Raises a configuration error when the
    z-step violates the advection stability bound or the window does not
    cover the interaction support, and a numerical error if the fields stop
    being finite.
    """
    if state.z != 0.0:
        raise ConfigurationError("propagate expects an input state at z=0")
    return Propagator(params, pump, grid).run(state.a_r, state.a_s)


def energy(state: FieldState, grid: TemporalGrid) -> float:
    """Total energy ``dt * sum(|a_r|^2 + |a_s|^2)`` of a field state."""
    a_r = state.a_r
    a_s = state.a_s
    if a_r.shape != (grid.n_t,):
        raise DataError("state does not match the grid length")
    if not (np.all(np.isfinite(a_r.view(float))) and np.all(np.isfinite(a_s.view(float)))):
        raise DataError("field state contains non-finite entries")
    return float(grid.dt * (np.sum(np.abs(a_r) ** 2) + np.sum(np.abs(a_s) ** 2)))
