"""Parameter sweeps over conversion configurations.

A sweep point is one (params, pump) configuration evaluated end to end:
build the Green function with the requested engine, decompose it, record
the leading Schmidt data.  Axes iterate in row-major order of their
declaration.  Points are independent, so a process pool may compute them
out of order; records are always gathered back by point index, keeping
every downstream artifact order-deterministic.
"""

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, RegimeError, TmfcError
from ..model import (
    EPS_BETA,
    PumpSpec,
    RegimeParams,
    TemporalGrid,
    conversion_support,
)
from ..gf_analytic import default_ssvm_grids, sample_low_ce, ssvm_gf
from ..gf_numeric import assemble_gf
from ..schmidt import decompose, shape_fidelity

AXIS_NAMES = ("gamma_bar", "tau_p", "beta_p", "beta_r", "beta_rs_L")
ENGINES = ("numeric", "analytic-ssvm", "low-ce")
BASIS_KEYS = ("n_r", "n_s", "width_r", "width_s", "tol_leak")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: base configuration, axes, engine, and requested outputs.

    Axis names:
        gamma_bar   dimensionless coupling gamma / beta_rs
        tau_p       pump width
        beta_p      pump slowness
        beta_r      r-channel slowness
        beta_rs_L   total walk-off; realized by scaling L at fixed betas

    The base ``gamma_bar`` is preserved when a beta axis changes the
    walk-off (the coupling gamma is recomputed), matching how the studies
    treat it as the control parameter.
    """

    params: RegimeParams
    pump: PumpSpec
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    engine: str = "numeric"
    n_report: int = 10
    want_modes: bool = False
    want_fidelity: bool = False
    grid: Optional[TemporalGrid] = None
    basis: Optional[Dict[str, float]] = None
    low_ce_n: Optional[int] = None
    low_ce_margin: Optional[float] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if int(self.n_report) < 1:
            raise ConfigurationError("n_report must be at least 1")
        object.__setattr__(self, "n_report", int(self.n_report))
        if self.engine == "low-ce":
            if self.low_ce_n is None:
                object.__setattr__(self, "low_ce_n", 1024)
            if self.low_ce_margin is None:
                object.__setattr__(self, "low_ce_margin", 5.0)
            if int(self.low_ce_n) < 2:
                raise ConfigurationError("low_ce_n must be at least 2")
            if not (math.isfinite(self.low_ce_margin) and self.low_ce_margin > 0):
                raise ConfigurationError("low_ce_margin must be a positive finite number")
        elif self.low_ce_n is not None or self.low_ce_margin is not None:
            raise ConfigurationError(
                f"low_ce_n and low_ce_margin apply to the low-ce engine only, not {self.engine!r}")
        if self.engine != "numeric" and (self.grid is not None or self.basis is not None):
            raise ConfigurationError(
                f"grid and basis apply to the numeric engine only, not {self.engine!r}")
        norm = []
        for entry in self.axes:
            name, values = entry
            if name not in AXIS_NAMES:
                raise ConfigurationError(
                    f"unknown sweep axis {name!r}; expected one of {AXIS_NAMES}")
            vals = tuple(float(v) for v in values)
            if not vals:
                raise ConfigurationError(f"axis {name!r} has no values")
            if not all(math.isfinite(v) for v in vals):
                raise ConfigurationError(f"axis {name!r} has non-finite values")
            norm.append((name, vals))
        object.__setattr__(self, "axes", tuple(norm))
        if self.basis is not None:
            unknown = set(self.basis) - set(BASIS_KEYS)
            if unknown:
                raise ConfigurationError(f"unknown basis keys: {', '.join(sorted(unknown))}")
            object.__setattr__(self, "basis", dict(self.basis))

    def points(self) -> List[Dict[str, float]]:
        """Axis value combinations in row-major order of declaration."""
        names = [name for name, _ in self.axes]
        grids = [values for _, values in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*grids)]

    def point_config(self, values: Dict[str, float]) -> Tuple[RegimeParams, PumpSpec]:
        """Apply one axis-value combination to the base configuration.

        Betas first, then the walk-off length, then the pump width, then
        the coupling; ``gamma_bar`` (base or swept) is realized last so it
        survives beta changes.
        """
        params = self.params
        pump = self.pump
        if "beta_r" in values:
            params = replace(params, beta_r=values["beta_r"])
        if "beta_p" in values:
            params = replace(params, beta_p=values["beta_p"])
        if "beta_rs_L" in values:
            if abs(params.beta_rs) <= EPS_BETA:
                raise RegimeError("beta_rs_L axis needs beta_r != beta_s")
            params = replace(params, L=values["beta_rs_L"] / params.beta_rs)
        if "tau_p" in values:
            pump = replace(pump, tau_p=values["tau_p"])
        if "gamma_bar" in values:
            params = params.with_gamma_bar(values["gamma_bar"])
        elif abs(params.beta_rs) > EPS_BETA and params is not self.params:
            params = params.with_gamma_bar(self.params.gamma_bar)
        return params, pump


@dataclass
class SweepResult:
    """Ordered per-point records plus run provenance.

    ``records`` hold only plain scalars/lists so exports serialize them
    directly; timestamps and wall time live in ``provenance`` to keep the
    records byte-deterministic between runs.
    """

    spec: SweepSpec
    records: List[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def _gf_for_point(spec: SweepSpec, params: RegimeParams, pump: PumpSpec):
    """The Green function of one point, holding only the blocks its record
    reads.  Every engine supplies the rs block, which gives the Schmidt
    values and modes.  The numeric engine also assembles ss, which pairs
    tau, so it propagates the s-input columns alone; no record reads the
    r-input columns (rr, sr), so those are neither propagated nor
    leak-checked.  The analytic engines sample the rs block alone, as a
    :class:`~tmfc.gf_numeric.WeightedRs`, so no complex block is built."""
    if spec.engine == "numeric":
        return assemble_gf(params, pump, grid=spec.grid, blocks=("rs", "ss"),
                           **(spec.basis or {}))
    if spec.engine == "analytic-ssvm":
        if abs(params.beta_sp) > EPS_BETA:
            raise RegimeError(
                "analytic-ssvm engine requires the s channel matched to the "
                f"pump (beta_sp = {params.beta_sp:g})")
        return ssvm_gf(params, pump, *default_ssvm_grids(params, pump), weighted=True)
    (o_lo, o_hi), (i_lo, i_hi) = conversion_support(
        params, pump, margin=spec.low_ce_margin)
    return sample_low_ce(params, pump, np.linspace(o_lo, o_hi, spec.low_ce_n),
                         np.linspace(i_lo, i_hi, spec.low_ce_n), weighted=True)


def evaluate_point(spec: SweepSpec, index: int, values: Dict[str, float]) -> dict:
    """Evaluate one sweep point; failures are captured in the record."""
    record = {"index": index}
    record.update({name: float(v) for name, v in values.items()})
    try:
        params, pump = spec.point_config(values)
        record.update({
            "gamma_bar": _real_if_real(params.gamma_bar)
            if abs(params.beta_rs) > EPS_BETA else float("nan"),
            "tau_p": pump.tau_p,
            "beta_r": params.beta_r,
            "beta_s": params.beta_s,
            "beta_p": params.beta_p,
            "L": params.L,
        })
        gf = _gf_for_point(spec, params, pump)
        res = decompose(gf, n_report=spec.n_report,
                        want_modes=spec.want_modes or spec.want_fidelity)
        n = spec.n_report
        record.update(rho=[float(x) for x in res.rho[:n]],
                      ce=[float(x) for x in res.ce[:n]],
                      selectivity=float(res.selectivity),
                      separability=float(res.separability), error="")
        if spec.want_fidelity:
            record["fidelity"] = [
                float(shape_fidelity(res.modes_in_s[k], res.modes_out_r[k],
                                     res.dt_in, res.dt_out))
                for k in range(min(3, len(res.rho)))
            ]
        if spec.want_modes:
            record["modes"] = {
                "t_in": [float(x) for x in res.t_in],
                "t_out": [float(x) for x in res.t_out],
                "in_s": _mode_lists(res.modes_in_s),
                "out_r": _mode_lists(res.modes_out_r),
            }
    except (TmfcError, np.linalg.LinAlgError) as exc:
        record.setdefault("gamma_bar", float("nan"))
        record.update(rho=[], ce=[], selectivity=float("nan"),
                      separability=float("nan"),
                      error=f"{type(exc).__name__}: {exc}")
    return record


def _real_if_real(x) -> float:
    x = complex(x)
    return x.real if x.imag == 0 else abs(x)


def _mode_lists(modes) -> List[List[List[float]]]:
    return [[[float(v.real), float(v.imag)] for v in m] for m in modes]


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, or ``None`` where numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def _set_blas_threads(n: int) -> Optional[int]:
    """Set numpy's BLAS to ``n`` threads; the old count (``None``: no setter)."""
    lib = _openblas()
    if lib is None:
        return None
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(n)
    return before


@contextlib.contextmanager
def _single_blas_thread():
    """One BLAS thread for the body; yields 1, or ``None`` without a setter."""
    before = _set_blas_threads(1)
    try:
        yield None if before is None else 1
    finally:
        if before is not None:
            _set_blas_threads(before)


# the process's worker pool and its size; a forked child starts without one
_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0
_in_pool_worker = False


def _drop_pool(shutdown: bool = True) -> None:
    """Forget the process's pool, shutting it down if there is one.

    Its workers are killed before the shutdown rather than asked to
    leave: one that died or hung while it waited on the call queue holds
    the queue's lock, so the others could never read the request and the
    shutdown would wait for them forever."""
    global _pool, _pool_size
    pool, _pool, _pool_size = _pool, None, 0
    if shutdown and pool is not None:
        for proc in list((pool._processes or {}).values()):
            if proc.is_alive():
                proc.kill()
        pool.shutdown()


os.register_at_fork(after_in_child=functools.partial(_drop_pool, shutdown=False))
# the exit hooks run in reverse order, so this one runs before the one
# concurrent.futures registered on import, which shuts pools down gracefully
threading._register_atexit(_drop_pool)


def _worker_pool(size: int) -> Tuple[ProcessPoolExecutor, bool]:
    """The process's pool of ``size`` workers, and whether it was just made.

    A pool of another size is dropped first.  The workers fork from a
    ``forkserver`` that preloads this module and ``scipy.special``."""
    global _pool, _pool_size
    if _pool is not None and _pool_size == size:
        return _pool, False
    _drop_pool()
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload([__name__, "scipy.special"])
    _pool = ProcessPoolExecutor(max_workers=size, mp_context=ctx,
                                initializer=_init_worker)
    _pool_size = size
    return _pool, True


def _pooled_records(spec: SweepSpec, points: List[Dict[str, float]],
                    size: int) -> List[dict]:
    """The sweep's records from the process's pool.  A reused pool that
    turns out broken (a worker died since the last sweep) is rebuilt and
    the sweep run once more; a new pool that breaks raises."""
    while True:
        pool, new = _worker_pool(size)
        try:
            return list(pool.map(evaluate_point, itertools.repeat(spec),
                                 range(len(points)), points))
        except BrokenProcessPool:
            _drop_pool()
            if new:
                raise


def _init_worker() -> None:
    """Pool initializer: one BLAS thread, and no OpenBLAS thread pool, which
    the setter restarts after a fork and whose idle thread spins before it
    sleeps.  A worker that calls :func:`run_sweep` runs it serially."""
    global _in_pool_worker
    _in_pool_worker = True
    if _set_blas_threads(1) and hasattr(_openblas(), "blas_thread_shutdown_"):
        _openblas().blas_thread_shutdown_()


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run every sweep point and gather records in point order.

    ``workers > 1`` fans the points over a process pool of at most
    ``workers`` processes, one per point and per CPU available.  Per-point
    failures are recorded in-row and do not stop the sweep.  Every point
    runs with one BLAS thread (the caller's count is restored on return),
    so pooled records equal serial ones bit for bit; where numpy's BLAS has
    no known thread setter nothing is set.  The provenance records the
    requested ``workers``, the ``workers_used`` and ``blas_threads`` (1, or
    ``None`` without a setter).

    The workers fork from a ``forkserver`` that preloads this module (and
    with it numpy and tmfc) and ``scipy.special``, which the analytic
    kernels call, so each is imported once per process.  A script that
    calls ``run_sweep(workers > 1)`` needs an ``if __name__ == "__main__":``
    guard, because the workers import its main module.

    A process keeps one pool.  The first pooled sweep starts it, and later
    sweeps of the same size run in the same workers; a sweep of another
    size replaces it.  A reused pool found broken (a worker died since the
    last sweep) is rebuilt and the sweep run again, and the interpreter's
    exit shuts the pool down.  Idle workers keep their memory: about 48 MB
    resident each after the ``numeric-ssvm-pool`` points of perfbench, and
    58 MB after a fig6 sweep (2-CPU x86-64 VM, numpy 2.4).  A pool worker
    runs any sweep it calls serially.
    """
    if int(workers) < 1:
        raise ConfigurationError("workers must be a positive integer")
    points = spec.points()
    t0 = time.time()
    used = 1 if _in_pool_worker else max(1, min(int(workers), len(points),
                                                 _available_cpus()))
    with _single_blas_thread() as blas_threads:
        if used == 1:
            records = [evaluate_point(spec, i, values)
                       for i, values in enumerate(points)]
        else:
            records = _pooled_records(spec, points, used)
    from .. import __version__

    provenance = {
        "engine": spec.engine,
        "version": __version__,
        "n_points": len(points),
        "workers": int(workers),
        "workers_used": used,
        "blas_threads": blas_threads,
        "wall_time_s": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if spec.grid is not None:
        provenance["grid"] = asdict(spec.grid)
    if spec.basis:
        provenance["basis"] = dict(spec.basis)
    if spec.engine == "low-ce":
        provenance["low_ce"] = {"n": spec.low_ce_n, "margin": spec.low_ce_margin}
    return SweepResult(spec=spec, records=records, provenance=provenance)
