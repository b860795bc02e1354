"""Sweep driver, exports, the GF container, cases, and the CLI."""

import importlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import tmfc
from tmfc import (
    ConfigurationError,
    DataError,
    GreenFunction,
    Propagator,
    PumpSpec,
    QuadraticChirp,
    RegimeParams,
    TemporalGrid,
    conversion_support,
    decompose,
    default_ssvm_grids,
    sample_low_ce,
    shape_fidelity,
    ssvm_gf,
)
from tmfc.gf_numeric import assemble_gf
from tmfc.harness import sweep as sweep_module
from tmfc.harness import (
    SweepResult,
    SweepSpec,
    case_ids,
    cases,
    export_csv,
    export_json,
    import_json,
    load_gf,
    reproduce,
    run_sweep,
    save_gf,
)
from tmfc.harness.cli import main, spec_from_config
from tmfc.harness.gfio import FORMAT_LINE

BASE = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
PUMP = PumpSpec(tau_p=1.0)


def _tiny_spec(**over):
    kwargs = dict(params=BASE, pump=PUMP, engine="low-ce", n_report=3,
                  low_ce_n=128,
                  axes=(("gamma_bar", (0.01, 0.02)),))
    kwargs.update(over)
    return SweepSpec(**kwargs)


@pytest.mark.parametrize("package", ["tmfc", "tmfc.harness"])
def test_public_exports_resolve(package):
    """Every name in ``__all__`` resolves, so a removal leaves no stale
    export behind."""
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_sweep_spec_validation():
    with pytest.raises(ConfigurationError):
        _tiny_spec(engine="exact")
    with pytest.raises(ConfigurationError):
        _tiny_spec(axes=(("beta_s", (0.0, 1.0)),))
    with pytest.raises(ConfigurationError):
        _tiny_spec(axes=(("tau_p", ()),))
    with pytest.raises(ConfigurationError):
        _tiny_spec(n_report=0)
    for bad in ({"low_ce_n": 1}, {"low_ce_margin": 0.0},
                {"low_ce_margin": -1.0}, {"low_ce_margin": float("nan")},
                {"low_ce_margin": float("inf")}):
        with pytest.raises(ConfigurationError):
            _tiny_spec(**bad)
    # grid and basis reach only the numeric engine
    for engine in ("analytic-ssvm", "low-ce"):
        for bad in ({"grid": TemporalGrid(-5.0, 5.0, 64, 10)}, {"basis": {"n_rr": 10}}):
            with pytest.raises(ConfigurationError, match="numeric engine only"):
                SweepSpec(params=BASE, pump=PUMP, engine=engine, **bad)
    with pytest.raises(ConfigurationError, match="numeric engine only"):
        replace(cases.low_ce_spec("fig3a"), basis={"n_rr": 10},
                grid=TemporalGrid(-5.0, 5.0, 64, 10))
    # the low-ce grid settings reach only the low-ce engine
    for engine in ("numeric", "analytic-ssvm"):
        for bad in ({"low_ce_n": 128}, {"low_ce_margin": 5.0}):
            with pytest.raises(ConfigurationError, match="low-ce engine only"):
                SweepSpec(params=BASE, pump=PUMP, engine=engine, **bad)


def test_points_row_major():
    spec = _tiny_spec(axes=(("gamma_bar", (0.5, 1.0)),
                            ("tau_p", (1.0, 2.0, 3.0))))
    pts = spec.points()
    assert len(pts) == 6
    assert pts[0] == {"gamma_bar": 0.5, "tau_p": 1.0}
    assert pts[2] == {"gamma_bar": 0.5, "tau_p": 3.0}
    assert pts[3] == {"gamma_bar": 1.0, "tau_p": 1.0}


def test_point_config_axes():
    spec = _tiny_spec()
    p, _ = spec.point_config({"beta_rs_L": 2.5})
    assert np.isclose(p.beta_rs * p.L, 2.5)
    assert np.isclose(p.gamma_bar, 0.01)
    # a beta change keeps gamma_bar by recomputing gamma
    p, _ = spec.point_config({"beta_r": 3.0})
    assert np.isclose(p.beta_rs, 4.0)
    assert np.isclose(p.gamma_bar, 0.01)
    _, pump = spec.point_config({"tau_p": 0.3})
    assert pump.tau_p == 0.3
    p, _ = spec.point_config({"gamma_bar": 1.2, "beta_r": 2.0})
    assert np.isclose(p.gamma_bar, 1.2)


def test_run_sweep_records():
    spec = _tiny_spec()
    result = run_sweep(spec)
    assert len(result.records) == 2
    for i, rec in enumerate(result.records):
        assert rec["index"] == i
        assert rec["error"] == ""
        assert len(rec["rho"]) == 3
        assert len(rec["ce"]) == 3
        assert np.isclose(rec["ce"][0], rec["rho"][0] ** 2)
        assert 0.0 < rec["separability"] <= 1.0
    assert np.isclose(result.records[0]["gamma_bar"], 0.01)
    assert np.isclose(result.records[1]["gamma_bar"], 0.02)
    # weak-conversion selectivity scales as gamma_bar^2
    s0 = result.records[0]["selectivity"]
    s1 = result.records[1]["selectivity"]
    assert np.isclose(s1 / s0, 4.0, rtol=1e-6)
    assert result.provenance["engine"] == "low-ce"
    assert result.provenance["n_points"] == 2


def test_run_sweep_captures_point_failures():
    spec = _tiny_spec(axes=(("beta_r", (1.0, -1.0)),))
    result = run_sweep(spec)
    good, bad = result.records
    assert good["error"] == ""
    assert len(good["rho"]) == 3
    assert bad["error"].startswith("RegimeError")
    assert bad["rho"] == []
    assert math.isnan(bad["selectivity"])


def test_run_sweep_workers_match_serial():
    spec = _tiny_spec()
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert serial.records == parallel.records


@pytest.mark.parametrize("engine", ["analytic-ssvm", "low-ce"])
def test_analytic_sweep_records_match_full_block_gf(engine):
    """Analytic sweeps sample the rs block alone; their records equal those
    of the Green function with every block sampled."""
    if engine == "analytic-ssvm":
        base = RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0,
                            L=2.0).with_gamma_bar(0.8)
        spec = SweepSpec(params=base, pump=PUMP, engine=engine, n_report=3)
        params, pump = spec.point_config({})
        gf = ssvm_gf(params, pump, *default_ssvm_grids(params, pump))
    else:
        spec = _tiny_spec(axes=())
        params, pump = spec.point_config({})
        (o_lo, o_hi), (i_lo, i_hi) = conversion_support(
            params, pump, margin=spec.low_ce_margin)
        gf = sample_low_ce(params, pump, np.linspace(o_lo, o_hi, spec.low_ce_n),
                           np.linspace(i_lo, i_hi, spec.low_ce_n))
    (rec,) = run_sweep(spec).records
    res = decompose(gf, n_report=3, want_modes=False)
    assert rec["error"] == ""
    assert rec["rho"] == [float(x) for x in res.rho]
    assert rec["selectivity"] == res.selectivity
    assert rec["separability"] == res.separability


@pytest.mark.parametrize("spec", [
    replace(cases.fig6_spec(), axes=(("gamma_bar", (0.6, 1.1, 2.0)),), want_fidelity=True),
    replace(cases.low_ce_spec("table1-b"), want_modes=True),
], ids=["fig6-fidelity", "table1-b-modes"])
def test_analytic_sweep_modes_and_fidelity_records(tmp_path, spec):
    """The modes and fidelity records of an analytic sweep equal those of
    the complex rs block sampled on the same grids, decomposed with one
    BLAS thread as sweeps are, and a JSON export reads them back."""
    result = run_sweep(spec)
    for values, rec in zip(spec.points(), result.records):
        params, pump = spec.point_config(values)
        if spec.engine == "analytic-ssvm":
            grids = default_ssvm_grids(params, pump)
            gf = ssvm_gf(params, pump, *grids, blocks=("rs",))
        else:
            (o_lo, o_hi), (i_lo, i_hi) = conversion_support(
                params, pump, margin=spec.low_ce_margin)
            gf = sample_low_ce(params, pump, np.linspace(o_lo, o_hi, spec.low_ce_n),
                               np.linspace(i_lo, i_hi, spec.low_ce_n), blocks=("rs",))
        with sweep_module._single_blas_thread():
            res = decompose(gf, n_report=spec.n_report, want_modes=True)
        assert rec["error"] == ""
        assert rec["rho"] == [float(x) for x in res.rho]
        fidelity = [float(shape_fidelity(res.modes_in_s[k], res.modes_out_r[k],
                                         res.dt_in, res.dt_out)) for k in range(3)]
        assert rec.get("fidelity") == (fidelity if spec.want_fidelity else None)
        modes = {"t_in": [float(x) for x in gf.t_in], "t_out": [float(x) for x in gf.t_out],
                 **{side: [[[float(v.real), float(v.imag)] for v in m]
                           for m in getattr(res, f"modes_{side}")]
                    for side in ("in_s", "out_r")}}
        assert rec.get("modes") == (modes if spec.want_modes else None)
    path = tmp_path / "sweep.json"
    export_json(result, str(path))
    assert import_json(str(path))["records"] == result.records


NUMERIC = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.5)
SMALL_BASIS = {"n_r": 10, "n_s": 8, "tol_leak": 0.05}


def test_numeric_sweep_propagates_s_inputs(monkeypatch):
    """A numeric point propagates the s-input columns alone, and its record
    equals the decomposition of the four-block Green function."""
    spec = SweepSpec(params=NUMERIC, pump=PUMP, engine="numeric", n_report=3,
                     basis=SMALL_BASIS, want_fidelity=True)
    rows = []
    run = Propagator.run

    def spying_run(self, a_r, a_s):
        rows.append(np.shape(a_r)[0])
        return run(self, a_r, a_s)

    monkeypatch.setattr(Propagator, "run", spying_run)
    (rec,) = run_sweep(spec).records
    assert rows == [SMALL_BASIS["n_s"]]
    gf = assemble_gf(NUMERIC, PUMP, **SMALL_BASIS)
    res = decompose(gf, n_report=3, want_modes=True)
    assert rec["error"] == ""
    assert rec["rho"] == [float(x) for x in res.rho]
    assert rec["ce"] == [float(x) for x in res.ce]
    assert rec["selectivity"] == res.selectivity
    assert rec["separability"] == res.separability
    assert rec["fidelity"] == [
        float(shape_fidelity(res.modes_in_s[k], res.modes_out_r[k],
                             res.dt_in, res.dt_out)) for k in range(3)]


class _SpyPool:
    """Stands in for the process pool: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers, mp_context=None, initializer=None,
                 initargs=()):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, cpus, n_points, used", [
    (8, 3, 5, 3), (8, 4, 2, 2), (2, 4, 5, 2), (4, 1, 5, 1)])
def test_run_sweep_caps_pool_size(monkeypatch, workers, cpus, n_points, used):
    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.setattr(sweep_module.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(_SpyPool, "sizes", [])
    gammas = tuple(0.01 * (k + 1) for k in range(n_points))
    result = run_sweep(_tiny_spec(axes=(("gamma_bar", gammas),)),
                       workers=workers)
    assert _SpyPool.sizes == ([used] if used > 1 else [])
    assert result.provenance["workers"] == workers
    assert result.provenance["workers_used"] == used
    assert [r["index"] for r in result.records] == list(range(n_points))


def test_run_sweep_cpu_count_fallback(monkeypatch):
    """Without CPU affinity the pool is capped by the CPU count."""
    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.delattr(sweep_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_SpyPool, "sizes", [])
    gammas = (0.01, 0.02, 0.03)
    result = run_sweep(_tiny_spec(axes=(("gamma_bar", gammas),)), workers=3)
    assert _SpyPool.sizes == [2]
    assert result.provenance["workers_used"] == 2


_BLAS_PROBE = """
import multiprocessing, sys
from concurrent.futures import ProcessPoolExecutor
from tmfc import PumpSpec, RegimeParams
from tmfc.harness import SweepSpec, sweep

GETTER = ("__import__('tmfc.harness.sweep').harness.sweep._openblas()"
          ".scipy_openblas_get_num_threads64_()")
# the worker's OS threads: OpenBLAS's idle pool is stopped
TASKS = ("len(__import__('os').listdir('/proc/self/task')) "
         "if __import__('os').path.isdir('/proc/self/task') else 1")

class ProbePool(ProcessPoolExecutor):
    def map(self, fn, *iterables):
        print(self.submit(eval, GETTER).result(timeout=60))
        print(self.submit(eval, TASKS).result(timeout=60))
        return super().map(fn, *iterables)

if sys.argv[1] == "prestarted":
    # another component starts the forkserver, without the preload
    ctx = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(1, mp_context=ctx) as pool:
        pool.submit(int).result(timeout=60)
sweep.ProcessPoolExecutor = ProbePool
sweep._available_cpus = lambda: 2
params = RegimeParams(beta_r=1.0, beta_s=-1.0, beta_p=1.0).with_gamma_bar(0.01)
spec = SweepSpec(params=params, pump=PumpSpec(tau_p=1.0), engine="low-ce",
                 n_report=3, low_ce_n=128, axes=(("gamma_bar", (0.01, 0.02)),))
print(sweep.run_sweep(spec, workers=2).provenance["blas_threads"])
"""

needs_blas_setter = pytest.mark.skipif(
    sweep_module._openblas() is None,
    reason="numpy's BLAS has no known thread setter")


def _probe_pool_threads(before, forkserver):
    """Run a pooled sweep in a fresh process whose ``OPENBLAS_NUM_THREADS``
    is ``before`` (``None``: unset); the BLAS thread count a pool worker
    reads through the getter, the worker's thread count, and the sweep's
    ``blas_threads``."""
    src = os.path.dirname(os.path.dirname(tmfc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if before is not None:
        env["OPENBLAS_NUM_THREADS"] = before
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, forkserver],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@needs_blas_setter
@pytest.mark.parametrize("before", [None, "4"])
def test_run_sweep_pool_starts_with_one_blas_thread(before):
    """A pool worker reads one BLAS thread through the getter and runs no
    idle BLAS thread, whatever the caller's ``OPENBLAS_NUM_THREADS``."""
    assert _probe_pool_threads(before, "fresh") == ["1", "1", "1"]


@needs_blas_setter
def test_pool_workers_run_with_one_blas_thread():
    """A forkserver that another component started first, under
    ``OPENBLAS_NUM_THREADS=4`` and without the preload, still gives the
    sweep's workers one BLAS thread: the pool's initializer sets it."""
    assert _probe_pool_threads("4", "prestarted") == ["1", "1", "1"]


@needs_blas_setter
@pytest.mark.parametrize("caller", [1, 2])
def test_serial_sweep_and_cli_keep_caller_blas_threads(monkeypatch, tmp_path,
                                                       caller):
    """A serial sweep and ``tmfc decompose`` compute with one BLAS thread
    and leave the caller's count as it was."""
    from tmfc.harness import cli

    get = sweep_module._openblas().scipy_openblas_get_num_threads64_
    seen = []

    def spied(fn):
        def call(*args, **kwargs):
            seen.append(get())
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(sweep_module, "evaluate_point",
                        spied(sweep_module.evaluate_point))
    monkeypatch.setattr(cli, "decompose", spied(cli.decompose))
    _, path = _saved_weak_gf(tmp_path)
    original = sweep_module._set_blas_threads(caller)
    try:
        result = run_sweep(_tiny_spec())
        assert get() == caller
        assert main(["decompose", str(path), "--out", str(tmp_path / "d.json")]) == 0
        assert get() == caller
    finally:
        sweep_module._set_blas_threads(original)
    assert seen == [1, 1, 1]
    assert result.provenance["blas_threads"] == 1


def test_run_sweep_without_blas_setter(monkeypatch):
    """Without a known setter nothing is set, the pool still runs, and
    ``blas_threads`` is ``None``."""
    monkeypatch.setattr(sweep_module, "_openblas", lambda: None)
    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.setattr(sweep_module.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(_SpyPool, "sizes", [])
    assert sweep_module._set_blas_threads(1) is None
    for workers in (1, 2):
        result = run_sweep(_tiny_spec(), workers=workers)
        assert result.provenance["blas_threads"] is None
        assert all(r["error"] == "" for r in result.records)
    assert _SpyPool.sizes == [2]


def test_pool_workers_start_with_scipy_special(monkeypatch):
    """The forkserver preloads the Bessel functions, so a new worker has
    them before its first analytic point."""
    monkeypatch.setattr(sweep_module.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    assert run_sweep(_tiny_spec(), workers=2).provenance["workers_used"] == 2
    ctx = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        loaded = pool.submit(eval, "'scipy.special' in __import__('sys').modules")
        assert loaded.result(timeout=60) is True


def test_numeric_engine_runs_without_scipy():
    """Importing tmfc and running a numeric sweep loads no scipy module;
    the first analytic kernel loads ``scipy.special``."""
    code = """
import sys
import numpy as np
import tmfc, tmfc.harness
from tmfc import PumpSpec, RegimeParams, ssvm_gf
from tmfc.harness import SweepSpec, run_sweep

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

spec = SweepSpec(params=RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.5),
                 pump=PumpSpec(tau_p=1.0), engine="numeric", n_report=3,
                 basis={"n_r": 10, "n_s": 8, "tol_leak": 0.05},
                 axes=(("gamma_bar", (0.5,)),))
assert run_sweep(spec).records[0]["error"] == ""
assert scipy_modules() == [], scipy_modules()
t = np.linspace(-3.0, 3.0, 16)
ssvm_gf(spec.params, spec.pump, t, t, blocks=("rs",))
assert "scipy.special" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(tmfc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_pooled_records_match_serial():
    """Pooled records equal the serial ones bit for bit for every engine,
    also on the large fig6 and weak-catalog blocks whose products, QR, SVD
    and eigenvalue routines round with the BLAS thread count: both paths
    compute with one thread."""
    numeric = SweepSpec(params=NUMERIC, pump=PUMP, engine="numeric",
                        n_report=3, basis=SMALL_BASIS,
                        axes=(("gamma_bar", (0.4, 0.6)),))
    fig6 = replace(cases.fig6_spec(), axes=(("gamma_bar", (0.6, 1.1, 1.6)),))
    weak = replace(cases.low_ce_spec("fig3a"), axes=(("gamma_bar", (0.01, 0.02)),))
    for spec in (numeric, fig6, weak):
        serial = run_sweep(spec).records
        pooled = run_sweep(spec, workers=2).records
        assert [r["error"] for r in serial] == [""] * len(serial)
        assert pooled == serial


def test_export_csv_layout(tmp_path):
    spec = _tiny_spec()
    result = run_sweep(spec)
    path = tmp_path / "sweep.csv"
    export_csv(result, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header == ["gamma_bar", "tau_p", "beta_r", "beta_s", "beta_p", "L",
                      "rho_1", "rho_2", "rho_3", "ce_1", "ce_2", "ce_3",
                      "selectivity", "separability", "error"]
    row = lines[1].split(",")
    assert float(row[0]) == 0.01
    assert np.isclose(float(row[6]), result.records[0]["rho"][0], rtol=1e-11)
    # 12 significant digits in the text form
    assert row[6] == "%.12g" % result.records[0]["rho"][0]


def test_export_csv_empty_result(tmp_path):
    result = SweepResult(spec=_tiny_spec(), records=[])
    path = tmp_path / "empty.csv"
    export_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("gamma_bar,")


def test_export_json_roundtrip(tmp_path):
    spec = _tiny_spec()
    result = run_sweep(spec)
    path = tmp_path / "sweep.json"
    export_json(result, str(path))
    payload = import_json(str(path))
    assert payload["records"] == result.records
    assert payload["spec"]["engine"] == "low-ce"
    assert payload["spec"]["axes"] == [["gamma_bar", [0.01, 0.02]]]
    assert payload["provenance"]["n_points"] == 2


def test_csv_bytes_deterministic(tmp_path):
    spec = _tiny_spec()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(run_sweep(spec), str(p1))
    export_csv(run_sweep(spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_gf_container_grid_roundtrip(tmp_path):
    t_out = np.linspace(-4.0, 6.0, 257)
    t_in = np.linspace(-5.0, 5.0, 241)
    gf = sample_low_ce(BASE, PUMP, t_out, t_in)
    path = tmp_path / "weak.gf"
    save_gf(gf, str(path))
    assert path.read_text(errors="replace").splitlines()[0] == FORMAT_LINE
    back = load_gf(str(path))
    assert back.form == "grid"
    assert np.array_equal(back.g_rs, gf.g_rs)
    assert np.array_equal(back.t_out, gf.t_out)
    assert back.delta_rr.delay == gf.delta_rr.delay
    assert back.metadata["engine"] == gf.metadata["engine"]
    a = decompose(gf, want_modes=False)
    b = decompose(back, want_modes=False)
    assert np.array_equal(a.rho, b.rho)


def test_gf_container_basis_roundtrip(tmp_path):
    params = RegimeParams(beta_r=1.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(0.5)
    gf = assemble_gf(params, PUMP, n_r=10, n_s=10, tol_leak=0.05)
    path = tmp_path / "basis.gf"
    save_gf(gf, str(path))
    back = load_gf(str(path))
    assert back.form == "basis"
    for name in ("g_rr", "g_rs", "g_sr", "g_ss"):
        assert np.array_equal(getattr(back, name), getattr(gf, name))
    assert back.basis_in_s == gf.basis_in_s
    a = decompose(gf, want_modes=False)
    b = decompose(back, want_modes=False)
    assert np.array_equal(a.rho, b.rho)
    assert a.sum_rho_sq == b.sum_rho_sq


def test_gf_container_partial_basis_roundtrip(tmp_path):
    """A basis-form function without r-input columns keeps only the basis
    specs it uses, through the container and the CLI."""
    gf = assemble_gf(NUMERIC, PUMP, n_r=10, n_s=10, tol_leak=0.05,
                     blocks=("rs", "ss"))
    path = tmp_path / "s_inputs.gf"
    save_gf(gf, str(path))
    back = load_gf(str(path))
    assert back.g_rr is None and back.g_sr is None
    assert back.basis_in_r is None and back.basis_in_s == gf.basis_in_s
    assert np.array_equal(back.g_rs, gf.g_rs)
    assert np.array_equal(back.g_ss, gf.g_ss)
    assert back.metadata["leak_r"].size == 0
    assert np.array_equal(back.metadata["conv_energy_s"],
                          gf.metadata["conv_energy_s"])
    rs_only = GreenFunction(form="basis", g_rs=gf.g_rs,
                            basis_out_r=gf.basis_out_r, basis_in_s=gf.basis_in_s)
    save_gf(rs_only, str(tmp_path / "rs.gf"))
    assert np.array_equal(load_gf(str(tmp_path / "rs.gf")).g_rs, gf.g_rs)
    out = tmp_path / "dec.json"
    assert main(["decompose", str(path), "--out", str(out),
                 "--n-report", "4"]) == 0
    payload = json.loads(out.read_text())
    ref = decompose(gf, n_report=4, want_modes=False)
    assert payload["rho"] == [float(x) for x in ref.rho]
    assert payload["sum_rho_sq"] == ref.sum_rho_sq
    assert payload["tau_source"] == "gss"


def test_gf_container_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.gf"
    path.write_bytes(b"NOT-A-GF 9\nend\n")
    with pytest.raises(DataError):
        load_gf(str(path))


def _saved_weak_gf(tmp_path, drop=None):
    """Save a small weak-conversion grid GF; ``drop`` names a header key
    whose line is removed from the saved container."""
    t = np.linspace(-6.0, 6.0, 200)
    gf = sample_low_ce(BASE, PUMP, t, t)
    path = tmp_path / "weak.gf"
    save_gf(gf, str(path))
    if drop is not None:
        head, sep, payload = path.read_bytes().partition(b"\nend\n")
        lines = head.split(b"\n")
        kept = [ln for ln in lines if not ln.startswith(drop.encode() + b" = ")]
        assert len(kept) == len(lines) - 1
        path.write_bytes(b"\n".join(kept) + sep + payload)
    return gf, path


@pytest.mark.parametrize("key", ["form", "blocks", "n_out", "n_in", "shape_g_rs"])
def test_gf_container_rejects_missing_header_key(tmp_path, key):
    _, path = _saved_weak_gf(tmp_path, drop=key)
    with pytest.raises(DataError) as err:
        load_gf(str(path))
    assert str(err.value) == f"{path}: container header lacks '{key}'"


def _malformed_gf(tmp_path, fault):
    """A saved weak GF whose ``blocks`` line drops g_sr while its shape line
    and payload stay, or with bytes appended after the payload."""
    _, path = _saved_weak_gf(tmp_path)
    data = path.read_bytes()
    if fault == "unlisted block":
        assert b"\nblocks = g_rs,g_sr\n" in data
        path.write_bytes(data.replace(b"\nblocks = g_rs,g_sr\n",
                                      b"\nblocks = g_rs\n", 1))
        return path, f"{path}: container header has 'shape_g_sr' for a block " \
            "its 'blocks' line does not list"
    path.write_bytes(data + bytes(400))
    return path, f"{path}: 400 bytes follow the container payload"


@pytest.mark.parametrize("fault", ["unlisted block", "trailing bytes"])
def test_gf_container_rejects_malformed_payload(tmp_path, fault):
    path, message = _malformed_gf(tmp_path, fault)
    with pytest.raises(DataError) as err:
        load_gf(str(path))
    assert str(err.value) == message


@pytest.mark.parametrize("key", ["form", "n_in", "shape_g_rs", "meta.engine"])
def test_gf_container_rejects_repeated_header_key(tmp_path, key):
    _, path = _saved_weak_gf(tmp_path)
    head, sep, payload = path.read_bytes().partition(b"\nend\n")
    line = next(ln for ln in head.split(b"\n") if ln.startswith(key.encode() + b" = "))
    path.write_bytes(head + b"\n" + line + sep + payload)
    with pytest.raises(DataError) as err:
        load_gf(str(path))
    assert str(err.value) == f"{path}: container header repeats '{key}'"
    assert main(["decompose", str(path)]) == 2


def _traced_peak(fn):
    """Peak traced allocation of ``fn()`` in bytes, and its result or error."""
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        try:
            out = fn()
        except DataError as exc:
            out = exc
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_gf_container_load_holds_one_copy(tmp_path):
    """Loading a 16 MB container allocates little beyond the blocks it
    returns, and trailing bytes are counted without being read."""
    t = np.linspace(-1.0, 1.0, 1024)
    block = np.random.default_rng(3).standard_normal((1024, 2048)).view(complex)
    path = tmp_path / "big.gf"
    save_gf(GreenFunction(form="grid", g_rs=block, t_out=t, t_in=t), str(path))
    payload = block.nbytes + 2 * t.nbytes
    peak, back = _traced_peak(lambda: load_gf(str(path)))
    assert np.array_equal(back.g_rs, block)
    assert peak <= 1.25 * payload
    with open(path, "ab") as fh:
        fh.write(bytes(block.nbytes))
    peak, err = _traced_peak(lambda: load_gf(str(path)))
    assert str(err) == f"{path}: {block.nbytes} bytes follow the container payload"
    assert peak <= 1.25 * payload


def test_reproduce_unknown_case():
    with pytest.raises(ConfigurationError) as err:
        reproduce("fig99")
    assert "table1-a" in str(err.value)


def test_reproduce_ecop_limit():
    assert "ecop-limit" in case_ids()
    payload, report = reproduce("ecop-limit")
    assert report.passed
    assert report.lines()[0] == "ecop-limit: PASS"
    assert all(c.ok for c in report.checks)


def test_reproduce_ssvm_limit_exact():
    payload, report = reproduce("ssvm-limit-exact")
    assert report.passed
    assert abs(payload["s_star"] - 0.829644) <= 1e-5
    assert abs(payload["gamma_bar_star"] - 1.1272) <= 1e-3
    assert any("0.829644" in n and "1.1272" in n for n in report.notes)


def test_reproduce_fig6():
    result, report = reproduce("fig6")
    assert report.passed
    assert len(result.records) == 25
    assert [c.name for c in report.checks] == ["peak selectivity", "peak location"]


def test_refined_peak_vertex_and_edge():
    """The parabola vertex of an exact parabola is found from three points;
    a peak on the sweep edge or records with errors are handled."""
    records = [{"gamma_bar": g, "selectivity": 0.8 - (g - 1.13) ** 2, "error": ""}
               for g in (0.9, 1.0, 1.1, 1.2, 1.3)]
    records.insert(2, {"gamma_bar": 1.05, "error": "TruncationError"})
    loc, peak = cases._refined_peak(records)
    assert math.isclose(loc, 1.13) and math.isclose(peak, 0.8)
    with pytest.raises(ConfigurationError):
        cases._refined_peak(records[:2])


def test_check_detail_reports_tolerance_share():
    rel = cases._rel_check("x", 1.0199, 1.0, 0.02)
    assert rel.ok and rel.detail.endswith("(tol 0.02, 99.5 % used)")
    over = cases._abs_check("y", 0.5, 0.2, 0.1)
    assert not over.ok and over.detail.endswith("(tol 0.1, 300.0 % used)")
    # the hand-written checks of two cases carry the same tail
    bounded = {"chirp-invariance": ["spectrum invariance"],
               "ecop-limit": ["band integral identity g=0.5", "band integral identity g=2",
                              "band integral identity g=10", "solver vs closed form"]}
    for case_id, names in bounded.items():
        _, report = reproduce(case_id)
        details = {c.name: c.detail for c in report.checks}
        for name in names:
            assert re.search(r"\(tol [0-9.e+-]+, [0-9.]+ % used\)$", details[name]), name


def _write_config(tmp_path):
    cfg = """
params:
  beta_r: 1.0
  beta_s: -1.0
  beta_p: 1.0
  gamma_bar: 0.01
pump:
  tau_p: 1.0
engine: low-ce
low_ce:
  n: 128
n_report: 3
axes:
  - name: gamma_bar
    values: [0.01, 0.02]
"""
    path = tmp_path / "sweep.yaml"
    path.write_text(cfg)
    return path


def test_cli_run(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(["run", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("gamma_bar,")


def test_cli_run_matches_library(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "cli.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lib = tmp_path / "lib.csv"
    export_csv(run_sweep(_tiny_spec()), str(lib))
    assert out.read_bytes() == lib.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_run_stdout_matches_out_file(tmp_path, capsysbinary, fmt):
    cfg = _write_config(tmp_path)
    out = tmp_path / f"sweep.{fmt}"
    assert main(["run", str(cfg), "--format", fmt, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(["run", str(cfg), "--format", fmt]) == 0
    printed = capsysbinary.readouterr().out
    if fmt == "json":
        # only the provenance (timestamps, wall time) differs between runs
        printed, written = json.loads(printed), json.loads(out.read_bytes())
        del printed["provenance"], written["provenance"]
        assert printed == written
    else:
        assert printed == out.read_bytes()
        assert printed.count(b"\r\n") == 3


_PARAMS_LINE = "params: {beta_r: 1.0, beta_s: -1.0, beta_p: 1.0, gamma_bar: 0.01}\n"


@pytest.mark.parametrize("section, line, key", [
    ("top-level", "engnie: analytic-ssvm", "engnie"),
    ("params", "params: {beta_r: 1.0, beta_s: 0.0, beta_p: 0.0, gama: 1.0}", "gama"),
    ("pump", "pump: {tau: 0.1}", "tau"),
    ("grid", "grid: {t_min: -5.0, t_max: 5.0, nt: 64}", "nt"),
    ("low_ce", "low_ce: {num: 64}", "num"),
    ("basis", "basis: {n_rr: 10}", "n_rr"),
    ("axes entry", "axes: [{name: gamma_bar, value: [0.5]}]", "value"),
])
def test_cli_run_rejects_unknown_config_key(tmp_path, capsys, section, line, key):
    """A misspelt key is a configuration error naming the key, not a run
    with the default in its place."""
    cfg = tmp_path / "typo.yaml"
    cfg.write_text(line + "\n" if section == "params" else _PARAMS_LINE + line + "\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: unknown {section} keys: {key}\n"


@pytest.mark.parametrize("line", ["basis: 5", "basis: [n_r, 4]"])
def test_cli_run_rejects_non_mapping_basis(tmp_path, capsys, line):
    cfg = tmp_path / "basis.yaml"
    cfg.write_text(_PARAMS_LINE + line + "\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: config basis must be a mapping\n"


def test_spec_from_config_builds_chirped_and_tabulated_pumps():
    params = {"beta_r": 1.0, "beta_s": -1.0, "beta_p": 1.0, "gamma_bar": 0.01}
    chirped = spec_from_config(
        {"params": params, "pump": {"tau_p": 0.5, "chirp": {"quadratic": 2.5}}}).pump
    assert chirped == PumpSpec(tau_p=0.5, chirp=QuadraticChirp(2.5))
    times, values = [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]
    tabulated = spec_from_config({"params": params, "pump": {
        "shape": "custom-tabulated", "center": 0.5, "table": [times, values]}}).pump
    ref = PumpSpec(shape="custom-tabulated", center=0.5,
                   table=(np.array(times), np.array(values)))
    assert (tabulated.shape, tabulated.center) == (ref.shape, ref.center)
    assert all(np.array_equal(a, b) for a, b in zip(tabulated.table, ref.table))


@pytest.mark.parametrize("low_ce, message", [
    ("{n: 1}", "low_ce_n must be at least 2"),
    ("{margin: -1}", "low_ce_margin must be a positive finite number"),
    ("{margin: 0}", "low_ce_margin must be a positive finite number"),
])
def test_cli_run_rejects_bad_low_ce_grid(tmp_path, capsys, low_ce, message):
    cfg = tmp_path / "low_ce.yaml"
    cfg.write_text(_PARAMS_LINE + f"engine: low-ce\nlow_ce: {low_ce}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("lines, message", [
    ("engine: analytic-ssvm\ngrid: {t_min: -5.0, t_max: 5.0, n_t: 64, n_z: 10}",
     "grid and basis apply to the numeric engine only, not 'analytic-ssvm'"),
    ("engine: low-ce\nbasis: {n_rr: 10}",
     "grid and basis apply to the numeric engine only, not 'low-ce'"),
    ("engine: analytic-ssvm\nlow_ce: {n: 64}",
     "low_ce_n and low_ce_margin apply to the low-ce engine only, not 'analytic-ssvm'"),
    ("low_ce: {margin: 3}",
     "low_ce_n and low_ce_margin apply to the low-ce engine only, not 'numeric'"),
], ids=["ssvm-grid", "low-ce-basis", "ssvm-low-ce", "numeric-low-ce"])
def test_cli_run_rejects_settings_the_engine_ignores(tmp_path, capsys, lines, message):
    """A section the chosen engine never reads is a configuration error,
    not a run that copies it into the provenance."""
    cfg = tmp_path / "ignored.yaml"
    cfg.write_text(_PARAMS_LINE + lines + "\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("verb", ["run", "reproduce"])
def test_cli_out_directory_exits_config(tmp_path, capsys, verb):
    args = (["run", str(_write_config(tmp_path))] if verb == "run"
            else ["reproduce", "ssvm-limit-exact"])
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_cli_reproduce_unknown_exits_config(capsys):
    code = main(["reproduce", "no-such-case"])
    assert code == 2
    assert "no-such-case" in capsys.readouterr().err


def test_cli_reproduce_writes_json_report(tmp_path, capsys):
    """Every check's ``ok`` reaches the report file as a JSON boolean."""
    out = tmp_path / "report.json"
    assert main(["reproduce", "table1-a", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    oks = [c["ok"] for r in reports for c in r["checks"]]
    assert oks and all(ok is True for ok in oks)


def test_cli_decompose_missing_file(capsys):
    assert main(["decompose", "/no/such/file.gf"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_decompose_saved_gf(tmp_path, capsys):
    gf, path = _saved_weak_gf(tmp_path)
    out = tmp_path / "dec.json"
    code = main(["decompose", str(path), "--out", str(out), "--n-report", "4"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["rho"]) == 4
    assert payload["tau_source"] == "unitarity"
    ref = decompose(gf, n_report=4, want_modes=False)
    assert np.allclose(payload["rho"], ref.rho)
    assert np.isclose(payload["selectivity"], ref.selectivity)


def test_cli_decompose_csv_matches_json(tmp_path, capsys):
    """The CSV row holds the JSON output's values at 12 significant digits."""
    _, path = _saved_weak_gf(tmp_path)
    assert main(["decompose", str(path), "--n-report", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["decompose", str(path), "--n-report", "3", "--format", "csv"]) == 0
    header, row, end = capsys.readouterr().out.split("\n")
    assert header.split(",") == ["rho_1", "rho_2", "rho_3", "ce_1", "ce_2", "ce_3",
                                 "selectivity", "separability"]
    assert row.split(",") == ["%.12g" % v for v in payload["rho"] + payload["ce"]
                              + [payload["selectivity"], payload["separability"]]]
    assert end == ""


@pytest.mark.parametrize("n_report", ["0", "-3"])
def test_cli_decompose_rejects_nonpositive_n_report(tmp_path, capsys, n_report):
    _, path = _saved_weak_gf(tmp_path)
    assert main(["decompose", str(path), "--n-report", n_report]) == 2
    assert capsys.readouterr().err.startswith("error: n_report must be >= 1")


def test_cli_decompose_container_without_form(tmp_path, capsys):
    _, path = _saved_weak_gf(tmp_path, drop="form")
    assert main(["decompose", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: container header lacks 'form'\n"


@pytest.mark.parametrize("fault", ["unlisted block", "trailing bytes"])
def test_cli_decompose_rejects_malformed_payload(tmp_path, capsys, fault):
    path, message = _malformed_gf(tmp_path, fault)
    assert main(["decompose", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _session_members(sid: int):
    """Pids of the live processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # exited meanwhile
            continue
        # after the command name: state, ppid, pgrp, session
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_cli_run_pooled_through_entry_point(tmp_path):
    """``python -m tmfc.harness.cli run --workers 2`` writes the bytes of the
    serial run, and neither the forkserver nor a worker outlives it."""
    cfg = tmp_path / "numeric.yaml"
    cfg.write_text("""
params: {beta_r: 1.0, beta_s: 0.0, beta_p: 0.0, gamma_bar: 0.5}
pump: {tau_p: 1.0}
engine: numeric
basis: {n_r: 10, n_s: 8, tol_leak: 0.05}
n_report: 3
axes:
  - name: gamma_bar
    values: [0.4, 0.6]
""")
    src = os.path.dirname(os.path.dirname(tmfc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    written = {}
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "tmfc.harness.cli", "run", str(cfg),
             "--out", str(out), "--workers", workers],
            env=env, start_new_session=True)
        assert proc.wait(timeout=300) == 0
        written[workers] = out.read_bytes()
        # the server and the workers leave when the command's pipes close
        deadline = time.monotonic() + 30.0
        while _session_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session_members(proc.pid) == []
    assert written["2"] == written["1"]
    assert written["1"].count(b"\r\n") == 3
