"""Command-line entry point.

Verbs:
    run <config>         run a sweep described by a YAML config file
    reproduce <case|all> run pre-registered cases and report pass/fail
    decompose <gf-file>  Schmidt-decompose a stored Green function

Exit codes: 0 success, 1 reproduction-tolerance failure, 2 configuration
error, 3 numerical failure.
"""

import argparse
import json
import sys
from typing import Tuple

import numpy as np
import yaml

from ..errors import (
    ConfigurationError,
    DataError,
    NumericalError,
    TmfcError,
)
from ..model import PumpSpec, QuadraticChirp, RegimeParams, TemporalGrid
from ..schmidt import decompose
from .cases import CaseReport, case_ids, reproduce
from .gfio import _sink, export_result, load_gf
from .sweep import BASIS_KEYS, SweepSpec, _single_blas_thread, run_sweep

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmfc", description="temporal-mode frequency conversion studies")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("config", help="YAML sweep configuration")
    p_run.add_argument("--out", default=None, help="output path (default stdout)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--workers", type=int, default=1)

    p_rep = sub.add_parser("reproduce", help="run pre-registered cases")
    p_rep.add_argument("case", help="case id or 'all' "
                       f"(known: {', '.join(case_ids())})")
    p_rep.add_argument("--out", default=None, help="write a JSON report here")
    p_rep.add_argument("--workers", type=int, default=1)

    p_dec = sub.add_parser("decompose", help="decompose a stored Green function")
    p_dec.add_argument("gf_file", help="TMFC-GF container path")
    p_dec.add_argument("--out", default=None, help="output path (default stdout)")
    p_dec.add_argument("--format", choices=("csv", "json"), default="json")
    p_dec.add_argument("--n-report", type=int, default=10)
    return parser


# ---------------------------------------------------------------------------
# config parsing


def _require_known(cfg, known: Tuple[str, ...], where: str) -> dict:
    """``cfg`` itself, once it is a mapping with no key outside ``known``."""
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {where} must be a mapping")
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {', '.join(sorted(unknown))}")
    return cfg


def _pump_from_config(cfg: dict) -> PumpSpec:
    _require_known(cfg, ("shape", "tau_p", "center", "chirp", "table"), "pump")
    kwargs = {}
    for key in ("shape", "tau_p", "center"):
        if key in cfg:
            kwargs[key] = cfg[key]
    chirp = cfg.get("chirp")
    if chirp is not None:
        if not (isinstance(chirp, dict) and set(chirp) == {"quadratic"}):
            raise ConfigurationError(
                "config chirp must be a mapping {quadratic: coefficient}")
        kwargs["chirp"] = QuadraticChirp(float(chirp["quadratic"]))
    if "table" in cfg:
        times, values = cfg["table"]
        kwargs["table"] = (np.asarray(times, dtype=float), np.asarray(values))
    return PumpSpec(**kwargs)


def spec_from_config(cfg: dict) -> SweepSpec:
    """Build a sweep from the nested key-value configuration.

    Expected sections: ``params`` (betas, L, and gamma or gamma_bar),
    ``pump``, optional ``axes`` (list of {name, values}), ``engine``, and
    optional ``grid``/``basis`` (numeric) and ``low_ce`` (low-ce) overrides.
    """
    _require_known(cfg, ("params", "pump", "axes", "engine", "grid", "basis",
                         "low_ce", "n_report", "modes", "fidelity"), "top-level")
    if "params" not in cfg:
        raise ConfigurationError("config needs a params section")
    pcfg = dict(_require_known(cfg["params"], ("beta_r", "beta_s", "beta_p", "L",
                                               "gamma", "gamma_bar"), "params"))
    gamma_bar = pcfg.pop("gamma_bar", None)
    params = RegimeParams(
        beta_r=float(pcfg.pop("beta_r")),
        beta_s=float(pcfg.pop("beta_s")),
        beta_p=float(pcfg.pop("beta_p")),
        L=float(pcfg.pop("L", 1.0)),
        gamma=complex(pcfg.pop("gamma", 1.0)),
    )
    if gamma_bar is not None:
        params = params.with_gamma_bar(float(gamma_bar))
    pump = _pump_from_config(cfg.get("pump", {}))
    axes = []
    for axis in cfg.get("axes", []):
        _require_known(axis, ("name", "values"), "axes entry")
        axes.append((axis["name"], tuple(float(v) for v in axis["values"])))
    kwargs = {}
    if "grid" in cfg:
        g = _require_known(cfg["grid"], ("t_min", "t_max", "n_t", "n_z"), "grid")
        kwargs["grid"] = TemporalGrid(
            t_min=float(g["t_min"]), t_max=float(g["t_max"]),
            n_t=g.get("n_t", 1024), n_z=g.get("n_z", 64))
    if "basis" in cfg:
        # another engine's basis is SweepSpec's error, whatever its keys
        kwargs["basis"] = cfg["basis"] if cfg.get("engine", "numeric") != "numeric" \
            else _require_known(cfg["basis"], BASIS_KEYS, "basis")
    low_ce = _require_known(cfg.get("low_ce", {}), ("n", "margin"), "low_ce")
    if "n" in low_ce:
        kwargs["low_ce_n"] = low_ce["n"]
    if "margin" in low_ce:
        kwargs["low_ce_margin"] = float(low_ce["margin"])
    return SweepSpec(
        params=params, pump=pump, axes=tuple(axes),
        engine=cfg.get("engine", "numeric"),
        n_report=cfg.get("n_report", 10),
        want_modes=bool(cfg.get("modes", False)),
        want_fidelity=bool(cfg.get("fidelity", False)),
        **kwargs)


# ---------------------------------------------------------------------------
# verbs


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = yaml.safe_load(fh)
    spec = spec_from_config(cfg)
    result = run_sweep(spec, workers=args.workers)
    export_result(result, args.format, sys.stdout if args.out is None else args.out)
    failures = [r for r in result.records if r["error"]]
    if failures:
        sys.stderr.write(f"{len(failures)} of {len(result.records)} points "
                         "failed; error tags are recorded in-row\n")
    return EXIT_OK


def _report_payload(report: CaseReport) -> dict:
    return {
        "case": report.case_id,
        "passed": report.passed,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in report.checks],
        "notes": list(report.notes),
    }


def _cmd_reproduce(args) -> int:
    ids = case_ids() if args.case == "all" else [args.case]
    reports = []
    for case_id in ids:
        _, report = reproduce(case_id, workers=args.workers)
        reports.append(report)
        for line in report.lines():
            print(line)
    if args.out is not None:
        # encode before opening: a failed encoding must not truncate the file
        text = json.dumps({"reports": [_report_payload(r) for r in reports]},
                          indent=2) + "\n"
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_TOLERANCE


def _cmd_decompose(args) -> int:
    gf = load_gf(args.gf_file)
    res = decompose(gf, n_report=args.n_report, want_modes=False)
    if args.format == "json":
        payload = {
            "rho": [float(x) for x in res.rho],
            "ce": [float(x) for x in res.ce],
            "tau_abs": [float(x) for x in res.tau_abs],
            "selectivity": float(res.selectivity),
            "separability": float(res.separability),
            "sum_rho_sq": float(res.sum_rho_sq),
            "tau_source": res.tau_source,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        n = len(res.rho)
        header = [f"rho_{i + 1}" for i in range(n)] \
            + [f"ce_{i + 1}" for i in range(n)] + ["selectivity", "separability"]
        row = ["%.12g" % v for v in list(res.rho) + list(res.ce)
               + [res.selectivity, res.separability]]
        text = ",".join(header) + "\n" + ",".join(row) + "\n"
    with _sink(sys.stdout if args.out is None else args.out) as fh:
        fh.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config exit code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        with _single_blas_thread():
            if args.verb == "run":
                return _cmd_run(args)
            if args.verb == "reproduce":
                return _cmd_reproduce(args)
            return _cmd_decompose(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except yaml.YAMLError as exc:
        sys.stderr.write(f"error: malformed config: {exc}\n")
        return EXIT_CONFIG
    except (ConfigurationError, DataError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except TmfcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
