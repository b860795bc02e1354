"""Regenerate ``perfbench/references.json``, the pinned references.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_references.py

For every point of each workload's pool it pins the seed's selectivity,
separability and rho_1..rho_8 (the ``failed_share`` gate), and a
higher-accuracy selectivity ``s_ref`` (for ``sel_err``).  For the weak cases
it also pins every catalog check verdict.  The references:

* ``numeric-ssvm-pool`` and ``analytic-fig6``: the exact kernel ``ssvm_gf``,
  whose sampled selectivity converges at first order in the step, so
  ``s_ref = 2 S(oversample 64) - S(oversample 32)``.
* ``weak-catalog``: likewise ``s_ref = 2 S(2048) - S(1024)`` for the
  ``sample_low_ce`` grid size.

It takes several minutes on two cores.
"""

import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tmfc import __version__  # noqa: E402
from tmfc.gf_analytic import default_ssvm_grids, ssvm_gf  # noqa: E402
from tmfc.harness import cases  # noqa: E402
from tmfc.harness.sweep import evaluate_point  # noqa: E402
from tmfc.schmidt import decompose  # noqa: E402

COMMAND = "PYTHONPATH=src python3 perfbench/make_references.py"
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _pinned(record: dict) -> dict:
    if record["error"]:
        raise RuntimeError(f"reference point failed: {record['error']}")
    return {"selectivity": record["selectivity"],
            "separability": record["separability"], "rho": record["rho"]}


def _s(gf) -> float:
    return decompose(gf, n_report=8, want_modes=False).selectivity


def _ssvm_ref(params, pump) -> dict:
    s = [_s(ssvm_gf(params, pump, *default_ssvm_grids(params, pump, oversample=ov)))
         for ov in (32, 64)]
    return {"s_ref": 2.0 * s[1] - s[0],
            "s_ref_how": "first-order extrapolation over ssvm_gf oversample 32 and 64"}


def sweep_refs(name: str) -> dict:
    spec = workloads.pool_spec(name)
    out = {}
    for values in spec.points():
        key = workloads.point_key(values)
        t0 = time.perf_counter()
        rec = evaluate_point(spec, 0, values)
        entry = _pinned(rec)
        params, pump = spec.point_config(values)
        entry.update(_ssvm_ref(params, pump))
        out[key] = entry
        print(f"{name} {key}: S {entry['selectivity']:.6f} "
              f"S_ref {entry['s_ref']:.6f} ({time.perf_counter() - t0:.1f} s)",
              file=sys.stderr, flush=True)
    return out


def weak_refs() -> dict:
    out = {}
    for case_id in workloads.WEAK_CASES:
        result, report = cases.reproduce(case_id)
        entry = _pinned(result.records[0])
        spec = cases.low_ce_spec(case_id)
        fine = replace(spec, low_ce_n=2 * spec.low_ce_n)
        s_fine = evaluate_point(fine, 0, {})["selectivity"]
        entry["s_ref"] = 2.0 * s_fine - entry["selectivity"]
        entry["s_ref_how"] = (f"first-order extrapolation over low_ce_n "
                              f"{spec.low_ce_n} and {fine.low_ce_n}")
        entry["verdicts"] = workloads.verdicts(report)
        out[case_id] = entry
        print(f"weak-catalog {case_id}: S {entry['selectivity']:.6g} "
              f"passed {report.passed}", file=sys.stderr, flush=True)
    return out


def main() -> None:
    refs = {name: weak_refs() if name == "weak-catalog" else sweep_refs(name)
            for name in workloads.NAMES}
    refs["generated_by"] = COMMAND
    refs["tmfc_version"] = __version__
    refs["numpy_version"] = np.__version__
    with open(PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
