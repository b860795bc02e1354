"""Committed snapshots of the sweep record families.

The 49 records of ``fig6_spec(step=0.05)`` and the eight weak-conversion
records of ``low_ce_spec`` are compared with ``tests/data/records.json``,
so a change that is meant to keep every output catches any moved value.

Floats match to a relative 1e-12: a scalar against its own size, a list
(``rho``, ``ce``) against its largest entry.  The same build reproduces
the file exactly; the tolerance leaves room for the last-bit differences
of another BLAS build or CPU.  Everything else must be equal.

The file is written only by running this module::

    PYTHONPATH=src python tests/test_records.py

and only when a change moves records on purpose.  To see what a change
moved without writing anything, run::

    PYTHONPATH=src python tests/test_records.py --check [--rtol R]

which prints, for each family and field, how many records are ``==`` to
the file, the largest relative move and the record that moved most, and
exits with 1 when a move exceeds ``R`` (default 1e-12).

``--full`` works on a second file, ``tests/data/records_full.json``,
instead: the 11 numeric records of the velocity-matched short-pump sweep
over ``POOL_GAMMAS``, serial and at ``workers=2``, the 32 ``scup-opt``
records and the ``tmfc reproduce all --out`` JSON report, one record per
case.  These take about half a minute, so no test reads them.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

import pytest

from tmfc import PumpSpec, RegimeParams
from tmfc.harness import SweepSpec
from tmfc.harness.cases import fig6_spec, low_ce_spec, scup_opt_spec
from tmfc.harness.cli import main
from tmfc.harness.sweep import _single_blas_thread, run_sweep

DATA = os.path.join(os.path.dirname(__file__), "data", "records.json")
DATA_FULL = os.path.join(os.path.dirname(__file__), "data", "records_full.json")
POOL_GAMMAS = tuple(round(0.5 + 0.1 * i, 10) for i in range(11))
WEAK_CASES = ("table1-a", "table1-b", "table1-c", "table1-d",
              "fig2", "fig3a", "fig3b", "fig5")
RTOL = 1e-12


def current_records(fig6=None) -> dict:
    """The first file's families; ``fig6`` is the fig6 sweep if already run."""
    return {
        "fig6": (fig6 or run_sweep(fig6_spec(step=0.05))).records,
        "weak": {c: run_sweep(low_ce_spec(c)).records[0] for c in WEAK_CASES},
    }


def full_records() -> dict:
    """The families of the second file, computed with one BLAS thread."""
    pool = SweepSpec(
        params=RegimeParams(beta_r=2.0, beta_s=0.0, beta_p=0.0).with_gamma_bar(1.0),
        pump=PumpSpec(tau_p=0.1), axes=(("gamma_bar", POOL_GAMMAS),),
        engine="numeric", n_report=8)
    with _single_blas_thread(), tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "reproduce.json")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["reproduce", "all", "--out", report])
        with open(report) as fh:
            reports = json.load(fh)["reports"]
        return {
            "pool": run_sweep(pool).records,
            "pool-2": run_sweep(pool, workers=2).records,
            "scup-opt": run_sweep(scup_opt_spec()).records,
            "reproduce": reports,
        }


def _move(g, w) -> float:
    """Relative move of one field: a float against its own size, a list of
    floats against its largest entry; 0 where every value is equal (NaN to
    NaN), inf for a change of any other field or of a list's length."""
    if isinstance(w, float):
        scale, pairs = abs(w), [(g, w)]
    elif isinstance(w, list) and all(isinstance(v, float) for v in w):
        if len(g) != len(w):
            return math.inf
        scale, pairs = max(map(abs, w), default=0.0), list(zip(g, w))
    else:
        return 0.0 if g == w else math.inf
    move = 0.0
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        d = abs(a - b)
        move = max(move, d / scale) if scale > 0.0 and d == d else math.inf
    return move


def _mismatches(got: dict, want: dict, where: str):
    if set(got) != set(want):
        yield f"{where}: fields {sorted(got)} vs {sorted(want)}"
        return
    for key, w in want.items():
        if not _move(got[key], w) <= RTOL:
            yield f"{where} {key}: {got[key]!r} vs {w!r}"


@pytest.fixture(scope="module")
def snapshot(shared):
    with open(DATA) as fh:
        return json.load(fh), current_records(shared("fig6-fine"))


def test_fig6_records_match_snapshot(snapshot):
    want, got = snapshot
    assert len(got["fig6"]) == len(want["fig6"]) == 49
    problems = [p for i, (g, w) in enumerate(zip(got["fig6"], want["fig6"]))
                for p in _mismatches(g, w, f"fig6[{i}]")]
    assert not problems, problems


def test_weak_records_match_snapshot(snapshot):
    want, got = snapshot
    assert list(want["weak"]) == list(WEAK_CASES)
    problems = [p for c in WEAK_CASES
                for p in _mismatches(got["weak"][c], want["weak"][c], c)]
    assert not problems, problems


def check(rtol: float, full: bool = False) -> int:
    """Print each family's and field's moves against the file (the second
    file for ``full``); 1 when a move exceeds ``rtol`` or the records do
    not line up, else 0."""
    with open(DATA_FULL if full else DATA) as fh:
        want = json.load(fh)

    def indexed(name):
        return [(f"{name}[{i}]", g, w) for i, (g, w) in enumerate(zip(got[name], want[name]))]

    if full:
        got = full_records()
        lined_up = list(got) == list(want) and all(
            len(got[name]) == len(want[name]) for name in want)
        families = {name: indexed(name) for name in want if name in got}
    else:
        got = current_records()
        families = {
            "fig6": indexed("fig6"),
            "weak": [(c, got["weak"][c], want["weak"].get(c)) for c in WEAK_CASES],
        }
        lined_up = len(got["fig6"]) == len(want["fig6"]) and list(want["weak"]) == list(WEAK_CASES)
    if not lined_up or any(set(g) != set(w) for recs in families.values() for _, g, w in recs):
        print("records do not line up with the file: different counts, cases or fields")
        return 1
    worst = 0.0
    width = max(7, max(map(len, families)) + 1)
    print(f"{'family':<{width}}{'field':<14}{'==':>7}  {'largest move':>12}  record")
    for family, recs in families.items():
        for key in recs[0][2]:
            moves = [(_move(g[key], w[key]), where) for where, g, w in recs]
            top, where = max(moves)
            same = sum(m == 0.0 for m, _ in moves)
            print(f"{family:<{width}}{key:<14}{same:>3}/{len(moves):<3}  {top:>12.2g}  "
                  f"{where if top > 0.0 else '-'}")
            worst = max(worst, top)
    print(f"largest move {worst:.2g} against rtol {rtol:g}: "
          f"{'FAIL' if worst > rtol else 'ok'}")
    return 1 if worst > rtol else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it")
    parser.add_argument("--full", action="store_true",
                        help="the second file and its families instead")
    parser.add_argument("--rtol", type=float, default=RTOL,
                        help="largest relative move --check accepts")
    args = parser.parse_args()
    if args.check:
        sys.exit(check(args.rtol, args.full))
    path = DATA_FULL if args.full else DATA
    os.makedirs(os.path.dirname(path), exist_ok=True)
    records = full_records() if args.full else current_records()
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1, allow_nan=True)
        fh.write("\n")
    print(f"wrote {path}: " + ", ".join(f"{len(recs)} {name}" for name, recs in records.items())
          + " records")
