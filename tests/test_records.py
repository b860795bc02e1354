"""Committed snapshot of the cheap record families.

The 49 records of ``fig6_spec(step=0.05)`` and the eight weak-conversion
records of ``low_ce_spec`` are compared with ``tests/data/records.json``,
so a change that is meant to keep every output catches any moved value.

Floats match to a relative 1e-12: a scalar against its own size, a list
(``rho``, ``ce``) against its largest entry.  The same build reproduces
the file exactly; the tolerance leaves room for the last-bit differences
of another BLAS build or CPU.  Everything else must be equal.

The file is written only by running this module::

    PYTHONPATH=src python tests/test_records.py

and only when a change moves records on purpose.
"""

import json
import math
import os

import pytest

from tmfc.harness.cases import fig6_spec, low_ce_spec
from tmfc.harness.sweep import run_sweep

DATA = os.path.join(os.path.dirname(__file__), "data", "records.json")
WEAK_CASES = ("table1-a", "table1-b", "table1-c", "table1-d",
              "fig2", "fig3a", "fig3b", "fig5")
RTOL = 1e-12


def current_records() -> dict:
    return {
        "fig6": run_sweep(fig6_spec(step=0.05)).records,
        "weak": {c: run_sweep(low_ce_spec(c)).records[0] for c in WEAK_CASES},
    }


def _mismatches(got: dict, want: dict, where: str):
    if set(got) != set(want):
        yield f"{where}: fields {sorted(got)} vs {sorted(want)}"
        return
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float):
            scale, pairs = abs(w), [(g, w)]
        elif isinstance(w, list):
            if len(g) != len(w):
                yield f"{where} {key}: length {len(g)} vs {len(w)}"
                continue
            scale, pairs = max(map(abs, w), default=0.0), list(zip(g, w))
        else:
            if g != w:
                yield f"{where} {key}: {g!r} vs {w!r}"
            continue
        for a, b in pairs:
            same_nan = math.isnan(a) and math.isnan(b)
            if not same_nan and not abs(a - b) <= RTOL * scale:
                yield f"{where} {key}: {a!r} vs {b!r}"
                break


@pytest.fixture(scope="module")
def snapshot():
    with open(DATA) as fh:
        return json.load(fh), current_records()


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


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    records = current_records()
    with open(DATA, "w") as fh:
        json.dump(records, fh, indent=1, allow_nan=True)
        fh.write("\n")
    print(f"wrote {DATA}: {len(records['fig6'])} fig6 and "
          f"{len(records['weak'])} weak records")
