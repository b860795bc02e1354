"""Persistence: sweep exports (CSV/JSON) and the Green-function container.

The GF container is a text header followed by a raw binary payload.  The
header starts with the format line ``TMFC-GF 1`` and lists one
``key = value`` entry per line (metadata entries carry a ``meta.``
prefix), ending with a lone ``end`` line.  The payload holds the time
axes (or nothing, for basis-form functions) followed by the stored
blocks, each as row-major complex samples written as pairs of 64-bit
floats (real, imaginary).
"""

import contextlib
import csv
import json
import math
import os
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError, DataError
from ..gf_numeric import BasisSpec, DeltaLine, GreenFunction, _run_metadata
from ..model import TemporalGrid
from .sweep import SweepResult

FORMAT_LINE = "TMFC-GF 1"
_BLOCK_ORDER = ("g_rr", "g_rs", "g_sr", "g_ss")
_BASIS_KEYS = ("basis_out_r", "basis_out_s", "basis_in_r", "basis_in_s")
_GRID_KEYS = ("t_min", "t_max", "n_t", "n_z")


# ---------------------------------------------------------------------------
# sweep exports


def _param_columns(records: List[dict]) -> List[str]:
    cols = ["gamma_bar", "tau_p", "beta_r", "beta_s", "beta_p", "L"]
    return [c for c in cols if any(c in r for r in records)] or cols


@contextlib.contextmanager
def _sink(target, newline=None):
    """Open the path ``target`` for writing, or pass an open text stream
    through (left open)."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", newline=newline) as fh:
            yield fh


def export_csv(result: SweepResult, path) -> None:
    """One row per sweep point: parameters, rho_1..N, ce_1..N, selectivity,
    separability, error tag.  Floats carry 12 significant digits.  An empty
    result writes the header row only.  ``path`` is a file path or an open
    text stream; rows end in ``\\r\\n`` either way."""
    n = result.spec.n_report
    params = _param_columns(result.records)
    header = params + [f"rho_{i + 1}" for i in range(n)] \
        + [f"ce_{i + 1}" for i in range(n)] \
        + ["selectivity", "separability", "error"]

    def fmt(x) -> str:
        if isinstance(x, str):
            return x
        return "%.12g" % float(x)

    with _sink(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in result.records:
            rho = list(rec.get("rho", []))
            ce = list(rec.get("ce", []))
            rho += [float("nan")] * (n - len(rho))
            ce += [float("nan")] * (n - len(ce))
            row = [fmt(rec.get(c, float("nan"))) for c in params]
            row += [fmt(v) for v in rho]
            row += [fmt(v) for v in ce]
            row += [fmt(rec.get("selectivity", float("nan"))),
                    fmt(rec.get("separability", float("nan"))),
                    rec.get("error", "")]
            writer.writerow(row)


def export_json(result: SweepResult, path) -> None:
    """Full structured result: spec echo, records (modes included when they
    were requested), and provenance.  Records serialize identically between
    runs; only the provenance carries timestamps.  ``path`` is a file path
    or an open text stream."""
    payload = {
        "spec": {
            "engine": result.spec.engine,
            "axes": [[name, list(values)] for name, values in result.spec.axes],
            "n_report": result.spec.n_report,
            "base": {key: value for key, value in _run_metadata(
                result.spec.engine, result.spec.params, result.spec.pump).items()
                if key not in ("engine", "chirped")},
        },
        "records": result.records,
        "provenance": result.provenance,
    }
    with _sink(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")


def import_json(path: str) -> dict:
    """Inverse of :func:`export_json` (returns the payload dictionary)."""
    with open(path) as fh:
        return json.load(fh)


def export_result(result: SweepResult, fmt: str, path) -> None:
    if fmt == "csv":
        export_csv(result, path)
    elif fmt == "json":
        export_json(result, path)
    else:
        raise ConfigurationError(f"unknown export format {fmt!r}")


# ---------------------------------------------------------------------------
# GF container


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(repr(float(x)) for x in np.asarray(v).ravel()) + "]"
    return str(v)


def save_gf(gf: GreenFunction, path: str) -> None:
    """Write a Green function to the versioned container format.

    Each axis and block is written from its own memory, with no byte copy
    of the payload.
    """
    blocks = [name for name in _BLOCK_ORDER if getattr(gf, name) is not None]
    lines = [FORMAT_LINE, f"form = {gf.form}", "blocks = " + ",".join(blocks)]
    payload: List[np.ndarray] = []
    if gf.form == "grid":
        lines.append(f"n_out = {gf.t_out.size}")
        lines.append(f"n_in = {gf.t_in.size}")
        payload.append(np.ascontiguousarray(gf.t_out, dtype=np.float64))
        payload.append(np.ascontiguousarray(gf.t_in, dtype=np.float64))
        for name, delta in (("delta_rr", gf.delta_rr), ("delta_ss", gf.delta_ss)):
            if delta is not None:
                w = complex(delta.weight)
                lines.append(
                    f"{name} = %.17g %.17g %.17g" % (delta.delay, w.real, w.imag))
    else:
        # a partial assembly carries only the specs of its blocks
        for key in _BASIS_KEYS:
            spec = getattr(gf, key)
            if spec is None:
                continue
            lines.append(
                f"{key} = {spec.n} %.17g %.17g" % (spec.width, spec.center))
    for name in blocks:
        block = np.ascontiguousarray(getattr(gf, name), dtype=np.complex128)
        lines.append(f"shape_{name} = {block.shape[0]} {block.shape[1]}")
        payload.append(block)
    for key in sorted(gf.metadata):
        lines.append(f"meta.{key} = {_fmt_value(gf.metadata[key])}")
    lines.append("end")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for arr in payload:
            fh.write(memoryview(arr))


def _parse_meta(raw: str):
    if raw == "true":
        return True
    if raw == "false":
        return False
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        values = [float(x) for x in inner.split(",")] if inner else []
        return np.asarray(values, dtype=float)
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def load_gf(path: str) -> GreenFunction:
    """Read a container written by :func:`save_gf`.

    The header is read line by line, then each axis and block is read
    straight into its final array; no copy of the file is held.  The
    blocks are handed to the :class:`GreenFunction` read-only, which keeps
    them without a copy.  A basis-form function gets back the grid that
    its ``meta.t_min``, ``meta.t_max``, ``meta.n_t`` and ``meta.n_z`` describe.

    A malformed header (incomplete, a repeated key, a block its ``blocks``
    line does not list, a function or grid its constructor rejects) and a
    payload that is short or followed by more bytes raise :class:`DataError`.
    """
    with open(path, "rb") as fh:
        first = fh.readline(len(FORMAT_LINE) + 1)
        if first.decode("utf-8", "replace") != FORMAT_LINE + "\n":
            raise DataError(f"{path}: not a TMFC-GF 1 container")
        header: List[str] = []
        while True:
            raw = fh.readline()
            if not raw.endswith(b"\n"):
                raise DataError(f"{path}: truncated container header")
            line = raw[:-1].decode("utf-8")
            if line == "end":
                break
            header.append(line)
        fields = {}
        for line in header:
            key, sep, value = line.partition(" = ")
            if not sep:
                raise DataError(f"{path}: malformed header line {line!r}")
            if key in fields:
                raise DataError(f"{path}: container header repeats {key!r}")
            fields[key] = value

        def need(table: dict, key: str):
            try:
                return table.pop(key)
            except KeyError:
                raise DataError(f"{path}: container header lacks {key!r}") from None

        form = need(fields, "form")
        blocks = [b for b in need(fields, "blocks").split(",") if b]
        metadata = {}
        shapes = {}
        kwargs: dict = {}
        for key, value in fields.items():
            if key.startswith("meta."):
                metadata[key[len("meta."):]] = _parse_meta(value)
            elif key.startswith("shape_"):
                if key[len("shape_"):] not in blocks:
                    raise DataError(
                        f"{path}: container header has {key!r} for a block "
                        "its 'blocks' line does not list")
                rows, cols = value.split()
                shapes[key] = (int(rows), int(cols))
            elif key in ("delta_rr", "delta_ss"):
                delay, wre, wim = (float(x) for x in value.split())
                weight = complex(wre, wim)
                kwargs[key] = DeltaLine(delay, weight.real if wim == 0 else weight)
            elif key in _BASIS_KEYS:
                n_str, width, center = value.split()
                kwargs[key] = BasisSpec(int(n_str), float(width), float(center))
            elif key in ("n_out", "n_in"):
                shapes[key] = int(value)
            else:
                raise DataError(f"{path}: unknown header key {key!r}")
        size = os.fstat(fh.fileno()).st_size

        def take(shape: Tuple[int, ...], dtype) -> np.ndarray:
            # checked against the file size first, so a corrupt shape never
            # allocates more than the file holds
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            if min(shape) < 0 or nbytes > size - fh.tell():
                raise DataError(f"{path}: truncated container payload")
            arr = np.empty(shape, dtype=dtype)
            fh.readinto(arr)
            arr.setflags(write=False)
            return arr

        if form == "grid":
            n_out = need(shapes, "n_out")
            n_in = need(shapes, "n_in")
            kwargs["t_out"] = take((n_out,), np.float64)
            kwargs["t_in"] = take((n_in,), np.float64)
        for name in blocks:
            kwargs[name] = take(need(shapes, f"shape_{name}"), np.complex128)
        trailing = size - fh.tell()
    if trailing:
        raise DataError(f"{path}: {trailing} bytes follow the container payload")
    try:
        if form == "basis" and all(key in metadata for key in _GRID_KEYS):
            kwargs["grid"] = TemporalGrid(*(metadata[key] for key in _GRID_KEYS))
        return GreenFunction(form=form, metadata=metadata, **kwargs)
    except ConfigurationError as exc:
        raise DataError(f"{path}: {exc}") from None
