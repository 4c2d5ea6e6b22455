"""Deterministic JSON and CSV writers for reports and trajectory traces.

Floats are rendered with 17 significant digits everywhere, dict order is
insertion order, and files are written atomically (temp file + rename), so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .systems import ProlongedTrajectory


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite float {x!r}")
    return _fmt_finite(x)


def _fmt_finite(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _table_csv(header: list[str], columns) -> str:
    """CSV of ``header`` over the columns stacked as one float table, rows
    formatted as :func:`_fmt_float` formats each value.  A non-finite value
    raises as ``_fmt_float`` does on the first one in row-major order.

    Each row is one ``%`` format: ``%.1f`` where :func:`_fmt_finite` takes
    its integer branch and ``%.17g`` elsewhere, one string per distinct
    mask of integer-valued entries."""
    table = np.column_stack(columns).astype(float, copy=False)
    if not np.isfinite(table).all():
        _fmt_float(float(table.ravel()[~np.isfinite(table.ravel())][0]))
    integral = (table == np.floor(table)) & (np.abs(table) < 1e16)
    masks = integral.view(f"V{table.shape[1]}").ravel().tolist()  # one bytes per row
    formats: dict[bytes, str] = {}
    lines = [",".join(header)]
    for mask, row in zip(masks, table.tolist()):
        fmt = formats.get(mask)
        if fmt is None:
            fmt = formats[mask] = ",".join("%.1f" if b else "%.17g" for b in mask)
        lines.append(fmt % tuple(row))
    return "\n".join(lines) + "\n"


def _json_fragment(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for k, v in obj.items():
            if out[-1] != "{":
                out.append(", ")
            _json_fragment(str(k), out)
            out.append(": ")
            _json_fragment(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for v in seq:
            if out[-1] != "[":
                out.append(", ")
            _json_fragment(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    out: list[str] = []
    _json_fragment(obj, out)
    return "".join(out) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json_dumps(obj))


def trace_csv(traj: ProlongedTrajectory) -> str:
    """Canonical trace: t, x_*, dx_*, u_*, du_*, y_*, dy_*, S, Q, slack."""
    n, q = traj.n, traj.q
    header = (
        ["t"]
        + [f"x_{k + 1}" for k in range(n)]
        + [f"dx_{k + 1}" for k in range(n)]
        + [f"u_{k + 1}" for k in range(q)]
        + [f"du_{k + 1}" for k in range(q)]
        + [f"y_{k + 1}" for k in range(q)]
        + [f"dy_{k + 1}" for k in range(q)]
        + ["S", "Q", "slack"]
    )
    zeros = np.zeros(len(traj.times))
    S = traj.S if traj.S is not None else zeros
    Q = traj.Q if traj.Q is not None else zeros
    slack = traj.slack if traj.slack is not None else zeros
    return _table_csv(header, [traj.times, traj.x, traj.dx, traj.u, traj.du, traj.y, traj.dy,
                               S, Q, slack])


def write_trace_csv(path: str, traj: ProlongedTrajectory) -> None:
    atomic_write_text(path, trace_csv(traj))


def length_gap_csv(times, lengths, gaps) -> str:
    """Homotopy trace: t, L (curve length), gap (endpoint output/state gap)."""
    size = min(len(times), len(lengths), len(gaps))
    return _table_csv(["t", "L", "gap"], [np.asarray(c, dtype=float)[:size]
                                         for c in (times, lengths, gaps)])


def write_length_gap_csv(path: str, times, lengths, gaps) -> None:
    atomic_write_text(path, length_gap_csv(times, lengths, gaps))
