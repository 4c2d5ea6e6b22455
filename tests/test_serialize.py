import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdiss.serialize import (_BLOCK_ROWS, _fmt_finite, _table_csv, json_dumps, length_gap_csv,
                                trace_csv)
from diffdiss.systems import ProlongedTrajectory


class TestJson:
    def test_control_characters_escaped(self):
        text = json_dumps({"error": 'ValueError: line one\nline "two"\t\\ end'})
        assert json.loads(text) == {"error": 'ValueError: line one\nline "two"\t\\ end'}

    def test_plain_strings_unchanged(self):
        assert json_dumps({"kind": "audit", "name": "é ü"}) == '{"kind": "audit", "name": "é ü"}\n'

    @given(st.text(), st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_through_json_loads(self, text, x):
        back = json.loads(json_dumps([{text: x}, text, x]))
        assert back == [{text: x}, text, x]
        assert math.copysign(1.0, back[2]) == math.copysign(1.0, x)


# every character, lone surrogates included, and more often the ones that
# JSON escapes or that are not ASCII
_ANY_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80é\u2028\u2029\ud800\udbff\udc00\udfff\ufeff'
                    "\U0001f600"),
))


class TestJsonStrings:
    @given(_ANY_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_dict_keyed_and_valued_by_a_string(self, text):
        # the writer quoted each key and each string by one json.dumps call
        quoted = json.dumps(text, ensure_ascii=False)
        assert json_dumps({text: text}) == "{" + quoted + ": " + quoted + "}\n"
        assert json_dumps([text, {"k": text}]) == f'[{quoted}, {{"k": {quoted}}}]\n'

    def test_non_string_keys_are_quoted_as_str(self):
        assert json_dumps({1: "a", None: "b", 2.5: "c"}) == '{"1": "a", "None": "b", "2.5": "c"}\n'


# reference copies of the row-by-row CSV writers the table writers replaced


def _ref_fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite float {x!r}")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _ref_trace_csv(traj) -> str:
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
    lines = [",".join(header)]
    for k, t in enumerate(traj.times):
        row = ([t] + list(traj.x[k]) + list(traj.dx[k]) + list(traj.u[k]) + list(traj.du[k])
               + list(traj.y[k]) + list(traj.dy[k]) + [S[k], Q[k], slack[k]])
        lines.append(",".join(_ref_fmt_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _ref_length_gap_csv(times, lengths, gaps) -> str:
    lines = ["t,L,gap"]
    for t, l, g in zip(times, lengths, gaps):
        lines.append(",".join(_ref_fmt_float(float(v)) for v in (t, l, g)))
    return "\n".join(lines) + "\n"


# -0.0, integers on both sides of 1e16, the largest and smallest floats
_SPECIAL = [0.0, -0.0, 1.0, -3.0, 0.1, 1e16 - 2.0, 1e16, -1e16, 1e16 + 2.0, 9.999999999999998e15,
            123456789.0, 2.0 ** 53, 1.7976931348623157e308, 5e-324, -2.5e-310, 1 / 3]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def _trajectory(rng, N, n, q, audited, special):
    def col(width):
        a = rng.normal(size=(N, width)) * 10.0 ** rng.integers(-5, 18, size=(N, width))
        integral = rng.random((N, width)) < 0.3
        a[integral] = np.round(a[integral])
        mask = rng.random((N, width)) < 0.3
        a[mask] = rng.choice(special, size=int(mask.sum()))
        return a

    times = np.cumsum(rng.uniform(0.0, 1.0, N))
    cols = {name: col(w) for name, w in (("x", n), ("dx", n), ("u", q), ("du", q),
                                           ("y", q), ("dy", q), ("xdot", n), ("dxdot", n))}
    traj = ProlongedTrajectory(times=times, **cols)
    if audited:
        traj.S, traj.Q, traj.slack = col(3).T
    return traj


def _collocate(traj):
    """The columns a collocated port gives (y = x, dy = dx), over an x_1 of
    integers (mixed with %.17g ones past 1e16), an all-zero u beside its
    negation (-0.0: equal by value, not by bits) and, if audited, Q = u."""
    q = traj.q
    traj.x[:, 0] = np.round(traj.x[:, 0])
    traj.y, traj.dy = traj.x[:, :q].copy(), traj.dx[:, :q].copy()
    traj.u[:] = 0.0
    traj.du = -traj.u
    if traj.Q is not None:
        traj.Q = traj.u[:, 0].copy()


class TestCsvWriters:
    """The table writers give the reference writers' bytes, and the same
    error text for the first non-finite value in row-major order."""

    @pytest.mark.parametrize("audited", [False, True])
    @pytest.mark.parametrize("bad", [None, float("nan"), float("inf"), -float("inf")])
    def test_trace_csv_matches_reference(self, rng, audited, bad):
        sizes = ((0, 1, 1), (1, 1, 1), (7, 2, 1), (40, 4, 2),
                 (_BLOCK_ROWS - 1, 2, 2), (_BLOCK_ROWS, 1, 1), (_BLOCK_ROWS + 1, 3, 2))
        for collocated, (N, n, q) in itertools.product((False, True), sizes):
            traj = _trajectory(rng, N, n, q, audited, _SPECIAL)
            if collocated:
                _collocate(traj)
            if bad is not None and N:
                traj.dx[N // 2, -1] = bad
                traj.y[N - 1, 0] = -bad
                if collocated:  # inside a column and its copy, y_1 = x_1 above it
                    traj.x[N // 2, 0] = traj.y[N // 2, 0] = bad
            assert _outcome(trace_csv, traj) == _outcome(_ref_trace_csv, traj)

    def test_length_gap_csv_matches_reference(self, rng):
        t = np.linspace(0.0, 1.0, 50)
        lengths = rng.choice(_SPECIAL, 50) * rng.choice([1.0, -1.0], 50)
        gaps = list(rng.normal(size=50) * 1e16)
        assert length_gap_csv(t, lengths, gaps) == _ref_length_gap_csv(t, lengths, gaps)
        # zip stops at the shortest column
        assert length_gap_csv(t, lengths[:30], gaps) == _ref_length_gap_csv(t, lengths[:30], gaps)
        lengths[17] = float("nan")
        gaps[3] = float("inf")
        assert (_outcome(length_gap_csv, t, lengths, gaps)
                == _outcome(_ref_length_gap_csv, t, lengths, gaps)
                == ("ValueError", "refusing to serialize non-finite float inf"))

    @given(st.lists(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-2 ** 60, 2 ** 60).map(float),
        st.sampled_from(_SPECIAL + [-(2.0 ** 53), 2.0 ** 53 + 2.0, -7.0, -1e300, 1e-310]),
    ), min_size=3, max_size=3), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_row_formats_match_fmt_finite(self, rows):
        """Each column's one ``%`` format, and its copy's, gives
        ``_fmt_finite`` of every value."""
        columns = [np.array([row[k] for row in rows], dtype=float) for k in range(3)]
        lines = _table_csv(["a", "b", "c", "a2"], columns + [columns[0].copy()]).split("\n")
        assert lines[0] == "a,b,c,a2" and lines[-1] == ""
        assert [line.split(",") for line in lines[1:-1]] == [
            [_fmt_finite(v) for v in row + row[:1]] for row in rows]
