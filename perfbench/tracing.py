"""Span tracing around the public functions of each ``diffdiss`` module.

Tracing lives entirely in the benchmark: :func:`install` replaces each
traced function with a timing wrapper under the name its caller looks it up
by (many are imported with ``from ... import``), and :func:`uninstall`
puts the originals back, so untraced operations run the unmodified program.

Spans are kept in memory and written once, by the caller, at the end of the
run.  Calls into the high-frequency functions (the integrator's right-hand
side, ``exprlang.evaluate``, ``jvp``, ``jacobian``) are not stored one by
one: they are folded into one record per (operation, parent span, name)
with a call count and total time.  Every span adds its duration to its
parent's child time, so self time = span - time covered by child spans.
Time spent in the calibration passes (see calibrate.py) is taken out of
every span that is open while one runs, by moving the span's start later.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.spans = []  # (span id, name, start, end, parent id, op id)
        self.folded = []  # (op id, parent span id, name, calls, s)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.under = defaultdict(float)  # (parent name, name) -> s
        self.counters = defaultdict(float)
        # frame: [child time, name, span id, start, {folded name: [calls, s]}]
        self._root = [0.0, None, None, 0.0, {}]
        self._stack = [self._root]
        self._next_id = 0

    def enter(self, name: str) -> list:
        frame = [0.0, name, self._next_id, 0.0, {}]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = _clock()
        return frame

    def leave(self, frame: list) -> None:
        start = frame[3]  # read first: a pass after this is counted, never negative
        end = _clock()
        self._stack.pop()
        child, name, span_id, _, folded = frame
        dur = end - start
        parent = self._stack[-1]
        parent[0] += dur
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_s[name] += dur - child
        self.under[(parent[1], name)] += dur
        self.spans.append((span_id, name, start, end, parent[2], self.op_id))
        for fname, (calls, s) in folded.items():
            self.folded.append((self.op_id, span_id, fname, calls, s))

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` spent outside the program out of every open span."""
        for frame in self._stack[1:]:
            frame[3] += seconds

    def span(self, name, fn, *args):
        frame = self.enter(name)
        try:
            return fn(*args)
        finally:
            self.leave(frame)

    def folded_totals(self) -> tuple[dict, dict]:
        """Calls and seconds per folded name, over the whole run."""
        calls, secs = defaultdict(int), defaultdict(float)
        for _, _, name, n, s in self.folded:
            calls[name] += n
            secs[name] += s
        return calls, secs

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5]}
                for s in self.spans
            ],
            "folded": [
                {"op": f[0], "parent": f[1], "name": f[2], "calls": f[3], "s": f[4]}
                for f in self.folded
            ],
        }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """A stored span around ``fn``; ``after`` reads counters from the call."""

    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _wrap_folded(tracer: Tracer, name: str, fn, outermost: bool = False):
    """A folded span around ``fn``: its call count and time go to the nearest
    stored span, and its time to its parent's child time.  With
    ``outermost``, calls made while one is already open are not counted."""
    stack = tracer._stack
    active = [False]

    def wrapper(*args):
        if active[0]:
            return fn(*args)
        active[0] = outermost
        parent = stack[-1]
        frame = [0.0, name, parent[2], 0.0, parent[4]]
        stack.append(frame)
        frame[3] = _clock()
        try:
            return fn(*args)
        finally:
            start = frame[3]
            dur = _clock() - start
            stack.pop()
            parent[0] += dur
            rec = parent[4].get(name)
            if rec is None:
                parent[4][name] = [1, dur]
            else:
                rec[0] += 1
                rec[1] += dur
            active[0] = False

    return wrapper


# --- counters taken from arguments and results, outside the timed span -------


def _integrate(tracer, args, sol):
    tracer.counters["numerics.integrate.steps"] += len(sol.times) - 1


def _audit(tracer, args, report):
    tracer.counters["dissipativity.audit.samples"] += len(report.times)


def _points(name):
    def after(tracer, args, report):
        tracer.counters[name] += report.n_points
    return after


def _homotopy(tracer, args, family):
    tracer.counters["incremental.homotopy_integrate.member_steps"] += (
        len(family.members) * (len(family.times) - 1)
    )


def _equalization(tracer, args, report):
    tracer.counters["interconnect.check_equalization.pairs"] += report.n_pairs


def _csv_bytes(tracer, args, result):
    tracer.counters["serialize.write_trace_csv.bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, counter hook): every place a caller looks
# the function up, traced as a stored span.
STORED = [
    ("cli", "audit", "dissipativity.audit", _audit),
    ("cli", "check_uc", "dissipativity.check_uc", _points("dissipativity.check_uc.points")),
    ("cli", "check_ap", "dissipativity.check_ap", _points("dissipativity.check_ap.points")),
    ("cli", "rc_circuit", "examples.rc_circuit", None),
    ("cli", "induction_motor_virtual", "examples.induction_motor_virtual", None),
    ("cli", "homotopy_integrate", "incremental.homotopy_integrate", _homotopy),
    ("cli", "verify_output_convergence", "incremental.verify_output_convergence", None),
    ("cli", "check_equalization", "interconnect.check_equalization", _equalization),
    ("cli", "simulate_prolonged", "systems.simulate_prolonged", None),
    ("cli", "write_json", "serialize.write_json", None),
    ("cli", "write_trace_csv", "serialize.write_trace_csv", _csv_bytes),
    ("cli", "write_length_gap_csv", "serialize.write_length_gap_csv", None),
    ("exprlang", "parse", "exprlang.parse", None),
    ("systems", "integrate", "numerics.integrate", _integrate),
    ("examples", "simulate_prolonged", "systems.simulate_prolonged", None),
    ("incremental", "integrate", "numerics.integrate", _integrate),
    ("incremental", "homotopy_integrate", "incremental.homotopy_integrate", _homotopy),
    ("incremental", "finsler_length", "incremental.finsler_length", None),
]

# The same for the high-frequency functions, traced as folded spans.
# ``numerics.jvp`` is traced where systems, models and checks call it, not
# inside ``numerics.jacobian``, so one Jacobian counts as one call.
FOLDED = [
    ("exprlang", "evaluate", "exprlang.evaluate"),
    ("systems", "jvp", "numerics.jvp"),
    ("examples", "jvp", "numerics.jvp"),
    ("incremental", "jvp", "numerics.jvp"),
    ("dissipativity", "jacobian", "numerics.jacobian"),
    ("dissipativity", "jvp", "numerics.jvp"),
    ("interconnect", "jacobian", "numerics.jacobian"),
    ("interconnect", "jvp", "numerics.jvp"),
]
# Only the outermost call of the recursive evaluator is a span.
OUTERMOST = {"exprlang.evaluate"}

FIELD = "numerics.integrate.field"


def install(tracer: Tracer, modules: dict) -> list:
    """Patch every target; returns what :func:`uninstall` needs."""
    saved = []
    for mod_name, attr, span_name, after in STORED:
        module = modules[mod_name]
        original = getattr(module, attr)
        saved.append((module, attr, original))
        if span_name == "numerics.integrate":
            original = _with_traced_field(tracer, original)
        setattr(module, attr, _wrap(tracer, span_name, original, after))
    for mod_name, attr, span_name in FOLDED:
        module = modules[mod_name]
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr,
                _wrap_folded(tracer, span_name, original, span_name in OUTERMOST))
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def _with_traced_field(tracer: Tracer, integrate):
    """``integrate`` whose right-hand side is a folded child span, so the
    RHS call count and time are measured where the stepper calls it."""

    def traced(field, *args):
        return integrate(_wrap_folded(tracer, FIELD, field), *args)

    return traced


def layer_metrics(tracer: Tracer, n_ops: int, time_scale: float) -> dict:
    """Per-layer metrics per traced operation: name -> (value, unit).

    Span times are wall times; ``time_scale`` (scaled over wall time of the
    traced operations, see calibrate.py) puts them at the reference core
    speed.  The calibration passes are taken out of the spans (see
    :meth:`Tracer.exclude`).
    """
    calls, secs = tracer.folded_totals()
    c = defaultdict(int, tracer.calls)
    c.update(calls)
    incl = defaultdict(float, tracer.incl)
    incl.update(secs)
    self_s, under, k = tracer.self_s, tracer.under, tracer.counters

    def per_op(x):
        return x / n_ops

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    steps = k["numerics.integrate.steps"]
    sp, hi = "systems.simulate_prolonged", "incremental.homotopy_integrate"
    out = {
        "numerics.integrate.nfev": (per_op(c[FIELD]), "count/op"),
        "numerics.integrate.steps": (per_op(steps), "count/op"),
        "numerics.integrate.nfev_per_step": (ratio(c[FIELD], steps), "calls/step"),
        "numerics.integrate.self_s": (per_op(self_s["numerics.integrate"]), "s/op"),
        "numerics.integrate.field_s": (per_op(incl[FIELD]), "s/op"),
        "numerics.integrate.field_us_per_call": (ratio(incl[FIELD], c[FIELD], 1e6), "us/call"),
        "numerics.jvp.calls": (per_op(c["numerics.jvp"]), "count/op"),
        "numerics.jvp.s": (per_op(incl["numerics.jvp"]), "s/op"),
        "numerics.jacobian.calls": (per_op(c["numerics.jacobian"]), "count/op"),
        "numerics.jacobian.us_per_call": (
            ratio(incl["numerics.jacobian"], c["numerics.jacobian"], 1e6), "us/call"),
        "exprlang.evaluate.calls": (per_op(c["exprlang.evaluate"]), "count/op"),
        "exprlang.evaluate.s": (per_op(incl["exprlang.evaluate"]), "s/op"),
        "exprlang.evaluate.us_per_call": (
            ratio(incl["exprlang.evaluate"], c["exprlang.evaluate"], 1e6), "us/call"),
        "exprlang.parse.s": (per_op(incl["exprlang.parse"]), "s/op"),
        "systems.simulate_prolonged.s": (per_op(incl[sp]), "s/op"),
        "systems.simulate_prolonged.post_s": (
            per_op(incl[sp] - under[(sp, "numerics.integrate")]), "s/op"),
        "dissipativity.audit.s": (per_op(incl["dissipativity.audit"]), "s/op"),
        "dissipativity.audit.us_per_sample": (
            ratio(incl["dissipativity.audit"], k["dissipativity.audit.samples"], 1e6), "us/sample"),
        "dissipativity.check_uc.us_per_point": (
            ratio(incl["dissipativity.check_uc"], k["dissipativity.check_uc.points"], 1e6),
            "us/point"),
        "dissipativity.check_ap.us_per_point": (
            ratio(incl["dissipativity.check_ap"], k["dissipativity.check_ap.points"], 1e6),
            "us/point"),
        "incremental.homotopy_integrate.s": (per_op(incl[hi]), "s/op"),
        "incremental.homotopy_integrate.post_s": (
            per_op(incl[hi] - under[(hi, "numerics.integrate")]), "s/op"),
        "incremental.homotopy_integrate.us_per_member_step": (
            ratio(incl[hi], k[hi + ".member_steps"], 1e6), "us/member-step"),
        "incremental.finsler_length.s": (per_op(incl["incremental.finsler_length"]), "s/op"),
        "incremental.verify_output_convergence.self_s": (
            per_op(self_s["incremental.verify_output_convergence"]), "s/op"),
        "interconnect.check_equalization.s": (
            per_op(incl["interconnect.check_equalization"]), "s/op"),
        "interconnect.check_equalization.us_per_pair": (
            ratio(incl["interconnect.check_equalization"],
                  k["interconnect.check_equalization.pairs"], 1e6), "us/pair"),
        "examples.rc_circuit.s": (per_op(incl["examples.rc_circuit"]), "s/op"),
        "examples.induction_motor_virtual.s": (
            per_op(incl["examples.induction_motor_virtual"]), "s/op"),
        "serialize.write_trace_csv.s": (per_op(incl["serialize.write_trace_csv"]), "s/op"),
        "serialize.write_trace_csv.bytes": (per_op(k["serialize.write_trace_csv.bytes"]), "B/op"),
        "serialize.write_json.s": (per_op(incl["serialize.write_json"]), "s/op"),
        "serialize.write_length_gap_csv.s": (
            per_op(incl["serialize.write_length_gap_csv"]), "s/op"),
        "cli.main.self_s": (per_op(self_s["cli.main"]), "s/op"),
    }
    return {name: (value * time_scale if unit.startswith(("s/", "us/")) else value, unit)
            for name, (value, unit) in out.items()}
