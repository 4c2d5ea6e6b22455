"""Seeded operation generators and output checks for the benchmark.

Each workload is a short, fixed cycle of operations.  An operation is one
``diffdiss`` subcommand run on one generated JSON config, together with the
exit code it must return and the shape its report and CSV trace must have.
The seed only moves parameters inside ranges where the verdict is known by
construction and the work per operation (grid size, step count) is fixed,
so two seeds give the same mix and nearly the same cost.

This module imports nothing from ``diffdiss``: generating inputs is part of
the measured set-up, and checking outputs reads only the files written.
"""

from __future__ import annotations

import json
import os
import random

# Fixed-step runs: t_final 1 at dt 1e-3 gives 1001 samples.
RK4_RUN = {"t_final": 1.0, "stepper": {"kind": "rk4", "dt": 1e-3}}
RK4_SAMPLES = 1001

CERT_UC_COUNTS = [41, 41]
CERT_AP_COUNTS = [17, 17]
CERT_AP_INPUT_COUNTS = [3, 3]

MOTOR_X0 = [1.0, 0.0, 1.3, 0.2]


def _num(x: float) -> str:
    """A decimal literal the expression parser accepts (no sign, no exponent)."""
    return f"{x:.6f}"


def _op(label, command, config, expect_code, report, checks, csv=None, csv_rows=None):
    return {
        "label": label,
        "command": command,
        "config": config,
        "expect_code": expect_code,
        "report": report,
        "checks": checks,
        "csv": csv,
        "csv_rows": csv_rows,
    }


# ---------------------------------------------------------------------------
# generators


def audit_rc(rng: random.Random) -> list[dict]:
    """``audit`` on the registry RC circuit under a seeded sinusoidal drive."""
    ops = []
    for k in range(4):
        amp, freq, bias = rng.uniform(0.2, 1.0), rng.uniform(0.5, 3.0), rng.uniform(-0.3, 0.3)
        drive = f"{_num(amp)}*sin({_num(freq)}*t) + ({'-' if bias < 0 else ''}{_num(abs(bias))})"
        config = {
            "system": {"registry": "rc", "params": {"mu": "q + q^3"}},
            "run": dict(RK4_RUN, x0=[rng.uniform(-1.0, 1.0)], dx0=[rng.uniform(-1.0, 1.0)],
                        u=[{"kind": "expr", "expr": drive}]),
        }
        ops.append(_op(f"audit-rc-{k}", "audit", config, 0, "audit_report.json",
                       {"kind": "audit", "n_samples": RK4_SAMPLES, "audit_passed": True},
                       csv="audit_trace.csv", csv_rows=RK4_SAMPLES))
    return ops


def converge_motor(rng: random.Random) -> list[dict]:
    """``converge`` on the registry motor; the seed moves the second initial
    state along a random direction at a fixed distance."""
    ops = []
    for k in range(3):
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = sum(c * c for c in v) ** 0.5
        x0_b = [a + 0.8 * c / norm for a, c in zip(MOTOR_X0, v)]
        config = {
            "system": {"registry": "motor"},
            "run": {
                "x0": MOTOR_X0, "x0_b": x0_b, "t_final": 10.0, "n_s": 9,
                "stepper": {"kind": "rk45", "tol": 1e-8},
                "u": [{"kind": "expr", "expr": "0.3*sin(t)"},
                      {"kind": "expr", "expr": "0.2*cos(t)"}],
            },
        }
        ops.append(_op(f"converge-motor-{k}", "converge", config, 0, "convergence_report.json",
                       {"kind": "output-convergence", "converged": True},
                       csv="convergence_trace.csv"))
    return ops


def _uc_config(rng: random.Random, flipped: bool) -> dict:
    a, c, span = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 2.0)
    # sym(Df) = diag(-a - 3 x1^2, -c - 3 x2^2): NSD, so the certificate holds;
    # flipping the sign of a makes storage decay fail near x1 = 0.
    f1 = f"{'' if flipped else '-'}{_num(a)}*x1 - x1^3 + x2"
    return {
        "system": {"n": 2, "q": 1, "f": [f1, f"-x1 - {_num(c)}*x2 - x2^3"],
                   "g": [["0"], ["1"]], "h": ["x2"]},
        "storage": {"M": "identity"},
        "supply": {"W": "identity"},
        "pi": [[0.0], [1.0]],
        "grid": {"lo": [-span, -span], "hi": [span, span], "counts": CERT_UC_COUNTS},
    }


def _ap_config(rng: random.Random, flipped: bool) -> dict:
    a, b, c = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
    g = [[rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)],
         [rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5)]]
    d1, d2, e = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0)
    span = rng.uniform(1.0, 2.0)
    sign = "-" if flipped else ""
    lit = lambda x: f"{'-' if x < 0 else ''}{_num(abs(x))}"
    # h = G^T x matches Dh^T W = M^T M g with M = W = I; a constant i makes the
    # mixed-Jacobian condition vacuous and sym(i) = diag(d1, d2) is PSD.
    # Flipping the sign of the diagonal of i breaks throughput positivity.
    return {
        "system": {
            "n": 2, "q": 2,
            "f": [f"-{_num(a)}*x1 - x1^3 + ({lit(b)})*x2",
                  f"-({lit(b)})*x1 - {_num(c)}*x2 - x2^3"],
            "g": [[lit(g[0][0]), lit(g[0][1])], [lit(g[1][0]), lit(g[1][1])]],
            "h": [f"{lit(g[0][0])}*x1 + ({lit(g[1][0])})*x2",
                  f"({lit(g[0][1])})*x1 + {lit(g[1][1])}*x2"],
            "i": [[f"{sign}{_num(d1)}", lit(e)], [lit(-e), f"{sign}{_num(d2)}"]],
        },
        "storage": {"M": "identity"},
        "supply": {"W": "identity"},
        "grid": {"lo": [-span, -span], "hi": [span, span], "counts": CERT_AP_COUNTS},
        "grid_u": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": CERT_AP_INPUT_COUNTS},
    }


_UC_CONDITIONS = ("storage-decay", "input-gain-constancy", "output-supply-match")
_AP_CONDITIONS = ("storage-decay", "output-supply-match", "throughput-gain-match",
                  "throughput-positivity")


def certify_grid(rng: random.Random) -> list[dict]:
    """Grid certificates: one passing and one sign-flipped run of each kind."""
    uc_points = CERT_UC_COUNTS[0] * CERT_UC_COUNTS[1]
    ap_points = (CERT_AP_COUNTS[0] * CERT_AP_COUNTS[1]
                 * CERT_AP_INPUT_COUNTS[0] * CERT_AP_INPUT_COUNTS[1])
    ops = []
    for flipped in (False, True):
        tag = "neg" if flipped else "pos"
        uc = {name: True for name in _UC_CONDITIONS}
        uc["storage-decay"] = not flipped
        ops.append(_op(f"certify-uc-{tag}", "certify-uc", _uc_config(rng, flipped),
                       1 if flipped else 0, "certificate_report.json",
                       {"kind": "certificate", "n_points": uc_points, "conditions": uc}))
        ap = {name: True for name in _AP_CONDITIONS}
        ap["throughput-positivity"] = not flipped
        ops.append(_op(f"certify-ap-{tag}", "certify-ap", _ap_config(rng, flipped),
                       1 if flipped else 0, "certificate_report.json",
                       {"kind": "certificate", "n_points": ap_points, "conditions": ap}))
    return ops


def loop_interconnect(rng: random.Random) -> list[dict]:
    """Output coupling of two passive scalars, and state coupling with the
    gradient-form equalizing feedback k = x1 + x1^3 (W = M = 1 + 3 x1^2),
    each followed by the same loop with k2 sign-flipped, which must fail
    equalization."""
    ops = []
    a, b, c = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
    amp, freq = rng.uniform(0.2, 1.0), rng.uniform(0.5, 3.0)
    output_cfg = {
        "system": {"n": 1, "q": 1, "f": [f"-{_num(a)}*x1 - x1^3"], "g": [["1"]], "h": ["x1"]},
        "storage": {"M": "identity"},
        "supply": {"W": "identity"},
        "interconnect": {
            "coupling": "output",
            "system2": {"n": 1, "q": 1, "f": [f"-{_num(b)}*x1 - {_num(c)}*x1^3"],
                        "g": [["1"]], "h": ["x1"]},
            "storage2": {"M": "identity"},
            "supply2": {"W": "identity"},
        },
        "run": dict(RK4_RUN, x0=[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
                    dx0=[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
                    u=[{"kind": "expr", "expr": f"{_num(amp)}*sin({_num(freq)}*t)"}, 0.0]),
    }
    ops.append(_op("loop-output", "interconnect", output_cfg, 0, "interconnect_report.json",
                   {"kind": "audit", "n_samples": RK4_SAMPLES, "audit_passed": True},
                   csv="interconnect_trace.csv", csv_rows=RK4_SAMPLES))
    # Two state-coupled pairs to one output-coupled loop: the state loops cost
    # ~1.4x more, and at 4 in 5 the median and tail both fall among them.
    for k, flipped in ((0, False), (0, True), (1, False), (1, True)):
        rate = _num(rng.uniform(0.05, 0.5))
        plant = {"n": 1, "q": 1, "f": [f"-{rate}*x1"], "g": [["1/(1 + 3*x1^2)"]], "h": ["x1"]}
        m = {"M": [["1 + 3*x1^2"]]}
        w = {"W": [["1 + 3*x1^2"]]}
        config = {
            "system": plant,
            "storage": m,
            "supply": w,
            "interconnect": {
                "coupling": "state", "system2": plant, "storage2": m, "supply2": w,
                "k1": ["x1 + x1^3"],
                "k2": ["-(x1 + x1^3)" if flipped else "x1 + x1^3"],
            },
            "run": dict(RK4_RUN, x0=[rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)],
                        dx0=[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
                        seed=rng.randrange(1 << 16)),
        }
        checks = {"kind": "audit", "n_samples": RK4_SAMPLES, "equalization": not flipped,
                  "n_pairs": 200}
        if not flipped:
            checks["audit_passed"] = True
        ops.append(_op(f"loop-state-{'neg' if flipped else 'pos'}-{k}", "interconnect", config,
                       1 if flipped else 0, "interconnect_report.json", checks,
                       csv="interconnect_trace.csv", csv_rows=RK4_SAMPLES))
    return ops


WORKLOADS = {
    "audit_rc": audit_rc,
    "converge_motor": converge_motor,
    "certify_grid": certify_grid,
    "loop_interconnect": loop_interconnect,
}


def generate(workload: str, seed: int, config_dir: str) -> list[dict]:
    """Build the workload's operation cycle from ``seed`` and write each
    config to ``config_dir``; returns the operations with a ``config_path``."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    for k, op in enumerate(ops):
        path = os.path.join(config_dir, f"{k:02d}-{op['label']}.json")
        with open(path, "w") as handle:
            json.dump(op["config"], handle, indent=1)
        op["config_path"] = path
    return ops


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_json(path: str) -> dict:
    _require(os.path.exists(path), f"missing report {os.path.basename(path)}")
    with open(path) as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"{os.path.basename(path)} is not valid JSON: {err}") from None
    _require(isinstance(payload, dict), "report is not a JSON object")
    return payload


def _on_pass_side(cond: dict) -> bool:
    if cond["kind"] == "psd-margin":
        return cond["worst"] >= cond["threshold"]
    return cond["worst"] <= cond["threshold"]


def _check_csv(path: str, rows: int | None) -> None:
    _require(os.path.exists(path), f"missing trace {os.path.basename(path)}")
    with open(path) as handle:
        lines = handle.read().splitlines()
    _require(len(lines) >= 3, "trace has fewer than two data rows")
    width = len(lines[0].split(","))
    if rows is not None:
        _require(len(lines) == rows + 1, f"trace has {len(lines)} lines, expected {rows + 1}")
    for line in lines[1:]:
        fields = line.split(",")
        _require(len(fields) == width, "trace row width differs from its header")
        try:
            [float(v) for v in fields]
        except ValueError:
            raise CheckFailed(f"trace row is not numeric: {line[:60]!r}") from None


def check(op: dict, code: int, out_dir: str) -> None:
    """Raise :class:`CheckFailed` unless the operation's exit code and files
    match what its generated config guarantees."""
    _require(code == op["expect_code"], f"exit code {code}, expected {op['expect_code']}")
    _require(not os.path.exists(os.path.join(out_dir, "error_report.json")),
             "an error report was written")
    report = _read_json(os.path.join(out_dir, op["report"]))
    checks = op["checks"]
    _require(report.get("kind") == checks["kind"], f"report kind {report.get('kind')!r}")
    _require(report.get("passed") is (op["expect_code"] == 0), "report verdict differs from exit code")
    if "n_samples" in checks:
        _require(report.get("n_samples") == checks["n_samples"], "wrong audit sample count")
    if "audit_passed" in checks:
        on_side = report["worst_violation"] <= report["tolerance"]
        _require(on_side == checks["audit_passed"], "audit worst violation on the wrong side")
    if "n_points" in checks:
        _require(report.get("n_points") == checks["n_points"], "wrong certificate point count")
    if "conditions" in checks:
        got = {c["name"]: c for c in report.get("conditions", [])}
        _require(set(got) == set(checks["conditions"]), "unexpected certificate conditions")
        for name, expected in checks["conditions"].items():
            cond = got[name]
            _require(cond["passed"] is expected, f"condition {name} verdict {cond['passed']}")
            _require(_on_pass_side(cond) == expected, f"condition {name} worst on the wrong side")
    if "equalization" in checks:
        eq = report.get("equalization")
        _require(isinstance(eq, dict), "missing equalization block")
        _require(eq.get("n_pairs") == checks["n_pairs"], "wrong equalization pair count")
        on_side = eq["max_residual"] <= eq["tolerance"]
        _require(on_side == checks["equalization"] and eq["passed"] is checks["equalization"],
                 "equalization residual on the wrong side")
    if "converged" in checks:
        on_side = report["final_gap"] <= report["tolerance"] * report["initial_gap"]
        _require(on_side == checks["converged"] and report.get("barbalat_ok") is True,
                 "output gap or Barbalat bound on the wrong side")
    if op["csv"] is not None:
        _check_csv(os.path.join(out_dir, op["csv"]), op["csv_rows"])
