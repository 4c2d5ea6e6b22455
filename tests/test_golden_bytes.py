"""Byte-identity gate for reports and CSV traces.

Every file below is compared by sha256 against a digest recorded before the
speed-ups that claim to leave outputs unchanged.  A change that moves any
byte of a demo, an RC audit (fixed-step or adaptive), an output-coupled
loop (with throughput on neither side, system 1 or system 2), a
state-coupled loop, a certificate, a plain simulation, the motor's output
convergence, an expression system's audit or its homotopy fails here,
so the "byte-identical to the parent" check no longer depends on a manual
``diff -r``.

The digests depend on the platform's libm and numpy builds (the last digit
of ``sin`` or ``exp`` may differ between them); they were recorded with
Python 3.11 and numpy 2.4 on x86-64 Linux.  Re-record them only for a change
that is meant to move report bytes, and say so in CHANGES.md.
"""

import hashlib
import json

import pytest

from diffdiss import exprlang
from diffdiss.cli import main

RK4_RUN = {"t_final": 1.0, "stepper": {"kind": "rk4", "dt": 1e-3}}

RC_AUDIT = {
    "system": {"registry": "rc", "params": {"mu": "q + q^3"}},
    "run": dict(RK4_RUN, x0=[0.4], dx0=[-0.7],
                u=[{"kind": "expr", "expr": "0.600000*sin(1.700000*t) + (-0.100000)"}]),
}

_PLANT = {"n": 1, "q": 1, "f": ["-0.250000*x1"], "g": [["1/(1 + 3*x1^2)"]], "h": ["x1"]}
STATE_LOOP = {
    "system": _PLANT,
    "storage": {"M": [["1 + 3*x1^2"]]},
    "supply": {"W": [["1 + 3*x1^2"]]},
    "interconnect": {
        "coupling": "state", "system2": _PLANT,
        "storage2": {"M": [["1 + 3*x1^2"]]}, "supply2": {"W": [["1 + 3*x1^2"]]},
        "k1": ["x1 + x1^3"], "k2": ["x1 + x1^3"],
    },
    "run": dict(RK4_RUN, x0=[0.5, -0.3], dx0=[0.2, 0.9], seed=11),
}

OUTPUT_LOOP = {
    "system": {"n": 1, "q": 1, "f": ["-0.800000*x1 - x1^3"], "g": [["1"]], "h": ["x1"]},
    "storage": {"M": "identity"},
    "supply": {"W": "identity"},
    "interconnect": {
        "coupling": "output",
        "system2": {"n": 1, "q": 1, "f": ["-1.200000*x1 - 0.700000*x1^3"], "g": [["1"]],
                    "h": ["x1"]},
        "storage2": {"M": "identity"},
        "supply2": {"W": "identity"},
    },
    "run": dict(RK4_RUN, x0=[0.6, -0.4], dx0=[0.3, 0.8],
                u=[{"kind": "expr", "expr": "0.500000*sin(2.000000*t)"}, 0.0]),
}


def _throughput_loop(side):
    """``OUTPUT_LOOP`` with a state-dependent g1, inputs on both ports and
    throughput i on system ``side``: pins the loop's cross block of g and
    the evaluation order that throughput on system 2 flips."""
    config = json.loads(json.dumps(OUTPUT_LOOP))
    config["system"]["g"] = [["1/(1 + x1^2)"]]
    config["run"]["u"][1] = {"kind": "expr", "expr": "0.3*cos(t)"}
    throughput = config["system"] if side == 1 else config["interconnect"]["system2"]
    throughput["i"] = [["0.5 + 0.25*x1^2"]]
    return config


CERT_UC = {
    "system": {"n": 2, "q": 1, "f": ["-1.234567*x1 - x1^3 + x2", "-x1 - 0.876543*x2 - x2^3"],
               "g": [["0"], ["1"]], "h": ["x2"]},
    "storage": {"M": "identity"},
    "supply": {"W": "identity"},
    "pi": [[0.0], [1.0]],
    "grid": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5], "counts": [20, 20]},
}

CERT_AP = {
    "system": {
        "n": 2, "q": 2,
        "f": ["-1.123457*x1 - x1^3 + (0.314159)*x2", "-(0.314159)*x1 - 0.987654*x2 - x2^3"],
        "g": [["1.200000", "-0.200000"], ["0.100000", "0.800000"]],
        "h": ["1.200000*x1 + (0.100000)*x2", "(-0.200000)*x1 + 0.800000*x2"],
        "i": [["0.500000", "0.400000"], ["-0.400000", "0.700000"]],
    },
    "storage": {"M": "identity"},
    "supply": {"W": "identity"},
    "grid": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5], "counts": [8, 8]},
    "grid_u": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [3, 3]},
}

# state-dependent M, W and g and an exogenous signal in f, which the
# certificate freezes at t = 0
CERT_UC_EXPR = {
    "system": {"n": 2, "q": 1, "exo": {"w": {"kind": "expr", "expr": "0.5*cos(3*t)"}},
               "f": ["-(1 + w^2)*x1", "-x2/(1 + x2^2)"], "g": [["0"], ["1/(1 + x2^2)"]],
               "h": ["x2"]},
    "storage": {"M": [["1", "0"], ["0", "1 + x2^2"]]},
    "supply": {"W": [["1 + x2^2"]]},
    "pi": [[0.0], [1.0]],
    "grid": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5], "counts": [9, 9], "extra_random": 7,
             "seed": 3},
}

# state-dependent M, g and i that pass every condition, so D[i u] and
# D[M g u] vary over the (state x input) product and the two residuals sit at
# rounding level, where each bit of the Jacobians shows
CERT_AP_EXPR = {
    "system": {
        "n": 2, "q": 2,
        "f": ["-x1 - x1^3 + 0.3*x2", "-x2 - x2^3"],
        "g": [["1 + 0.1*x1^2", "-0.2"], ["0", "(1 + 0.2*x2)/(1 + 0.1*x2^2)"]],
        "h": ["x1 + x1^3/30", "-0.2*x1 + x2 + 0.1*x2^2 + x2^3/30 + 0.005*x2^4"],
        "i": [["0.5 + 0.1*x1^2", "0.4"], ["-0.4", "0.7 + 0.2*x2 + 0.02*x2^3/3"]],
    },
    "storage": {"M": [["1", "0"], ["0", "1 + 0.1*x2^2"]]},
    "supply": {"W": "identity"},
    "grid": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5], "counts": [8, 8]},
    "grid_u": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [3, 3]},
}

# one member under the adaptive stepper
RC_AUDIT_RK45 = {
    "system": RC_AUDIT["system"],
    "run": dict(RC_AUDIT["run"], stepper={"kind": "rk45", "tol": 1e-8}),
}

# an exogenous signal, a sampled input, an output the lift runs as a dual pass
# (min of a state and a literal) and expression storage and supply
SIMULATE = {
    "system": {
        "n": 2, "q": 1,
        "exo": {"w": {"kind": "expr", "expr": "0.5*cos(3*t)"}},
        "f": ["-x1 + (1 + w)*x2", "-x1 - 0.5*x2 - x2^3 + w/(2 + x1^2)"],
        "g": [["0"], ["1/(1 + x1^2)"]],
        "h": ["x2 + 0.1*w*min(x1, 0.2)"],
    },
    "storage": {"M": [["1", "0"], ["0", "1 + x2^2"]]},
    "supply": {"W": [["1 + x1^2"]]},
    "run": dict(RK4_RUN, x0=[0.4, -0.3], dx0=[0.2, 0.5],
                u=[{"kind": "sampled", "times": [0.0, 0.25, 0.5, 0.75, 1.0],
                    "values": [0.0, 0.3, -0.2, 0.1, 0.4]}]),
}

# the registry motor's homotopy stack under Rk45, with the benchmark's inputs
CONVERGE_MOTOR = {
    "system": {"registry": "motor"},
    "run": {
        "x0": [1.0, 0.0, 1.3, 0.2], "x0_b": [1.4, -0.3, 1.1, 0.6], "t_final": 2.0, "n_s": 5,
        "stepper": {"kind": "rk45", "tol": 1e-8},
        "u": [{"kind": "expr", "expr": "0.3*sin(t)"}, {"kind": "expr", "expr": "0.2*cos(t)"}],
    },
}

# a homotopy stack under Rk4 (members stepped one by one on floats) with a
# state-dependent storage factor, so the gauge runs a compiled M over the stack
HOMOTOPY_EXPR = {
    "system": {"n": 2, "q": 1,
               "f": ["-x1 + 0.5*x2 - x1^3", "-0.5*x1 - x2 - 0.2*x2^3"],
               "g": [["0"], ["1/(1 + x1^2)"]], "h": ["x2"]},
    "storage": {"M": [["1", "0"], ["0", "1 + x2^2"]]},
    "run": {"x0": [0.6, -0.4], "x0_b": [-0.3, 0.5], "t_final": 1.0, "n_s": 9,
            "stepper": {"kind": "rk4", "dt": 1e-3},
            "u": [{"kind": "expr", "expr": "0.4*sin(2*t)"}]},
}

# one member under Rk4 with an exogenous expression, a state-dependent
# division and nonzero constant inputs: the generated RK4 step's inputs
AUDIT_EXPR = {
    "system": {"n": 2, "q": 1,
               "exo": {"w": {"kind": "expr", "expr": "0.3*sin(2*t)"}},
               "f": ["-x1 + x2", "-x1 - (1 + w)*x2 - x2/(1 + x2^2)"],
               "g": [["0"], ["1"]], "h": ["x2"]},
    "storage": {"M": "identity"},
    "supply": {"W": "identity"},
    "run": dict(RK4_RUN, x0=[0.5, -0.2], dx0=[0.3, 0.4], u=[0.25], du=[0.1]),
}

CASES = {
    "demo-rc": (["demo", "rc", "--seed", "42"], None, {
        "rc_audit.json": "737c66be9719e192ae02f44b86f395b4473fd6d1b7ac73c926b702be61dcabf6",
        "rc_trace.csv": "bf936b328290185e003fdf62dae143f4cb8b051ca0796ec8569f202c91075204",
    }),
    "demo-lti": (["demo", "lti"], None, {
        "lti_report.json": "1b173ef42401dc56f25ff290426fa65b7fdb299af7b41377fa3de7994a96679d",
    }),
    "demo-motor": (["demo", "motor", "--t-final", "2"], None, {
        "motor_report.json": "290db7b76b7084b4fe4692133f010c7af67e213916b3c7e07ca5277e97e5995e",
        "motor_trace.csv": "7f829faa98213c78e41058be14f92a0abe72347fd22233d3f74925d18c951820",
    }),
    "audit-rc": (["audit"], RC_AUDIT, {
        "audit_report.json": "b86304c5a05fe9c6e8496d1b13e9d8c750c7de9b0cb0be9e562b1df1f84e160c",
        "audit_trace.csv": "93de1c6b8dfdfe1bf103e869414ad1a8f3dabfe2c057e358a696f296523b91c0",
    }),
    "audit-expr": (["audit"], AUDIT_EXPR, {
        "audit_report.json": "49cb4455a4c67a8f2ea7aa8cd21191d7654b8d1c4f389dfa923579f30001bfd5",
        "audit_trace.csv": "56d5627a9d7097289727ae86c5d21e1097b8c01ffd758442f28089209d5d98d9",
    }),
    "audit-rc-rk45": (["audit"], RC_AUDIT_RK45, {
        "audit_report.json": "d56f1bbc80a6183261888376c1737101698ad4692e107f4b3e6c416ec262eace",
        "audit_trace.csv": "c5bcae4f684520f950c398b22c94463eda69c57cc173a47745d89bf30a09600a",
    }),
    "interconnect-output": (["interconnect"], OUTPUT_LOOP, {
        "interconnect_report.json":
            "64a800fc1e789c4cb825d91c49200604ce5a069563eb3574df367f3d0e29cc45",
        "interconnect_trace.csv":
            "4283fe141f1b3560c6af18760885a1fc332de25872ffc8ce08c698a489198a94",
    }),
    "interconnect-output-i1": (["interconnect"], _throughput_loop(1), {
        "interconnect_report.json":
            "f242d1a8e17ca96fdeae555af4e0db1ed67d5ff67901dcfb347b43c8773253db",
        "interconnect_trace.csv":
            "7846919a00bfcc1937bafb96c2a37e26b2c2b7e4dac9245b5498b11db2cd3eee",
    }),
    "interconnect-output-i2": (["interconnect"], _throughput_loop(2), {
        "interconnect_report.json":
            "48e939aae0728d48a69fc7820b02276b24c5dda390ad335196ec66ff9f52c142",
        "interconnect_trace.csv":
            "ee599ecf8a41ebc6e212e66a01645829040a78bce14a2a90680db235d595c0e6",
    }),
    "interconnect-state": (["interconnect"], STATE_LOOP, {
        "interconnect_report.json":
            "ab5a28326cf802cca6c4866f3a915ec9edf9f3a066181895883eca1bdb7f91cc",
        "interconnect_trace.csv":
            "6a3a76a474b33c31fa2a43c69df14b0baeb074c217d9ccb12efef794412f7470",
    }),
    "certify-uc": (["certify-uc"], CERT_UC, {
        "certificate_report.json":
            "8cc2f072a1b2858e551f1722df63e2f504566b4541e9f8911cafbf3442852577",
    }),
    "certify-uc-expr": (["certify-uc"], CERT_UC_EXPR, {
        "certificate_report.json":
            "4b627d259dec7d9a606eefd23431c84e81910272ffc29708ff08fb050cd19ff2",
    }),
    "certify-ap": (["certify-ap"], CERT_AP, {
        "certificate_report.json":
            "1e760e355837d1fbfad809b1a7db493c3cd8467987667a44539de20b4d73a6c1",
    }),
    "certify-ap-expr": (["certify-ap"], CERT_AP_EXPR, {
        "certificate_report.json":
            "03d4b30e6856b961b1eabdf2e3f2cadcbdaa0af470d66b4529d15dc587748859",
    }),
    "simulate": (["simulate"], SIMULATE, {
        "trajectory.csv": "33c92405a82042266b649504df827f40ded8ec7859acbf3735832003fc00ee56",
    }),
    "converge-motor": (["converge"], CONVERGE_MOTOR, {
        "convergence_report.json":
            "8f5b4ba9130d91d5d4480ff757cb2623083b839ff506d16a73e58698d4d7107b",
        "convergence_trace.csv":
            "8ee546ee669b173bc0360faa940f96bb81f3b02fef20deec91688ebcd52b6f6c",
    }),
    "homotopy-expr": (["homotopy"], HOMOTOPY_EXPR, {
        "homotopy_report.json":
            "543979a656016176a9fde6c848477e5bc770687b077e11f1d990e1456be077e7",
        "homotopy_trace.csv":
            "58545d53f741d478bd3522770a5b7f72a7ca1b63033cb419ae8fa4289bdd8d20",
    }),
}


def _digests(tmp_path, argv, config, names):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(tmp_path, case):
    argv, config, expected = CASES[case]
    assert _digests(tmp_path, argv, config, expected) == expected


# Each case's generated programs: the number of distinct sources that
# ``exprlang._code`` compiles while the case runs, and the sha256 of their
# sorted sha256 hex digests, one per line.  Recorded before the change that
# drops dead state reads, which none of these sources holds, so a change
# that claims to leave generated programs unchanged is checked here.  The
# audit-rc-rk45, converge-motor, demo-motor and homotopy-expr entries were
# re-recorded when the stack field began to read its own signals and the
# RK4 step to hold constant exogenous values as globals, with the same
# report bytes.  The eleven entries whose programs hold an RK4 run or a dot
# chain with a folded ±0.0 term were re-recorded when a one-member RK4 run
# became one program looping over its steps and those terms stopped adding
# a line, again with the same report bytes.  ``tests/dump_sources.py``
# writes every source a case compiles, so two checkouts can be compared
# with ``diff -r``.
SOURCES = {
    "audit-expr": (7, "2d148e01127277f5560fc45d0ce52d38cbf00bddd7007a40915d4062f9ed5c5d"),
    "audit-rc": (7, "023293b17fab53c02363792224fddd67a88e58f2e3b927b1d98e6dd265b17814"),
    "audit-rc-rk45": (7, "4db9e4cee0c4fd92e23cb0940c53ceb1ef68e3f26ad6e00d3152e19845941a02"),
    "certify-ap": (4, "ec3a8121c7dc7a46af5a73121fde51e71a8aac0747b7104efaed342f5136887f"),
    "certify-ap-expr": (5, "51fe7162eb546951ccd0058a5b74c4856d4968b60529164963656b989f3ac063"),
    "certify-uc": (3, "e9dce10c6f2cc0ac61bd715f18f23c3070464d5d5ecca66a6a4540af5399eb23"),
    "certify-uc-expr": (6, "e68c2d0248881c0bd6bf489e6a7175c09aaf4f609df98d01dc1e272cb03bdf53"),
    "converge-motor": (8, "7e8112d6343126ba7e9d50eb000055db914b4ac635eb226d0f9c81ee689e96e0"),
    "demo-lti": (1, "4323da5b34c6ed42ff56556770491e43c1375989599bf871d4631b13fd8f9e84"),
    "demo-motor": (6, "aa867d33cc34f211b0c755e557a7134904c17ba0e5bfab2a61150322df8b925e"),
    "demo-rc": (5, "ac36ebd27f705b3777ef6c743eddb4cbb734e8db258a250deae5984145569e1b"),
    "homotopy-expr": (8, "67897cfe6ade18817df7f9dd2a7773898809fd4dbba39fe981e1dc2d0f4be931"),
    "interconnect-output": (11, "9b5f7bd1c7c9da1e94434e8b24b7d7ff7b0cc1757f09f1d09c6b9a284989d910"),
    "interconnect-output-i1":
        (16, "108c587dc4905f075b9e654b4239e4f8e05fec28b63ad709604c6187d8a946b1"),
    "interconnect-output-i2":
        (16, "05b9618ce375a56ec10004f7c8c6922e38974eb338ebeea6f258374cfa2e5da8"),
    "interconnect-state": (11, "cb8c01608915d7299928f8e9378c14d586a04de2843514d9d1a28a07f71a9d1a"),
    "simulate": (9, "786c1fbc741015946ad226341e2854586206e572a1a6f21bc1178fc3f140b9a4"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_sources_match_recorded_digests(tmp_path, monkeypatch, case):
    compiled = set()
    code = exprlang._code

    def recording(source, free):
        out = code(source, free)
        compiled.add(hashlib.sha256(out[0].encode()).hexdigest())
        return out

    monkeypatch.setattr(exprlang, "_code", recording)
    argv, config, expected = CASES[case]
    _digests(tmp_path, argv, config, expected)
    digests = "\n".join(sorted(compiled))
    assert (len(compiled), hashlib.sha256(digests.encode()).hexdigest()) == SOURCES[case]
