"""Byte-identity gate for reports and CSV traces.

Every file below is compared by sha256 against a digest recorded before the
speed-ups that claim to leave outputs unchanged.  A change that moves any
byte of a demo, an RC audit, an output- or state-coupled loop, a certificate,
a plain simulation or the motor's output convergence fails here,
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
    "interconnect-output": (["interconnect"], OUTPUT_LOOP, {
        "interconnect_report.json":
            "64a800fc1e789c4cb825d91c49200604ce5a069563eb3574df367f3d0e29cc45",
        "interconnect_trace.csv":
            "4283fe141f1b3560c6af18760885a1fc332de25872ffc8ce08c698a489198a94",
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
    "certify-ap": (["certify-ap"], CERT_AP, {
        "certificate_report.json":
            "1e760e355837d1fbfad809b1a7db493c3cd8467987667a44539de20b4d73a6c1",
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
