"""Byte-identity gate for reports and CSV traces.

Every file below is compared by sha256 against a digest recorded before the
speed-ups that claim to leave outputs unchanged.  A change that moves any
byte of a demo, an RC audit or an output- or state-coupled loop fails here,
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
