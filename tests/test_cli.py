import json

import pytest

from diffdiss.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out), "--quiet"]), out


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


SCALAR_SYS = {
    "system": {
        "n": 1, "q": 1,
        "f": ["-x1"], "g": [["1"]], "h": ["x1"],
    },
    "storage": {"M": "identity"},
    "supply": {"W": "identity"},
    "run": {"x0": [1.0], "dx0": [1.0], "u": [{"kind": "expr", "expr": "sin(t)"}],
            "t_final": 1.0},
}


class TestDemos:
    def test_rc_demo_deterministic_bytes(self, tmp_path):
        code1, out1 = run(tmp_path / "a", "demo", "rc", "--seed", "42")
        code2, out2 = run(tmp_path / "b", "demo", "rc", "--seed", "42")
        assert code1 == 0 and code2 == 0
        b1 = (out1 / "rc_audit.json").read_bytes()
        b2 = (out2 / "rc_audit.json").read_bytes()
        assert b1 == b2
        assert (out1 / "rc_trace.csv").read_bytes() == (out2 / "rc_trace.csv").read_bytes()

    def test_rc_demo_seed_changes_report(self, tmp_path):
        _, out1 = run(tmp_path / "a", "demo", "rc", "--seed", "1")
        _, out2 = run(tmp_path / "b", "demo", "rc", "--seed", "2")
        assert (out1 / "rc_audit.json").read_bytes() != (out2 / "rc_audit.json").read_bytes()

    def test_rc_demo_under_rk45_shares_one_grid(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"stepper": {"kind": "rk45", "tol": 1e-8},
                                              "n_trajectories": 4}})
        code, out = run(tmp_path, "demo", "rc", "--config", cfg, "--seed", "7")
        assert code == 0
        report = json.loads((out / "rc_audit.json").read_text())
        assert report["kind"] == "rc-demo" and report["passed"] is True
        assert report["n_trajectories"] == 4
        assert report["worst_violation"] <= report["tolerance"]
        assert report["identity_residual"] <= 1e-8
        lines = (out / "rc_trace.csv").read_text().splitlines()
        assert len(lines) > 2
        assert {len(line.split(",")) for line in lines} == {len(lines[0].split(","))}

    def test_rc_demo_with_one_trajectory(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"n_trajectories": 1}})
        code, out = run(tmp_path, "demo", "rc", "--config", cfg, "--seed", "3")
        assert code == 0
        report = json.loads((out / "rc_audit.json").read_text())
        assert report["passed"] is True and report["n_trajectories"] == 1

    def test_rc_demo_without_trajectories_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"run": {"n_trajectories": 0}})
        code, out = run(tmp_path, "demo", "rc", "--config", cfg)
        assert code == 2
        assert "/run/n_trajectories" in capsys.readouterr().err
        assert (out / "error_report.json").exists()

    def test_lti_demo_passes(self, tmp_path):
        code, out = run(tmp_path, "demo", "lti")
        assert code == 0
        report = json.loads((out / "lti_report.json").read_text())
        assert report["passed"] is True

    def test_lti_demo_unstable_override_fails_with_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "system": {"params": {"A": [[1.0, 1.0], [-1.0, 2.0]]}}
        })
        code, out = run(tmp_path, "demo", "lti", "--config", cfg)
        assert code == 1
        report = json.loads((out / "lti_report.json").read_text())
        assert report["passed"] is False
        margins = {c["name"]: c for c in report["certificate"]["conditions"]}
        assert margins["storage-decay"]["worst"] > 0.0


class TestConfigErrors:
    def test_missing_config_file_exit_2(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert (out / "error_report.json").exists()

    def test_schema_error_reports_json_pointer(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"system": {"n": 1, "q": 1, "f": ["-x1"],
                                                 "g": [["1"]]}})
        code, out = run(tmp_path, "simulate", "--config", cfg)
        captured = capsys.readouterr()
        assert code == 2
        assert "/system/h" in captured.err

    def test_bad_expression_located(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SCALAR_SYS))
        bad["system"]["f"] = ["-x1 +"]
        cfg = write_config(tmp_path, bad)
        code, _ = run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        assert "/system/f/0" in capsys.readouterr().err

    def test_unknown_variable_located(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SCALAR_SYS))
        bad["system"]["f"] = ["-x2"]
        cfg = write_config(tmp_path, bad)
        code, _ = run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        assert "x2" in capsys.readouterr().err

    def test_ragged_matrix_located(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "system": {"n": 2, "q": 1, "f": ["-x1", "-x2"], "g": [["1"], ["1", "5"]],
                       "h": ["x1"]},
            "run": {"x0": [1.0, 0.0], "t_final": 0.2},
        })
        code, out = run(tmp_path, "simulate", "--config", cfg, "--dt", "0.1")
        assert code == 2
        assert "/system/g/1" in capsys.readouterr().err
        assert (out / "error_report.json").exists()

    def test_certify_rejects_projector(self, tmp_path, capsys):
        for command, extra in (("certify-uc", {"pi": [[1.0]]}),
                               ("certify-ap", {"system": dict(SCALAR_SYS["system"], i=[["1"]])})):
            cfg_data = json.loads(json.dumps(SCALAR_SYS))
            cfg_data.update(extra)
            cfg_data["storage"] = {"M": [["1"]], "projector": [["1"]]}
            cfg = write_config(tmp_path, cfg_data)
            code, out = run(tmp_path / command, command, "--config", cfg)
            assert code == 2
            assert "/storage/projector" in capsys.readouterr().err
            error = json.loads((out / "error_report.json").read_text())
            assert "/storage/projector" in error["error"]

    def test_lti_demo_rejects_projector(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"storage": {"M": "identity",
                                                  "projector": [["1", "0"], ["0", "1"]]}})
        code, out = run(tmp_path, "demo", "lti", "--config", cfg)
        assert code == 2
        assert "/storage/projector" in capsys.readouterr().err
        error = json.loads((out / "error_report.json").read_text())
        assert "/storage/projector" in error["error"]


def _assert_located(tmp_path, capsys, command, base, keys, value, pointer, flags=()):
    """``command`` on ``base`` with ``value`` set at ``keys`` (if any) and
    ``flags`` exits 2 with a config error at ``pointer``, on stderr and in
    the error report."""
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    if keys:
        node[keys[-1]] = value
    code, out = run(tmp_path, *command.split(), "--config", write_config(tmp_path, cfg), *flags)
    assert code == 2
    assert f"config error at {pointer}:" in capsys.readouterr().err
    error = json.loads((out / "error_report.json").read_text())
    assert f"config error at {pointer}:" in error["error"]


class TestLocatedConfigErrors:
    """Registry and run parameters of the wrong type exit 2 with a JSON pointer."""

    RC = {"system": {"registry": "rc"}, "run": {"x0": [0.2], "t_final": 0.1}}
    CERT = dict(SCALAR_SYS, pi=[[1.0]], grid={"lo": [-1.0], "hi": [1.0], "counts": [3]})
    RC_FROM_ZERO = {"system": {"registry": "rc", "params": {"q_range": [0.0, 1.0]}},
                    "run": {"x0": [0.2], "t_final": 0.1}}
    CERT_RANDOM = dict(CERT, grid=dict(CERT["grid"], extra_random=2))
    CONVERGE = dict(SCALAR_SYS, run=dict(SCALAR_SYS["run"], x0_b=[0.5]))
    LOOP = dict(SCALAR_SYS, run={"x0": [0.5, -0.2], "t_final": 0.1, "seed": 3},
                interconnect={"coupling": "state", "system2": SCALAR_SYS["system"],
                              "storage2": {"M": "identity"}, "supply2": {"W": "identity"},
                              "k1": ["x1"], "k2": ["x1"]})
    CASES = [
        ("audit", RC, ("system", "params", "R"), "abc", "/system/params/R"),
        ("audit", RC, ("system", "params", "q_range"), "ab", "/system/params/q_range"),
        ("audit", RC, ("system", "params", "q_range"), [0.0, "1"], "/system/params/q_range/1"),
        ("audit", RC, ("system", "params", "q_range"), [-1.0, 0.0, 1.0], "/system/params/q_range"),
        ("audit", RC, ("system", "params", "mu"), 5, "/system/params/mu"),
        ("audit", RC, ("system", "params", "mu"), "q +", "/system/params/mu"),
        ("audit", RC, ("system", "params", "mu"), "q + z", "/system/params/mu"),
        ("audit", RC, ("system", "params"), [1.0], "/system/params"),
        ("audit", RC, ("run", "tol"), "tight", "/run/tol"),
        ("audit", SCALAR_SYS, ("run",), [1.0], "/run"),
        ("demo rc", {}, ("system", "params", "R"), "abc", "/system/params/R"),
        ("demo rc", {}, ("system",), "rc", "/system"),
        ("demo rc", {}, ("run", "t_final"), "1", "/run/t_final"),
        ("demo rc", {}, ("run", "n_trajectories"), 2.5, "/run/n_trajectories"),
        ("demo rc", {}, ("run", "seed"), "7", "/run/seed"),
        ("demo motor", {}, ("run", "t_final"), None, "/run/t_final"),
        ("demo motor", {}, ("system", "registry"), "rc", "/system/registry"),
        ("demo motor", {}, ("system",), "motor", "/system"),
        ("demo lti", {}, ("run", "seed"), True, "/run/seed"),
        ("homotopy", dict(SCALAR_SYS, run=dict(SCALAR_SYS["run"], x0_b=[0.5])),
         ("run", "n_s"), "9", "/run/n_s"),
        ("converge", dict(SCALAR_SYS, run=dict(SCALAR_SYS["run"], x0_b=[0.5])),
         ("run", "bound"), "big", "/run/bound"),
        ("converge", dict(SCALAR_SYS, run=dict(SCALAR_SYS["run"], x0_b=[0.5])),
         ("run", "n_s"), 4.5, "/run/n_s"),
        # integer keys are read as integers, not truncated
        ("audit", SCALAR_SYS, ("system", "n"), 1.5, "/system/n"),
        ("audit", SCALAR_SYS, ("system", "n"), 0, "/system/n"),
        ("audit", SCALAR_SYS, ("system", "q"), 1.5, "/system/q"),
        ("certify-uc", CERT, ("grid", "counts"), [2.5], "/grid/counts/0"),
        ("certify-uc", CERT, ("grid", "extra_random"), 1.5, "/grid/extra_random"),
        ("certify-uc", CERT, ("grid", "seed"), 2.5, "/grid/seed"),
        # a grid of the wrong dimension, and points of the wrong length
        ("certify-uc", CERT, ("grid", "lo"), [-1.0, -1.0], "/grid/lo"),
        ("certify-uc", CERT, ("pi",), [[1.0], [0.0]], "/pi"),
        ("demo lti", {}, ("pi",), [[1.0, 0.0]], "/pi"),
        ("converge", CONVERGE, ("run", "x0_b"), [0.5, 0.1], "/run/x0_b"),
        ("audit", SCALAR_SYS, ("run", "dx0"), [1.0, 0.0], "/run/dx0"),
        # a shape error is reported at the map's own pointer
        ("interconnect", LOOP, ("interconnect", "k2"), ["x1", "x1"], "/interconnect/k2"),
        ("interconnect", LOOP, ("interconnect", "storage2", "M"), [["1", "0"]],
         "/interconnect/storage2/M/0"),
        # a sampled signal the signal itself rejects, at the signal's pointer
        ("audit", SCALAR_SYS, ("run", "u"), {"kind": "sampled", "times": [0, 1], "values": [0]},
         "/run/u/0"),
        ("audit", SCALAR_SYS, ("run", "du"),
         [{"kind": "sampled", "times": [0, 1, 1], "values": [0, 1, 2]}], "/run/du/0"),
        ("audit", SCALAR_SYS, ("system", "exo"),
         {"w": {"kind": "sampled", "times": [0], "values": [0]}}, "/system/exo/w"),
    ]

    # numbers out of their range, and RC laws the model rejects
    OUT_OF_RANGE = [
        # run and grid numbers, each at its own key
        ("audit", SCALAR_SYS, ("run", "stepper"), {"kind": "rk4", "dt": 0}, "/run/stepper/dt"),
        ("audit", SCALAR_SYS, ("run", "stepper"), {"kind": "rk45", "tol": -1},
         "/run/stepper/tol"),
        ("audit", SCALAR_SYS, ("run", "t_final"), -1, "/run/t_final"),
        ("homotopy", CONVERGE, ("run", "n_s"), 1, "/run/n_s"),
        ("converge", CONVERGE, ("run", "n_s"), 2, "/run/n_s"),
        ("certify-uc", CERT_RANDOM, ("grid", "seed"), -1, "/grid/seed"),
        ("certify-uc", CERT, ("grid", "extra_random"), -1, "/grid/extra_random"),
        ("interconnect", LOOP, ("run", "seed"), -1, "/run/seed"),
        ("converge", CONVERGE, ("run", "bound"), -1.0, "/run/bound"),
        ("converge", CONVERGE, ("run", "bound"), 0.0, "/run/bound"),
        # RC parameters the model rejects
        ("audit", RC, ("system", "params", "R"), -1.0, "/system/params/R"),
        ("audit", RC_FROM_ZERO, ("system", "params", "mu"), "q + sqrt(abs(q))",
         "/system/params/mu"),
    ]

    # no number is nan, and the positive keys and run.tol are finite
    NON_FINITE = [
        ("audit", SCALAR_SYS, ("run", "stepper"), {"kind": "rk4", "dt": float("inf")},
         "/run/stepper/dt"),
        ("audit", SCALAR_SYS, ("run", "t_final"), float("inf"), "/run/t_final"),
        ("audit", SCALAR_SYS, ("run", "tol"), float("nan"), "/run/tol"),
        ("audit", SCALAR_SYS, ("run", "x0"), [float("nan")], "/run/x0/0"),
        ("audit", SCALAR_SYS, ("run", "u"), [float("nan")], "/run/u/0"),
        ("audit", RC, ("system", "params", "R"), float("inf"), "/system/params/R"),
    ]

    # command-line flags go through the readers of their config keys
    FLAGS = [
        ("audit", SCALAR_SYS, ("--t-final", "nan"), "--t-final"),
        ("audit", SCALAR_SYS, ("--t-final", "-1"), "--t-final"),
        ("audit", SCALAR_SYS, ("--t-final", "inf"), "--t-final"),
        ("audit", SCALAR_SYS, ("--dt", "0"), "--dt"),
        ("audit", SCALAR_SYS, ("--dt", "nan"), "--dt"),
        ("demo motor", {}, ("--dt", "0"), "--dt"),
        ("audit", SCALAR_SYS, ("--tol", "nan"), "--tol"),
        ("interconnect", LOOP, ("--seed", "-1"), "--seed"),
    ]

    @pytest.mark.parametrize("command, base, keys, value, pointer", CASES,
                             ids=[f"{c[0]}:{c[4]}" for c in CASES])
    def test_located(self, tmp_path, capsys, command, base, keys, value, pointer):
        _assert_located(tmp_path, capsys, command, base, keys, value, pointer)

    @pytest.mark.parametrize("command, base, keys, value, pointer", OUT_OF_RANGE,
                             ids=[f"{c[0]}:{c[4]}" for c in OUT_OF_RANGE])
    def test_out_of_range_located(self, tmp_path, capsys, command, base, keys, value, pointer):
        _assert_located(tmp_path, capsys, command, base, keys, value, pointer)

    @pytest.mark.parametrize("command, base, keys, value, pointer", NON_FINITE,
                             ids=[f"{c[0]}:{c[4]}" for c in NON_FINITE])
    def test_non_finite_located(self, tmp_path, capsys, command, base, keys, value, pointer):
        _assert_located(tmp_path, capsys, command, base, keys, value, pointer)

    @pytest.mark.parametrize("command, base, flags, pointer", FLAGS,
                             ids=[f"{c[0]}:{' '.join(c[2])}" for c in FLAGS])
    def test_flag_located(self, tmp_path, capsys, command, base, flags, pointer):
        _assert_located(tmp_path, capsys, command, base, (), None, pointer, flags)

    def test_integral_numbers_still_accepted(self, tmp_path):
        cfg = {"system": {"params": {"R": 2, "q_range": [-1, 1]}},
               "run": {"n_trajectories": 2.0, "seed": 5.0, "t_final": 1, "tol": 1}}
        code, out = run(tmp_path, "demo", "rc", "--config", write_config(tmp_path, cfg))
        assert code == 0
        report = json.loads((out / "rc_audit.json").read_text())
        assert report["n_trajectories"] == 2 and report["seed"] == 5


class TestCommands:
    def test_simulate_writes_csv_with_header(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_SYS)
        code, out = run(tmp_path, "simulate", "--config", cfg)
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x_1,dx_1,u_1,du_1,y_1,dy_1,S,Q,slack"
        assert len(lines) > 100

    def test_simulate_json_format(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_SYS)
        code, out = run(tmp_path, "simulate", "--config", cfg, "--format", "json")
        assert code == 0
        payload = json.loads((out / "trajectory.json").read_text())
        assert payload["kind"] == "trajectory"
        assert len(payload["t"]) == len(payload["x"])

    @pytest.mark.parametrize("argv", [
        ["audit"], ["certify-uc"], ["certify-ap"], ["interconnect"], ["homotopy"],
        ["converge"], ["demo", "rc"],
    ], ids=lambda argv: "-".join(argv))
    def test_format_is_rejected_where_it_means_nothing(self, tmp_path, capsys, argv):
        # only simulate writes its trace in a chosen format; elsewhere the
        # flag is a usage error, not silently ignored
        cfg = write_config(tmp_path, SCALAR_SYS)
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv, "--config", cfg, "--format", "json")
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_audit_pass_and_files(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_SYS)
        code, out = run(tmp_path, "audit", "--config", cfg)
        assert code == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["passed"] is True
        assert (out / "audit_trace.csv").exists()

    def test_audit_failure_exit_1_report_written(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["system"]["f"] = ["x1"]  # anti-passive
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "audit", "--config", cfg)
        assert code == 1
        report = json.loads((out / "audit_report.json").read_text())
        assert report["passed"] is False

    def test_audit_identity_storage_keeps_projector(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["storage"] = {"M": "identity", "projector": [["0"]]}
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "audit", "--config", cfg)
        assert code == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["storage_initial"] == 0.0

    def test_audit_nonfinite_storage_located(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["storage"] = {"M": [["1e200*x1"]]}
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "audit", "--config", cfg)
        assert code == 1
        error = json.loads((out / "error_report.json").read_text())
        assert error["error"] == "NumericalError: storage column S is not finite at t=0"

    def test_certify_uc(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["pi"] = [[1.0]]
        cfg_data["grid"] = {"lo": [-2.0], "hi": [2.0], "counts": [21]}
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "certify-uc", "--config", cfg)
        assert code == 0
        report = json.loads((out / "certificate_report.json").read_text())
        assert report["passed"] is True

    def test_certify_ap(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["system"]["i"] = [["1"]]
        cfg_data["grid"] = {"lo": [-1.0], "hi": [1.0], "counts": [5]}
        cfg_data["grid_u"] = {"lo": [-1.0], "hi": [1.0], "counts": [3]}
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "certify-ap", "--config", cfg)
        assert code == 0

    def test_homotopy(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["run"]["x0_b"] = [2.0]
        cfg_data["run"]["u"] = None
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "homotopy", "--config", cfg)
        assert code == 0
        lines = (out / "homotopy_trace.csv").read_text().splitlines()
        assert lines[0] == "t,L,gap"

    def test_converge(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["supply"] = {"W": "identity", "strictness": "output"}
        cfg_data["run"]["x0_b"] = [2.0]
        cfg_data["run"]["t_final"] = 6.0
        cfg_data["run"]["tol"] = 1e-2
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "converge", "--config", cfg)
        assert code == 0
        report = json.loads((out / "convergence_report.json").read_text())
        assert report["barbalat_ok"] is True

    def test_interconnect_output_coupling(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["interconnect"] = {
            "coupling": "output",
            "system2": {"n": 1, "q": 1, "f": ["-x1"], "g": [["1"]], "h": ["x1"]},
            "storage2": {"M": "identity"},
            "supply2": {"W": "identity"},
        }
        cfg_data["run"] = {"x0": [1.0, -0.5], "dx0": [0.5, 0.5], "t_final": 2.0}
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "interconnect", "--config", cfg)
        assert code == 0
        assert (out / "interconnect_report.json").exists()

    def test_motor_demo(self, tmp_path):
        code, out = run(tmp_path, "demo", "motor", "--t-final", "10")
        assert code == 0
        report = json.loads((out / "motor_report.json").read_text())
        assert report["passed"] is True
        assert report["regulation_ratio"] <= 1e-3

    def test_numerical_blowup_exit_1_with_error_report(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCALAR_SYS))
        cfg_data["system"]["f"] = ["x1^3"]  # finite-time escape
        cfg_data["run"]["t_final"] = 5.0
        cfg = write_config(tmp_path, cfg_data)
        code, out = run(tmp_path, "simulate", "--config", cfg)
        assert code == 1
        report = json.loads((out / "error_report.json").read_text())
        assert report["passed"] is False
        assert "error" in report


_NAN_GAIN = [["0"], ["1 + ((x2^16)^16)^2 - ((x2^16)^16)^2"]]  # nan once |x2| >= 5


def _nan_gain_config(lo, hi):
    return {
        "system": {"n": 2, "q": 1, "f": ["-x1", "-x2"], "g": _NAN_GAIN, "h": ["x2"]},
        "storage": {"M": "identity"},
        "supply": {"W": "identity"},
        "pi": [[0.0], [1.0]],
        "grid": {"lo": [lo, lo], "hi": [hi, hi], "counts": [5, 5]},
    }


def test_parser_built_once_gives_each_call_its_own_defaults(tmp_path, monkeypatch):
    import diffdiss.cli as cli

    seen = []

    def recording(table, name):
        command = table[name]

        def recorded(cfg, args, out_dir):
            seen.append(vars(args).copy())
            return command(cfg, args, out_dir)

        monkeypatch.setitem(table, name, recorded)

    for table, name in ((cli._COMMANDS, "audit"), (cli._COMMANDS, "certify-uc"),
                        (cli._DEMOS, "lti")):
        recording(table, name)
    cfg_data = json.loads(json.dumps(SCALAR_SYS))
    cfg_data["pi"] = [[1.0]]
    cfg_data["grid"] = {"lo": [-2.0], "hi": [2.0], "counts": [21]}
    cfg = write_config(tmp_path, cfg_data)
    assert run(tmp_path, "audit", "--config", cfg, "--dt", "0.01")[0] == 0
    assert run(tmp_path, "certify-uc", "--config", cfg)[0] == 0
    assert run(tmp_path, "demo", "lti", "--t-final", "0.5")[0] == 0
    assert run(tmp_path, "audit", "--config", cfg)[0] == 0
    assert cli._parser() is cli._parser()
    common = {"out": str(tmp_path / "out"), "format": "csv", "tol": None, "seed": None,
              "quiet": True}
    assert seen == [
        dict(common, command="audit", config=cfg, t_final=None, dt=0.01),
        dict(common, command="certify-uc", config=cfg, t_final=None, dt=None),
        dict(common, command="demo", model="lti", config=None, t_final=0.5, dt=None),
        dict(common, command="audit", config=cfg, t_final=None, dt=None),
    ]


class TestNonFiniteCertificate:
    """A nan certificate value is an error (exit 1, error report), never a
    silent PASS or a crash in the writer."""

    def test_some_points_nan(self, tmp_path):
        cfg = write_config(tmp_path, _nan_gain_config(-10.0, 10.0))
        code, out = run(tmp_path, "certify-uc", "--config", cfg)
        assert code == 1
        assert not (out / "certificate_report.json").exists()
        error = json.loads((out / "error_report.json").read_text())
        assert error["error"] == ("NumericalError: certificate condition input-gain-constancy "
                                  "is not finite at x = (-10.0, -10.0)")

    def test_every_point_nan(self, tmp_path):
        cfg = write_config(tmp_path, _nan_gain_config(5.0, 10.0))
        code, out = run(tmp_path, "certify-uc", "--config", cfg)
        assert code == 1
        error = json.loads((out / "error_report.json").read_text())
        assert error["error"] == ("NumericalError: certificate condition input-gain-constancy "
                                  "is not finite at x = (5.0, 5.0)")


# the report the per-point checker wrote for the registry RC circuit
_RC_UC_REPORT = (
    '{"kind": "certificate", "passed": true, "n_points": 21, "conditions": ['
    '{"name": "storage-decay", "kind": "nsd-margin", "worst": -1.0, '
    '"threshold": 1.0000000000000001e-09, "passed": true, "point": [0.0]}, '
    '{"name": "input-gain-constancy", "kind": "residual", "worst": 0.0, '
    '"threshold": 1e-08, "passed": true, "point": [-2.0]}, '
    '{"name": "output-supply-match", "kind": "residual", "worst": 1.1102230246251565e-16, '
    '"threshold": 1e-08, "passed": true, "point": [-1.3999999999999999]}]}\n'
)


def test_certify_uc_rc_registry_report_bytes(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"registry": "rc", "params": {"mu": "q + q^3"}},
        "pi": [[1.0]],
        "grid": {"lo": [-2.0], "hi": [2.0], "counts": [21]},
    })
    code, out = run(tmp_path, "certify-uc", "--config", cfg)
    assert code == 0
    assert (out / "certificate_report.json").read_text() == _RC_UC_REPORT


class TestExoNames:
    def test_exo_named_like_a_state_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "system": {"n": 1, "q": 1, "exo": {"x1": {"kind": "constant", "value": 5}},
                       "f": ["-x1"], "g": [["1"]], "h": ["x1"]},
            "run": {"x0": [1.0], "dx0": [0.0], "t_final": 1.0},
        })
        code, out = run(tmp_path, "simulate", "--config", cfg, "--dt", "0.1")
        assert code == 2
        assert "/system/exo/x1" in capsys.readouterr().err
        error = json.loads((out / "error_report.json").read_text())
        assert "/system/exo/x1" in error["error"]

    def test_sibling_exo_cannot_shadow_a_state(self, tmp_path):
        # system 2 has only the state x1, so it may name a signal x2; the loop
        # merges it into the e both subsystems see, where system 1 has a state x2
        def config(name):
            return {
                "system": {"n": 2, "q": 1, "f": ["x2 - x1", "-x1 - x2"],
                           "g": [["1"], ["0"]], "h": ["x1"]},
                "storage": {"M": "identity"},
                "supply": {"W": "identity"},
                "interconnect": {
                    "coupling": "output",
                    "system2": {"n": 1, "q": 1, "exo": {name: {"kind": "expr", "expr": "sin(t)"}},
                                "f": [f"-x1 + 0.5*{name}"], "g": [["1"]], "h": ["x1"]},
                    "storage2": {"M": "identity"},
                    "supply2": {"W": "identity"},
                },
                "run": {"x0": [1.0, -0.5, 0.2], "dx0": [0.5, 0.5, 0.1], "t_final": 1.0},
            }

        outs = []
        for name in ("x2", "w"):
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, config(name))
            code, out = run(tmp_path / name, "interconnect", "--config", cfg)
            assert code in (0, 1)
            outs.append(out)
        for file in ("interconnect_report.json", "interconnect_trace.csv"):
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()


def test_library_does_not_call_the_reference_interpreter(tmp_path, monkeypatch):
    import diffdiss
    from diffdiss import exprlang

    def refuse(*args, **kwargs):
        raise AssertionError("exprlang.evaluate was called")

    monkeypatch.setattr(exprlang, "evaluate", refuse)
    monkeypatch.setattr(diffdiss, "evaluate", refuse)
    state_loop = {
        "system": {"n": 1, "q": 1, "f": ["-0.3*x1"], "g": [["1/(1 + 3*x1^2)"]], "h": ["x1"]},
        "storage": {"M": [["1 + 3*x1^2"]]},
        "supply": {"W": [["1 + 3*x1^2"]]},
        "run": {"x0": [0.5, -0.2], "dx0": [1.0, 0.5], "t_final": 0.2, "seed": 3,
                "u": [{"kind": "expr", "expr": "0.5*sin(2*t)"}, 0.0]},
    }
    state_loop["interconnect"] = {
        "coupling": "state", "system2": state_loop["system"],
        "storage2": state_loop["storage"], "supply2": state_loop["supply"],
        "k1": ["x1 + x1^3"], "k2": ["x1 + x1^3"],
    }
    audit_cfg = dict(state_loop, run={"x0": [0.5], "dx0": [1.0], "t_final": 0.2,
                                      "u": [{"kind": "expr", "expr": "sin(t)"}]})
    uc_cfg = {
        "system": {"n": 2, "q": 1, "f": ["-x1 - x1^3 + x2", "-x1 - x2 - x2^3"],
                   "g": [["0"], ["1"]], "h": ["x2"]},
        "storage": {"M": "identity"},
        "supply": {"W": "identity"},
        "pi": [[0.0], [1.0]],
        "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [5, 5]},
    }
    for command, cfg in (("audit", audit_cfg), ("interconnect", state_loop),
                         ("certify-uc", uc_cfg)):
        (tmp_path / command).mkdir()
        path = write_config(tmp_path / command, cfg)
        code, out = run(tmp_path / command, command, "--config", path)
        assert code == 0, (out / "error_report.json").read_text()


class TestDeepExpressions:
    """An expression nested past ``exprlang.MAX_DEPTH`` is a config error at
    its key; a loop of two constituents at the limit builds and runs."""

    def test_deep_sum_is_located(self, tmp_path, capsys):
        deep = " + ".join(["x1"] * 1200)
        _assert_located(tmp_path, capsys, "audit", SCALAR_SYS, ("system", "f"), [deep],
                        "/system/f/0")
        error = json.loads((tmp_path / "out" / "error_report.json").read_text())
        assert "nested deeper than" in error["error"]

    def test_state_loop_of_constituents_at_the_limit(self, tmp_path):
        from diffdiss.exprlang import MAX_DEPTH, ParseError, parse

        def at_limit(head: str, pad: str) -> str:
            """``head`` with ``pad`` appended until it nests MAX_DEPTH levels."""
            text = head
            while True:
                try:
                    parse(text + pad)
                except ParseError:
                    return text
                text += pad

        f = at_limit("-0.250000*x1", " + 0*x1")
        k = at_limit("x1 + x1^3", " + 0*x1")
        m = at_limit("1 + 3*x1^2", " + 0*x1")
        for text in (f, k, m):
            parse(text)
            with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
                parse(f"({text})")
        plant = {"n": 1, "q": 1, "f": [f], "g": [["1/(1 + 3*x1^2)"]], "h": ["x1"]}
        cfg = {
            "system": plant, "storage": {"M": [[m]]}, "supply": {"W": [[m]]},
            "interconnect": {"coupling": "state", "system2": plant, "storage2": {"M": [[m]]},
                             "supply2": {"W": [[m]]}, "k1": [k], "k2": [k]},
            "run": {"x0": [0.5, -0.3], "dx0": [0.2, 0.9], "t_final": 0.2, "seed": 11},
        }
        code, out = run(tmp_path, "interconnect", "--config", write_config(tmp_path, cfg))
        assert code == 0
        report = json.loads((out / "interconnect_report.json").read_text())
        assert report["passed"]
