import json

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
