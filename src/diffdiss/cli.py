"""Command-line entry point.

Subcommands load a JSON experiment config, run the requested analysis, and
emit machine-readable reports (deterministic JSON, 17 significant digits)
plus plot-ready CSV traces.  Exit codes: 0 all checks passed, 1 a
verification failed or a numerical run aborted (report still written),
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import exprlang
from .dissipativity import (
    GridSpec,
    QuadraticDifferentialStorage,
    SupplyRate,
    audit,
    check_ap,
    check_uc,
)
from .examples import (
    MotorParams,
    RcParams,
    induction_motor_virtual,
    lti,
    motor_feedforward,
    motor_flux_margins,
    rc_circuit,
)
from .incremental import (
    homotopy_integrate,
    verify_nonexpansion,
    verify_output_convergence,
)
from .interconnect import check_equalization, output_feedback, state_feedback
from .numerics import Rk4, Rk45, sin as d_sin
from .serialize import write_json, write_length_gap_csv, write_trace_csv
from .systems import Signal, simulate_ensemble, simulate_prolonged


class ConfigError(Exception):
    """Config validation failure, located by a JSON pointer."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path or '/'}: {message}")
        self.path = path


def _get(cfg: dict, path: str, key: str, required: bool = False, default=None):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}/{key}", "missing required key")
        return default
    return cfg[key]


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if not float(value).is_integer():
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_float_list(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list of numbers")
    return [_as_float(v, f"{path}/{k}") for k, v in enumerate(value)]


def _as_matrix(value, path: str) -> list[list[float]]:
    if not isinstance(value, list) or not value or not isinstance(value[0], list):
        raise ConfigError(path, "expected a nested list (matrix)")
    return [_as_float_list(row, f"{path}/{r}") for r, row in enumerate(value)]


# ---------------------------------------------------------------------------
# expression and signal builders


def _parse_expr(text, path: str) -> exprlang.Expr:
    if not isinstance(text, str):
        raise ConfigError(path, "expected an expression string")
    try:
        return exprlang.parse(text)
    except exprlang.ParseError as err:
        raise ConfigError(path, str(err)) from None


def _check_vars(ast, allowed: set[str], path: str) -> None:
    extra = exprlang.variables(ast) - allowed
    if extra:
        raise ConfigError(path, f"unknown variable(s) {sorted(extra)}")


def _vector_fn(entries, names: list[str], exo_names: set[str], path: str):
    if not isinstance(entries, list):
        raise ConfigError(path, "expected a list of expression strings")
    asts = [_parse_expr(s, f"{path}/{k}") for k, s in enumerate(entries)]
    allowed = set(names) | exo_names
    for k, ast in enumerate(asts):
        _check_vars(ast, allowed, f"{path}/{k}")
    return exprlang.compile_map(asts, names, exo_names), len(asts)


def _matrix_fn(entries, names: list[str], exo_names: set[str], path: str):
    if not isinstance(entries, list) or not entries or not isinstance(entries[0], list):
        raise ConfigError(path, "expected a nested list of expression strings")
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != len(entries[0]):
            raise ConfigError(f"{path}/{r}", f"expected a row of {len(entries[0])} "
                                             "expression strings, like row 0")
    asts = [
        [_parse_expr(s, f"{path}/{r}/{c}") for c, s in enumerate(row)]
        for r, row in enumerate(entries)
    ]
    allowed = set(names) | exo_names
    for r, row in enumerate(asts):
        for c, ast in enumerate(row):
            _check_vars(ast, allowed, f"{path}/{r}/{c}")
    return exprlang.compile_matrix(asts, names, exo_names), (len(asts), len(asts[0]))


def _signal(spec, path: str) -> Signal:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Signal.constant(float(spec))
    if not isinstance(spec, dict):
        raise ConfigError(path, "signal must be a number or an object with a 'kind'")
    kind = _get(spec, path, "kind", required=True)
    if kind == "zero":
        return Signal.zero()
    if kind == "constant":
        return Signal.constant(_as_float(_get(spec, path, "value", required=True), f"{path}/value"))
    if kind == "expr":
        text = _get(spec, path, "expr", required=True)
        ast = _parse_expr(text, f"{path}/expr")
        _check_vars(ast, {"t"}, f"{path}/expr")
        return Signal.from_expr(ast)
    if kind == "sampled":
        times = _as_float_list(_get(spec, path, "times", required=True), f"{path}/times")
        values = _as_float_list(_get(spec, path, "values", required=True), f"{path}/values")
        return Signal.sampled(times, values)
    raise ConfigError(f"{path}/kind", f"unknown signal kind {kind!r}")


def _signal_vector(spec, q: int, path: str) -> list[Signal]:
    if spec is None:
        return [Signal.zero() for _ in range(q)]
    if not isinstance(spec, list):
        spec = [spec]
    sigs = [_signal(s, f"{path}/{k}") for k, s in enumerate(spec)]
    if len(sigs) != q:
        raise ConfigError(path, f"expected {q} signals, got {len(sigs)}")
    return sigs


# ---------------------------------------------------------------------------
# system / storage / supply builders


def _state_names(n: int) -> list[str]:
    return [f"x{k + 1}" for k in range(n)]


def _build_expr_system(spec: dict, path: str):
    n = int(_as_float(_get(spec, path, "n", required=True), f"{path}/n"))
    q = int(_as_float(_get(spec, path, "q", required=True), f"{path}/q"))
    exo_spec = _get(spec, path, "exo", default={}) or {}
    if not isinstance(exo_spec, dict):
        raise ConfigError(f"{path}/exo", "expected an object of named signals")
    names = _state_names(n)
    exo = {}
    for name, s in exo_spec.items():
        if name in names:
            raise ConfigError(f"{path}/exo/{name}", f"exogenous signal {name!r} shadows a state")
        exo[name] = _signal(s, f"{path}/exo/{name}")
    exo_names = set(exo)
    f, nf = _vector_fn(_get(spec, path, "f", required=True), names, exo_names, f"{path}/f")
    if nf != n:
        raise ConfigError(f"{path}/f", f"expected {n} entries, got {nf}")
    g, gshape = _matrix_fn(_get(spec, path, "g", required=True), names, exo_names, f"{path}/g")
    if gshape != (n, q):
        raise ConfigError(f"{path}/g", f"expected {n}x{q} entries, got {gshape[0]}x{gshape[1]}")
    h, nh = _vector_fn(_get(spec, path, "h", required=True), names, exo_names, f"{path}/h")
    if nh != q:
        raise ConfigError(f"{path}/h", f"expected {q} entries, got {nh}")
    i_fn = None
    if _get(spec, path, "i") is not None:
        i_fn, ishape = _matrix_fn(spec["i"], names, exo_names, f"{path}/i")
        if ishape != (q, q):
            raise ConfigError(f"{path}/i", f"expected {q}x{q} entries")
    from .systems import DynSystem

    return DynSystem(n, q, f, g, h, i=i_fn, exo=exo, name="config-system")


def _build_system(cfg: dict, path: str = "/system"):
    """Returns (system, bundle) where bundle may carry registry extras."""
    spec = _get(cfg, "", "system", required=True)
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    registry = _get(spec, path, "registry")
    if registry is None:
        return _build_expr_system(spec, path), None
    params = _registry_params(spec, path)
    if registry == "rc":
        bundle = _rc_bundle(params, f"{path}/params")
        return bundle.system, bundle
    if registry == "motor":
        kwargs = {}
        for key in ("R_r", "R_s", "L_r", "L_s", "L_l", "kappa_r", "kappa_s"):
            if key in params:
                kwargs[key] = _as_float(params[key], f"{path}/params/{key}")
        for key in ("omega_r", "omega_s"):
            if key in params:
                kwargs[key] = _signal(params[key], f"{path}/params/{key}")
        if "phi_r_ref" in params:
            ref = params["phi_r_ref"]
            if not isinstance(ref, list) or len(ref) != 2:
                raise ConfigError(f"{path}/params/phi_r_ref", "expected two signal specs")
            kwargs["phi_r_ref"] = (
                _signal(ref[0], f"{path}/params/phi_r_ref/0"),
                _signal(ref[1], f"{path}/params/phi_r_ref/1"),
            )
        bundle = induction_motor_virtual(MotorParams(**kwargs))
        return bundle.system, bundle
    if registry == "lti":
        a = _as_matrix(_get(params, f"{path}/params", "A", required=True), f"{path}/params/A")
        b = _as_matrix(_get(params, f"{path}/params", "B", required=True), f"{path}/params/B")
        c = _as_matrix(_get(params, f"{path}/params", "C", required=True), f"{path}/params/C")
        d = params.get("D")
        if d is not None:
            d = _as_matrix(d, f"{path}/params/D")
        try:
            return lti(a, b, c, d), None
        except ValueError as err:
            raise ConfigError(f"{path}/params", str(err)) from None
    raise ConfigError(f"{path}/registry", f"unknown registry name {registry!r}")


def _registry_params(spec: dict, path: str) -> dict:
    params = _get(spec, path, "params", default={}) or {}
    if not isinstance(params, dict):
        raise ConfigError(f"{path}/params", "expected an object")
    return params


def _rc_bundle(params: dict, path: str):
    """The registry RC circuit from its ``params`` object at ``path``."""
    R = _as_float(params.get("R", 1.0), f"{path}/R")
    mu = _parse_expr(params.get("mu", "q + q^3"), f"{path}/mu")
    _check_vars(mu, {"q"}, f"{path}/mu")
    q_range = _as_float_list(params.get("q_range", [-1.5, 1.5]), f"{path}/q_range")
    if len(q_range) != 2:
        raise ConfigError(f"{path}/q_range", f"expected [lo, hi], got {len(q_range)} numbers")
    return rc_circuit(RcParams(R=R, mu=mu, q_range=tuple(q_range)))


def _build_storage(cfg: dict, sys_, bundle, key: str = "storage", required: bool = False):
    spec = cfg.get(key)
    if spec is None:
        attached = getattr(bundle, "storage", None) or sys_.storage
        if attached is None and required:
            raise ConfigError(f"/{key}", "missing storage (and system has none attached)")
        return attached
    path = f"/{key}"
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    m_spec = _get(spec, path, "M", required=True)
    c1 = _as_float(spec.get("c1", 1.0), f"{path}/c1")
    c2 = _as_float(spec.get("c2", 1.0), f"{path}/c2")
    names = _state_names(sys_.n)
    if m_spec == "identity":
        m_fun = QuadraticDifferentialStorage.identity(sys_.n).m_fun
    else:
        m_rows, shape = _matrix_fn(m_spec, names, set(), f"{path}/M")
        if shape != (sys_.n, sys_.n):
            raise ConfigError(f"{path}/M", f"expected {sys_.n}x{sys_.n}")
        m_fun = lambda x: m_rows(x, {})
    p_fun = None
    if spec.get("projector") is not None:
        p_rows, pshape = _matrix_fn(spec["projector"], names, set(), f"{path}/projector")
        if pshape != (sys_.n, sys_.n):
            raise ConfigError(f"{path}/projector", f"expected {sys_.n}x{sys_.n}")
        p_fun = lambda x: p_rows(x, {})
    return QuadraticDifferentialStorage(m_fun, sys_.n, p_fun=p_fun, c1=c1, c2=c2)


def _reject_projector(cfg: dict, command: str) -> None:
    spec = cfg.get("storage")
    if isinstance(spec, dict) and spec.get("projector") is not None:
        raise ConfigError("/storage/projector", f"{command} does not support a projector")


def _build_supply(cfg: dict, sys_, bundle, key: str = "supply", required: bool = False):
    spec = cfg.get(key)
    if spec is None:
        attached = getattr(bundle, "supply", None) or sys_.supply
        if attached is None and required:
            raise ConfigError(f"/{key}", "missing supply (and system has none attached)")
        return attached
    path = f"/{key}"
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    w_spec = _get(spec, path, "W", required=True)
    strictness = spec.get("strictness", "none")
    if strictness not in ("none", "output", "state"):
        raise ConfigError(f"{path}/strictness", f"unknown strictness {strictness!r}")
    rate = None
    if strictness == "state":
        lam = _as_float(_get(spec, path, "state_rate", required=True), f"{path}/state_rate")
        rate = lambda s: lam * s
    if w_spec == "identity":
        return SupplyRate.identity(sys_.q, strictness, rate)
    w_fun, shape = _matrix_fn(w_spec, _state_names(sys_.n), set(), f"{path}/W")
    if shape != (sys_.q, sys_.q):
        raise ConfigError(f"{path}/W", f"expected {sys_.q}x{sys_.q}")
    return SupplyRate(lambda x: w_fun(x, {}), sys_.q, strictness, rate)


def _run(cfg: dict) -> dict:
    run = cfg.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("/run", "expected an object")
    return run


def _build_stepper(cfg: dict, args) -> Rk4 | Rk45:
    run = _run(cfg)
    spec = run.get("stepper")
    if args.dt is not None:
        return Rk4(dt=args.dt)
    if spec is None:
        return Rk4()
    kind = _get(spec, "/run/stepper", "kind", required=True)
    if kind == "rk4":
        return Rk4(dt=_as_float(spec.get("dt", 1e-3), "/run/stepper/dt"))
    if kind == "rk45":
        return Rk45(tol=_as_float(spec.get("tol", 1e-8), "/run/stepper/tol"))
    raise ConfigError("/run/stepper/kind", f"unknown stepper {kind!r}")


def _build_grid(cfg: dict, key: str, n: int, seed: int, default_span=2.0) -> GridSpec:
    spec = cfg.get(key)
    if spec is None:
        return GridSpec.box([-default_span] * n, [default_span] * n, [9] * n, seed=seed)
    path = f"/{key}"
    lo = _as_float_list(_get(spec, path, "lo", required=True), f"{path}/lo")
    hi = _as_float_list(_get(spec, path, "hi", required=True), f"{path}/hi")
    counts = [int(v) for v in _as_float_list(_get(spec, path, "counts", required=True), f"{path}/counts")]
    try:
        return GridSpec.box(lo, hi, counts, int(spec.get("extra_random", 0)),
                            int(spec.get("seed", seed)))
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _run_params(cfg: dict, sys_, args):
    run = _run(cfg)
    path = "/run"
    x0 = _as_float_list(_get(run, path, "x0", default=[0.0] * sys_.n), f"{path}/x0")
    dx0 = _as_float_list(_get(run, path, "dx0", default=[0.0] * sys_.n), f"{path}/dx0")
    if len(x0) != sys_.n or len(dx0) != sys_.n:
        raise ConfigError(f"{path}/x0", f"x0 and dx0 must have {sys_.n} entries")
    t_final = args.t_final if args.t_final is not None else _as_float(
        run.get("t_final", 1.0), f"{path}/t_final"
    )
    u = _signal_vector(run.get("u"), sys_.q, f"{path}/u")
    du = _signal_vector(run.get("du"), sys_.q, f"{path}/du")
    return x0, dx0, u, du, t_final


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return _as_int(_run(cfg).get("seed", 0), "/run/seed")


def _tol(cfg: dict, args, default: float) -> float:
    if args.tol is not None:
        return args.tol
    return _as_float(_run(cfg).get("tol", default), "/run/tol")


# ---------------------------------------------------------------------------
# commands


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def cmd_simulate(cfg, args, out_dir):
    sys_, bundle = _build_system(cfg)
    x0, dx0, u, du, t_final = _run_params(cfg, sys_, args)
    stepper = _build_stepper(cfg, args)
    traj = simulate_prolonged(sys_, x0, dx0, u=u, du=du, t_final=t_final, stepper=stepper)
    storage = _build_storage(cfg, sys_, bundle)
    supply = _build_supply(cfg, sys_, bundle)
    if storage is not None and supply is not None:
        audit(traj, storage, supply, tol=_tol(cfg, args, 1e-9))
    if args.format == "json":
        payload = {
            "kind": "trajectory",
            "t": traj.times,
            "x": traj.x,
            "dx": traj.dx,
            "u": traj.u,
            "du": traj.du,
            "y": traj.y,
            "dy": traj.dy,
        }
        write_json(os.path.join(out_dir, "trajectory.json"), payload)
    else:
        write_trace_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    _say(args, f"simulated {len(traj.times)} samples over [0, {t_final}]")
    return 0


def cmd_audit(cfg, args, out_dir):
    sys_, bundle = _build_system(cfg)
    storage = _build_storage(cfg, sys_, bundle, required=True)
    supply = _build_supply(cfg, sys_, bundle, required=True)
    x0, dx0, u, du, t_final = _run_params(cfg, sys_, args)
    stepper = _build_stepper(cfg, args)
    traj = simulate_prolonged(sys_, x0, dx0, u=u, du=du, t_final=t_final, stepper=stepper)
    report = audit(traj, storage, supply, tol=_tol(cfg, args, 1e-9))
    write_json(os.path.join(out_dir, "audit_report.json"), report.to_json_dict())
    write_trace_csv(os.path.join(out_dir, "audit_trace.csv"), traj)
    _say(args, f"audit {'PASS' if report.passed else 'FAIL'} "
               f"(worst violation {report.worst_violation:.3e} at t={report.worst_time:.3g})")
    return 0 if report.passed else 1


def cmd_certify_uc(cfg, args, out_dir):
    sys_, bundle = _build_system(cfg)
    storage = _build_storage(cfg, sys_, bundle, required=True)
    _reject_projector(cfg, "certify-uc")
    supply = _build_supply(cfg, sys_, bundle, required=True)
    pi = _as_matrix(_get(cfg, "", "pi", required=True), "/pi")
    seed = _seed(cfg, args)
    grid = _build_grid(cfg, "grid", sys_.n, seed)
    report = check_uc(sys_, storage.m_fun, pi, supply.w_fun, grid)
    write_json(os.path.join(out_dir, "certificate_report.json"), report.to_json_dict())
    _say(args, f"certificate {'PASS' if report.passed else 'FAIL'} over {report.n_points} points")
    return 0 if report.passed else 1


def cmd_certify_ap(cfg, args, out_dir):
    sys_, bundle = _build_system(cfg)
    storage = _build_storage(cfg, sys_, bundle, required=True)
    _reject_projector(cfg, "certify-ap")
    supply = _build_supply(cfg, sys_, bundle, required=True)
    seed = _seed(cfg, args)
    grid_x = _build_grid(cfg, "grid", sys_.n, seed)
    grid_u = _build_grid(cfg, "grid_u", sys_.q, seed + 1, default_span=1.0)
    report = check_ap(sys_, storage.m_fun, supply.w_fun, grid_x, grid_u)
    write_json(os.path.join(out_dir, "certificate_report.json"), report.to_json_dict())
    _say(args, f"certificate {'PASS' if report.passed else 'FAIL'} over {report.n_points} points")
    return 0 if report.passed else 1


def cmd_interconnect(cfg, args, out_dir):
    sys1, bundle1 = _build_system(cfg)
    ic = _get(cfg, "", "interconnect", required=True)
    path = "/interconnect"
    spec2 = {"system": _get(ic, path, "system2", required=True)}
    sys2, bundle2 = _build_system(spec2, f"{path}/system2")
    sys1.storage = _build_storage(cfg, sys1, bundle1)
    sys1.supply = _build_supply(cfg, sys1, bundle1)
    sys2.storage = _build_storage({"storage": ic.get("storage2")}, sys2, bundle2)
    sys2.supply = _build_supply({"supply": ic.get("supply2")}, sys2, bundle2)
    coupling = _get(ic, path, "coupling", default="output")
    report_extra = {}
    if coupling == "output":
        loop = output_feedback(sys1, sys2)
    elif coupling == "state":
        k1, nk1 = _vector_fn(_get(ic, path, "k1", required=True),
                             _state_names(sys1.n), set(), f"{path}/k1")
        k2, nk2 = _vector_fn(_get(ic, path, "k2", required=True),
                             _state_names(sys2.n), set(), f"{path}/k2")
        if nk1 != sys2.q or nk2 != sys1.q:
            raise ConfigError(f"{path}/k1", "feedback maps must match port dimensions")
        k1_fn = lambda x: k1(x, {})
        k2_fn = lambda x: k2(x, {})
        loop = state_feedback(sys1, sys2, k1_fn, k2_fn)
        if sys1.supply is not None and sys2.supply is not None:
            eq = check_equalization(
                sys1, sys2, k1_fn, k2_fn, sys1.supply.w_fun, sys2.supply.w_fun,
                seed=_seed(cfg, args),
            )
            report_extra["equalization"] = eq.to_json_dict()
    else:
        raise ConfigError(f"{path}/coupling", f"unknown coupling {coupling!r}")
    x0, dx0, u, du, t_final = _run_params(cfg, loop, args)
    stepper = _build_stepper(cfg, args)
    traj = simulate_prolonged(loop, x0, dx0, u=u, du=du, t_final=t_final, stepper=stepper)
    if loop.storage is None or loop.supply is None:
        raise ConfigError("/storage", "both subsystems need storage and supply for the loop audit")
    report = audit(traj, loop.storage, loop.supply, tol=_tol(cfg, args, 1e-9))
    payload = report.to_json_dict()
    payload.update(report_extra)
    if report_extra.get("equalization", {}).get("passed") is False:
        payload["passed"] = False
    write_json(os.path.join(out_dir, "interconnect_report.json"), payload)
    write_trace_csv(os.path.join(out_dir, "interconnect_trace.csv"), traj)
    _say(args, f"interconnect audit {'PASS' if payload['passed'] else 'FAIL'}")
    return 0 if payload["passed"] else 1


def cmd_homotopy(cfg, args, out_dir):
    sys_, bundle = _build_system(cfg)
    storage = _build_storage(cfg, sys_, bundle)
    run = _run(cfg)
    x0, _, u, _, t_final = _run_params(cfg, sys_, args)
    x0_b = _as_float_list(_get(run, "/run", "x0_b", required=True), "/run/x0_b")
    if len(x0_b) != sys_.n:
        raise ConfigError("/run/x0_b", f"expected {sys_.n} entries")
    n_s = _as_int(run.get("n_s", 9), "/run/n_s")
    stepper = _build_stepper(cfg, args)
    a = np.asarray(x0)
    b = np.asarray(x0_b)
    family = homotopy_integrate(
        sys_, lambda s: (a + s * (b - a)).tolist(), u=u, t_final=t_final,
        n_s=n_s, stepper=stepper, gamma0_deriv=lambda s: (b - a).tolist(),
    )
    gauge = storage.gauge if storage is not None else (
        lambda x, dx: float(np.linalg.norm(dx))
    )
    report = verify_nonexpansion(family, gauge)
    gaps = np.linalg.norm(family.members[-1].x - family.members[0].x, axis=1)
    write_json(os.path.join(out_dir, "homotopy_report.json"), report.to_json_dict())
    write_length_gap_csv(
        os.path.join(out_dir, "homotopy_trace.csv"),
        report.trace.times, report.trace.lengths, gaps,
    )
    _say(args, f"nonexpansion {'PASS' if report.passed else 'FAIL'} (margin {report.margin:.3e})")
    return 0 if report.passed else 1


def cmd_converge(cfg, args, out_dir):
    sys_, bundle = _build_system(cfg)
    storage = _build_storage(cfg, sys_, bundle, required=True)
    supply = _build_supply(cfg, sys_, bundle, required=True)
    run = _run(cfg)
    x0, _, u, _, t_final = _run_params(cfg, sys_, args)
    x0_b = _as_float_list(_get(run, "/run", "x0_b", required=True), "/run/x0_b")
    stepper = _build_stepper(cfg, args)
    report = verify_output_convergence(
        sys_, storage, supply, x0, x0_b, u=u, t_final=t_final,
        tol=_tol(cfg, args, 1e-3), n_s=_as_int(run.get("n_s", 9), "/run/n_s"), stepper=stepper,
        state_bound=_as_float(run.get("bound", 1e6), "/run/bound"),
    )
    write_json(os.path.join(out_dir, "convergence_report.json"), report.to_json_dict())
    write_length_gap_csv(
        os.path.join(out_dir, "convergence_trace.csv"),
        report.times, report.lengths.lengths, report.output_gap,
    )
    _say(args, f"convergence {'PASS' if report.passed else 'FAIL'} "
               f"(gap {report.initial_gap:.3e} -> {report.final_gap:.3e})")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# demos


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def cmd_demo_rc(cfg, args, out_dir):
    spec = _get(cfg, "", "system", default={})
    if not isinstance(spec, dict):
        raise ConfigError("/system", "expected an object")
    bundle = _rc_bundle(_registry_params(spec, "/system"), "/system/params")
    seed = _seed(cfg, args)
    rng = np.random.default_rng(seed)
    run = _run(cfg)
    n_traj = _as_int(run.get("n_trajectories", 20), "/run/n_trajectories")
    if n_traj < 1:
        raise ConfigError("/run/n_trajectories", "need at least one trajectory")
    t_final = args.t_final if args.t_final is not None else _as_float(
        run.get("t_final", 1.0), "/run/t_final"
    )
    stepper = _build_stepper(cfg, args)
    tol = _tol(cfg, args, 1e-9)
    draws = []
    for _ in range(n_traj):
        q0, dq0 = rng.uniform(-1.0, 1.0, size=2)
        draws.append((q0, dq0, rng.uniform(0.2, 1.0), rng.uniform(0.5, 3.0),
                      rng.uniform(-0.3, 0.3)))
    q0, dq0, amp, freq, bias = (np.array(col) for col in zip(*draws))
    # one drive for every member: each element is that member's amp sin(freq t) + bias
    drive = Signal.analytic(lambda t: amp * d_sin(freq * t) + bias)
    natives = simulate_ensemble(bundle.system, q0[:, None], dq0[:, None], u=drive,
                                t_final=t_final, stepper=stepper)
    trajs = [bundle.port_view(native) for native in natives]
    worst = -np.inf
    identity_residual = 0.0
    for traj in trajs:
        report = audit(traj, bundle.storage, bundle.supply, tol=tol)
        worst = max(worst, report.worst_violation)
        # term-by-term dissipation identity: dS/dt - W dV dI + W R dI_r^2 = 0
        w = bundle.supply.w_matrix(list(traj.x.T), len(traj.times))[:, 0, 0]
        di_r = traj.du[:, 0] / bundle.params.R
        resid = traj.Q - (report.dSdt + w * bundle.params.R * di_r**2)
        identity_residual = max(identity_residual, float(np.max(np.abs(resid))))
    passed = worst <= tol and identity_residual <= 1e-8
    payload = {
        "kind": "rc-demo",
        "passed": bool(passed),
        "seed": seed,
        "n_trajectories": n_traj,
        "worst_violation": float(worst),
        "identity_residual": identity_residual,
        "tolerance": tol,
    }
    write_json(os.path.join(out_dir, "rc_audit.json"), payload)
    write_trace_csv(os.path.join(out_dir, "rc_trace.csv"), trajs[0])
    _say(args, f"rc demo {'PASS' if passed else 'FAIL'} "
               f"(worst violation {worst:.3e}, identity residual {identity_residual:.3e})")
    return 0 if passed else 1


def cmd_demo_motor(cfg, args, out_dir):
    sys_, bundle = _build_system(_deep_merge({"system": {"registry": "motor"}}, cfg))
    p = bundle.params
    phi_s_ref, u_sig = motor_feedforward(p)
    run = _run(cfg)
    t_final = args.t_final if args.t_final is not None else _as_float(
        run.get("t_final", 10.0), "/run/t_final"
    )
    stepper = _build_stepper(cfg, args) if run.get("stepper") or args.dt else Rk4(2e-3)
    ref0 = [p.phi_r_ref[0].value(0.0), p.phi_r_ref[1].value(0.0),
            phi_s_ref[0].value(0.0), phi_s_ref[1].value(0.0)]
    offset = np.array([0.5, -0.4, 0.3, 0.2])
    x0 = (np.asarray(ref0) + offset).tolist()
    traj = simulate_prolonged(sys_, x0, offset.tolist(), u=list(u_sig),
                              t_final=t_final, stepper=stepper)
    report = audit(traj, bundle.storage, bundle.supply, tol=_tol(cfg, args, 1e-9))
    ref_t = np.array([
        [p.phi_r_ref[0].value(t), p.phi_r_ref[1].value(t),
         phi_s_ref[0].value(t), phi_s_ref[1].value(t)]
        for t in traj.times
    ])
    gap = np.linalg.norm(traj.x - ref_t, axis=1)
    ratio = float(gap[-1] / gap[0]) if gap[0] > 0 else 0.0
    flux = motor_flux_margins(bundle)
    passed = report.passed and flux.passed and ratio <= 1e-3
    payload = {
        "kind": "motor-demo",
        "passed": bool(passed),
        "audit": report.to_json_dict(),
        "flux_margins": flux.to_json_dict(),
        "regulation_initial_gap": float(gap[0]),
        "regulation_final_gap": float(gap[-1]),
        "regulation_ratio": ratio,
        "t_final": t_final,
    }
    write_json(os.path.join(out_dir, "motor_report.json"), payload)
    write_trace_csv(os.path.join(out_dir, "motor_trace.csv"), traj)
    _say(args, f"motor demo {'PASS' if passed else 'FAIL'} (regulation ratio {ratio:.3e})")
    return 0 if passed else 1


_DEMO_LTI = {
    "system": {
        "registry": "lti",
        "params": {"A": [[-1.0, 1.0], [-1.0, -2.0]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]},
    },
    "storage": {"M": "identity"},
    "supply": {"W": "identity"},
    "pi": [[1.0], [0.0]],
    "grid": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "counts": [7, 7]},
    "run": {"x0": [1.0, 0.0], "dx0": [0.5, -0.5], "u": [{"kind": "expr", "expr": "sin(t)"}],
            "t_final": 5.0},
}


def cmd_demo_lti(cfg, args, out_dir):
    merged = _deep_merge(_DEMO_LTI, cfg)
    sys_, bundle = _build_system(merged)
    storage = _build_storage(merged, sys_, bundle, required=True)
    _reject_projector(merged, "demo lti")
    supply = _build_supply(merged, sys_, bundle, required=True)
    seed = _seed(merged, args)
    grid = _build_grid(merged, "grid", sys_.n, seed)
    cert = check_uc(sys_, storage.m_fun, _as_matrix(merged["pi"], "/pi"), supply.w_fun, grid)
    x0, dx0, u, du, t_final = _run_params(merged, sys_, args)
    traj = simulate_prolonged(sys_, x0, dx0, u=u, du=du, t_final=t_final,
                              stepper=_build_stepper(merged, args))
    report = audit(traj, storage, supply, tol=_tol(merged, args, 1e-9))
    passed = cert.passed and report.passed
    payload = {
        "kind": "lti-demo",
        "passed": bool(passed),
        "certificate": cert.to_json_dict(),
        "audit": report.to_json_dict(),
    }
    write_json(os.path.join(out_dir, "lti_report.json"), payload)
    _say(args, f"lti demo {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "simulate": cmd_simulate,
    "audit": cmd_audit,
    "certify-uc": cmd_certify_uc,
    "certify-ap": cmd_certify_ap,
    "interconnect": cmd_interconnect,
    "homotopy": cmd_homotopy,
    "converge": cmd_converge,
}

_DEMOS = {"rc": cmd_demo_rc, "motor": cmd_demo_motor, "lti": cmd_demo_lti}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffdiss",
        description="Displacement-dynamics audits and incremental-stability verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _common_flags(p)
    demo = sub.add_parser("demo")
    demo.add_argument("model", choices=sorted(_DEMOS))
    _common_flags(demo)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--t-final", type=float, default=None, dest="t_final")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    if not os.path.exists(args.config):
        raise ConfigError("/", f"config file not found: {args.config}")
    try:
        with open(args.config) as handle:
            cfg = json.load(handle)
    except json.JSONDecodeError as err:
        raise ConfigError("/", f"invalid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("/", "top-level config must be an object")
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
        cfg = _load_config(args)
        if args.command == "demo":
            return _DEMOS[args.model](cfg, args, out_dir)
        return _COMMANDS[args.command](cfg, args, out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        _write_error_report(out_dir, str(err))
        return 2
    except Exception as err:  # numerical/model failures: report and exit 1
        diagnostic = f"{type(err).__name__}: {err}"
        print(f"error: {diagnostic}", file=sys.stderr)
        _write_error_report(out_dir, diagnostic)
        return 1


def _write_error_report(out_dir: str, message: str) -> None:
    try:
        write_json(os.path.join(out_dir, "error_report.json"),
                   {"kind": "error", "passed": False, "error": message})
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
