"""Command-line entry point.

Subcommands load a JSON experiment config, run the requested analysis, and
emit machine-readable reports (deterministic JSON, 17 significant digits)
plus plot-ready CSV traces.  Exit codes: 0 all checks passed, 1 a
verification failed or a numerical run aborted (report still written),
2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    ModelDomainError,
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
from .numerics import Rk4, Rk45, sin as d_sin, uniform_draws
from .serialize import write_json, write_length_gap_csv, write_trace_csv
from .systems import DynSystem, Signal, SignalError, simulate_ensemble, simulate_prolonged


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


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _as_float(value, path: str, positive: bool = False, finite: bool = False) -> float:
    """The number at ``path``: never nan, finite if ``finite`` or
    ``positive``, and > 0 if ``positive``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(path, f"number out of range: {value!r}") from None
    if math.isnan(number):
        raise ConfigError(path, "expected a number, got nan")
    if (finite or positive) and not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {number!r}")
    if positive and not number > 0.0:
        raise ConfigError(path, f"expected a positive number, got {value!r}")
    return number


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if not float(value).is_integer():
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}, got {int(value)}")
    return int(value)


def _as_list(value, path: str, item=_as_float, size: int | None = None) -> list:
    """The list at ``path`` (of ``size`` entries, if given), each entry read
    by ``item`` at its own pointer."""
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list of numbers")
    if size is not None and len(value) != size:
        raise ConfigError(path, f"expected {size} entries, got {len(value)}")
    return [item(v, f"{path}/{k}") for k, v in enumerate(value)]


def _as_matrix(value, path: str) -> list[list[float]]:
    if not isinstance(value, list) or not value or not isinstance(value[0], list):
        raise ConfigError(path, "expected a nested list (matrix)")
    return [_as_list(row, f"{path}/{r}") for r, row in enumerate(value)]


# ---------------------------------------------------------------------------
# expression and signal builders


def _expr(text, allowed: set[str], path: str) -> exprlang.Expr:
    """The parsed expression ``text``, which may use only the names in ``allowed``."""
    if not isinstance(text, str):
        raise ConfigError(path, "expected an expression string")
    try:
        ast = exprlang.parse(text)
    except exprlang.ParseError as err:
        raise ConfigError(path, str(err)) from None
    extra = exprlang.variables(ast) - allowed
    if extra:
        raise ConfigError(path, f"unknown variable(s) {sorted(extra)}")
    return ast


def _vector_fn(entries, names: list[str], exo: set[str], path: str, size: int):
    """The compiled map of the ``size`` expression strings at ``path``."""
    if not isinstance(entries, list) or len(entries) != size:
        raise ConfigError(path, f"expected a list of {size} expression strings")
    allowed = set(names) | exo
    asts = [_expr(s, allowed, f"{path}/{k}") for k, s in enumerate(entries)]
    return exprlang.compile_map(asts, names, exo)


def _matrix_fn(entries, names: list[str], exo: set[str], path: str, shape: tuple[int, int]):
    """The compiled matrix map of the ``shape`` nested expression strings at ``path``."""
    rows, cols = shape
    if not isinstance(entries, list) or len(entries) != rows:
        raise ConfigError(path, f"expected {rows} rows of {cols} expression strings")
    allowed = set(names) | exo
    asts = []
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ConfigError(f"{path}/{r}", f"expected a row of {cols} expression strings")
        asts.append([_expr(s, allowed, f"{path}/{r}/{c}") for c, s in enumerate(row)])
    return exprlang.compile_matrix(asts, names, exo)


def _signal(spec, path: str) -> Signal:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Signal.constant(_as_float(spec, path))
    if not isinstance(spec, dict):
        raise ConfigError(path, "signal must be a number or an object with a 'kind'")
    kind = _get(spec, path, "kind", required=True)
    if kind == "zero":
        return Signal.zero()
    if kind == "constant":
        return Signal.constant(_as_float(_get(spec, path, "value", required=True), f"{path}/value"))
    if kind == "expr":
        return Signal.from_expr(_expr(_get(spec, path, "expr", required=True), {"t"}, f"{path}/expr"))
    if kind == "sampled":
        times = _as_list(_get(spec, path, "times", required=True), f"{path}/times")
        values = _as_list(_get(spec, path, "values", required=True), f"{path}/values")
        try:
            return Signal.sampled(times, values)
        except SignalError as err:
            raise ConfigError(path, str(err)) from None
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


def _dimension(spec: dict, path: str, key: str) -> int:
    return _as_int(_get(spec, path, key, required=True), f"{path}/{key}", minimum=1)


def _build_expr_system(spec: dict, path: str):
    n = _dimension(spec, path, "n")
    q = _dimension(spec, path, "q")
    names = _state_names(n)
    exo = {}
    for name, s in _object(_get(spec, path, "exo", default={}) or {}, f"{path}/exo").items():
        if name in names:
            raise ConfigError(f"{path}/exo/{name}", f"exogenous signal {name!r} shadows a state")
        exo[name] = _signal(s, f"{path}/exo/{name}")
    exo_names = set(exo)
    f = _vector_fn(_get(spec, path, "f", required=True), names, exo_names, f"{path}/f", n)
    g = _matrix_fn(_get(spec, path, "g", required=True), names, exo_names, f"{path}/g", (n, q))
    h = _vector_fn(_get(spec, path, "h", required=True), names, exo_names, f"{path}/h", q)
    i_spec = _get(spec, path, "i")
    i_fn = None if i_spec is None else _matrix_fn(i_spec, names, exo_names, f"{path}/i", (q, q))
    return DynSystem(n, q, f, g, h, i=i_fn, exo=exo, name="config-system")


def _build_system(cfg: dict, path: str = "/system"):
    """The system of the ``system`` object of ``cfg`` (at ``path``): a
    registry model's or one built from expressions."""
    spec = _object(_get(cfg, "", "system", required=True), path)
    registry = _get(spec, path, "registry")
    if registry is None:
        return _build_expr_system(spec, path)
    params = _registry_params(spec, path)
    if registry == "rc":
        return _rc_bundle(params, f"{path}/params").system
    if registry == "motor":
        return _motor_bundle(spec, path).system
    if registry == "lti":
        a = _as_matrix(_get(params, f"{path}/params", "A", required=True), f"{path}/params/A")
        b = _as_matrix(_get(params, f"{path}/params", "B", required=True), f"{path}/params/B")
        c = _as_matrix(_get(params, f"{path}/params", "C", required=True), f"{path}/params/C")
        d = params.get("D")
        if d is not None:
            d = _as_matrix(d, f"{path}/params/D")
        try:
            return lti(a, b, c, d)
        except ValueError as err:
            raise ConfigError(f"{path}/params", str(err)) from None
    raise ConfigError(f"{path}/registry", f"unknown registry name {registry!r}")


def _registry_params(spec: dict, path: str) -> dict:
    return _object(_get(spec, path, "params", default={}) or {}, f"{path}/params")


def _motor_bundle(spec: dict, path: str):
    """The registry motor from the ``params`` of the system object ``spec``
    at ``path``."""
    params = _registry_params(spec, path)
    kwargs = {}
    for key in ("R_r", "R_s", "L_r", "L_s", "L_l"):
        if key in params:
            kwargs[key] = _as_float(params[key], f"{path}/params/{key}", positive=True)
    for key in ("kappa_r", "kappa_s"):  # saturation gains
        if key in params:
            kwargs[key] = _as_float(params[key], f"{path}/params/{key}", finite=True)
            if kwargs[key] < 0.0:
                raise ConfigError(f"{path}/params/{key}",
                                  f"expected a non-negative number, got {params[key]!r}")
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
    return induction_motor_virtual(MotorParams(**kwargs))


def _rc_bundle(params: dict, path: str):
    """The registry RC circuit from its ``params`` object at ``path``."""
    R = _as_float(params.get("R", 1.0), f"{path}/R", positive=True)
    mu = _expr(params.get("mu", "q + q^3"), {"q"}, f"{path}/mu")
    q_range = _as_list(params.get("q_range", [-1.5, 1.5]), f"{path}/q_range", size=2)
    try:
        return rc_circuit(RcParams(R=R, mu=mu, q_range=tuple(q_range)))
    except ModelDomainError as err:  # mu fails its slope check on q_range
        raise ConfigError(f"{path}/mu", str(err)) from None


def _build_storage(cfg: dict, sys_, required: bool = False, key: str = "storage",
                   parent: str = ""):
    """The storage at ``{parent}/{key}``, or the one attached to the system."""
    spec = cfg.get(key)
    path = f"{parent}/{key}"
    if spec is None:
        if sys_.storage is None and required:
            raise ConfigError(path, "missing storage (and system has none attached)")
        return sys_.storage
    m_spec = _get(_object(spec, path), path, "M", required=True)
    names, shape = _state_names(sys_.n), (sys_.n, sys_.n)
    if m_spec == "identity":
        m_fun = QuadraticDifferentialStorage.identity(sys_.n).m_fun
    else:
        m_fun = _matrix_fn(m_spec, names, set(), f"{path}/M", shape)
    p_spec = spec.get("projector")
    p_fun = None if p_spec is None else _matrix_fn(p_spec, names, set(), f"{path}/projector", shape)
    return QuadraticDifferentialStorage(m_fun, sys_.n, p_fun=p_fun)


def _build_supply(cfg: dict, sys_, required: bool = False, key: str = "supply",
                  parent: str = ""):
    """The supply at ``{parent}/{key}``, or the one attached to the system."""
    spec = cfg.get(key)
    path = f"{parent}/{key}"
    if spec is None:
        if sys_.supply is None and required:
            raise ConfigError(path, "missing supply (and system has none attached)")
        return sys_.supply
    w_spec = _get(_object(spec, path), path, "W", required=True)
    strictness = spec.get("strictness", "none")
    if strictness not in ("none", "output", "state"):
        raise ConfigError(f"{path}/strictness", f"unknown strictness {strictness!r}")
    rate = None
    if strictness == "state":
        lam = _as_float(_get(spec, path, "state_rate", required=True), f"{path}/state_rate",
                        positive=True)
        rate = lambda s: lam * s
    if w_spec == "identity":
        return SupplyRate.identity(sys_.q, strictness, rate)
    w_fun = _matrix_fn(w_spec, _state_names(sys_.n), set(), f"{path}/W", (sys_.q, sys_.q))
    return SupplyRate(w_fun, sys_.q, strictness, rate)


def _run(cfg: dict) -> dict:
    return _object(cfg.get("run", {}), "/run")


def _build_stepper(cfg: dict, args) -> Rk4 | Rk45:
    run = _run(cfg)
    spec = run.get("stepper")
    if args.dt is not None:
        return Rk4(dt=_as_float(args.dt, "--dt", positive=True))
    if spec is None:
        return Rk4()
    kind = _get(_object(spec, "/run/stepper"), "/run/stepper", "kind", required=True)
    if kind == "rk4":
        return Rk4(dt=_as_float(spec.get("dt", 1e-3), "/run/stepper/dt", positive=True))
    if kind == "rk45":
        return Rk45(tol=_as_float(spec.get("tol", 1e-8), "/run/stepper/tol", positive=True))
    raise ConfigError("/run/stepper/kind", f"unknown stepper {kind!r}")


def _build_grid(cfg: dict, key: str, n: int, seed: int, default_span=2.0) -> GridSpec:
    spec = cfg.get(key)
    if spec is None:
        return GridSpec.box([-default_span] * n, [default_span] * n, [9] * n, seed=seed)
    path = f"/{key}"
    spec = _object(spec, path)
    lo, hi, counts = (
        _as_list(_get(spec, path, name, required=True), f"{path}/{name}", item, n)
        for name, item in (("lo", _as_float), ("hi", _as_float), ("counts", _as_int))
    )
    extra_random = _as_int(spec.get("extra_random", 0), f"{path}/extra_random", minimum=0)
    seed = _as_int(spec.get("seed", seed), f"{path}/seed", minimum=0)
    try:
        return GridSpec.box(lo, hi, counts, extra_random, seed)
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _point(cfg: dict, key: str, n: int, required: bool = False) -> list[float]:
    """The ``n`` numbers at ``/run/<key>``; zeros if it is absent and not required."""
    return _as_list(_get(_run(cfg), "/run", key, required, [0.0] * n), f"/run/{key}", size=n)


def _t_final(cfg: dict, args, default: float) -> float:
    if args.t_final is not None:
        return _as_float(args.t_final, "--t-final", positive=True)
    return _as_float(_run(cfg).get("t_final", default), "/run/t_final", positive=True)


def _run_params(cfg: dict, sys_, args):
    run = _run(cfg)
    x0 = _point(cfg, "x0", sys_.n)
    dx0 = _point(cfg, "dx0", sys_.n)
    u = _signal_vector(run.get("u"), sys_.q, "/run/u")
    du = _signal_vector(run.get("du"), sys_.q, "/run/du")
    return x0, dx0, u, du, _t_final(cfg, args, 1.0)


def _n_s(cfg: dict) -> int:
    """The number of homotopy nodes, at least 3 (both ends and a midpoint)."""
    return _as_int(_run(cfg).get("n_s", 9), "/run/n_s", minimum=3)


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return _as_int(args.seed, "--seed", minimum=0)
    return _as_int(_run(cfg).get("seed", 0), "/run/seed", minimum=0)


def _tol(cfg: dict, args, default: float) -> float:
    if args.tol is not None:
        return _as_float(args.tol, "--tol", finite=True)
    return _as_float(_run(cfg).get("tol", default), "/run/tol", finite=True)


# ---------------------------------------------------------------------------
# commands


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _simulated(cfg: dict, sys_, args):
    """The prolonged trajectory of ``sys_`` under the run parameters of ``cfg``."""
    x0, dx0, u, du, t_final = _run_params(cfg, sys_, args)
    return simulate_prolonged(sys_, x0, dx0, u=u, du=du, t_final=t_final,
                              stepper=_build_stepper(cfg, args))


def _finish(args, out_dir: str, name: str, payload: dict, text: str) -> int:
    """Write the report ``payload`` to ``name``, say ``text`` with its verdict,
    and return the verdict's exit code."""
    write_json(os.path.join(out_dir, name), payload)
    passed = payload["passed"]
    _say(args, f"{text}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_simulate(cfg, args, out_dir):
    sys_ = _build_system(cfg)
    traj = _simulated(cfg, sys_, args)
    storage = _build_storage(cfg, sys_)
    supply = _build_supply(cfg, sys_)
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
    _say(args, f"simulated {len(traj.times)} samples over [0, {traj.times[-1]:.6g}]")
    return 0


def cmd_audit(cfg, args, out_dir):
    sys_ = _build_system(cfg)
    storage = _build_storage(cfg, sys_, required=True)
    supply = _build_supply(cfg, sys_, required=True)
    traj = _simulated(cfg, sys_, args)
    report = audit(traj, storage, supply, tol=_tol(cfg, args, 1e-9))
    write_trace_csv(os.path.join(out_dir, "audit_trace.csv"), traj)
    return _finish(args, out_dir, "audit_report.json", report.to_json_dict(),
                   f"audit (worst violation {report.worst_violation:.3e} "
                   f"at t={report.worst_time:.3g})")


def _certificate_maps(cfg: dict, command: str):
    """``(system, storage, supply)`` of a certificate command, read in that
    order; a storage projector is rejected before the supply is read."""
    sys_ = _build_system(cfg)
    storage = _build_storage(cfg, sys_, required=True)
    spec = cfg.get("storage")
    if isinstance(spec, dict) and spec.get("projector") is not None:
        raise ConfigError("/storage/projector", f"{command} does not support a projector")
    return sys_, storage, _build_supply(cfg, sys_, required=True)


def _certificate_uc(cfg: dict, args, command: str):
    """``(system, storage, supply, report)``: the uniform-tensor passivity
    certificate of the system of ``cfg`` checked on its grid."""
    sys_, storage, supply = _certificate_maps(cfg, command)
    pi = _as_matrix(_get(cfg, "", "pi", required=True), "/pi")
    if np.shape(pi) != (sys_.n, sys_.q):
        raise ConfigError("/pi", f"expected {sys_.n} rows of {sys_.q} numbers")
    grid = _build_grid(cfg, "grid", sys_.n, _seed(cfg, args))
    if sys_.has_throughput:
        raise ConfigError("/system/i", f"{command} applies to throughput-free systems")
    return sys_, storage, supply, check_uc(sys_, storage.m_fun, pi, supply.w_fun, grid)


def cmd_certify_uc(cfg, args, out_dir):
    report = _certificate_uc(cfg, args, "certify-uc")[-1]
    return _finish(args, out_dir, "certificate_report.json", report.to_json_dict(),
                   f"certificate over {report.n_points} points")


def cmd_certify_ap(cfg, args, out_dir):
    sys_, storage, supply = _certificate_maps(cfg, "certify-ap")
    seed = _seed(cfg, args)
    grid_x = _build_grid(cfg, "grid", sys_.n, seed)
    grid_u = _build_grid(cfg, "grid_u", sys_.q, seed + 1, default_span=1.0)
    if not sys_.has_throughput:
        raise ConfigError("/system/i", "certify-ap needs a throughput term i")
    if sys_.q != sys_.n:
        raise ConfigError("/system/q", f"certify-ap needs q = n = {sys_.n}, got {sys_.q}")
    report = check_ap(sys_, storage.m_fun, supply.w_fun, grid_x, grid_u)
    return _finish(args, out_dir, "certificate_report.json", report.to_json_dict(),
                   f"certificate over {report.n_points} points")


def cmd_interconnect(cfg, args, out_dir):
    sys1 = _build_system(cfg)
    path = "/interconnect"
    ic = _object(_get(cfg, "", "interconnect", required=True), path)
    sys2 = _build_system({"system": _get(ic, path, "system2", required=True)},
                         f"{path}/system2")
    # the loop audit needs both storages and supplies
    sys1.storage = _build_storage(cfg, sys1, required=True)
    sys1.supply = _build_supply(cfg, sys1, required=True)
    sys2.storage = _build_storage(ic, sys2, required=True, key="storage2", parent=path)
    sys2.supply = _build_supply(ic, sys2, required=True, key="supply2", parent=path)
    if sys2.q != sys1.q:
        raise ConfigError(f"{path}/system2/q", f"port dimensions differ: {sys1.q} vs {sys2.q}")
    for name in sys2.exo:
        if name in sys1.exo:
            raise ConfigError(f"{path}/system2/exo/{name}",
                              f"exogenous signal name clash: {name!r}")
    coupling = _get(ic, path, "coupling", default="output")
    eq = None
    if coupling == "output":
        if sys1.has_throughput and sys2.has_throughput:
            raise ConfigError(f"{path}/system2/i",
                              "both subsystems have throughput, so the loop is algebraic")
        loop = output_feedback(sys1, sys2)
    elif coupling == "state":
        k1 = _vector_fn(_get(ic, path, "k1", required=True), _state_names(sys1.n), set(),
                        f"{path}/k1", sys2.q)
        k2 = _vector_fn(_get(ic, path, "k2", required=True), _state_names(sys2.n), set(),
                        f"{path}/k2", sys1.q)
        for sys_, where in ((sys1, "/system"), (sys2, f"{path}/system2")):
            if sys_.has_throughput:
                raise ConfigError(f"{where}/i",
                                  "the equalization check needs a throughput-free output map")
        loop = state_feedback(sys1, sys2, k1, k2)
        eq = check_equalization(sys1, sys2, k1, k2, sys1.supply.w_fun, sys2.supply.w_fun,
                                seed=_seed(cfg, args))
    else:
        raise ConfigError(f"{path}/coupling", f"unknown coupling {coupling!r}")
    traj = _simulated(cfg, loop, args)
    payload = audit(traj, loop.storage, loop.supply, tol=_tol(cfg, args, 1e-9)).to_json_dict()
    if eq is not None:
        payload["equalization"] = eq.to_json_dict()
        payload["passed"] = payload["passed"] and payload["equalization"]["passed"]
    write_trace_csv(os.path.join(out_dir, "interconnect_trace.csv"), traj)
    return _finish(args, out_dir, "interconnect_report.json", payload, "interconnect audit")


def cmd_homotopy(cfg, args, out_dir):
    sys_ = _build_system(cfg)
    storage = _build_storage(cfg, sys_)
    x0, _, u, _, t_final = _run_params(cfg, sys_, args)
    a = np.asarray(x0)
    b = np.asarray(_point(cfg, "x0_b", sys_.n, required=True))
    family = homotopy_integrate(
        sys_, lambda s: (a + s * (b - a)).tolist(), u=u, t_final=t_final,
        n_s=_n_s(cfg), stepper=_build_stepper(cfg, args),
        gamma0_deriv=lambda s: (b - a).tolist(),
    )
    gauge = storage.gauge if storage is not None else (
        lambda x, dx: float(np.linalg.norm(dx))
    )
    report = verify_nonexpansion(family, gauge)
    gaps = np.linalg.norm(family.members[-1].x - family.members[0].x, axis=1)
    write_length_gap_csv(
        os.path.join(out_dir, "homotopy_trace.csv"),
        report.trace.times, report.trace.lengths, gaps,
    )
    return _finish(args, out_dir, "homotopy_report.json", report.to_json_dict(),
                   f"nonexpansion (margin {report.margin:.3e})")


def cmd_converge(cfg, args, out_dir):
    sys_ = _build_system(cfg)
    storage = _build_storage(cfg, sys_, required=True)
    supply = _build_supply(cfg, sys_, required=True)
    run = _run(cfg)
    x0, _, u, _, t_final = _run_params(cfg, sys_, args)
    x0_b = _point(cfg, "x0_b", sys_.n, required=True)
    tol, n_s, stepper = _tol(cfg, args, 1e-3), _n_s(cfg), _build_stepper(cfg, args)
    bound = _as_float(run.get("bound", 1e6), "/run/bound", positive=True)
    if supply.strictness != "output":  # after every key is read, where the library raised it
        raise ConfigError("/supply/strictness", "converge needs an output-strict supply")
    report = verify_output_convergence(sys_, storage, supply, x0, x0_b, u=u, t_final=t_final,
                                       tol=tol, n_s=n_s, stepper=stepper, state_bound=bound)
    write_length_gap_csv(
        os.path.join(out_dir, "convergence_trace.csv"),
        report.times, report.lengths.lengths, report.output_gap,
    )
    return _finish(args, out_dir, "convergence_report.json", report.to_json_dict(),
                   f"convergence (gap {report.initial_gap:.3e} -> {report.final_gap:.3e})")


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


def _demo_system(cfg: dict, registry: str) -> dict:
    """The ``system`` object of the config of the demo of the registry model
    ``registry``; another ``system.registry`` is a config error."""
    spec = _object(_get(cfg, "", "system", default={}), "/system")
    if _get(spec, "/system", "registry", default=registry) != registry:
        raise ConfigError("/system/registry", f"demo {registry} runs the registry {registry}")
    return spec


def cmd_demo_rc(cfg, args, out_dir):
    bundle = _rc_bundle(_registry_params(_demo_system(cfg, "rc"), "/system"), "/system/params")
    seed = _seed(cfg, args)
    n_traj = _as_int(_run(cfg).get("n_trajectories", 20), "/run/n_trajectories", minimum=1)
    t_final = _t_final(cfg, args, 1.0)
    stepper = _build_stepper(cfg, args)
    tol = _tol(cfg, args, 1e-9)
    # five draws per member, each lo + (hi - lo) d as numpy's uniform(lo, hi) spells it
    bounds = ((-1.0, 1.0), (-1.0, 1.0), (0.2, 1.0), (0.5, 3.0), (-0.3, 0.3))
    draws = np.array(uniform_draws(seed, 5 * n_traj)).reshape(n_traj, 5)
    q0, dq0, amp, freq, bias = (lo + (hi - lo) * draws[:, j] for j, (lo, hi) in enumerate(bounds))
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
    payload = {
        "kind": "rc-demo",
        "passed": bool(worst <= tol and identity_residual <= 1e-8),
        "seed": seed,
        "n_trajectories": n_traj,
        "worst_violation": float(worst),
        "identity_residual": identity_residual,
        "tolerance": tol,
    }
    write_trace_csv(os.path.join(out_dir, "rc_trace.csv"), trajs[0])
    return _finish(args, out_dir, "rc_audit.json", payload,
                   f"rc demo (worst violation {worst:.3e}, "
                   f"identity residual {identity_residual:.3e})")


def cmd_demo_motor(cfg, args, out_dir):
    bundle = _motor_bundle(_demo_system(cfg, "motor"), "/system")
    p = bundle.params
    phi_s_ref, u_sig = motor_feedforward(p)
    t_final = _t_final(cfg, args, 10.0)
    explicit = _run(cfg).get("stepper") is not None or args.dt is not None
    stepper = _build_stepper(cfg, args) if explicit else Rk4(2e-3)
    reference = (*p.phi_r_ref, *phi_s_ref)
    offset = np.array([0.5, -0.4, 0.3, 0.2])
    x0 = (np.array([s.value(0.0) for s in reference]) + offset).tolist()
    traj = simulate_prolonged(bundle.system, x0, offset.tolist(), u=list(u_sig),
                              t_final=t_final, stepper=stepper)
    report = audit(traj, bundle.storage, bundle.supply, tol=_tol(cfg, args, 1e-9))
    gap = np.linalg.norm(traj.x - np.column_stack([s.many(traj.times) for s in reference]),
                         axis=1)
    ratio = float(gap[-1] / gap[0]) if gap[0] > 0 else 0.0
    flux = motor_flux_margins(bundle)
    payload = {
        "kind": "motor-demo",
        "passed": bool(report.passed and flux.passed and ratio <= 1e-3),
        "audit": report.to_json_dict(),
        "flux_margins": flux.to_json_dict(),
        "regulation_initial_gap": float(gap[0]),
        "regulation_final_gap": float(gap[-1]),
        "regulation_ratio": ratio,
        "t_final": t_final,
    }
    write_trace_csv(os.path.join(out_dir, "motor_trace.csv"), traj)
    return _finish(args, out_dir, "motor_report.json", payload,
                   f"motor demo (regulation ratio {ratio:.3e})")


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
    """``certify-uc`` and ``audit`` on the ``_DEMO_LTI`` config, with ``cfg``
    merged over it, in one report."""
    merged = _deep_merge(_DEMO_LTI, cfg)
    sys_, storage, supply, cert = _certificate_uc(merged, args, "demo lti")
    report = audit(_simulated(merged, sys_, args), storage, supply, tol=_tol(merged, args, 1e-9))
    payload = {
        "kind": "lti-demo",
        "passed": bool(cert.passed and report.passed),
        "certificate": cert.to_json_dict(),
        "audit": report.to_json_dict(),
    }
    return _finish(args, out_dir, "lti_report.json", payload, "lti demo")


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` does not
    change it, and each call returns a new namespace of defaults."""
    parser = argparse.ArgumentParser(
        prog="diffdiss",
        description="Displacement-dynamics audits and incremental-stability verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _common_flags(p)
        if name == "simulate":  # the one command whose output format is a choice
            p.add_argument("--format", choices=["csv", "json"], default="csv")
    demo = sub.add_parser("demo")
    demo.add_argument("model", choices=sorted(_DEMOS))
    _common_flags(demo)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--t-final", type=float, default=None, dest="t_final")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    # ``simulate`` alone takes ``--format``; every namespace holds its default
    p.set_defaults(format="csv")


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
