"""Incremental consequences of differential dissipativity, verified
numerically: non-expansion of Finsler lengths of transported displacement
curves, output convergence under excess output passivity, and the
finite-difference oracle tying displacement dynamics to actual solution
pairs.

A homotopy family transports an initial curve gamma0: [0,1] -> R^n through
the flow: each s-node carries a prolonged trajectory seeded with
dx(0, s) = gamma0'(s) under du = 0, so integrating the gauge K over s
upper-bounds the distance between the endpoint trajectories at every time.
All family members are co-integrated as one stacked ODE so they share the
time grid under any stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dissipativity import QuadraticDifferentialStorage, SupplyRate
from .numerics import Rk4, Stepper, integrate, jvp
from .systems import (
    DynSystem,
    ProlongedTrajectory,
    Signal,
    lift,
    signal_vector,
    _prolonged_from_solution,
)


class InvalidFinslerStructure(Exception):
    """The supplied gauge is not positively homogeneous of degree 1."""


class UnboundedTrajectoryError(Exception):
    """A trajectory left the configured bound; the boundedness hypothesis
    of the convergence statement is violated."""


@dataclass
class HomotopyFamily:
    """Per-s prolonged trajectories sharing one time grid, du = 0."""

    s_grid: np.ndarray
    members: list[ProlongedTrajectory]

    @property
    def times(self) -> np.ndarray:
        return self.members[0].times


@dataclass
class LengthTrace:
    """Finsler length of the transported curve at each time sample.

    ``convexity_violations`` counts sampled failures of strict
    subadditivity of the gauge (reported, never fatal: strict convexity is
    not checkable pointwise for user-supplied gauges)."""

    times: np.ndarray
    lengths: np.ndarray
    rule: str = "trapezoid"
    convexity_violations: int = 0


def homotopy_integrate(
    sys: DynSystem,
    gamma0: Callable[[float], Sequence],
    u=None,
    t_final: float = 1.0,
    n_s: int = 9,
    stepper: Stepper | None = None,
    gamma0_deriv: Callable[[float], Sequence] | None = None,
) -> HomotopyFamily:
    """Transport the initial curve through the flow.

    For each node of a uniform s-grid on [0, 1], co-integrates (x, dx) from
    x(0,s) = gamma0(s), dx(0,s) = gamma0'(s) under the shared input ``u``
    and du = 0.  All members are stacked into a single ODE so they share the
    time grid even under adaptive stepping.  ``gamma0`` must be
    dual-evaluable in s unless ``gamma0_deriv`` is supplied.
    """
    if n_s < 3:
        raise ValueError("need at least 3 homotopy nodes")
    n, q = sys.n, sys.q
    s_grid = np.linspace(0.0, 1.0, n_s)
    seeds = []
    for s in s_grid:
        x0 = [float(v) for v in gamma0(float(s))]
        if gamma0_deriv is not None:
            dx0 = [float(v) for v in gamma0_deriv(float(s))]
        else:
            dx0 = [float(v) for v in jvp(lambda z: gamma0(z[0]), [float(s)], [1.0])]
        if len(x0) != n or len(dx0) != n:
            raise ValueError(f"gamma0 must produce {n}-dimensional points")
        seeds.append(x0 + dx0)
    lifted = lift(sys)
    sigs = signal_vector(u, q) + [Signal.zero() for _ in range(q)]
    width = 2 * n

    def stacked_field(t, z):
        uv = [s.value(t) for s in sigs]
        e = lifted.exo_at(t)
        out = np.empty_like(z)
        for m in range(n_s):
            xs = z[m * width : (m + 1) * width].tolist()
            out[m * width : (m + 1) * width] = lifted.rhs_with(xs, e, uv)
        return out

    z0 = np.concatenate([np.asarray(s, dtype=float) for s in seeds])
    sol = integrate(stacked_field, z0, (0.0, float(t_final)), stepper or Rk4())
    members = []
    for m in range(n_s):
        sub = sol.states[:, m * width : (m + 1) * width]
        member_sol = type(sol)(sol.times, sub, sol.stepper_id, sol.tolerance)
        members.append(_prolonged_from_solution(sys, lifted, sigs, member_sol))
    return HomotopyFamily(s_grid=s_grid, members=members)


def _trapezoid(values: np.ndarray, grid: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(grid)))


def finsler_length(
    family: HomotopyFamily,
    gauge: Callable[[Sequence, Sequence], float],
    homogeneity_checks: int = 10,
    seed: int = 0,
) -> LengthTrace:
    """Trapezoid quadrature over s of K(x(t,s), dx(t,s)) at each time.

    The gauge is spot-checked for positive homogeneity of degree 1 on
    sampled (x, dx) pairs before any length is reported.
    """
    rng = np.random.default_rng(seed)
    times = family.times
    n_t = len(times)
    convexity_violations = 0
    for _ in range(homogeneity_checks):
        m = family.members[rng.integers(len(family.members))]
        k = int(rng.integers(n_t))
        x = m.x[k].tolist()
        dx = (rng.random(m.n) * 2.0 - 1.0).tolist()
        lam = float(rng.uniform(0.25, 4.0))
        base = gauge(x, dx)
        scaled = gauge(x, [lam * v for v in dx])
        if abs(scaled - lam * base) > 1e-9 * max(1.0, abs(lam * base)):
            raise InvalidFinslerStructure(
                "gauge is not positively homogeneous of degree 1"
            )
        other = (rng.random(m.n) * 2.0 - 1.0).tolist()
        both = gauge(x, [a + b for a, b in zip(dx, other)])
        if both > base + gauge(x, other) + 1e-12:
            convexity_violations += 1
    lengths = np.empty(n_t)
    for k in range(n_t):
        vals = np.array(
            [gauge(m.x[k].tolist(), m.dx[k].tolist()) for m in family.members]
        )
        lengths[k] = _trapezoid(vals, family.s_grid)
    return LengthTrace(times=times, lengths=lengths,
                       convexity_violations=convexity_violations)


@dataclass
class NonexpansionReport:
    trace: LengthTrace
    margin: float
    worst_time: float
    tol_rel: float
    tol_abs: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": "nonexpansion",
            "passed": bool(self.passed),
            "margin": self.margin,
            "worst_time": self.worst_time,
            "initial_length": float(self.trace.lengths[0]),
            "final_length": float(self.trace.lengths[-1]),
            "tol_rel": self.tol_rel,
            "tol_abs": self.tol_abs,
        }


def verify_nonexpansion(
    family: HomotopyFamily,
    gauge: Callable[[Sequence, Sequence], float],
    tol_rel: float = 1e-6,
    tol_abs: float = 1e-9,
) -> NonexpansionReport:
    """Check L(t) <= L(0) (within tolerance) for the transported curve.

    Because the induced distance never exceeds the length of any connecting
    curve, a non-expanding length trace witnesses distance non-expansion
    between the endpoint trajectories.  Reports min over t of L(0) - L(t).
    """
    trace = finsler_length(family, gauge)
    L0 = trace.lengths[0]
    gap = L0 - trace.lengths
    worst = int(np.argmin(gap))
    bound = L0 * (1.0 + tol_rel) + tol_abs
    return NonexpansionReport(
        trace=trace,
        margin=float(gap[worst]),
        worst_time=float(trace.times[worst]),
        tol_rel=tol_rel,
        tol_abs=tol_abs,
        passed=bool(np.all(trace.lengths <= bound)),
    )


@dataclass
class ConvergenceReport:
    times: np.ndarray
    output_gap: np.ndarray
    lengths: LengthTrace
    barbalat_bounds: list[tuple[float, float]]  # (integral, storage-at-0) per s node
    barbalat_ok: bool
    w_floor: float
    w_floor_flagged: bool
    initial_gap: float
    final_gap: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": "output-convergence",
            "passed": bool(self.passed),
            "initial_gap": self.initial_gap,
            "final_gap": self.final_gap,
            "tolerance": self.tolerance,
            "barbalat_ok": bool(self.barbalat_ok),
            "barbalat_bounds": [[a, b] for a, b in self.barbalat_bounds],
            "supply_floor": self.w_floor,
            "supply_floor_flagged": bool(self.w_floor_flagged),
        }


def verify_output_convergence(
    sys: DynSystem,
    storage: QuadraticDifferentialStorage,
    supply: SupplyRate,
    x0_a: Sequence[float],
    x0_b: Sequence[float],
    u=None,
    t_final: float = 10.0,
    tol: float = 1e-3,
    n_s: int = 9,
    stepper: Stepper | None = None,
    state_bound: float = 1e6,
) -> ConvergenceReport:
    """Verify that two trajectories under the same input converge in output.

    Builds the straight-line homotopy between the initial conditions,
    confirms the integral bound  int <dy,dy>_W dt <= S(0,s)  at every s node
    (the precondition for the vanishing-derivative argument), samples the
    smallest eigenvalue of W along the family (flagged, not failed, if it
    approaches zero), and finally checks
    |y_a(T) - y_b(T)| <= tol * |y_a(0) - y_b(0)|.
    """
    if supply.strictness != "output":
        raise ValueError("output convergence needs an output-strict supply rate")
    a = np.asarray(x0_a, dtype=float)
    b = np.asarray(x0_b, dtype=float)
    family = homotopy_integrate(
        sys,
        lambda s: (a + s * (b - a)).tolist(),
        u=u,
        t_final=t_final,
        n_s=n_s,
        stepper=stepper,
        gamma0_deriv=lambda s: (b - a).tolist(),
    )
    for m, s in zip(family.members, family.s_grid):
        peak = float(np.max(np.abs(m.x)))
        if peak >= state_bound:
            raise UnboundedTrajectoryError(
                f"family member s={s:.3g} reached |x| = {peak:.3g} >= bound {state_bound:.3g}"
            )
    times = family.times
    barbalat = []
    barbalat_ok = True
    w_floor = np.inf
    for m, s in zip(family.members, family.s_grid):
        quad = np.array(
            [supply.quad(m.x[k].tolist(), m.dy[k], m.dy[k]) for k in range(len(times))]
        )
        integral = _trapezoid(quad, times)
        s0 = float(storage.value(m.x[0].tolist(), m.dx[0].tolist()))
        barbalat.append((integral, s0))
        if integral > s0 * (1.0 + 1e-9) + 1e-12:
            barbalat_ok = False
        stride = max(1, len(times) // 64)
        for k in range(0, len(times), stride):
            w = supply.w_matrix(m.x[k].tolist())
            w_floor = min(w_floor, float(np.linalg.eigvalsh(0.5 * (w + w.T))[0]))
    gap = np.linalg.norm(family.members[-1].y - family.members[0].y, axis=1)
    lengths = finsler_length(family, storage.gauge)
    initial_gap = float(gap[0])
    final_gap = float(gap[-1])
    gap_ok = final_gap <= tol * initial_gap if initial_gap > 0.0 else final_gap <= 1e-12
    return ConvergenceReport(
        times=times,
        output_gap=gap,
        lengths=lengths,
        barbalat_bounds=barbalat,
        barbalat_ok=barbalat_ok,
        w_floor=float(w_floor),
        w_floor_flagged=bool(w_floor < 1e-10),
        initial_gap=initial_gap,
        final_gap=final_gap,
        tolerance=tol,
        passed=bool(gap_ok and barbalat_ok),
    )


@dataclass
class FiniteDifferenceTrace:
    """Forward-difference displacement (x(t; x0+eps*v) - x(t; x0)) / eps."""

    times: np.ndarray
    values: np.ndarray


def fd_oracle(
    sys: DynSystem,
    x0: Sequence[float],
    v: Sequence[float],
    eps: float,
    u=None,
    t_final: float = 1.0,
    stepper: Stepper | None = None,
) -> FiniteDifferenceTrace:
    """Independent displacement oracle: co-integrates the base trajectory and
    its eps-perturbed twin under identical input on one shared grid and
    returns their scaled difference."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    n = sys.n
    sigs = signal_vector(u, sys.q)

    def field(t, z):
        uv = [s.value(t) for s in sigs]
        ra = sys.rhs(t, z[:n].tolist(), uv)
        rb = sys.rhs(t, z[n:].tolist(), uv)
        return np.asarray(ra + rb, dtype=float)

    z0 = np.concatenate(
        [np.asarray(x0, float), np.asarray(x0, float) + eps * np.asarray(v, float)]
    )
    sol = integrate(field, z0, (0.0, float(t_final)), stepper or Rk4())
    diff = (sol.states[:, n:] - sol.states[:, :n]) / eps
    return FiniteDifferenceTrace(times=sol.times, values=diff)
