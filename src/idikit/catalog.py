"""Built-in benchmark problems with closed-form reference trajectories.

Every entry ships the problem data, exact standing constants, and a feasible
reference arc with an exact derivative:

* ``cos_t``            - memory-only scalar dynamics whose unique trajectory
                         is cos(t) (equivalent to x'' = -x).
* ``damped_volterra``  - exponentially fading memory, equivalent to the
                         damped oscillator x'' + x' + x = 0.
* ``ball_control_lq``  - ball-valued velocities around a rotation drift with
                         strictly convex quadratic costs; the stationary
                         point is interior, so it doubles as the LQ oracle
                         benchmark.
* ``polytope_endpoint`` - simplex-valued velocities, ball endpoint set; the
                         reference rides a fixed interior deviation of the
                         simplex, which the rotation drift preserves exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import VolterraKernel
from .mesh import _short_sum
from .problem import (BallSet, CallableArc, ProblemData, RunningCost,
                      TerminalCost, WholeSpace)
from .setvalued import BallOffset, PolytopeOffset, Singleton

__all__ = ["CatalogEntry", "get", "names"]


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A problem with the reference arc that its approximation runs and
    measured errors are taken against: closed form for a catalog problem,
    None for an inline one, whose reference the CLI simulates."""

    problem: ProblemData
    reference: CallableArc

    @property
    def name(self) -> str:
        return self.problem.name


def _quadratic_terminal(target: np.ndarray) -> TerminalCost:
    target = np.atleast_1d(np.asarray(target, dtype=float))
    return TerminalCost(
        value=lambda x: 0.5 * float(np.sum((np.atleast_1d(x) - target) ** 2)),
        grad=lambda x: np.atleast_1d(x) - target,
    )


def _quadratic_running(cx: float, cv: float) -> RunningCost:
    return RunningCost(
        value=lambda t, x, v: 0.5 * (cx * _short_sum(x ** 2) + cv * _short_sum(v ** 2)),
        grad_x=lambda t, x, v: cx * x,
        grad_v=lambda t, x, v: cv * v,
    )


def _zero_drift():
    return Singleton.linear(np.zeros((1, 1)))


def _cos_t(T: float = 1.0) -> CatalogEntry:
    # x'(t) = -int_0^t x(s) ds, x(0) = 1  ->  x(t) = cos t
    kernel = VolterraKernel.exponential(-1.0, 0.0, beta=1.0, alpha=1.0)
    problem = ProblemData(
        name="cos_t", fmap=_zero_drift(), kernel=kernel, x0=[1.0], horizon=T,
        omega=WholeSpace(), terminal_cost=_quadratic_terminal([0.0]),
        running_cost=RunningCost.zero(), m_F=0.0, l_F=0.0, beta=1.0,
        alpha=1.0, state_box=([-1.5], [1.5]), epsilon=1.0)
    reference = CallableArc(lambda t: np.cos(t)[:, None],
                            lambda t: -np.sin(t)[:, None])
    return CatalogEntry(problem, reference)


def _damped_volterra(T: float = 2.0) -> CatalogEntry:
    # x'(t) = -int_0^t e^{-(t-s)} x(s) ds  <=>  x'' + x' + x = 0
    kernel = VolterraKernel.exponential(-1.0, 1.0, beta=1.0, alpha=1.0)
    problem = ProblemData(
        name="damped_volterra", fmap=_zero_drift(), kernel=kernel, x0=[1.0],
        horizon=T, omega=WholeSpace(), terminal_cost=_quadratic_terminal([0.0]),
        running_cost=RunningCost.zero(), m_F=0.0, l_F=0.0, beta=1.0,
        alpha=1.0, state_box=([-1.5], [1.5]), epsilon=1.0)
    w = math.sqrt(3.0) / 2.0

    def x_ref(t):
        x = np.exp(-t / 2) * (np.cos(w * t) + np.sin(w * t) / math.sqrt(3.0))
        return x[:, None]

    def dx_ref(t):
        return (-np.exp(-t / 2) * (2.0 / math.sqrt(3.0)) * np.sin(w * t))[:, None]

    return CatalogEntry(problem, CallableArc(x_ref, dx_ref))


_ROT = 0.3  # drift strength shared by the two controlled benchmarks


def _rotation(scale: float) -> np.ndarray:
    return scale * np.array([[0.0, 1.0], [-1.0, 0.0]])


def _ball_control_lq(T: float = 1.0, radius: float = 2.0) -> CatalogEntry:
    fmap = BallOffset.linear(_rotation(_ROT), radius)
    box = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    m_f = _ROT * 5.0 * math.sqrt(2.0) + radius  # sup |Ax| over the box + r
    problem = ProblemData(
        name="ball_control_lq", fmap=fmap, kernel=VolterraKernel.zero(),
        x0=[1.0, 0.0], horizon=T, omega=WholeSpace(),
        terminal_cost=_quadratic_terminal([0.0, 0.0]),
        running_cost=_quadratic_running(1.0, 1.0),
        m_F=m_f, l_F=_ROT, beta=0.0, alpha=0.0, state_box=box, epsilon=4.0)
    # the constant arc x == x0 is exactly feasible: 0 = A x0 + u with |u| < r
    x0 = np.array([1.0, 0.0])
    reference = CallableArc(lambda t: np.tile(x0, (t.size, 1)),
                            lambda t: np.zeros((t.size, 2)))
    return CatalogEntry(problem, reference)


def _polytope_endpoint(T: float = 1.0) -> CatalogEntry:
    A = _rotation(0.2)
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    fmap = PolytopeOffset.linear(A, verts)
    dev = np.array([0.45, 0.45])  # interior deviation of the simplex
    Ainv = np.linalg.inv(A)

    # x' = A x + dev with x(0) = 0 keeps x' - A x == dev in the simplex, so
    # the matrix-exponential arc is exactly feasible.
    def eAt(t):  # e^{At} at each time, shape (m, 2, 2)
        c, s = np.cos(0.2 * t), np.sin(0.2 * t)
        return np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)],
                        axis=-2)

    def x_ref(t):
        return Ainv @ (eAt(t) - np.eye(2)) @ dev

    def dx_ref(t):
        return eAt(t) @ dev

    x_end = x_ref(np.array([T]))[0]
    box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    m_f = 0.2 * 3.0 * math.sqrt(2.0) + 1.0
    problem = ProblemData(
        name="polytope_endpoint", fmap=fmap, kernel=VolterraKernel.zero(),
        x0=[0.0, 0.0], horizon=T, omega=BallSet(x_end, 0.35),
        terminal_cost=_quadratic_terminal([0.8, 0.1]),
        running_cost=_quadratic_running(0.0, 1.0),
        m_F=m_f, l_F=0.2, beta=0.0, alpha=0.0, state_box=box, epsilon=4.0)
    return CatalogEntry(problem, CallableArc(x_ref, dx_ref))


_BUILDERS = {
    "cos_t": _cos_t,
    "damped_volterra": _damped_volterra,
    "ball_control_lq": _ball_control_lq,
    "polytope_endpoint": _polytope_endpoint,
}


def names():
    return sorted(_BUILDERS)


def get(name: str, **kwargs) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown catalog problem {name!r}; known: {names()}") from None
    return builder(**kwargs)
