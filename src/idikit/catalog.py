"""Built-in benchmark problems with closed-form reference trajectories.

Every entry is built by :func:`_problem` from the parts an inline config
names (README, "Inline problems"), its standing constants by the same rule
as an inline problem's, and ships a feasible reference arc with an exact
derivative:

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
from dataclasses import dataclass, replace

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


# The inline grammar's vocabulary (README, "Inline problems"), one
# constructor per name.  Each drift is its scale times an orthogonal matrix,
# or zero, so |A| = |scale| where A has an entry that is not zero.
_DRIFTS = {  # name: (the dimension it needs, None for any; A of (scale, dim))
    "zero": (None, lambda scale, dim: np.zeros((dim, dim))),
    "rotation": (2, lambda scale, dim: scale * np.array([[0.0, 1.0], [-1.0, 0.0]])),
    "scalar_linear": (1, lambda scale, dim: np.array([[scale]])),
}
# -e^{-r (t - s)} x has beta = alpha = 1 for r >= 0, the rates exponential takes
_KERNELS = {  # name: the kernel of its rate
    "none": lambda rate: VolterraKernel.zero(),
    "negative_identity": lambda rate: _KERNELS["identity_decay"](0.0),
    "identity_decay": lambda rate: VolterraKernel.exponential(-1.0, rate, beta=1.0,
                                                              alpha=1.0),
}
_BODIES = {"singleton": Singleton, "ball": BallOffset, "polytope": PolytopeOffset}


def _problem(name, x0, horizon, state_box, *, variant="singleton", body=(),
             drift="zero", drift_scale=0.0, kernel="none", kernel_rate=None,
             terminal_target=None, running_weights=None, omega=None,
             epsilon=1.0, **declared) -> ProblemData:
    """The problem of the inline grammar's parts, named as in the grammar.

    ``body`` is what the variant takes after the drift: nothing, a radius or
    vertices; a cost's target or (x, v) weights None is the zero cost, and
    ``omega`` None the whole space.  A standing constant not ``declared``
    follows one rule: m_F = |A| |box corner| + the body's radius, l_F = |A|,
    and beta = alpha = 1 with memory, else 0.  A negative ``kernel_rate``
    raises KernelError.
    """
    A = _DRIFTS[drift][1](drift_scale, len(x0))
    norm_a = abs(drift_scale) if A.any() else 0.0
    fmap = _BODIES[variant].linear(A, *body)
    kern = _KERNELS[kernel](kernel_rate)
    lo, hi = state_box
    corner = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    memory = 0.0 if kern.is_zero else 1.0
    constants = dict(m_F=norm_a * corner + fmap.body_radius(), l_F=norm_a,
                     beta=memory, alpha=memory)
    constants.update(declared)
    return ProblemData(
        name=name, fmap=fmap, kernel=kern, x0=x0, horizon=horizon,
        omega=WholeSpace() if omega is None else omega,
        terminal_cost=TerminalCost.zero() if terminal_target is None
        else _quadratic_terminal(terminal_target),
        running_cost=RunningCost.zero() if running_weights is None
        else _quadratic_running(*running_weights),
        state_box=state_box, epsilon=epsilon, **constants)


def _cos_t(T: float = 1.0) -> CatalogEntry:
    # x'(t) = -int_0^t x(s) ds, x(0) = 1  ->  x(t) = cos t
    problem = _problem("cos_t", [1.0], T, ([-1.5], [1.5]),
                       kernel="negative_identity", terminal_target=[0.0])
    reference = CallableArc(lambda t: np.cos(t)[:, None],
                            lambda t: -np.sin(t)[:, None])
    return CatalogEntry(problem, reference)


def _damped_volterra(T: float = 2.0) -> CatalogEntry:
    # x'(t) = -int_0^t e^{-(t-s)} x(s) ds  <=>  x'' + x' + x = 0
    problem = _problem("damped_volterra", [1.0], T, ([-1.5], [1.5]),
                       kernel="identity_decay", kernel_rate=1.0,
                       terminal_target=[0.0])
    w = math.sqrt(3.0) / 2.0

    def x_ref(t):
        x = np.exp(-t / 2) * (np.cos(w * t) + np.sin(w * t) / math.sqrt(3.0))
        return x[:, None]

    def dx_ref(t):
        return (-np.exp(-t / 2) * (2.0 / math.sqrt(3.0)) * np.sin(w * t))[:, None]

    return CatalogEntry(problem, CallableArc(x_ref, dx_ref))


def _ball_control_lq(T: float = 1.0) -> CatalogEntry:
    problem = _problem(
        "ball_control_lq", [1.0, 0.0], T, ([-5.0, -5.0], [5.0, 5.0]),
        variant="ball", body=(2.0,), drift="rotation", drift_scale=0.3,
        terminal_target=[0.0, 0.0], running_weights=(1.0, 1.0), epsilon=4.0,
        # 1.5 sqrt(2) + 2 rounded up; the rule's value rounds 6.3e-16 below it
        m_F=4.121320343559643)
    # the constant arc x == x0 is exactly feasible: 0 = A x0 + u with |u| < r
    reference = CallableArc(lambda t: np.tile(problem.x0, (t.size, 1)),
                            lambda t: np.zeros((t.size, 2)))
    return CatalogEntry(problem, reference)


def _polytope_endpoint(T: float = 1.0) -> CatalogEntry:
    problem = _problem(
        "polytope_endpoint", [0.0, 0.0], T, ([-3.0, -3.0], [3.0, 3.0]),
        variant="polytope", body=([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],),
        drift="rotation", drift_scale=0.2, terminal_target=[0.8, 0.1],
        running_weights=(0.0, 1.0), epsilon=4.0)
    dev = np.array([0.45, 0.45])  # interior deviation of the simplex
    Ainv = np.linalg.inv(problem.fmap.jacobian(0.0, problem.x0))

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

    omega = BallSet(x_ref(np.array([T]))[0], 0.35)
    return CatalogEntry(replace(problem, omega=omega), CallableArc(x_ref, dx_ref))


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
