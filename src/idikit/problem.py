"""Problem data: dynamics, costs, endpoint sets and the standing constants.

A problem bundles the velocity map F, the memory kernel g, the initial
state, the horizon, the endpoint set, the two cost oracles and the constants
(m_F, l_F, beta, alpha) under which all error estimates are certified.  The
constants may be declared analytically or sampled over the state box the
trajectories are expected to visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .mesh import CallableArc  # reference arcs live with the other arcs

__all__ = [
    "TerminalCost",
    "RunningCost",
    "WholeSpace",
    "PointSet",
    "BallSet",
    "BoxSet",
    "InflatedSet",
    "ProblemData",
    "CallableArc",
]


class EndpointError(ValueError):
    """Endpoint lies outside the constraint set beyond tolerance."""


# --- cost oracles -----------------------------------------------------------

@dataclass(frozen=True)
class TerminalCost:
    """Terminal cost phi(x_k) with its gradient: ``value`` takes one state
    (n,) and returns a float, ``grad`` returns the gradient, shape (n,)."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def zero(cls) -> "TerminalCost":
        return cls(lambda x: 0.0, lambda x: np.zeros_like(np.atleast_1d(x)))


class CostShapeError(ValueError):
    """A running-cost oracle gave an array of the wrong shape."""


_StackedOracle = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RunningCost:
    """Smooth running cost l(t, x, v) with both partial gradients.

    Each oracle takes a stack of N points: times ``t`` of shape (N,), states
    ``x`` and velocities ``v`` of shape (N, n).  ``value`` returns shape
    (N,), ``grad_x`` and ``grad_v`` shape (N, n).  Consumers go through
    :meth:`evaluate` and :meth:`gradients`, which raise
    :class:`CostShapeError` on any other shape.
    """

    value: _StackedOracle
    grad_x: _StackedOracle
    grad_v: _StackedOracle

    @classmethod
    def zero(cls) -> "RunningCost":
        z = lambda t, x, v: np.zeros(np.shape(x))
        return cls(lambda t, x, v: np.zeros(np.shape(t)), z, z)

    def evaluate(self, t, x, v) -> np.ndarray:
        """l at every point of the stack, shape (N,)."""
        return _checked("value", self.value(t, x, v), np.shape(t))

    def gradients(self, t, x, v):
        """(grad_x l, grad_v l) at every point of the stack, each (N, n)."""
        return (_checked("grad_x", self.grad_x(t, x, v), np.shape(x)),
                _checked("grad_v", self.grad_v(t, x, v), np.shape(x)))


def _checked(name: str, out, shape) -> np.ndarray:
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise CostShapeError(f"running cost {name} gave shape {out.shape}; "
                             f"the stack needs {shape}")
    return out


# --- endpoint constraint sets ------------------------------------------------

class _EndpointSet:
    def distance(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return self.distance(np.atleast_1d(x)) <= tol

    def normal_cone_residual(self, x: np.ndarray, w: np.ndarray,
                             tol: float = 1e-9) -> float:
        """Distance of w to the limiting normal cone at x (x must be in the set)."""
        raise NotImplementedError


class WholeSpace(_EndpointSet):
    def distance(self, x):
        return 0.0

    def project(self, x):
        return np.atleast_1d(np.asarray(x, dtype=float))

    def normal_cone_residual(self, x, w, tol=1e-9):
        return float(np.linalg.norm(w))


@dataclass(frozen=True, eq=False)
class PointSet(_EndpointSet):
    """The one-point endpoint set {point}; its normal cone is all of R^n."""

    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.atleast_1d(np.asarray(self.point, dtype=float)))

    def distance(self, x):
        return float(np.linalg.norm(np.atleast_1d(x) - self.point))

    def project(self, x):
        return self.point

    def normal_cone_residual(self, x, w, tol=1e-9):
        if self.distance(x) > tol:
            raise EndpointError("endpoint outside the singleton set")
        return 0.0  # the cone is all of R^n


@dataclass(frozen=True, eq=False)
class BoxSet(_EndpointSet):
    """The endpoint box lo <= x <= hi, coordinatewise; lo > hi in any
    coordinate raises ValueError, lo = hi fixes that coordinate."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if np.any(lo > hi):
            raise ValueError("box needs lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def project(self, x):
        return np.clip(np.atleast_1d(np.asarray(x, dtype=float)), self.lo, self.hi)

    def distance(self, x):
        return float(np.linalg.norm(np.atleast_1d(x) - self.project(x)))

    def normal_cone_residual(self, x, w, tol=1e-9):
        x, w = np.atleast_1d(x), np.atleast_1d(w)
        if self.distance(x) > tol:
            raise EndpointError("endpoint outside the box beyond tolerance")
        # the cone is a coordinate product; project w componentwise
        res2 = 0.0
        for i in range(x.size):
            at_lo = abs(x[i] - self.lo[i]) <= tol
            at_hi = abs(x[i] - self.hi[i]) <= tol
            if at_lo and at_hi:
                continue  # collapsed coordinate, cone is the whole line
            if at_hi:
                res2 += min(w[i], 0.0) ** 2
            elif at_lo:
                res2 += max(w[i], 0.0) ** 2
            else:
                res2 += w[i] ** 2
        return float(np.sqrt(res2))


@dataclass(frozen=True, eq=False)
class InflatedSet(_EndpointSet):
    """base + zeta * unit ball, the endpoint set of the discrete problems."""

    base: _EndpointSet
    zeta: float

    def distance(self, x):
        return max(0.0, self.base.distance(x) - self.zeta)

    def project(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = self.base.distance(x)
        if d <= self.zeta:
            return x
        p = self.base.project(x)
        return p + (self.zeta / d) * (x - p)

    def normal_cone_residual(self, x, w, tol=1e-9):
        x, w = np.atleast_1d(x), np.atleast_1d(w)
        d = self.base.distance(x)
        if d > self.zeta + tol:
            raise EndpointError("endpoint outside the inflated set")
        if self.zeta <= tol:  # the base's gate takes what the one above took
            return self.base.normal_cone_residual(x, w, tol + self.zeta)
        if d < self.zeta - tol:
            return float(np.linalg.norm(w))
        # boundary band: d >= zeta - tol > 0, the radial direction is safe
        eta = (x - self.base.project(x)) / d
        lam = max(0.0, float(eta @ w))
        return float(np.linalg.norm(w - lam * eta))


class BallSet(InflatedSet):
    """center + radius * unit ball: the point ``center`` inflated by
    ``radius``, with the distance, projection and normal cone of
    :class:`InflatedSet`; a radius-0 ball is the point, whose cone is the
    whole space."""

    def __init__(self, center, radius: float):
        super().__init__(PointSet(center), radius)

    @property
    def center(self) -> np.ndarray:
        return self.base.point

    @property
    def radius(self) -> float:
        return self.zeta


# --- the problem bundle -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemData:
    """Everything the discretization and the condition checks consume.

    The constants certify the standing growth/Lipschitz assumptions: values
    of F stay inside m_F * B, F(t, .) is l_F-Lipschitz in the Hausdorff
    metric, |g| <= beta (1 + |x|) on {s <= t}, and |D_x g| <= alpha on the
    tube the trajectories visit.  They may be declared (preferred for the
    catalog problems, where they are exact) or sampled over ``state_box``.
    """

    name: str
    fmap: object
    kernel: object
    x0: np.ndarray
    horizon: float
    omega: _EndpointSet
    terminal_cost: TerminalCost
    running_cost: RunningCost
    m_F: float
    l_F: float
    beta: float
    alpha: float
    state_box: Tuple[np.ndarray, np.ndarray]
    epsilon: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        lo, hi = self.state_box
        box = (np.atleast_1d(np.asarray(lo, dtype=float)),
               np.atleast_1d(np.asarray(hi, dtype=float)))
        object.__setattr__(self, "state_box", box)

    @property
    def dim(self) -> int:
        return self.x0.size

    def state_grid(self, per_axis: int) -> np.ndarray:
        """Deterministic grid of per_axis points along each state-box axis."""
        lo, hi = self.state_box
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(self.dim)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)
