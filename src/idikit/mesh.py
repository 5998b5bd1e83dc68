"""Time meshes, piecewise arc extensions and quadrature over mesh cells.

Everything downstream (kernel averaging, trajectory generation, error
functionals) works on a partition of [0, T] together with piecewise-linear
state extensions and piecewise-constant velocity/memory extensions.  All
types here are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "TimeMesh",
    "PiecewiseLinearArc",
    "PiecewiseConstantArc",
    "round_down_map",
    "average_operator",
    "l2_distance",
    "sup_distance",
    "w12_distance",
    "cell_gauss_points",
    "interval_gauss_points",
]

DEFAULT_QUAD_ORDER = 4
DEFAULT_SUP_SAMPLES = 16


class MeshError(ValueError):
    """Raised for ill-formed partitions or out-of-domain time queries."""


@lru_cache(maxsize=32)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def interval_gauss_points(a, b, order: int = DEFAULT_QUAD_ORDER):
    """Gauss-Legendre nodes/weights on [a, b]; exact for degree <= 2*order-1.

    ``a`` and ``b`` may be arrays of panel edges: the result then has one
    row of ``order`` nodes/weights per panel, shape ``a.shape + (order,)``.
    """
    x, w = _leggauss(order)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


@dataclass(frozen=True)
class TimeMesh:
    """Partition 0 = t_0 < t_1 < ... < t_k = T of the horizon.

    ``steps[j] = nodes[j+1] - nodes[j]`` must all be positive.  Meshes built
    by :meth:`uniform` or :meth:`refine` satisfy the uniformity cap
    ``max_j steps[j] <= T/k``; arbitrary partitions from :meth:`from_nodes`
    may violate it, which is recorded by :attr:`satisfies_uniformity_cap`
    rather than rejected (averaging and quadrature do not need the cap).
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise MeshError("mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise MeshError("mesh must start at t=0")
        if np.any(np.diff(nodes) <= 0):
            raise MeshError("mesh nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        steps = np.diff(nodes)
        steps.setflags(write=False)
        object.__setattr__(self, "_steps", steps)

    @classmethod
    def uniform(cls, k: int, horizon: float) -> "TimeMesh":
        if k < 1 or horizon <= 0:
            raise MeshError("need k >= 1 cells and positive horizon")
        return cls(np.linspace(0.0, horizon, k + 1))

    @classmethod
    def from_nodes(cls, nodes: Sequence[float]) -> "TimeMesh":
        return cls(np.asarray(nodes, dtype=float))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def k(self) -> int:
        """Number of cells."""
        return self.nodes.size - 1

    @property
    def steps(self) -> np.ndarray:
        return self._steps

    @property
    def max_step(self) -> float:
        return float(self.steps.max())

    @property
    def satisfies_uniformity_cap(self) -> bool:
        return self.max_step <= self.horizon / self.k * (1.0 + 1e-12)

    def refine(self) -> "TimeMesh":
        """Insert every cell midpoint; halves each step exactly."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        out = np.empty(2 * self.k + 1)
        out[0::2] = self.nodes
        out[1::2] = mids
        return TimeMesh(out)

    def cell_index(self, t: float) -> int:
        """Index j with t in [t_j, t_{j+1}); t = T maps to the last cell."""
        self._check_domain(t)
        if t >= self.nodes[-1]:
            return self.k - 1
        return int(np.searchsorted(self.nodes, t, side="right") - 1)

    def _check_domain(self, t: float) -> None:
        if t < self.nodes[0] - 1e-12 or t > self.nodes[-1] + 1e-12:
            raise MeshError(f"time {t} outside [0, {self.horizon}]")

    def dense_samples(self, per_cell: int = DEFAULT_SUP_SAMPLES) -> np.ndarray:
        """Deterministic sample grid: nodes plus per_cell interior points."""
        chunks = [self.nodes]
        for j in range(self.k):
            a, b = self.nodes[j], self.nodes[j + 1]
            chunks.append(a + (b - a) * (np.arange(1, per_cell + 1) / (per_cell + 1)))
        return np.sort(np.concatenate(chunks))


def round_down_map(mesh: TimeMesh, t: float) -> float:
    """Largest mesh node <= t (so 0 at t=0 and T at t=T)."""
    mesh._check_domain(t)
    t = min(max(t, 0.0), mesh.horizon)
    idx = int(np.searchsorted(mesh.nodes, t, side="right") - 1)
    return float(mesh.nodes[idx])


ArcLike = Union["PiecewiseLinearArc", "PiecewiseConstantArc", Callable[[float], np.ndarray]]


def _as_callable(arc: ArcLike) -> Callable[[float], np.ndarray]:
    if callable(arc) and not isinstance(arc, (PiecewiseLinearArc, PiecewiseConstantArc)):
        return lambda t: np.atleast_1d(np.asarray(arc(t), dtype=float))
    return arc.eval


@dataclass(frozen=True)
class PiecewiseLinearArc:
    """Piecewise-linear extension of nodal values x_0..x_k.

    Evaluation at a node returns that node's value exactly; the derivative on
    the open cell (t_j, t_{j+1}) is the constant slope
    ``(x_{j+1} - x_j) / h_j``.  At a node the derivative of the cell to the
    right is returned (left cell at t = T).
    """

    mesh: TimeMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.shape[0] != self.mesh.k + 1:
            raise MeshError(
                f"need {self.mesh.k + 1} nodal values, got {vals.shape[0]}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        slopes = np.diff(vals, axis=0) / self.mesh.steps[:, None]
        slopes.setflags(write=False)
        object.__setattr__(self, "_slopes", slopes)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def slopes(self) -> np.ndarray:
        return self._slopes

    def eval(self, t: float) -> np.ndarray:
        j = self.mesh.cell_index(t)
        t0 = self.mesh.nodes[j]
        return self.values[j] + (t - t0) * self.slopes[j]

    __call__ = eval

    def derivative(self, t: float) -> np.ndarray:
        return self.slopes[self.mesh.cell_index(t)]


@dataclass(frozen=True)
class PiecewiseConstantArc:
    """Right-continuous step extension: value y_j on (t_j, t_{j+1}].

    The value at t = 0 is not determined by the cells and is stored
    separately (``value_at_zero``).
    """

    mesh: TimeMesh
    values: np.ndarray
    value_at_zero: np.ndarray = None

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.shape[0] != self.mesh.k:
            raise MeshError(f"need {self.mesh.k} cell values, got {vals.shape[0]}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        z = self.value_at_zero
        z = vals[0].copy() if z is None else np.atleast_1d(np.asarray(z, dtype=float))
        z.setflags(write=False)
        object.__setattr__(self, "value_at_zero", z)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval(self, t: float) -> np.ndarray:
        self.mesh._check_domain(t)
        if t <= 0.0:
            return self.value_at_zero
        j = int(np.searchsorted(self.mesh.nodes, t, side="left") - 1)
        j = min(max(j, 0), self.mesh.k - 1)
        return self.values[j]

    __call__ = eval


def cell_gauss_points(mesh: TimeMesh, order: int = DEFAULT_QUAD_ORDER):
    """Per-cell Gauss-Legendre nodes and weights, shapes (k, order)."""
    return interval_gauss_points(mesh.nodes[:-1], mesh.nodes[1:], order)


def _node_samples(mesh: TimeMesh, f: ArcLike) -> np.ndarray:
    """f evaluated once at every mesh node, shape (k+1, n)."""
    f = _as_callable(f)
    return np.array([np.atleast_1d(f(t)) for t in mesh.nodes])


def _cell_samples(mesh: TimeMesh, f: ArcLike,
                  order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """f evaluated once at every cell Gauss point, shape (k, order, n).

    Every cell-quadrature functional is a weighted reduction of such samples
    against the weights of :func:`cell_gauss_points`.
    """
    f = _as_callable(f)
    pts, _ = cell_gauss_points(mesh, order)
    return np.array([[np.atleast_1d(f(s)) for s in row] for row in pts])


def _sq_integral(wts: np.ndarray, d: np.ndarray) -> float:
    """Cell quadrature of |d|^2 from samples d of shape (k, order, n)."""
    return float(np.sum(wts * np.sum(d * d, axis=-1)))


def average_operator(mesh: TimeMesh, y: ArcLike,
                     order: int = DEFAULT_QUAD_ORDER) -> PiecewiseConstantArc:
    """Cellwise mean of y: value on cell j is (1/h_j) * integral of y over it.

    Linear in y.  Gauss-Legendre of the given order per cell, so exact for
    polynomial integrands of degree <= 2*order - 1.
    """
    _, wts = cell_gauss_points(mesh, order)
    sums = np.einsum("kq,kqn->kn", wts, _cell_samples(mesh, y, order))
    return PiecewiseConstantArc(mesh, sums / mesh.steps[:, None])


def l2_distance(mesh: TimeMesh, a: ArcLike, b: ArcLike,
                order: int = DEFAULT_QUAD_ORDER) -> float:
    """sqrt(integral over [0,T] of |a - b|^2) by composite cell quadrature."""
    _, wts = cell_gauss_points(mesh, order)
    d = _cell_samples(mesh, a, order) - _cell_samples(mesh, b, order)
    return float(np.sqrt(_sq_integral(wts, d)))


def sup_distance(mesh: TimeMesh, a: ArcLike, b: ArcLike,
                 samples_per_cell: int = DEFAULT_SUP_SAMPLES) -> float:
    fa, fb = _as_callable(a), _as_callable(b)
    grid = mesh.dense_samples(samples_per_cell)
    return max(float(np.linalg.norm(fa(t) - fb(t))) for t in grid)


def w12_distance(mesh: TimeMesh, a: PiecewiseLinearArc, b: ArcLike,
                 b_dot: ArcLike, samples_per_cell: int = DEFAULT_SUP_SAMPLES,
                 order: int = DEFAULT_QUAD_ORDER):
    """(sup-norm gap, L2 gap of derivatives) between a and an a.c. arc b."""
    sup_err = sup_distance(mesh, a, b, samples_per_cell)
    deriv_err = l2_distance(mesh, a.derivative, b_dot, order)
    return sup_err, deriv_err
