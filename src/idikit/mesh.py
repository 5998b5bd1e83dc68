"""Time meshes, arcs and quadrature over mesh cells.

Everything downstream (kernel averaging, trajectory generation, error
functionals) works on a partition of [0, T] together with arcs: the
piecewise-linear state extensions, the piecewise-constant velocity/memory
extensions and closed-form arcs.  An arc's ``eval`` (and ``derivative``)
takes a scalar time, giving shape (n,), or a 1-D array of m times, giving
(m, n).  Every quadrature over cells or panels is Gauss-Legendre of the one
order ``GAUSS_ORDER``.  All types here are immutable after construction and
all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "TimeMesh",
    "PiecewiseLinearArc",
    "PiecewiseConstantArc",
    "CallableArc",
    "average_operator",
    "l2_distance",
    "sup_distance",
    "w12_distance",
    "cell_gauss_points",
    "interval_gauss_points",
]

# every cell and panel quadrature is Gauss-Legendre of this order, exact for
# polynomials of degree <= 2 * GAUSS_ORDER - 1; its nodes and weights on
# [-1, 1] are stored as the bits of np.polynomial.legendre.leggauss(4), so
# importing the package runs no eigenvalue solve
GAUSS_ORDER = 4
_GAUSS_X = np.array([float.fromhex(s) for s in (
    "-0x1.b8e6dbcf63985p-1", "-0x1.5c23fd9dd3dfcp-2",
    "0x1.5c23fd9dd3dfcp-2", "0x1.b8e6dbcf63985p-1")])
_GAUSS_W = np.array([float.fromhex(s) for s in (
    "0x1.64340f7e7b666p-2", "0x1.4de5f840c24cdp-1",
    "0x1.4de5f840c24cdp-1", "0x1.64340f7e7b666p-2")])
DEFAULT_SUP_SAMPLES = 16
# a memory integral over [0, T] is summed over at least this many panels
MIN_PANELS = 64


class MeshError(ValueError):
    """Raised for ill-formed partitions or out-of-domain time queries."""


def interval_gauss_points(a, b):
    """Gauss-Legendre nodes/weights of order GAUSS_ORDER on [a, b].

    ``a`` and ``b`` may be arrays of panel edges: the result then has one
    row of GAUSS_ORDER nodes/weights per panel, shape
    ``a.shape + (GAUSS_ORDER,)``.
    """
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * _GAUSS_X, half * _GAUSS_W


@dataclass(frozen=True, eq=False)
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
        if not np.isfinite(nodes).all():
            raise MeshError("mesh nodes must be finite")
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
        if k < 1 or not 0 < horizon < np.inf:
            raise MeshError("need k >= 1 cells and a positive finite horizon")
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

    def cell_index(self, t):
        """Index j with t in [t_j, t_{j+1}), elementwise for an array of
        times; t = T, and times within 1e-12 outside [0, T], map to the end
        cells."""
        self._check_domain(t)
        return np.searchsorted(self.nodes[1:-1], t, side="right")

    def _check_domain(self, t) -> None:
        t = np.asarray(t)
        bad = (t < self.nodes[0] - 1e-12) | (t > self.nodes[-1] + 1e-12)
        if bad.any():
            raise MeshError(f"time {t[bad].flat[0]} outside [0, {self.horizon}]")

    def dense_samples(self) -> np.ndarray:
        """Deterministic sample grid: nodes plus DEFAULT_SUP_SAMPLES per cell."""
        per_cell = DEFAULT_SUP_SAMPLES
        inner = (self.nodes[:-1, None] + self.steps[:, None]
                 * (np.arange(1, per_cell + 1) / (per_cell + 1)))
        return np.sort(np.concatenate([self.nodes, inner.ravel()]))


ArcLike = Union["PiecewiseLinearArc", "PiecewiseConstantArc", "CallableArc",
                Callable[[float], np.ndarray]]


@dataclass(frozen=True, eq=False)
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

    def eval(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        j = self.mesh.cell_index(t)
        return self.values[j] + (t - self.mesh.nodes[j])[..., None] * self.slopes[j]

    __call__ = eval

    def derivative(self, t) -> np.ndarray:
        return self.slopes[self.mesh.cell_index(t)]


@dataclass(frozen=True, eq=False)
class PiecewiseConstantArc:
    """Left-continuous step extension: value y_j on (t_j, t_{j+1}].

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

    def eval(self, t) -> np.ndarray:
        self.mesh._check_domain(t)
        j = np.searchsorted(self.mesh.nodes[1:-1], t, side="left")
        return np.where(np.asarray(t)[..., None] <= 0.0, self.value_at_zero,
                        self.values[j])

    __call__ = eval


@dataclass(frozen=True)
class CallableArc:
    """Closed-form arc with an exact derivative oracle.

    ``fn`` and ``dfn`` take a 1-D array of m times and return an (m, n)
    array, so every stack of times is one call.  ``eval`` and ``derivative``
    take times of any shape like the other arcs; an oracle whose result is
    not (m, n) raises :class:`MeshError`.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]

    def eval(self, t) -> np.ndarray:
        return _stacked(self.fn, t)

    __call__ = eval

    def derivative(self, t) -> np.ndarray:
        return _stacked(self.dfn, t)


def _stacked(fn: Callable[[np.ndarray], np.ndarray], t) -> np.ndarray:
    """fn at the times t, shape t.shape + (n,), from one call on t.ravel()."""
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    vals = np.asarray(fn(flat), dtype=float)
    if vals.ndim != 2 or vals.shape[0] != flat.size:
        raise MeshError(f"arc oracle gave shape {vals.shape} for {flat.size} "
                        f"times; needs ({flat.size}, n)")
    return vals.reshape(t.shape + vals.shape[1:])


_ARCS = (PiecewiseLinearArc, PiecewiseConstantArc, CallableArc)


def _sample(f: ArcLike, times) -> np.ndarray:
    """f at every entry of ``times``, shape times.shape + (n,): an arc, or its
    bound eval/derivative, in one call, any other callable once per time."""
    times = np.asarray(times, dtype=float)
    if isinstance(getattr(f, "__self__", f), _ARCS):
        vals = f(times.ravel())
    else:
        vals = np.array([np.atleast_1d(np.asarray(f(s), dtype=float))
                         for s in times.ravel()])
    return vals.reshape(times.shape + vals.shape[-1:])


def _panel_edges(arc: ArcLike, mesh: TimeMesh) -> np.ndarray:
    """Panels for an integral along ``arc``: the cells of its own mesh when
    it is piecewise (it kinks or jumps at the nodes), else of ``mesh``, each
    split evenly so that [0, T] has at least MIN_PANELS panels."""
    mesh = arc.mesh if isinstance(arc, _ARCS[:2]) else mesh
    split = -(-MIN_PANELS // mesh.k)
    edges = mesh.nodes[:-1, None] + np.arange(split) * (mesh.steps[:, None] / split)
    return np.append(edges.ravel(), mesh.horizon)


def cell_gauss_points(mesh: TimeMesh):
    """Per-cell Gauss-Legendre nodes and weights, shapes (k, GAUSS_ORDER)."""
    return interval_gauss_points(mesh.nodes[:-1], mesh.nodes[1:])


# Reductions over a short axis: a state, pair, subset or Gauss-point axis of a
# few entries.  numpy reduces such an axis with a loop per row inside one
# call, which costs more than one elementwise call per entry of the axis, so
# these fold the columns (the slices along the axis) one after another.  A
# sum adds them left to right from +0.0 at every length; numpy's reduction
# also starts from +0.0 (it sums an all -0.0 row to +0.0), so at lengths
# 1 to 7, below its pairwise blocks, the sum is bit for bit np.add.reduce
# and the norm np.linalg.norm(x, axis=...).  Long axes (cells, grid columns,
# samples) keep numpy's reductions.

def _short_fold(ufunc, start, x, axis: int):
    """``ufunc`` applied to ``start`` and each column of x along ``axis``
    in turn, into one new array; ``start`` alone, broadcast, on an axis of
    length 0."""
    x = np.asarray(x)
    lead = (slice(None),) * (axis % x.ndim)
    if not x.shape[axis]:
        return np.full(x.shape[:len(lead)] + x.shape[len(lead) + 1:], start)
    out = ufunc(start, x[lead + (0,)])
    for i in range(1, x.shape[axis]):
        if out.ndim:
            ufunc(out, x[lead + (i,)], out=out)
        else:  # a 1-D x folds to a numpy scalar
            out = ufunc(out, x[lead + (i,)])
    return out


def _short_sum(x, axis: int = -1):
    """Sum over a short axis, the columns added left to right from +0.0."""
    return _short_fold(np.add, 0.0, x, axis)


def _short_norm(x, axis: int = -1):
    """Euclidean norm over a short axis: sqrt of the :func:`_short_sum` of
    the squares, bit for bit np.linalg.norm(x, axis=axis) at lengths 1-7."""
    return np.sqrt(_short_sum(x * x, axis))


def _short_all(x, axis: int = -1):
    """Whether every entry along a short axis is true: & of the columns."""
    return _short_fold(np.logical_and, True, x, axis)


def _short_any(x, axis: int = -1):
    """Whether some entry along a short axis is true: | of the columns."""
    return _short_fold(np.logical_or, False, x, axis)


def _sq_integral(wts: np.ndarray, d: np.ndarray) -> float:
    """Cell quadrature of |d|^2 from samples d of shape (k, GAUSS_ORDER, n).

    Every cell-quadrature functional is such a weighted reduction of the
    samples of its arcs at the points of :func:`cell_gauss_points`.
    """
    return float(np.sum(wts * _short_sum(d * d)))


def average_operator(mesh: TimeMesh, y: ArcLike) -> PiecewiseConstantArc:
    """Cellwise mean of y: value on cell j is (1/h_j) * integral of y over it.

    Linear in y.  Gauss-Legendre of order GAUSS_ORDER per cell, so exact for
    polynomial integrands of degree <= 2*GAUSS_ORDER - 1.
    """
    pts, wts = cell_gauss_points(mesh)
    sums = np.einsum("kq,kqn->kn", wts, _sample(y, pts))
    return PiecewiseConstantArc(mesh, sums / mesh.steps[:, None])


def l2_distance(mesh: TimeMesh, a: ArcLike, b: ArcLike) -> float:
    """sqrt(integral over [0,T] of |a - b|^2) by composite cell quadrature."""
    pts, wts = cell_gauss_points(mesh)
    d = _sample(a, pts) - _sample(b, pts)
    return float(np.sqrt(_sq_integral(wts, d)))


def sup_distance(mesh: TimeMesh, a: ArcLike, b: ArcLike) -> float:
    grid = mesh.dense_samples()
    d = _sample(a, grid) - _sample(b, grid)
    return float(np.sqrt(np.vecdot(d, d).max()))  # row norms as np.linalg.norm


def w12_distance(mesh: TimeMesh, a: PiecewiseLinearArc, b: ArcLike, b_dot: ArcLike):
    """(sup-norm gap, L2 gap of derivatives) between a and an a.c. arc b."""
    sup_err = sup_distance(mesh, a, b)
    deriv_err = l2_distance(mesh, a.derivative, b_dot)
    return sup_err, deriv_err
