"""Volterra memory kernel g(t, s, x) and the quadratures of its integrals.

The discrete constructions repeatedly integrate g (or its adjoint state
Jacobian) over products of mesh cells and over the triangular sliver
{t_j <= s <= t <= t_{j+1}}, with the state frozen at one mesh node per
s-cell.  Every such integral goes through one row rule: t in cell j and s
in cells 0..j, with tensor Gauss-Legendre blocks on the rectangles i < j and
a 12-point symmetric rule, exact through total degree 6, on the triangle of
cell j; every polynomial test kernel integrates exactly.

The two continuous memory integrals along arcs, int_0^t g(t, s, x(s)) ds and
int_tau^T jac_g(t, tau, x(tau))^T p(t) dt, take an array of times in one
call and share one panel rule: the cells of the integrand arc's own mesh
when it is piecewise (its kinks), else of the mesh the times are sampled
on, each split evenly so that [0, T] has at least ``mesh.MIN_PANELS``
panels, and the panel that holds a time cut there.  Both are the
product-integration layout of Brunner, Collocation Methods for Volterra
Integral and Related Functional Differential Equations (CUP 2004).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .mesh import TimeMesh, _panel_edges, _sample, interval_gauss_points
from .setvalued import _fd_jacobian

__all__ = [
    "VolterraKernel",
    "QuadratureTensors",
    "kernel_average_w",
    "assemble_w",
    "xi_tensor",
    "mu_tensor",
    "theta_vector",
    "assemble_tensors",
    "continuous_accumulator",
    "volterra_adjoint_integral",
    "TRIANGLE_POINTS",
    "TRIANGLE_WEIGHTS",
]

DEFAULT_ORDER = 4


class KernelIndexError(IndexError):
    """Cell-pair indices outside the admissible triangular range."""


def _triangle_rule():
    # 12-point symmetric rule, exact for total degree <= 6 on the reference
    # triangle; weights normalized to sum to 1 (multiply by the area).
    groups = [
        ((0.501426509658179, 0.249286745170910, 0.249286745170910), 0.116786275726379),
        ((0.249286745170910, 0.501426509658179, 0.249286745170910), 0.116786275726379),
        ((0.249286745170910, 0.249286745170910, 0.501426509658179), 0.116786275726379),
        ((0.873821971016996, 0.063089014491502, 0.063089014491502), 0.050844906370207),
        ((0.063089014491502, 0.873821971016996, 0.063089014491502), 0.050844906370207),
        ((0.063089014491502, 0.063089014491502, 0.873821971016996), 0.050844906370207),
    ]
    a, b, c = 0.053145049844816, 0.310352451033784, 0.636502499121399
    for perm in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        groups.append((perm, 0.082851075618374))
    bary = np.array([g[0] for g in groups])
    wts = np.array([g[1] for g in groups])
    return bary, wts / wts.sum()


TRIANGLE_POINTS, TRIANGLE_WEIGHTS = _triangle_rule()


class VolterraKernel:
    """g : (t, s, x) -> R^n with a state-Jacobian oracle.

    ``jac`` may be analytic or omitted, in which case central differences
    with step 1e-6 * (1 + |x|) are used.  Kernels of the convolution form
    g(t, s, x) = a(t - s) x are built with :meth:`convolution` and evaluate
    batches in closed form; any other kernel evaluates a batch point by
    point.

    ``beta`` bounds |g(t,s,x)| <= beta * (1 + |x|) on {s <= t} and ``alpha``
    bounds the Jacobian norm on the state tube the trajectories visit.
    """

    def __init__(self, g: Optional[Callable], jac: Optional[Callable] = None,
                 beta: float = 0.0, alpha: float = 0.0):
        self._g = g
        self._jac = jac
        self._a = None
        self.beta = float(beta)
        self.alpha = float(alpha)

    @classmethod
    def zero(cls) -> "VolterraKernel":
        return cls(None, None, beta=0.0, alpha=0.0)

    @classmethod
    def convolution(cls, a: Callable, beta: float, alpha: float) -> "VolterraKernel":
        """g(t, s, x) = a(t - s) x with Jacobian a(t - s) I.

        ``a`` maps the lag t - s to a scalar and must broadcast over arrays.
        """
        kernel = cls(lambda t, s, x: a(t - s) * x,
                     jac=lambda t, s, x: a(t - s) * np.eye(x.size),
                     beta=beta, alpha=alpha)
        kernel._a = a
        return kernel

    @property
    def is_zero(self) -> bool:
        return self._g is None

    # pointwise ---------------------------------------------------------
    def eval(self, t: float, s: float, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._g is None:
            return np.zeros_like(x)
        return np.atleast_1d(np.asarray(self._g(t, s, x), dtype=float))

    def jac(self, t: float, s: float, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._g is None:
            return np.zeros((x.size, x.size))
        if self._jac is not None:
            return np.atleast_2d(np.asarray(self._jac(t, s, x), dtype=float))
        return _fd_jacobian(partial(self._g, t), s, x)

    # batched -----------------------------------------------------------
    # ``t`` is a scalar or an array with the length of ``s``; row i of the
    # result belongs to (t_i, s_i, X_i).
    def eval_batch_s(self, t, s: np.ndarray, X: np.ndarray) -> np.ndarray:
        """g(t_i, s_i, X_i) stacked, shape (m, n)."""
        s = np.asarray(s, dtype=float)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), s.shape)
        if self._g is None:
            return np.zeros_like(X)
        if self._a is not None:
            return self._a(t - s)[:, None] * X
        return np.array([self.eval(ti, si, xi) for ti, si, xi in zip(t, s, X)])

    def jac_batch_s(self, t, s: np.ndarray, X: np.ndarray) -> np.ndarray:
        """State Jacobians of g at (t_i, s_i, X_i) stacked, shape (m, n, n)."""
        s = np.asarray(s, dtype=float)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), s.shape)
        n = X.shape[1]
        if self._g is None:
            return np.zeros((X.shape[0], n, n))
        if self._a is not None:
            return self._a(t - s)[:, None, None] * np.eye(n)
        return np.array([self.jac(ti, si, xi) for ti, si, xi in zip(t, s, X)])


# --- the row rule -----------------------------------------------------------

# the 12 triangle points mapped onto {0 <= s <= t <= 1}, in (t, s) coordinates
_TRI_TS = TRIANGLE_POINTS @ np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


def _row_rule(mesh: TimeMesh, j: int, order: int):
    """Quadrature of the memory integral over row j: t in cell j, s <= t.

    Returns points (t, s), weights and the s-cell of each point, whose node
    is the frozen state.  Cells i < j get an order x order tensor Gauss
    block each, in order of i; cell j gets the 12-point triangle rule, last.
    """
    nodes = mesh.nodes
    a, b = nodes[j], nodes[j + 1]
    h = b - a
    tq, tw = interval_gauss_points(a, b, order)
    sq, sw = interval_gauss_points(nodes[:j], nodes[1:j + 1], order)  # (j, order)
    block = (j, order, order)
    t = np.concatenate([np.broadcast_to(tq[None, :, None], block).ravel(),
                        a + h * _TRI_TS[:, 0]])
    s = np.concatenate([np.broadcast_to(sq[:, None, :], block).ravel(),
                        a + h * _TRI_TS[:, 1]])
    w = np.concatenate([(tw[None, :, None] * sw[:, None, :]).ravel(),
                        0.5 * h * h * TRIANGLE_WEIGHTS])
    cell = np.concatenate([np.repeat(np.arange(j), order * order),
                           np.full(TRIANGLE_WEIGHTS.size, j)])
    return t, s, w, cell


def _row_integrals(batch: Callable, mesh: TimeMesh, states: np.ndarray,
                   j: int, order: int, only: Optional[int] = None) -> np.ndarray:
    """Integrals of ``batch`` over each s-cell of row j, one row per cell.

    ``batch`` is a kernel's ``eval_batch_s`` or ``jac_batch_s``; ``only``
    restricts the row to a single s-cell.
    """
    t, s, w, cell = _row_rule(mesh, j, order)
    if only is not None:
        keep = cell == only
        t, s, w, cell = t[keep], s[keep], w[keep], cell[keep]
    vals = batch(t, s, states[cell])
    weighted = w.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    return np.add.reduceat(weighted, starts, axis=0)


# --- the discrete tensors ---------------------------------------------------

def kernel_average_w(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
                     j: int, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Cell-j average of the accumulated memory with nodes frozen per cell.

    (1/h_j) * int over the j-th cell in t of [ sum_{i<j} int over cell i of
    g(t, s, x_i) ds  +  int_{t_j}^t g(t, s, x_j) ds ] dt.
    """
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    if not 0 <= j <= mesh.k - 1:
        raise KernelIndexError(f"cell index {j} outside 0..{mesh.k - 1}")
    if kernel.is_zero:
        return np.zeros(states.shape[1])
    rows = _row_integrals(kernel.eval_batch_s, mesh, states, j, order)
    return rows.sum(axis=0) / mesh.steps[j]


def assemble_w(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
               order: int = DEFAULT_ORDER) -> np.ndarray:
    """All cell averages w_0..w_{k-1}, shape (k, n)."""
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    return np.array([kernel_average_w(kernel, mesh, states, j, order)
                     for j in range(mesh.k)])


def xi_tensor(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
              i: int, j: int, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Adjoint-Jacobian rectangle integral: t over cell i, s over cell j.

    Defined for 0 <= j <= i-1, 1 <= i <= k-1, with the state frozen at the
    s-cell node x_j; satisfies |xi| <= alpha * h_i * h_j.
    """
    if not (1 <= i <= mesh.k - 1 and 0 <= j <= i - 1):
        raise KernelIndexError(f"(i={i}, j={j}) outside the triangular index range")
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    return _row_integrals(kernel.jac_batch_s, mesh, states, i, order, only=j)[0].T


def mu_tensor(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
              j: int) -> np.ndarray:
    """Adjoint-Jacobian triangle integral over cell j; |mu_j| <= alpha h_j^2 / 2."""
    if not 0 <= j <= mesh.k - 1:
        raise KernelIndexError(f"cell index {j} outside 0..{mesh.k - 1}")
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    return _row_integrals(kernel.jac_batch_s, mesh, states, j, DEFAULT_ORDER,
                          only=j)[0].T


def theta_vector(mesh: TimeMesh, velocities, reference_arc, j: int) -> np.ndarray:
    """Integral over cell j of (v_j - d/dt reference).

    Telescopes exactly to h_j * v_j - (ref(t_{j+1}) - ref(t_j)), which is how
    it is evaluated; no derivative oracle needed.
    """
    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    ref = _sample(reference_arc, mesh.nodes[j:j + 2])
    return mesh.steps[j] * v[j] - (ref[1] - ref[0])


@dataclass(frozen=True)
class QuadratureTensors:
    """The coupling tensors of one discrete trajectory.

    ``xi[i, j]`` holds the rectangle integral for 1 <= i <= k-1, j < i; the
    row i = k is kept and identically zero so the adjoint recursion can sum
    to i = k without special-casing the last step.  For a zero kernel ``xi``
    is a read-only broadcast of 0.0 that stores no array.
    """

    w: np.ndarray        # (k, n)
    theta: np.ndarray    # (k, n)
    xi: np.ndarray       # (k+1, k, n, n), rows 0 and k zero
    mu: np.ndarray       # (k, n, n)

    def coupling(self, j: int, r: np.ndarray) -> np.ndarray:
        """sum_{m=j+1}^{k-1} xi[m, j] @ r[m]: how the memory of the later
        steps m, weighted by r (shape (k, n)), depends on node j."""
        if self.xi.strides[0] == 0:  # the zero kernel's broadcast 0.0
            return np.zeros(r.shape[1])
        return np.einsum("mab,mb->a", self.xi[j + 1:len(r), j], r[j + 1:])


def assemble_tensors(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
                     velocities, reference_nodes,
                     order: int = DEFAULT_ORDER) -> QuadratureTensors:
    """w, theta, xi and mu at the given trajectory.

    The reference enters theta only, through its nodal values
    ``reference_nodes``, shape (k+1, n).
    """
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    k, n = mesh.k, states.shape[1]
    w = assemble_w(kernel, mesh, states, order)
    # theta_vector for every cell at once
    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    theta = mesh.steps[:, None] * v - np.diff(reference_nodes, axis=0)
    mu = np.zeros((k, n, n))
    if kernel.is_zero:
        xi = np.broadcast_to(0.0, (k + 1, k, n, n))
    else:
        xi = np.zeros((k + 1, k, n, n))
        for i in range(k):
            rows = _row_integrals(kernel.jac_batch_s, mesh, states, i, order)
            xi[i, :i] = rows[:i].transpose(0, 2, 1)
            mu[i] = rows[i].T
    return QuadratureTensors(w=w, theta=theta, xi=xi, mu=mu)


# --- continuous-time memory integrals ---------------------------------------

TIME_BLOCK = 64  # times per kernel call; a call holds O(k * TIME_BLOCK) points


def _panel_sums(edges: np.ndarray, times: np.ndarray, live: np.ndarray,
                before: bool, arc, integrand: Callable, order: int) -> np.ndarray:
    """Gauss sums, one row per time, over the panels between ``edges``
    before the time (or after it), the panel that holds it cut there; zero
    where ``live`` is False.

    ``integrand(rows, s, a)`` is the integrand at points s, where the arc
    takes the values a, for the times ``times[rows]``.  The arc is evaluated
    once per point for all times.  Each time adds its terms one after the
    other, whole panels in order and then the cut panel: the order of a
    walk over the panels before the time.
    """
    rows_live = np.flatnonzero(live)
    t = times[rows_live]
    if before:  # edges[cut] < t <= edges[cut + 1]
        cut = np.searchsorted(edges, t, side="left") - 1
        lo, hi, a, b = np.zeros_like(cut), cut, edges[cut], t
    else:  # edges[cut - 1] <= t < edges[cut]
        cut = np.searchsorted(edges, t, side="right")
        lo, hi, a, b = cut, np.full_like(cut, edges.size - 1), t, edges[cut]
    first, last = lo.min(), hi.max()
    wq, ww = interval_gauss_points(edges[first:last], edges[first + 1:last + 1], order)
    cq, cw = interval_gauss_points(a, b, order)
    S, W = np.append(wq, cq), np.append(ww, cw)
    A = _sample(arc, S)
    out = np.zeros((times.size,) + A.shape[1:])
    for start in range(0, t.size, TIME_BLOCK):
        blk = np.arange(start, min(start + TIME_BLOCK, t.size))[:, None]
        whole = (hi - lo)[blk] * order
        # row b of the table: its time's whole-panel points, then the points
        # of its cut panel; the zeros that pad the row add nothing
        slot = np.arange(whole.max() + order)
        src = np.where(slot < whole, (lo[blk] - first) * order + slot,
                       wq.size + blk * order + slot - whole)
        used = slot < whole + order
        terms = np.zeros(used.shape + A.shape[1:])
        rows = rows_live[np.broadcast_to(blk, used.shape)[used]]
        terms[used] = W[src[used], None] * integrand(rows, S[src[used]], A[src[used]])
        out[rows_live[blk[:, 0]]] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def _memory_integrals(kernel: VolterraKernel, arc, t, mesh: Optional[TimeMesh],
                      order: int = DEFAULT_ORDER) -> np.ndarray:
    """int_0^t g(t, s, arc(s)) ds at a scalar t, shape (n,), or at each of a
    1-D array of times, shape (m, n); zero for t <= 0.

    ``mesh`` is the mesh the times are sampled on, the single cell
    [0, max t] if None; its cells set the panels unless the arc is piecewise.
    """
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    if kernel.is_zero or not (flat > 0.0).any():  # the arc is evaluated only for its size
        out = np.zeros((flat.size, _sample(arc, np.zeros(1)).shape[-1]))
    else:
        mesh = TimeMesh.uniform(1, flat.max()) if mesh is None else mesh
        out = _panel_sums(_panel_edges(arc, mesh), flat, flat > 0.0, True, arc,
                          lambda rows, s, x: kernel.eval_batch_s(flat[rows], s, x),
                          order)
    return out.reshape(times.shape + out.shape[-1:])


def continuous_accumulator(kernel: VolterraKernel, arc, t,
                           order: int = DEFAULT_ORDER) -> np.ndarray:
    """Running memory integral along an arc: int_0^t g(t, s, arc(s)) ds.

    ``t`` is a scalar, giving shape (n,), or a 1-D array of times, giving
    (m, n).  The panels follow the arc's own mesh when it is piecewise;
    otherwise the times count as sampled on the single cell [0, max t].
    """
    return _memory_integrals(kernel, arc, t, None, order)


def volterra_adjoint_integral(kernel: VolterraKernel, arc_x, p, tau,
                              horizon: float,
                              order: int = DEFAULT_ORDER) -> np.ndarray:
    """Forward adjoint memory term: int_tau^T jac_g(t, tau, x(tau))^T p(t) dt.

    The Jacobian's second argument and its state are pinned at tau; only the
    first time argument runs over [tau, T].  ``tau`` is a scalar, giving
    shape (n,), or a 1-D array, giving (m, n).  The panels follow p's own
    mesh when it is piecewise, else the single cell [0, T].
    """
    taus = np.asarray(tau, dtype=float)
    flat = taus.ravel()
    x_tau = _sample(arc_x, flat)
    out = np.zeros_like(x_tau)
    if not kernel.is_zero and (flat < horizon).any():
        edges = _panel_edges(p, TimeMesh.uniform(1, horizon))
        out = _panel_sums(
            np.append(edges[edges < horizon], horizon), flat, flat < horizon,
            False, p, lambda rows, t, pt: np.einsum(
                "qji,qj->qi", kernel.jac_batch_s(t, flat[rows], x_tau[rows]), pt),
            order)
    return out.reshape(taus.shape + out.shape[-1:])
