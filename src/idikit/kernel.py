"""Volterra memory kernel g(t, s, x) and the quadratures of its integrals.

The discrete constructions repeatedly integrate g (or its adjoint state
Jacobian) over products of mesh cells and over the triangular sliver
{t_j <= s <= t <= t_{j+1}}, with the state frozen at one mesh node per
s-cell.  Every such integral goes through one row rule: t in cell j and s
in cells 0..j, with tensor Gauss-Legendre blocks of order
``mesh.GAUSS_ORDER`` on the rectangles i < j and a 12-point symmetric rule,
exact through total degree 6, on the triangle of cell j; every polynomial
test kernel integrates exactly.

An exponential kernel c e^{-r (t - s)} x with r >= 0, built with
:meth:`VolterraKernel.exponential` (every shipped kernel is one), takes an
O(k) route through the same rule.  Its Gauss blocks factor into a t-side
sum per cell, tau_j = sum tw e^{-r (t_q - t_j)}, and an s-side sum over
e^{-r (t_{j+1} - s_q)}, which the symmetric Gauss rule makes the same sum
in reverse order, so tau_j serves as both; with the triangle integral of
each cell they give w, the backward coupling sums and mu by one running
sum each, and only the stable factors e^{-r (>= 0)} are ever formed: the
fast-convolution recurrence of Lubich & Schaedle, SIAM J. Sci. Comput. 24
(2002), on the Gauss rule itself.  Every other kernel keeps the row rule,
the recurrence's oracle.  The recurrence is built once per (problem, mesh),
in the discretization every layer takes, and read only here: this module
hands out the memory part of every prefix scan, on (state, running sum).
A running sum over values known beforehand (w along given states, every
coupling of a known weight, the panel sums below) is one loop on Python
floats per state component, :func:`_running_sums`, bit for bit the loop
over numpy rows; the march and the backward sweeps, which need each value
before they can form the next term, keep their closures.

The two continuous memory integrals along arcs, int_0^t g(t, s, x(s)) ds and
int_tau^T jac_g(t, tau, x(tau))^T p(t) dt, take an array of times in one
call and share one panel rule: the cells of the integrand arc's own mesh
when it is piecewise (its kinks), else of the mesh the times are sampled
on, each split evenly so that [0, T] has at least ``mesh.MIN_PANELS``
panels, and the panel that holds a time cut there.  Both are the
product-integration layout of Brunner, Collocation Methods for Volterra
Integral and Related Functional Differential Equations (CUP 2004).  For an
exponential kernel they are a prefix (or suffix) sum over the panels plus
each time's cut panel; other kernels sum each time's panels in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .mesh import (GAUSS_ORDER, TimeMesh, _panel_edges, _sample, _short_sum,
                   cell_gauss_points, interval_gauss_points)
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

class KernelIndexError(IndexError):
    """Cell-pair indices outside the admissible triangular range."""


class KernelError(ValueError):
    """An exponential kernel's weight or rate outside its range."""


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
    point.  Exponential kernels, built with :meth:`exponential`, also take
    the O(k) memory recurrence.

    ``beta`` bounds |g(t,s,x)| <= beta * (1 + |x|) on {s <= t} and ``alpha``
    bounds the Jacobian norm on the state tube the trajectories visit.
    """

    def __init__(self, g: Optional[Callable], jac: Optional[Callable] = None,
                 beta: float = 0.0, alpha: float = 0.0):
        self._g = g
        self._jac = jac
        self._a = None
        self._exp = None  # (c, r) of an exponential kernel
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

    @classmethod
    def exponential(cls, c: float, r: float, beta: float,
                    alpha: float) -> "VolterraKernel":
        """g(t, s, x) = c e^{-r (t - s)} x, a fading (r > 0) or constant
        (r = 0) memory, with Jacobian c e^{-r (t - s)} I.

        Raises KernelError unless c and r are finite and r >= 0: a growing
        kernel would need the unstable factors e^{r s}, and its declared
        bounds ``beta`` and ``alpha`` could not hold on [0, T].
        """
        c, r = float(c), float(r)
        if not (math.isfinite(c) and math.isfinite(r) and r >= 0.0):
            raise KernelError(f"exponential kernel needs finite c and r >= 0, "
                              f"got c={c!r}, r={r!r}")
        kernel = cls.convolution(lambda u: c * np.exp(-r * u), beta, alpha)
        kernel._exp = (c, r)
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


def _row_rule(mesh: TimeMesh, j: int):
    """Quadrature of the memory integral over row j: t in cell j, s <= t.

    Returns points (t, s), weights and the s-cell of each point, whose node
    is the frozen state.  Cells i < j get a GAUSS_ORDER x GAUSS_ORDER tensor
    Gauss block each, in order of i; cell j gets the 12-point triangle rule, last.
    """
    nodes = mesh.nodes
    a, b = nodes[j], nodes[j + 1]
    h = b - a
    tq, tw = interval_gauss_points(a, b)
    sq, sw = interval_gauss_points(nodes[:j], nodes[1:j + 1])  # (j, GAUSS_ORDER)
    block = (j, GAUSS_ORDER, GAUSS_ORDER)
    t = np.concatenate([np.broadcast_to(tq[None, :, None], block).ravel(),
                        a + h * _TRI_TS[:, 0]])
    s = np.concatenate([np.broadcast_to(sq[:, None, :], block).ravel(),
                        a + h * _TRI_TS[:, 1]])
    w = np.concatenate([(tw[None, :, None] * sw[:, None, :]).ravel(),
                        0.5 * h * h * TRIANGLE_WEIGHTS])
    cell = np.concatenate([np.repeat(np.arange(j), GAUSS_ORDER ** 2),
                           np.full(TRIANGLE_WEIGHTS.size, j)])
    return t, s, w, cell


def _row_integrals(batch: Callable, mesh: TimeMesh, states: np.ndarray,
                   j: int, only: Optional[int] = None) -> np.ndarray:
    """Integrals of ``batch`` over each s-cell of row j, one row per cell.

    ``batch`` is a kernel's ``eval_batch_s`` or ``jac_batch_s``; ``only``
    restricts the row to a single s-cell.
    """
    t, s, w, cell = _row_rule(mesh, j)
    if only is not None:
        keep = cell == only
        t, s, w, cell = t[keep], s[keep], w[keep], cell[keep]
    vals = batch(t, s, states[cell])
    weighted = w.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    return np.add.reduceat(weighted, starts, axis=0)


# --- the discretization and the exponential recurrence ---------------------

class _Discretization(NamedTuple):
    """A problem on one mesh, built once by :func:`_discretize` and taken by
    every layer that works on the mesh: the cell Gauss points and weights,
    shape (k, GAUSS_ORDER); for an exponential kernel c e^{-r (t - s)} x its
    recurrence (:func:`_exp_cells`), four arrays of shape (k,), from the
    row rule's own Gauss points and triangle; once sampled
    (:func:`_with_reference`), a reference arc at the nodes, (k+1, n), its
    derivative at the Gauss points, (k, GAUSS_ORDER, n), the differences
    of its nodal values, (k, n), and, but for the row rule's kernel, the
    triangle tensors mu, (k, n, n), which do not depend on the states;
    and, once :func:`dynamics._decide_scan` has looked
    at a velocity map (``drift``), the step matrices of its march when that
    march scans (``scan``, a :class:`dynamics._ScanSteps` that composes the
    march's and the gradient's scan levels on first use and keeps them for
    every later scan on the mesh).  What does not apply is None."""

    mesh: TimeMesh
    kernel: VolterraKernel
    pts: np.ndarray
    wts: np.ndarray
    own: Optional[np.ndarray] = None    # the recurrence of :func:`_exp_cells`
    past: Optional[np.ndarray] = None
    tau: Optional[np.ndarray] = None
    decay: Optional[np.ndarray] = None
    ref_nodes: Optional[np.ndarray] = None
    ref_dot: Optional[np.ndarray] = None
    ref_steps: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    drift: Optional[object] = None      # the velocity map ``scan`` was decided for
    scan: Optional[object] = None       # _ScanSteps, None where the march loops


def _discretize(kernel: VolterraKernel, mesh: TimeMesh) -> _Discretization:
    disc = _Discretization(mesh, kernel, *cell_gauss_points(mesh))
    return disc if kernel._exp is None else _exp_cells(disc)


def _with_reference(disc: _Discretization, ref_nodes: np.ndarray,
                    ref_dot: Optional[np.ndarray] = None) -> _Discretization:
    """``disc`` with a reference's nodal values (k+1, n) and derivative
    samples, and the per-mesh parts of :func:`_tensors`, read-only: the
    nodal differences and, for a zero or exponential kernel, mu."""
    ref_nodes = np.asarray(ref_nodes, dtype=float)
    k, n = disc.mesh.k, ref_nodes.shape[1]
    mu = None
    if disc.tau is not None:
        mu = disc.own[:, None, None] * np.eye(n)
    elif disc.kernel.is_zero:
        mu = np.zeros((k, n, n))
    ref_steps = np.diff(ref_nodes, axis=0)
    for a in (ref_steps, mu):
        if a is not None:
            a.flags.writeable = False
    return disc._replace(ref_nodes=ref_nodes, ref_dot=ref_dot, ref_steps=ref_steps, mu=mu)


def _exp_cells(disc: _Discretization) -> _Discretization:
    """``disc`` with the cell recurrence of its exponential kernel
    c e^{-r (t - s)} x, in O(k) work:

        h_j w_j = own_j x_j + past_j S_j,
        S_{j+1} = tau_j x_j + e^{-r h_j} S_j,  S_0 = 0,

    own_j = c tri_j, tri_j the triangle rule of e^{-r (t - s)} on cell j,
    past_j = c tau_j, tau_j the sum of tw e^{-r (t_q - t_j)} over cell j's
    Gauss points (and of sw e^{-r (t_{j+1} - s_q)}: the rule is symmetric),
    and S_j the running sum of the past cells; each multiplies the identity.
    """
    c, r = disc.kernel._exp
    nodes, h, q, wq = disc.mesh.nodes, disc.mesh.steps, disc.pts, disc.wts
    tri_lag = h[:, None] * (_TRI_TS[:, 0] - _TRI_TS[:, 1])
    tau = _short_sum(wq * np.exp(-r * (q - nodes[:-1, None])), 1)
    return disc._replace(
        own=c * (0.5 * h * h * (np.exp(-r * tri_lag) @ TRIANGLE_WEIGHTS)),
        past=c * tau, tau=tau, decay=np.exp(-r * h))


def _exp_w(disc: _Discretization, x: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The averages w_j = (own_j x_j + past_j S_j) / h_j, shape (k, n)."""
    h = disc.mesh.steps
    return (disc.past / h)[:, None] * S + (disc.own / h)[:, None] * x


def _exp_blocks(disc: _Discretization, top: np.ndarray,
                transposed: bool = False) -> np.ndarray:
    """The steps (k, 2n, 2n) of a recurrence in (state, running sum S):
    blocks ``top`` (k, n, n), past_j I, tau_j I and e^{-r h_j} I, the
    off-diagonal two swapped where ``transposed``, for a backward sweep in
    (adjoint, running coupling sum)."""
    off, n = (disc.tau, disc.past) if transposed else (disc.past, disc.tau), top.shape[-1]
    blocks = np.stack([np.zeros_like(disc.tau), *off, disc.decay],
                      axis=-1).reshape(-1, 2, 2)
    M = np.kron(blocks, np.eye(n))
    M[:, :n, :n] = top
    return M


def _march_steps(disc: _Discretization, drift: np.ndarray) -> Optional[np.ndarray]:
    """The steps M (k, m, m) of a march z_{j+1} = M_j z_j + c_j with the
    drift block ``drift`` (k, n, n), I + h_j A: z = x and M = ``drift`` on
    the zero kernel, z = (x, S) and the top block ``drift`` + own_j I on an
    exponential one (:func:`_exp_blocks`), None for the row rule."""
    if disc.tau is None:
        return drift if disc.kernel.is_zero else None
    return _exp_blocks(disc, drift + disc.own[:, None, None] * np.eye(drift.shape[-1]))


def _scanned_w(disc: _Discretization, z: np.ndarray) -> np.ndarray:
    """The averages w (k, n) of nodes 0..k-1 of a march scanned in the
    steps of :func:`_march_steps`, from its states z (k, m)."""
    if disc.tau is None:
        return np.zeros_like(z)
    return _exp_w(disc, *np.split(z, 2, axis=1))


def _gradient_rhs(disc: _Discretization, top: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """The right-hand side (k, m) of the gradient's sweep in the transposed
    steps of :func:`_march_steps`, given its state part ``top`` (k, n) and
    the weights b (k, n) of the averages: ``top``, or on an exponential
    kernel (top_j + own_j b_j / h_j, past_j b_j / h_j)."""
    if disc.tau is None:
        return top
    h = disc.mesh.steps
    return np.hstack([top + (disc.own / h)[:, None] * b, (disc.past / h)[:, None] * b])


def _running_sums(decay: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """y_i = decay_i y_{i-1} + terms_i for i = 0..k-1 from y_{-1} = 0,
    shape (k, n), given scalar decays (k,) and terms (k, n).

    One column at a time on Python floats, each y written back over its
    term in the column's one list: every product and sum is the IEEE
    operation a loop over the (n,) rows does, in the same order, so the
    result is that loop's bit for bit at a fraction of its calls.
    """
    terms = np.asarray(terms, dtype=float)
    out = np.empty(terms.shape)
    decay = np.asarray(decay, dtype=float).tolist()
    for col in range(terms.shape[1]):
        ys, y = terms[:, col].tolist(), 0.0
        for i, d in enumerate(decay):
            y = ys[i] = d * y + ys[i]
        out[:, col] = ys
    return out


def _in_turn(step: Callable, cells: range, what: str) -> Callable:
    """``step(j, ...)`` for the cells j of ``cells``, one after another, as
    a running sum needs; a call for any other cell raises
    :class:`KernelIndexError`."""
    at = 0

    def call(j, *args):
        nonlocal at
        expected = cells[at] if at < len(cells) else None
        if j != expected:
            raise KernelIndexError(f"{what} run over cells in turn: "
                                   f"asked for {j}, next is {expected}")
        at += 1
        return step(j, *args)

    return call


def _memory_averages(disc: _Discretization):
    """``w(j, states)``, the memory average of cell j, called for
    j = 0, 1, ..., k-1 in turn with ``states`` holding at least nodes 0..j.

    The forward march takes its averages from it, and :func:`assemble_w`
    gives the same bit for bit.  An exponential kernel carries the running
    sum S_j of :func:`_exp_cells`, so that w_j costs O(n); any other kernel
    takes the row rule of :func:`kernel_average_w`, and the zero kernel
    gives zeros.
    """
    kernel, mesh = disc.kernel, disc.mesh
    if kernel.is_zero:
        return lambda j, states: np.zeros(np.shape(states)[-1])
    if disc.tau is None:
        return lambda j, states: kernel_average_w(kernel, mesh, states[:j + 1], j)
    # Python floats: a step is then four small-array operations
    past, own = (disc.past / mesh.steps).tolist(), (disc.own / mesh.steps).tolist()
    decay, tau = disc.decay.tolist(), disc.tau.tolist()
    running = 0.0

    def w(j, states):
        nonlocal running
        x = states[j]
        w_j = past[j] * running + own[j] * x
        running = decay[j] * running + tau[j] * x
        return w_j

    return w


# --- the discrete tensors ---------------------------------------------------

def kernel_average_w(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
                     j: int) -> np.ndarray:
    """Cell-j average of the accumulated memory with nodes frozen per cell.

    (1/h_j) * int over the j-th cell in t of [ sum_{i<j} int over cell i of
    g(t, s, x_i) ds  +  int_{t_j}^t g(t, s, x_j) ds ] dt.
    """
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    if not 0 <= j <= mesh.k - 1:
        raise KernelIndexError(f"cell index {j} outside 0..{mesh.k - 1}")
    if kernel.is_zero:
        return np.zeros(states.shape[1])
    rows = _row_integrals(kernel.eval_batch_s, mesh, states, j)
    return rows.sum(axis=0) / mesh.steps[j]


def assemble_w(kernel: VolterraKernel, mesh: TimeMesh, nodal_states) -> np.ndarray:
    """All cell averages w_0..w_{k-1}, shape (k, n); for an exponential
    kernel in O(k) by the running sum the forward march carries."""
    return _assemble_w(_discretize(kernel, mesh), nodal_states)


def _assemble_w(disc: _Discretization, nodal_states) -> np.ndarray:
    """The averages :func:`_memory_averages` gives the march, bit for bit:
    an exponential kernel's running sums S_j by :func:`_running_sums` from
    the march's S_0 = 0, then w_j = past_j S_j + own_j x_j in one pass; the
    zero kernel's zeros; the row rule cell by cell."""
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    mesh, k = disc.mesh, disc.mesh.k
    if disc.kernel.is_zero:
        return np.zeros((k, states.shape[1]))
    if disc.tau is None:
        w_of = _memory_averages(disc)
        return np.array([w_of(j, states) for j in range(k)])
    x = states[:k]
    S = np.zeros_like(x)
    S[1:] = _running_sums(disc.decay[:-1], disc.tau[:-1, None] * x[:-1])
    return _exp_w(disc, x, S)


def xi_tensor(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
              i: int, j: int) -> np.ndarray:
    """Adjoint-Jacobian rectangle integral: t over cell i, s over cell j.

    Defined for 0 <= j <= i-1, 1 <= i <= k-1, with the state frozen at the
    s-cell node x_j; satisfies |xi| <= alpha * h_i * h_j.
    """
    if not (1 <= i <= mesh.k - 1 and 0 <= j <= i - 1):
        raise KernelIndexError(f"(i={i}, j={j}) outside the triangular index range")
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    return _row_integrals(kernel.jac_batch_s, mesh, states, i, only=j)[0].T


def mu_tensor(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
              j: int) -> np.ndarray:
    """Adjoint-Jacobian triangle integral over cell j; |mu_j| <= alpha h_j^2 / 2."""
    if not 0 <= j <= mesh.k - 1:
        raise KernelIndexError(f"cell index {j} outside 0..{mesh.k - 1}")
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    return _row_integrals(kernel.jac_batch_s, mesh, states, j, only=j)[0].T


def theta_vector(mesh: TimeMesh, velocities, reference_arc, j: int) -> np.ndarray:
    """Integral over cell j of (v_j - d/dt reference).

    Telescopes exactly to h_j * v_j - (ref(t_{j+1}) - ref(t_j)), which is how
    it is evaluated; no derivative oracle needed.
    """
    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    ref = _sample(reference_arc, mesh.nodes[j:j + 2])
    return mesh.steps[j] * v[j] - (ref[1] - ref[0])


@dataclass(frozen=True, eq=False)
class QuadratureTensors:
    """The coupling tensors of one discrete trajectory.

    ``xi[i, j]`` holds the rectangle integral for 1 <= i <= k-1, j < i; the
    row i = k is kept and identically zero so the adjoint recursion can sum
    to i = k without special-casing the last step.  Only the row rule's
    kernel stores this dense array.  For the zero kernel ``xi`` is None and
    so is ``cells``.  For an exponential kernel ``xi`` is None and
    ``cells``, the discretization, holds the per-cell sums it factors into,
    xi[i, j] = c tau_i e^{-r (t_i - t_{j+1})} tau_j I.  The couplings of
    all three are read through :meth:`backward_coupling`, in turn, or
    :meth:`couplings`, all at once, and a sweep's scan steps through
    :meth:`sweep_steps`; :attr:`memoryless` tells the zero kernel's
    tensors, whose mu and couplings all vanish, from the others.
    """

    w: np.ndarray             # (k, n)
    theta: np.ndarray         # (k, n)
    xi: Optional[np.ndarray]  # (k+1, k, n, n), rows 0 and k zero; row rule only
    mu: np.ndarray            # (k, n, n)
    cells: Optional[_Discretization] = None

    @property
    def memoryless(self) -> bool:
        """Whether these are the zero kernel's tensors: mu is zero and so is
        every coupling, so a sweep need form neither."""
        return self.cells is None and self.xi is None

    def backward_coupling(self, r: np.ndarray) -> Callable:
        """``coupling(j)`` = sum_{m=j+1}^{k-1} xi[m, j] @ r[m], how the memory
        of the later steps m, weighted by r (shape (k, n)), depends on node
        j; called for j = k-1, k-2, ..., 0 in turn, and a call out of turn
        raises :class:`KernelIndexError`.

        Call j reads rows j + 1.. of r, so a backward sweep may write
        r[j + 1] just before it asks for j.  An exponential kernel runs the
        recurrence of :func:`_exp_cells` transposed, carrying
        R_j = sum_{m>j} e^{-r (t_m - t_{j+1})} past_m r[m] as the running
        sum R_j = e^{-r h_{j+1}} R_{j+1} + past_{j+1} r[j + 1], R_{k-1} = 0,
        so that coupling(j) = tau_j R_j costs O(n); the row rule's kernel
        sums its dense ``xi``, and the zero kernel gives zeros.
        """
        k, cells = len(r), self.cells
        if cells is not None:
            past, tau, decay = (a.tolist() for a in (cells.past, cells.tau, cells.decay))
            running = np.zeros(r.shape[1])

            def coupling(j):
                nonlocal running
                if j + 1 < k:
                    running = decay[j + 1] * running + past[j + 1] * r[j + 1]
                return tau[j] * running
        elif self.xi is not None:
            def coupling(j):
                return np.einsum("mab,mb->a", self.xi[j + 1:k, j], r[j + 1:])
        else:
            def coupling(j):
                return np.zeros(r.shape[1])
        return _in_turn(coupling, range(k - 1, -1, -1), "backward couplings")

    def couplings(self, r: np.ndarray) -> np.ndarray:
        """Every ``coupling(j)`` of :meth:`backward_coupling` at once, shape
        (k, n), bit for bit: an exponential kernel's running sums R_j by
        :func:`_running_sums` from R_{k-1} = 0 down, times tau_j; the row
        rule's dense sums cell by cell; zeros for the zero kernel."""
        k, cells = len(r), self.cells
        if cells is not None:
            R = np.zeros(r.shape)
            R[:-1] = _running_sums(cells.decay[:0:-1],
                                   cells.past[:0:-1, None] * r[:0:-1])[::-1]
            return cells.tau[:, None] * R
        if self.xi is not None:
            return np.array([np.einsum("mab,mb->a", self.xi[j + 1:k, j], r[j + 1:])
                             for j in range(k)])
        return np.zeros(r.shape)

    def sweep_steps(self, M: np.ndarray, c: np.ndarray):
        """(steps, right-hand side) of the sweep y_j = M_j y_{j+1} + c_j +
        coupling_j as one affine recurrence: M (k, n, n) and c (k, n) on the
        zero kernel, in (y_{j+1}, R_j) of :meth:`backward_coupling` by the
        transposed :func:`_exp_blocks` on an exponential one, else None."""
        if self.cells is None:
            return None if self.xi is not None else (M, c)
        return _exp_blocks(self.cells, M, transposed=True), np.hstack([c, np.zeros_like(c)])


def assemble_tensors(kernel: VolterraKernel, mesh: TimeMesh, nodal_states,
                     velocities, reference_nodes) -> QuadratureTensors:
    """w, theta, xi and mu at the given trajectory.

    The reference enters theta only, through its nodal values
    ``reference_nodes``, shape (k+1, n).  An exponential kernel gets its
    per-cell sums in place of ``xi``, in O(k) time and memory; the zero
    kernel gets no ``xi``.
    """
    disc = _with_reference(_discretize(kernel, mesh), reference_nodes)
    states = np.atleast_2d(np.asarray(nodal_states, dtype=float))
    return _tensors(disc, states, _assemble_w(disc, states), velocities)


def _tensors(disc: _Discretization, states: np.ndarray, w: np.ndarray,
             velocities) -> QuadratureTensors:
    """:func:`assemble_tensors` on a discretization with its reference
    (:func:`_with_reference`), given the averages ``w`` of the states: a
    trajectory's own, which are :func:`assemble_w`'s bit for bit.  Only the
    row rule evaluates the kernel here; the other kernels' mu is the
    discretization's own."""
    mesh, kernel = disc.mesh, disc.kernel
    k, n = mesh.k, states.shape[1]
    # theta_vector for every cell at once
    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    theta = mesh.steps[:, None] * v - disc.ref_steps
    mu, xi = disc.mu, None
    cells = disc if disc.tau is not None else None
    if mu is None:
        mu, xi = np.zeros((k, n, n)), np.zeros((k + 1, k, n, n))
        for i in range(k):
            rows = _row_integrals(kernel.jac_batch_s, mesh, states, i)
            xi[i, :i] = rows[:i].transpose(0, 2, 1)
            mu[i] = rows[i].T
    return QuadratureTensors(w=w, theta=theta, xi=xi, mu=mu, cells=cells)


# --- continuous-time memory integrals ---------------------------------------

TIME_BLOCK = 64  # times per kernel call; a call holds O(k * TIME_BLOCK) points


class _Panels(NamedTuple):
    """The panels between ``edges`` that integrals at times t run over:
    for the i-th time the whole panels lo[i]..hi[i]-1 and the panel
    ``cut[i]`` that holds it, cut there."""

    lo: np.ndarray
    hi: np.ndarray
    cut: np.ndarray
    first: int    # the whole panels of all times lie in first..last-1
    last: int
    whole: tuple  # Gauss (points, weights) of panels first..last-1, a row per panel
    part: tuple   # Gauss (points, weights) of each time's cut panel, a row per time


def _panels(edges: np.ndarray, t: np.ndarray, before: bool) -> _Panels:
    """The panels before each time t (or after it)."""
    if before:  # edges[cut] < t <= edges[cut + 1]
        cut = np.searchsorted(edges, t, side="left") - 1
        lo, hi, a, b = np.zeros_like(cut), cut, edges[cut], t
    else:  # edges[cut - 1] <= t < edges[cut]
        cut = np.searchsorted(edges, t, side="right")
        lo, hi, a, b = cut, np.full_like(cut, edges.size - 1), t, edges[cut]
    first, last = lo.min(), hi.max()
    return _Panels(lo, hi, cut, first, last,
                   interval_gauss_points(edges[first:last], edges[first + 1:last + 1]),
                   interval_gauss_points(a, b))


def _panel_sums(edges: np.ndarray, times: np.ndarray, live: np.ndarray,
                before: bool, arc, integrand: Callable) -> np.ndarray:
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
    pan = _panels(edges, times[rows_live], before)
    (wq, ww), (cq, cw) = pan.whole, pan.part
    S, W = np.append(wq, cq), np.append(ww, cw)
    A = _sample(arc, S)
    out = np.zeros((times.size,) + A.shape[1:])
    for start in range(0, rows_live.size, TIME_BLOCK):
        blk = np.arange(start, min(start + TIME_BLOCK, rows_live.size))[:, None]
        whole = (pan.hi - pan.lo)[blk] * GAUSS_ORDER
        # row b of the table: its time's whole-panel points, then the points
        # of its cut panel; the zeros that pad the row add nothing
        slot = np.arange(whole.max() + GAUSS_ORDER)
        src = np.where(slot < whole, (pan.lo[blk] - pan.first) * GAUSS_ORDER + slot,
                       wq.size + blk * GAUSS_ORDER + slot - whole)
        used = slot < whole + GAUSS_ORDER
        terms = np.zeros(used.shape + A.shape[1:])
        rows = rows_live[np.broadcast_to(blk, used.shape)[used]]
        terms[used] = W[src[used], None] * integrand(rows, S[src[used]], A[src[used]])
        out[rows_live[blk[:, 0]]] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def _panel_recurrence(edges: np.ndarray, times: np.ndarray, live: np.ndarray,
                      before: bool, arc, c: float, rate: float) -> np.ndarray:
    """:func:`_panel_sums` of the integrand c e^{-rate |t - s|} arc(s), the
    exponential kernel's, at the same points in O(panels + times).

    One running sum over the whole panels, forward before the times or
    backward after them, is carried to each time's cut and added to the sum
    over its cut panel; every lag in an exponent is >= 0.
    """
    rows_live = np.flatnonzero(live)
    t = times[rows_live]
    pan = _panels(edges, t, before)
    (wq, ww), (cq, cw) = pan.whole, pan.part
    A = _sample(arc, np.append(wq, cq))
    n = A.shape[-1]
    sign = 1.0 if before else -1.0  # sign * (t - s) is the lag
    span = edges[pan.first:pan.last + 1]
    near = span[1:] if before else span[:-1]  # each panel's edge toward the times
    part = np.einsum("pq,pqn->pn", ww * np.exp(-rate * sign * (near[:, None] - wq)),
                     A[:wq.size].reshape(wq.shape + (n,)))
    decay = np.exp(-rate * np.diff(span))
    if not before:
        part, decay = part[::-1], decay[::-1]
    running = np.zeros((part.shape[0] + 1, n))
    running[1:] = _running_sums(decay, part)
    if not before:
        running = running[::-1]
    head = np.exp(-rate * sign * (t - edges[pan.cut]))[:, None] * running[pan.cut - pan.first]
    tail = np.einsum("mq,mqn->mn", cw * np.exp(-rate * sign * (t[:, None] - cq)),
                     A[wq.size:].reshape(cq.shape + (n,)))
    out = np.zeros((times.size, n))
    out[rows_live] = c * (head + tail)
    return out


def _memory_integrals(kernel: VolterraKernel, arc, t,
                      mesh: Optional[TimeMesh]) -> np.ndarray:
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
        edges = _panel_edges(arc, mesh)
        if kernel._exp is not None:
            out = _panel_recurrence(edges, flat, flat > 0.0, True, arc, *kernel._exp)
        else:
            out = _panel_sums(edges, flat, flat > 0.0, True, arc,
                              lambda rows, s, x: kernel.eval_batch_s(flat[rows], s, x))
    return out.reshape(times.shape + out.shape[-1:])


def continuous_accumulator(kernel: VolterraKernel, arc, t) -> np.ndarray:
    """Running memory integral along an arc: int_0^t g(t, s, arc(s)) ds.

    ``t`` is a scalar, giving shape (n,), or a 1-D array of times, giving
    (m, n).  The panels follow the arc's own mesh when it is piecewise;
    otherwise the times count as sampled on the single cell [0, max t].
    """
    return _memory_integrals(kernel, arc, t, None)


def volterra_adjoint_integral(kernel: VolterraKernel, arc_x, p, tau,
                              horizon: float) -> np.ndarray:
    """Forward adjoint memory term: int_tau^T jac_g(t, tau, x(tau))^T p(t) dt.

    The Jacobian's second argument and its state are pinned at tau; only the
    first time argument runs over [tau, T].  ``tau`` is a scalar, giving
    shape (n,), or a 1-D array, giving (m, n).  The panels follow p's own
    mesh when it is piecewise, else the single cell [0, T].
    """
    taus = np.asarray(tau, dtype=float)
    return _adjoint_integrals(kernel, _sample(arc_x, taus.ravel()), p, taus, horizon)


def _adjoint_integrals(kernel: VolterraKernel, x_tau: np.ndarray, p, tau,
                       horizon: float) -> np.ndarray:
    """:func:`volterra_adjoint_integral` with the state already sampled at
    the times, ``x_tau`` of shape (m, n)."""
    taus = np.asarray(tau, dtype=float)
    flat = taus.ravel()
    out = np.zeros_like(x_tau)
    if not kernel.is_zero and (flat < horizon).any():
        edges = _panel_edges(p, TimeMesh.uniform(1, horizon))
        edges = np.append(edges[edges < horizon], horizon)
        if kernel._exp is not None:
            out = _panel_recurrence(edges, flat, flat < horizon, False, p, *kernel._exp)
        else:
            out = _panel_sums(edges, flat, flat < horizon, False, p,
                              lambda rows, t, pt: np.einsum(
                                  "qji,qj->qi",
                                  kernel.jac_batch_s(t, flat[rows], x_tau[rows]), pt))
    return out.reshape(taus.shape + out.shape[-1:])
