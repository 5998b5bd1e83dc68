"""Forward trajectory generation and strong discrete approximation of arcs.

Two constructions live here.  ``simulate`` produces feasible discrete
trajectories by explicit time stepping with a velocity-selection policy.
``approximate_arc`` reproduces a *given* feasible arc: it takes the cellwise
averages of the reference derivative as target step velocities, accumulates
the frozen-node memory averages, projects the deviation onto the velocity
set at every node, and reports the certified error majorants (the nodal
bound and the derivative-L2 budget) next to the measured errors.

Both step through the node loop :func:`_march`.  A march that is an affine
recurrence, for a drift built with ``linear`` and a zero or exponential
kernel, also runs as one prefix scan (:func:`_affine_scan`, after Blelloch,
"Prefix sums and their applications", CMU-CS-90-190, 1990), in steps whose
memory part the kernel module builds; :func:`_controlled_march` runs the
solver's march and a point body's ``approximate_arc``, scan or loop.  On the
zero kernel ``approximate_arc`` projects every node in one stacked pass.
The loop is the fallback and the oracle, as :func:`_backward_loop` is of the
scans of the gradient's and the multipliers' backward sweeps.

A scan is two steps: :func:`_scan_levels` composes the doubling products of
the step matrices, which depend only on the problem and the mesh, and
:func:`_affine_scan` runs the passes over a right-hand side.  The march's
and the gradient's levels are composed once per (problem, mesh) and
direction and kept (:class:`_ScanSteps`, within :data:`SCAN_LEVEL_BYTES`),
the multipliers' once per run of their sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernel import (_assemble_w, _discretize, _Discretization, _march_steps,
                     _memory_averages, _memory_integrals, _scanned_w,
                     _with_reference, assemble_w)
from .mesh import (PiecewiseLinearArc, TimeMesh, _sample, _short_all, _short_any,
                   _short_norm, _short_sum, _sq_integral, sup_distance)
from .problem import ProblemData
from .setvalued import (Singleton, _centers, _norm, averaged_modulus,
                        distance_and_projection)

__all__ = [
    "NonFiniteStateError",
    "DiscreteTrajectory",
    "ApproximationErrorReport",
    "simulate",
    "approximate_arc",
    "feasibility_residual",
    "estimate_tau",
]

POLICIES = ("min_norm", "extreme", "constant")


class InfeasibleReferenceError(ValueError):
    """Reference arc violates the inclusion beyond the stated tolerance."""


class NonFiniteStateError(ArithmeticError):
    """A stage produced a value that is not finite: a state, velocity or
    memory average of a forward march, the reference's inclusion defect on
    the cell from ``node``, a gradient or a multiplier.  Names the stage,
    the mesh size k, the node and its time."""

    def __init__(self, stage: str, k: int, node: int, t: float):
        super().__init__(f"{stage}: non-finite state at node {node} of k={k} "
                         f"(t={t:.6g})")
        self.stage, self.k, self.node, self.t = stage, k, node, t


@dataclass(frozen=True, eq=False)
class DiscreteTrajectory:
    """Nodal states, step velocities and frozen-node memory averages.

    Satisfies x_{j+1} = x_j + h_j v_j with v_j - w_j in F(t_j, x_j): bit
    for bit from the node loop :func:`_march` and from the stacked pass of
    :func:`approximate_arc` on a zero kernel, to round-off from a prefix
    scan (:func:`_scan_march`).  The piecewise-linear extension of the
    states is available as an arc.
    """

    mesh: TimeMesh
    states: np.ndarray      # (k+1, n)
    velocities: np.ndarray  # (k, n)
    w: np.ndarray           # (k, n)

    def __post_init__(self):
        st = np.atleast_2d(np.asarray(self.states, dtype=float))
        v = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        k = self.mesh.k
        if st.shape[0] != k + 1 or v.shape[0] != k or w.shape[0] != k:
            raise ValueError("inconsistent trajectory array shapes")
        for name, arr in (("states", st), ("velocities", v), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def arc(self) -> PiecewiseLinearArc:
        return PiecewiseLinearArc(self.mesh, self.states)

    def max_feasibility_defect(self, problem: ProblemData) -> float:
        """max_j dist(v_j - w_j ; F(t_j, x_j)); zero for valid trajectories."""
        d, _ = distance_and_projection(problem.fmap, self.mesh.nodes[:-1],
                                       self.states[:-1], self.velocities - self.w)
        return float(d.max())

    def w_reproduction_error(self, problem: ProblemData) -> float:
        w = assemble_w(problem.kernel, self.mesh, self.states)
        return float(_norm(w - self.w).max())


def simulate(problem: ProblemData, mesh: TimeMesh, policy: str = "min_norm",
             seed: int = 0, constant_deviation=None) -> DiscreteTrajectory:
    """Explicit time stepping with a velocity selection from F(t_j,x_j)+w_j.

    Policies: ``min_norm`` picks the smallest-norm admissible velocity,
    ``extreme`` a seeded random extreme point of the value set, and
    ``constant`` the drift plus a fixed deviation (projected into the offset
    body so the step stays feasible).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    if constant_deviation is None:
        constant_deviation = np.zeros(problem.dim)
    # keep the step feasible even if the requested deviation leaves the body
    constant_deviation = problem.fmap.project_body(
        np.atleast_1d(np.asarray(constant_deviation, dtype=float)))
    # the only policy that draws; numpy.random loads on its first use
    rng = np.random.default_rng(seed) if policy == "extreme" else None
    fmap, t = problem.fmap, mesh.nodes
    select = {
        "min_norm": lambda j, x, w: distance_and_projection(fmap, t[j], x, -w)[1] + w,
        "extreme": lambda j, x, w: fmap.sample_extreme(t[j], x, rng) + w,
        "constant": lambda j, x, w: fmap.center(t[j], x) + constant_deviation + w,
    }[policy]
    return _march(problem, _discretize(problem.kernel, mesh), select, "simulate")


def _march(problem: ProblemData, disc: _Discretization, select,
           stage: str, start: int = 0, head=None) -> DiscreteTrajectory:
    """Explicit steps x_{j+1} = x_j + h_j v_j from x_0 on ``disc``'s mesh.

    ``select(j, x_j, w_j)`` picks the velocity v_j given the node state and
    the frozen-node memory average w_j of the states so far, bit for bit
    what :func:`assemble_w` gives for the finished states.  Raises
    :class:`NonFiniteStateError`, naming ``stage``, at the first node j
    whose v_j, w_j or x_{j+1} is not finite.

    ``head``, arrays (states, velocities, w) of the full shapes that hold
    the march through node ``start``, resumes it there; only the zero
    kernel's averages, which carry no running sum, may skip nodes.  This
    loop is the fallback and the test oracle of every faster march: a step
    that projects, a drift not built with ``linear``, a row-rule kernel and
    a drift whose step products grow past :data:`SCAN_GROWTH` take it
    (:func:`_decide_scan`), as does a scan whose value is not finite.
    """
    mesh = disc.mesh
    k, n = mesh.k, problem.dim
    if head is None:
        states, vels, ws = np.empty((k + 1, n)), np.empty((k, n)), np.empty((k, n))
        states[0] = problem.x0
    else:
        states, vels, ws = head
    w_of = _memory_averages(disc)
    for j in range(start, k):
        w_j = w_of(j, states)
        v_j = select(j, states[j], w_j)
        states[j + 1] = states[j] + mesh.steps[j] * v_j
        vels[j] = v_j
        ws[j] = w_j
    _check_finite(stage, mesh, states[1:], vels, ws)
    return DiscreteTrajectory(mesh, states, vels, ws)


# A scan's round-off is machine epsilon times the norm of the products it
# forms, which grow where the states may stay bounded (an unstable A held by
# its controls); a recurrence scans while the product of its step norms, a
# bound on every such product, is at most this.  Held at x* by u = -A x*
# with A = 4 I over T = 1, the scanned states stay within 5e-14 of x* per
# entry at k = 200 and 3.2e-13 at k = 10^4.
SCAN_GROWTH = 2.0 ** 6


# Stored scan levels take about ceil(log2 k) times the bytes of the step
# matrices; a mesh whose levels of one direction exceed this composes them on
# each scan and stores nothing.  It covers polytope_endpoint (m = 2) at
# k = 10^5, about 50 MB.
SCAN_LEVEL_BYTES = 64 * 2 ** 20


def _scan_levels(M: np.ndarray) -> tuple:
    """The doubling levels of the steps M (k, m, m) for :func:`_affine_scan`,
    each read-only: ``levels[0]`` is M itself, which takes the start state,
    and ``levels[1 + i]``, shape (k - d, m, m), the level of stride d = 2^i,
    whose row for map j = d..k-1 composes the d maps j - d + 1..j, for
    each d < k.  The level of stride 1 is M[1:] in C order, a view of M
    where M is in C order (a product with a transposed view rounds
    differently); that of stride 2d is formed from that of stride d.  A
    pass of stride d reads no row j < d, so none is kept."""
    levels, d = [M.view()], 1
    if len(M) > 1:
        levels.append(np.ascontiguousarray(M[1:]))
    while 2 * d < len(M):
        levels.append(levels[-1][d:] @ levels[-1][:-d])
        d *= 2
    for L in levels:
        L.flags.writeable = False
    return tuple(levels)


def _affine_scan(levels: tuple, c: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """y_j = M_j y_{j-1} + c_j for j = 0..k-1 from y_{-1} = y0, shape (k, m),
    given the levels of M (k, m, m) from :func:`_scan_levels`, c (k, m) and
    y0 of length m or, zero-padded, n < m.

    Doubling: after c_0 + M_0[:, :len(y0)] y0 and the pass of stride d over
    its level, row j holds the composition of the maps j - 2d + 1..j (from
    map 0 where that is < 0), so ceil(log2 k) passes of batched products
    give them all.
    """
    c = c[..., None].copy()
    if len(c):
        c[0, :, 0] += levels[0][0, :, :len(y0)] @ y0
    for i, L in enumerate(levels[1:]):
        d = 1 << i
        c[d:] += L @ c[:-d]
    return c[..., 0]


class _ScanSteps:
    """The step matrices M (k, m, m) of a march that scans, decided once per
    (problem, mesh) by :func:`_scan_steps`, with two sets of
    :func:`_scan_levels`, each composed on first use: ``forward()`` of M,
    for :func:`_scan_march`, and ``backward()`` of M_{k-1}^T, ..., M_1^T,
    for the gradient's sweep.  A set above :data:`SCAN_LEVEL_BYTES` is
    composed again on each call and not stored."""

    def __init__(self, M: np.ndarray):
        self.M = M
        self._levels = {}

    def _stored(self, direction: str, M: np.ndarray) -> tuple:
        levels = self._levels.get(direction)
        if levels is None:
            levels = _scan_levels(M)
            if sum(L.nbytes for L in levels[1:]) <= SCAN_LEVEL_BYTES:
                self._levels[direction] = levels
        return levels

    def forward(self) -> tuple:
        return self._stored("forward", self.M)

    def backward(self) -> tuple:
        return self._stored("backward", self.M[:0:-1].transpose(0, 2, 1))


def _bounded_growth(M: np.ndarray) -> bool:
    """Whether the product over the steps M (k, m, m) of max(1, ||M_j||_2),
    bounded by sqrt(||M_j||_1 ||M_j||_inf) and so the same for M_j^T, is at
    most :data:`SCAN_GROWTH`: a bound on every product a scan of them forms."""
    size = np.abs(M)
    norms = np.sqrt(_short_sum(size, 1).max(axis=1) * _short_sum(size, 2).max(axis=1))
    return bool(np.log(np.maximum(norms, 1.0)).sum() <= np.log(SCAN_GROWTH))


def _scan_steps(fmap, disc: _Discretization) -> Optional[_ScanSteps]:
    """The M_j of the march z_{j+1} = M_j z_j + c_j, shape (k, m, m), in a
    :class:`_ScanSteps`, for a map ``fmap`` whose march scans, else None.

    A march scans when the drift is built with ``linear``, the kernel has
    the steps of :func:`kernel._march_steps` for the drift block I + h_j A
    (zero or exponential), and they pass :func:`_bounded_growth`; the
    bound holds for M_j^T too, so the solver's backward sweep scans with
    the march.
    """
    A = fmap._linear
    if A is None:
        return None
    M = _march_steps(disc, np.eye(A.shape[0]) + disc.mesh.steps[:, None, None] * A)
    if M is None or not _bounded_growth(M):
        return None
    M.flags.writeable = False  # shared by every scan on the mesh
    return _ScanSteps(M)


def _decide_scan(fmap, disc: _Discretization) -> _Discretization:
    """``disc`` with the march of ``fmap`` decided (:func:`_scan_steps`),
    once per (problem, mesh): a discretization already decided for this
    map is returned as it is."""
    if disc.drift is fmap:
        return disc
    return disc._replace(drift=fmap, scan=_scan_steps(fmap, disc))


def _scan_march(problem: ProblemData, disc: _Discretization, u: np.ndarray):
    """(states, velocities, w) of the march v_j = A x_j + u_j + w_j, u of
    shape (k, n), by one :func:`_affine_scan` over the forward levels of
    ``disc.scan``, the velocities from one stacked pass; None if a value is
    not finite, which the node loop then names."""
    M, n, h = disc.scan.M, problem.dim, disc.mesh.steps
    with np.errstate(over="ignore", invalid="ignore"):
        z0, c = np.zeros(M.shape[1]), np.zeros(M.shape[:2])
        z0[:n], c[:, :n] = problem.x0, h[:, None] * u
        z = np.concatenate([z0[None], _affine_scan(disc.scan.forward(), c, z0)])
        states, w = z[:, :n], _scanned_w(disc, z[:-1])
        v = _centers(problem.fmap, disc.mesh.nodes[:-1], states[:-1]) + u + w
    rows = (states, v, w)
    return rows if all(np.isfinite(r).all() for r in rows) else None


def _controlled_march(problem: ProblemData, disc: _Discretization,
                      u: np.ndarray, stage: str) -> DiscreteTrajectory:
    """The march v_j = f(t_j, x_j) + u_j + w_j with controls u (k, n): one
    :func:`_scan_march` where ``disc`` scans, else, and where a scanned
    value is not finite, the node loop :func:`_march`."""
    if disc.scan is not None:
        rows = _scan_march(problem, disc, u)
        if rows is not None:
            return DiscreteTrajectory(disc.mesh, *rows)
    center, t = problem.fmap.center, disc.mesh.nodes
    return _march(problem, disc, lambda j, x, w: center(t[j], x) + u[j] + w, stage)


def _backward_loop(tensors, P: np.ndarray, c: np.ndarray, e: np.ndarray,
                   y_end: np.ndarray, step) -> np.ndarray:
    """y_j = P_j y_{j+1} + c_j + step(j, y_{j+1}) + coupling_j from
    y_k = ``y_end`` down to j = 0, shape (k+1, n), given P (k, n, n) and
    c, e (k, n): the backward sweep of the gradient and of the multipliers,
    with coupling_j = sum_{m>j} xi[m, j] (y_{m+1} + e_m) from
    ``tensors.backward_coupling``.  The caller checks that y is finite."""
    k = len(c)
    y, r = np.empty((k + 1, len(y_end))), np.empty_like(e)
    y[k] = y_end
    coupling = tensors.backward_coupling(r)
    for j in range(k - 1, -1, -1):
        r[j] = y[j + 1] + e[j]
        y[j] = P[j] @ y[j + 1] + c[j] + step(j, y[j + 1]) + coupling(j)
    return y


def estimate_tau(problem: ProblemData, h: float) -> float:
    """Averaged time-oscillation of F sampled on the declared state box: on
    about 64 states (at least 2 per axis) and at 64 times."""
    states = problem.state_grid(max(2, math.ceil(64.0 ** (1.0 / problem.dim))))
    times = np.linspace(0.0, problem.horizon, 64)
    return averaged_modulus(problem.fmap, h, states, times)


@dataclass(frozen=True)
class ApproximationErrorReport:
    """Certified majorants and measured errors of one approximation run.

    ``zeta_k`` bounds the nodal error, ``beta_k`` the squared derivative-L2
    error, ``xi_k`` is the step-density error of the cell-averaged
    derivative, ``nu_k`` the derivative-L1 error.  The measured columns must
    stay below their majorants (checked by :meth:`dominates`).  ``_disc``
    carries the run's discretization, with the reference sampled on it, to a
    discrete problem on the same mesh.
    """

    k: int
    h_max: float
    xi_k: float
    zeta_k: float
    beta_k: float
    nu_k: float
    tau_f: float
    c_integral: float
    c_sq_integral: float
    reference_defect: float
    nodal_sup_error: float
    sup_error: float
    state_l2_error: float
    deriv_l2_error: float
    _disc: _Discretization = field(repr=False, compare=False)

    @property
    def w12_error(self) -> float:
        return float(np.hypot(self.state_l2_error, self.deriv_l2_error))

    def dominates(self, rel_slack: float = 1e-9) -> bool:
        ok_nodes = self.nodal_sup_error <= self.zeta_k * (1 + rel_slack) + 1e-15
        ok_deriv = self.deriv_l2_error ** 2 <= self.beta_k * (1 + rel_slack) + 1e-15
        return bool(ok_nodes and ok_deriv)


def _check_finite(stage: str, mesh: TimeMesh, *rows, backward: bool = False):
    """Raise NonFiniteStateError at the first node, in the sweep's order,
    whose rows are not all finite; ``rows`` hold one row per node j >= 0."""
    bad = np.flatnonzero(~_short_all(np.isfinite(np.hstack(rows)), 1))
    if bad.size:
        j = int(bad[-1] if backward else bad[0])
        raise NonFiniteStateError(stage, mesh.k, j, float(mesh.nodes[j]))


def _sample_reference(arc, disc: _Discretization) -> _Discretization:
    """``disc`` with a reference arc sampled on it."""
    return _with_reference(disc, _sample(arc, disc.mesh.nodes),
                           _sample(arc.derivative, disc.pts))


def _inclusion_defect(problem: ProblemData, arc, disc: _Discretization):
    """The arc x and its memory accumulator y(s) = int_0^s g(s, r, x(r)) dr
    at the cell Gauss points, the defect dist(x'(s) - y(s); F(s, x(s)))
    there, and the L2 norm of the defect; x' is ``disc``'s sample."""
    x = _sample(arc, disc.pts)
    y = _memory_integrals(problem.kernel, arc, disc.pts, disc.mesh)
    n = x.shape[-1]
    defect, _ = distance_and_projection(problem.fmap, disc.pts.ravel(), x.reshape(-1, n),
                                        (disc.ref_dot - y).reshape(-1, n))
    defect = defect.reshape(disc.pts.shape)
    return x, y, defect, math.sqrt(_sq_integral(disc.wts, defect[..., None]))


def feasibility_residual(problem: ProblemData, arc, mesh: TimeMesh) -> float:
    """L2 norm over [0,T] of t -> dist(x'(t) - y(t); F(t, x(t))).

    The supported value families are convex, so this is also the residual
    of the convexified inclusion.
    """
    disc = _sample_reference(arc, _discretize(problem.kernel, mesh))
    return _inclusion_defect(problem, arc, disc)[-1]


def approximate_arc(problem: ProblemData, reference, mesh: TimeMesh,
                    feas_tol: float = 1e-6, tau_f: Optional[float] = None):
    """Projection-algorithm approximation of a feasible reference arc.

    Builds the cell averages of the reference derivative, the frozen-node
    memory averages along the reference nodes, then steps the recursion
    where each velocity is the projection of (average - memory average)
    onto the velocity set shifted by the trajectory's own memory term
    (:func:`_approximation_march`).  Returns the trajectory and the error
    report.  The reference is sampled once at the cell Gauss points; the
    feasibility gate and the report reduce the same samples.  The gate
    passes only a residual <= feas_tol, and a defect that is not finite
    raises :class:`NonFiniteStateError`.  The report's discretization
    carries the decision whether the problem's march scans
    (:func:`_decide_scan`) to the discrete problem built on the same mesh.
    """
    disc = _decide_scan(problem.fmap, _sample_reference(
        reference, _discretize(problem.kernel, mesh)))
    x, y, defect, residual = _inclusion_defect(problem, reference, disc)
    _check_finite("approximate_arc", mesh, defect)
    if not residual <= feas_tol:
        raise InfeasibleReferenceError(
            f"reference arc has inclusion residual {residual:.3e} > {feas_tol:.1e}")

    if np.linalg.norm(disc.ref_nodes[0] - problem.x0) > 1e-9:
        raise InfeasibleReferenceError("reference arc does not start at x0")

    # exact cell averages of the reference derivative
    a = disc.ref_steps / mesh.steps[:, None]
    # memory averages frozen along the reference nodes
    b = _assemble_w(disc, disc.ref_nodes)

    traj = _approximation_march(problem, disc, a, b)
    report = _error_report(problem, reference, traj, a, b, disc, x, y, defect,
                           residual, tau_f)
    return traj, report


def _approximation_march(problem: ProblemData, disc: _Discretization,
                         a: np.ndarray, b: np.ndarray) -> DiscreteTrajectory:
    """The march of :func:`approximate_arc`: v_j is the nearest point of
    F(t_j, x_j) to a_j - b_j, plus w_j.

    A point body (:class:`~idikit.setvalued.Singleton`) projects every
    deviation onto its drift, as f + 0.0, so its march is the solver's
    (:func:`_controlled_march`) with zero controls: the same loop bit for
    bit, or the solver's scan where that scans.  On the zero kernel
    one stacked pass stands for the loop, bit for bit: it takes every
    projection as inactive, so the states X are the sums of the steps
    h_j (a_j - b_j), projects at all of them at once, and keeps the
    velocities V up to the first node where the sums of h_j V_j leave X;
    the loop resumes there, and an arc with no active projection never
    loops.  Any other problem takes the node loop :func:`_march`, the
    oracle of both.
    """
    fmap, mesh = problem.fmap, disc.mesh
    t, h = mesh.nodes, mesh.steps
    if isinstance(fmap, Singleton):
        return _controlled_march(problem, disc, np.zeros_like(a), "approximate_arc")

    def select(j, x, w):
        return distance_and_projection(fmap, t[j], x, a[j] - b[j])[1] + w

    if not disc.kernel.is_zero:
        return _march(problem, disc, select, "approximate_arc")
    z, w = a - b, np.zeros_like(a)
    guess = np.add.accumulate(np.concatenate([problem.x0[None], h[:, None] * z]))
    v = distance_and_projection(fmap, t[:-1], guess[:-1], z)[1] + w
    states = np.add.accumulate(np.concatenate([problem.x0[None], h[:, None] * v]))
    # bit patterns: a -0.0 for a 0.0 could change a later projection
    differ = np.flatnonzero(_short_any(states.view(np.uint64) != guess.view(np.uint64), 1))
    start = int(differ[0]) if differ.size else mesh.k
    return _march(problem, disc, select, "approximate_arc", start, (states, v, w))


def _error_report(problem, reference, traj, a, b, disc, x, y, defect, residual,
                  tau_f):
    mesh = traj.mesh
    T = mesh.horizon
    h_max = mesh.max_step
    l_f, alpha = problem.l_F, problem.alpha
    if tau_f is None:
        tau_f = estimate_tau(problem, h_max)
    pts, wts = disc.pts, disc.wts

    # step-density error of the cell averages
    da = a[:, None] - disc.ref_dot
    xi_k = math.sqrt(T * _sq_integral(wts, da))

    const = (2.0 * l_f + alpha * T + alpha * mesh.steps / 2.0) * xi_k + tau_f
    c = (2.0 * _short_norm(da)
         + _short_norm(b[:, None] - y)
         + l_f * (pts - mesh.nodes[:-1, None]) * _short_norm(a)[:, None]
         + const[:, None] + defect)
    c_int = float(np.sum(wts * c))
    c_sq_int = float(np.sum(wts * c * c))
    dv = traj.velocities[:, None] - disc.ref_dot
    nu_k = float(np.sum(wts * _short_norm(dv)))

    zeta_k = c_int * math.exp(alpha * T * T / 2.0 + T * (l_f + 1.5 * alpha * h_max))
    beta_k = c_sq_int + T * (l_f + 2.0 * alpha * T + alpha * h_max / 2.0) ** 2 * zeta_k ** 2

    nodal = float(_short_norm(traj.states - disc.ref_nodes, 1).max())
    arc = traj.arc()
    sup_err = sup_distance(mesh, arc, reference)
    state_l2 = math.sqrt(_sq_integral(wts, _sample(arc, pts) - x))

    return ApproximationErrorReport(
        k=mesh.k, h_max=h_max, xi_k=xi_k, zeta_k=zeta_k, beta_k=beta_k,
        nu_k=nu_k, tau_f=tau_f, c_integral=c_int, c_sq_integral=c_sq_int,
        reference_defect=residual, nodal_sup_error=nodal,
        sup_error=sup_err, state_l2_error=state_l2,
        deriv_l2_error=math.sqrt(_sq_integral(wts, dv)),
        _disc=disc)
