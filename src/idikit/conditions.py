"""Discrete multipliers and residuals of the necessary optimality conditions.

The discrete system couples an adjoint sequence p_0..p_k to a stationary
trajectory through three ingredients: the terminal inclusion
-p_k in lam * grad(phi) + N(endpoint set), the per-node Euler-Lagrange pair
inclusion whose normal-cone part lives on the graph of the velocity map, and
the memory coupling tensors (rectangle/triangle adjoint-Jacobian integrals
and the tracking defects theta).  The continuous-time counterpart replaces
the tensor sum by the forward memory integral: for a.e. tau,

    p'(tau) + int_tau^T jac_g(t, tau, x(tau))^T p(t) dt

must pair with p(tau) inside lam * grad(l) + N_{gph F(tau, .)} evaluated at
(x(tau), x'(tau) - accumulated memory).  Everything here is specialized to
smooth cost oracles, where the subdifferentials are singletons and all cone
distances are closed-form: each residual set is one stacked
:func:`~idikit.setvalued.pair_distances` call, one pass per cone kind.

:func:`recover_multipliers` is the path from a trajectory to its
multipliers, the CLI's too: the lam = 1 sweep of
:func:`adjoint_solve_smooth`, then the lam = 0 probe if that does not
certify.  Each sweep's one stacked Euler-Lagrange pass serves the route
choice and :func:`build_condition_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bolza import DiscreteBolzaProblem, _running_grads
from .dynamics import (DiscreteTrajectory, _affine_scan, _backward_loop,
                       _bounded_growth, _check_finite, _scan_levels)
from .kernel import (QuadratureTensors, _adjoint_integrals, _memory_integrals,
                     _tensors)
from .mesh import PiecewiseLinearArc, TimeMesh, _panel_edges, _sample, _short_norm
from .problem import ProblemData
from .setvalued import (CONE_TOL_FEAS, GraphNormalCone, _centers, _matvec,
                        _norm, graph_normal_cone, pair_distances)

__all__ = [
    "MultiplierSet",
    "ConditionReport",
    "DegenerateMultiplierError",
    "adjoint_solve_smooth",
    "recover_multipliers",
    "euler_lagrange_residual",
    "volterra_residual",
    "transversality_residual",
    "nontriviality_value",
    "adjoint_norm_bound",
    "build_condition_report",
    "perturbation_robustness",
]

class DegenerateMultiplierError(ValueError):
    """All-zero multiplier pair: the excluded degenerate case."""


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Normalized multipliers (lam, p_0..p_k) with their coupling tensors,
    the running-cost gradients, the stack of graph normal cones of the
    nodes j = 0..k-1 and, computed from p once, the Euler-Lagrange residuals.

    Normalized so that lam + |p_k| is exactly 1.  ``normalization`` records
    the raw magnitudes; ``m_l`` is the sampled bound on the running-cost
    gradients entering the a-priori adjoint-norm constant.
    """

    lam: float
    p: np.ndarray  # (k+1, n)
    tensors: QuadratureTensors
    glx: np.ndarray  # (k, n)
    glv: np.ndarray  # (k, n)
    cones: GraphNormalCone
    normalization: dict
    m_l: float
    theta_l1: float
    el_residuals: np.ndarray  # (k,)

    @property
    def terminal(self) -> np.ndarray:
        return self.p[-1]


def _trajectory_terms(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory):
    """What the multipliers of one trajectory share, whatever lam: the
    coupling tensors, the running-cost gradients (k, n) and the stack of
    graph normal cones of the nodes j = 0..k-1."""
    base = problem.base
    mesh = problem.mesh
    tensors = _tensors(problem._disc, traj.states, traj.w, traj.velocities)
    glx, glv = _running_grads(problem, traj)
    cones = graph_normal_cone(base.fmap, mesh.nodes[:-1], traj.states[:-1],
                              traj.velocities - traj.w)
    return tensors, glx, glv, cones


def adjoint_solve_smooth(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory,
                         lam: float = 1.0,
                         endpoint_normal: Optional[np.ndarray] = None) -> MultiplierSet:
    """Backward recursion for the discrete adjoint at a stationary trajectory.

    The terminal value is -(lam * grad phi + nu) with nu the endpoint normal
    (the solver's penalty gradient; zero for a free endpoint).  At each node
    the normal direction is the projection of
    p_{j+1} - lam (grad_v l + theta_j/h_j) onto the graph-cone's direction
    set, which zeroes the velocity slot of the inclusion whenever that set
    is rich enough; the state slot then defines p_j.  The result is scaled
    so lam + |p_k| = 1; an all-zero raw pair raises, and so does (with
    :class:`NonFiniteStateError`) a multiplier that is not finite.
    """
    return _adjoint_sweep(problem, traj, _trajectory_terms(problem, traj),
                          lam, endpoint_normal)


def _adjoint_sweep(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory,
                   terms: tuple, lam: float,
                   endpoint_normal: Optional[np.ndarray]) -> MultiplierSet:
    """:func:`adjoint_solve_smooth` on terms already built for ``traj``.

    The sweep p_j = P_j p_{j+1} + c_j + h_j J_j^T u_j + coupling_j, with
    P_j = I + 2 mu_j, c_j = -mu_j pin_j - h_j lam grad_x l_j and u_j the
    projection of p_{j+1} - pin_j onto the u-cone of row j, runs as
    :func:`_scan_sweep`, to round-off, where that applies; else, and where
    a scanned value is not finite, as :func:`dynamics._backward_loop`.
    """
    base = problem.base
    mesh = problem.mesh
    k, n = mesh.k, base.dim
    h = mesh.steps
    tensors, glx, glv, cones = terms

    nu = np.zeros(n) if endpoint_normal is None else np.asarray(endpoint_normal, float)
    p_end = -(lam * np.atleast_1d(base.terminal_cost.grad(traj.states[k])) + nu)
    pin = lam * (glv + tensors.theta / h[:, None])
    P = np.eye(n) + 2.0 * tensors.mu
    c = -_matvec(tensors.mu, pin) - h[:, None] * lam * glx

    def step(j, p_next):
        return h[j] * cones.row_jacobian(j).T @ cones.project_u(p_next - pin[j], j)

    p = _scan_sweep(tensors, cones, h, pin, P, c, p_end, step)
    if p is None:
        p = _backward_loop(tensors, P, c, np.zeros_like(c), p_end, step)
    _check_finite("adjoint_solve_smooth", mesh, p, backward=True)

    raw_total = lam + float(np.linalg.norm(p[k]))
    if raw_total < 1e-14:
        raise DegenerateMultiplierError(
            "lam + |p_k| vanishes; the zero multiplier certifies nothing")
    norm_rec = {"raw_lambda": lam, "raw_terminal_norm": float(np.linalg.norm(p[k])),
                "scale": 1.0 / raw_total,
                "p_trivial": bool(np.abs(p).max() < 1e-14)}
    lam_s, p_s = lam / raw_total, p / raw_total
    for _ in range(10):  # nudge until the normalized sum rounds to exactly 1
        total = lam_s + float(np.linalg.norm(p_s[k]))
        if total == 1.0:
            break
        lam_s, p_s = lam_s / total, p_s / total

    m_l = 0.0
    if k:
        m_l = max(float(_short_norm(glx, 1).max()), float(_short_norm(glv, 1).max()))
    theta_l1 = float(_short_norm(tensors.theta, 1).sum())
    return MultiplierSet(lam=lam_s, p=p_s, tensors=tensors, glx=glx, glv=glv,
                         cones=cones, normalization=norm_rec, m_l=m_l, theta_l1=theta_l1,
                         el_residuals=_el_residuals(problem, lam_s, p_s, terms))


def _scan_sweep(tensors: QuadratureTensors, cones: GraphNormalCone,
                h: np.ndarray, pin: np.ndarray, P: np.ndarray, c: np.ndarray,
                p_end: np.ndarray, step) -> Optional[np.ndarray]:
    """p_0..p_k of the sweep of :func:`_adjoint_sweep`, given its P, c and
    ``step(j, p_{j+1})`` = h_j J_j^T u_j, by prefix scans, or None where
    the node loop runs instead.

    A ``zero`` row (u_j = 0) and a ``subspace`` row (u_j = p_{j+1} - pin_j,
    which folds h_j J_j^T into P_j and -h_j J_j^T pin_j into c_j) make the
    step affine in p_{j+1}; ``tensors.sweep_steps`` adds the memory, an
    exponential kernel's running coupling sum next to p_{j+1}.  Each
    maximal run of such rows is one :func:`~idikit.dynamics._affine_scan`
    from the state the run above it left, over levels composed for that run
    (its matrices follow the cones, so none are kept); a ``ray`` or
    ``polyhedral`` row is a run of its own, whose ``step`` is added to its
    c_j + M_j y.  A row-rule kernel, steps whose products could grow past
    :data:`~idikit.dynamics.SCAN_GROWTH` and a value that is not finite
    give None.
    """
    k, n = pin.shape
    JT = h[:, None, None] * np.swapaxes(np.broadcast_to(cones.jacobian, (k, n, n)), 1, 2)
    free = (cones.kind == "subspace")[:, None]
    affine = free[:, 0] | (cones.kind == "zero")
    steps = tensors.sweep_steps(P + np.where(free[..., None], JT, 0.0),
                                c - np.where(free, _matvec(JT, pin), 0.0))
    if steps is None or not _bounded_growth(steps[0][affine]):
        return None
    M, c = steps
    # the rows from j = k-1 down, cut before every row that does not scan
    # and after it
    M, c, affine = M[::-1], c[::-1], affine[::-1]
    cuts = np.flatnonzero(~affine[1:] | ~affine[:-1]) + 1
    y, out = np.zeros(M.shape[1]), np.empty_like(c)
    y[:n] = p_end
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, k]):
            out[lo:hi] = _affine_scan(_scan_levels(M[lo:hi]), c[lo:hi], y)
            if not affine[lo]:
                out[lo, :n] += step(k - 1 - lo, y[:n])
            y = out[hi - 1]
    p = np.concatenate([out[::-1, :n], p_end[None]])
    return p if np.isfinite(p).all() else None


def nontriviality_value(mult: MultiplierSet) -> float:
    """lam + |p(T)|; exactly 1 after normalization, error if degenerate raw pair."""
    raw = mult.normalization["raw_lambda"] + mult.normalization["raw_terminal_norm"]
    if raw < 1e-14:
        raise DegenerateMultiplierError("raw multipliers vanish identically")
    return mult.lam + float(np.linalg.norm(mult.terminal))


def adjoint_norm_bound(problem: DiscreteBolzaProblem, mult: MultiplierSet) -> float:
    """The a-priori constant dominating |p_j| for normalized multipliers.

    (1 + T M_l (1 + l_F + alpha h) + (alpha h + l_F) nu) exp(T(3 alpha T + l_F))
    with nu the summed tracking defects; valid for j >= 1 (p_0 plays the
    abstract-program role and is reported separately).
    """
    base = problem.base
    T = problem.mesh.horizon
    h = problem.mesh.max_step
    a, lf = base.alpha, base.l_F
    return (1.0 + T * mult.m_l * (1.0 + lf + a * h)
            + (a * h + lf) * mult.theta_l1) * math.exp(T * (3.0 * a * T + lf))


def _el_residuals(problem: DiscreteBolzaProblem, lam: float, p: np.ndarray,
                  terms: tuple) -> np.ndarray:
    """The Euler-Lagrange residual at every node j = 0..k-1 of (lam, p) on
    ``terms`` (:func:`_trajectory_terms`).  The memory couplings of p come
    from :meth:`~idikit.kernel.QuadratureTensors.couplings` in one call;
    the distances are then one stacked pass."""
    h = problem.mesh.steps[:, None]
    t, glx, glv, cones = terms
    couplings = t.couplings(p[1:])
    p0, p1 = p[:-1], p[1:]
    pin = lam * (glv + t.theta / h)
    lhs1 = ((p1 - p0) / h
            + 2.0 / h * _matvec(t.mu, p1)
            - _matvec(t.mu, pin) / h
            + couplings / h)
    lhs2 = p1 - lam * t.theta / h
    d, _ = pair_distances(cones, lhs1 - lam * glx, lhs2 - lam * glv)
    return d


def euler_lagrange_residual(problem: DiscreteBolzaProblem, mult: MultiplierSet,
                            j: int) -> float:
    """Distance of the node-j adjoint pair to lam*grad(l) + graph normal cone.

    The running-cost gradients and the cone are the ones ``mult`` carries
    for node j, built by :func:`adjoint_solve_smooth` on its trajectory.
    This is row j of the stacked pass on the set's own p, so of the
    ``el_residuals`` the sweep gave the set, bit for bit.
    """
    terms = (mult.tensors, mult.glx, mult.glv, mult.cones)
    return float(_el_residuals(problem, mult.lam, mult.p, terms)[j])


def transversality_residual(problem: ProblemData, x_end, p_end, lam: float,
                            omega=None, tol: float = 1e-6) -> float:
    """Distance of -p(T) - lam*grad(phi) to the endpoint normal cone."""
    omega = problem.omega if omega is None else omega
    x_end = np.atleast_1d(np.asarray(x_end, dtype=float))
    w = -np.atleast_1d(np.asarray(p_end, dtype=float)) \
        - lam * np.atleast_1d(problem.terminal_cost.grad(x_end))
    return omega.normal_cone_residual(x_end, w, tol)


def volterra_residual(problem: ProblemData, x_arc, p_arc, lam: float,
                      tau):
    """Pointwise defect of the continuous memory-adjoint inclusion at tau.

    Measures the distance, in the paired (state, velocity) slots, from
    (p'(tau) + memory integral - lam grad_x l, p(tau) - lam grad_v l) to the
    graph normal cone at (x(tau), x'(tau) - accumulated memory).  For the
    supported families the right-hand side is already convex, so the hull
    operation is representational.  ``tau`` is a scalar, giving a float, or
    a 1-D array, giving one residual per time.  The times count as sampled
    on p's panels, which both memory integrals share.
    """
    p_end = _sample(p_arc, problem.horizon)
    if lam + float(np.linalg.norm(p_end)) < 1e-9:
        raise DegenerateMultiplierError(
            "nontriviality gate: lam + |p(T)| vanishes")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    x, v = _sample(x_arc, taus), _sample(x_arc.derivative, taus)
    p, pdot = _sample(p_arc, taus), _sample(p_arc.derivative, taus)
    mem = _adjoint_integrals(problem.kernel, x, p_arc, taus, problem.horizon)
    p_panels = TimeMesh(_panel_edges(p_arc, TimeMesh.uniform(1, problem.horizon)))
    y = _memory_integrals(problem.kernel, x_arc, taus, p_panels)
    cones = graph_normal_cone(problem.fmap, taus, x, v - y)
    glx, glv = problem.running_cost.gradients(taus, x, v)
    out, _ = pair_distances(cones, pdot + mem - lam * glx, p - lam * glv)
    return out if np.ndim(tau) else float(out[0])


def recover_multipliers(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory,
                        endpoint_normal: Optional[np.ndarray] = None,
                        resid_tol: float = 1e-5):
    """Normal-first multiplier recovery with an abnormal fallback probe.

    Solves the backward recursion with lam = 1; only if the resulting
    Euler-Lagrange residuals exceed ``resid_tol`` is the abnormal branch
    lam = 0 probed (it needs an active endpoint set to avoid degeneracy).
    Both probes share one build of the tensors and the node cones.
    Returns (multipliers, route) with route one of "normal", "abnormal",
    or "normal-degraded" when neither certifies within tolerance.
    """
    terms = _trajectory_terms(problem, traj)
    mult = _adjoint_sweep(problem, traj, terms, 1.0, endpoint_normal)
    el = mult.el_residuals.max()
    if el <= resid_tol:
        return mult, "normal"
    try:
        mult0 = _adjoint_sweep(problem, traj, terms, 0.0, endpoint_normal)
    except DegenerateMultiplierError:
        return mult, "normal-degraded"
    el0 = mult0.el_residuals.max()
    if el0 <= resid_tol or el0 < el:
        return mult0, "abnormal"
    return mult, "normal-degraded"


def _median(x: np.ndarray):
    """``np.median`` of a non-empty 1-D float array bit for bit, without its
    ``numpy.ma`` import: NaN if an entry is, else the middle value or mean
    of the middle two, summed from +0.0 as ``np.mean`` does (-0.0 -> +0.0)."""
    half, odd = divmod(x.size, 2)
    part = np.partition(x, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):  # the partition puts a NaN last
        return part[-1]
    return 0.0 + part[half] if odd else (0.0 + part[half - 1] + part[half]) / 2


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Residuals of one multiplier verification run, self-describing."""

    problem: str
    k: int
    h_max: float
    lam: float
    el_residuals: np.ndarray
    transversality: float
    nontriviality: float
    volterra_taus: np.ndarray
    volterra_residuals: np.ndarray
    adjoint_bound: float
    adjoint_bound_ok: bool
    p0_interior_gap: float

    @property
    def el_max(self) -> float:
        return float(self.el_residuals.max()) if self.el_residuals.size else 0.0

    @property
    def volterra_median(self) -> float:
        return float(_median(self.volterra_residuals)) \
            if self.volterra_residuals.size else 0.0


def build_condition_report(problem: DiscreteBolzaProblem,
                           traj: DiscreteTrajectory, mult: MultiplierSet,
                           x_arc=None) -> ConditionReport:
    """Evaluate all residuals for one trajectory/multiplier pair.

    The Volterra defect is sampled at cell midpoints of the adjoint's own
    mesh (away from the kinks of the piecewise-linear extensions); the
    transversality check runs against the inflated endpoint set, which is
    the set the discrete conditions use.
    """
    mesh = problem.mesh
    base = problem.base
    trans = transversality_residual(base, traj.states[-1], mult.terminal,
                                    mult.lam, omega=problem.omega_k, tol=1e-5)
    nontriv = nontriviality_value(mult)
    arc_x = traj.arc() if x_arc is None else x_arc
    p_arc = PiecewiseLinearArc(mesh, mult.p)
    taus = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    vol = volterra_residual(base, arc_x, p_arc, mult.lam, taus)
    bound = adjoint_norm_bound(problem, mult)
    norms = _short_norm(mult.p[1:], 1)
    bound_ok = bool(np.all(norms <= bound * (1 + 1e-9)))
    p0_gap = float(np.linalg.norm(mult.p[0]) - _median(norms)) if norms.size else 0.0
    return ConditionReport(
        problem=base.name, k=mesh.k, h_max=mesh.max_step, lam=mult.lam,
        el_residuals=mult.el_residuals, transversality=trans, nontriviality=nontriv,
        volterra_taus=taus, volterra_residuals=vol, adjoint_bound=bound,
        adjoint_bound_ok=bound_ok, p0_interior_gap=p0_gap)


def perturbation_robustness(problem: ProblemData, t: float, x, v,
                            deltas: Sequence[float], seed: int = 0,
                            n_dirs: int = 6):
    """Sampled stability of cone generators and cost gradients at (x, v).

    For each perturbation size delta, perturbs the state along random unit
    directions and the body point along paired directions re-projected onto
    the same stratum of the value set (sphere points stay on the sphere, so
    the ray direction genuinely rotates), then reports the worst gap between
    perturbed and nominal generator pairs plus the worst gap of the cost
    gradients.  Smooth data makes both gaps shrink linearly with delta,
    which is the checkable face of the robustness requirements.
    """
    rng = np.random.default_rng(seed)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    dirs = rng.standard_normal((n_dirs, x.size))
    dirs /= _short_norm(dirs, 1)[:, None]
    vdirs = rng.standard_normal((n_dirs, x.size))
    vdirs /= _short_norm(vdirs, 1)[:, None]
    cone0 = graph_normal_cone(problem.fmap, t, x, v)
    pairs0 = cone0.pair_samples(0)
    (glx0,), (glv0,) = problem.running_cost.gradients(np.array([t]), x[None], v[None])
    gphi0 = np.atleast_1d(problem.terminal_cost.grad(x))
    body_pt = v - problem.fmap.center(t, x)
    fmap = problem.fmap
    on_sphere = (getattr(fmap, "kind", "") == "ball" and fmap.radius > 0
                 and abs(np.linalg.norm(body_pt) - fmap.radius) <= CONE_TOL_FEAS)
    out = []
    ts = np.full(n_dirs, t)
    for delta in deltas:
        gen_gap = 0.0
        x_p = x + delta * dirs
        w_p = body_pt + delta * vdirs
        if on_sphere:
            w_p = fmap.radius * w_p / _norm(w_p)[:, None]
        else:
            w_p = fmap.project_body(w_p)
        v_p = _centers(fmap, ts, x_p) + w_p
        cones = graph_normal_cone(fmap, ts, x_p, v_p) if n_dirs else None
        for i in range(n_dirs):
            pairs_p = cones.pair_samples(i)
            if pairs_p.shape == pairs0.shape:
                gen_gap = max(gen_gap, float(np.abs(pairs_p - pairs0).max()))
            else:  # active set changed under perturbation; compare Jacobians
                gen_gap = max(gen_gap, float(np.linalg.norm(
                    cones.row_jacobian(i) - cone0.row_jacobian(0))))
        glx, glv = problem.running_cost.gradients(ts, x_p, v_p)
        cost_gap = max(
            float(_norm(glx - glx0).max(initial=0.0)),
            float(_norm(glv - glv0).max(initial=0.0)),
            max((float(np.linalg.norm(np.atleast_1d(problem.terminal_cost.grad(xi))
                                      - gphi0)) for xi in x_p), default=0.0))
        out.append((float(delta), gen_gap, cost_gap))
    return out
