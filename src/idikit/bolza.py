"""Assembly and numerical solution of the discrete Bolza approximations.

The discrete problem over nodal states is reparameterized by the deviation
controls u_j inside the offset body, one (k, n) array, so the inclusion
constraint is exact at every iterate and the solver is plain projected
gradient with Armijo backtracking.  Control u_j enters through

    x_{j+1} = x_j + h_j (f(t_j, x_j) + u_j + w_j(x_0..x_j)),

and the cost gradient is computed by one backward sweep whose memory
coupling terms are exactly the rectangle/triangle tensors of the kernel
module (the sensitivity of w_m to an earlier node is the transposed
rectangle integral).

For a drift built with ``linear`` (f = A x) and a zero or exponential
kernel both recurrences are affine, the sweep by the march's step matrices
transposed, and each runs as one prefix scan (:func:`dynamics._affine_scan`)
while the products of the steps over the mesh stay below
:data:`dynamics.SCAN_GROWTH`, as decided once per mesh; each direction's
scan levels are composed once per mesh, at its first scan.  The march is
the one driver :func:`dynamics._controlled_march`, which ``approximate_arc``
runs on a point body too; the memory part of every scan's steps and
right-hand sides comes from the kernel module.  Else, and where a scan
yields a value that is not finite, the march takes the node loop
:func:`dynamics._march` and the sweep the backward loop
:func:`dynamics._backward_loop` it shares with the multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import (DiscreteTrajectory, _affine_scan, _backward_loop,
                       _check_finite, _controlled_march, _decide_scan,
                       _sample_reference, approximate_arc)
from .kernel import _discretize, _Discretization, _gradient_rhs, _tensors
from .mesh import TimeMesh, _sq_integral
from .problem import InflatedSet, ProblemData
from .setvalued import _centers, _norm

__all__ = [
    "DiscreteBolzaProblem",
    "SolveOptions",
    "SolveLog",
    "build_discrete_problem",
    "forward_trajectory",
    "cost_Jk",
    "cost_breakdown",
    "cost_gradient",
    "solve_Pk",
]


@dataclass(frozen=True, eq=False)
class DiscreteBolzaProblem:
    """One discrete approximation instance around a reference arc.

    Derived, also by ``dataclasses.replace``: ``omega_k``, the endpoint set
    inflated by ``zeta_k``, the nodal error majorant of the approximation
    run that produced the initial point, and ``epsilon``, the base
    problem's; the solver enforces the localization constraints (nodal
    eps/2 tube, derivative-L2 budget eps/2) as a trust region.  The
    discretization of the mesh and the reference sampled on it, taken by
    every cost, gradient and trial step, are those of the approximation run
    when :func:`build_discrete_problem` hands them over, else built here; so
    is the decision whether the march scans, with its step matrices and
    their scan levels (:func:`dynamics._decide_scan`), which the run made
    for this map.
    """

    base: ProblemData
    mesh: TimeMesh
    reference: object
    zeta_k: float
    epsilon: float = field(init=False)
    omega_k: InflatedSet = field(init=False)
    _disc: Optional[_Discretization] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", self.base.epsilon)
        object.__setattr__(self, "omega_k", InflatedSet(self.base.omega, self.zeta_k))
        disc = self._disc
        if disc is None:
            disc = _sample_reference(self.reference,
                                     _discretize(self.base.kernel, self.mesh))
        object.__setattr__(self, "_disc", _decide_scan(self.base.fmap, disc))

    @property
    def dim(self) -> int:
        return self.base.dim

    def reference_nodes(self) -> np.ndarray:
        return self._disc.ref_nodes


def build_discrete_problem(problem: ProblemData, mesh: TimeMesh, reference,
                           precomputed=None):
    """Construct the discrete problem plus a feasible initial point.

    Runs the arc approximation to obtain the initial trajectory and its
    error report (or reuses a precomputed (trajectory, report) pair from
    the same mesh); the report's nodal majorant becomes the endpoint
    inflation, and the discretization and reference samples it carries are
    not built again.
    Returns (discrete problem, initial controls (k, n), the deviations
    v_j - f(t_j, x_j) - w_j projected onto the offset body, initial
    trajectory, report).
    """
    if precomputed is None:
        traj, report = approximate_arc(problem, reference, mesh)
    else:
        traj, report = precomputed
    dbp = DiscreteBolzaProblem(base=problem, mesh=mesh, reference=reference,
                               zeta_k=report.zeta_k, _disc=report._disc)
    c = _centers(problem.fmap, traj.mesh.nodes[:-1], traj.states[:-1])
    controls = problem.fmap.project_body(traj.velocities - c - traj.w)
    return dbp, controls, traj, report


def _scans(problem: DiscreteBolzaProblem) -> bool:
    """Whether the march and the backward sweep run as prefix scans."""
    return problem._disc.scan is not None


def forward_trajectory(problem: DiscreteBolzaProblem,
                       controls: np.ndarray) -> DiscreteTrajectory:
    """Evaluate the dynamics for given controls u (k, n), the deviations
    in the offset body; feasibility is exact.

    The march v_j = f(t_j, x_j) + u_j + w_j runs as
    :func:`dynamics._controlled_march`: a prefix scan where the problem
    scans, with x_{j+1} = x_j + h_j v_j to round-off, else the node loop.
    """
    return _controlled_march(problem.base, problem._disc, controls,
                             "forward_trajectory")


def _tracking_term(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory) -> float:
    disc = problem._disc
    return _sq_integral(disc.wts, traj.velocities[:, None] - disc.ref_dot)


def cost_breakdown(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory):
    """(terminal, running, tracking) parts of the discrete cost.

    The running part is h_0 l_0 + h_1 l_1 + ... added in node order (a
    cumulative sum), with the l_j from one stacked call.
    """
    base = problem.base
    mesh = problem.mesh
    terminal = float(base.terminal_cost.value(traj.states[-1]))
    vals = base.running_cost.evaluate(mesh.nodes[:-1], traj.states[:-1],
                                      traj.velocities)
    running = float(np.cumsum(mesh.steps * vals)[-1])
    tracking = 0.5 * _tracking_term(problem, traj)
    return terminal, running, tracking


def _running_grads(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory):
    """(grad_x l, grad_v l) at the nodes j = 0..k-1, (k, n) each, from one
    stacked call."""
    return problem.base.running_cost.gradients(
        problem.mesh.nodes[:-1], traj.states[:-1], traj.velocities)


def cost_Jk(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory) -> float:
    """Terminal + mesh-weighted running cost + half squared tracking error."""
    terminal, running, tracking = cost_breakdown(problem, traj)
    return terminal + running + tracking


def _penalty_gradient(problem: DiscreteBolzaProblem, x_end: np.ndarray,
                      rho: float) -> np.ndarray:
    d = problem.omega_k.distance(x_end)
    if d <= 1e-14:
        return np.zeros_like(x_end)
    return rho * (x_end - problem.omega_k.project(x_end)) / d


def _objective(problem: DiscreteBolzaProblem, traj: DiscreteTrajectory,
               rho: float):
    """(penalized objective, cost, nodal distance, derivative budget) of a
    trajectory; the solver holds the last two to eps/2 as a trust region,
    and the budget is twice the cost's own tracking part."""
    terminal, running, tracking = cost_breakdown(problem, traj)
    cost = terminal + running + tracking
    penalty = rho * problem.omega_k.distance(traj.states[-1])
    nodal = float(_norm(traj.states[:-1] - problem.reference_nodes()[:-1]).max())
    return cost + penalty, cost, nodal, 2.0 * tracking


def cost_gradient(problem: DiscreteBolzaProblem,
                  controls: np.ndarray, rho: float = 0.0,
                  traj: Optional[DiscreteTrajectory] = None):
    """Exact gradient of the (possibly penalized) cost in the controls.

    Returns (gradient (k, n), trajectory).  With b_j = h_j grad_v l_j +
    theta_j the gradient in u_j is s_j = b_j + h_j lambda_{j+1}, lambda_k
    the terminal-cost plus endpoint-penalty gradient and lambda_j =
    lambda_{j+1} + h_j grad_x l_j + J_j^T s_j + mu_j s_j / h_j + coupling_j,
    the coupling taken of r_m = s_m / h_m.  Where the march scans, the
    state steps by M_j^T, the march's own matrix transposed, plus the
    right-hand side :func:`kernel._gradient_rhs` builds on h_j grad_x l_j
    + A^T b_j, one scan over j = k-1, ..., 1; else, and where that is not
    finite, :func:`dynamics._backward_loop` runs.  A gradient that is not
    finite raises NonFiniteStateError.
    """
    base, mesh, disc = problem.base, problem.mesh, problem._disc
    k, n, h = mesh.k, base.dim, mesh.steps
    if traj is None:
        traj = forward_trajectory(problem, controls)
    tensors = _tensors(disc, traj.states, traj.w, traj.velocities)
    glx, glv = _running_grads(problem, traj)
    b = h[:, None] * glv + tensors.theta
    seed = base.terminal_cost.grad(traj.states[-1]) \
        + _penalty_gradient(problem, traj.states[-1], rho)
    if _scans(problem):
        c = _gradient_rhs(disc, h[:, None] * glx + b @ base.fmap._linear, b)
        lam = np.empty_like(b)
        lam[-1] = seed
        with np.errstate(over="ignore", invalid="ignore"):
            lam[:-1] = _affine_scan(disc.scan.backward(), c[:0:-1], seed)[::-1, :n]
            grad = b + h[:, None] * lam
        if np.isfinite(grad).all():
            return grad, traj
    jac, t, x, mu = base.fmap.jacobian, mesh.nodes, traj.states, tensors.mu

    def step(j, lam_next):
        s_j = b[j] + h[j] * lam_next
        return jac(t[j], x[j]).T @ s_j + mu[j] @ s_j / h[j]

    lam = _backward_loop(tensors, np.broadcast_to(np.eye(n), (k, n, n)),
                         h[:, None] * glx, glv + tensors.theta / h[:, None],
                         seed, step)
    grad = b + h[:, None] * lam[1:]
    _check_finite("cost_gradient", mesh, grad, backward=True)
    return grad, traj


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rules of :func:`solve_Pk`: the stationarity tolerance, the
    iteration cap and the endpoint violation the penalty is raised until."""

    tol_stat: float = 1e-7     # max_j |u_j - proj(u_j - g_j/h_j)|
    max_iter: int = 5000
    endpoint_tol: float = 1e-6


# the line search: sufficient-decrease constant, step shrink factor, trials
# per iteration and the first trial step
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
ALPHA0 = 1.0
# the exact endpoint penalty: first weight, growth per stage and cap
RHO0 = 10.0
RHO_GROWTH = 10.0
RHO_MAX = 1e8


@dataclass(eq=False)
class SolveLog:
    """What one :func:`solve_Pk` run did: iterations, the cost and the
    stationarity measure at each, whether it ended stationary, the final
    penalty weight with the endpoint's violation and normal, which
    localization constraints ended near active, whether every accepted step
    descended, and why it stopped short (``message``, empty otherwise)."""

    iterations: int = 0
    costs: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    stationary: bool = False
    rho_final: float = 0.0
    endpoint_violation: float = 0.0
    endpoint_normal: np.ndarray = None
    tube_active: bool = False
    budget_active: bool = False
    descent_ok: bool = True
    message: str = ""


def solve_Pk(problem: DiscreteBolzaProblem, init: np.ndarray,
             opts: SolveOptions = SolveOptions(),
             traj: Optional[DiscreteTrajectory] = None):
    """Projected-gradient descent with Armijo line search and exact penalty.

    The endpoint set is handled by an exact distance penalty escalated until
    the violation is below tolerance; the localization tube and derivative
    budget act as a trust region (violating steps are rejected).  Dynamics
    feasibility holds exactly at every iterate by construction.  Each
    iteration projects the stationarity step u - g/h and its first trial
    u - (alpha g)/h in one call on the 2k stacked rows (the projection is
    row by row); a backtrack projects its trial alone.  ``traj``, the march
    of ``init``, is taken where projecting ``init`` leaves it bit for bit (a
    projection can move a row it returned).
    """
    body = problem.base.fmap
    h = problem.mesh.steps
    k = problem.mesh.k
    half = problem.epsilon / 2.0
    log = SolveLog()
    controls = body.project_body(init)
    traj = traj if controls.tobytes() == np.asarray(init).tobytes() else None
    rho = RHO0

    while True:  # penalty escalation stages
        grad, traj = cost_gradient(problem, controls, rho, traj=traj)
        obj, cost, nodal, budget = _objective(problem, traj, rho)
        alpha = ALPHA0
        while True:
            pair = body.project_body(np.concatenate(
                (controls - grad / h[:, None], controls - alpha * grad / h[:, None])))
            gnorm = float(_norm(controls - pair[:k]).max())
            log.grad_norms.append(gnorm)
            log.costs.append(cost)
            if gnorm < opts.tol_stat:
                log.stationary = True
                break
            if log.iterations >= opts.max_iter:
                log.message = "iteration cap reached"
                break
            # objective differences saturate at machine noise near the
            # optimum while the gradient still carries signal; the floor
            # keeps Armijo from stalling there
            noise = 4.0 * np.finfo(float).eps * (1.0 + abs(obj))
            accepted = False
            trial_alpha = alpha
            for bt in range(MAX_BACKTRACKS):
                cand = pair[k:] if bt == 0 else \
                    body.project_body(controls - trial_alpha * grad / h[:, None])
                slope = float(np.sum(grad * (cand - controls)))
                cand_traj = forward_trajectory(problem, cand)
                cand_obj, cand_cost, cand_nodal, cand_budget = _objective(
                    problem, cand_traj, rho)
                if cand_obj <= obj + ARMIJO_C1 * slope + noise \
                        and cand_nodal <= half and cand_budget <= half:
                    accepted = True
                    break
                trial_alpha *= BACKTRACK
            log.iterations += 1
            if not accepted:
                log.message = "line search stalled"
                break
            if cand_obj > obj + noise:
                log.descent_ok = False
            s_step = cand - controls
            controls = cand
            prev_grad = grad
            grad, traj = cost_gradient(problem, controls, rho, traj=cand_traj)
            obj, cost, nodal, budget = cand_obj, cand_cost, cand_nodal, cand_budget
            # spectral (Barzilai-Borwein) step for the next trial, in the
            # mesh-scaled metric the projection step uses
            y_step = (grad - prev_grad) / h[:, None]
            sy = float(np.sum(s_step * y_step))
            ss = float(np.sum(s_step * s_step))
            if sy > 1e-16 * max(ss, 1e-16):
                alpha = min(max(ss / sy, 1e-8), 1e8)
            else:
                alpha = min(trial_alpha / BACKTRACK, 1e3)

        violation = problem.omega_k.distance(traj.states[-1])
        if violation <= opts.endpoint_tol or rho >= RHO_MAX \
                or log.iterations >= opts.max_iter or log.message == "line search stalled":
            log.rho_final = rho
            log.endpoint_violation = violation
            log.endpoint_normal = _penalty_gradient(problem, traj.states[-1], rho)
            break
        rho *= RHO_GROWTH
        log.stationary = False

    log.tube_active = bool(nodal > 0.95 * problem.epsilon / 2.0)
    log.budget_active = bool(budget > 0.95 * problem.epsilon / 2.0)
    return traj, controls, log
