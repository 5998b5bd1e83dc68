"""Scalar reference implementations the tests hold the package to.

One copy of each brute-force oracle: the Gronwall equality cases, one
instance at a time (the batched oracles in ``idikit.gronwall`` must agree
with them); the objective-only gradient and minimizer of the Bolza problem;
the cell-quadrature functionals walked one Gauss point at a time (the
package samples each mesh once and reduces arrays); the two continuous
memory integrals walked one time, one panel and one point at a time (the
package serves all times in one call); the memory coupling sum of the
backward sweeps, one later step at a time; the projections onto the
velocity bodies, one point at a time, with one least-squares solve per
vertex subset of a polytope; the facets of a polytope from scipy's convex
hull, the rows of a split facet merged (the package enumerates vertex
subsets); the graph normal cone of one point, with its own feasibility
gate (the package builds a stack of them in one pass);
the distance to one graph normal cone and the projection onto one body
cone, by a least-squares or NNLS solve (the package has closed forms for a
stack); closed-form arcs, running costs and drift centers written for one
time or one point and served row by row (the package's oracles take
stacks); a linear drift A x as a plain callable, which the package steps
node by node (it scans a drift built with ``linear``); the march of
``approximate_arc`` with one projection per node (the package projects
every node of a zero kernel's march in one stacked pass, and scans a point
body's); the prefix scan of an affine recurrence that composes the doubling
products of its steps on every call (the package composes them once per
mesh and direction and runs only the passes over c); the batched RK4 of the
integro-ODE that searches the grid and interpolates each coefficient row at
every stage on its own (the package forms every stage time and its cell up
front and interpolates the three rows as one block); the memory running
sums stepped one numpy row per node: the panel recurrence's, and the
memory averages of every cell from the march's own closure (the package
runs each sum on Python floats, one column at a time); the audit's
instances drawn one row and one value at a time and padded one instance at
a time (the package draws a block per instance, or per continuous suite,
and scatters a suite's blocks into its stack at once), and its violation
count with one bound and one oracle call per instance length (the package
pads every suite to one stack); the projected-gradient solve
that projects the stationarity step and the first Armijo trial in two
calls (the package stacks them into one).  Last, four helpers that no
module of the package calls, kept for the tests that check them: the
round-down map onto the mesh nodes, the Hausdorff distance of two values
of a velocity map, the localization test around an arc and the
certificate of a Gronwall bound sequence.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from idikit import bolza
from idikit.bolza import SolveLog, cost_gradient, cost_Jk, forward_trajectory
from idikit.dynamics import _march, _sample_reference
from idikit.kernel import _discretize, _memory_averages, kernel_average_w
import idikit.mesh
from idikit.mesh import (CallableArc, PiecewiseConstantArc, PiecewiseLinearArc,
                         TimeMesh, cell_gauss_points, interval_gauss_points,
                         sup_distance)
from idikit.problem import RunningCost
from idikit.setvalued import (BallOffset, InfeasiblePointError, PolytopeOffset,
                              Singleton, _as_state, _norm,
                              distance_and_projection)


# --- oracles of one time or one point, served row by row ----------------------

def loop_drift(fmap):
    """``fmap``, built with ``linear``, with its drift A x and Jacobian A as
    plain callables: the same map, whose march and backward sweep the
    package takes node by node."""
    A = fmap._linear
    f, jac = (lambda t, x: A @ np.atleast_1d(x)), (lambda t, x: A)
    if isinstance(fmap, BallOffset):
        return BallOffset(f, fmap.radius, jac=jac)
    if isinstance(fmap, PolytopeOffset):
        return PolytopeOffset(f, fmap.vertices, jac=jac)
    assert isinstance(fmap, Singleton)
    return Singleton(f, jac=jac)


def approximation_march(problem, reference, mesh):
    """The trajectory of ``approximate_arc`` from the node loop: at node j
    the nearest point of F(t_j, x_j) to a_j - b_j, plus w_j, one
    ``distance_and_projection`` call per node."""
    disc = _sample_reference(reference, _discretize(problem.kernel, mesh))
    a = np.diff(disc.ref_nodes, axis=0) / mesh.steps[:, None]
    b = assemble_w_loop(disc, disc.ref_nodes)
    t = mesh.nodes
    return _march(problem, disc, lambda j, x, w: distance_and_projection(
        problem.fmap, t[j], x, a[j] - b[j])[1] + w, "approximate_arc")


def per_row_arc(fn, dfn):
    """A CallableArc from functions of one scalar time, called once per
    time of a stack."""
    return CallableArc(_per_time(fn), _per_time(dfn))


def _per_time(f):
    return lambda t: np.array([np.atleast_1d(np.asarray(f(s), dtype=float))
                               for s in t])


def per_row_cost(value, grad_x, grad_v):
    """A RunningCost from functions of one point (t, x, v), called once per
    row of a stack."""
    def rows(f):
        return lambda t, x, v: np.array(
            [np.atleast_1d(np.asarray(f(*row), dtype=float)) for row in zip(t, x, v)]
        ).reshape(np.shape(x))
    return RunningCost(
        lambda t, x, v: np.array([float(value(*row)) for row in zip(t, x, v)]),
        rows(grad_x), rows(grad_v))


def point_grads(cost, t, x, v):
    """(grad_x l, grad_v l) of a running cost at one point, shape (n,) each."""
    gx, gv = cost.gradients(np.array([t], dtype=float), np.atleast_1d(x)[None],
                            np.atleast_1d(v)[None])
    return gx[0], gv[0]


def centers(fmap, t, X):
    """The drift f(t_i, x_i) of each row, one ``center`` call per row."""
    return np.array([fmap.center(ti, xi) for ti, xi in zip(t, X)]).reshape(np.shape(X))


def forward_recursion(e0, sigma, rho, gamma):
    """Equality case of the forward recursion (its pointwise maximum)."""
    n = len(sigma)
    e = np.empty(n + 1)
    e[0] = e0
    for i in range(n):
        e[i + 1] = sigma[i] + rho[i] * e[:i].sum() + (1 + gamma[i]) * e[i]
    return e


def backward_recursion(x_k, c, b, a):
    """Equality case of the terminal-anchored recursion, x_{k+1} = 0."""
    k = len(c)
    x = np.zeros(k + 2)
    x[k] = x_k
    for j in range(k - 1, -1, -1):
        x[j] = c[j] + b[j] * x[j + 2:k + 2].sum() + (1 + a[j]) * x[j + 1]
    return x


def integro_rk4(rho0, a, b1, b2, grid):
    """Equality case rho' = a + b1 rho + b2 int rho by fixed-step RK4.

    Four substeps per cell of the uniform grid; the coefficient samples are
    interpolated linearly, by one np.interp per coefficient at every stage
    time, and the steps run on Python floats.
    """
    h = grid[1] - grid[0]
    hh = h / 4
    times = []
    for i in range(grid.size - 1):
        t = grid[i]
        for _ in range(4):
            times += [t, t + hh / 2, t + hh / 2, t + hh]
            t += hh
    A, B1, B2 = (np.interp(times, grid, c).tolist() for c in (a, b1, b2))
    y0, y1 = float(rho0), 0.0
    out = [rho0]
    stage = iter(zip(A, B1, B2))

    def f(z0, z1):
        a_t, b1_t, b2_t = next(stage)
        return a_t + b1_t * z0 + b2_t * z1, z0

    for _cell in range(grid.size - 1):
        for _ in range(4):
            k1 = f(y0, y1)
            k2 = f(y0 + hh / 2 * k1[0], y1 + hh / 2 * k1[1])
            k3 = f(y0 + hh / 2 * k2[0], y1 + hh / 2 * k2[1])
            k4 = f(y0 + hh * k3[0], y1 + hh * k3[1])
            y0 = y0 + hh / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            y1 = y1 + hh / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        out.append(y0)
    return np.array(out)


def continuous_extremal_loop(rho0, a, b1, b2, grid):
    """``continuous_extremal`` for N instances, rho0 (N,) and rows (N, G),
    with one grid search and one interpolation per coefficient row at each
    RK4 stage, in the order the stages run."""
    grid = np.asarray(grid, dtype=float)
    rows = [np.asarray(c, dtype=float) for c in (a, b1, b2)]

    def f(t, r, q):
        j = int(np.searchsorted(grid, t, side="right")) - 1
        if j == grid.size - 1 or grid[j] == t:
            av, b1v, b2v = (c[:, j] for c in rows)
        else:
            dx = grid[j + 1] - grid[j]
            av, b1v, b2v = ((c[:, j + 1] - c[:, j]) / dx * (t - grid[j]) + c[:, j]
                            for c in rows)
        return av + b1v * r + b2v * q, r

    r = np.array(rho0, dtype=float)
    q = np.zeros_like(r)
    out = np.empty((r.size, grid.size))
    out[:, 0] = r
    hh = (grid[1] - grid[0]) / 4
    for i in range(grid.size - 1):
        t = grid[i]
        for _ in range(4):
            k1 = f(t, r, q)
            k2 = f(t + hh / 2, r + hh / 2 * k1[0], q + hh / 2 * k1[1])
            k3 = f(t + hh / 2, r + hh / 2 * k2[0], q + hh / 2 * k2[1])
            k4 = f(t + hh, r + hh * k3[0], q + hh * k3[1])
            r = r + hh / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            q = q + hh / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += hh
        out[:, i + 1] = r
    return out


def penalized_objective(dbp, u, rho):
    """J_k plus rho times the distance of the endpoint to omega_k, at the
    controls u."""
    traj = forward_trajectory(dbp, u)
    return cost_Jk(dbp, traj) + rho * dbp.omega_k.distance(traj.states[-1])


def solve_two_projections(problem, init, opts):
    """:func:`idikit.bolza.solve_Pk` with one projection for the
    stationarity measure and another for the first trial of each iteration;
    returns (trajectory, controls, log) as the solver does."""
    body = problem.base.fmap
    h = problem.mesh.steps
    half = problem.epsilon / 2.0
    log = SolveLog()
    controls = body.project_body(init)
    rho = bolza.RHO0
    while True:
        grad, traj = cost_gradient(problem, controls, rho)
        obj, cost, nodal, budget = bolza._objective(problem, traj, rho)
        alpha = bolza.ALPHA0
        while True:
            gap = controls - body.project_body(controls - grad / h[:, None])
            gnorm = float(_norm(gap).max())
            log.grad_norms.append(gnorm)
            log.costs.append(cost)
            if gnorm < opts.tol_stat:
                log.stationary = True
                break
            if log.iterations >= opts.max_iter:
                log.message = "iteration cap reached"
                break
            noise = 4.0 * np.finfo(float).eps * (1.0 + abs(obj))
            accepted = False
            trial_alpha = alpha
            for _ in range(bolza.MAX_BACKTRACKS):
                cand = body.project_body(controls - trial_alpha * grad / h[:, None])
                slope = float(np.sum(grad * (cand - controls)))
                cand_traj = forward_trajectory(problem, cand)
                cand_obj, cand_cost, cand_nodal, cand_budget = bolza._objective(
                    problem, cand_traj, rho)
                if cand_obj <= obj + bolza.ARMIJO_C1 * slope + noise \
                        and cand_nodal <= half and cand_budget <= half:
                    accepted = True
                    break
                trial_alpha *= bolza.BACKTRACK
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
            y_step = (grad - prev_grad) / h[:, None]
            sy = float(np.sum(s_step * y_step))
            ss = float(np.sum(s_step * s_step))
            if sy > 1e-16 * max(ss, 1e-16):
                alpha = min(max(ss / sy, 1e-8), 1e8)
            else:
                alpha = min(trial_alpha / bolza.BACKTRACK, 1e3)
        violation = problem.omega_k.distance(traj.states[-1])
        if violation <= opts.endpoint_tol or rho >= bolza.RHO_MAX \
                or log.iterations >= opts.max_iter or log.message == "line search stalled":
            log.rho_final = rho
            log.endpoint_violation = violation
            log.endpoint_normal = bolza._penalty_gradient(problem, traj.states[-1], rho)
            break
        rho *= bolza.RHO_GROWTH
        log.stationary = False
    log.tube_active = bool(nodal > 0.95 * problem.epsilon / 2.0)
    log.budget_active = bool(budget > 0.95 * problem.epsilon / 2.0)
    return traj, controls, log


def fd_gradient(dbp, controls, rho=0.0, step=1e-6):
    """Central-difference gradient of the penalized objective."""
    u0 = controls.copy()
    g = np.zeros_like(u0)
    for j in range(u0.shape[0]):
        for i in range(u0.shape[1]):
            up = u0.copy(); up[j, i] += step
            dn = u0.copy(); dn[j, i] -= step
            g[j, i] = (penalized_objective(dbp, up, rho)
                       - penalized_objective(dbp, dn, rho)) / (2 * step)
    return g


def quadratic_oracle(dbp, controls0):
    """Exact minimizer of the (quadratic) objective via sampled Hessian.

    Uses only objective values: for affine dynamics and quadratic costs the
    finite-difference identities below are exact up to roundoff, so the
    normal-equations solve is an independent oracle.
    """
    k, n = controls0.shape
    N = k * n
    base = controls0.ravel()

    def f(vec):
        return penalized_objective(dbp, vec.reshape(k, n), 0.0)

    f0 = f(base)
    E = np.eye(N)
    fp = np.array([f(base + E[i]) for i in range(N)])
    fm = np.array([f(base - E[i]) for i in range(N)])
    g = (fp - fm) / 2.0
    H = np.empty((N, N))
    for i in range(N):
        H[i, i] = fp[i] + fm[i] - 2 * f0
        for j in range(i + 1, N):
            fij = f(base + E[i] + E[j])
            H[i, j] = H[j, i] = fij - fp[i] - fp[j] + f0
    sol = base + np.linalg.solve(H, -g)
    return sol.reshape(k, n)


# --- cell quadrature, one Gauss point at a time -------------------------------

def _f(arc):
    return arc.eval if hasattr(arc, "eval") else arc


# --- the continuous memory integrals, one time and one point at a time --------

def panel_edges(arc, mesh):
    """Panel edges on [0, T]: the cells of the arc's own mesh when it is
    piecewise, else of ``mesh``, each split evenly into ceil(64 / k)."""
    if isinstance(arc, (PiecewiseLinearArc, PiecewiseConstantArc)):
        mesh = arc.mesh
    split = math.ceil(64 / mesh.k)
    edges = [0.0]
    for j in range(mesh.k):
        edges += list(np.linspace(mesh.nodes[j], mesh.nodes[j + 1], split + 1)[1:])
    return np.array(edges)


def memory_integral(kernel, arc, t, edges):
    """int_0^t g(t, s, arc(s)) ds over the panels between ``edges``, the
    panel that holds t cut at t; zero for t <= 0."""
    x_of = _f(arc)
    acc = np.zeros(np.atleast_1d(x_of(0.0)).size)
    for a, b in zip(edges[:-1], edges[1:]):
        if a >= t:
            break
        pts, wts = interval_gauss_points(a, min(b, t))
        for s, w in zip(pts, wts):
            acc = acc + w * kernel.eval(t, s, np.atleast_1d(x_of(s)))
    return acc


def adjoint_integral(kernel, x_arc, p, tau, horizon, edges):
    """int_tau^T jac_g(t, tau, x(tau))^T p(t) dt over the panels between
    ``edges`` up to ``horizon``, the panel that holds tau cut at tau."""
    x_tau = np.atleast_1d(_f(x_arc)(tau))
    p_of = _f(p)
    acc = np.zeros(x_tau.size)
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= tau or a >= horizon:
            continue
        pts, wts = interval_gauss_points(max(a, tau), min(b, horizon))
        for t, w in zip(pts, wts):
            acc = acc + w * kernel.jac(t, tau, x_tau).T @ np.atleast_1d(p_of(t))
    return acc


def volterra_residuals(problem, x_arc, p_arc, lam, taus, tol=1e-6):
    """The Volterra residual at each tau; tau counts as sampled on p's
    panels, from its cells when p is piecewise, else from [0, T]."""
    edges = panel_edges(p_arc, TimeMesh.uniform(1, problem.horizon))
    out = []
    for tau in taus:
        x = np.atleast_1d(x_arc.eval(tau))
        v = np.atleast_1d(x_arc.derivative(tau))
        mem = adjoint_integral(problem.kernel, x_arc, p_arc, tau,
                               problem.horizon, edges)
        y = memory_integral(problem.kernel, x_arc, tau,
                            panel_edges(x_arc, TimeMesh.from_nodes(edges)))
        glx, glv = point_grads(problem.running_cost, tau, x, v)
        glx, glv = lam * glx, lam * glv
        cone = graph_normal_cone(problem.fmap, tau, x, v - y, tol)
        d, _ = pair_distance(cone, np.atleast_1d(p_arc.derivative(tau)) + mem - glx,
                             np.atleast_1d(p_arc.eval(tau)) - glv)
        out.append(d)
    return np.array(out)


def l2_distance(mesh, a, b):
    fa, fb = _f(a), _f(b)
    pts, wts = cell_gauss_points(mesh)
    total = 0.0
    for j in range(mesh.k):
        for q in range(pts.shape[1]):
            d = np.atleast_1d(fa(pts[j, q])) - np.atleast_1d(fb(pts[j, q]))
            total += wts[j, q] * float(np.dot(d, d))
    return float(np.sqrt(max(total, 0.0)))


def average_values(mesh, y):
    """Cell values of the cellwise mean of y, shape (k, n)."""
    f = _f(y)
    pts, wts = cell_gauss_points(mesh)
    rows = []
    for j in range(mesh.k):
        acc = sum(wts[j, q] * np.atleast_1d(f(pts[j, q])) for q in range(pts.shape[1]))
        rows.append(acc / mesh.steps[j])
    return np.array(rows)


def feasibility_residual(problem, arc, mesh):
    x_of, dx_of = _f(arc), arc.derivative
    edges = panel_edges(arc, mesh)
    pts, wts = cell_gauss_points(mesh)
    total = 0.0
    for j in range(mesh.k):
        for q in range(pts.shape[1]):
            s = pts[j, q]
            y_s = memory_integral(problem.kernel, arc, s, edges)
            d, _ = distance_and_projection(problem.fmap, s, x_of(s),
                                           np.atleast_1d(dx_of(s)) - y_s)
            total += wts[j, q] * d * d
    return float(np.sqrt(max(total, 0.0)))


def tracking_term(dbp, traj):
    dref = dbp.reference.derivative
    pts, wts = cell_gauss_points(dbp.mesh)
    acc = 0.0
    for j in range(dbp.mesh.k):
        for q in range(pts.shape[1]):
            d = traj.velocities[j] - np.atleast_1d(dref(pts[j, q]))
            acc += wts[j, q] * float(d @ d)
    return acc


def error_report(problem, reference, mesh, traj, tau_f):
    """Every field of ``approximate_arc``'s report for the trajectory, as a
    dict, with the reference re-evaluated at each Gauss point it needs."""
    x_of, dx_of = _f(reference), reference.derivative
    kernel = problem.kernel
    T = mesh.horizon
    h_max = mesh.max_step
    l_f, alpha = problem.l_F, problem.alpha
    ref_nodes = np.array([np.atleast_1d(x_of(t)) for t in mesh.nodes])
    a = np.diff(ref_nodes, axis=0) / mesh.steps[:, None]
    b = np.array([kernel_average_w(kernel, mesh, ref_nodes, j)
                  for j in range(mesh.k)])

    edges = panel_edges(reference, mesh)
    pts, wts = cell_gauss_points(mesh)
    xi_sq = 0.0
    for j in range(mesh.k):
        for q in range(pts.shape[1]):
            d = a[j] - np.atleast_1d(dx_of(pts[j, q]))
            xi_sq += wts[j, q] * float(d @ d)
    xi_k = math.sqrt(max(T * xi_sq, 0.0))

    c_int = c_sq_int = nu_k = deriv_sq = defect_sq = 0.0
    for j in range(mesh.k):
        h_j = mesh.steps[j]
        t_j = mesh.nodes[j]
        const = (2.0 * l_f + alpha * T + alpha * h_j / 2.0) * xi_k + tau_f
        for q in range(pts.shape[1]):
            s = pts[j, q]
            dx_s = np.atleast_1d(dx_of(s))
            y_s = memory_integral(kernel, reference, s, edges)
            defect_s, _ = distance_and_projection(problem.fmap, s, x_of(s),
                                                  dx_s - y_s)
            c_s = (2.0 * np.linalg.norm(a[j] - dx_s)
                   + np.linalg.norm(b[j] - y_s)
                   + l_f * (s - t_j) * np.linalg.norm(a[j])
                   + const + defect_s)
            c_int += wts[j, q] * c_s
            c_sq_int += wts[j, q] * c_s * c_s
            dv = traj.velocities[j] - dx_s
            nu_k += wts[j, q] * float(np.linalg.norm(dv))
            deriv_sq += wts[j, q] * float(dv @ dv)
            defect_sq += wts[j, q] * defect_s * defect_s

    zeta_k = c_int * math.exp(alpha * T * T / 2.0 + T * (l_f + 1.5 * alpha * h_max))
    beta_k = c_sq_int + T * (l_f + 2.0 * alpha * T + alpha * h_max / 2.0) ** 2 * zeta_k ** 2
    arc = traj.arc()
    return dict(
        k=mesh.k, h_max=h_max, xi_k=xi_k, zeta_k=zeta_k, beta_k=beta_k,
        nu_k=nu_k, tau_f=tau_f, c_integral=c_int, c_sq_integral=c_sq_int,
        reference_defect=math.sqrt(max(defect_sq, 0.0)),
        nodal_sup_error=max(float(np.linalg.norm(traj.states[j] - x_of(mesh.nodes[j])))
                            for j in range(mesh.k + 1)),
        sup_error=sup_distance(mesh, arc, reference),
        state_l2_error=l2_distance(mesh, arc, reference),
        deriv_l2_error=math.sqrt(max(deriv_sq, 0.0)))


def running_sums_loop(decay, terms):
    """y_i = decay_i y_{i-1} + terms_i for i = 0..k-1 from y_{-1} = 0, one
    numpy row of shape (n,) per step."""
    decay, terms = np.asarray(decay, dtype=float), np.asarray(terms, dtype=float)
    running = np.zeros((terms.shape[0] + 1, terms.shape[1]))
    for i in range(terms.shape[0]):
        running[i + 1] = decay[i] * running[i] + terms[i]
    return running[1:]


def assemble_w_loop(disc, states):
    """The memory average of every cell of ``disc``, one call per cell to
    the closure the march takes them from."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    w_of = _memory_averages(disc)
    return np.array([w_of(j, states) for j in range(disc.mesh.k)])


def draw_instance(rng, fewest, front):
    """One Gronwall audit instance, every row and value drawn on its own: a
    continuous one (``fewest`` None) is rho0 ~ Exp(1) and the constants a,
    b1, b2 ~ Exp(0.4); a discrete one takes m = rng.integers(fewest, 10)
    and three rows of m values ~ Exp(0.5), its anchor ~ Exp(1) drawn before
    them, or after them where ``front`` (the backward suite's terminal)."""
    if fewest is None:
        return (rng.exponential(1.0), *(rng.exponential(0.4) for _ in range(3)))
    m = int(rng.integers(fewest, 10))
    if front:
        c, b, a = (rng.exponential(0.5, m) for _ in range(3))
        return (rng.exponential(1.0), c, b, a)
    e0 = rng.exponential(1.0)
    return (e0, *(rng.exponential(0.5, m) for _ in range(3)))


def stack_instances(instances, front):
    """(first, rows, lengths) of a list of instances, the stacks the audit
    hands its bounds: discrete rows copied one instance at a time into a
    zero stack as wide as the longest, at its end where ``front`` and at
    its start else; continuous constants as (3, n) and lengths None."""
    first = np.array([inst[0] for inst in instances])
    if np.ndim(instances[0][1]) == 0:
        return first, np.array([inst[1:] for inst in instances]).T, None
    lengths = np.array([np.size(inst[1]) for inst in instances])
    width = lengths.max()
    rows = np.zeros((3, len(instances), width))
    for i, (inst, m) in enumerate(zip(instances, lengths.tolist())):
        rows[:, i, slice(width - m, None) if front else slice(m)] = inst[1:]
    return first, rows, lengths


def suite_one_at_a_time(rng, n, fewest, front):
    """The stacks of ``n`` instances of :func:`draw_instance`."""
    return stack_instances([draw_instance(rng, fewest, front) for _ in range(n)],
                           front)


def violations_per_length(instances, bound, oracle, cols, rtol, grid):
    """Which Gronwall instances the bound fails, from one bound and one
    oracle call per instance length on the instances of that length
    stacked; with a ``grid`` the three last fields are constant rows."""
    lengths = np.array([np.size(inst[1]) for inst in instances])
    bad = np.zeros(len(instances), dtype=bool)
    for m in np.unique(lengths):
        idx = np.flatnonzero(lengths == m)
        first, *rows = (np.array([instances[i][p] for i in idx]) for p in range(4))
        extra = ()
        if grid is not None:
            rows = [np.broadcast_to(r[:, None], (idx.size, grid.size)) for r in rows]
            extra = (grid,)
        actual = oracle(first, *rows, *extra)[:, cols]
        limit = bound(first, *rows, *extra)
        bad[idx] = np.any((actual > limit * (1 + rtol) + 1e-300)
                          | ~np.isfinite(actual) | ~np.isfinite(limit), axis=1)
    return bad


def memory_coupling(xi, j, r):
    """sum over the later steps m = j+1..k-1 of xi[m, j] @ r[m]."""
    acc = np.zeros(xi.shape[-1])
    for m in range(j + 1, xi.shape[1]):
        acc = acc + xi[m, j] @ r[m]
    return acc


# --- body projections, one point at a time -----------------------------------

def convex_hull_projection(vertices, z):
    """Projection of z onto conv(vertices) by enumerating vertex subsets.

    Every subset of size <= n+1 gets one least-squares solve for the
    projection onto its affine hull; candidates with a barycentric
    coordinate below -1e-10 are skipped, and ties within 1e-12 go to the
    lexicographically smallest point.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    z = np.asarray(z, dtype=float)
    m, n = V.shape
    best, best_d = None, np.inf
    for size in range(1, min(m, n + 1) + 1):
        for idx in itertools.combinations(range(m), size):
            S = V[list(idx)]
            base = S[0]
            if size == 1:
                cand = base
            else:
                E = (S[1:] - base).T  # n x (size-1)
                coef, *_ = np.linalg.lstsq(E, z - base, rcond=None)
                lam = np.concatenate([[1.0 - coef.sum()], coef])
                if np.any(lam < -1e-10):
                    continue
                cand = base + E @ coef
            d = float(np.linalg.norm(z - cand))
            if d < best_d - 1e-12:
                best, best_d = cand, d
            elif abs(d - best_d) <= 1e-12 and best is not None:
                if tuple(cand) < tuple(best):
                    best = cand
    return np.asarray(best, dtype=float)


def polytope_facets(vertices):
    """Outer unit facet normals (rows A) and offsets b of conv(vertices),
    n >= 2, from ``scipy.spatial.ConvexHull``.

    Qhull triangulates its output, so a facet that is not a simplex comes
    as several equal rows (a, -b); equal rows within 1e-9 are merged, the
    first kept.
    """
    eq = ConvexHull(np.asarray(vertices, dtype=float)).equations
    keep = [i for i in range(len(eq))
            if not any(np.abs(eq[i] - eq[j]).max() <= 1e-9 for j in range(i))]
    return eq[keep, :-1], -eq[keep, -1]


def ball_projection(radius, u):
    """Projection of u onto the closed ball of the given radius."""
    u = np.asarray(u, dtype=float)
    nu = float(np.linalg.norm(u))
    if nu <= radius:
        return u
    return (radius / nu) * u


# --- graph normal cones, one point at a time ---------------------------------

# the graph normal cone at one point: its kind, the Jacobian J, the ray's
# unit direction (zero on other kinds) and the generator rows (polyhedral
# only); the elements are the pairs (-J^T u, u) with u in that body cone
Cone = namedtuple("Cone", "kind jacobian direction generators")


def graph_normal_cone(fmap, t, x, v, tol=1e-6):
    """The limiting normal cone to gph F(t, .) at one point (x, v): the
    distance of v to F(t, x) gated at ``tol``, then the Jacobian and the body
    cone at w = v - f(t, x), case by case."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    dist, _ = distance_and_projection(fmap, t, x, v)
    if dist > tol:
        raise InfeasiblePointError(
            f"v is {dist:.3e} away from F(t,x), beyond tol={tol:.1e}")
    J = fmap.jacobian(t, x)
    w = v - fmap.center(t, x)
    none = np.zeros_like(w)
    if fmap.kind == "singleton" or (fmap.kind == "polytope"
                                    and len(fmap.vertices) == 1):
        return Cone("subspace", J, none, None)
    if fmap.kind == "ball":
        nw = float(np.linalg.norm(w))
        if nw < fmap.radius - tol:
            return Cone("zero", J, none, None)
        if nw <= tol:  # a radius-0 ball is a point
            return Cone("subspace", J, none, None)
        return Cone("ray", J, w / nw, None)
    A, b = fmap._facet_system()
    resid = A @ w - b
    if np.any(resid > tol):
        raise InfeasiblePointError("point outside polytope beyond tolerance")
    active = A[np.abs(resid) <= 1e-8]
    if active.shape[0] == 0:
        return Cone("zero", J, none, None)
    return Cone("polyhedral", J, none, active)


def cone_row(cones, i):
    """Row i of a package cone stack as a one-point ``Cone``."""
    kind = str(cones.kind[i])
    return Cone(kind, cones.row_jacobian(i), cones.direction[i],
                cones.generators(i) if kind == "polyhedral" else None)


def pair_distance(cone, q_x, q_v):
    """Distance in R^{2n} from (q_x, q_v) to one graph normal cone, with the
    witness u: one least-squares solve for a subspace, one NNLS solve for a
    polyhedral cone."""
    J = cone.jacobian
    q = np.concatenate([q_x, q_v])
    if cone.kind == "zero":
        return float(np.linalg.norm(q)), np.zeros(q_v.size)
    if cone.kind == "subspace":
        M = np.vstack([-J.T, np.eye(q_v.size)])
        u, *_ = np.linalg.lstsq(M, q, rcond=None)
        return float(np.linalg.norm(M @ u - q)), u
    if cone.kind == "ray":
        d = np.concatenate([-J.T @ cone.direction, cone.direction])
        lam = max(0.0, float(d @ q) / float(d @ d))
        return float(np.linalg.norm(q - lam * d)), lam * cone.direction
    D = np.vstack([-J.T @ cone.generators.T, cone.generators.T])
    lam, resid = nnls(D, q)
    return float(resid), cone.generators.T @ lam


def project_u(cone, b):
    """Projection of b onto the body cone of one graph normal cone, by NNLS
    for a polyhedral cone."""
    b = np.asarray(b, dtype=float)
    if cone.kind == "subspace":
        return b
    if cone.kind == "zero":
        return np.zeros_like(b)
    if cone.kind == "ray":
        return max(0.0, float(cone.direction @ b)) * cone.direction
    lam, _ = nnls(cone.generators.T, b)
    return cone.generators.T @ lam


def affine_scan(M, c, y0):
    """y_j = M_j y_{j-1} + c_j for j = 0..k-1 from y_{-1} = y0 (zero-padded
    to length m), forming the doubling products of M on every call: after
    c_0 + M_0[:, :len(y0)] y0 and the pass of stride d, row j holds the
    composition of the maps j - 2d + 1..j."""
    c = c[..., None].copy()
    k, d = len(c), 1
    if k:
        c[0, :, 0] += M[0, :, :len(y0)] @ y0
    M = M.copy()
    while d < k:
        c[d:] += M[d:] @ c[:-d]
        if 2 * d < k:
            M[d:] = M[d:] @ M[:-d]
        d *= 2
    return c[..., 0]


def round_down_map(mesh, t):
    """Largest mesh node <= t (so 0 at t=0 and T at t=T)."""
    mesh._check_domain(t)
    t = min(max(t, 0.0), mesh.horizon)
    idx = int(np.searchsorted(mesh.nodes, t, side="right") - 1)
    return float(mesh.nodes[idx])


def hausdorff_distance(fmap, t, x1, x2):
    """Pompeiu-Hausdorff distance between F(t,x1) and F(t,x2).

    The values are translates of one body, so this is just the distance
    between the centers.
    """
    return float(np.linalg.norm(fmap.center(t, _as_state(x1)) - fmap.center(t, _as_state(x2))))


def localization_check(candidate, reference, eps, mesh):
    """Strict sup-norm and derivative-L2 localization test around an arc."""
    if eps <= 0:
        raise ValueError("localization radius must be positive")
    sup_gap = sup_distance(mesh, candidate, reference)
    if sup_gap >= eps:
        return False
    dgap = idikit.mesh.l2_distance(mesh, candidate.derivative, reference.derivative)
    return dgap ** 2 < eps


CERT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """A bound sequence together with the witness values it must dominate."""

    bounds: np.ndarray
    actual: np.ndarray

    @property
    def slack(self):
        return self.bounds - self.actual

    @property
    def min_slack(self):
        return float(self.slack.min())

    @property
    def certified(self):
        return self.min_slack >= -CERT_TOL
