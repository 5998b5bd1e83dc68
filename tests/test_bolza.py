import math
from dataclasses import replace

import numpy as np
import pytest

from idikit import catalog
from idikit.bolza import (SolveOptions, build_discrete_problem, cost_breakdown,
                          cost_gradient, cost_Jk, forward_trajectory, solve_Pk)
from idikit.bolza import _scans
from idikit.dynamics import approximate_arc
from idikit.mesh import TimeMesh
from oracles import (fd_gradient, loop_drift, per_row_arc, per_row_cost,
                     point_grads, quadratic_oracle)


def _discrete(entry, k, **kw):
    prob = entry.problem
    mesh = TimeMesh.uniform(k, prob.horizon)
    return build_discrete_problem(prob, mesh, entry.reference, **kw)


# --- cost -------------------------------------------------------------------

def test_cost_zero_on_interpolant_of_reference(cos_t_entry):
    # zero costs: swap in a problem with no terminal/running cost
    from dataclasses import replace
    from idikit.problem import RunningCost, TerminalCost
    base = replace(cos_t_entry.problem, terminal_cost=TerminalCost.zero(),
                   running_cost=RunningCost.zero())
    vals = []
    for k in (12, 24, 48):
        dbp, controls, traj0, _ = _discrete(cos_t_entry, k)
        dbp0 = replace(dbp, base=base)
        vals.append(cost_Jk(dbp0, traj0))
    # only the O(h^2) tracking residual of the near-interpolant remains
    assert 0.0 <= vals[-1] < 2e-5
    assert vals[2] < vals[1] < vals[0]


def test_cost_terminal_only_breakdown(ball_entry):
    dbp, controls, traj0, _ = _discrete(ball_entry, 8)
    terminal, running, tracking = cost_breakdown(dbp, traj0)
    assert abs(cost_Jk(dbp, traj0) - (terminal + running + tracking)) < 1e-14
    # reference is the constant arc x0: terminal cost is 0.5 |x0|^2
    assert terminal == pytest.approx(0.5, abs=1e-12)
    assert tracking < 1e-20


def test_cost_running_quadrature_converges(cos_t_entry):
    # l = |v|^2 along the interpolant: h sum l -> integral of sin^2 = (T - sin T cos T)/2
    from dataclasses import replace
    from idikit.problem import TerminalCost
    T = cos_t_entry.problem.horizon
    lcost = per_row_cost(value=lambda t, x, v: float(np.sum(np.atleast_1d(v) ** 2)),
                         grad_x=lambda t, x, v: np.zeros_like(np.atleast_1d(x)),
                         grad_v=lambda t, x, v: 2.0 * np.atleast_1d(v))
    base = replace(cos_t_entry.problem, terminal_cost=TerminalCost.zero(),
                   running_cost=lcost)
    exact = (T - math.sin(T) * math.cos(T)) / 2.0
    vals = []
    for k in (20, 40, 80):
        entry = catalog.CatalogEntry(base, cos_t_entry.reference)
        dbp, controls, traj0, _ = _discrete(entry, k)
        _, running, _ = cost_breakdown(dbp, traj0)
        vals.append(running)
    errs = [abs(v - exact) for v in vals]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 5e-2


# --- gradient ---------------------------------------------------------------

def test_gradient_linear_terminal_cost_closed_form():
    # l == 0, phi = c.x, g == 0, f == 0: gradient of u_j is h_j * c at the
    # reference-matching controls (theta vanishes there)
    import dataclasses
    from idikit.problem import (ProblemData, RunningCost, TerminalCost,
                                WholeSpace)
    from idikit.setvalued import BallOffset
    from idikit.kernel import VolterraKernel
    c = np.array([0.7, -0.2])
    prob = ProblemData(
        name="lin", fmap=BallOffset(lambda t, x: np.zeros(2), 5.0,
                                    jac=lambda t, x: np.zeros((2, 2))),
        kernel=VolterraKernel.zero(), x0=np.zeros(2), horizon=1.0,
        omega=WholeSpace(),
        terminal_cost=TerminalCost(lambda x: float(c @ np.atleast_1d(x)),
                                   lambda x: c.copy()),
        running_cost=RunningCost.zero(), m_F=5.0, l_F=0.0, beta=0.0,
        alpha=0.0, state_box=(-np.ones(2) * 6, np.ones(2) * 6), epsilon=50.0)
    ref = per_row_arc(lambda t: np.array([0.3 * t, 0.1 * t]),
                      lambda t: np.array([0.3, 0.1]))
    mesh = TimeMesh.uniform(5, 1.0)
    dbp, controls, traj0, _ = build_discrete_problem(prob, mesh, ref)
    grad, _ = cost_gradient(dbp, controls)
    for j in range(5):
        assert np.allclose(grad[j], mesh.steps[j] * c, atol=1e-12)


# the README's inline problem: memory, a ball of velocities around a rotation
# drift, and a ball endpoint set the reference misses
MEMORY_CONTROL = """[problem]
name = memory_control
inline = true
dim = 2
variant = ball
radius = 1.5
drift = rotation
drift_scale = 0.2
kernel = identity_decay
kernel_rate = 1.0
x0 = 1 0
horizon = 1.0
epsilon = 1.0
state_box_lo = -4 -4
state_box_hi = 4 4
terminal = quadratic
terminal_target = 0 0
running = quadratic
omega = ball
omega_center = 0.4 0.4
omega_radius = 0.35

[meshes]
k = 10

[reference]
policy = min_norm
"""


@pytest.mark.parametrize("name", ["cos_t", "ball_control_lq", "damped_volterra",
                                  "polytope_endpoint", "memory_control"])
def test_gradient_matches_central_differences(name, tmp_path):
    if name == "memory_control":
        from idikit import cli
        from idikit.config import load_config
        ini = tmp_path / "memory_control.ini"
        ini.write_text(MEMORY_CONTROL, encoding="utf-8")
        cfg = load_config(str(ini))
        prob, (ref, feas_tol) = cfg.entry.problem, cli._reference_for(cfg)
        mesh = TimeMesh.uniform(10, prob.horizon)
        dbp, controls, _, _ = build_discrete_problem(
            prob, mesh, ref, precomputed=approximate_arc(prob, ref, mesh, feas_tol))
    else:
        dbp, controls, traj0, _ = _discrete(catalog.get(name), 10)
    # move off the initial point so nothing is special about it
    rng = np.random.default_rng(0)
    bumped = dbp.base.fmap.project_body(
        controls + 0.01 * rng.standard_normal(controls.shape))
    if name == "memory_control":  # the endpoint penalty's gradient is live
        x_end = forward_trajectory(dbp, bumped).states[-1]
        assert dbp.omega_k.distance(x_end) > 0.3
    for rho in (0.0, 10.0):
        grad, _ = cost_gradient(dbp, bumped, rho)
        fd = fd_gradient(dbp, bumped, rho)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / denom < 1e-5, rho


def _reference_adjoint_gradient_g_zero(dbp, controls):
    """Independent discrete-adjoint for kernel-free dynamics.

    Plain reverse-mode on x_{j+1} = x_j + h (f + u_j): no memory tensors at
    all, written against the trajectory arrays directly.
    """
    base = dbp.base
    mesh = dbp.mesh
    h = mesh.steps
    traj = forward_trajectory(dbp, controls)
    k = mesh.k
    lam = base.terminal_cost.grad(traj.states[-1])
    grad = np.zeros_like(controls)
    for j in range(k - 1, -1, -1):
        t_j = mesh.nodes[j]
        x_j, v_j = traj.states[j], traj.velocities[j]
        glx, glv = point_grads(base.running_cost, t_j, x_j, v_j)
        # d/dv of the tracking term: integral over the cell of (v - ref')
        a, b = mesh.nodes[j], mesh.nodes[j + 1]
        ref_diff = dbp.reference.eval(b) - dbp.reference.eval(a)
        theta = h[j] * v_j - ref_diff
        s = h[j] * glv + theta + h[j] * lam
        grad[j] = s
        J = base.fmap.jacobian(t_j, x_j)
        lam = lam + h[j] * glx + J.T @ s
    return grad


def test_gradient_g_zero_reduction_matches_reference(ball_entry):
    dbp, controls, traj0, _ = _discrete(ball_entry, 12)
    rng = np.random.default_rng(3)
    bumped = dbp.base.fmap.project_body(
        controls + 0.05 * rng.standard_normal(controls.shape))
    g_main, _ = cost_gradient(dbp, bumped)
    g_ref = _reference_adjoint_gradient_g_zero(dbp, bumped)
    assert np.abs(g_main - g_ref).max() < 1e-12


# --- solver ------------------------------------------------------------------

def test_solver_matches_normal_equations_lq(ball_entry):
    dbp, controls0, traj0, _ = _discrete(ball_entry, 10)
    traj, controls, log = solve_Pk(dbp, controls0,
                                   SolveOptions(tol_stat=1e-10, max_iter=20000))
    assert log.stationary, log.message
    oracle = quadratic_oracle(dbp, controls0)
    traj_star = forward_trajectory(dbp, oracle)
    assert np.abs(traj.states - traj_star.states).max() < 1e-8
    # the optimum stays strictly inside the ball: the constraint never binds
    assert np.linalg.norm(controls, axis=1).max() < dbp.base.fmap.radius - 0.5


def test_solver_descent_and_determinism(ball_entry):
    dbp, controls0, _, _ = _discrete(ball_entry, 8)
    traj1, c1, log1 = solve_Pk(dbp, controls0, SolveOptions(tol_stat=1e-8))
    assert log1.descent_ok
    assert all(b <= a + 1e-15 for a, b in zip(log1.costs, log1.costs[1:]))
    traj2, c2, log2 = solve_Pk(dbp, controls0, SolveOptions(tol_stat=1e-8))
    assert np.array_equal(traj1.states, traj2.states)


def test_the_iteration_cap_ends_the_solve(ball_entry):
    dbp, controls0, _, _ = _discrete(ball_entry, 8)
    _, _, log = solve_Pk(dbp, controls0, SolveOptions(max_iter=1))
    assert log.message == "iteration cap reached"
    assert log.iterations == 1 and not log.stationary


# a terminal target 15 away from the point endpoint set: its multiplier is
# near 15 > RHO0, and the velocity ball keeps x(T) <= 1 inside the tube
PULLED = """[problem]
name = pulled
inline = true
dim = 1
variant = ball
radius = 1
x0 = 0
horizon = 1.0
epsilon = 4
state_box_lo = -2
state_box_hi = 2
terminal = quadratic
terminal_target = 15
omega = point
omega_point = 0.2
"""


def test_the_penalty_grows_until_the_endpoint_holds(tmp_path):
    from idikit import cli
    from idikit.bolza import RHO0
    from idikit.config import load_config
    ini = tmp_path / "pulled.ini"
    ini.write_text(PULLED, encoding="utf-8")
    cfg = load_config(str(ini))
    prob, (ref, feas_tol) = cfg.entry.problem, cli._reference_for(cfg)
    mesh = TimeMesh.uniform(6, prob.horizon)
    dbp, c0, _, _ = build_discrete_problem(
        prob, mesh, ref, precomputed=approximate_arc(prob, ref, mesh, feas_tol))
    opts = SolveOptions()
    traj, _, log = solve_Pk(dbp, c0, opts)
    assert log.rho_final > RHO0
    assert log.endpoint_violation <= opts.endpoint_tol
    assert dbp.omega_k.distance(traj.states[-1]) == log.endpoint_violation


def test_solver_zero_residual_fit(cos_t_entry):
    # tracking cost with a feasible reference: singleton controls leave the
    # initial trajectory untouched and it is already stationary; the solver
    # scans the march that approximate_arc loops, so the states agree to
    # round-off
    dbp, controls0, traj0, _ = _discrete(cos_t_entry, 16)
    traj, controls, log = solve_Pk(dbp, controls0, SolveOptions(tol_stat=1e-9))
    assert log.stationary
    assert log.iterations == 0  # nothing to move: the control set is a point
    assert np.array_equal(controls, np.zeros_like(controls))
    gap = np.abs(traj.states - traj0.states).max()
    assert gap <= 1e-12 * np.abs(traj0.states).max()


def test_solver_endpoint_penalty_polytope(polytope_entry):
    dbp, controls0, traj0, _ = _discrete(polytope_entry, 12)
    traj, controls, log = solve_Pk(dbp, controls0,
                                   SolveOptions(tol_stat=1e-7, max_iter=30000))
    assert log.stationary, log.message
    assert log.endpoint_violation <= 1e-6
    # controls stay in the simplex exactly
    for u in controls:
        assert u[0] >= -1e-12 and u[1] >= -1e-12 and u.sum() <= 1 + 1e-12
    # \eqref between tube/budget activity is reported, not assumed
    assert isinstance(log.tube_active, bool)
    assert isinstance(log.budget_active, bool)


def test_feasibility_exact_at_every_iterate(ball_entry):
    dbp, controls0, _, _ = _discrete(ball_entry, 6)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.normal(scale=3.0, size=controls0.shape)
        cp = dbp.base.fmap.project_body(u)
        traj = forward_trajectory(dbp, cp)
        assert traj.max_feasibility_defect(dbp.base) < 1e-12


def test_the_trust_radius_and_endpoint_set_are_derived(ball_entry):
    # epsilon is the base problem's and omega_k its endpoint set inflated
    # by zeta_k, also in a replaced problem; neither can be passed
    from idikit.bolza import DiscreteBolzaProblem
    from idikit.problem import BallSet
    dbp, _, _, _ = _discrete(ball_entry, 6)
    base = dbp.base
    moved = replace(dbp, zeta_k=0.25)
    other = replace(dbp, base=replace(base, epsilon=3.0, omega=BallSet(np.ones(2), 0.5)))
    for p, eps, omega, zeta in ((dbp, base.epsilon, base.omega, dbp.zeta_k),
                                (moved, base.epsilon, base.omega, 0.25),
                                (other, 3.0, other.base.omega, dbp.zeta_k)):
        assert p.epsilon == eps and p.omega_k.base is omega and p.omega_k.zeta == zeta
    with pytest.raises(TypeError):
        DiscreteBolzaProblem(base, dbp.mesh, dbp.reference, 0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        replace(dbp, omega_k=moved.omega_k)


def _cosh_benchmark():
    """1-D ball dynamics with l = (x^2 + v^2)/2: the optimum is
    x(t) = cosh(1-t)/cosh(1), smooth and interior to the velocity ball."""
    from idikit.kernel import VolterraKernel
    from idikit.problem import ProblemData, TerminalCost, WholeSpace
    from idikit.setvalued import BallOffset
    fmap = BallOffset(lambda t, x: np.zeros(1), 2.0,
                      jac=lambda t, x: np.zeros((1, 1)))
    prob = ProblemData(
        name="cosh_lq", fmap=fmap, kernel=VolterraKernel.zero(), x0=[1.0],
        horizon=1.0, omega=WholeSpace(), terminal_cost=TerminalCost.zero(),
        running_cost=per_row_cost(
            value=lambda t, x, v: 0.5 * float(x[0] ** 2 + v[0] ** 2),
            grad_x=lambda t, x, v: np.atleast_1d(x),
            grad_v=lambda t, x, v: np.atleast_1d(v)),
        m_F=2.0, l_F=0.0, beta=0.0, alpha=0.0, state_box=([-2.0], [2.0]),
        epsilon=4.0)
    c = math.cosh(1.0)
    ref = per_row_arc(lambda t: np.array([math.cosh(1 - t) / c]),
                      lambda t: np.array([-math.sinh(1 - t) / c]))
    return prob, ref


def test_solver_converges_to_designated_minimizer():
    # the solved trajectories approach the continuous optimum in W^{1,2}
    # as the mesh doubles (5% monotonicity slack)
    from idikit.mesh import l2_distance
    prob, ref = _cosh_benchmark()
    w12 = []
    for k in (8, 16, 32):
        mesh = TimeMesh.uniform(k, 1.0)
        dbp, c0, _, _ = build_discrete_problem(prob, mesh, ref)
        traj, _, log = solve_Pk(dbp, c0, SolveOptions(tol_stat=1e-9))
        assert log.stationary
        arc = traj.arc()
        w12.append(math.hypot(l2_distance(mesh, arc, ref),
                              l2_distance(mesh, arc.derivative, ref.derivative)))
    assert w12[1] <= 1.05 * w12[0] and w12[2] <= 1.05 * w12[1]
    assert w12[2] < 0.6 * w12[0]


def test_solver_pure_tracking_reproduces_interpolant(ball_entry):
    # zero terminal/running cost: only the tracking residual remains, the
    # optimum reproduces the cell averages of the reference derivative
    from dataclasses import replace
    from idikit.problem import RunningCost, TerminalCost
    base = replace(ball_entry.problem, terminal_cost=TerminalCost.zero(),
                   running_cost=RunningCost.zero())
    entry = catalog.CatalogEntry(base, ball_entry.reference)
    costs = []
    for k in (8, 16):
        dbp, c0, traj0, _ = _discrete(entry, k)
        traj, controls, log = solve_Pk(dbp, c0, SolveOptions(tol_stat=1e-10))
        assert log.stationary
        ref_nodes = dbp.reference_nodes()
        cell_avg = np.diff(ref_nodes, axis=0) / dbp.mesh.steps[:, None]
        assert np.abs(traj.velocities - cell_avg).max() < 1e-9
        costs.append(cost_Jk(dbp, traj))
    assert costs[1] <= costs[0] + 1e-15
    assert costs[1] < 1e-12  # constant reference: exact fit


def _nan_grad_v_at_half(problem):
    # a running cost whose v-gradient is nan at t = 0.5 only
    from dataclasses import replace
    return replace(problem, running_cost=per_row_cost(
        lambda t, x, v: 0.0, lambda t, x, v: np.zeros(np.size(x)),
        lambda t, x, v: np.full(np.size(v), np.nan) if t == 0.5 else np.zeros(np.size(v))))


def test_non_finite_gradient_names_stage_and_node(cos_t_entry):
    from idikit.dynamics import NonFiniteStateError
    prob = _nan_grad_v_at_half(cos_t_entry.problem)
    dbp, c0, _, _ = build_discrete_problem(prob, TimeMesh.uniform(8, 1.0),
                                           cos_t_entry.reference)
    assert _scans(dbp)  # the scan's nan sends the sweep back to the loop
    with pytest.raises(NonFiniteStateError) as info:
        cost_gradient(dbp, c0)
    err = info.value  # the backward sweep meets node 4 (t = 0.5) first
    assert (err.stage, err.k, err.node, err.t) == ("cost_gradient", 8, 4, 0.5)


def _initial_march(prob, reference, k):
    """(discrete problem, approximate_arc's trajectory, forward_trajectory's
    at the initial controls) on the uniform mesh of k cells."""
    mesh = TimeMesh.uniform(k, prob.horizon)
    traj0, report = approximate_arc(prob, reference, mesh, tau_f=0.0)
    dbp, controls0, _, _ = build_discrete_problem(prob, mesh, reference,
                                                  precomputed=(traj0, report))
    return dbp, traj0, forward_trajectory(dbp, controls0)


@pytest.mark.parametrize("k", (1, 7, 40))
@pytest.mark.parametrize("name", catalog.names())
def test_initial_controls_march_the_approximation_bit_for_bit(name, k):
    # the catalog problem with its drift as a plain callable: both runs
    # take the node loop, whose steps agree bit for bit
    entry = catalog.get(name)
    prob = replace(entry.problem, fmap=loop_drift(entry.problem.fmap))
    dbp, traj0, traj = _initial_march(prob, entry.reference, k)
    assert not _scans(dbp)
    for field in ("states", "velocities", "w"):
        assert np.array_equal(getattr(traj, field), getattr(traj0, field)), field


@pytest.mark.parametrize("k", (1, 7, 40))
@pytest.mark.parametrize("name", catalog.names())
def test_initial_controls_scan_the_approximation(name, k):
    # the catalog problem itself: forward_trajectory scans what
    # approximate_arc marches with the loop's arithmetic (a zero kernel) or
    # the same scan (a point body), and the two agree to round-off of the
    # trajectory's largest value (ball_control_lq's velocities A x_j + u_j
    # cancel to exact zeros in the loop only)
    entry = catalog.get(name)
    dbp, traj0, traj = _initial_march(entry.problem, entry.reference, k)
    assert _scans(dbp)
    fields = ("states", "velocities", "w")
    scale = max(np.abs(getattr(traj0, field)).max() for field in fields)
    for field in fields:
        gap = np.abs(getattr(traj, field) - getattr(traj0, field)).max()
        assert gap <= 1e-12 * scale, field


def test_solver_evaluates_each_trajectory_cost_once(polytope_entry, monkeypatch):
    import idikit.bolza as bolza
    dbp, controls0, _, _ = _discrete(polytope_entry, 12)
    calls = {"forward_trajectory": 0, "cost_breakdown": 0}

    def counted(name):
        inner = getattr(bolza, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bolza, name, counted(name))
    _, _, log = solve_Pk(dbp, controls0, SolveOptions(max_iter=200))
    assert log.iterations > 0 and calls["forward_trajectory"] > log.iterations
    assert calls["cost_breakdown"] == calls["forward_trajectory"]
