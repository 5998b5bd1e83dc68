import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from idikit.bolza import (DiscreteBolzaProblem, SolveOptions,
                          build_discrete_problem, solve_Pk)
from idikit.conditions import (DegenerateMultiplierError, MultiplierSet,
                               _median, adjoint_norm_bound, adjoint_solve_smooth,
                               build_condition_report, euler_lagrange_residual,
                               nontriviality_value, perturbation_robustness,
                               transversality_residual, volterra_residual)
from idikit.dynamics import approximate_arc, simulate
from idikit.kernel import VolterraKernel
from idikit.mesh import PiecewiseLinearArc, TimeMesh
from idikit.problem import (BallSet, BoxSet, EndpointError, InflatedSet,
                            PointSet, ProblemData, RunningCost, TerminalCost,
                            WholeSpace)
from idikit.setvalued import BallOffset, Singleton
from oracles import per_row_arc, per_row_cost


def _singleton_linear_problem(a=0.8, phi_grad=None):
    A = np.array([[a]])
    fmap = Singleton(lambda t, x: A @ np.atleast_1d(x), jac=lambda t, x: A)
    phi = TerminalCost(lambda x: 0.5 * float(np.sum(np.atleast_1d(x) ** 2)),
                       lambda x: np.atleast_1d(x))
    return ProblemData(
        name="lin1d", fmap=fmap, kernel=VolterraKernel.zero(), x0=[1.0],
        horizon=1.0, omega=WholeSpace(), terminal_cost=phi,
        running_cost=RunningCost.zero(), m_F=3.0, l_F=a, beta=0.0, alpha=0.0,
        state_box=([-3.0], [3.0]), epsilon=10.0)


def _wrap_discrete(problem, mesh, reference, zeta=0.0):
    return DiscreteBolzaProblem(base=problem, mesh=mesh, reference=reference,
                                zeta_k=zeta)


def test_adjoint_classical_discrete_recursion_g_zero():
    # singleton F = {A x}, l == 0: p_j = p_{j+1} + h A^T p_{j+1}, -p_k = lam grad(phi)
    prob = _singleton_linear_problem(a=0.8)
    mesh = TimeMesh.uniform(12, 1.0)
    traj = simulate(prob, mesh)
    dbp = _wrap_discrete(prob, mesh, traj.arc())
    mult = adjoint_solve_smooth(dbp, traj)

    A = np.array([[0.8]])
    h = mesh.steps
    p_ref = np.empty((13, 1))
    p_ref[12] = -traj.states[-1]  # -grad phi with lam = 1
    for j in range(11, -1, -1):
        p_ref[j] = p_ref[j + 1] + h[j] * A.T @ p_ref[j + 1]
    p_ref /= 1.0 + np.linalg.norm(p_ref[12])  # same normalization
    assert np.abs(mult.p - p_ref).max() < 1e-12


def test_adjoint_zero_data_flagged_trivial():
    prob = _singleton_linear_problem(a=0.0)
    from dataclasses import replace
    prob = replace(prob, terminal_cost=TerminalCost.zero(), x0=np.zeros(1))
    mesh = TimeMesh.uniform(6, 1.0)
    traj = simulate(prob, mesh)
    dbp = _wrap_discrete(prob, mesh, traj.arc())
    mult = adjoint_solve_smooth(dbp, traj, lam=1.0)
    assert mult.normalization["p_trivial"]
    assert np.allclose(mult.p, 0.0)
    assert nontriviality_value(mult) == 1.0  # lam carries the normalization


def _cos_t_continuous_adjoint(T, lam_raw=1.0):
    """High-order ODE oracle for the memory adjoint of the cos benchmark.

    p'(tau) = q(tau), q(tau) = int_tau^T p dt, so p'' = -p backward from
    p(T) = -lam cos(T), q(T) = 0.
    """
    pT = -lam_raw * math.cos(T)
    sol = solve_ivp(lambda t, y: [y[1], -y[0]], (T, 0.0), [pT, 0.0],
                    dense_output=True, rtol=1e-11, atol=1e-13)
    return sol.sol


def test_adjoint_cos_t_matches_continuous_oracle(cos_t_entry):
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    oracle = _cos_t_continuous_adjoint(prob.horizon)
    errs = []
    for k in (20, 40, 80):
        mesh = TimeMesh.uniform(k, prob.horizon)
        traj, _ = approximate_arc(prob, ref, mesh)
        dbp = _wrap_discrete(prob, mesh, ref)
        mult = adjoint_solve_smooth(dbp, traj)
        scale = 1.0 + abs(oracle(prob.horizon)[0])
        p_cont = np.array([oracle(t)[0] for t in mesh.nodes]) / scale
        errs.append(np.abs(mult.p[:, 0] - p_cont).max())
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 2e-2


def test_el_residual_zero_dynamics_zero_multipliers():
    prob = _singleton_linear_problem(a=0.0)
    from dataclasses import replace
    prob = replace(prob, terminal_cost=TerminalCost.zero(), x0=np.zeros(1))
    mesh = TimeMesh.uniform(5, 1.0)
    traj = simulate(prob, mesh)
    dbp = _wrap_discrete(prob, mesh, traj.arc())
    mult = adjoint_solve_smooth(dbp, traj)
    for j in range(5):
        assert euler_lagrange_residual(dbp, mult, j) < 1e-14


def test_el_residual_small_at_lq_stationary_point(ball_entry):
    prob = ball_entry.problem
    mesh = TimeMesh.uniform(10, prob.horizon)
    dbp, c0, _, _ = build_discrete_problem(prob, mesh, ball_entry.reference)
    traj, controls, log = solve_Pk(dbp, c0, SolveOptions(tol_stat=1e-8))
    assert log.stationary
    mult = adjoint_solve_smooth(dbp, traj, endpoint_normal=log.endpoint_normal)
    for j in range(mesh.k):
        assert euler_lagrange_residual(dbp, mult, j) < 1e-7
    # perturbing one adjoint node must be seen by the residual
    from dataclasses import replace
    bumped_p = mult.p.copy()
    bumped_p[5] += 0.1
    bumped = replace(mult, p=bumped_p)
    r4 = euler_lagrange_residual(dbp, bumped, 4)
    r5 = euler_lagrange_residual(dbp, bumped, 5)
    assert max(r4, r5) > 0.05  # sensitivity ~ delta / h or delta


def test_el_residual_small_at_polytope_stationary_point(polytope_entry):
    prob = polytope_entry.problem
    mesh = TimeMesh.uniform(10, prob.horizon)
    dbp, c0, _, _ = build_discrete_problem(prob, mesh, polytope_entry.reference)
    traj, controls, log = solve_Pk(dbp, c0,
                                   SolveOptions(tol_stat=1e-8, max_iter=30000))
    assert log.stationary, log.message
    mult = adjoint_solve_smooth(dbp, traj, endpoint_normal=log.endpoint_normal)
    for j in range(mesh.k):
        # the certified link: residual within 10x the stationarity tolerance
        assert euler_lagrange_residual(dbp, mult, j) < 10 * 1e-8
    rep = build_condition_report(dbp, traj, mult, x_arc=polytope_entry.reference)
    assert rep.transversality < 1e-6
    assert rep.adjoint_bound_ok


def test_volterra_residual_ode_case_analytic_adjoint():
    # g == 0, F = {a x}: p' = -a p with p(T) = -lam grad(phi)(x(T))
    a = 0.8
    prob = _singleton_linear_problem(a=a)
    T = prob.horizon
    x_arc = per_row_arc(lambda t: np.array([math.exp(a * t)]),
                        lambda t: np.array([a * math.exp(a * t)]))
    pT = -math.exp(a * T)
    p_arc = per_row_arc(lambda t: np.array([pT * math.exp(-a * (t - T))]),
                        lambda t: np.array([-a * pT * math.exp(-a * (t - T))]))
    for tau in (0.1, 0.37, 0.9):
        assert volterra_residual(prob, x_arc, p_arc, 1.0, tau) < 1e-10
    # a wrong adjoint is detected
    bad = per_row_arc(lambda t: np.array([pT]), lambda t: np.zeros(1))
    assert volterra_residual(prob, x_arc, bad, 1.0, 0.5) > 0.1


def test_volterra_residual_decreases_cos_t(cos_t_entry):
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    medians = []
    for k in (20, 40, 80):
        mesh = TimeMesh.uniform(k, prob.horizon)
        traj, _ = approximate_arc(prob, ref, mesh)
        dbp = _wrap_discrete(prob, mesh, ref)
        mult = adjoint_solve_smooth(dbp, traj)
        p_arc = PiecewiseLinearArc(mesh, mult.p)
        taus = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        res = [volterra_residual(prob, ref, p_arc, mult.lam, tau) for tau in taus]
        medians.append(float(np.median(res)))
    assert medians[1] <= 0.8 * medians[0]
    assert medians[2] <= 0.8 * medians[1]


def test_volterra_residual_degenerate_gate(cos_t_entry):
    prob = cos_t_entry.problem
    zero_arc = per_row_arc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    with pytest.raises(DegenerateMultiplierError):
        volterra_residual(prob, cos_t_entry.reference, zero_arc, 0.0, 0.5)


def test_transversality_cases():
    prob = _singleton_linear_problem()
    x_end = np.array([2.0])
    # free endpoint: residual is |p + lam grad(phi)|
    r = transversality_residual(prob, x_end, np.array([-2.0]), 1.0)
    assert r < 1e-15
    r = transversality_residual(prob, x_end, np.array([0.3]), 1.0)
    assert abs(r - 2.3) < 1e-12

    # singleton endpoint set: any p passes (full normal cone)
    r = transversality_residual(prob, x_end, np.array([17.0]), 1.0,
                                omega=PointSet(x_end))
    assert r == 0.0

    # ball boundary with zero cost: -p must be a nonnegative radial multiple
    ball = BallSet(np.zeros(2), 1.0)
    from dataclasses import replace
    prob2 = replace(_singleton_linear_problem(), terminal_cost=TerminalCost.zero())
    xb = np.array([1.0, 0.0])
    assert transversality_residual(prob2, xb, np.array([-0.7, 0.0]), 0.0,
                                   omega=ball) < 1e-15
    assert transversality_residual(prob2, xb, np.array([0.7, 0.0]), 0.0,
                                   omega=ball) == pytest.approx(0.7)
    assert transversality_residual(prob2, xb, np.array([0.0, -0.4]), 0.0,
                                   omega=ball) == pytest.approx(0.4)
    from idikit.problem import EndpointError
    with pytest.raises(EndpointError):
        transversality_residual(prob2, np.array([2.0, 0.0]), np.zeros(2), 0.0,
                                omega=ball)


def test_nontriviality_value_literal():
    tensors_dummy = None
    mult = MultiplierSet(lam=0.3, p=np.array([[0.0], [0.7]]),
                         tensors=tensors_dummy, glx=np.zeros((1, 1)),
                         glv=np.zeros((1, 1)), cones=(),
                         normalization={"raw_lambda": 0.6,
                                        "raw_terminal_norm": 1.4,
                                        "scale": 0.5, "p_trivial": False},
                         m_l=0.0, theta_l1=0.0, el_residuals=np.zeros(1))
    assert nontriviality_value(mult) == pytest.approx(1.0)
    degenerate = MultiplierSet(lam=0.0, p=np.zeros((2, 1)),
                               tensors=tensors_dummy, glx=np.zeros((1, 1)),
                               glv=np.zeros((1, 1)), cones=(),
                               normalization={"raw_lambda": 0.0,
                                              "raw_terminal_norm": 0.0,
                                              "scale": 1.0, "p_trivial": True},
                               m_l=0.0, theta_l1=0.0, el_residuals=np.zeros(1))
    with pytest.raises(DegenerateMultiplierError):
        nontriviality_value(degenerate)


def test_adjoint_norm_bound_respected(damped_entry):
    prob, ref = damped_entry.problem, damped_entry.reference
    mesh = TimeMesh.uniform(30, prob.horizon)
    traj, _ = approximate_arc(prob, ref, mesh)
    dbp = _wrap_discrete(prob, mesh, ref)
    mult = adjoint_solve_smooth(dbp, traj)
    bound = adjoint_norm_bound(dbp, mult)
    assert np.all(np.linalg.norm(mult.p[1:], axis=1) <= bound * (1 + 1e-9))


def test_condition_report_fields(cos_t_entry):
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    mesh = TimeMesh.uniform(16, prob.horizon)
    traj, rep0 = approximate_arc(prob, ref, mesh)
    dbp = _wrap_discrete(prob, mesh, ref, zeta=rep0.zeta_k)
    mult = adjoint_solve_smooth(dbp, traj)
    rep = build_condition_report(dbp, traj, mult, x_arc=ref)
    assert rep.k == 16 and rep.problem == "cos_t"
    assert rep.el_residuals.shape == (16,)
    assert np.all(rep.el_residuals >= 0)
    assert rep.volterra_residuals.shape == (16,)
    assert rep.nontriviality == 1.0
    assert rep.adjoint_bound_ok
    assert np.isfinite(rep.p0_interior_gap)
    # the adjoint recursion solves the printed inclusion exactly for
    # singleton maps, so the discrete residuals sit at rounding level
    assert rep.el_max < 1e-12


@pytest.mark.parametrize("name", ["cos_t_entry", "damped_entry"])
def test_el_residual_is_the_report_row(name, request):
    # one Euler-Lagrange path: a node's residual is the report's row, bit
    # for bit, with memory couplings from the running sum
    entry = request.getfixturevalue(name)
    prob, ref = entry.problem, entry.reference
    mesh = TimeMesh.uniform(9, prob.horizon)
    traj, rep0 = approximate_arc(prob, ref, mesh)
    dbp = _wrap_discrete(prob, mesh, ref, zeta=rep0.zeta_k)
    mult = adjoint_solve_smooth(dbp, traj)
    # the multipliers moved off the recursion, so the couplings count; a
    # set carries the residuals of its own p
    from idikit.conditions import _el_residuals
    moved = mult.p + 0.01 * np.arange(mesh.k + 1)[:, None]
    terms = (mult.tensors, mult.glx, mult.glv, mult.cones)
    mult = replace(mult, p=moved,
                   el_residuals=_el_residuals(dbp, mult.lam, moved, terms))
    rep = build_condition_report(dbp, traj, mult, x_arc=ref)
    assert rep.el_max > 1e-6
    assert [euler_lagrange_residual(dbp, mult, j)
            for j in range(mesh.k)] == rep.el_residuals.tolist()


def _ball_distance(c, r, x):
    return max(0.0, float(np.linalg.norm(x - c)) - r)


def _ball_project(c, r, x):
    d = float(np.linalg.norm(x - c))
    return x if d <= r else c + (r / d) * (x - c)


def _ball_residual(c, r, x, w, tol):
    d = float(np.linalg.norm(x - c))
    if r == 0.0:
        return 0.0
    if d < r - tol:
        return float(np.linalg.norm(w))
    eta = (x - c) / d
    return float(np.linalg.norm(w - max(0.0, float(eta @ w)) * eta))


def test_ball_set_keeps_the_ball_formulas():
    # a ball is its center inflated by its radius: distance, projection and
    # normal-cone residual stay the ball's own formulas bit for bit
    rng = np.random.default_rng(5)
    tol = 1e-6
    for n in (1, 2, 3):
        c, r = rng.normal(size=n), float(rng.uniform(0.1, 2.0))
        ball = BallSet(c, r)
        assert np.array_equal(ball.center, c) and ball.radius == r
        for _ in range(40):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            w = rng.normal(size=n)
            inside = c + rng.uniform(0.0, 0.99 * r) * u
            band = c + (r + rng.uniform(-0.5 * tol, 0.5 * tol)) * u
            outside = c + rng.uniform(r + 2 * tol, 3.0 * r) * u
            for x in (inside, band, outside):
                assert ball.distance(x) == _ball_distance(c, r, x)
                assert np.array_equal(ball.project(x), _ball_project(c, r, x))
            for x in (inside, band):
                assert ball.normal_cone_residual(x, w, tol) \
                    == _ball_residual(c, r, x, w, tol)
            with pytest.raises(EndpointError):
                ball.normal_cone_residual(outside, w, tol)
        # radius 0: the center within the tolerance, whose cone is everything
        point = BallSet(c, 0.0)
        near = c + 0.5 * tol * u
        assert point.normal_cone_residual(near, w, tol) == 0.0
        assert point.distance(near) == _ball_distance(c, 0.0, near)
        assert np.array_equal(point.project(near), _ball_project(c, 0.0, near))


# 0 < zeta <= tol: a point 1.2e-9 from the base is within zeta + tol of it,
# so the base's own gate must take it too

def test_a_thin_ball_gates_once():
    w = np.array([0.3, -0.4])
    ball = BallSet(np.zeros(2), 5e-10)
    assert ball.normal_cone_residual(np.array([1.2e-9, 0.0]), w) == 0.0
    with pytest.raises(EndpointError):
        ball.normal_cone_residual(np.array([2e-9, 0.0]), w)


def test_a_thinly_inflated_box_gates_once():
    w = np.array([0.3, -0.4])
    box = InflatedSet(BoxSet(np.zeros(2), np.ones(2)), 5e-10)
    x = np.array([1.0 + 1.2e-9, 0.5])  # past the face x_0 = 1
    assert box.normal_cone_residual(x, np.array([0.7, 0.0])) == 0.0
    assert box.normal_cone_residual(x, w) == pytest.approx(0.4)
    with pytest.raises(EndpointError):
        box.normal_cone_residual(np.array([1.0 + 2e-9, 0.5]), w)


def test_perturbation_robustness_decreasing():
    # ball boundary point with genuinely nonlinear drift
    fmap = BallOffset(lambda t, x: np.array([math.sin(x[0]), x[1] ** 2]), 1.0,
                      jac=lambda t, x: np.array([[math.cos(x[0]), 0.0],
                                                 [0.0, 2.0 * x[1]]]))
    prob = ProblemData(
        name="rob", fmap=fmap, kernel=VolterraKernel.zero(), x0=np.zeros(2),
        horizon=1.0, omega=WholeSpace(),
        terminal_cost=TerminalCost(lambda x: 0.5 * float(np.sum(x ** 2)),
                                   lambda x: np.atleast_1d(x)),
        running_cost=per_row_cost(
            value=lambda t, x, v: 0.5 * float(np.sum(np.atleast_1d(x) ** 2)),
            grad_x=lambda t, x, v: np.atleast_1d(x),
            grad_v=lambda t, x, v: np.zeros_like(np.atleast_1d(v))),
        m_F=3.0, l_F=2.0, beta=0.0, alpha=0.0,
        state_box=(-np.ones(2), np.ones(2)))
    x = np.array([0.4, 0.3])
    v = fmap.center(0.0, x) + np.array([1.0, 0.0])  # boundary of the ball
    rows = perturbation_robustness(prob, 0.0, x, v, [1e-2, 1e-3, 1e-4])
    gen = [r[1] for r in rows]
    cost = [r[2] for r in rows]
    assert gen[0] > gen[1] > gen[2] > 0
    assert cost[0] > cost[1] > cost[2] > 0
    # no directions: nothing is perturbed, so both gaps are 0
    assert perturbation_robustness(prob, 0.0, x, v, [1e-2, 1e-3], n_dirs=0) \
        == [(1e-2, 0.0, 0.0), (1e-3, 0.0, 0.0)]


def test_recover_multipliers_routes(cos_t_entry):
    from idikit.conditions import recover_multipliers
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    mesh = TimeMesh.uniform(12, prob.horizon)
    traj, _ = approximate_arc(prob, ref, mesh)
    dbp = _wrap_discrete(prob, mesh, ref)
    mult, route = recover_multipliers(dbp, traj)
    assert route == "normal"
    assert nontriviality_value(mult) == 1.0

    # a garbled trajectory is not stationary: lam = 0 degenerates on a free
    # endpoint, so the normal multipliers come back flagged as degraded
    bad_states = traj.states.copy()
    bad_states[4:] += 0.3
    bad = type(traj)(mesh, bad_states,
                     np.diff(bad_states, axis=0) / mesh.steps[:, None],
                     np.array([np.zeros(1)] * mesh.k))
    from idikit.setvalued import InfeasiblePointError
    import pytest as _pt
    with _pt.raises(InfeasiblePointError):
        recover_multipliers(dbp, bad)  # garbling breaks graph feasibility too


def test_recover_multipliers_degraded_on_nonstationary(ball_entry):
    # feasible but non-optimal controls: residuals exceed tolerance, the
    # abnormal probe degenerates (free endpoint), the normal set is returned
    from idikit.bolza import forward_trajectory
    from idikit.conditions import recover_multipliers
    mesh = TimeMesh.uniform(8, ball_entry.problem.horizon)
    from idikit.bolza import build_discrete_problem
    dbp, c0, _, _ = build_discrete_problem(ball_entry.problem, mesh,
                                           ball_entry.reference)
    off = dbp.base.fmap.project_body(c0 + 0.5)
    traj = forward_trajectory(dbp, off)
    mult, route = recover_multipliers(dbp, traj, resid_tol=1e-8)
    assert route == "normal-degraded"
    assert nontriviality_value(mult) == 1.0


@pytest.mark.parametrize("el,el0,route", [
    (1e-6, None, "normal"),       # lam = 1 certifies: no probe
    (1.0, 1e-6, "abnormal"),      # lam = 0 certifies
    (1.0, 0.5, "abnormal"),       # lam = 0 leaves the smaller residual
    (1.0, 1.0, "normal-degraded"),
    (1.0, 2.0, "normal-degraded"),
])
def test_recover_multipliers_picks_the_route_by_residual(monkeypatch, el, el0, route):
    # each probe's Euler-Lagrange residuals are given; the route and the set
    # returned follow from them alone
    import idikit.conditions as conditions
    from types import SimpleNamespace
    sets = {1.0: SimpleNamespace(el_residuals=np.array([0.0, el])),
            0.0: SimpleNamespace(el_residuals=np.array([el0, 0.0]))}
    probes = []
    monkeypatch.setattr(conditions, "_trajectory_terms", lambda problem, traj: None)
    monkeypatch.setattr(conditions, "_adjoint_sweep",
                        lambda problem, traj, terms, lam, normal:
                        probes.append(lam) or sets[lam])
    mult, got = conditions.recover_multipliers(None, None)
    assert got == route
    assert mult is sets[0.0 if route == "abnormal" else 1.0]
    assert probes == ([1.0] if route == "normal" else [1.0, 0.0])


def test_non_finite_multiplier_names_stage_and_node(cos_t_entry):
    from dataclasses import replace
    from idikit.dynamics import NonFiniteStateError
    prob = replace(cos_t_entry.problem, running_cost=per_row_cost(
        lambda t, x, v: 0.0, lambda t, x, v: np.zeros(1),
        lambda t, x, v: np.full(1, np.nan) if t == 0.5 else np.zeros(1)))
    dbp, _, traj, _ = build_discrete_problem(prob, TimeMesh.uniform(8, 1.0),
                                             cos_t_entry.reference)
    with pytest.raises(NonFiniteStateError) as info:
        adjoint_solve_smooth(dbp, traj)
    err = info.value  # the backward recursion meets node 4 (t = 0.5) first
    assert (err.stage, err.k, err.node, err.t) == ("adjoint_solve_smooth", 8, 4, 0.5)


def test_node_cones_built_once_and_shared(polytope_entry, monkeypatch):
    # the adjoint builds the node cones in one stacked call and carries
    # them; the Euler-Lagrange residuals read them, the Volterra residuals
    # build theirs in one more stacked call
    import oracles
    from dataclasses import replace
    import idikit.conditions as conditions
    from idikit.setvalued import CONE_TOL_FEAS
    prob = polytope_entry.problem
    mesh = TimeMesh.uniform(12, prob.horizon)
    dbp, c0, _, _ = build_discrete_problem(prob, mesh, polytope_entry.reference)
    traj, _, log = solve_Pk(dbp, c0, SolveOptions(max_iter=300))
    calls = []
    real = conditions.graph_normal_cone

    def counted(fmap, t, x, v):
        calls.append(np.shape(t))
        return real(fmap, t, x, v)

    monkeypatch.setattr(conditions, "graph_normal_cone", counted)
    mult = adjoint_solve_smooth(dbp, traj, endpoint_normal=log.endpoint_normal)
    assert calls == [(mesh.k,)]
    assert len(mult.cones) == mesh.k
    for j in range(mesh.k):
        want = oracles.graph_normal_cone(
            prob.fmap, mesh.nodes[j], traj.states[j],
            traj.velocities[j] - mult.tensors.w[j], CONE_TOL_FEAS)
        cone = oracles.cone_row(mult.cones, j)
        assert cone.kind == want.kind
        assert np.array_equal(cone.jacobian, want.jacobian)
        if want.generators is not None:
            assert np.array_equal(cone.generators, want.generators)

    calls.clear()
    terms = (mult.tensors, mult.glx, mult.glv, mult.cones)
    el = conditions._el_residuals(dbp, mult.lam, mult.p, terms)
    assert np.array_equal(mult.el_residuals, el)
    assert [euler_lagrange_residual(dbp, mult, j)
            for j in range(mesh.k)] == list(el)
    assert calls == []
    rep = build_condition_report(dbp, traj, mult, x_arc=polytope_entry.reference)
    assert calls == [(mesh.k,)]
    assert np.array_equal(rep.el_residuals, el)

    # the carried cones are the ones used: whole-space body cones make
    # every velocity slot free, so the residuals change
    free = replace(mult.cones, kind=np.full(mesh.k, "subspace"))
    assert not np.array_equal(
        conditions._el_residuals(dbp, mult.lam, mult.p, terms[:3] + (free,)), el)


def test_median_is_numpys_bit_for_bit():
    # odd and even lengths, signed zeros (a -0.0 median reads +0.0, as
    # np.mean sums from +0.0), infinities (inf - inf is NaN) and NaN
    # anywhere in the array
    rng = np.random.default_rng(8)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])
    cases = [np.array([-0.0]), np.array([-0.0, -0.0]), np.array([-np.inf, np.inf]),
             np.array([0.0, -0.0, 1.0]), np.array([np.nan, 1.0])]
    for n in range(1, 10):
        for _ in range(300):
            x = rng.standard_normal(n)
            cases += [x, rng.choice(special, n),
                      np.where(rng.random(n) < 0.3, rng.choice(special, n), x)]
    with np.errstate(invalid="ignore"):
        for x in cases:
            got, want = _median(x), np.median(x)
            assert np.isnan(got) == np.isnan(want), x
            if not np.isnan(want):
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), x
