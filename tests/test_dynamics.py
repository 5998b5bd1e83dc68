import math
from dataclasses import replace

import numpy as np
import pytest

from idikit import catalog
from idikit.bolza import DiscreteBolzaProblem, forward_trajectory
from idikit.dynamics import (InfeasibleReferenceError, NonFiniteStateError,
                             approximate_arc, estimate_tau,
                             feasibility_residual, simulate)
from idikit.gronwall import apriori_bounds
from idikit.kernel import VolterraKernel
from idikit.mesh import TimeMesh
from idikit.problem import (CallableArc, ProblemData, RunningCost, TerminalCost,
                            WholeSpace)
from idikit.setvalued import Singleton
from oracles import localization_check, per_row_arc


def _static_problem(f_const, n=1):
    c = np.full(n, f_const)
    fmap = Singleton(lambda t, x: c.copy(), jac=lambda t, x: np.zeros((n, n)))
    return ProblemData(
        name="static", fmap=fmap, kernel=VolterraKernel.zero(), x0=np.zeros(n),
        horizon=1.0, omega=WholeSpace(), terminal_cost=TerminalCost.zero(),
        running_cost=RunningCost.zero(), m_F=abs(f_const) * math.sqrt(n),
        l_F=0.0, beta=0.0, alpha=0.0, state_box=(-2 * np.ones(n), 2 * np.ones(n)))


def test_simulate_stationary_zero_dynamics():
    prob = _static_problem(0.0)
    traj = simulate(prob, TimeMesh.uniform(8, 1.0))
    assert np.allclose(traj.states, 0.0)
    assert np.allclose(traj.velocities, 0.0)


def test_simulate_ball_min_norm_stays_put(ball_entry):
    traj = simulate(ball_entry.problem, TimeMesh.uniform(10, 1.0), "min_norm")
    assert np.allclose(traj.states, ball_entry.problem.x0, atol=1e-12)


def test_simulate_cos_t_tracks_and_converges(cos_t_entry):
    prob = cos_t_entry.problem
    errs = []
    for k in (20, 40, 80):
        traj = simulate(prob, TimeMesh.uniform(k, prob.horizon))
        nodal = [abs(traj.states[j, 0] - math.cos(traj.mesh.nodes[j]))
                 for j in range(k + 1)]
        errs.append(max(nodal))
    assert errs[2] < errs[1] < errs[0]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 0.9  # first-order accuracy on the closed form


def test_simulate_policies_deterministic(polytope_entry):
    prob = polytope_entry.problem
    mesh = TimeMesh.uniform(12, prob.horizon)
    t1 = simulate(prob, mesh, "extreme", seed=5)
    t2 = simulate(prob, mesh, "extreme", seed=5)
    assert np.array_equal(t1.states, t2.states)
    t3 = simulate(prob, mesh, "extreme", seed=6)
    assert not np.array_equal(t1.states, t3.states)

    const = simulate(prob, mesh, "constant", constant_deviation=[0.45, 0.45])
    assert const.max_feasibility_defect(prob) < 1e-10


def test_simulate_unknown_policy_rejected(cos_t_entry):
    with pytest.raises(ValueError):
        simulate(cos_t_entry.problem, TimeMesh.uniform(4, 1.0), "fanciest")


def test_simulated_trajectories_respect_apriori_bounds():
    for name in catalog.names():
        entry = catalog.get(name)
        prob = entry.problem
        m1, m2 = apriori_bounds(prob)
        for policy in ("min_norm", "extreme"):
            traj = simulate(prob, TimeMesh.uniform(16, prob.horizon), policy, seed=1)
            for j in range(traj.mesh.k + 1):
                assert 1 + np.linalg.norm(traj.states[j]) <= m1 + 1e-9, (name, policy)
            for j in range(traj.mesh.k):
                assert np.linalg.norm(traj.velocities[j]) <= m2 + 1e-9, (name, policy)


def test_discrete_trajectory_invariants(damped_entry):
    prob = damped_entry.problem
    traj = simulate(prob, TimeMesh.uniform(15, prob.horizon))
    assert traj.max_feasibility_defect(prob) < 1e-12
    assert traj.w_reproduction_error(prob) < 1e-12
    # the recurrence x_{j+1} = x_j + h v_j holds exactly
    rebuilt = traj.states[:-1] + traj.mesh.steps[:, None] * traj.velocities
    assert np.allclose(rebuilt, traj.states[1:], atol=0.0)


def test_approximate_arc_fixed_point():
    # a line with matching singleton drift reproduces itself exactly
    prob = _static_problem(0.7)
    mesh = TimeMesh.uniform(6, 1.0)
    ref = per_row_arc(lambda t: np.array([0.7 * t]), lambda t: np.array([0.7]))
    traj, report = approximate_arc(prob, ref, mesh)
    assert np.allclose(traj.states[:, 0], 0.7 * mesh.nodes, atol=1e-15)
    assert report.xi_k < 1e-15
    assert report.nodal_sup_error < 1e-15
    assert report.sup_error < 1e-15
    assert report.deriv_l2_error < 1e-15


def test_approximate_arc_cos_t_w12_convergence(cos_t_entry):
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    w12 = []
    for k in (10, 20, 40):
        traj, report = approximate_arc(prob, ref, TimeMesh.uniform(k, prob.horizon))
        assert report.dominates()
        w12.append(report.w12_error)
    assert w12[2] < w12[1] < w12[0]
    assert w12[1] <= 0.75 * w12[0] and w12[2] <= 0.75 * w12[1]


def test_approximate_arc_nodal_interpolation_property(cos_t_entry):
    # singleton-F references are reproduced at the nodes up to the memory
    # freezing error, which is O(h); with the kernel the nodal error is small
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    traj, report = approximate_arc(prob, ref, TimeMesh.uniform(40, prob.horizon))
    assert report.nodal_sup_error < 6e-3
    assert report.nodal_sup_error <= report.zeta_k


def test_approximate_arc_self_consistency_ball(ball_entry):
    # simulate fine, approximate coarse: the output must be exactly feasible
    prob = ball_entry.problem
    fine = simulate(prob, TimeMesh.uniform(320, prob.horizon), "constant",
                    constant_deviation=[0.5, 0.2])
    ref = fine.arc()
    res = feasibility_residual(prob, ref, TimeMesh.uniform(40, prob.horizon))
    traj, report = approximate_arc(prob, ref, TimeMesh.uniform(40, prob.horizon),
                                   feas_tol=max(2 * res, 1e-6))
    assert traj.max_feasibility_defect(prob) < 1e-10
    assert report.dominates()


def test_approximate_arc_rejects_infeasible(ball_entry):
    prob = ball_entry.problem
    bad = per_row_arc(lambda t: np.array([1.0 + 10.0 * t, 0.0]),
                      lambda t: np.array([10.0, 0.0]))  # speed 10 >> r + |Ax|
    with pytest.raises(InfeasibleReferenceError):
        approximate_arc(prob, bad, TimeMesh.uniform(8, prob.horizon))


def test_feasibility_residual_cases(cos_t_entry):
    prob = cos_t_entry.problem
    mesh = TimeMesh.uniform(16, prob.horizon)
    ref = cos_t_entry.reference
    assert feasibility_residual(prob, ref, mesh) < 1e-10

    # constant arc violating a unit-drift singleton by exactly 1
    unit = _static_problem(1.0)
    still = per_row_arc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    res = feasibility_residual(unit, still, TimeMesh.uniform(8, 1.0))
    assert abs(res - 1.0) < 1e-12  # sqrt(T) * 1 with T = 1


def test_localization_check(cos_t_entry):
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    mesh = TimeMesh.uniform(80, prob.horizon)
    assert localization_check(ref, ref, 0.5, mesh)

    shifted = CallableArc(lambda t: ref.eval(t) + 0.25,
                          lambda t: ref.derivative(t))
    assert not localization_check(shifted, ref, 0.25, mesh)  # strict sup test

    from idikit.mesh import PiecewiseLinearArc
    interp = PiecewiseLinearArc(mesh, np.array([ref.eval(t) for t in mesh.nodes]))
    assert localization_check(interp, ref, 0.1, mesh)


def test_estimate_tau_autonomous_maps_vanish(ball_entry):
    assert estimate_tau(ball_entry.problem, 0.05) == 0.0


def test_approximate_arc_w12_monotone_damped(damped_entry):
    prob, ref = damped_entry.problem, damped_entry.reference
    w12 = []
    for k in (10, 20, 40):
        traj, report = approximate_arc(prob, ref, TimeMesh.uniform(k, prob.horizon))
        assert report.dominates()
        w12.append(report.w12_error)
    assert w12[1] <= 1.05 * w12[0] and w12[2] <= 1.05 * w12[1]


def test_simulate_constant_policy_projects_default_deviation():
    # a polytope that does not contain the origin: the default (zero)
    # deviation must be projected into the body to stay feasible
    from idikit.kernel import VolterraKernel
    from idikit.problem import ProblemData, RunningCost, TerminalCost, WholeSpace
    from idikit.setvalued import PolytopeOffset
    verts = [[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]
    fmap = PolytopeOffset(lambda t, x: np.zeros(2), verts,
                          jac=lambda t, x: np.zeros((2, 2)))
    prob = ProblemData(
        name="offset_poly", fmap=fmap, kernel=VolterraKernel.zero(),
        x0=np.zeros(2), horizon=1.0, omega=WholeSpace(),
        terminal_cost=TerminalCost.zero(), running_cost=RunningCost.zero(),
        m_F=3.0, l_F=0.0, beta=0.0, alpha=0.0,
        state_box=(-3 * np.ones(2), 3 * np.ones(2)))
    traj = simulate(prob, TimeMesh.uniform(6, 1.0), "constant")
    assert traj.max_feasibility_defect(prob) < 1e-12


def test_approximate_arc_nonuniform_mesh(cos_t_entry):
    # the construction and its majorants work on irregular partitions too
    from idikit.mesh import TimeMesh
    prob, ref = cos_t_entry.problem, cos_t_entry.reference
    nodes = np.concatenate([np.linspace(0.0, 0.4, 9),
                            np.linspace(0.4, 1.0, 7)[1:]])
    mesh = TimeMesh.from_nodes(nodes)
    assert not mesh.satisfies_uniformity_cap
    traj, report = approximate_arc(prob, ref, mesh)
    assert traj.max_feasibility_defect(prob) < 1e-12
    assert report.dominates()
    assert report.sup_error < 0.05


def _nan_after_half(t, x):
    # a drift that turns non-finite after t = 0.5
    return np.full(np.size(x), np.nan) if t > 0.5 else np.zeros(np.size(x))


def test_non_finite_state_names_stage_and_node():
    prob = _static_problem(0.0)
    prob = ProblemData(
        name="nan_drift", fmap=Singleton(_nan_after_half), kernel=prob.kernel,
        x0=prob.x0, horizon=1.0, omega=WholeSpace(),
        terminal_cost=TerminalCost.zero(), running_cost=RunningCost.zero(),
        m_F=0.0, l_F=0.0, beta=0.0, alpha=0.0, state_box=prob.state_box)
    mesh = TimeMesh.uniform(8, 1.0)  # t_5 = 0.625 is the first node past 0.5
    ref = per_row_arc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    dbp = DiscreteBolzaProblem(base=prob, mesh=mesh, reference=ref, zeta_k=0.0)
    runs = {
        "simulate": lambda: simulate(prob, mesh),
        "forward_trajectory": lambda: forward_trajectory(
            dbp, np.zeros((8, 1))),
    }
    for stage, run in runs.items():
        with pytest.raises(NonFiniteStateError) as info:
            run()
        err = info.value
        assert (err.stage, err.k, err.node, err.t) == (stage, 8, 5, 0.625)
        assert str(err) == f"{stage}: non-finite state at node 5 of k=8 (t=0.625)"
    # the reference's inclusion defect is sampled at cell Gauss points, so
    # approximate_arc stops at its gate, at the cell that holds t = 0.5+
    with pytest.raises(NonFiniteStateError) as info:
        approximate_arc(prob, ref, mesh)
    err = info.value
    assert (err.stage, err.k, err.node, err.t) == ("approximate_arc", 8, 4, 0.5)


def test_overflow_is_caught_at_the_first_infinite_state():
    prob = _static_problem(1e308)
    with pytest.raises(NonFiniteStateError) as info, np.errstate(over="ignore"):
        simulate(prob, TimeMesh.uniform(4, 4.0))  # h = 1: x_2 = 2e308 = inf
    assert (info.value.stage, info.value.node) == ("simulate", 1)


def test_gate_rejects_a_defect_that_is_nan_only_between_the_nodes():
    # the drift is finite at the mesh nodes, where the march looks, and nan
    # at every other time, where the reference's defect is sampled
    mesh = TimeMesh.uniform(4, 1.0)
    nodes = set(mesh.nodes.tolist())
    prob = replace(_static_problem(0.0), fmap=Singleton(
        lambda t, x: np.zeros(1) if float(t) in nodes else np.full(1, np.nan)))
    ref = per_row_arc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    assert np.isfinite(simulate(prob, mesh).states).all()
    assert np.isnan(feasibility_residual(prob, ref, mesh))
    for feas_tol in (1e-6, np.inf):  # no tolerance lets a nan through
        with pytest.raises(NonFiniteStateError) as info:
            approximate_arc(prob, ref, mesh, feas_tol=feas_tol, tau_f=0.0)
        err = info.value
        assert (err.stage, err.k, err.node, err.t) == ("approximate_arc", 4, 0, 0.0)
