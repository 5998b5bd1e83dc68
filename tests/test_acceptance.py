"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines stream; every
tolerance below is part of the contract, none is calibrated post hoc.
"""

import math

import numpy as np
import pytest

from idikit import catalog
from idikit.bolza import (SolveOptions, build_discrete_problem, cost_gradient,
                          forward_trajectory, solve_Pk)
from idikit.conditions import (adjoint_norm_bound, adjoint_solve_smooth,
                               build_condition_report, nontriviality_value,
                               perturbation_robustness)
from idikit.dynamics import approximate_arc, simulate
from idikit.gronwall import (apriori_bounds, continuous_gronwall,
                             discrete_gronwall_backward,
                             discrete_gronwall_forward)
from idikit.kernel import VolterraKernel, kernel_average_w, mu_tensor, \
    theta_vector, xi_tensor
from idikit.mesh import TimeMesh
from oracles import (backward_recursion, fd_gradient, forward_recursion,
                     integro_rk4, per_row_arc, point_grads, quadratic_oracle)

RESULTS = []


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures --

@pytest.fixture(scope="module")
def cos_sweep():
    entry = catalog.get("cos_t")
    out = {}
    for k in (20, 40, 80, 160):
        mesh = TimeMesh.uniform(k, entry.problem.horizon)
        out[k] = approximate_arc(entry.problem, entry.reference, mesh)
    return entry, out


@pytest.fixture(scope="module")
def catalog_reports():
    out = {}
    for name in catalog.names():
        entry = catalog.get(name)
        runs = {}
        for k in (20, 40):
            mesh = TimeMesh.uniform(k, entry.problem.horizon)
            runs[k] = approximate_arc(entry.problem, entry.reference, mesh)
        out[name] = (entry, runs)
    return out


@pytest.fixture(scope="module")
def lq_solution():
    entry = catalog.get("ball_control_lq")
    mesh = TimeMesh.uniform(10, entry.problem.horizon)
    dbp, c0, traj0, rep = build_discrete_problem(entry.problem, mesh,
                                                 entry.reference)
    traj, controls, log = solve_Pk(dbp, c0, SolveOptions(tol_stat=1e-10,
                                                         max_iter=30000))
    return entry, dbp, c0, traj, controls, log


@pytest.fixture(scope="module")
def polytope_solution():
    entry = catalog.get("polytope_endpoint")
    mesh = TimeMesh.uniform(10, entry.problem.horizon)
    dbp, c0, traj0, rep = build_discrete_problem(entry.problem, mesh,
                                                 entry.reference)
    traj, controls, log = solve_Pk(dbp, c0, SolveOptions(tol_stat=1e-8,
                                                         max_iter=30000))
    return entry, dbp, traj, log


# --------------------------------------------------------------- criteria --

def test_criterion_01_closed_form_convergence(cos_sweep):
    entry, runs = cos_sweep
    w12 = {k: rep.w12_error for k, (t, rep) in runs.items()}
    ratios = [w12[2 * k] / w12[k] for k in (20, 40, 80)]
    sup160 = runs[160][1].sup_error
    ok = all(r <= 0.75 for r in ratios) and sup160 < 5e-3
    _report(1, "closed-form W12 convergence", ok,
            f"ratios={['%.3f' % r for r in ratios]} sup@160={sup160:.2e}")


def test_criterion_02_majorant_domination(cos_sweep, catalog_reports):
    ok = True
    detail = []
    for name, (entry, runs) in catalog_reports.items():
        for k, (traj, rep) in runs.items():
            good = (rep.nodal_sup_error <= rep.zeta_k * (1 + 1e-9) + 1e-15
                    and rep.deriv_l2_error ** 2 <= rep.beta_k * (1 + 1e-9) + 1e-15)
            ok &= good
            if not good:
                detail.append(f"{name}@{k}")
    _, cos_runs = cos_sweep
    for k, (traj, rep) in cos_runs.items():
        ok &= rep.dominates(1e-9)
    _report(2, "zeta/beta majorants dominate", ok, ";".join(detail))


def test_criterion_03_gronwall_oracle_suites():
    rng = np.random.default_rng(321)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        e0 = rng.exponential(1.0)
        sig, rho, gam = (rng.exponential(0.5, n) for _ in range(3))
        if np.any(forward_recursion(e0, sig, rho, gam)
                  > discrete_gronwall_forward(e0, sig, rho, gam) * (1 + 1e-12)):
            bad += 1
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        c, b, a = (rng.exponential(0.5, n) for _ in range(3))
        x_k = rng.exponential(1.0)
        if np.any(backward_recursion(x_k, c, b, a)[1:n]
                  > discrete_gronwall_backward(x_k, c, b, a) * (1 + 1e-12)):
            bad += 1
    grid = np.linspace(0, 1, 65)
    for _ in range(1000):
        rho0 = rng.exponential(1.0)
        a = rng.exponential(0.4) * np.ones_like(grid)
        b1 = rng.exponential(0.4) * np.ones_like(grid)
        b2 = rng.exponential(0.4) * np.ones_like(grid)
        if np.any(integro_rk4(rho0, a, b1, b2, grid)
                  > continuous_gronwall(rho0, a, b1, b2, grid) * (1 + 1e-9)):
            bad += 1
    _report(3, "Gronwall bounds dominate 3x1000 oracles", bad == 0,
            f"violations={bad}")


def test_criterion_04_apriori_bounds():
    class _Spot:
        m_F, beta, horizon = 1.0, 0.0, 1.0
        x0 = np.zeros(1)
    m1_spot, _ = apriori_bounds(_Spot)
    ok = abs(m1_spot - 2 * math.e) < 1e-12
    worst = ""
    for name in catalog.names():
        prob = catalog.get(name).problem
        m1, m2 = apriori_bounds(prob)
        mesh = TimeMesh.uniform(20, prob.horizon)
        for policy in ("min_norm", "extreme", "constant"):
            traj = simulate(prob, mesh, policy, seed=11)
            arc = traj.arc()
            for t in mesh.dense_samples():
                if 1 + np.linalg.norm(arc.eval(t)) > m1 + 1e-9:
                    ok, worst = False, f"M1 {name}/{policy}@{t:.3f}"
            if np.linalg.norm(traj.velocities, axis=1).max() > m2 + 1e-9:
                ok, worst = False, f"M2 {name}/{policy}"
    _report(4, "a-priori M1/M2 bounds + 2e spot", ok,
            worst or f"spot={m1_spot:.12f}")


def test_criterion_05_quadrature_exactness():
    tol = 1e-10
    mesh = TimeMesh.uniform(2, 1.0)
    states = np.zeros((2, 1))
    checks = []

    c = 1.7
    constk = VolterraKernel(lambda t, s, x: np.full(1, c),
                            jac=lambda t, s, x: np.zeros((1, 1)))
    for j in range(2):
        got = kernel_average_w(constk, mesh, states, j)[0]
        checks.append(abs(got - c * (mesh.nodes[j] + 0.25)))

    ident = VolterraKernel(lambda t, s, x: np.atleast_1d(x),
                           jac=lambda t, s, x: np.eye(1))
    checks.append(abs(xi_tensor(ident, mesh, states, 1, 0)[0, 0] - 0.25))
    checks.append(abs(mu_tensor(ident, mesh, states, 0)[0, 0] - 0.125))

    sep = VolterraKernel(lambda t, s, x: np.atleast_1d(t * s * x),
                         jac=lambda t, s, x: np.array([[t * s]]))
    checks.append(abs(xi_tensor(sep, mesh, states, 1, 0)[0, 0] - 0.046875))
    checks.append(abs(mu_tensor(sep, mesh, states, 0)[0, 0] - 0.0078125))

    # frozen-state double integral hand value
    wk = VolterraKernel(lambda t, s, x: np.atleast_1d(x),
                        jac=lambda t, s, x: np.eye(1))
    got = kernel_average_w(wk, mesh, np.array([[1.0], [2.0]]), 1)[0]
    checks.append(abs(got - 1.0))

    ref = per_row_arc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    checks.append(abs(theta_vector(mesh, np.array([[1.0], [1.0]]), ref, 0)[0] - 0.5))
    worst = max(checks)
    _report(5, "tensor quadrature exactness", worst < tol, f"worst={worst:.2e}")


def test_criterion_06_adjoint_gradient():
    worst_fd = 0.0
    for name in ("cos_t", "ball_control_lq"):
        entry = catalog.get(name)
        mesh = TimeMesh.uniform(10, entry.problem.horizon)
        dbp, c0, _, _ = build_discrete_problem(entry.problem, mesh,
                                               entry.reference)
        rng = np.random.default_rng(1)
        bumped = dbp.base.fmap.project_body(c0 + 0.01 * rng.standard_normal(c0.shape))
        grad, _ = cost_gradient(dbp, bumped)
        fd = fd_gradient(dbp, bumped)
        worst_fd = max(worst_fd,
                       np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12))

    # independent kernel-free adjoint (no memory tensors anywhere)
    entry = catalog.get("ball_control_lq")
    mesh = TimeMesh.uniform(12, entry.problem.horizon)
    dbp, c0, _, _ = build_discrete_problem(entry.problem, mesh, entry.reference)
    rng = np.random.default_rng(3)
    bumped = dbp.base.fmap.project_body(c0 + 0.05 * rng.standard_normal(c0.shape))
    g_main, _ = cost_gradient(dbp, bumped)
    base = dbp.base
    h = mesh.steps
    traj = forward_trajectory(dbp, bumped)
    lam = base.terminal_cost.grad(traj.states[-1])
    g_ref = np.zeros_like(bumped)
    for j in range(mesh.k - 1, -1, -1):
        t_j = mesh.nodes[j]
        glx, glv = point_grads(base.running_cost, t_j, traj.states[j],
                               traj.velocities[j])
        theta = h[j] * traj.velocities[j] - (dbp.reference.eval(mesh.nodes[j + 1])
                                             - dbp.reference.eval(mesh.nodes[j]))
        s = h[j] * glv + theta + h[j] * lam
        g_ref[j] = s
        lam = lam + h[j] * glx + base.fmap.jacobian(t_j, traj.states[j]).T @ s
    gap = np.abs(g_main - g_ref).max()
    ok = worst_fd < 1e-5 and gap < 1e-12
    _report(6, "adjoint gradient vs FD and kernel-free oracle", ok,
            f"fd_rel={worst_fd:.2e} reduction_gap={gap:.2e}")


def test_criterion_07_lq_solver_optimality(lq_solution):
    entry, dbp, c0, traj, controls, log = lq_solution
    oracle = quadratic_oracle(dbp, c0)
    traj_star = forward_trajectory(dbp, oracle)
    err = np.abs(traj.states - traj_star.states).max()
    descent = log.descent_ok and all(
        b <= a + 4e-16 * (1 + abs(a)) for a, b in zip(log.costs, log.costs[1:]))
    ok = log.stationary and err < 1e-8 and descent
    _report(7, "LQ solve matches normal equations", ok,
            f"state_err={err:.2e} iters={log.iterations}")


def test_criterion_08_discrete_conditions(lq_solution, polytope_solution):
    ok = True
    details = []
    for label, (dbp, traj, log) in {
        "ball": (lq_solution[1], lq_solution[3], lq_solution[5]),
        "polytope": (polytope_solution[1], polytope_solution[2],
                     polytope_solution[3]),
    }.items():
        mult = adjoint_solve_smooth(dbp, traj,
                                    endpoint_normal=log.endpoint_normal)
        rep = build_condition_report(dbp, traj, mult)
        bound = adjoint_norm_bound(dbp, mult)
        good = (rep.el_max < 1e-5 and rep.transversality < 1e-6
                and nontriviality_value(mult) == 1.0
                and np.all(np.linalg.norm(mult.p[1:], axis=1)
                           <= bound * (1 + 1e-9)))
        ok &= good
        details.append(f"{label}: el={rep.el_max:.2e} "
                       f"tr={rep.transversality:.2e}")
    # the singleton benchmark: the unique trajectory is optimal, adjoint exact
    entry = catalog.get("cos_t")
    mesh = TimeMesh.uniform(16, entry.problem.horizon)
    dbp, c0, traj0, rep0 = build_discrete_problem(entry.problem, mesh,
                                                  entry.reference)
    traj, _, log = solve_Pk(dbp, c0, SolveOptions(tol_stat=1e-9))
    mult = adjoint_solve_smooth(dbp, traj, endpoint_normal=log.endpoint_normal)
    rep = build_condition_report(dbp, traj, mult, x_arc=entry.reference)
    ok &= rep.el_max < 1e-5 and rep.transversality < 1e-6 \
        and nontriviality_value(mult) == 1.0 and rep.adjoint_bound_ok
    details.append(f"cos_t: el={rep.el_max:.2e}")
    _report(8, "discrete necessary conditions at stationary points", ok,
            " | ".join(details))


def test_criterion_09_volterra_condition_decay():
    ok = True
    details = []
    for name in ("cos_t", "damped_volterra"):
        entry = catalog.get(name)
        prob, ref = entry.problem, entry.reference
        medians = []
        for k in (40, 80, 160):
            mesh = TimeMesh.uniform(k, prob.horizon)
            traj, rep = approximate_arc(prob, ref, mesh)
            dbp, _, _, _ = build_discrete_problem(prob, mesh, ref,
                                                  precomputed=(traj, rep))
            mult = adjoint_solve_smooth(dbp, traj)
            crep = build_condition_report(dbp, traj, mult, x_arc=ref)
            medians.append(crep.volterra_median)
        ratios = [b / a for a, b in zip(medians, medians[1:])]
        ok &= all(r <= 0.8 for r in ratios)
        details.append(f"{name}: ratios={['%.3f' % r for r in ratios]}")
    _report(9, "generalized Volterra residual decay", ok, " | ".join(details))


def test_criterion_10_robustness_limits():
    entry = catalog.get("ball_control_lq")
    prob = entry.problem
    x = np.array([1.0, 0.2])
    v = prob.fmap.center(0.3, x) + np.array([0.0, prob.fmap.radius])
    rows = perturbation_robustness(prob, 0.3, x, v, [1e-2, 1e-3, 1e-4])
    gen = [r[1] for r in rows]
    cost = [r[2] for r in rows]
    ok = gen[0] > gen[1] > gen[2] > 0 and cost[0] > cost[1] > cost[2] > 0
    _report(10, "generator/gradient robustness in delta", ok,
            f"gen={['%.1e' % g for g in gen]}")


def test_criterion_11_deterministic_csv(tmp_path):
    from idikit.cli import main
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"""
[problem]
name = cos_t

[meshes]
k = 8, 16

[run]
seed = 7
output_dir = {tmp_path / 'out'}
label = det
""", encoding="utf-8")
    assert main(["converge", str(cfg)]) == 0
    first = (tmp_path / "out" / "det_converge.csv").read_bytes()
    assert main(["converge", str(cfg)]) == 0
    second = (tmp_path / "out" / "det_converge.csv").read_bytes()
    ok = first == second and len(first) > 0
    _report(11, "byte-identical CSV under fixed seed", ok,
            f"bytes={len(first)}")
