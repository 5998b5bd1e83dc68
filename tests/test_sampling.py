"""One sampling of each mesh's Gauss points, held to the per-point oracles.

The package evaluates a reference once at every cell Gauss point and turns
each quadrature functional into an array reduction; ``oracles.py`` keeps the
walks that evaluate everything again at every point.  The two must agree to
1e-12 relative, and a value the oracle gives as exactly 0.0 must stay 0.0.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from idikit import catalog
from idikit.bolza import (DiscreteBolzaProblem, SolveOptions, _tracking_term,
                          build_discrete_problem, forward_trajectory, solve_Pk)
from idikit.conditions import adjoint_solve_smooth, build_condition_report
from idikit.config import load_config
from idikit.dynamics import approximate_arc, feasibility_residual, simulate
from idikit.kernel import VolterraKernel, assemble_tensors, xi_tensor
from idikit.mesh import PiecewiseLinearArc, TimeMesh, average_operator, l2_distance
from idikit.problem import CallableArc

CATALOG = ("cos_t", "damped_volterra", "ball_control_lq", "polytope_endpoint")
RTOL = 1e-12

# the README's inline example: identity_decay memory at dim 2, a ball of
# velocities around a rotation drift
INLINE = """[problem]
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
state_box_lo = -4 -4
state_box_hi = 4 4
terminal = quadratic
terminal_target = 0 0
running = quadratic
"""


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """name -> (problem, reference arc with a derivative oracle)."""
    out = {name: (catalog.get(name).problem, catalog.get(name).reference)
           for name in CATALOG}
    ini = tmp_path_factory.mktemp("inline") / "memory.ini"
    ini.write_text(INLINE, encoding="utf-8")
    prob = load_config(str(ini)).entry.problem
    # a simulated reference: piecewise linear, feasible
    out["identity_decay"] = (prob, simulate(prob, TimeMesh.uniform(48, 1.0)).arc())
    # an arc that leaves the velocity set: the defect integrand is nonzero
    out["infeasible"] = (prob, oracles.per_row_arc(
        lambda t: np.array([1.0 + 2.0 * t, np.sin(3.0 * t)]),
        lambda t: np.array([2.0, 3.0 * np.cos(3.0 * t)])))
    return out


def _meshes(horizon, seed):
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.uniform(0.0, horizon, 8))
    return [TimeMesh.uniform(12, horizon),
            TimeMesh.from_nodes(np.concatenate([[0.0], inner, [horizon]])),
            TimeMesh.uniform(1, horizon)]


def _close(new, old):
    if old == 0.0:
        return new == 0.0
    return abs(new - old) <= RTOL * abs(old)


def _close_defect(new, old, size):
    """The inclusion defect dist(x' - y; F) within RTOL of the oracle's, as
    _close; but where the oracle's is itself round-off against ``size``, the
    L2 norm of x' (an exact reference), both need only be that round-off:
    within RTOL * size of each other.  The exponential kernels' running sums
    and the walk give y different last digits, and so such a defect."""
    if 0.0 < old <= RTOL * size:
        return abs(new - old) <= RTOL * size
    return _close(new, old)


@pytest.mark.parametrize("name", CATALOG + ("identity_decay", "infeasible"))
def test_error_report_matches_pointwise_oracle(cases, name):
    problem, ref = cases[name]
    for mesh in _meshes(problem.horizon, seed=len(name)):
        traj, rep = approximate_arc(problem, ref, mesh, feas_tol=np.inf,
                                    tau_f=0.05)
        want = oracles.error_report(problem, ref, mesh, traj, tau_f=0.05)
        size = oracles.l2_distance(mesh, ref.derivative, lambda t: np.zeros(problem.dim))
        for field, old in want.items():
            got = getattr(rep, field)
            ok = (_close_defect(got, old, size) if field == "reference_defect"
                  else _close(got, old))
            assert ok, (field, got, old)
        # the gate and the report share one walk: the same number, bit for bit
        gate = feasibility_residual(problem, ref, mesh)
        assert rep.reference_defect == gate
        assert _close_defect(gate, oracles.feasibility_residual(problem, ref, mesh), size)
        assert (gate > 0.1) == (name == "infeasible")


@pytest.mark.parametrize("name", CATALOG + ("identity_decay",))
def test_tracking_term_and_reference_nodes_match_oracle(cases, name):
    problem, ref = cases[name]
    for mesh in _meshes(problem.horizon, seed=3 + len(name)):
        traj, rep = approximate_arc(problem, ref, mesh, feas_tol=np.inf,
                                    tau_f=0.0)
        dbp, c0, _, _ = build_discrete_problem(problem, mesh, ref,
                                               precomputed=(traj, rep))
        rng = np.random.default_rng(5)
        bumped = dbp.base.fmap.project_body(c0 + 0.1 * rng.standard_normal(c0.shape))
        for tr in (traj, forward_trajectory(dbp, bumped)):
            assert _close(_tracking_term(dbp, tr), oracles.tracking_term(dbp, tr))
        nodes = np.array([np.atleast_1d(ref(t)) for t in mesh.nodes])
        assert np.array_equal(dbp.reference_nodes(), nodes)


def test_mesh_reductions_match_pointwise_oracle():
    rng = np.random.default_rng(11)
    funcs = [lambda t: np.array([np.sin(3.0 * t)]),
             lambda t: np.array([np.exp(-t), t ** 5 - t]),
             lambda t: np.array([1.0, 0.0])]
    for _ in range(4):
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 9)), [2.0]])
        mesh = TimeMesh.from_nodes(nodes)
        for f, g in zip(funcs, funcs[1:] + funcs[:1]):
            if f(0.0).size != g(0.0).size:
                continue
            assert _close(l2_distance(mesh, f, g), oracles.l2_distance(mesh, f, g))
        for f in funcs:
            assert l2_distance(mesh, f, f) == 0.0
            got = average_operator(mesh, f).values
            want = oracles.average_values(mesh, f)
            assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@pytest.mark.parametrize("name", ("damped_volterra", "identity_decay", "generic"))
def test_memory_coupling_matches_loop(cases, name):
    if name == "generic":  # damped_volterra's g, but the row rule's dense xi
        problem, ref = cases["damped_volterra"]
        problem = replace(problem, kernel=VolterraKernel.convolution(
            lambda u: -np.exp(-u), beta=1.0, alpha=1.0))
    else:
        problem, ref = cases[name]
    mesh = _meshes(problem.horizon, seed=7)[1]
    traj, _ = approximate_arc(problem, ref, mesh, feas_tol=np.inf, tau_f=0.0)
    tensors = assemble_tensors(problem.kernel, mesh, traj.states,
                               traj.velocities, ref(mesh.nodes))
    n = problem.dim
    xi = np.zeros((mesh.k + 1, mesh.k, n, n))
    for i in range(1, mesh.k):
        for j in range(i):
            xi[i, j] = xi_tensor(problem.kernel, mesh, traj.states, i, j)
    # the exponential kernels store no dense xi; the generic one stores the
    # row rule's
    assert (tensors.xi is None) == (name != "generic") and np.any(xi != 0.0)
    if tensors.xi is not None:
        assert np.abs(tensors.xi - xi).max() <= RTOL * np.abs(xi).max()
    r = np.random.default_rng(2).standard_normal((mesh.k, problem.dim))
    want = [oracles.memory_coupling(xi, j, r) for j in range(mesh.k)]
    sweep = tensors.backward_coupling(r)
    down = [sweep(j) for j in range(mesh.k - 1, -1, -1)][::-1]
    for g, w in zip(down, want):
        assert np.abs(g - w).max() <= RTOL * max(np.abs(w).max(), 1e-300)


@pytest.mark.parametrize("name", CATALOG + ("identity_decay",))
def test_condition_report_matches_pointwise_oracle(cases, name):
    problem, ref = cases[name]
    for mesh in _meshes(problem.horizon, seed=9 + len(name)):
        traj, rep = approximate_arc(problem, ref, mesh, feas_tol=np.inf,
                                    tau_f=0.0)
        dbp, _, _, _ = build_discrete_problem(problem, mesh, ref,
                                              precomputed=(traj, rep))
        mult = adjoint_solve_smooth(dbp, traj)
        crep = build_condition_report(dbp, traj, mult, x_arc=ref)
        want = oracles.volterra_residuals(problem, ref, PiecewiseLinearArc(mesh, mult.p),
                                          mult.lam, crep.volterra_taus)
        assert crep.volterra_residuals.shape == want.shape == (mesh.k,)
        for got, old in zip(crep.volterra_residuals, want):
            assert _close(got, old), (mesh.k, got, old)


@pytest.mark.parametrize("name", CATALOG)
def test_single_cell_pipeline(name):
    # k = 1: approximation, solve and condition report on one cell
    entry = catalog.get(name)
    mesh = TimeMesh.uniform(1, entry.problem.horizon)
    traj0, rep = approximate_arc(entry.problem, entry.reference, mesh)
    dbp, c0, _, _ = build_discrete_problem(entry.problem, mesh, entry.reference,
                                           precomputed=(traj0, rep))
    traj, _, log = solve_Pk(dbp, c0, SolveOptions(max_iter=200))
    mult = adjoint_solve_smooth(dbp, traj, endpoint_normal=log.endpoint_normal)
    crep = build_condition_report(dbp, traj, mult, x_arc=entry.reference)
    assert log.stationary
    assert rep.dominates()
    assert crep.el_residuals.shape == (1,) and crep.volterra_residuals.shape == (1,)
    assert np.isfinite([rep.zeta_k, rep.beta_k, crep.el_max, crep.volterra_median,
                        crep.transversality]).all()
    assert crep.nontriviality == pytest.approx(1.0, abs=1e-12)


def test_discrete_problem_takes_the_reference_samples_of_its_approximation():
    entry = catalog.get("damped_volterra")
    times = []
    ref = CallableArc(lambda t: times.extend(t) or entry.reference.fn(t),
                      lambda t: times.extend(t) or entry.reference.dfn(t))
    mesh = TimeMesh.uniform(8, entry.problem.horizon)
    traj, rep = approximate_arc(entry.problem, ref, mesh)
    times.clear()
    dbp, _, _, _ = build_discrete_problem(entry.problem, mesh, ref,
                                          precomputed=(traj, rep))
    assert times == []  # nothing sampled again
    fresh = DiscreteBolzaProblem(dbp.base, mesh, ref, dbp.zeta_k)
    assert len(times) == mesh.k + 1 + 4 * mesh.k
    assert np.array_equal(dbp.reference_nodes(), fresh.reference_nodes())
    assert np.array_equal(dbp._disc.ref_dot, fresh._disc.ref_dot)


def test_one_discretization_per_mesh(tmp_path, monkeypatch):
    # a converge run builds each mesh's exponential cell sums once, and the
    # gradient and the multipliers take w from the trajectory: no walk of
    # the k memory averages
    import idikit.kernel as kernel
    from idikit import cli
    from idikit.bolza import cost_gradient

    built, walks = [], []

    def counted(name, log):
        inner = getattr(kernel, name)

        def wrapper(*args):
            log.append(args)
            return inner(*args)
        monkeypatch.setattr(kernel, name, wrapper)

    counted("_exp_cells", built)
    ini = tmp_path / "dv.ini"
    ini.write_text(f"[problem]\nname = damped_volterra\n\n[meshes]\nk = 20, 40\n\n"
                   f"[run]\noutput_dir = {tmp_path}\n", encoding="utf-8")
    cli.run_convergence_study(load_config(str(ini)))
    assert len(built) == 2

    entry = catalog.get("polytope_endpoint")
    mesh = TimeMesh.uniform(40, entry.problem.horizon)
    dbp, controls, traj, _ = build_discrete_problem(entry.problem, mesh,
                                                    entry.reference)
    counted("_memory_averages", walks)
    counted("assemble_w", walks)
    counted("_assemble_w", walks)
    cost_gradient(dbp, controls, traj=traj)
    adjoint_solve_smooth(dbp, traj)
    assert walks == []


@pytest.mark.parametrize("name", ["polytope_endpoint", "damped_volterra"])
def test_tensor_constants_once_per_mesh(name, monkeypatch):
    # theta's reference differences, and mu of a zero or exponential kernel,
    # depend on the problem and the mesh alone: they are formed once, with
    # the reference samples, and no gradient or multiplier sweep forms them
    # again (no np.diff call, one read-only mu shared by every sweep)
    import idikit.bolza as bolza
    import idikit.conditions as conditions
    import idikit.dynamics as dynamics
    from idikit.bolza import cost_gradient

    entry = catalog.get(name)
    mesh = TimeMesh.uniform(40, entry.problem.horizon)
    built, seen, diffs = [], [], []

    def recorded(module, name, log):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: log.append(inner(*a)) or log[-1])

    recorded(dynamics, "_with_reference", built)
    dbp, controls, traj, _ = build_discrete_problem(entry.problem, mesh, entry.reference)
    recorded(bolza, "_tensors", seen)
    recorded(conditions, "_tensors", seen)
    diff = np.diff
    monkeypatch.setattr(np, "diff", lambda *a, **kw: diffs.append(a) or diff(*a, **kw))
    for scale in (1.0, 0.5, 0.25):
        cost_gradient(dbp, scale * controls)
    adjoint_solve_smooth(dbp, traj)
    assert diffs == [] and len(built) == 1 and len(seen) == 4
    disc = dbp._disc
    assert all(t.mu is disc.mu for t in seen) and not disc.mu.flags.writeable
    want_mu = (np.zeros((40, 2, 2)) if entry.problem.kernel.is_zero
               else disc.own[:, None, None] * np.eye(1))
    np.testing.assert_array_equal(disc.mu, want_mu)
    ref = dbp.reference_nodes()
    np.testing.assert_array_equal(
        seen[-1].theta, mesh.steps[:, None] * traj.velocities - (ref[1:] - ref[:-1]))
