"""The stacked problem oracles against the same formulas served row by row.

Closed-form references, running costs and linear drift centers take a whole
stack per call, the march and the backward sweep of a linear drift are
prefix scans, the march of ``approximate_arc`` is one stacked pass on a
zero kernel and a scan on a point body, and the multipliers' adjoint sweep
scans its runs of ``zero`` and ``subspace`` rows.  Each is held to its
per-row oracle from ``oracles`` (the formulas of one time or one point, or
the node loop) within 1e-12 relative, and the zero kernel's stacked march
bit for bit, on random non-uniform meshes; an oracle of the wrong shape
raises a named error, and a scan that is not finite falls back to the
loop, which names the stage and the node.  The scan takes its start state
as the callers added it by hand, the gradient and the multipliers share one
backward loop, and a mesh on the ``normal`` route takes one Euler-Lagrange
pass.  Every scan over composed levels is the compose-per-call scan of
``oracles`` bit for bit, and a solve composes the march's and the
gradient's levels once, or per scan above the byte budget.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from idikit import bolza, catalog, conditions, dynamics
from idikit.bolza import (DiscreteBolzaProblem, SolveOptions, build_discrete_problem,
                          cost_breakdown, cost_gradient, forward_trajectory, solve_Pk)
from idikit.bolza import _scans
from idikit.catalog import _quadratic_running
from idikit.conditions import (_adjoint_sweep, _trajectory_terms,
                               adjoint_solve_smooth, recover_multipliers,
                               volterra_residual)
from idikit.config import load_config
from idikit.dynamics import NonFiniteStateError, approximate_arc
from idikit.kernel import VolterraKernel
from idikit.mesh import (CallableArc, MeshError, PiecewiseLinearArc, TimeMesh,
                         cell_gauss_points)
from idikit.problem import (BallSet, CostShapeError, ProblemData, RunningCost,
                            TerminalCost, WholeSpace)
from idikit.setvalued import (BallOffset, GraphNormalCone, PolytopeOffset,
                              Singleton, _centers, graph_normal_cone)
from oracles import (affine_scan, approximation_march, centers, loop_drift,
                     per_row_arc, per_row_cost)

KS = (1, 2, 11, 200)


def _random_mesh(rng, k, horizon):
    inner = np.sort(rng.uniform(0.0, horizon, k - 1))
    return TimeMesh.from_nodes(np.concatenate([[0.0], inner, [horizon]]))


def _assert_rel(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


def _sample_times(mesh):
    """The nodes and every cell Gauss point: what the package samples."""
    return np.concatenate([mesh.nodes, cell_gauss_points(mesh)[0].ravel()])


# --- references ----------------------------------------------------------------

def _rotation_02(t):
    c, s = math.cos(0.2 * t), math.sin(0.2 * t)
    return np.array([[c, s], [-s, c]])


_W = math.sqrt(3.0) / 2.0
_A_POLY = 0.2 * np.array([[0.0, 1.0], [-1.0, 0.0]])
_DEV = np.array([0.45, 0.45])

# the catalog's references, written for one scalar time
SCALAR_REFERENCES = {
    "cos_t": (lambda t: np.array([math.cos(t)]),
              lambda t: np.array([-math.sin(t)])),
    "damped_volterra": (
        lambda t: np.array([math.exp(-t / 2) * (math.cos(_W * t)
                                                + math.sin(_W * t) / math.sqrt(3.0))]),
        lambda t: np.array([-math.exp(-t / 2) * (2.0 / math.sqrt(3.0))
                            * math.sin(_W * t)])),
    "ball_control_lq": (lambda t: np.array([1.0, 0.0]), lambda t: np.zeros(2)),
    "polytope_endpoint": (
        lambda t: np.linalg.inv(_A_POLY) @ (_rotation_02(t) - np.eye(2)) @ _DEV,
        lambda t: _rotation_02(t) @ _DEV),
}


def _references(tmp_path):
    """(name, stacked reference, horizon) of every catalog entry, built
    directly and through a config that overrides the horizon."""
    out = []
    for name in catalog.names():
        entry = catalog.get(name)
        out.append((name, entry.reference, entry.problem.horizon))
        ini = tmp_path / f"{name}.ini"
        ini.write_text(f"[problem]\nname = {name}\nhorizon = 1.7\n", encoding="utf-8")
        cfg = load_config(str(ini))
        out.append((name, cfg.entry.reference, cfg.entry.problem.horizon))
    return out


def test_references_match_their_per_row_formulas(tmp_path):
    rng = np.random.default_rng(11)
    for name, ref, horizon in _references(tmp_path):
        slow = per_row_arc(*SCALAR_REFERENCES[name])
        for k in KS:
            times = _sample_times(_random_mesh(rng, k, horizon))
            _assert_rel(ref.eval(times), slow.eval(times))
            _assert_rel(ref.derivative(times), slow.derivative(times))
            # a scalar time gives one row, the same as its one-time stack
            t = float(times[-1])
            for f in (ref.eval, ref.derivative):
                assert f(t).shape == (ref.eval(times).shape[1],)
                assert np.array_equal(f(t), f(np.array([t]))[0])


def test_a_scalar_oracle_is_a_named_arc_error():
    old = CallableArc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    for times in (np.linspace(0.0, 1.0, 5), np.array([0.3]), 0.3):
        with pytest.raises(MeshError):
            old.eval(times)
        with pytest.raises(MeshError):
            old.derivative(times)
    wrong_rows = CallableArc(lambda t: np.zeros((1, 2)), lambda t: np.zeros((t.size, 2)))
    with pytest.raises(MeshError):
        wrong_rows.eval(np.linspace(0.0, 1.0, 3))
    assert wrong_rows.derivative(np.linspace(0.0, 1.0, 3)).shape == (3, 2)


# --- running costs ---------------------------------------------------------------

def _scalar_quadratic(cx, cv):
    """The quadratic running cost, written for one point."""
    return (lambda t, x, v: 0.5 * (cx * float(np.sum(np.atleast_1d(x) ** 2))
                                   + cv * float(np.sum(np.atleast_1d(v) ** 2))),
            lambda t, x, v: cx * np.atleast_1d(x),
            lambda t, x, v: cv * np.atleast_1d(v))


def _scalar_zero():
    z = lambda t, x, v: np.zeros_like(np.atleast_1d(x))
    return (lambda t, x, v: 0.0, z, z)


_INLINE = """[problem]
name = inline_cost
inline = true
dim = {dim}
variant = singleton
x0 = {x0}
horizon = 1.0
state_box_lo = {lo}
state_box_hi = {hi}
running = {running}
running_x_weight = 0.3
running_v_weight = 2.5
"""


def _costs(tmp_path):
    """(stacked cost, per-row formulas, dim) for the catalog's quadratic
    costs, the zero cost and the costs of inline configs."""
    out = []
    for n in (1, 2):
        for cx, cv in ((1.0, 1.0), (0.0, 1.0), (0.3, 2.5)):
            out.append((_quadratic_running(cx, cv), _scalar_quadratic(cx, cv), n))
        out.append((RunningCost.zero(), _scalar_zero(), n))
        for running, scalar in (("quadratic", _scalar_quadratic(0.3, 2.5)),
                                ("none", _scalar_zero())):
            ini = tmp_path / f"{running}{n}.ini"
            ini.write_text(_INLINE.format(dim=n, x0=" ".join(["0"] * n),
                                          lo=" ".join(["-1"] * n),
                                          hi=" ".join(["1"] * n), running=running),
                           encoding="utf-8")
            out.append((load_config(str(ini)).entry.problem.running_cost, scalar, n))
    return out


def test_running_costs_match_their_per_row_formulas(tmp_path):
    rng = np.random.default_rng(12)
    for cost, scalar, n in _costs(tmp_path):
        slow = per_row_cost(*scalar)
        for k in KS:
            t = np.sort(rng.uniform(0.0, 1.0, k))
            x, v = rng.normal(size=(k, n)), rng.normal(size=(k, n))
            _assert_rel(cost.evaluate(t, x, v), slow.evaluate(t, x, v))
            for got, want in zip(cost.gradients(t, x, v), slow.gradients(t, x, v)):
                _assert_rel(got, want)


@pytest.mark.parametrize("name", ["ball_control_lq", "polytope_endpoint"])
@pytest.mark.parametrize("k", [1, 11])
def test_consumers_give_the_per_row_cost_results(name, k):
    # the same problem with its running cost served row by row: the cost is
    # bit for bit the same, the gradient and multipliers agree to round-off
    entry = catalog.get(name)
    mesh = _random_mesh(np.random.default_rng(k), k, entry.problem.horizon)
    slow_problem = replace(entry.problem, running_cost=per_row_cost(
        *_scalar_quadratic(*{"ball_control_lq": (1.0, 1.0),
                             "polytope_endpoint": (0.0, 1.0)}[name])))
    fast, c0, traj, _ = build_discrete_problem(entry.problem, mesh, entry.reference)
    slow = replace(fast, base=slow_problem)
    assert cost_breakdown(fast, traj) == cost_breakdown(slow, traj)
    _assert_rel(cost_gradient(fast, c0)[0], cost_gradient(slow, c0)[0])
    _assert_rel(adjoint_solve_smooth(fast, traj).p, adjoint_solve_smooth(slow, traj).p)
    taus = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    p_arc = PiecewiseLinearArc(mesh, adjoint_solve_smooth(fast, traj).p)
    _assert_rel(volterra_residual(entry.problem, entry.reference, p_arc, 1.0, taus),
                volterra_residual(slow_problem, entry.reference, p_arc, 1.0, taus))


def test_a_wrong_cost_shape_is_a_named_error(ball_entry):
    mesh = TimeMesh.uniform(4, ball_entry.problem.horizon)
    fast, c0, traj, _ = build_discrete_problem(ball_entry.problem, mesh,
                                               ball_entry.reference)
    good = ball_entry.problem.running_cost
    scalar_value = RunningCost(lambda t, x, v: 0.0, good.grad_x, good.grad_v)
    row_grads = RunningCost(good.value, lambda t, x, v: np.zeros(2), good.grad_v)
    flat_grads = RunningCost(good.value, good.grad_x, lambda t, x, v: np.zeros(np.size(v)))
    with pytest.raises(CostShapeError, match="value"):
        cost_breakdown(replace(fast, base=replace(fast.base, running_cost=scalar_value)),
                       traj)
    for cost, which in ((row_grads, "grad_x"), (flat_grads, "grad_v")):
        bad = replace(fast, base=replace(fast.base, running_cost=cost))
        for run in (lambda: cost_gradient(bad, c0),
                    lambda: adjoint_solve_smooth(bad, traj),
                    lambda: volterra_residual(bad.base, ball_entry.reference,
                                              traj.arc(), 1.0, np.array([0.5]))):
            with pytest.raises(CostShapeError, match=which):
                run()
    assert issubclass(CostShapeError, ValueError)


# --- linear drifts ----------------------------------------------------------------

def _linear_maps(rng):
    rotation = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return [
        Singleton.linear(np.zeros((1, 1))),
        BallOffset.linear(np.zeros((2, 2)), 1.0),
        Singleton.linear([[-0.7]]),
        Singleton.linear([[0.0]]),
        BallOffset.linear(rotation, 2.0),
        PolytopeOffset.linear(rotation, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        Singleton.linear(rng.normal(size=(3, 3))),
    ]


def _matvec(A, x):
    """A x for one state: zeros for a zero A, one product for n = 1 (either
    keeps the sign of zero that A @ x would not), else A @ x."""
    if not A.any():
        return np.zeros(x.size)
    if A.shape[0] == 1:
        return A[0, 0] * x
    return A @ x


def test_linear_drift_centers_match_the_rows():
    rng = np.random.default_rng(13)
    for fmap in _linear_maps(rng):
        n = fmap._linear.shape[0]
        for k in KS:
            t = np.sort(rng.uniform(0.0, 1.0, k))
            X = rng.normal(size=(k, n))
            X[0] = -0.0  # signs of zero survive where the rows keep them
            got, want = _centers(fmap, t, X), centers(fmap, t, X)
            _assert_rel(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            # ``center`` is the matrix-vector product of one state, bit for bit
            rows = np.array([_matvec(fmap._linear, x) for x in X])
            assert np.array_equal(want, rows)
            assert np.array_equal(np.signbit(want), np.signbit(rows))


def test_linear_cones_carry_the_matrix():
    # the stack stores the map's A once, as (n, n), whatever the rows
    fmap = BallOffset.linear(0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0)
    X = np.array([[0.5, -1.0], [2.0, 0.0]])
    cones = graph_normal_cone(fmap, np.zeros(2), X, _centers(fmap, np.zeros(2), X))
    assert cones.jacobian is fmap._linear and cones.jacobian.shape == (2, 2)


# --- multiplier recovery -------------------------------------------------------------

def test_recovery_builds_tensors_and_cones_once(ball_entry, monkeypatch):
    # a free endpoint degenerates the abnormal probe: the route is
    # normal-degraded after one cone pass, with the lam = 1 multipliers
    mesh = TimeMesh.uniform(8, ball_entry.problem.horizon)
    dbp, c0, _, _ = build_discrete_problem(ball_entry.problem, mesh,
                                           ball_entry.reference)
    traj = forward_trajectory(dbp, dbp.base.fmap.project_body(c0 + 0.5))
    want = adjoint_solve_smooth(dbp, traj)
    calls = []
    original = conditions.graph_normal_cone

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)
    monkeypatch.setattr(conditions, "graph_normal_cone", counted)
    mult, route = recover_multipliers(dbp, traj, resid_tol=1e-8)
    assert route == "normal-degraded" and len(calls) == 1
    assert mult.lam == want.lam and np.array_equal(mult.p, want.p)


def test_shared_terms_give_the_abnormal_multipliers(polytope_entry):
    mesh = TimeMesh.uniform(6, polytope_entry.problem.horizon)
    dbp, _, traj, _ = build_discrete_problem(polytope_entry.problem, mesh,
                                             polytope_entry.reference)
    nu = np.array([0.3, -0.8])
    terms = _trajectory_terms(dbp, traj)
    for lam in (1.0, 0.0):
        want = adjoint_solve_smooth(dbp, traj, lam=lam, endpoint_normal=nu)
        got = _adjoint_sweep(dbp, traj, terms, lam, nu)
        assert got.lam == want.lam and np.array_equal(got.p, want.p)


# --- scanned recurrences -------------------------------------------------------

_ROTATING = 2.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
# the drift matrices of each state size: decaying, rotating, growing
DRIFTS = {1: [[[-1.5]], [[3.0]], [[10.0]]],
          2: [[[-1.5, 0.3], [0.0, -0.8]], _ROTATING, 3.0 * np.eye(2), 10.0 * np.eye(2)]}
KERNELS = {"zero": VolterraKernel.zero,
           "constant": lambda: VolterraKernel.exponential(-1.0, 0.0, 1.0, 1.0),
           "fading": lambda: VolterraKernel.exponential(0.7, 2.5, 0.7, 0.7)}


def _linear_problem(A, kernel, mesh, rng, x0=None):
    """A discrete problem with drift A x built with ``linear``, which scans,
    and the same problem with the drift as a plain callable, which loops.
    Quadratic costs and a ball endpoint set the march misses keep every
    term of the gradient live."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    base = ProblemData(
        name="scan", fmap=BallOffset.linear(A, 1.0), kernel=kernel,
        x0=rng.normal(size=n) if x0 is None else x0, horizon=mesh.horizon,
        omega=BallSet(5.0 * np.ones(n), 0.1),
        terminal_cost=catalog._quadratic_terminal(np.ones(n)),
        running_cost=_quadratic_running(0.3, 2.5), m_F=1.0, l_F=1.0,
        beta=1.0, alpha=1.0, state_box=(-np.ones(n), np.ones(n)))
    ref = PiecewiseLinearArc(TimeMesh.uniform(3, mesh.horizon), rng.normal(size=(4, n)))
    fast = DiscreteBolzaProblem(base=base, mesh=mesh, reference=ref, zeta_k=0.0)
    slow = replace(fast, base=replace(base, fmap=loop_drift(base.fmap)))
    assert not _scans(slow)
    return fast, slow


def _assert_scan_matches_loop(fast, slow, controls):
    scanned, looped = forward_trajectory(fast, controls), forward_trajectory(slow, controls)
    for field in ("states", "velocities", "w"):
        _assert_rel(getattr(scanned, field), getattr(looped, field))
    for rho in (0.0, 10.0):
        _assert_rel(cost_gradient(fast, controls, rho)[0],
                    cost_gradient(slow, controls, rho)[0])


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_scans_match_the_node_loop(kernel):
    # every drift up to 3 I scans on every mesh; 10 I scans on the coarse
    # meshes only, where its steps grow little
    rng = np.random.default_rng(14)
    for n, drifts in DRIFTS.items():
        for A in drifts:
            for k in KS:
                mesh = _random_mesh(rng, k, 1.0)
                fast, slow = _linear_problem(A, KERNELS[kernel](), mesh, rng)
                assert _scans(fast) or np.abs(A).max() == 10.0
                controls = rng.normal(size=(k, n))
                _assert_scan_matches_loop(fast, slow, controls)


def test_scans_match_the_node_loop_on_a_fine_mesh():
    rng = np.random.default_rng(15)
    k = 10 ** 4
    fast, slow = _linear_problem(3.0 * np.eye(2), KERNELS["fading"](),
                                 _random_mesh(rng, k, 1.0), rng)
    assert _scans(fast)
    _assert_scan_matches_loop(fast, slow, rng.normal(size=(k, 2)))


@pytest.mark.parametrize("a, horizon", ((20.0, 2.0), (10.0, 1.0), (3.0, 1.0)))
def test_held_growing_states_match_the_loop_entry_by_entry(a, horizon):
    # u_j = -A x* holds x_j = x* exactly in the loop, while the products
    # of a scan grow like e^{a T} and cancel back down to x*: a growth of
    # e^40 or e^10 would leave the scan's states wrong at O(1) or 1e-12, so
    # those problems take the loop, and e^3 scans within 1e-12 of each
    # entry
    rng = np.random.default_rng(18)
    k, x_star, A = 200, np.array([0.7, -0.4]), a * np.eye(2)
    fast, slow = _linear_problem(A, VolterraKernel.zero(), _random_mesh(rng, k, horizon),
                                 rng, x0=x_star)
    assert _scans(fast) == (a * horizon <= 3.0)
    controls = np.tile(-A @ x_star, (k, 1))
    scanned, looped = forward_trajectory(fast, controls), forward_trajectory(slow, controls)
    assert np.array_equal(looped.states, np.tile(x_star, (k + 1, 1)))
    assert np.all(np.abs(scanned.states - looped.states) <= 1e-12 * np.abs(looped.states))
    # the loop's velocities are exact zeros: held to the drift's size
    assert np.abs(scanned.velocities).max() <= 1e-12 * np.abs(A @ x_star).max()
    for rho in (0.0, 10.0):
        got, want = cost_gradient(fast, controls, rho)[0], cost_gradient(slow, controls, rho)[0]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_nan_control_names_its_node_on_the_scan(kernel):
    rng = np.random.default_rng(16)
    mesh = TimeMesh.uniform(8, 1.0)
    fast, _ = _linear_problem(DRIFTS[2][0], KERNELS[kernel](), mesh, rng)
    u = rng.normal(size=(8, 2))
    u[5, 1] = np.nan
    with pytest.raises(NonFiniteStateError) as info:
        forward_trajectory(fast, u)
    err = info.value
    assert (err.stage, err.k, err.node, err.t) == ("forward_trajectory", 8, 5, 0.625)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_fast_growing_drift_takes_the_loop(kernel):
    # x0 = 0 and u = 0 keep every state 0, but a scan's products would
    # overflow (the widest spans 8192 steps of 1 + 800 h = 1.16), and
    # inf * 0 is nan: the problem takes the loop, whose zeros come back
    k, rng = 10 ** 4, np.random.default_rng(17)
    fast, _ = _linear_problem([[800.0]], KERNELS[kernel](), TimeMesh.uniform(k, 2.0),
                              rng, x0=np.zeros(1))
    assert not _scans(fast)
    traj = forward_trajectory(fast, np.zeros((k, 1)))
    for field in ("states", "velocities", "w"):
        assert np.array_equal(getattr(traj, field), np.zeros_like(getattr(traj, field)))


@pytest.mark.parametrize("k", (0,) + KS)
def test_the_seeded_scan_is_the_hand_seeded_one(k):
    # the start enters as c_0 + M_0[:, :len(y0)] y0, for a whole state and
    # for the first n entries of one; the scan is the loop to round-off
    rng = np.random.default_rng(23)
    m, n = 4, 2
    M = np.eye(m) + 0.1 * rng.normal(size=(k, m, m))
    c = rng.normal(size=(k, m))
    for y0 in (rng.normal(size=m), rng.normal(size=n)):
        hand = c.copy()
        if k:
            hand[0] += M[0, :, :len(y0)] @ y0
        levels = dynamics._scan_levels(M)
        got = dynamics._affine_scan(levels, c, y0)
        assert got.shape == (k, m)
        assert np.array_equal(got, dynamics._affine_scan(levels, hand, np.zeros(0)))
        y, looped = np.zeros(m), np.empty((k, m))
        y[:len(y0)] = y0
        for j in range(k):
            y = looped[j] = M[j] @ y + c[j]
        if k:
            _assert_rel(got, looped)


# --- the scan levels -------------------------------------------------------------

@pytest.mark.parametrize("k", (0,) + KS + (10 ** 4,))
def test_the_levels_scan_is_the_compose_per_call_one(k):
    # the steps as each caller hands them over: the march's M, the
    # gradient's reversed transposed view and a run of the sweep's reversed
    # rows; each level is read-only
    rng = np.random.default_rng(24)
    for m in (2, 4):
        M = np.eye(m) + 0.1 * rng.normal(size=(k, m, m))
        M.flags.writeable = False
        c = rng.normal(size=(k, m))
        for steps, rows in ((M, c), (M[:0:-1].transpose(0, 2, 1), c[:0:-1]),
                            (M[::-1][k // 3:], c[::-1][k // 3:])):
            levels = dynamics._scan_levels(steps)
            assert levels[0].strides == steps.strides
            assert levels[0].size == 0 or np.shares_memory(levels[0], M)
            assert not any(L.flags.writeable for L in levels)
            assert len(levels) == 1 + math.ceil(math.log2(max(len(rows), 1)))
            for y0 in (rng.normal(size=m), rng.normal(size=m // 2)):
                assert np.array_equal(dynamics._affine_scan(levels, rows, y0),
                                      affine_scan(steps, rows, y0))


def _oracle_scans(monkeypatch):
    """Every scan of the package by the compose-per-call oracle, on the
    steps the caller handed to :func:`dynamics._scan_levels`."""
    def scan(levels, c, y0):
        return affine_scan(levels[0], c, y0)
    for module in (dynamics, bolza, conditions):
        monkeypatch.setattr(module, "_affine_scan", scan)


@pytest.mark.parametrize("k", KS + (10 ** 4,))
@pytest.mark.parametrize("kernel", ("zero", "fading"))
def test_every_scan_is_the_compose_per_call_oracle(kernel, k, monkeypatch):
    # the forward march, the gradient's backward scan and the runs of the
    # multipliers' sweep, with m = n (zero kernel) and 2n (exponential),
    # bit for bit the parent's scans; k = 0 has no mesh and is covered above
    rng = np.random.default_rng(25)
    sweeps = []
    inner = conditions._scan_sweep
    monkeypatch.setattr(conditions, "_scan_sweep",
                        lambda *args: sweeps.append(inner(*args)) or sweeps[-1])
    for n, drifts in DRIFTS.items():
        mesh = _random_mesh(rng, k, 1.0)
        dbp, _ = _linear_problem(drifts[0], KERNELS[kernel](), mesh, rng)
        assert _scans(dbp)
        u = dbp.base.fmap.project_body(rng.normal(size=(k, n)))
        tensors, glx, glv, _ = _trajectory_terms(dbp, forward_trajectory(dbp, u))
        # runs of about 50 rows, so that a scan takes several levels
        cones = _mixed_cones(rng, k, n, np.array(drifts[0]), p=(0.49, 0.49, 0.01, 0.01))
        terms = (tensors, glx, glv, cones)
        nu = rng.normal(size=n)

        def run():
            traj = forward_trajectory(dbp, u)
            grad, _ = cost_gradient(dbp, u, rho=10.0, traj=traj)
            return traj.states, traj.velocities, traj.w, grad, \
                _adjoint_sweep(dbp, traj, terms, 1.0, nu).p
        got = run()
        with monkeypatch.context() as m:
            _oracle_scans(m)
            want = run()
        assert all(p is not None for p in sweeps)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _solved(problem, k):
    entry = catalog.get(problem)
    dbp, controls, _, _ = build_discrete_problem(
        entry.problem, TimeMesh.uniform(k, entry.problem.horizon), entry.reference)
    traj, controls, log = solve_Pk(dbp, controls, SolveOptions(max_iter=200))
    return dbp, traj, controls, log


def _counted_levels(monkeypatch):
    composed = []
    inner = dynamics._scan_levels
    monkeypatch.setattr(dynamics, "_scan_levels",
                        lambda M: composed.append(M.shape) or inner(M))
    return composed


@pytest.mark.parametrize("problem, iterations", (("polytope_endpoint", 3),
                                                 ("damped_volterra", 0)))
def test_one_solve_composes_each_direction_once(problem, iterations, monkeypatch):
    # the march's levels (composed by approximate_arc on a point body) and
    # the gradient's, once per mesh however many marches and gradients the
    # solve makes, stored read-only
    composed = _counted_levels(monkeypatch)
    marches = []
    inner = dynamics._scan_march
    monkeypatch.setattr(dynamics, "_scan_march",
                        lambda *args: marches.append(1) or inner(*args))
    dbp, _, _, log = _solved(problem, 40)
    steps = dbp._disc.scan
    assert log.iterations >= iterations and len(marches) > log.iterations
    assert sorted(steps._levels) == ["backward", "forward"]
    assert composed == [(40, *steps.M.shape[1:]), (39, *steps.M.shape[1:])]
    # level 0 is the march's M and the gradient's reversed transposed view
    # of it, not a copy: the start state's product rounds by its layout
    for direction, M in (("forward", steps.M),
                         ("backward", steps.M[:0:-1].transpose(0, 2, 1))):
        levels = steps._levels[direction]
        assert levels[0].strides == M.strides and np.shares_memory(levels[0], M)
        assert np.array_equal(levels[0], M)
    for levels in steps._levels.values():
        assert not any(L.flags.writeable for L in levels)
        with pytest.raises(ValueError):
            levels[-1][0, 0, 0] = 0.0


def test_levels_over_the_budget_are_composed_per_scan(monkeypatch):
    # below the bytes of M nothing is stored, every scan composes its own
    # levels, and the solve is the stored one bit for bit
    stored = _solved("polytope_endpoint", 40)
    composed = _counted_levels(monkeypatch)
    monkeypatch.setattr(dynamics, "SCAN_LEVEL_BYTES", stored[0]._disc.scan.M.nbytes - 1)
    dbp, traj, controls, log = _solved("polytope_endpoint", 40)
    assert dbp._disc.scan._levels == {}
    assert len(composed) > 2
    assert log.costs == stored[3].costs and log.iterations == stored[3].iterations
    for got, want in ((traj.states, stored[1].states), (controls, stored[2])):
        assert np.array_equal(got, want)


# --- the approximation march -------------------------------------------------------

def _rider(n, body, linear):
    """x' in x + P on [0, 1] from x0, with P the ball of radius 1 or the
    cube [-1, 1]^n, and a reference whose deviation x' - x is d(t) e_1,
    d growing from 0 to 1 by t = 0.4 and then riding the boundary of P:
    the projections of the march turn active after t = 0.4."""
    t0, x0, e1 = 0.4, np.linspace(0.5, -0.3, n), np.eye(n)[0]
    if body == "ball":
        fmap = BallOffset.linear(np.eye(n), 1.0)
    else:
        corners = np.array(list(np.ndindex(*(2,) * n)), dtype=float) * 2.0 - 1.0
        fmap = PolytopeOffset.linear(np.eye(n), corners)
    if not linear:
        fmap = loop_drift(fmap)

    def x_ref(t):
        s, late = np.minimum(t, t0)[:, None], np.maximum(t - t0, 0.0)[:, None]
        ramp = (np.exp(s) - 1.0 - s) / t0 * np.exp(late) + np.exp(late) - 1.0
        return x0 * np.exp(t[:, None]) + ramp * e1

    def dx_ref(t):
        return x_ref(t) + (np.minimum(t, t0) / t0)[:, None] * e1

    problem = ProblemData(
        name="rider", fmap=fmap, kernel=VolterraKernel.zero(), x0=x0,
        horizon=1.0, omega=WholeSpace(), terminal_cost=TerminalCost.zero(),
        running_cost=RunningCost.zero(), m_F=10.0, l_F=1.0, beta=0.0,
        alpha=0.0, state_box=(-5.0 * np.ones(n), 5.0 * np.ones(n)))
    return problem, CallableArc(x_ref, dx_ref)


def _assert_bits(got, want):
    for field in ("states", "velocities", "w"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                      b.view(np.uint64)), field


def _spy_starts(monkeypatch):
    """The node each ``dynamics._march`` call starts its loop at."""
    starts, inner = [], dynamics._march

    def spy(problem, disc, select, stage, start=0, head=None):
        starts.append(start)
        return inner(problem, disc, select, stage, start, head)
    monkeypatch.setattr(dynamics, "_march", spy)
    return starts


@pytest.mark.parametrize("linear", (True, False), ids=("linear", "callable"))
def test_the_stacked_approximation_march_is_the_loop_bit_for_bit(linear, monkeypatch):
    # the zero kernel's catalog problems project inside their bodies at
    # every node, so their stacked pass never loops; the riders' turn
    # active mid-mesh, where the loop takes over
    # (the finest mesh is held down where the oracle's loop projects onto
    # a polytope, 0.3 ms a node)
    rng = np.random.default_rng(19)
    cases = [(catalog.get(name).problem, catalog.get(name).reference, fine)
             for name, fine in (("ball_control_lq", 10 ** 4), ("polytope_endpoint", 2000))]
    cases = [(p if linear else replace(p, fmap=loop_drift(p.fmap)), ref, fine)
             for p, ref, fine in cases]
    cases += [(*_rider(n, body, linear), 400) for n in (1, 2)
              for body in ("ball", "polytope")]
    starts = _spy_starts(monkeypatch)
    for problem, ref, fine in cases:
        for k in KS + (fine,):
            mesh = _random_mesh(rng, k, problem.horizon)
            starts.clear()
            traj, _ = approximate_arc(problem, ref, mesh, tau_f=0.0)
            _assert_bits(traj, approximation_march(problem, ref, mesh))
            if problem.name != "rider":
                assert starts == [k]  # no node loops
            elif k >= 200:
                assert 0 < starts[0] < k  # the loop resumed mid-mesh


def _rotation_singleton():
    """x' = A x with a rotation A and the zero kernel, and its arc e^{At} x0."""
    A, x0 = 1.5 * np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 0.5])
    problem = ProblemData(
        name="rotation", fmap=Singleton.linear(A), kernel=VolterraKernel.zero(),
        x0=x0, horizon=2.0, omega=WholeSpace(), terminal_cost=TerminalCost.zero(),
        running_cost=RunningCost.zero(), m_F=5.0, l_F=1.5, beta=0.0, alpha=0.0,
        state_box=(-2.0 * np.ones(2), 2.0 * np.ones(2)))

    def rot(t):
        c, s = np.cos(1.5 * t), np.sin(1.5 * t)
        return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
    return problem, CallableArc(lambda t: rot(t) @ x0, lambda t: rot(t) @ (A @ x0))


def test_a_point_body_scans_the_approximation_march(monkeypatch):
    rng = np.random.default_rng(20)
    cases = [(catalog.get(name).problem, catalog.get(name).reference)
             for name in ("cos_t", "damped_volterra")] + [_rotation_singleton()]
    starts = _spy_starts(monkeypatch)
    for problem, ref in cases:
        for k in KS + (10 ** 4,):
            mesh = _random_mesh(rng, k, problem.horizon)
            traj, report = approximate_arc(problem, ref, mesh, tau_f=0.0)
            assert report._disc.scan is not None and not starts
            want = approximation_march(problem, ref, mesh)
            for field in ("states", "velocities", "w"):
                _assert_rel(getattr(traj, field), getattr(want, field))


@pytest.mark.parametrize("kernel", ("zero", "fading"))
def test_a_point_bodys_approximation_is_the_solvers_march_with_zero_controls(kernel):
    # approximate_arc on a Singleton and forward_trajectory with u = 0 run
    # one driver: the same scan for a drift built with ``linear``, the same
    # node loop for the drift as a plain callable, bit for bit
    rng = np.random.default_rng(31)
    A, x0 = np.array([[-1.5, 0.3], [0.0, -0.8]]), np.array([0.6, -0.2])
    for k in KS:
        mesh = _random_mesh(rng, k, 1.0)
        nodes = np.vstack([x0, rng.normal(size=(3, 2))])
        ref = PiecewiseLinearArc(TimeMesh.uniform(3, 1.0), nodes)
        for fmap in (Singleton.linear(A), loop_drift(Singleton.linear(A))):
            problem = ProblemData(
                name="point", fmap=fmap, kernel=KERNELS[kernel](), x0=x0, horizon=1.0,
                omega=WholeSpace(), terminal_cost=TerminalCost.zero(),
                running_cost=RunningCost.zero(), m_F=5.0, l_F=1.5, beta=1.0,
                alpha=1.0, state_box=(-3.0 * np.ones(2), 3.0 * np.ones(2)))
            traj, report = approximate_arc(problem, ref, mesh, feas_tol=np.inf, tau_f=0.0)
            dbp, _, _, _ = build_discrete_problem(problem, mesh, ref,
                                                  precomputed=(traj, report))
            assert _scans(dbp) == (fmap._linear is not None)
            _assert_bits(traj, forward_trajectory(dbp, np.zeros((k, 2))))


def test_the_solver_takes_the_approximations_scan_decision(monkeypatch):
    # build_discrete_problem hands the discretization on with the decision
    # made for the same map; a problem with another map decides again
    entry = catalog.get("damped_volterra")
    mesh = TimeMesh.uniform(40, entry.problem.horizon)
    decided = []
    inner = dynamics._scan_steps

    def counted(fmap, disc):
        decided.append(fmap)
        return inner(fmap, disc)
    monkeypatch.setattr(dynamics, "_scan_steps", counted)
    dbp, _, _, report = build_discrete_problem(entry.problem, mesh, entry.reference)
    assert decided == [entry.problem.fmap] and dbp._disc is report._disc
    slow = replace(dbp, base=replace(entry.problem, fmap=loop_drift(entry.problem.fmap)))
    assert len(decided) == 2 and not _scans(slow) and _scans(dbp)


# --- the adjoint sweep -----------------------------------------------------------

KINDS = np.array(["zero", "subspace", "ray", "polyhedral"])


def _mixed_cones(rng, k, n, jacobian, p=(0.35, 0.35, 0.15, 0.15)):
    """A cone stack of every kind, in runs: mostly ``zero`` and
    ``subspace`` rows, with ``ray`` and ``polyhedral`` rows between; ``p``
    are the shares of the four kinds."""
    kind = KINDS[rng.choice(4, size=k, p=p)]
    direction = rng.normal(size=(k, n))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    direction[kind != "ray"] = 0.0
    facets = rng.normal(size=(3, n))
    facets /= np.linalg.norm(facets, axis=1)[:, None]
    active = (rng.random((k, 3)) < 0.5) & (kind == "polyhedral")[:, None]
    active[:, 0] |= (kind == "polyhedral") & ~active.any(axis=1)
    return GraphNormalCone(kind=kind, jacobian=jacobian, direction=direction,
                           facets=facets, active=active)


def _looped(monkeypatch):
    monkeypatch.setattr(conditions, "_scan_sweep", lambda *args: None)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_the_sweep_scans_its_runs_and_steps_the_rest(kernel, monkeypatch):
    rng = np.random.default_rng(21)
    calls = []
    inner = GraphNormalCone.project_u
    monkeypatch.setattr(GraphNormalCone, "project_u",
                        lambda self, b, j: calls.append(j) or inner(self, b, j))
    for n, drifts in DRIFTS.items():
        for A in drifts[:2]:
            for k in KS:
                mesh = _random_mesh(rng, k, 1.0)
                dbp, _ = _linear_problem(A, KERNELS[kernel](), mesh, rng)
                u = dbp.base.fmap.project_body(rng.normal(size=(k, n)))
                traj = forward_trajectory(dbp, u)
                tensors, glx, glv, _ = _trajectory_terms(dbp, traj)
                per_row = np.array(A) + 0.1 * rng.normal(size=(k, n, n))
                for jac in (np.array(A, dtype=float), per_row):
                    terms = (tensors, glx, glv, _mixed_cones(rng, k, n, jac))
                    stepped = np.isin(terms[3].kind, ("ray", "polyhedral")).sum()
                    for lam in (1.0, 0.0):
                        nu = rng.normal(size=n)
                        calls.clear()
                        got = _adjoint_sweep(dbp, traj, terms, lam, nu)
                        assert len(calls) == stepped
                        with monkeypatch.context() as m:
                            _looped(m)
                            want = _adjoint_sweep(dbp, traj, terms, lam, nu)
                        assert len(calls) == stepped + k
                        assert got.lam == want.lam
                        _assert_rel(got.p, want.p)


def test_the_sweep_gates_the_matrices_it_composes():
    # A = 800 over [0, 2]: the march's steps I + h A grow past the gate and
    # loop, while a zero row drops h A^T, so a sweep of zero rows scans and
    # one of subspace rows loops
    rng = np.random.default_rng(22)
    k = 50
    dbp, _ = _linear_problem([[800.0]], VolterraKernel.zero(), TimeMesh.uniform(k, 2.0),
                             rng, x0=np.zeros(1))
    assert not _scans(dbp)
    traj = forward_trajectory(dbp, np.zeros((k, 1)))
    tensors, glx, glv, cones = _trajectory_terms(dbp, traj)
    h = dbp.mesh.steps
    pin = tensors.theta / h[:, None] + glv
    P, c = np.eye(1) + 2.0 * tensors.mu, -h[:, None] * glx
    for kind, scans in (("zero", True), ("subspace", False)):
        got = conditions._scan_sweep(tensors, replace(cones, kind=np.full(k, kind)),
                                     h, pin, P, c, np.ones(1), None)
        assert (got is not None) == scans


def test_recovery_makes_no_call_per_node(monkeypatch):
    # the approximation march and the multipliers' sweep are array passes
    # on every catalog problem: as many calls at k = 4000 as at k = 40
    import idikit.setvalued as setvalued
    counts = {}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(dynamics, "distance_and_projection")
    counted(setvalued.GraphNormalCone, "project_u")
    counted(setvalued.GraphNormalCone, "row_jacobian")
    for name in catalog.names():
        entry = catalog.get(name)
        seen = []
        for k in (40, 4000):
            mesh = TimeMesh.uniform(k, entry.problem.horizon)
            counts.clear()
            traj, report = approximate_arc(entry.problem, entry.reference, mesh)
            marched = counts.get("distance_and_projection", 0)
            dbp, _, _, _ = build_discrete_problem(entry.problem, mesh, entry.reference,
                                                  precomputed=(traj, report))
            counts.clear()
            recover_multipliers(dbp, traj)
            seen.append((marched, counts.get("project_u", 0), counts.get("row_jacobian", 0)))
        assert seen[0] == seen[1], name


def test_the_gradient_and_the_multipliers_share_one_backward_loop(monkeypatch):
    # a row-rule kernel scans neither backward sweep: both take the one
    # loop of dynamics, and its gradient is the central differences'
    from idikit import bolza
    from oracles import fd_gradient
    assert bolza._backward_loop is conditions._backward_loop is dynamics._backward_loop
    calls, inner = [], dynamics._backward_loop
    for module in (bolza, conditions):
        monkeypatch.setattr(module, "_backward_loop",
                            lambda *args: calls.append(len(args[2])) or inner(*args))
    # the reference's kinks are nodes, where the cost's quadrature of the
    # tracking term is exact
    rng, k = np.random.default_rng(24), 12
    row_rule = VolterraKernel.convolution(lambda u: 0.7 * np.exp(-2.5 * u), 0.7, 0.7)
    dbp, _ = _linear_problem(DRIFTS[2][0], row_rule, TimeMesh.uniform(k, 1.0), rng)
    controls = dbp.base.fmap.project_body(0.3 * rng.normal(size=(k, 2)))
    for rho in (0.0, 10.0):
        calls.clear()
        grad, traj = cost_gradient(dbp, controls, rho)
        assert calls == [k]
        fd = fd_gradient(dbp, controls, rho)
        assert np.abs(grad - fd).max() < 1e-5 * np.abs(fd).max()
    calls.clear()
    _, route = recover_multipliers(dbp, traj)
    assert calls == [k] * (1 if route == "normal" else 2)


def test_a_normal_mesh_takes_one_euler_lagrange_pass(tmp_path, monkeypatch):
    # the sweep computes the residuals once; the route choice and the
    # report read them
    import json
    from idikit.cli import main
    calls, inner = [], conditions._el_residuals
    monkeypatch.setattr(conditions, "_el_residuals",
                        lambda *args: calls.append(1) or inner(*args))
    ini = tmp_path / "one.ini"
    ini.write_text(f"[problem]\nname = ball_control_lq\n[meshes]\nk = 8\n"
                   f"[run]\noutput_dir = {tmp_path}\nlabel = one\n", encoding="utf-8")
    assert main(["converge", str(ini)]) == 0
    record = json.loads((tmp_path / "one_converge.json").read_text(encoding="utf-8"))
    assert [s["route"] for s in record["solves"]] == ["normal"]
    assert len(calls) == 1


# --- values that are not finite on the stacked paths ----------------------------------

def _nan_at_late_nodes(nodes):
    """A drift that is nan at the nodes past t = 0.5 and zero at every
    other time: the reference's defect, sampled between the nodes, stays
    finite, and the march meets the nan."""
    late = {float(t) for t in nodes if t > 0.5}
    return lambda t, x: np.full(np.size(x), np.nan if float(t) in late else 0.0)


def test_a_nan_in_the_stacked_march_names_the_loops_node():
    mesh = TimeMesh.uniform(8, 1.0)  # t_5 = 0.625 is the first node past 0.5
    ref = per_row_arc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    problem = ProblemData(
        name="nan_drift", fmap=BallOffset(_nan_at_late_nodes(mesh.nodes), 1.0),
        kernel=VolterraKernel.zero(), x0=[0.0], horizon=1.0, omega=WholeSpace(),
        terminal_cost=TerminalCost.zero(), running_cost=RunningCost.zero(),
        m_F=1.0, l_F=0.0, beta=0.0, alpha=0.0, state_box=([-1.0], [1.0]))
    for run in (approximate_arc, approximation_march):
        with pytest.raises(NonFiniteStateError) as info:
            run(problem, ref, mesh)
        err = info.value
        assert (err.stage, err.k, err.node, err.t) == ("approximate_arc", 8, 5, 0.625)


def test_a_nan_in_the_scanned_march_names_the_loops_node():
    entry = catalog.get("damped_volterra")
    problem = replace(entry.problem, x0=[np.nan])
    mesh = TimeMesh.uniform(8, problem.horizon)
    for run in (approximate_arc, approximation_march):
        with pytest.raises(NonFiniteStateError) as info:
            run(problem, entry.reference, mesh)
        err = info.value
        assert (err.stage, err.k, err.node, err.t) == ("approximate_arc", 8, 0, 0.0)


@pytest.mark.parametrize("name, node", (("ball_control_lq", 7), ("damped_volterra", 7)))
def test_a_nan_in_the_scanned_sweep_names_the_loops_node(name, node, monkeypatch):
    # grad_x l is nan past t = 0.5: the sweep, from j = k-1 down, meets it
    # at its first step
    entry = catalog.get(name)
    late_nan = RunningCost(
        lambda t, x, v: np.zeros(np.shape(t)),
        lambda t, x, v: np.where(t[:, None] > 0.5, np.nan, 0.0) * np.ones(np.shape(x)),
        lambda t, x, v: np.zeros(np.shape(x)))
    problem = replace(entry.problem, running_cost=late_nan)
    mesh = TimeMesh.uniform(8, problem.horizon)
    dbp, _, traj, _ = build_discrete_problem(problem, mesh, entry.reference)
    for looped in (False, True):
        with monkeypatch.context() as m:
            if looped:
                _looped(m)
            with pytest.raises(NonFiniteStateError) as info:
                adjoint_solve_smooth(dbp, traj)
        err = info.value
        assert (err.stage, err.k, err.node) == ("adjoint_solve_smooth", 8, node)
        assert err.t == mesh.nodes[node]
