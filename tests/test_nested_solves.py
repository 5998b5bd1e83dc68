"""Nested mesh solves: each ``converge`` mesh after the first may start from
the previous mesh's solved controls, and the solver projects its
stationarity step and first trial in one call."""

import json
from dataclasses import replace

import numpy as np
import pytest

from idikit import bolza, catalog, cli
from idikit.bolza import (SolveOptions, build_discrete_problem, cost_Jk,
                          forward_trajectory, solve_Pk)
from idikit.cli import _prolong, _solve_start, _verify_mesh, main
from idikit.config import load_config
from idikit.dynamics import approximate_arc
from idikit.mesh import TimeMesh
from oracles import solve_two_projections
from test_cli import MEMORY_CONTROL

CONTROL_PROBLEMS = ("polytope_endpoint", "ball_control_lq")

CATALOG = """
[problem]
name = {name}

[meshes]
k = {ks}

[solver]
tol_stat = 1e-7
max_iter = 20000

[run]
seed = 1
output_dir = {out}
label = {label}
"""


def _config(tmp_path, name, ks="40, 80, 160", label="n"):
    path = tmp_path / f"{label}.ini"
    path.write_text(CATALOG.format(name=name, ks=ks, out=tmp_path / "out",
                                   label=label), encoding="utf-8")
    return load_config(str(path))


def _cold_and_warm(cfg):
    """Per mesh: the solve from the approximation's controls, and the one
    the sweep makes, from the previous mesh's solved controls."""
    reference, feas_tol = cli._reference_for(cfg)
    coarse, out = None, []
    for k in cfg.mesh_ks:
        cold = _verify_mesh(cfg, reference, feas_tol, k, solve=True)
        warm = _verify_mesh(cfg, reference, feas_tol, k, solve=True, coarse=coarse)
        coarse = (warm[1].mesh, warm[7])
        out.append((cold, warm))
    return out


@pytest.mark.parametrize("name", CONTROL_PROBLEMS)
def test_warm_solves_are_the_cold_optima_in_no_more_iterations(tmp_path, name):
    runs = _cold_and_warm(_config(tmp_path, name))
    for i, (cold, warm) in enumerate(runs):
        dbp, cold_log, warm_log = warm[1], cold[3], warm[3]
        assert warm[6] == ("approximation" if i == 0 else "coarse")
        assert cold_log.stationary and warm_log.stationary
        assert warm_log.iterations <= cold_log.iterations
        j_cold = cost_Jk(dbp, cold[2])
        j_warm = cost_Jk(dbp, warm[2])
        assert abs(j_warm - j_cold) <= 1e-12 * abs(j_cold)


def _midpoint_cells(coarse, mesh):
    """The coarse cell of each fine midpoint, one midpoint at a time."""
    cells = []
    for a, b in zip(mesh.nodes[:-1], mesh.nodes[1:]):
        mid = 0.5 * (a + b)
        cells.append(max(i for i in range(coarse.k) if coarse.nodes[i] <= mid))
    return cells


def test_prolongation_samples_the_coarse_cell_of_each_midpoint():
    rng = np.random.default_rng(5)
    sizes = (3, 4, 8, 3)  # not nested, nested, then coarser again
    meshes = [TimeMesh.uniform(k, 2.0) for k in sizes]
    for coarse, mesh in zip(meshes, meshes[1:]):
        u = rng.normal(size=(coarse.k, 2))
        got = _prolong(coarse, u, mesh)
        assert got.shape == (mesh.k, 2)
        assert np.array_equal(got, u[_midpoint_cells(coarse, mesh)])
    assert _midpoint_cells(meshes[0], meshes[1]) == [0, 1, 1, 2]
    for k in (1, 3, 40, 80):  # nested uniform meshes: each cell repeated
        u = rng.normal(size=(k, 3))
        for factor in (2, 4):
            fine = TimeMesh.uniform(factor * k, 1.5)
            assert np.array_equal(_prolong(TimeMesh.uniform(k, 1.5), u, fine),
                                  np.repeat(u, factor, axis=0))


@pytest.mark.parametrize("name, epsilon", (("polytope_endpoint", 0.2),
                                           ("ball_control_lq", 0.6)))
def test_a_coarse_start_outside_the_trust_region_is_not_taken(name, epsilon):
    # the coarse optimum's prolongation has the lower objective on k = 80,
    # but its trajectory leaves the nodal tube of a smaller epsilon
    entry = catalog.get(name)
    coarse, mesh = TimeMesh.uniform(40, entry.problem.horizon), \
        TimeMesh.uniform(80, entry.problem.horizon)
    d40, c40, _, _ = build_discrete_problem(entry.problem, coarse, entry.reference)
    _, u40, _ = solve_Pk(d40, c40, SolveOptions(max_iter=20000))
    for eps, want in ((entry.problem.epsilon, "coarse"), (epsilon, "approximation")):
        problem = replace(entry.problem, epsilon=eps)
        dbp, c80, traj, _ = build_discrete_problem(problem, mesh, entry.reference)
        warm = problem.fmap.project_body(_prolong(coarse, u40, mesh))
        start, chosen, marched = _solve_start(dbp, c80, traj, warm)
        assert chosen == want
        assert start is (warm if want == "coarse" else c80)
        if want == "coarse":  # the march that tested it comes with it
            again = forward_trajectory(dbp, warm)
            assert marched.states.tobytes() == again.states.tobytes()
        else:
            assert marched is None


def test_a_rejected_coarse_start_leaves_the_run_as_from_the_approximation(
        tmp_path, monkeypatch):
    # controls on the ball's boundary, all in one direction: their
    # derivative budget exceeds eps/2, so each mesh solves as without them
    cfg = _config(tmp_path, "ball_control_lq")
    runs = _cold_and_warm(cfg)
    far = cfg.entry.problem.fmap.project_body
    monkeypatch.setattr(cli, "_prolong", lambda coarse, u, mesh:
                        far(np.full((mesh.k, u.shape[1]), 1e3)))
    rows, meta = cli.run_convergence_study(cfg)
    assert [m["start"] for m in meta] == ["approximation"] * 3
    for row, m, (cold, _) in zip(rows, meta, runs):
        assert m["iterations"] == cold[3].iterations
        assert row[6] == cost_Jk(cold[1], cold[2])
        assert row[7] == cold[4].el_max


def test_a_point_body_starts_from_the_approximation_without_a_march(
        tmp_path, monkeypatch):
    marches = []
    monkeypatch.setattr(cli, "forward_trajectory",
                        lambda *args: marches.append(args))
    rows, meta = cli.run_convergence_study(
        _config(tmp_path, "damped_volterra", ks="8, 16, 32"))
    assert marches == []
    assert [m["start"] for m in meta] == ["approximation"] * 3


def _counted_marches(monkeypatch):
    """The (k, control bytes) of every march the solver layer makes."""
    marches, inner = [], bolza._controlled_march

    def march(base, disc, controls, stage):
        marches.append((controls.shape[0], controls.tobytes()))
        return inner(base, disc, controls, stage)

    monkeypatch.setattr(bolza, "_controlled_march", march)
    return marches


@pytest.mark.parametrize("name", CONTROL_PROBLEMS)
def test_a_sweep_marches_no_controls_twice(tmp_path, monkeypatch, name):
    # the solve of a coarse start takes the trajectory its test marched
    marches = _counted_marches(monkeypatch)
    rows, meta = cli.run_convergence_study(_config(tmp_path, name))
    assert [m["start"] for m in meta] == ["approximation", "coarse", "coarse"]
    assert len(set(marches)) == len(marches) > 0


@pytest.mark.parametrize("name", CONTROL_PROBLEMS)
def test_a_start_trajectory_is_taken_only_where_the_projection_keeps_the_start(
        monkeypatch, name):
    # the approximation's controls lie on the body bit for bit: with their
    # trajectory the solve is the same and marches them once fewer; rows
    # pushed off the body are projected, and a trajectory given with them
    # (here the unpushed one's) is not used
    entry = catalog.get(name)
    dbp, c0, _, _ = build_discrete_problem(
        entry.problem, TimeMesh.uniform(40, entry.problem.horizon), entry.reference)
    assert entry.problem.fmap.project_body(c0).tobytes() == c0.tobytes()
    traj = forward_trajectory(dbp, c0)
    opts = SolveOptions(max_iter=20000)
    marches = _counted_marches(monkeypatch)
    for init, given in ((c0, traj), (3.0 * c0 + 1.0, traj)):
        runs = []
        for start in (None, given):
            del marches[:]
            runs.append((solve_Pk(dbp, init, opts, traj=start), len(marches)))
        (plain, n_plain), (fed, n_fed) = runs
        assert n_fed == n_plain - (init is c0)
        assert fed[0].states.tobytes() == plain[0].states.tobytes()
        assert fed[1].tobytes() == plain[1].tobytes()
        assert fed[2].costs == plain[2].costs
        assert fed[2].iterations == plain[2].iterations


@pytest.mark.parametrize("name", ("polytope_endpoint", "ball_control_lq",
                                  "damped_volterra", "memory_control"))
def test_solve_is_the_two_projection_loop_bit_for_bit(tmp_path, name):
    # memory_control: memory, a ball body and a ball endpoint set, whose
    # solve stalls; the others from the catalog
    if name == "memory_control":
        path = tmp_path / "mc.ini"
        path.write_text(MEMORY_CONTROL.format(out=tmp_path / "out"), encoding="utf-8")
        cfg, k = load_config(str(path)), 16
    else:
        cfg, k = _config(tmp_path, name), 40
    problem, (reference, feas_tol) = cfg.entry.problem, cli._reference_for(cfg)
    mesh = TimeMesh.uniform(k, problem.horizon)
    dbp, c0, _, _ = build_discrete_problem(problem, mesh, reference, precomputed=
                                           approximate_arc(problem, reference, mesh,
                                                           feas_tol=feas_tol))
    opts = SolveOptions(max_iter=20000)
    traj, controls, log = solve_Pk(dbp, c0, opts)
    ref_traj, ref_controls, ref_log = solve_two_projections(dbp, c0, opts)
    assert log.iterations == ref_log.iterations
    assert np.array(log.costs).tobytes() == np.array(ref_log.costs).tobytes()
    assert np.array(log.grad_norms).tobytes() == np.array(ref_log.grad_norms).tobytes()
    assert controls.tobytes() == ref_controls.tobytes()
    assert traj.states.tobytes() == ref_traj.states.tobytes()
    for field in ("stationary", "rho_final", "endpoint_violation", "message",
                  "tube_active", "budget_active", "descent_ok"):
        assert getattr(log, field) == getattr(ref_log, field), field
    assert log.endpoint_normal.tobytes() == ref_log.endpoint_normal.tobytes()


@pytest.mark.parametrize("name", CONTROL_PROBLEMS)
def test_finer_meshes_take_fewer_iterations_than_the_first(tmp_path, name):
    # a counter, not a clock: the record's iterations per mesh
    cfg = tmp_path / "c.ini"
    cfg.write_text(CATALOG.format(name=name, ks="40, 80, 160",
                                  out=tmp_path / "out", label="c"), encoding="utf-8")
    assert main(["converge", str(cfg)]) == 0
    solves = json.loads((tmp_path / "out" / "c_converge.json").read_text())["solves"]
    assert [s["start"] for s in solves] == ["approximation", "coarse", "coarse"]
    first = solves[0]["iterations"]
    assert solves[1]["iterations"] < first and solves[2]["iterations"] < first
