"""Experiment runner: mesh sweeps, bound audits, condition reports.

Subcommands (each takes a single config-file path, see the README for the
grammar):

    converge   <config>   mesh sweep: approximate, solve, verify; CSV table
    audit      <config>   a-priori bound + Gronwall property audits
    simulate   <config>   time stepping under each selection policy
    conditions <config>   multiplier recovery and residual report per mesh

Exit codes: 0 success, 1 audit/condition failure, 2 config error, 3 a state
that became non-finite (the message names the stage and node), 4 an
endpoint outside the endpoint set its condition is checked on, 5 a problem
the run cannot check: a reference or a velocity outside its value set, or
a velocity body without the normal cones a check needs (asked for before
the solve).  Output is one CSV (schema tagged in a leading comment line)
plus one JSON run record per invocation; identical config + seed reproduce
the CSV byte for byte.  ``converge`` and ``conditions`` recover the
multipliers normal-first with :func:`~idikit.conditions.recover_multipliers`
and record its route per k: ``route`` in each ``solves`` entry, ``routes``
in the conditions record.  Exits 3, 4 and 5 write the record too, with no
rows, the exit code and the printed line (and on 3 the stage, k, node and
t), and delete an earlier run's CSV.

``converge`` solves the first mesh from the approximation's controls; each
later mesh starts from the previous mesh's solved controls, prolonged by
midpoint sampling and projected onto the body, where they lie in the
solver's trust region and their penalized objective is no higher than the
approximation start's (``start`` in each ``solves`` entry, ``"coarse"`` or
``"approximation"``).  The solver columns may then differ from a solve
started from the approximation within the solver's tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .bolza import (RHO0, SolveOptions, _objective, build_discrete_problem,
                    cost_Jk, forward_trajectory, solve_Pk)
from .conditions import build_condition_report, recover_multipliers
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import (InfeasibleReferenceError, NonFiniteStateError,
                       approximate_arc, simulate)
from .gronwall import (apriori_bounds, backward_extremal, continuous_extremal,
                       continuous_gronwall, discrete_gronwall_backward,
                       discrete_gronwall_forward, forward_extremal)
from .mesh import TimeMesh, _short_norm
from .problem import EndpointError
from .setvalued import (InfeasiblePointError, SetValuedError, _centers,
                        _jacobians, _norm)

CSV_SCHEMA = "# idi-kit schema v1"

CONVERGE_COLUMNS = ("k", "h", "sup_err", "w12_err", "zeta_k", "beta_k", "J_k",
                    "EL_residual_max", "volterra_residual_median",
                    "transversality_residual", "nontriviality", "flags")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) or isinstance(x, np.floating):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: Path, columns, rows):
    lines = [CSV_SCHEMA, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_record(path: Path, command, cfg: ExperimentConfig, rows, columns,
                  extra, wall):
    record = {
        "schema": "idi-kit run v1",
        "version": __version__,
        "command": command,
        "config": cfg.snapshot,
        "seed": cfg.seed,
        "columns": list(columns),
        "rows": [[(float(v) if isinstance(v, (np.floating, float)) else
                   int(v) if isinstance(v, (np.integer, int)) else str(v))
                  for v in row] for row in rows],
        "wall_clock_s": wall,
    }
    record.update(extra)
    # one line per top-level key, each value by the C encoder (an indent
    # would force the pure-Python one)
    try:
        lines = _record_lines(record)
    except ValueError:  # JSON has no NaN or inf: write null and name the field
        found = []
        record = _finite_or_null(record, "", found)
        record["non_finite_fields"] = found
        lines = _record_lines(record)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def _record_lines(record: dict) -> list:
    return [f"{json.dumps(key)}: {json.dumps(record[key], sort_keys=True, allow_nan=False)}"
            for key in sorted(record)]


def _finite_or_null(value, path: str, found: list):
    """``value`` with each float that is not finite replaced by None, its
    path (``solves[0].costs[1]``) appended to ``found`` in key order."""
    if isinstance(value, dict):
        return {key: _finite_or_null(value[key], f"{path}.{key}" if path else str(key), found)
                for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v, f"{path}[{i}]", found) for i, v in enumerate(value)]
    if isinstance(value, float) and not np.isfinite(value):
        found.append(path)
        return None
    return value


def _reference_for(cfg: ExperimentConfig):
    """Closed-form catalog reference, or a fine simulated fallback, and its
    residual tolerance: ``[reference] feas_tol``, else 1e-6 for a closed form
    and inf for a simulation, a trajectory of the inclusion by construction."""
    entry, feas_tol = cfg.entry, cfg.reference_feas_tol
    if entry.reference is not None:
        return entry.reference, 1e-6 if feas_tol is None else feas_tol
    k_fine = cfg.reference_k or 8 * cfg.mesh_ks[-1]
    fine_mesh = TimeMesh.uniform(k_fine, entry.problem.horizon)
    arc = _simulate(cfg, fine_mesh, cfg.reference_policy).arc()
    return arc, np.inf if feas_tol is None else feas_tol


def _simulate(cfg: ExperimentConfig, mesh: TimeMesh, policy: str):
    """The config's problem stepped on ``mesh`` under one selection policy;
    ``constant`` deviates by the config's reference constant (zero if unset)."""
    return simulate(cfg.entry.problem, mesh, policy, seed=cfg.seed,
                    constant_deviation=cfg.reference_constant)


def _prolong(coarse: TimeMesh, controls: np.ndarray, mesh: TimeMesh) -> np.ndarray:
    """Controls on ``mesh`` from ``controls`` on ``coarse``: each cell takes
    the control of the coarse cell that holds its midpoint (one on a coarse
    node, the later cell's), so on nested uniform meshes ``np.repeat``."""
    return controls[coarse.cell_index(0.5 * (mesh.nodes[:-1] + mesh.nodes[1:]))]


def _solve_start(dbp, controls: np.ndarray, traj, warm: np.ndarray):
    """(controls, start, march) the solve begins from: ``warm``, a coarser
    mesh's solved controls prolonged onto the body (``"coarse"``), and its
    march, where that lies in the solver's trust region (nodal distance and
    derivative budget at most eps/2) and its penalized objective at the
    first penalty weight is no higher than that of the approximation's
    ``controls`` with their trajectory ``traj``; else ``controls``
    (``"approximation"``) and None.  Controls equal to ``controls`` bit for
    bit, a point body's zeros, are not evaluated."""
    if warm.tobytes() != controls.tobytes():
        half = dbp.epsilon / 2.0
        marched = forward_trajectory(dbp, warm)
        obj, _, nodal, budget = _objective(dbp, marched, RHO0)
        if nodal <= half and budget <= half and obj <= _objective(dbp, traj, RHO0)[0]:
            return warm, "coarse", marched
    return controls, "approximation", None


def _verify_mesh(cfg: ExperimentConfig, reference, feas_tol: float, k: int,
                 solve: bool, coarse=None):
    """Approximate, build, solve if ``solve``, recover the multipliers
    normal-first (:func:`~idikit.conditions.recover_multipliers`) and report
    the conditions on the uniform mesh of k cells; the recovery's route
    comes back with the reports, and so do the solve's start and final
    controls.  The solve starts from the approximation's controls, or from
    ``coarse`` = (mesh, solved controls) prolonged where
    :func:`_solve_start` takes them."""
    problem = cfg.entry.problem
    mesh = TimeMesh.uniform(k, problem.horizon)
    traj, report = approximate_arc(problem, reference, mesh, feas_tol=feas_tol)
    dbp, controls, _, _ = build_discrete_problem(problem, mesh, reference,
                                                 precomputed=(traj, report))
    # a body without the normal cones the checks need (a flat polytope)
    # raises here, not after a solve that cannot be checked
    problem.fmap.body_normal_cone(np.empty((0, problem.dim)))
    log, normal, start, marched = None, None, "approximation", None
    if solve:
        if coarse is not None:
            warm = problem.fmap.project_body(_prolong(*coarse, mesh))
            controls, start, marched = _solve_start(dbp, controls, traj, warm)
        opts = SolveOptions(tol_stat=cfg.tol_stat, max_iter=cfg.max_iter,
                            endpoint_tol=cfg.endpoint_tol)
        traj, controls, log = solve_Pk(dbp, controls, opts, traj=marched)
        normal = log.endpoint_normal
    mult, route = recover_multipliers(dbp, traj, endpoint_normal=normal)
    # continuous residuals run along the designated reference arc: the
    # memory-adjoint condition is stated for the minimizer candidate, and
    # the reference is exactly feasible where discrete extensions carry an
    # O(h) defect that would trip the cone feasibility gate
    crep = build_condition_report(dbp, traj, mult, x_arc=reference)
    return report, dbp, traj, log, crep, route, start, controls


def run_convergence_study(cfg: ExperimentConfig):
    """Approximate, solve and verify on every mesh; one CSV row per k.
    Each mesh after the first may start its solve from the previous mesh's
    solved controls (:func:`_verify_mesh`)."""
    reference, feas_tol = _reference_for(cfg)
    rows = []
    meta = []
    coarse = None
    for k in cfg.mesh_ks:
        report, dbp, traj, log, crep, route, start, controls = _verify_mesh(
            cfg, reference, feas_tol, k, solve=True, coarse=coarse)
        coarse = (dbp.mesh, controls)
        flags = "" if log.stationary else "nonstationary"
        rows.append((k, dbp.mesh.max_step, report.sup_error, report.w12_error,
                     report.zeta_k, report.beta_k, cost_Jk(dbp, traj),
                     crep.el_max, crep.volterra_median, crep.transversality,
                     crep.nontriviality, flags))
        meta.append({"k": k, "iterations": log.iterations,
                     "stationary": log.stationary, "message": log.message,
                     "route": route, "start": start,
                     "endpoint_violation": float(log.endpoint_violation),
                     "tube_active": log.tube_active,
                     "budget_active": log.budget_active,
                     "adjoint_bound_ok": crep.adjoint_bound_ok,
                     "approximation": {
                         "xi_k": report.xi_k, "zeta_k": report.zeta_k,
                         "beta_k": report.beta_k, "nu_k": report.nu_k,
                         "tau_f": report.tau_f,
                         "nodal_sup_error": report.nodal_sup_error,
                         "sup_error": report.sup_error,
                         "deriv_l2_error": report.deriv_l2_error,
                         "reference_defect": report.reference_defect},
                     "conditions": {
                         "el_max": crep.el_max,
                         "el_residuals": crep.el_residuals.tolist(),
                         "volterra_median": crep.volterra_median,
                         "transversality": crep.transversality,
                         "nontriviality": crep.nontriviality,
                         "adjoint_bound": crep.adjoint_bound,
                         "p0_interior_gap": crep.p0_interior_gap}})
    return rows, meta


def _draw_suite(rng, n, fewest, front):
    """(first, rows, lengths) of ``n`` discrete Gronwall instances: each
    m = ``rng.integers(fewest, 10)`` and 1 + 3m standard exponentials, the
    anchor (first, last where ``front``) and three rows of m halved, padded
    to (3, n, width) at the front where ``front`` and at the end else.  An
    array fills value after value: the stream of drawing each on its own."""
    lengths, blocks = np.empty(n, dtype=np.intp), []
    for i in range(n):  # the length decides how many values follow it
        lengths[i] = m = rng.integers(fewest, 10)
        blocks.append(rng.standard_exponential(1 + 3 * m))
    z = np.concatenate(blocks)
    anchor = np.cumsum(1 + 3 * lengths) - (1 if front else 1 + 3 * lengths)
    width = lengths.max()
    covered = (np.arange(width) < lengths[:, None])[:, ::-1 if front else 1]
    rows = np.zeros((3, n, width))  # filled through its (n, 3, width) view: block order
    rows.transpose(1, 0, 2)[np.broadcast_to(covered[:, None], (n, 3, width))] = \
        0.5 * np.delete(z, anchor)
    return z[anchor], rows, lengths


def _draw_continuous(rng, n):
    """(rho0, 0.4 (a, b1, b2) as (3, n), None) from one (n, 4) block."""
    z = rng.standard_exponential(4 * n).reshape(n, 4)
    return z[:, 0], 0.4 * z[:, 1:].T, None


def _instance(first, rows, lengths, i, front):
    """Instance ``i`` of a suite's stacks in Python floats, its discrete rows
    cut to their covered columns (the replay of a violation)."""
    values = rows[:, i]
    if lengths is not None:
        values = values[:, -lengths[i]:] if front else values[:, :lengths[i]]
    return [float(first[i]), *values.tolist()]


def _violations(first, rows, lengths, bound, oracle, cols, rtol, grid, front):
    """Which instances the bound fails, from one bound and one oracle call
    on a suite's stacks; ``cols`` picks the oracle columns the bound covers.
    Without ``lengths`` the rows are constants on the ``grid``.  Otherwise
    the columns as far from the padded side as the row is short are
    covered, and in those row i of both calls is bit for bit the call on
    instance i alone.  Only covered columns count.  A non-finite oracle or
    bound entry is a violation: no comparison with NaN holds."""
    if lengths is None:
        rows = [np.broadcast_to(r[:, None], (r.size, grid.size)) for r in rows]
        actual = oracle(first, *rows, grid)[:, cols]
        limit = bound(first, *rows, grid)
        pad = 0
    else:
        actual = oracle(first, *rows)[:, cols]
        limit = bound(first, *rows)
        pad = (rows.shape[-1] - lengths)[:, None]
    at = np.arange(actual.shape[1])
    covered = at >= pad if front else at < actual.shape[1] - pad
    return np.any(covered & ((actual > limit * (1 + rtol) + 1e-300)
                             | ~np.isfinite(actual) | ~np.isfinite(limit)), axis=1)


def run_bound_audit(cfg: ExperimentConfig):
    """Trajectory-bound and Gronwall-domination audits; pass/fail rows."""
    problem = cfg.entry.problem
    rng = np.random.default_rng(cfg.seed)
    rows = []
    failures = []

    # declared standing constants vs suprema sampled at 256 points (t, s, x)
    # of {0 <= s <= t <= T} x state box, as rng.uniform would draw them one
    # point at a time; each keeps the first time its supremum was hit
    fmap, kernel = problem.fmap, problem.kernel
    lo, hi = problem.state_box
    u = rng.random((256, 2 + problem.dim))
    t = problem.horizon * u[:, 0]
    s = t * u[:, 1]
    X = lo + (hi - lo) * u[:, 2:]
    sampled = np.stack(np.broadcast_arrays(
        _norm(_centers(fmap, t, X)) + fmap.body_radius(),
        np.linalg.norm(_jacobians(fmap, t, X), 2, axis=(-2, -1)),  # one, if linear
        _norm(kernel.eval_batch_s(t, s, X)) / (1.0 + _norm(X)),
        np.linalg.norm(kernel.jac_batch_s(t, s, X), 2, axis=(-2, -1))))
    worst = sampled.max(axis=1)
    witness = np.where(worst > 0, t[sampled.argmax(axis=1)], 0.0)
    for label, value, bound, when in zip(
            ("constant_m_F", "constant_l_F", "constant_beta", "constant_alpha"),
            worst.tolist(), (problem.m_F, problem.l_F, problem.beta, problem.alpha),
            witness.tolist()):
        ok = value <= bound + 1e-9
        rows.append((label, "sampled", "pass" if ok else "FAIL", value, bound,
                     when))
        if not ok:
            failures.append({"check": label, "value": value, "bound": bound,
                             "seed": cfg.seed})

    m1, m2 = apriori_bounds(problem)
    mesh = TimeMesh.uniform(cfg.audit_mesh_k, problem.horizon)
    grid = mesh.dense_samples()
    for policy in cfg.audit_policies:
        traj = _simulate(cfg, mesh, policy)
        sizes = 1.0 + _norm(traj.arc().eval(grid))
        speeds = _short_norm(traj.velocities, 1)
        # the first time the sup is hit, and the start of the first fastest cell
        first, fastest = int(np.argmax(sizes)), int(np.argmax(speeds))
        for label, check, value, bound, witness_t in (
                ("trajectory_bound_M1", "M1", float(sizes[first]), m1,
                 float(grid[first])),
                ("velocity_bound_M2", "M2", float(speeds[fastest]), m2,
                 float(mesh.nodes[fastest]))):
            ok = value <= bound + 1e-9
            rows.append((label, policy, "pass" if ok else "FAIL", value, bound,
                         witness_t))
            if not ok:
                failures.append({"check": check, "policy": policy,
                                 "witness_time": witness_t,
                                 "value": value, "bound": bound})

    # M1 spot identity at m_F = 1, beta = 0, T = 1, x0 = 0: M1 = 2e
    s1, _ = apriori_bounds(SimpleNamespace(m_F=1.0, beta=0.0, horizon=1.0,
                                           x0=np.zeros(1)))
    spot = 2.0 * np.exp(1.0)
    ok = abs(s1 - spot) < 1e-12
    rows.append(("apriori_spot_2e", "-", "pass" if ok else "FAIL", s1, spot, 0.0))
    if not ok:
        failures.append({"check": "apriori_spot", "value": s1, "bound": spot})

    n = cfg.audit_instances
    grid = np.linspace(0.0, 1.0, 65)
    # each suite: name, replay fields, draw (from the one rng in turn), bound
    # and oracle (named at call time), oracle columns, relative slack, grid
    # and whether its rows are padded at the front (terminal-anchored)
    suite_specs = (
        ("forward", ("e0", "sigma", "rho", "gamma"), lambda r, n: _draw_suite(r, n, 1, False),
         discrete_gronwall_forward, forward_extremal, slice(None), 1e-12, None, False),
        ("backward", ("x_k", "c", "b", "a"), lambda r, n: _draw_suite(r, n, 2, True),
         discrete_gronwall_backward, backward_extremal, slice(1, -2), 1e-12, None, True),
        ("continuous", ("rho0", "a", "b1", "b2"), _draw_continuous,
         continuous_gronwall, continuous_extremal, slice(None), 1e-9, grid, False),
    )
    suites = {}
    for name, fields, draw, bound, oracle, cols, rtol, on_grid, front in suite_specs:
        label = f"gronwall_{name}"
        started = time.perf_counter()
        first, stacked, lengths = draw(rng, n)
        bad = _violations(first, stacked, lengths, bound, oracle, cols, rtol,
                          on_grid, front)
        count = int(bad.sum())
        suites[label] = {"instances": n, "violations": count,
                         "wall_s": time.perf_counter() - started}
        rows.append((label, f"{n} instances", "pass" if count == 0 else "FAIL",
                     count, 0, 0.0))
        if count:  # replay the suite's last violating instance
            last = _instance(first, stacked, lengths, np.flatnonzero(bad)[-1], front)
            replay = {"suite": name, **dict(zip(fields, last))}
            failures.append({"check": label, "violations": count,
                             "replay": replay, "seed": cfg.seed})
    return rows, failures, suites


def run_simulate(cfg: ExperimentConfig):
    problem = cfg.entry.problem
    mesh = TimeMesh.uniform(cfg.mesh_ks[-1], problem.horizon)
    rows = []
    for policy in cfg.audit_policies:
        traj = _simulate(cfg, mesh, policy)
        for j in range(mesh.k):
            rows.append((policy, j, mesh.nodes[j],
                         *traj.states[j], *traj.velocities[j], *traj.w[j]))
        # velocities and memory averages are per-cell; final node has none
        rows.append((policy, mesh.k, mesh.nodes[-1], *traj.states[-1],
                     *([""] * (2 * problem.dim))))
    n = problem.dim
    columns = (["policy", "j", "t"] + [f"x{i}" for i in range(n)]
               + [f"v{i}" for i in range(n)] + [f"w{i}" for i in range(n)])
    return rows, columns


def run_conditions(cfg: ExperimentConfig):
    reference, feas_tol = _reference_for(cfg)
    rows = []
    medians = []
    routes = []
    bounds_ok = True
    for k in cfg.mesh_ks:
        _, dbp, _, _, crep, route, _, _ = _verify_mesh(cfg, reference, feas_tol,
                                                       k, solve=False)
        routes.append(route)
        rows.append((k, dbp.mesh.max_step, crep.el_max, crep.volterra_median,
                     crep.transversality, crep.nontriviality,
                     crep.adjoint_bound, "ok" if crep.adjoint_bound_ok else "FAIL"))
        medians.append(crep.volterra_median)
        bounds_ok = bounds_ok and crep.adjoint_bound_ok
    decreasing = all(b <= a * (1 + 1e-9) + 1e-12
                     for a, b in zip(medians, medians[1:]))
    return rows, bounds_ok, decreasing, routes


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="idikit", description="Volterra inclusion discretization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("converge", "audit", "simulate", "conditions"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the INI experiment config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        return _run(args.command, cfg)
    except NonFiniteStateError as exc:
        code, line = 3, f"numerical failure: {exc}"
        extra = {"failure": {"stage": exc.stage, "k": int(exc.k),
                             "node": int(exc.node), "t": float(exc.t)}}
    except EndpointError as exc:
        code, line, extra = 4, f"endpoint error: {exc}", {}
    except (InfeasibleReferenceError, InfeasiblePointError,
            SetValuedError) as exc:
        code, line, extra = 5, f"{type(exc).__name__}: {exc}", {}
    print(line, file=sys.stderr)
    # the failed run's record, in the directory _run made first: no rows,
    # the exit code and the printed line; an earlier run's CSV goes
    csv, record = _outputs(cfg, args.command)
    csv.unlink(missing_ok=True)
    _write_record(record, args.command, cfg, [], (),
                  {"exit_code": code, "error": line, **extra},
                  time.perf_counter() - started)
    return code


def _outputs(cfg: ExperimentConfig, command: str):
    """<label>_<command>.csv and .json in the output directory."""
    return (Path(cfg.output_dir) / f"{cfg.label}_{command}.{ext}" for ext in ("csv", "json"))


def _run(command: str, cfg: ExperimentConfig) -> int:
    csv, record = _outputs(cfg, command)
    csv.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    failures = []  # the lines printed for a run that exits 1

    if command == "converge":
        columns = CONVERGE_COLUMNS
        rows, meta = run_convergence_study(cfg)
        extra = {"solves": meta}
    elif command == "audit":
        columns = ("check", "scope", "status", "value", "bound", "witness_time")
        rows, audit_failures, suites = run_bound_audit(cfg)
        extra = {"failures": audit_failures, "suites": suites}
        failures = [f"audit failure: {f}" for f in audit_failures]
    elif command == "simulate":
        rows, columns = run_simulate(cfg)
        extra = {}
    else:  # conditions
        columns = ("k", "h", "EL_residual_max", "volterra_residual_median",
                   "transversality_residual", "nontriviality",
                   "adjoint_bound", "adjoint_bound_status")
        rows, bounds_ok, decreasing, routes = run_conditions(cfg)
        extra = {"adjoint_bounds_ok": bounds_ok, "volterra_decreasing": decreasing,
                 "routes": routes}
        if not bounds_ok or (len(cfg.mesh_ks) > 1 and not decreasing):
            failures = ["condition failure: adjoint bound or residual decay violated"]

    _write_csv(csv, columns, rows)
    _write_record(record, command, cfg, rows, columns, extra,
                  time.perf_counter() - started)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
