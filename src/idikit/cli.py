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
in the conditions record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .bolza import SolveOptions, build_discrete_problem, cost_Jk, solve_Pk
from .conditions import build_condition_report, recover_multipliers
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import (InfeasibleReferenceError, NonFiniteStateError,
                       approximate_arc, feasibility_residual, simulate)
from .gronwall import (apriori_bounds, backward_extremal, continuous_extremal,
                       continuous_gronwall, discrete_gronwall_backward,
                       discrete_gronwall_forward, forward_extremal)
from .mesh import TimeMesh
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
        lines = [f"{json.dumps(key)}: "
                 f"{json.dumps(record[key], sort_keys=True, allow_nan=False)}"
                 for key in sorted(record)]
    except ValueError as exc:
        raise RuntimeError("run record contains non-finite numeric fields") from exc
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def _reference_for(cfg: ExperimentConfig):
    """Closed-form catalog reference, or a fine simulated fallback, gated at
    twice its largest inclusion residual over the meshes of the sweep."""
    entry = cfg.entry
    if entry.reference is not None:
        feas_tol = cfg.reference_feas_tol
        return entry.reference, 1e-6 if feas_tol is None else feas_tol
    k_fine = cfg.reference_k or 8 * cfg.mesh_ks[-1]
    fine_mesh = TimeMesh.uniform(k_fine, entry.problem.horizon)
    arc = _simulate(cfg, fine_mesh, cfg.reference_policy).arc()
    if cfg.reference_feas_tol is not None:
        return arc, cfg.reference_feas_tol
    res = max(feasibility_residual(entry.problem, arc,
                                   TimeMesh.uniform(k, entry.problem.horizon))
              for k in cfg.mesh_ks)
    return arc, max(2.0 * res, 1e-9)


def _simulate(cfg: ExperimentConfig, mesh: TimeMesh, policy: str):
    """The config's problem stepped on ``mesh`` under one selection policy;
    ``constant`` deviates by the config's reference constant (zero if unset)."""
    return simulate(cfg.entry.problem, mesh, policy, seed=cfg.seed,
                    constant_deviation=cfg.reference_constant)


def _verify_mesh(cfg: ExperimentConfig, reference, feas_tol: float, k: int,
                 solve: bool):
    """Approximate, build, solve if ``solve``, recover the multipliers
    normal-first (:func:`~idikit.conditions.recover_multipliers`) and report
    the conditions on the uniform mesh of k cells; the recovery's route
    comes back with the reports."""
    problem = cfg.entry.problem
    mesh = TimeMesh.uniform(k, problem.horizon)
    traj, report = approximate_arc(problem, reference, mesh, feas_tol=feas_tol)
    dbp, controls, _, _ = build_discrete_problem(problem, mesh, reference,
                                                 precomputed=(traj, report))
    # a body without the normal cones the checks need (a flat polytope)
    # raises here, not after a solve that cannot be checked
    problem.fmap.body_normal_cone(np.empty((0, problem.dim)))
    log, normal = None, None
    if solve:
        opts = SolveOptions(tol_stat=cfg.tol_stat, max_iter=cfg.max_iter,
                            endpoint_tol=cfg.endpoint_tol)
        traj, _, log = solve_Pk(dbp, controls, opts)
        normal = log.endpoint_normal
    mult, route = recover_multipliers(dbp, traj, endpoint_normal=normal)
    # continuous residuals run along the designated reference arc: the
    # memory-adjoint condition is stated for the minimizer candidate, and
    # the reference is exactly feasible where discrete extensions carry an
    # O(h) defect that would trip the cone feasibility gate
    crep = build_condition_report(dbp, traj, mult, x_arc=reference)
    return report, dbp, traj, log, crep, route


def run_convergence_study(cfg: ExperimentConfig):
    """Approximate, solve and verify on every mesh; one CSV row per k."""
    reference, feas_tol = _reference_for(cfg)
    rows = []
    meta = []
    for k in cfg.mesh_ks:
        report, dbp, traj, log, crep, route = _verify_mesh(
            cfg, reference, feas_tol, k, solve=True)
        flags = "" if log.stationary else "nonstationary"
        rows.append((k, dbp.mesh.max_step, report.sup_error, report.w12_error,
                     report.zeta_k, report.beta_k, cost_Jk(dbp, traj),
                     crep.el_max, crep.volterra_median, crep.transversality,
                     crep.nontriviality, flags))
        meta.append({"k": k, "iterations": log.iterations,
                     "stationary": log.stationary, "message": log.message,
                     "route": route,
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


# Each draw takes its values from one generator call: an array fills in C
# order, value after value, and exponential(scale) is scale times
# standard_exponential, so the block scaled is the stream of every value
# drawn one after another, and the generator ends in the same state.  A
# scale of 1.0 leaves a value as it is.

def _draw_forward(rng):
    m = int(rng.integers(1, 10))
    z = rng.standard_exponential(1 + 3 * m)
    return (float(z[0]), *(0.5 * z[1:]).reshape(3, m))


def _draw_backward(rng):
    m = int(rng.integers(2, 10))
    z = rng.standard_exponential(3 * m + 1)
    return (float(z[-1]), *(0.5 * z[:-1]).reshape(3, m))


def _draw_continuous(rng):
    # rho0, then the one value of each constant coefficient row a, b1, b2
    z = rng.standard_exponential(4)
    return (float(z[0]), *(0.4 * z[1:]).tolist())


def _violations(instances, bound, oracle, cols, rtol, grid, front):
    """Which instances the bound fails, from one bound and one oracle call
    on the stacked fields; ``cols`` picks the oracle columns the bound
    covers.  With a ``grid`` the three last fields are constant rows.
    Otherwise the rows are zero-padded to the longest, at the front where
    ``front`` (a recursion anchored at its terminal) and at the end else (a
    causal one); the columns as far from the padded side as the row is
    short are covered, and in those row i of both calls is bit for bit the
    call on instance i alone.  Only covered columns count.  A non-finite
    oracle or bound entry is a violation: no comparison with NaN holds, so
    it would otherwise pass."""
    n = len(instances)
    first = np.array([inst[0] for inst in instances])
    if grid is not None:
        rows = [np.broadcast_to(r[:, None], (n, grid.size))
                for r in np.array([inst[1:] for inst in instances]).T]
        actual = oracle(first, *rows, grid)[:, cols]
        limit = bound(first, *rows, grid)
        pad = 0
    else:
        lengths = np.array([np.size(inst[1]) for inst in instances])
        width = lengths.max()
        rows = np.zeros((3, n, width))
        for i, (inst, m) in enumerate(zip(instances, lengths.tolist())):
            rows[:, i, slice(width - m, None) if front else slice(m)] = inst[1:]
        actual = oracle(first, *rows)[:, cols]
        limit = bound(first, *rows)
        pad = (width - lengths)[:, None]
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
        speeds = np.linalg.norm(traj.velocities, axis=1)
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
    # each suite: its name and replay fields, the draw of one instance (from
    # the one seeded rng, suite after suite), the bound and its oracle (named
    # here, at call time), the oracle columns, the relative slack, the grid
    # and whether its rows are padded at the front (terminal-anchored)
    suite_specs = (
        ("forward", ("e0", "sigma", "rho", "gamma"), _draw_forward,
         discrete_gronwall_forward, forward_extremal, slice(None), 1e-12, None,
         False),
        ("backward", ("x_k", "c", "b", "a"), _draw_backward,
         discrete_gronwall_backward, backward_extremal, slice(1, -2), 1e-12, None,
         True),
        ("continuous", ("rho0", "a", "b1", "b2"), _draw_continuous,
         continuous_gronwall, continuous_extremal, slice(None), 1e-9, grid, False),
    )
    suites = {}
    for name, fields, draw, bound, oracle, cols, rtol, on_grid, front in suite_specs:
        label = f"gronwall_{name}"
        started = time.perf_counter()
        instances = [draw(rng) for _ in range(n)]
        bad = _violations(instances, bound, oracle, cols, rtol, on_grid, front)
        count = int(bad.sum())
        suites[label] = {"instances": n, "violations": count,
                         "wall_s": time.perf_counter() - started}
        rows.append((label, f"{n} instances", "pass" if count == 0 else "FAIL",
                     count, 0, 0.0))
        if count:  # replay the suite's last violating instance
            last = instances[np.flatnonzero(bad)[-1]]
            replay = {"suite": name, **{f: v.tolist() if np.ndim(v) else v
                                        for f, v in zip(fields, last)}}
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
        _, dbp, _, _, crep, route = _verify_mesh(cfg, reference, feas_tol, k,
                                                 solve=False)
        routes.append(route)
        rows.append((k, dbp.mesh.max_step, crep.el_max, crep.volterra_median,
                     crep.transversality, crep.nontriviality,
                     crep.adjoint_bound, "ok" if crep.adjoint_bound_ok else "FAIL"))
        medians.append(crep.volterra_median)
        bounds_ok = bounds_ok and crep.adjoint_bound_ok
    decreasing = all(b <= a * (1 + 1e-9) + 1e-12
                     for a, b in zip(medians, medians[1:]))
    return rows, bounds_ok, decreasing, routes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idikit", description="Volterra inclusion discretization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("converge", "audit", "simulate", "conditions"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the INI experiment config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return _run(args.command, cfg)
    except NonFiniteStateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return 4
    except (InfeasibleReferenceError, InfeasiblePointError,
            SetValuedError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def _run(command: str, cfg: ExperimentConfig) -> int:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.label}_{command}"
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

    _write_csv(outdir / f"{stem}.csv", columns, rows)
    _write_record(outdir / f"{stem}.json", command, cfg, rows, columns, extra,
                  time.perf_counter() - started)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
