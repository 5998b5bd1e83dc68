"""Output checks of the benchmark sweeps.

Each check reads what the CLI wrote and returns a list of problems; an empty
list means the sweep's outputs are correct.  Only the standard library is
used, so the checks run without idikit.
"""

from __future__ import annotations

import json
import math

# Columns that depend only on the mesh and the reference arc: they may move
# by round-off only.
ROUNDOFF_COLUMNS = ("sup_err", "w12_err", "zeta_k", "beta_k")
ROUNDOFF_REL = 1e-9
ROUNDOFF_ABS = 1e-15
# Columns that depend on where the solver stopped.  The solver stops at a
# scaled projected-gradient norm of tol_stat = 1e-7; a tenfold margin lets
# another correct solver path stop elsewhere in the same basin.
SOLVER_COLUMNS = ("J_k", "EL_residual_max", "transversality_residual")
SOLVER_TOL = 1e-6


def read_csv(path):
    """(columns, rows) of a CLI CSV; rows are lists of strings."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# idi-kit schema"):
        raise ValueError(f"{path}: missing schema line")
    columns = lines[1].split(",")
    return columns, [line.split(",") for line in lines[2:]]


def _close(actual, expected, rel, abs_tol):
    return math.isfinite(actual) and abs(actual - expected) <= rel * abs(expected) + abs_tol


def check_converge_csv(path, expected, solver_moves_volterra):
    """Compare a catalog ``converge`` CSV with the values recorded at seed.

    ``expected`` maps column names to the seed's per-row values.  The
    Volterra residual median is built from the multipliers at the solver's
    final iterate; it is pinned to round-off only where the solver does not
    move the iterate (``solver_moves_volterra`` false).
    """
    problems = []
    columns, rows = read_csv(path)
    if columns != expected["columns"]:
        return [f"{path}: columns {columns} != {expected['columns']}"]
    if len(rows) != len(expected["rows"]):
        return [f"{path}: {len(rows)} rows, expected {len(expected['rows'])}"]
    roundoff = ROUNDOFF_COLUMNS + (() if solver_moves_volterra
                                   else ("volterra_residual_median",))
    solver = SOLVER_COLUMNS + (("volterra_residual_median",)
                               if solver_moves_volterra else ())
    for row, want in zip(rows, expected["rows"]):
        got = dict(zip(columns, row))
        ref = dict(zip(columns, want))
        where = f"{path} k={got['k']}"
        if got["k"] != str(ref["k"]):
            problems.append(f"{where}: k != {ref['k']}")
        if not _close(float(got["h"]), ref["h"], 1e-12, 0.0):
            problems.append(f"{where}: h {got['h']} != {ref['h']!r}")
        for col in roundoff:
            if not _close(float(got[col]), ref[col], ROUNDOFF_REL, ROUNDOFF_ABS):
                problems.append(f"{where}: {col} {got[col]} != {ref[col]!r} "
                                f"(rel {ROUNDOFF_REL:g})")
        for col in solver:
            if not _close(float(got[col]), ref[col], 0.0,
                          SOLVER_TOL * max(1.0, abs(ref[col]))):
                problems.append(f"{where}: {col} {got[col]} != {ref[col]!r} "
                                f"(tol {SOLVER_TOL:g})")
        if not _close(float(got["nontriviality"]), 1.0, 0.0, 1e-12):
            problems.append(f"{where}: nontriviality {got['nontriviality']} != 1")
        if got["flags"] != "":
            problems.append(f"{where}: flags {got['flags']!r}")
    return problems


def check_converge_invariants(json_path, ks, endpoint_tol):
    """Invariants of a ``converge`` run record that hold at any iterate.

    Used where the solver stalls and its iterates are not pinned: nodal
    error within the majorant, adjoint bound respected, endpoint within
    tolerance, every row finite.
    """
    with open(json_path, encoding="utf-8") as fh:
        record = json.load(fh)
    problems = []
    got_ks = [solve["k"] for solve in record["solves"]]
    if got_ks != list(ks):
        return [f"{json_path}: meshes {got_ks} != {list(ks)}"]
    for solve in record["solves"]:
        where = f"{json_path} k={solve['k']}"
        approx = solve["approximation"]
        if not approx["nodal_sup_error"] <= approx["zeta_k"]:
            problems.append(f"{where}: nodal_sup_error {approx['nodal_sup_error']}"
                            f" > zeta_k {approx['zeta_k']}")
        if solve["adjoint_bound_ok"] is not True:
            problems.append(f"{where}: adjoint bound violated")
        if not solve["endpoint_violation"] <= endpoint_tol:
            problems.append(f"{where}: endpoint_violation "
                            f"{solve['endpoint_violation']} > {endpoint_tol}")
    for row in record["rows"]:
        if not all(math.isfinite(v) for v in row if isinstance(v, float)):
            problems.append(f"{json_path}: non-finite row {row}")
    return problems


def check_audit(csv_path, json_path, exit_code):
    """An audit passes for any seed: exit 0, every row pass, no violations."""
    problems = []
    if exit_code != 0:
        problems.append(f"audit exit code {exit_code}")
    columns, rows = read_csv(csv_path)
    for row in rows:
        got = dict(zip(columns, row))
        if got["status"] != "pass":
            problems.append(f"{csv_path}: {got['check']} {got['scope']} "
                            f"status {got['status']}")
        if got["check"].startswith("gronwall_") and float(got["value"]) != 0:
            problems.append(f"{csv_path}: {got['check']} has {got['value']} "
                            f"violations")
    with open(json_path, encoding="utf-8") as fh:
        failures = json.load(fh)["failures"]
    if failures:
        problems.append(f"{json_path}: {len(failures)} failures recorded")
    return problems


def audit_instances(csv_path):
    """Number of Gronwall instances the audit checked against its oracles."""
    columns, rows = read_csv(csv_path)
    total = 0
    for row in rows:
        scope = dict(zip(columns, row))["scope"]
        if scope.endswith(" instances"):
            total += int(scope.split()[0])
    return total


def fail_frac(failed, attempted):
    """Failed sweeps over attempted sweeps; a run attempts at least one."""
    return failed / attempted
