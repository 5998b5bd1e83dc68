"""The benchmark workloads: the INI files they hand to the CLI, the CLI
calls that make up one sweep, and the check of a sweep's outputs.

Why each workload is here is written up in ``bench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

EXPECTED = json.loads((Path(__file__).with_name("expected.json"))
                      .read_text(encoding="utf-8"))

_RUN = """
[run]
seed = {seed}
output_dir = {outdir}
label = {label}
"""

_CATALOG = """[problem]
name = {problem}

[meshes]
k = {meshes}

[solver]
tol_stat = 1e-7
max_iter = 20000
"""

# the README's inline example: memory, a ball of velocities, an endpoint set
_MEMORY_CONTROL = """[problem]
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
k = 8, 16

[solver]
tol_stat = 1e-7
max_iter = 20000
endpoint_tol = 1e-6

[reference]
policy = min_norm
"""
MEMORY_CONTROL_KS = (8, 16)
MEMORY_CONTROL_ENDPOINT_TOL = 1e-6

# the settings of configs/demo.ini, except for 250 instances per Gronwall
# suite instead of 1000: with 1000 the audit alone takes 9 to 17 s, and a
# run would hold too few sweeps for a steady median (bench/README.md)
_BOUND_AUDIT = """[problem]
name = cos_t

[meshes]
k = 20, 40, 80

[solver]
tol_stat = 1e-7
max_iter = 20000

[audit]
n_instances = 250
policies = min_norm extreme constant
mesh_k = 24
"""


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a sweep."""

    label: str
    command: str
    ini: str  # without the [run] section


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    # (output directory, {label: exit code}) -> list of problems
    check: Callable


def _catalog_call(label, problem, meshes):
    return Call(label, "converge", _CATALOG.format(problem=problem, meshes=meshes))


def _check_catalog(solver_moves_volterra, *labels_problems):
    def check(outdir, codes):
        problems = [f"{label}: exit code {codes[label]}"
                    for label, _ in labels_problems if codes[label] != 0]
        for label, problem in labels_problems:
            problems += checks.check_converge_csv(
                outdir / f"{label}_converge.csv", EXPECTED[problem],
                solver_moves_volterra)
        return problems
    return check


def _check_memory_control(outdir, codes):
    problems = [f"mc: exit code {codes['mc']}"] if codes["mc"] != 0 else []
    return problems + checks.check_converge_invariants(
        outdir / "mc_converge.json", MEMORY_CONTROL_KS,
        MEMORY_CONTROL_ENDPOINT_TOL)


def _check_bound_audit(outdir, codes):
    return checks.check_audit(outdir / "au_audit.csv", outdir / "au_audit.json",
                              codes["au"])


def _check_both(*parts):
    return lambda outdir, codes: [p for part in parts for p in part(outdir, codes)]


_VOLTERRA = _catalog_call("vs", "damped_volterra", "20, 40, 80")
_AUDIT = Call("au", "audit", _BOUND_AUDIT)
_CHECK_VOLTERRA = _check_catalog(False, ("vs", "damped_volterra"))


WORKLOADS = {w.name: w for w in (
    # gated: the memory-kernel path and the audit oracles in one sweep, so
    # that two gated workloads of 55 s runs fit the benchmark's time budget
    # (bench/README.md); the solver is idle in both parts
    Workload("volterra_audit", (_VOLTERRA, _AUDIT),
             _check_both(_CHECK_VOLTERRA, _check_bound_audit)),
    # gated: zero kernel; solver, projections, tau_f and backward sweeps
    Workload("control_sweep",
             (_catalog_call("pe", "polytope_endpoint", "40, 80, 160"),
              _catalog_call("bc", "ball_control_lq", "40, 80, 160")),
             _check_catalog(True, ("pe", "polytope_endpoint"),
                            ("bc", "ball_control_lq"))),
    # not gated in BENCHMARK.json, run by hand: the two halves of
    # volterra_audit, and memory_control, whose long sweeps fit too few
    # times into a run to be steady (bench/README.md)
    Workload("volterra_sweep", (_VOLTERRA,), _CHECK_VOLTERRA),
    Workload("bound_audit", (_AUDIT,), _check_bound_audit),
    Workload("memory_control",
             (Call("mc", "converge", _MEMORY_CONTROL),),
             _check_memory_control),
)}


def write_configs(workload: Workload, workdir: Path, seed: int) -> list:
    """Write one INI per CLI call; returns [(call, path)]."""
    outdir = workdir / "out"
    written = []
    for call in workload.calls:
        path = workdir / f"{call.label}.ini"
        path.write_text(call.ini + _RUN.format(seed=seed, outdir=outdir,
                                               label=call.label),
                        encoding="utf-8")
        written.append((call, path))
    return written
