"""The output checks trip on a perturbed output, and fail_frac counts it."""

import argparse
import configparser
import json
from pathlib import Path

import pytest

import checks
import worker
from workloads import EXPECTED, WORKLOADS


def _fmt(v):
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _write_converge_csv(path, expected, perturb=None):
    """Write the seed rows as the CLI does; perturb = (row, column, factor)."""
    rows = [list(r) for r in expected["rows"]]
    if perturb is not None:
        i, col, factor = perturb
        rows[i][expected["columns"].index(col)] *= factor
    lines = ["# idi-kit schema v1", ",".join(expected["columns"])]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


AUDIT_ROWS = [
    ("constant_beta", "sampled", "pass", "0.59985561665110343", "1", "0"),
    ("trajectory_bound_M1", "min_norm", "pass", "2", "14.778112197861301", "0"),
    ("gronwall_forward", "1000 instances", "pass", "0", "0", "0"),
    ("gronwall_continuous", "1000 instances", "pass", "0", "0", "0"),
]


def _write_audit(outdir, flip=False):
    rows = [list(r) for r in AUDIT_ROWS]
    if flip:
        rows[1][2] = "FAIL"
    lines = ["# idi-kit schema v1", "check,scope,status,value,bound,witness_time"]
    lines += [",".join(r) for r in rows]
    (outdir / "au_audit.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (outdir / "au_audit.json").write_text(json.dumps({"failures": []}),
                                          encoding="utf-8")


def test_seed_values_pass_and_roundoff_is_tolerated(tmp_path):
    path = tmp_path / "vs_converge.csv"
    _write_converge_csv(path, EXPECTED["damped_volterra"])
    assert checks.check_converge_csv(path, EXPECTED["damped_volterra"], False) == []
    _write_converge_csv(path, EXPECTED["damped_volterra"], (2, "zeta_k", 1 + 1e-12))
    assert checks.check_converge_csv(path, EXPECTED["damped_volterra"], False) == []


@pytest.mark.parametrize("column, factor", [
    ("zeta_k", 1 + 1e-7),                     # round-off column, beyond 1e-9
    ("volterra_residual_median", 1 + 1e-7),   # pinned where the solver is idle
    ("J_k", 1 + 1e-4),                        # solver column, beyond 1e-6
])
def test_perturbed_csv_value_trips_the_check(tmp_path, column, factor):
    path = tmp_path / "vs_converge.csv"
    _write_converge_csv(path, EXPECTED["damped_volterra"], (1, column, factor))
    problems = checks.check_converge_csv(path, EXPECTED["damped_volterra"], False)
    assert len(problems) == 1 and column in problems[0]


def test_flags_and_nontriviality_are_required(tmp_path):
    expected = EXPECTED["polytope_endpoint"]
    broken = dict(expected, rows=[list(r) for r in expected["rows"]])
    broken["rows"][0][-1] = "nonstationary"
    broken["rows"][1][-2] = 0
    path = tmp_path / "pe_converge.csv"
    _write_converge_csv(path, broken)
    problems = checks.check_converge_csv(path, expected, True)
    assert any("flags" in p for p in problems)
    assert any("nontriviality" in p for p in problems)


def test_flipped_audit_row_trips_the_check(tmp_path):
    _write_audit(tmp_path)
    assert WORKLOADS["bound_audit"].check(tmp_path, {"au": 0}) == []
    assert checks.audit_instances(tmp_path / "au_audit.csv") == 2000
    _write_audit(tmp_path, flip=True)
    problems = WORKLOADS["bound_audit"].check(tmp_path, {"au": 0})
    assert len(problems) == 1 and "FAIL" in problems[0]
    _write_audit(tmp_path)
    assert WORKLOADS["bound_audit"].check(tmp_path, {"au": 1}) != []


def test_memory_control_invariants(tmp_path):
    solve = {"k": 8, "adjoint_bound_ok": True, "endpoint_violation": 0.0,
             "approximation": {"nodal_sup_error": 0.0, "zeta_k": 0.05}}
    record = {"solves": [solve, dict(solve, k=16)], "rows": [[8, 0.125, 0.1]]}
    path = tmp_path / "mc_converge.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert checks.check_converge_invariants(path, (8, 16), 1e-6) == []
    record["solves"][1] = dict(solve, k=16, endpoint_violation=1e-3)
    record["rows"].append([16, float("nan")])
    path.write_text(json.dumps(record), encoding="utf-8")
    problems = checks.check_converge_invariants(path, (8, 16), 1e-6)
    assert len(problems) == 2


class _FakeCli:
    """Stands in for idikit.cli: writes the seed CSV, optionally perturbed."""

    def __init__(self, perturb=None):
        self.perturb = perturb

    def main(self, argv):
        command, ini = argv
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read(ini)
        outdir = Path(parser["run"]["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        label = parser["run"]["label"]
        _write_converge_csv(outdir / f"{label}_{command}.csv",
                            EXPECTED[parser["problem"]["name"]], self.perturb)
        return 0


@pytest.mark.parametrize("perturb, failed", [
    (None, 0), ((0, "beta_k", 1.001), 1)])
def test_fail_frac_counts_a_perturbed_sweep(tmp_path, perturb, failed):
    workload = WORKLOADS["volterra_sweep"]
    from workloads import write_configs
    configs = write_configs(workload, tmp_path, seed=3)
    args = argparse.Namespace(workload="volterra_sweep", seed=3, seconds=0.0,
                              trace=0)
    res = worker._measure(args, _FakeCli(perturb), workload, configs, tmp_path,
                          worker.SpeedProbe())
    assert (res["attempted"], res["failed"]) == (1, failed)
    assert checks.fail_frac(res["failed"], res["attempted"]) == failed


def test_speed_probe_scales_by_the_mean_speed_of_the_span():
    probe = worker.SpeedProbe()
    probe.samples = [1.0, 2 * worker.PROBE_REF_S, 4 * worker.PROBE_REF_S]
    probe.sample = lambda: probe.samples.append(worker.PROBE_REF_S / 4)
    # samples from index 1 on, plus the one taken at the end of the span:
    # speeds 1/2, 1/4 and 4
    assert probe.scale(1) == pytest.approx((0.5 + 0.25 + 4) / 3)
