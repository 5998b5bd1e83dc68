import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from idikit import catalog, cli
from idikit.catalog import CatalogEntry
from idikit.cli import main
from idikit.config import ConfigError, load_config
from idikit.gronwall import (continuous_extremal, continuous_gronwall,
                             discrete_gronwall_backward,
                             discrete_gronwall_forward)
from idikit.mesh import TimeMesh
from idikit.setvalued import Singleton
from oracles import (backward_recursion, continuous_extremal_loop,
                     forward_recursion, per_row_cost, violations_per_length)


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


BASE = """
[problem]
name = cos_t

[meshes]
k = 8, 16

[run]
seed = 3
output_dir = {out}
label = t
"""


def test_converge_csv_and_record(tmp_path):
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    assert main(["converge", cfgp]) == 0
    csv = (tmp_path / "out" / "t_converge.csv").read_text().splitlines()
    assert csv[0] == "# idi-kit schema v1"
    header = csv[1].split(",")
    assert header[:4] == ["k", "h", "sup_err", "w12_err"]
    r8, r16 = csv[2].split(","), csv[3].split(",")
    assert int(r8[0]) == 8 and int(r16[0]) == 16
    assert float(r16[3]) < float(r8[3])  # w12 error decreases
    assert float(r16[10]) == 1.0         # nontriviality
    assert r16[11] == ""                 # stationary, no flag
    rec = json.loads((tmp_path / "out" / "t_converge.json").read_text())
    assert rec["schema"] == "idi-kit run v1"
    assert rec["seed"] == 3
    assert len(rec["rows"]) == 2
    assert all(s["stationary"] for s in rec["solves"])
    assert all(s["message"] == "" for s in rec["solves"])


def test_record_has_one_line_per_key_and_rejects_non_finite_fields(tmp_path):
    # each top-level key on a line of its own; a NaN or inf anywhere in the
    # record, the wall time included, raises and writes nothing
    cfg = load_config(_write(tmp_path, BASE.format(out=tmp_path / "out")))
    path = tmp_path / "r.json"
    extra = {"solves": [{"costs": [1.0, np.float64(0.5)], "note": "x"}]}
    cli._write_record(path, "converge", cfg, [[8, np.float64(0.125), "a"]],
                      ["k", "h", "flags"], extra, 0.25)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads("\n".join(lines))
    assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(rec) + 2
    assert [json.loads("{" + line.rstrip(",") + "}").popitem()[0]
            for line in lines[1:-1]] == sorted(rec)
    assert rec["rows"] == [[8, 0.125, "a"]] and rec["solves"] == extra["solves"]
    for bad, wall in (({"solves": [{"costs": [1.0, float("nan")]}]}, 0.25),
                      ({"x": np.float64(-np.inf)}, 0.25), ({}, float("nan"))):
        path.unlink(missing_ok=True)
        with pytest.raises(RuntimeError, match="non-finite numeric fields"):
            cli._write_record(path, "converge", cfg, [[8, 0.125, ""]],
                              ["k", "h", "flags"], bad, wall)
        assert not path.exists()


def test_demo_multipliers_are_normal_on_every_mesh(tmp_path):
    # configs/demo.ini's converge recovers lam = 1 multipliers on all three
    # meshes, and its record says so
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"
    text = demo.read_text().replace("output_dir = idikit_out",
                                    f"output_dir = {tmp_path / 'out'}")
    assert main(["converge", _write(tmp_path, text)]) == 0
    rec = json.loads((tmp_path / "out" / "demo_converge.json").read_text())
    assert [s["k"] for s in rec["solves"]] == [20, 40, 80]
    assert [s["route"] for s in rec["solves"]] == ["normal"] * 3


def test_converge_deterministic_bytes(tmp_path):
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "o1"))
    assert main(["converge", cfgp]) == 0
    first = (tmp_path / "o1" / "t_converge.csv").read_bytes()
    assert main(["converge", cfgp]) == 0
    second = (tmp_path / "o1" / "t_converge.csv").read_bytes()
    assert first == second


def test_config_errors(tmp_path):
    # unknown catalog name
    bad = _write(tmp_path, "[problem]\nname = nope\n", "a.ini")
    assert main(["converge", bad]) == 2
    # inline without horizon: the error names the field
    inline = "[problem]\nname = x\ninline = true\ndim = 1\nvariant = singleton\nx0 = 0\n"
    with pytest.raises(ConfigError, match="problem.horizon"):
        load_config(_write(tmp_path, inline, "b.ini"))
    assert main(["converge", _write(tmp_path, inline, "b2.ini")]) == 2
    # unknown field is rejected, by name
    with pytest.raises(ConfigError, match="problem.wat"):
        load_config(_write(tmp_path, "[problem]\nname = cos_t\nwat = 1\n", "c.ini"))
    # non-increasing mesh list
    with pytest.raises(ConfigError, match="meshes.k"):
        load_config(_write(tmp_path, "[problem]\nname = cos_t\n[meshes]\nk = 8 8\n",
                           "d.ini"))
    # a horizon that is not finite, inline and as a catalog override
    for value in ("nan", "inf"):
        with pytest.raises(ConfigError, match="problem.horizon"):
            load_config(_write(tmp_path, inline + f"horizon = {value}\n", "e.ini"))
        catalog_cfg = _write(tmp_path, f"[problem]\nname = cos_t\nhorizon = {value}\n",
                             "f.ini")
        with pytest.raises(ConfigError, match="problem.horizon"):
            load_config(catalog_cfg)
        assert main(["converge", catalog_cfg]) == 2
    # a key no code reads is unknown
    with pytest.raises(ConfigError, match="audit.samples_per_cell"):
        load_config(_write(tmp_path, "[problem]\nname = cos_t\n[audit]\n"
                           "samples_per_cell = 16\n", "g.ini"))
    # audit, reference and solver fields out of range, each named and exit 2
    for section, body, name in (
            ("audit", "n_instances = -3", "audit.n_instances"),
            ("audit", "n_instances = 0", "audit.n_instances"),
            ("audit", "mesh_k = 0", "audit.mesh_k"),
            ("reference", "k = -1", "reference.k"),
            ("audit", "policies =", "audit.policies"),
            ("audit", "policies = min_norm lazy", "audit.policies"),
            ("reference", "policy = lazy", "reference.policy"),
            ("solver", "tol_stat = nan", "solver.tol_stat"),
            ("solver", "tol_stat = -1", "solver.tol_stat"),
            ("solver", "tol_stat = 0", "solver.tol_stat"),
            ("solver", "max_iter = -5", "solver.max_iter"),
            ("solver", "max_iter = 0", "solver.max_iter"),
            ("solver", "endpoint_tol = -1", "solver.endpoint_tol"),
            ("solver", "endpoint_tol = inf", "solver.endpoint_tol"),
            ("reference", "feas_tol = -1e-9", "reference.feas_tol"),
            ("reference", "feas_tol = nan", "reference.feas_tol")):
        cfgp = _write(tmp_path, f"[problem]\nname = cos_t\n[{section}]\n{body}\n",
                      "h.ini")
        with pytest.raises(ConfigError, match=name):
            load_config(cfgp)
        assert main(["audit", cfgp]) == 2
    # missing file
    assert main(["audit", str(tmp_path / "missing.ini")]) == 2


def test_audit_passes_on_catalog(tmp_path):
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out") +
                  "\n[audit]\nn_instances = 60\nmesh_k = 12\n")
    assert main(["audit", cfgp]) == 0
    lines = (tmp_path / "out" / "t_audit.csv").read_text().splitlines()
    assert all(",FAIL," not in ln for ln in lines[2:])
    rec = json.loads((tmp_path / "out" / "t_audit.json").read_text())
    assert set(rec["suites"]) == {"gronwall_forward", "gronwall_backward",
                                  "gronwall_continuous"}
    for suite in rec["suites"].values():
        assert suite["instances"] == 60 and suite["violations"] == 0
        assert suite["wall_s"] >= 0.0
    # cos_t has no drift and a point body: the sampled m_F and l_F suprema
    # are 0, and a supremum of 0 is witnessed by no time, written 0
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    for label in ("constant_m_F", "constant_l_F"):
        assert float(rows[label][3]) == 0.0 and float(rows[label][5]) == 0.0


CORRUPT = """
[problem]
name = corrupted
inline = true
dim = 2
variant = ball
radius = 2.0
drift = zero
x0 = 0 0
horizon = 1.0
state_box_lo = -3 -3
state_box_hi = 3 3
m_F = 0.05

[meshes]
k = 12

[reference]
constant_deviation = 2 0

[audit]
n_instances = 5
policies = constant
mesh_k = 12

[run]
seed = 0
output_dir = {out}
label = corrupt
"""


def test_audit_detects_corrupted_constant(tmp_path):
    # declared m_F far below the true value sup|f| + r = 2
    cfgp = _write(tmp_path, CORRUPT.format(out=tmp_path / "out"))
    assert main(["audit", cfgp]) == 1
    rec = json.loads((tmp_path / "out" / "corrupt_audit.json").read_text())
    checks = {f["check"] for f in rec["failures"]}
    assert "M1" in checks  # witness-time row for the trajectory bound
    m1_fail = next(f for f in rec["failures"] if f["check"] == "M1")
    assert m1_fail["witness_time"] > 0.5
    assert m1_fail["value"] > m1_fail["bound"]


def test_audit_failure_matches_scalar_loop(tmp_path, monkeypatch):
    # the audited backward bound at half its value: the batched audit must
    # flag the instances a one-at-a-time loop over the same draws flags
    def half(*args):
        return 0.5 * discrete_gronwall_backward(*args)

    monkeypatch.setattr("idikit.cli.discrete_gronwall_backward", half)
    n = 60
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out") +
                  f"\n[audit]\nn_instances = {n}\nmesh_k = 12\n")
    assert main(["audit", cfgp]) == 1

    cfg = load_config(cfgp)
    problem = cfg.entry.problem
    rng = np.random.default_rng(cfg.seed)
    lo, hi = problem.state_box
    for _ in range(256):  # the constants audit draws first
        t = rng.uniform(0, problem.horizon)
        if t > 0:
            rng.uniform(0, t)
        rng.uniform(lo, hi)
    for _ in range(n):  # then the forward suite
        m = int(rng.integers(1, 10))
        rng.exponential(1.0)
        for _ in range(3):
            rng.exponential(0.5, m)
    bad, last = 0, None
    for _ in range(n):
        m = int(rng.integers(2, 10))
        c, b, a = (rng.exponential(0.5, m) for _ in range(3))
        x_k = rng.exponential(1.0)
        actual = backward_recursion(x_k, c, b, a)[1:m]
        if np.any(actual > half(x_k, c, b, a) * (1 + 1e-12) + 1e-300):
            bad += 1
            last = {"suite": "backward", "x_k": x_k, "c": c.tolist(),
                    "b": b.tolist(), "a": a.tolist()}
    assert 0 < bad < n

    lines = (tmp_path / "out" / "t_audit.csv").read_text().splitlines()
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    assert rows["gronwall_backward"][2:4] == ["FAIL", str(bad)]
    assert rows["gronwall_forward"][2] == "pass"
    assert rows["gronwall_continuous"][2] == "pass"
    rec = json.loads((tmp_path / "out" / "t_audit.json").read_text())
    assert [f["check"] for f in rec["failures"]] == ["gronwall_backward"]
    assert rec["failures"][0]["violations"] == bad
    assert rec["failures"][0]["replay"] == last
    assert rec["suites"]["gronwall_backward"]["violations"] == bad


def _halved(bound):
    return lambda *args: 0.5 * bound(*args)


def test_each_failing_suite_replays_its_own_instance(tmp_path, monkeypatch):
    # both discrete bounds at half their value: each failure record replays
    # the last violator of its own suite
    for name in ("discrete_gronwall_forward", "discrete_gronwall_backward"):
        monkeypatch.setattr(cli, name, _halved(getattr(cli, name)))
    n = 30
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out") +
                  f"\n[audit]\nn_instances = {n}\nmesh_k = 12\n")
    assert main(["audit", cfgp]) == 1

    cfg = load_config(cfgp)
    rng = np.random.default_rng(cfg.seed)
    rng.random((256, 2 + cfg.entry.problem.dim))  # the constants audit draws first
    last = {}
    for _ in range(n):
        m = int(rng.integers(1, 10))
        e0 = rng.exponential(1.0)
        sig, rho, gam = (rng.exponential(0.5, m) for _ in range(3))
        bound = 0.5 * discrete_gronwall_forward(e0, sig, rho, gam)
        if np.any(forward_recursion(e0, sig, rho, gam) > bound * (1 + 1e-12) + 1e-300):
            last["gronwall_forward"] = {"suite": "forward", "e0": e0,
                                        "sigma": sig.tolist(), "rho": rho.tolist(),
                                        "gamma": gam.tolist()}
    for _ in range(n):
        m = int(rng.integers(2, 10))
        c, b, a = (rng.exponential(0.5, m) for _ in range(3))
        x_k = rng.exponential(1.0)
        bound = 0.5 * discrete_gronwall_backward(x_k, c, b, a)
        if np.any(backward_recursion(x_k, c, b, a)[1:m] > bound * (1 + 1e-12) + 1e-300):
            last["gronwall_backward"] = {"suite": "backward", "x_k": x_k,
                                         "c": c.tolist(), "b": b.tolist(),
                                         "a": a.tolist()}
    assert set(last) == {"gronwall_forward", "gronwall_backward"}
    rec = json.loads((tmp_path / "out" / "t_audit.json").read_text())
    assert {f["check"]: f["replay"] for f in rec["failures"]} == last


def test_non_finite_oracle_row_is_a_violation(tmp_path, monkeypatch):
    # a NaN compares False with any bound: the audit must still count the
    # row, FAIL its suite and replay that instance
    seen = {}

    def nan_row(rho0, a, b1, b2, grid):
        out = continuous_extremal(rho0, a, b1, b2, grid)
        out[7, 30] = np.nan
        seen.update(rho0=rho0[7], a=a[7, 0], b1=b1[7, 0], b2=b2[7, 0])
        return out

    monkeypatch.setattr(cli, "continuous_extremal", nan_row)
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out") +
                  "\n[audit]\nn_instances = 20\nmesh_k = 12\n")
    assert main(["audit", cfgp]) == 1
    lines = (tmp_path / "out" / "t_audit.csv").read_text().splitlines()
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    assert rows["gronwall_continuous"][2:4] == ["FAIL", "1"]
    rec = json.loads((tmp_path / "out" / "t_audit.json").read_text())
    assert [f["check"] for f in rec["failures"]] == ["gronwall_continuous"]
    assert rec["failures"][0]["replay"] == {"suite": "continuous", **seen}


def test_audit_calls_bound_and_oracle_once_per_suite(tmp_path, monkeypatch):
    # a count that does not depend on the machine: at n = 250 every suite
    # hands all its instances to its bound and its oracle in one call, the
    # discrete rows zero-padded to the longest (9) and the continuous rows
    # on the one grid
    calls = {}

    def counted(name, fn):
        def call(first, *rest):
            calls.setdefault(name, []).append((np.size(first), np.shape(rest[0])[-1]))
            return fn(first, *rest)
        return call

    for name in ("discrete_gronwall_forward", "forward_extremal",
                 "discrete_gronwall_backward", "backward_extremal",
                 "continuous_gronwall", "continuous_extremal"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out") +
                  "\n[audit]\nn_instances = 250\nmesh_k = 12\n")
    assert main(["audit", cfgp]) == 0
    for bound, oracle, width in (
            ("discrete_gronwall_forward", "forward_extremal", 9),
            ("discrete_gronwall_backward", "backward_extremal", 9),
            ("continuous_gronwall", "continuous_extremal", 65)):
        assert calls[bound] == calls[oracle] == [(250, width)]


_SUITES = {  # the discrete suites' draw, bound, oracle, columns and padding
    "forward": (cli._draw_forward, discrete_gronwall_forward,
                cli.forward_extremal, slice(None), False),
    "backward": (cli._draw_backward, discrete_gronwall_backward,
                 cli.backward_extremal, slice(1, -2), True),
}


def _tapered(bound, front):
    # 0.93 per column away from the anchored side: a covered column keeps
    # its factor however far its row is padded
    def call(*args):
        out = bound(*args)
        taper = 0.93 ** np.arange(out.shape[-1])
        return out * (taper[::-1] if front else taper)
    return call


@pytest.mark.parametrize("suite", sorted(_SUITES))
def test_padded_suites_are_the_per_length_audit(suite):
    # one padded stack per suite gives the violations of one call per
    # instance length, on the shipped bounds (no violation), the halved and
    # the tapered ones (some), and a stack of one length
    draw, bound, oracle, cols, front = _SUITES[suite]
    found = 0
    for seed in (0, 1, 9, 123, 2024, 31337):
        rng = np.random.default_rng(seed)
        instances = [draw(rng) for _ in range(250)]
        one_length = [inst for inst in instances if np.size(inst[1]) == 5]
        for insts in (instances, one_length, instances[:1]):
            for b in (bound, _halved(bound), _tapered(bound, front)):
                got = cli._violations(insts, b, oracle, cols, 1e-12, None, front)
                want = violations_per_length(insts, b, oracle, cols, 1e-12, None)
                assert np.array_equal(got, want), (suite, seed, len(insts))
                found += int(want.sum())
    assert found > 0


def test_padded_rows_are_the_per_instance_calls():
    # covered columns of the padded calls are bit for bit the calls on
    # each instance alone; the padding is finite and passes _nonneg
    for name, (draw, bound, oracle, cols, front) in sorted(_SUITES.items()):
        rng = np.random.default_rng(7)
        instances = [draw(rng) for _ in range(60)]
        width = max(np.size(inst[1]) for inst in instances)
        rows = np.zeros((3, len(instances), width))
        for i, inst in enumerate(instances):
            m = np.size(inst[1])
            rows[:, i, slice(width - m, None) if front else slice(m)] = inst[1:]
        first = np.array([inst[0] for inst in instances])
        limit, actual = bound(first, *rows), oracle(first, *rows)[:, cols]
        assert np.isfinite(limit).all() and np.isfinite(actual).all()
        for i, inst in enumerate(instances):
            one = bound(*inst)
            alone = oracle(np.array([inst[0]]), *(r[None] for r in inst[1:]))[0, cols]
            part = np.s_[limit.shape[1] - one.size:] if front else np.s_[:one.size]
            assert np.array_equal(limit[i, part], one), (name, i)
            assert np.array_equal(actual[i, part], alone), (name, i)


def test_audit_with_the_per_length_count_is_the_same_audit(tmp_path, monkeypatch):
    # the whole audit, once with the padded stacks and once with one call
    # per instance length: with the discrete bounds halved both suites fail
    # and replay their last violator
    for name in ("discrete_gronwall_forward", "discrete_gronwall_backward"):
        monkeypatch.setattr(cli, name, _halved(getattr(cli, name)))

    def audit(out):
        cfgp = _write(tmp_path, BASE.format(out=out) +
                      "\n[audit]\nn_instances = 250\nmesh_k = 12\n",
                      name=f"{out.name}.ini")
        code = main(["audit", cfgp])
        rec = json.loads((out / "t_audit.json").read_text())
        return code, (out / "t_audit.csv").read_bytes(), rec["rows"], rec["failures"]

    padded = audit(tmp_path / "padded")
    monkeypatch.setattr(cli, "_violations",
                        lambda *args: violations_per_length(*args[:-1]))
    assert audit(tmp_path / "per_length") == padded
    assert padded[0] == 1 and len(padded[3]) == 2


def test_block_draws_are_the_one_at_a_time_stream():
    # each suite's draw takes its rows from one generator call; the values,
    # their types and the generator's state after them are those of
    # drawing every row and value on its own
    def forward(rng):
        m = int(rng.integers(1, 10))
        e0 = rng.exponential(1.0)
        return (e0, *(rng.exponential(0.5, m) for _ in range(3)))

    def backward(rng):
        m = int(rng.integers(2, 10))
        c, b, a = (rng.exponential(0.5, m) for _ in range(3))
        return (rng.exponential(1.0), c, b, a)

    def continuous(rng):
        return (rng.exponential(1.0), *(rng.exponential(0.4) for _ in range(3)))

    for seed in (0, 3, 17, 2024, 99991):
        blocks, singles = np.random.default_rng(seed), np.random.default_rng(seed)
        for draw, one_by_one in ((cli._draw_forward, forward),
                                 (cli._draw_backward, backward),
                                 (cli._draw_continuous, continuous)):
            for _ in range(100):
                got, want = draw(blocks), one_by_one(singles)
                assert len(got) == len(want) == 4
                for g, w in zip(got, want):
                    assert type(g) is type(w) and np.array_equal(g, w), seed
        assert blocks.bit_generator.state == singles.bit_generator.state
        assert blocks.random() == singles.random()


@pytest.mark.parametrize("taper", [None, 0.4])
def test_audit_with_the_loop_oracle_is_the_same_audit(tmp_path, monkeypatch, taper):
    # the whole audit, once with the shipped RK4 oracle and once with the
    # stage loop it must equal bit for bit; with a taper the continuous
    # bound falls linearly from itself at t = 0 to 0.4 of itself at t = 1,
    # so that the oracle's values decide which instances violate it and
    # which one the record replays
    if taper:
        monkeypatch.setattr(cli, "continuous_gronwall", lambda *args: (
            continuous_gronwall(*args) * np.linspace(1.0, taper, args[-1].size)))

    def audit(out):
        cfgp = _write(tmp_path, BASE.format(out=out) +
                      "\n[audit]\nn_instances = 250\nmesh_k = 12\n",
                      name=f"{out.name}.ini")
        code = main(["audit", cfgp])
        rec = json.loads((out / "t_audit.json").read_text())
        return code, (out / "t_audit.csv").read_bytes(), rec["rows"], rec["failures"]

    shipped = audit(tmp_path / "shipped")
    monkeypatch.setattr(cli, "continuous_extremal", continuous_extremal_loop)
    assert audit(tmp_path / "loop") == shipped
    if taper:
        violations = shipped[3][0]["violations"]
        assert shipped[0] == 1 and 0 < violations < 250


MEMORY = """
[problem]
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

[meshes]
k = 8

[audit]
n_instances = 5
policies = constant
mesh_k = 8

[run]
seed = 4
output_dir = {out}
label = mem
"""


def test_audit_constants_carry_their_own_witness_times(tmp_path):
    # m_F peaks with |x|, beta with |g|/(1+|x|), alpha as t - s -> 0, and
    # l_F is constant (first sample): four suprema at four sampled times
    cfgp = _write(tmp_path, MEMORY.format(out=tmp_path / "out"))
    main(["audit", cfgp])
    problem = load_config(cfgp).entry.problem
    rng = np.random.default_rng(4)
    lo, hi = problem.state_box
    worst, when = [0.0] * 4, [0.0] * 4
    for _ in range(256):
        t = rng.uniform(0, problem.horizon)
        s = rng.uniform(0, t) if t > 0 else 0.0
        x = rng.uniform(lo, hi)
        vals = (np.linalg.norm(problem.fmap.center(t, x)) + problem.fmap.body_radius(),
                np.linalg.norm(problem.fmap.jacobian(t, x), 2),
                np.linalg.norm(problem.kernel.eval(t, s, x)) / (1.0 + np.linalg.norm(x)),
                np.linalg.norm(problem.kernel.jac(t, s, x), 2))
        for i, v in enumerate(vals):
            if v > worst[i]:
                worst[i], when[i] = v, t
    assert len(set(when)) == 4
    lines = (tmp_path / "out" / "mem_audit.csv").read_text().splitlines()
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[2:]}
    labels = ("constant_m_F", "constant_l_F", "constant_beta", "constant_alpha")
    for label, v, t in zip(labels, worst, when):
        assert float(rows[label][3]) == pytest.approx(v, rel=1e-15)
        assert float(rows[label][5]) == t


DEMO_AUDIT = """
[problem]
name = cos_t

[audit]
n_instances = 5
policies = min_norm extreme constant
mesh_k = 24

[run]
seed = 0
output_dir = {out}
label = demo
"""


def test_velocity_bound_witness_is_the_start_of_the_fastest_cell(tmp_path):
    # configs/demo.ini's audit mesh: every policy steps fastest on the last
    # cell, so each M2 row names t_23 = 23/24, not the M1 witness
    cfgp = _write(tmp_path, DEMO_AUDIT.format(out=tmp_path / "out"))
    assert main(["audit", cfgp]) == 0
    cfg = load_config(cfgp)
    mesh = TimeMesh.uniform(24, cfg.entry.problem.horizon)
    lines = (tmp_path / "out" / "demo_audit.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:] if ln.startswith("velocity_bound_M2")]
    assert [r[1] for r in rows] == ["min_norm", "extreme", "constant"]
    for row in rows:
        speeds = np.linalg.norm(cli._simulate(cfg, mesh, row[1]).velocities, axis=1)
        assert float(row[3]) == speeds.max()
        assert float(row[5]) == mesh.nodes[np.argmax(speeds)] == mesh.nodes[23]


def test_simulate_outputs(tmp_path):
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    assert main(["simulate", cfgp]) == 0
    lines = (tmp_path / "out" / "t_simulate.csv").read_text().splitlines()
    assert lines[1].split(",")[:3] == ["policy", "j", "t"]
    # three policies, k+1 rows each
    assert len(lines) == 2 + 3 * 17


def test_conditions_outputs(tmp_path):
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    assert main(["conditions", cfgp]) == 0
    rec = json.loads((tmp_path / "out" / "t_conditions.json").read_text())
    assert rec["adjoint_bounds_ok"] is True
    assert rec["volterra_decreasing"] is True
    assert len(rec["routes"]) == 2
    assert set(rec["routes"]) <= {"normal", "abnormal", "normal-degraded"}


def test_inline_problem_roundtrip(tmp_path):
    text = """
[problem]
name = myball
inline = true
dim = 2
variant = ball
radius = 1.5
drift = rotation
drift_scale = 0.2
kernel = none
x0 = 1 0
horizon = 1.0
state_box_lo = -4 -4
state_box_hi = 4 4
terminal = quadratic
terminal_target = 0 0
running = quadratic

[meshes]
k = 6
"""
    cfg = load_config(_write(tmp_path, text))
    prob = cfg.entry.problem
    assert prob.name == "myball" and prob.dim == 2
    assert prob.fmap.radius == 1.5
    assert prob.kernel.is_zero
    # auto-derived constants: sup |Ax| over the box + r, and |A|
    assert prob.m_F == pytest.approx(0.2 * np.linalg.norm([4, 4]) + 1.5)
    assert prob.l_F == pytest.approx(0.2)


def test_converge_degenerate_kernel_columns(tmp_path):
    # kernel-free problem: the memory-adjoint column reduces to the classical
    # adjoint defect and everything stays finite
    cfgp = _write(tmp_path, """
[problem]
name = ball_control_lq

[meshes]
k = 6, 12

[run]
seed = 1
output_dir = {out}
label = ball
""".format(out=tmp_path / "out"))
    assert main(["converge", cfgp]) == 0
    lines = (tmp_path / "out" / "ball_converge.csv").read_text().splitlines()
    for row in lines[2:]:
        vals = row.split(",")
        assert vals[-1] == ""  # stationary
        assert all(np.isfinite(float(v)) for v in vals[:-1])


def test_audit_deterministic_bytes(tmp_path):
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out") +
                  "\n[audit]\nn_instances = 40\nmesh_k = 10\n")
    assert main(["audit", cfgp]) == 0
    first = (tmp_path / "out" / "t_audit.csv").read_bytes()
    assert main(["audit", cfgp]) == 0
    assert first == (tmp_path / "out" / "t_audit.csv").read_bytes()


def test_non_finite_state_exits_with_its_stage_and_node(tmp_path, monkeypatch, capsys):
    # cos_t with a drift that returns nan after t = 0.5
    def nan_after_half(t, x):
        return np.full(np.size(x), np.nan) if t > 0.5 else np.zeros(np.size(x))

    def load_nan_drift(path):
        cfg = load_config(path)
        problem = replace(cfg.entry.problem, fmap=Singleton(nan_after_half))
        cfg.entry = CatalogEntry(problem, cfg.entry.reference)
        return cfg

    monkeypatch.setattr(cli, "load_config", load_nan_drift)
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    for command, stage in (("simulate", "simulate"), ("converge", "approximate_arc")):
        assert main([command, cfgp]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {stage}: non-finite state at node ")
        assert "k=" in err and "Traceback" not in err
    # simulate runs at the finest mesh, k = 16: node 9 is t = 0.5625
    assert main(["simulate", cfgp]) == 3
    assert "node 9 of k=16 (t=0.5625)" in capsys.readouterr().err


def test_non_finite_gradient_and_multiplier_exit_3(tmp_path, monkeypatch, capsys):
    # cos_t with a running cost whose v-gradient is nan at t = 0.5
    def load_nan_cost(path):
        cfg = load_config(path)
        run = per_row_cost(lambda t, x, v: 0.0, lambda t, x, v: np.zeros(1),
                           lambda t, x, v: np.full(1, np.nan) if t == 0.5 else np.zeros(1))
        cfg.entry = CatalogEntry(replace(cfg.entry.problem, running_cost=run),
                                 cfg.entry.reference)
        return cfg

    monkeypatch.setattr(cli, "load_config", load_nan_cost)
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    for command, stage in (("converge", "cost_gradient"),
                           ("conditions", "adjoint_solve_smooth")):
        assert main([command, cfgp]) == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure: {stage}: non-finite state at node 4 of k=8 (t=0.5)\n"


def _refuse(*args, **kwargs):
    raise AssertionError("took the O(k^2) row rule or per-time panel sums")


def test_shipped_kernel_converges_without_the_quadratic_paths(tmp_path, monkeypatch):
    # damped_volterra is exponential: w, the tensors, the coupling and both
    # continuous integrals all take the running sums
    import idikit.kernel
    monkeypatch.setattr(idikit.kernel, "_row_integrals", _refuse)
    monkeypatch.setattr(idikit.kernel, "_panel_sums", _refuse)
    cfgp = _write(tmp_path, BASE.replace("cos_t", "damped_volterra")
                  .replace("k = 8, 16", "k = 20, 40").format(out=tmp_path / "out"))
    assert main(["converge", cfgp]) == 0
    assert len((tmp_path / "out" / "t_converge.csv").read_text().splitlines()) == 4


def test_generic_kernel_takes_the_row_rule_and_panel_sums(tmp_path, monkeypatch):
    import idikit.kernel
    calls = {"_row_integrals": 0, "_panel_sums": 0}
    for name in calls:
        def counted(*args, _f=getattr(idikit.kernel, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(idikit.kernel, name, counted)
    entry = catalog.get("damped_volterra")
    generic = idikit.kernel.VolterraKernel.convolution(lambda u: -np.exp(-u), 1.0, 1.0)
    entry = CatalogEntry(replace(entry.problem, kernel=generic), entry.reference)
    monkeypatch.setattr(cli, "load_config", lambda path: replace(
        load_config(path), entry=entry))
    cfgp = _write(tmp_path, BASE.replace("k = 8, 16", "k = 6").format(out=tmp_path / "out"))
    assert main(["converge", cfgp]) == 0
    assert calls["_row_integrals"] > 0 and calls["_panel_sums"] > 0


def test_zero_reference_tolerance_is_honoured(tmp_path):
    # feas_tol = 0 is a tolerance of its own, not "unset": the closed-form
    # cos_t reference misses the inclusion by round-off, so it is rejected
    from idikit.dynamics import InfeasibleReferenceError
    cfgp = _write(tmp_path, BASE.format(out=tmp_path / "out").replace(
        "k = 8, 16", "k = 4") + "\n[reference]\nfeas_tol = 0\n")
    assert cli._reference_for(load_config(cfgp))[1] == 0.0
    with pytest.raises(InfeasibleReferenceError):
        cli.run_convergence_study(load_config(cfgp))
    assert main(["converge", cfgp]) == 5


def test_non_finite_problem_numbers_are_config_errors(tmp_path):
    text = MEMORY.format(out=tmp_path / "out")
    for field, line in (("radius", "radius = 1.5"), ("drift_scale", "drift_scale = 0.2"),
                        ("kernel_rate", "kernel_rate = 1.0")):
        for value in ("nan", "inf", "-inf"):
            cfgp = _write(tmp_path, text.replace(line, f"{field} = {value}"))
            with pytest.raises(ConfigError, match=f"problem.{field}"):
                load_config(cfgp)
    for field in ("epsilon", "m_F", "l_F", "beta", "alpha"):
        cfgp = _write(tmp_path, text.replace("horizon = 1.0",
                                             f"horizon = 1.0\n{field} = nan"))
        with pytest.raises(ConfigError, match=f"problem.{field}"):
            load_config(cfgp)
    for value in ("nan", "inf"):
        catalog_cfg = _write(tmp_path, f"[problem]\nname = cos_t\nm_F = {value}\n")
        with pytest.raises(ConfigError, match="problem.m_F"):
            load_config(catalog_cfg)
    # both used to load: radius = nan stopped at node 0 (exit 3), epsilon =
    # nan ran to exit 0
    assert main(["converge", _write(tmp_path, text.replace(
        "radius = 1.5", "radius = nan"))]) == 2
    assert main(["converge", _write(tmp_path, text.replace(
        "horizon = 1.0", "horizon = 1.0\nepsilon = nan"))]) == 2


MEMORY_CONTROL = """
[problem]
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

[run]
output_dir = {out}
label = mc
"""


def test_endpoint_outside_its_set_exits_4(tmp_path, capsys):
    # without a solve the approximation ends outside the inflated ball, so
    # the transversality check has no normal cone to measure against
    cfgp = _write(tmp_path, MEMORY_CONTROL.format(out=tmp_path / "out"))
    assert main(["conditions", cfgp]) == 4
    err = capsys.readouterr().err
    assert err == "endpoint error: endpoint outside the inflated set\n"


# an inline problem with memory whose reference is simulated on a fine mesh
SIMULATED = """
[problem]
name = simulated
inline = true
dim = 2
{body}
drift = rotation
drift_scale = 0.2
kernel = identity_decay
x0 = 1 0
horizon = 1.0
state_box_lo = -4 -4
state_box_hi = 4 4

[meshes]
k = 4, 8

[run]
output_dir = {out}
label = sim
"""


def test_simulated_reference_passes_the_gate_of_every_mesh(tmp_path):
    # a small ball's reference misses the inclusion more on the coarse
    # mesh than on the fine one; the gate covers both
    from idikit.dynamics import approximate_arc, feasibility_residual
    cfg = load_config(_write(tmp_path, SIMULATED.format(
        body="variant = ball\nradius = 0.01", out=tmp_path / "out")))
    reference, feas_tol = cli._reference_for(cfg)
    horizon = cfg.entry.problem.horizon
    res = [feasibility_residual(cfg.entry.problem, reference,
                                TimeMesh.uniform(k, horizon)) for k in cfg.mesh_ks]
    assert res[0] > 2.0 * res[-1] and feas_tol == 2.0 * max(res)
    for k in cfg.mesh_ks:
        approximate_arc(cfg.entry.problem, reference, TimeMesh.uniform(k, horizon),
                        feas_tol=feas_tol)


def test_problems_the_run_cannot_check_exit_5(tmp_path, capsys):
    # a singleton's simulated reference misses the cone gate of the Volterra
    # residuals; a flat polytope has no facet normals for its cones
    for body, error in (("variant = singleton", "InfeasiblePointError"),
                        ("variant = polytope\nvertices = 0 0; 1 1; 2 2",
                         "SetValuedError")):
        cfgp = _write(tmp_path, SIMULATED.format(body=body, out=tmp_path / "out"))
        for command in ("converge", "conditions"):
            assert main([command, cfgp]) == 5
            err = capsys.readouterr().err
            assert err.startswith(f"{error}: ") and err.count("\n") == 1
