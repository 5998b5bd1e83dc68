import ast
import math
from pathlib import Path

import numpy as np
import pytest

from idikit import catalog
from idikit.config import load_config
from idikit.dynamics import feasibility_residual
from idikit.mesh import TimeMesh


def test_names_stable():
    assert catalog.names() == ["ball_control_lq", "cos_t", "damped_volterra",
                               "polytope_endpoint"]
    with pytest.raises(KeyError):
        catalog.get("nope")


@pytest.mark.parametrize("name", catalog.names())
def test_reference_arcs_exactly_feasible(name):
    entry = catalog.get(name)
    prob, ref = entry.problem, entry.reference
    assert np.allclose(ref.eval(0.0), prob.x0, atol=1e-12)
    res = feasibility_residual(prob, ref, TimeMesh.uniform(24, prob.horizon))
    assert res < 1e-9, name
    assert prob.omega.contains(ref.eval(prob.horizon), tol=1e-9)


@pytest.mark.parametrize("name", catalog.names())
def test_declared_constants_hold_on_samples(name):
    entry = catalog.get(name)
    prob = entry.problem
    rng = np.random.default_rng(17)
    lo, hi = prob.state_box
    for _ in range(200):
        t = rng.uniform(0, prob.horizon)
        s = rng.uniform(0, t) if t > 0 else 0.0
        x = rng.uniform(lo, hi)
        # velocity-set bound and drift Lipschitz modulus
        c = prob.fmap.center(t, x)
        assert np.linalg.norm(c) + prob.fmap.body_radius() <= prob.m_F + 1e-9
        assert np.linalg.norm(prob.fmap.jacobian(t, x), 2) <= prob.l_F + 1e-9
        # kernel growth and Jacobian bounds on the triangle
        g = prob.kernel.eval(t, s, x)
        assert np.linalg.norm(g) <= prob.beta * (1 + np.linalg.norm(x)) + 1e-9
        assert np.linalg.norm(prob.kernel.jac(t, s, x), 2) <= prob.alpha + 1e-9


def test_reference_derivatives_consistent():
    # central differences of the closed forms match the derivative oracles
    for name in catalog.names():
        entry = catalog.get(name)
        ref = entry.reference
        for t in np.linspace(0.05, entry.problem.horizon - 0.05, 7):
            fd = (ref.eval(t + 1e-6) - ref.eval(t - 1e-6)) / 2e-6
            assert np.allclose(ref.derivative(t), fd, atol=1e-7), name


def test_damped_volterra_second_order_oracle():
    # the closed form satisfies x'' + x' + x = 0 and the memory equation
    entry = catalog.get("damped_volterra")
    ref = entry.reference
    for t in (0.2, 0.9, 1.7):
        h = 1e-5
        x = ref.eval(t)[0]
        dx = ref.derivative(t)[0]
        ddx = (ref.derivative(t + h)[0] - ref.derivative(t - h)[0]) / (2 * h)
        assert abs(ddx + dx + x) < 1e-6


def test_polytope_reference_is_its_closed_form(monkeypatch):
    # x(t) = A^{-1} (e^{At} - I) dev, bit for bit, with A inverted once
    A = np.array([[0.0, 0.2], [-0.2, 0.0]])
    dev = np.array([0.45, 0.45])
    Ainv = np.linalg.inv(A)
    entry = catalog.get("polytope_endpoint")
    inversions = []
    monkeypatch.setattr(np.linalg, "inv",
                        lambda M: inversions.append(M) or Ainv)
    for t in np.linspace(0.0, 1.0, 9):
        c, s = math.cos(0.2 * t), math.sin(0.2 * t)
        want = Ainv @ (np.array([[c, s], [-s, c]]) - np.eye(2)) @ dev
        assert np.array_equal(entry.reference.eval(t), want)
    assert inversions == []


# each catalog problem as the inline parts of the README's table
TWINS = {
    "cos_t": """variant = singleton
kernel = negative_identity
dim = 1
x0 = 1
horizon = 1.0
state_box_lo = -1.5
state_box_hi = 1.5
terminal = quadratic
""",
    "damped_volterra": """variant = singleton
kernel = identity_decay
kernel_rate = 1.0
dim = 1
x0 = 1
horizon = 2.0
state_box_lo = -1.5
state_box_hi = 1.5
terminal = quadratic
""",
    "ball_control_lq": """variant = ball
radius = 2
drift = rotation
drift_scale = 0.3
dim = 2
x0 = 1 0
horizon = 1.0
epsilon = 4
state_box_lo = -5 -5
state_box_hi = 5 5
m_F = 4.121320343559643
terminal = quadratic
running = quadratic
""",
    "polytope_endpoint": """variant = polytope
vertices = 0 0; 1 0; 0 1
drift = rotation
drift_scale = 0.2
dim = 2
x0 = 0 0
horizon = 1.0
epsilon = 4
state_box_lo = -3 -3
state_box_hi = 3 3
terminal = quadratic
terminal_target = 0.8 0.1
running = quadratic
running_x_weight = 0
omega = ball
omega_center = 0.4918561941460941 0.4021557944316814
omega_radius = 0.35
""",
}


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _parts(prob):
    """Every part of a problem the grammar sets, as bytes, with the costs
    at one state and velocity."""
    fmap, kern, omega = prob.fmap, prob.kernel, prob.omega
    x, v = np.linspace(0.3, 0.7, prob.dim), np.linspace(-0.4, 0.2, prob.dim)
    body = getattr(fmap, "radius", getattr(fmap, "vertices", 0.0))
    ends = (omega.center, omega.radius) if hasattr(omega, "center") else ()
    return (type(fmap), kern.is_zero, kern._exp, type(omega), *_bits(
        fmap.jacobian(0.0, prob.x0), body, prob.x0, prob.horizon,
        *prob.state_box, prob.epsilon, *ends, prob.m_F, prob.l_F, prob.beta,
        prob.alpha, prob.terminal_cost.value(x), prob.terminal_cost.grad(x),
        prob.running_cost.value(0.5, x, v), prob.running_cost.grad_x(0.5, x, v),
        prob.running_cost.grad_v(0.5, x, v)))


@pytest.mark.parametrize("name", catalog.names())
def test_each_catalog_problem_is_its_inline_twin(name, tmp_path):
    ini = tmp_path / f"{name}.ini"
    ini.write_text(f"[problem]\nname = {name}\ninline = true\n{TWINS[name]}",
                   encoding="utf-8")
    assert _parts(load_config(str(ini)).entry.problem) == _parts(catalog.get(name).problem)


SRC = Path(__file__).resolve().parents[1] / "src" / "idikit"


def _vocabulary_sites(tree):
    """Lines of each ``VolterraKernel.exponential`` call and of each literal
    of the rotation matrix [[0, 1], [-1, 0]] or its transpose."""
    found = {"exponential": [], "rotation": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "exponential" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "VolterraKernel":
            found["exponential"].append(node.lineno)
        elif isinstance(node, (ast.List, ast.Tuple)):
            try:
                m = np.array(ast.literal_eval(node), dtype=float)
            except (ValueError, TypeError):
                continue
            if m.shape == (2, 2) and np.array_equal(np.abs(m), [[0, 1], [1, 0]]) \
                    and m[0, 1] == -m[1, 0]:
                found["rotation"].append(node.lineno)
    return {what: sorted(lines) for what, lines in found.items()}


def test_the_grammar_vocabulary_is_written_once():
    # the memory kernels and the rotation drift are built in catalog.py
    # alone, which the INI loader and the catalog problems share
    sites = {"exponential": [], "rotation": []}
    for path in sorted(SRC.glob("*.py")):
        for what, lines in _vocabulary_sites(ast.parse(path.read_text(encoding="utf-8"))).items():
            sites[what] += [(path.name, line) for line in lines]
    for what, where in sites.items():
        assert {f for f, _ in where} <= {"catalog.py", "kernel.py"}, (what, where)
        assert len(where) == 1, (what, where)


def test_the_vocabulary_finder_sees_each_form():
    code = ("a = VolterraKernel.exponential(-1.0, r, beta=1.0, alpha=1.0)\n"
            "b = s * np.array([[0.0, 1.0], [-1.0, 0.0]])\n"
            "c = ((0, -1), (1, 0))\n"
            "ok = [[1.0, 0.0], [0.0, 1.0]], [[0, 1], [1, 0]], x.exponential(1.0), [s, 1]\n")
    assert _vocabulary_sites(ast.parse(code)) == {"exponential": [1], "rotation": [2, 3]}
