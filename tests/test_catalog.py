import math

import numpy as np
import pytest

from idikit import catalog
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
