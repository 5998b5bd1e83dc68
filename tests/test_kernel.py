import math
from math import factorial

import numpy as np
import pytest

import oracles

from idikit import catalog
from idikit.config import ConfigError, load_config
from idikit.dynamics import simulate
from idikit.kernel import (TRIANGLE_POINTS, TRIANGLE_WEIGHTS, KernelIndexError,
                           VolterraKernel, _memory_integrals,
                           assemble_tensors, assemble_w, continuous_accumulator,
                           kernel_average_w, mu_tensor, theta_vector,
                           volterra_adjoint_integral, xi_tensor)
from idikit.mesh import (PiecewiseLinearArc, TimeMesh, cell_gauss_points,
                         interval_gauss_points)
from idikit.problem import (CallableArc, ProblemData, RunningCost, TerminalCost,
                            WholeSpace)
from idikit.setvalued import Singleton


def test_triangle_rule_degree_six_exact():
    # guards the hardcoded 12-point rule against transcription slips
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xy = TRIANGLE_POINTS @ verts
    for p in range(7):
        for q in range(7 - p):
            exact = factorial(p) * factorial(q) / factorial(p + q + 2)
            approx = 0.5 * np.sum(TRIANGLE_WEIGHTS * xy[:, 0] ** p * xy[:, 1] ** q)
            assert abs(approx - exact) < 1e-14, (p, q)


def _const_kernel(c):
    return VolterraKernel(lambda t, s, x: np.full(1, c), jac=lambda t, s, x: np.zeros((1, 1)))


def test_kernel_average_zero():
    mesh = TimeMesh.uniform(3, 1.0)
    states = np.zeros((4, 2))
    w = kernel_average_w(VolterraKernel.zero(), mesh, states, 1)
    assert np.allclose(w, 0.0)


def test_kernel_average_constant():
    # g == c: w_j = c * (t_j + h_j / 2)
    c = 1.7
    mesh = TimeMesh.from_nodes([0.0, 0.3, 0.55, 1.0])
    states = np.zeros((4, 1))
    k = _const_kernel(c)
    for j in range(3):
        w = kernel_average_w(k, mesh, states, j)
        expect = c * (mesh.nodes[j] + mesh.steps[j] / 2)
        assert abs(w[0] - expect) < 1e-13


def _riemann_w(gfun, mesh, states, j, n=4000):
    # fine Riemann-sum oracle for the frozen-state double integral
    a, b = mesh.nodes[j], mesh.nodes[j + 1]
    ts = np.linspace(a, b, n, endpoint=False) + (b - a) / (2 * n)
    acc = 0.0
    for t in ts:
        inner = 0.0
        for i in range(j):
            ss = np.linspace(mesh.nodes[i], mesh.nodes[i + 1], 200, endpoint=False)
            ss += (mesh.nodes[i + 1] - mesh.nodes[i]) / 400
            inner += np.mean([gfun(t, s, states[i]) for s in ss]) * (mesh.nodes[i + 1] - mesh.nodes[i])
        ss = np.linspace(a, t, 200, endpoint=False) + (t - a) / 400
        if t > a:
            inner += np.mean([gfun(t, s, states[j]) for s in ss]) * (t - a)
        acc += inner * (b - a) / n
    return acc / (b - a)


def test_kernel_average_frozen_state_hand_integral():
    # g(t,s,x) = x, uniform k=2, T=1, x_0=1, x_1=2, j=1 -> 1.0
    mesh = TimeMesh.uniform(2, 1.0)
    states = np.array([[1.0], [2.0]])
    k = VolterraKernel(lambda t, s, x: np.atleast_1d(x),
                       jac=lambda t, s, x: np.eye(1))
    w = kernel_average_w(k, mesh, states, 1)
    assert abs(w[0] - 1.0) < 1e-13
    oracle = _riemann_w(lambda t, s, x: float(x[0]), mesh, states, 1)
    assert abs(w[0] - oracle) < 1e-3


def test_kernel_average_cell_split_telescopes():
    # refining a cell with duplicated frozen states reproduces the average
    mesh = TimeMesh.uniform(2, 1.0)
    states = np.array([[1.0], [-0.5]])
    k = VolterraKernel(lambda t, s, x: np.atleast_1d((1 + t) * x),
                       jac=lambda t, s, x: np.array([[1.0 + t]]))
    w1 = kernel_average_w(k, mesh, states, 1)

    fine = mesh.refine()
    fine_states = np.repeat(states, 2, axis=0)
    wa = kernel_average_w(k, fine, fine_states, 2)
    wb = kernel_average_w(k, fine, fine_states, 3)
    assert abs(0.5 * (wa[0] + wb[0]) - w1[0]) < 1e-13


def test_xi_tensor_cases():
    mesh = TimeMesh.uniform(2, 1.0)
    states = np.zeros((2, 1))
    zero = xi_tensor(VolterraKernel.zero(), mesh, states, 1, 0)
    assert np.allclose(zero, 0.0)

    ident = VolterraKernel(lambda t, s, x: np.atleast_1d(x),
                           jac=lambda t, s, x: np.eye(1))
    h = 0.5
    assert abs(xi_tensor(ident, mesh, states, 1, 0)[0, 0] - h * h) < 1e-14

    # g = t*s*x: integral over [0.5,1] of t dt * integral over [0,0.5] of s ds
    sep = VolterraKernel(lambda t, s, x: np.atleast_1d(t * s * x),
                         jac=lambda t, s, x: np.array([[t * s]]))
    assert abs(xi_tensor(sep, mesh, states, 1, 0)[0, 0] - 0.375 * 0.125) < 1e-14

    with pytest.raises(KernelIndexError):
        xi_tensor(ident, mesh, states, 0, 0)
    with pytest.raises(KernelIndexError):
        xi_tensor(ident, mesh, states, 1, 1)


def test_mu_tensor_cases():
    mesh = TimeMesh.uniform(2, 1.0)
    states = np.zeros((2, 1))
    assert np.allclose(mu_tensor(VolterraKernel.zero(), mesh, states, 0), 0.0)

    ident = VolterraKernel(lambda t, s, x: np.atleast_1d(x),
                           jac=lambda t, s, x: np.eye(1))
    h = 0.5
    assert abs(mu_tensor(ident, mesh, states, 0)[0, 0] - h * h / 2) < 1e-15

    sep = VolterraKernel(lambda t, s, x: np.atleast_1d(t * s * x),
                         jac=lambda t, s, x: np.array([[t * s]]))
    # integral over [0,1/2] of t * t^2/2 dt = (1/2)^4 / 8
    assert abs(mu_tensor(sep, mesh, states, 0)[0, 0] - 0.0078125) < 1e-15


def test_tensor_norm_bounds():
    # |xi| <= alpha h_i h_j and |mu_j| <= alpha h_j^2 / 2 for |jac| <= alpha
    mesh = TimeMesh.from_nodes([0.0, 0.25, 0.6, 1.0])
    states = np.array([[0.3], [-0.2], [0.1]])
    alpha = 1.0
    k = VolterraKernel(lambda t, s, x: np.atleast_1d(np.sin(t + s) * x),
                       jac=lambda t, s, x: np.array([[np.sin(t + s)]]))
    for j in range(3):
        mu = mu_tensor(k, mesh, states, j)
        assert np.linalg.norm(mu) <= alpha * mesh.steps[j] ** 2 / 2 + 1e-12
    for i in range(1, 3):
        for j in range(i):
            xi = xi_tensor(k, mesh, states, i, j)
            assert np.linalg.norm(xi) <= alpha * mesh.steps[i] * mesh.steps[j] + 1e-12


def test_theta_vector_cases():
    mesh = TimeMesh.uniform(2, 1.0)
    ref = oracles.per_row_arc(lambda t: np.array([np.cos(t)]),
                              lambda t: np.array([-np.sin(t)]))
    slopes = np.array([(np.cos(0.5) - 1.0) / 0.5,
                       (np.cos(1.0) - np.cos(0.5)) / 0.5])[:, None]
    for j in range(2):
        assert np.allclose(theta_vector(mesh, slopes, ref, j), 0.0, atol=1e-15)

    zero_ref = oracles.per_row_arc(lambda t: np.zeros(1), lambda t: np.zeros(1))
    v = np.array([[1.0], [1.0]])
    assert abs(theta_vector(mesh, v, zero_ref, 0)[0] - 0.5) < 1e-15

    mesh10 = TimeMesh.uniform(10, 1.0)
    cos_slopes = np.diff([np.cos(t) for t in mesh10.nodes]) / 0.1
    bumped = (cos_slopes + 0.1)[:, None]
    th = theta_vector(mesh10, bumped, ref, 3)
    assert abs(th[0] - 0.01) < 1e-15  # h * 0.1, the slope part telescopes away


def test_continuous_accumulator_cases():
    k0 = VolterraKernel.zero()
    one = oracles.per_row_arc(lambda t: np.ones(1), lambda t: np.zeros(1))
    assert np.allclose(continuous_accumulator(k0, one, 0.7), 0.0)

    ident = VolterraKernel(lambda t, s, x: np.atleast_1d(x),
                           jac=lambda t, s, x: np.eye(1))
    for t in (0.0, 0.3, 1.0):
        assert abs(continuous_accumulator(ident, one, t)[0] - t) < 1e-12

    neg = VolterraKernel(lambda t, s, x: -np.atleast_1d(x),
                         jac=lambda t, s, x: -np.eye(1))
    cos_arc = oracles.per_row_arc(lambda t: np.array([np.cos(t)]),
                                  lambda t: np.array([-np.sin(t)]))
    for t in (0.25, 0.8, 1.5):
        got = continuous_accumulator(neg, cos_arc, t)[0]
        assert abs(got - (-np.sin(t))) < 1e-10


def test_continuous_accumulator_piecewise_linear_panels():
    # panels align with the arc's kinks, so linear arcs integrate exactly
    mesh = TimeMesh.uniform(4, 1.0)
    arc = PiecewiseLinearArc(mesh, np.array([[t ** 0.5 if t > 0 else 0.0]
                                             for t in mesh.nodes]))
    ident = VolterraKernel(lambda t, s, x: np.atleast_1d(x),
                           jac=lambda t, s, x: np.eye(1))
    t = 0.625
    # exact integral of the piecewise-linear interpolant up to t
    nodes, vals = mesh.nodes, arc.values[:, 0]
    exact = 0.0
    for j in range(mesh.k):
        a, b = nodes[j], min(nodes[j + 1], t)
        if b <= a:
            break
        ya = arc.eval(a)[0]
        yb = arc.eval(b)[0]
        exact += 0.5 * (ya + yb) * (b - a)
    assert abs(continuous_accumulator(ident, arc, t)[0] - exact) < 1e-13


def test_volterra_adjoint_integral_cases():
    const_p = oracles.per_row_arc(lambda t: np.array([2.0, -1.0]),
                                  lambda t: np.zeros(2))
    x_arc = oracles.per_row_arc(lambda t: np.zeros(2), lambda t: np.zeros(2))
    z = volterra_adjoint_integral(VolterraKernel.zero(), x_arc, const_p, 0.3, 1.0)
    assert np.allclose(z, 0.0)

    ident2 = VolterraKernel(lambda t, s, x: np.asarray(x, dtype=float),
                            jac=lambda t, s, x: np.eye(2))
    out = volterra_adjoint_integral(ident2, x_arc, const_p, 0.3, 1.0)
    assert np.allclose(out, 0.7 * np.array([2.0, -1.0]), atol=1e-12)

    neg1 = VolterraKernel(lambda t, s, x: -np.atleast_1d(x),
                          jac=lambda t, s, x: -np.eye(1))
    ramp_p = oracles.per_row_arc(lambda t: np.array([t]), lambda t: np.ones(1))
    x1 = oracles.per_row_arc(lambda t: np.ones(1), lambda t: np.zeros(1))
    got = volterra_adjoint_integral(neg1, x1, ramp_p, 0.5, 1.0)
    assert abs(got[0] - (-0.375)) < 1e-13  # -(1 - 0.25)/2


def test_jacobian_consistency_fd_vs_analytic():
    rng = np.random.default_rng(5)
    k = VolterraKernel(
        lambda t, s, x: np.array([np.sin(x[0]) * t + x[1] * s, x[0] * x[1]]),
        jac=lambda t, s, x: np.array([[np.cos(x[0]) * t, s], [x[1], x[0]]]))
    k_fd = VolterraKernel(k._g)  # finite-difference fallback
    for _ in range(200):
        t, s = rng.uniform(0, 1, 2)
        if s > t:
            t, s = s, t
        x = rng.normal(size=2)
        J, Jfd = k.jac(t, s, x), k_fd.jac(t, s, x)
        assert np.linalg.norm(J - Jfd) <= 1e-6 * (1 + np.linalg.norm(J))


def test_affine_kernel_closed_forms():
    # g = A(t,s) x + b(t,s) with polynomial coefficients: all tensors exact
    A = lambda t, s: np.array([[t + s]])
    bb = lambda t, s: np.array([t * s])
    k = VolterraKernel(lambda t, s, x: A(t, s) @ np.atleast_1d(x) + bb(t, s),
                       jac=lambda t, s, x: A(t, s))
    mesh = TimeMesh.uniform(2, 1.0)
    states = np.array([[1.0], [2.0]])

    # xi^0_1 = int_{1/2}^1 int_0^{1/2} (t+s) ds dt
    # inner: (t+s) over s in [0,1/2] = t/2 + 1/8; outer over t: 3/16 + 1/16
    assert abs(xi_tensor(k, mesh, states, 1, 0)[0, 0] - (3 / 16 + 1 / 16)) < 1e-14

    # mu_0 = int_0^{1/2} int_0^t (t+s) ds dt = int_0^{1/2} (3/2) t^2 dt = 1/16
    assert abs(mu_tensor(k, mesh, states, 0)[0, 0] - 1.0 / 16.0) < 1e-14

    # w_0: (1/h) int_0^{1/2} int_0^t ((t+s)*1 + t s) ds dt
    # inner = t^2 + t^2/2 + t^3/2; integral = (1/8 + 1/16)... compute directly
    from scipy.integrate import dblquad
    val, _ = dblquad(lambda s, t: (t + s) * 1.0 + t * s, 0, 0.5, 0, lambda t: t,
                     epsabs=1e-13)
    got = kernel_average_w(k, mesh, states, 0)[0]
    assert abs(got - val / 0.5) < 1e-12


def test_growth_bound_sampled():
    k = VolterraKernel(lambda t, s, x: -np.exp(-(t - s)) * np.atleast_1d(x),
                       jac=lambda t, s, x: -np.exp(-(t - s)) * np.eye(1),
                       beta=1.0, alpha=1.0)
    rng = np.random.default_rng(1)
    for _ in range(500):
        t = rng.uniform(0, 2)
        s = rng.uniform(0, t) if t > 0 else 0.0
        x = rng.normal(scale=3, size=1)
        g = k.eval(t, s, x)
        assert np.linalg.norm(g) <= k.beta * (1 + np.linalg.norm(x)) + 1e-12


def test_assemble_tensors_shapes_and_tilde():
    entryk = VolterraKernel(lambda t, s, x: -np.atleast_1d(x),
                            jac=lambda t, s, x: -np.eye(1))
    mesh = TimeMesh.uniform(4, 1.0)
    states = np.linspace(1, 2, 5)[:, None]
    vels = np.diff(states, axis=0) / mesh.steps[:, None]
    tensors = assemble_tensors(entryk, mesh, states, vels, states)
    assert tensors.w.shape == (4, 1)
    assert tensors.xi.shape == (5, 4, 1, 1)
    assert np.allclose(tensors.xi[4], 0.0)  # the i = k extension row is zero
    assert np.allclose(tensors.theta, 0.0, atol=1e-15)
    assert tensors.mu.shape == (4, 1, 1)


def test_kernel_average_nonpolynomial_vs_dblquad():
    # adaptive-quadrature oracle on a kernel outside the exactness class
    from scipy.integrate import dblquad
    k = VolterraKernel(
        lambda t, s, x: np.atleast_1d(np.exp(t * s) * np.sin(x[0])),
        jac=lambda t, s, x: np.array([[np.exp(t * s) * np.cos(x[0])]]))
    mesh = TimeMesh.uniform(4, 1.0)
    states = np.array([[0.3], [0.7], [1.1], [0.2]])
    for j in (0, 2, 3):
        got = kernel_average_w(k, mesh, states, j)[0]
        a, b = mesh.nodes[j], mesh.nodes[j + 1]
        total = 0.0
        for i in range(j):
            val, _ = dblquad(lambda s, t: np.exp(t * s) * np.sin(states[i, 0]),
                             a, b, mesh.nodes[i], mesh.nodes[i + 1],
                             epsabs=1e-13)
            total += val
        tri, _ = dblquad(lambda s, t: np.exp(t * s) * np.sin(states[j, 0]),
                         a, b, a, lambda t: t, epsabs=1e-13)
        assert abs(got - (total + tri) / (b - a)) < 1e-10


# --- per-pair scalar oracle ---------------------------------------------------
# One cell pair at a time, pointwise eval/jac only: the rules the batched row
# path must reproduce.

def _rect_oracle(f, t_cell, s_cell):
    """Tensor Gauss integral of f(t, s) over t_cell x s_cell."""
    tq, tw = interval_gauss_points(*t_cell)
    sq, sw = interval_gauss_points(*s_cell)
    return sum(tw[a] * sw[b] * f(tq[a], sq[b])
               for a in range(tq.size) for b in range(sq.size))


def _tri_oracle(f, cell):
    """12-point rule for the integral of f(t, s) over {a <= s <= t <= b}."""
    a, b = cell
    h = b - a
    ts = TRIANGLE_POINTS @ np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    return 0.5 * h * h * sum(wq * f(a + h * tq, a + h * sq)
                             for wq, (tq, sq) in zip(TRIANGLE_WEIGHTS, ts))


def _cell(mesh, j):
    return mesh.nodes[j], mesh.nodes[j + 1]


def _oracle_w(kernel, mesh, states, j):
    acc = _tri_oracle(lambda t, s: kernel.eval(t, s, states[j]), _cell(mesh, j))
    for i in range(j):
        acc = acc + _rect_oracle(lambda t, s: kernel.eval(t, s, states[i]),
                                 _cell(mesh, j), _cell(mesh, i))
    return acc / mesh.steps[j]


def _oracle_xi(kernel, mesh, states, i, j):
    return _rect_oracle(lambda t, s: kernel.jac(t, s, states[j]),
                        _cell(mesh, i), _cell(mesh, j)).T


def _oracle_mu(kernel, mesh, states, j):
    return _tri_oracle(lambda t, s: kernel.jac(t, s, states[j]), _cell(mesh, j)).T


def _inline_kernel(tmp_path, kernel_lines, dim=2):
    cfg = tmp_path / "kernel.ini"
    zeros = " ".join(["0"] * dim)
    cfg.write_text(f"""[problem]
name = inline_kernel
inline = true
dim = {dim}
variant = singleton
{kernel_lines}
x0 = {zeros}
horizon = 1.0
state_box_lo = {" ".join(["-1"] * dim)}
state_box_hi = {" ".join(["1"] * dim)}
""")
    return load_config(str(cfg)).entry.problem.kernel


def _shipped_kernels(tmp_path):
    """The four shipped kernels with a state dimension to test them at."""
    return [
        ("cos_t", catalog.get("cos_t").problem.kernel, 1),
        ("damped_volterra", catalog.get("damped_volterra").problem.kernel, 1),
        ("negative_identity",
         _inline_kernel(tmp_path, "kernel = negative_identity"), 2),
        ("identity_decay",
         _inline_kernel(tmp_path, "kernel = identity_decay\nkernel_rate = 2.5"), 2),
    ]


def _nonlinear_kernel(dim):
    if dim == 1:
        return VolterraKernel(
            lambda t, s, x: np.atleast_1d(np.exp(t * s) * np.sin(x[0])),
            jac=lambda t, s, x: np.array([[np.exp(t * s) * np.cos(x[0])]]))
    return VolterraKernel(
        lambda t, s, x: np.array([np.sin(x[0]) * t + x[1] * s, x[0] * x[1] * (t - s)]),
        jac=lambda t, s, x: np.array([[np.cos(x[0]) * t, s],
                                      [x[1] * (t - s), x[0] * (t - s)]]))


def _random_mesh(rng, k, horizon):
    inner = np.sort(rng.uniform(0.0, horizon, k - 1))
    return TimeMesh.from_nodes(np.concatenate([[0.0], inner, [horizon]]))


def _assert_rel(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


def test_batched_methods_match_pointwise_for_shipped_kernels(tmp_path):
    rng = np.random.default_rng(0)
    for name, kern, dim in _shipped_kernels(tmp_path):
        s = rng.uniform(0, 0.8, 5)
        X = rng.normal(size=(5, dim))
        for t in (0.9, rng.uniform(0.8, 1.0, 5)):
            tt = np.broadcast_to(t, s.shape)
            scalar = np.array([kern.eval(ti, si, xi) for ti, si, xi in zip(tt, s, X)])
            jacs = np.array([kern.jac(ti, si, xi) for ti, si, xi in zip(tt, s, X)])
            assert np.array_equal(kern.eval_batch_s(t, s, X), scalar), name
            assert np.array_equal(kern.jac_batch_s(t, s, X), jacs), name
        # the Jacobian of a(t - s) x is a(t - s) I
        a = kern.eval(0.9, 0.2, np.ones(dim))[0]
        assert np.array_equal(kern.jac(0.9, 0.2, X[0]), a * np.eye(dim)), name


@pytest.mark.parametrize("dim", [1, 2])
def test_row_path_matches_per_pair_oracle(dim, tmp_path):
    rng = np.random.default_rng(10 + dim)
    kernels = [("nonlinear", _nonlinear_kernel(dim))]
    kernels += [(n, k) for n, k, d in _shipped_kernels(tmp_path) if d == dim]
    for name, kern in kernels:
        mesh = _random_mesh(rng, 7, 1.6)
        states = rng.normal(size=(mesh.k + 1, dim))
        vels = rng.normal(size=(mesh.k, dim))
        arc = PiecewiseLinearArc(mesh, states)
        edges = oracles.panel_edges(arc, mesh)
        tensors = assemble_tensors(kern, mesh, states, vels, states)
        _assert_rel(tensors.w, [_oracle_w(kern, mesh, states, j) for j in range(mesh.k)])
        _assert_rel(assemble_w(kern, mesh, states), tensors.w)
        want_xi = np.zeros((mesh.k + 1, mesh.k, dim, dim))
        for i in range(1, mesh.k):
            for j in range(i):
                want_xi[i, j] = _oracle_xi(kern, mesh, states, i, j)
                _assert_rel(xi_tensor(kern, mesh, states, i, j), want_xi[i, j])
        if tensors.xi is not None:  # an exponential kernel keeps its cell sums
            _assert_rel(tensors.xi, want_xi)
        r = np.random.default_rng(dim).normal(size=(mesh.k, dim))
        want = [oracles.memory_coupling(want_xi, j, r) for j in range(mesh.k)]
        sweep = tensors.backward_coupling(r)
        _assert_rel([sweep(j) for j in range(mesh.k - 1, -1, -1)][::-1], want)
        want_mu = [_oracle_mu(kern, mesh, states, j) for j in range(mesh.k)]
        _assert_rel(tensors.mu, want_mu)
        _assert_rel([mu_tensor(kern, mesh, states, j) for j in range(mesh.k)], want_mu)
        for t in (0.05, mesh.nodes[3], 1.37):
            _assert_rel(continuous_accumulator(kern, arc, t),
                        oracles.memory_integral(kern, arc, t, edges))
        for tau in (0.0, mesh.nodes[2], 0.93):
            _assert_rel(volterra_adjoint_integral(kern, arc, arc, tau, mesh.horizon),
                        oracles.adjoint_integral(kern, arc, arc, tau,
                                                 mesh.horizon, edges))


def test_single_cell_memory_comes_from_the_triangle():
    h = 0.1
    mesh = TimeMesh.uniform(1, h)
    states = np.array([[0.7, -1.2], [0.3, 0.4]])
    vels = np.zeros((1, 2))
    neg = VolterraKernel.convolution(lambda u: np.full(np.shape(u), -1.0), 1.0, 1.0)
    damped = VolterraKernel.convolution(lambda u: -np.exp(-u), 1.0, 1.0)
    # int_0^h int_0^t a(t - s) ds dt for a = -1 and a = -exp(-u)
    for kern, tri in ((neg, -h * h / 2), (damped, -(h - 1.0 + np.exp(-h)))):
        tensors = assemble_tensors(kern, mesh, states, vels, states)
        assert tensors.xi.shape == (2, 1, 2, 2)
        assert np.all(tensors.xi == 0.0)
        _assert_rel(tensors.w[0], tri / h * states[0])
        _assert_rel(tensors.mu[0], tri * np.eye(2))


def test_zero_kernel_gives_zero_tensors():
    mesh = TimeMesh.from_nodes([0.0, 0.2, 0.7, 1.0])
    states = np.ones((4, 2))
    tensors = assemble_tensors(VolterraKernel.zero(), mesh, states,
                               np.zeros((3, 2)), states)
    assert tensors.w.shape == (3, 2) and not tensors.w.any()
    assert tensors.xi is None and tensors.cells is None
    assert tensors.mu.shape == (3, 2, 2) and not tensors.mu.any()
    sweep = tensors.backward_coupling(states[1:])
    assert not any(sweep(j).any() for j in (2, 1, 0))


def test_inline_negative_identity_hand_computed_w(tmp_path):
    # uniform k = 2, T = 1, h = 1/2:  w_0 = -x_0 h / 2,  w_1 = -h x_0 - h x_1 / 2
    kern = _inline_kernel(tmp_path, "kernel = negative_identity")
    mesh = TimeMesh.uniform(2, 1.0)
    states = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.0]])
    w = assemble_w(kern, mesh, states)
    assert np.allclose(w[0], [-0.25, -0.5], rtol=0, atol=1e-15)
    assert np.allclose(w[1], [-1.25, -0.75], rtol=0, atol=1e-15)


def test_zero_kernel_stores_no_xi_and_couples_nothing():
    # a zero kernel keeps no (k+1, k, n, n) array; its sweep gives zeros,
    # in turn like the others
    k, n = 1000, 2
    mesh = TimeMesh.uniform(k, 1.0)
    states = np.ones((k + 1, n))
    tensors = assemble_tensors(VolterraKernel.zero(), mesh, states,
                               np.zeros((k, n)), states)
    assert tensors.xi is None
    r = np.random.default_rng(0).standard_normal((k, n))
    sweep = tensors.backward_coupling(r)
    for j in range(k - 1, -1, -1):
        got = sweep(j)
        assert got.shape == (n,) and not got.any()
    with pytest.raises(KernelIndexError):  # past cell 0
        sweep(0)
    with pytest.raises(KernelIndexError):  # cell k - 2 before k - 1
        tensors.backward_coupling(r)(k - 2)


class _CountingArc:
    """A scalar callable that records the times it is called at."""

    def __init__(self, f):
        self.f, self.times = f, []

    def __call__(self, t):
        self.times.append(t)
        return self.f(t)


def test_accumulator_evaluates_the_arc_only_where_it_integrates():
    kern = catalog.get("damped_volterra").problem.kernel
    arc = _CountingArc(lambda t: np.array([math.cos(t)]))
    continuous_accumulator(kern, arc, 0.7)
    assert len(arc.times) == 64 * 4 and 0.0 not in arc.times  # Gauss points only
    for kernel, t in ((VolterraKernel.zero(), 0.7), (kern, 0.0)):
        arc = _CountingArc(lambda t: np.array([1.0, 2.0]))
        out = continuous_accumulator(kernel, arc, t)
        assert arc.times == [0.0]  # one probe, for the state size
        assert out.shape == (2,) and not out.any()


# --- the continuous memory integrals against the walk -------------------------

def _walk_accumulator(kern, arc, times, mesh):
    edges = oracles.panel_edges(arc, mesh)
    return [oracles.memory_integral(kern, arc, t, edges) for t in times]


@pytest.mark.parametrize("dim", [1, 2])
def test_memory_integrals_match_the_walk_on_random_meshes(dim, tmp_path):
    rng = np.random.default_rng(60 + dim)
    kernels = [_nonlinear_kernel(dim)]
    kernels += [kern for _, kern, d in _shipped_kernels(tmp_path) if d == dim]
    w = rng.uniform(0.5, 2.0, dim)
    smooth = CallableArc(lambda t: np.cos(np.multiply.outer(t, w)),
                         lambda t: -w * np.sin(np.multiply.outer(t, w)))
    for k in (1, 4, 11):
        mesh = _random_mesh(rng, k, 1.6)
        fine = mesh.refine().refine().refine()  # a simulated reference's mesh
        arcs = [PiecewiseLinearArc(mesh, rng.normal(size=(k + 1, dim))),
                PiecewiseLinearArc(fine, rng.normal(size=(8 * k + 1, dim))),
                smooth]
        # every cell Gauss point, as the reference sampling asks, and the ends
        times = np.concatenate([[0.0], cell_gauss_points(mesh)[0].ravel(),
                                mesh.nodes[1:]])
        check = np.unique(np.concatenate([[0, 1, times.size - 1],
                                          rng.choice(times.size, 4)]))
        p = PiecewiseLinearArc(mesh, rng.normal(size=(k + 1, dim)))
        for kern in kernels:
            for arc in arcs:
                got = _memory_integrals(kern, arc, times, mesh)
                assert got.shape == (times.size, dim) and not got[0].any()
                _assert_rel(got[check], _walk_accumulator(kern, arc, times[check], mesh))
                for x_arc, q in ((arc, p), (p, arc)):
                    got = volterra_adjoint_integral(kern, x_arc, q, times, 1.6)
                    assert got.shape == (times.size, dim) and not got[-1].any()
                    edges = oracles.panel_edges(q, TimeMesh.uniform(1, 1.6))
                    _assert_rel(got[check], [oracles.adjoint_integral(
                        kern, x_arc, q, tau, 1.6, edges) for tau in times[check]])


def test_mesh_panels_agree_with_uniform_panels_on_closed_forms():
    # the rule the accumulator followed before: 64 uniform panels on [0, t]
    for name in ("damped_volterra", "cos_t"):
        entry = catalog.get(name)
        kern, ref = entry.problem.kernel, entry.reference
        for k in (1, 4, 20, 80):
            mesh = TimeMesh.uniform(k, entry.problem.horizon)
            times = cell_gauss_points(mesh)[0].ravel()[::max(1, k // 10)]
            got = _memory_integrals(kern, ref, times, mesh)
            want = [oracles.memory_integral(kern, ref, t, np.linspace(0.0, t, 65))
                    for t in times]
            _assert_rel(got, want)


def test_accumulator_shares_one_arc_evaluation_across_times():
    kern = catalog.get("damped_volterra").problem.kernel
    calls = _CountingArc(lambda t: np.array([math.cos(t), t]))
    arc = oracles.per_row_arc(calls, lambda t: np.array([-math.sin(t), 1.0]))
    times = np.linspace(0.05, 1.0, 150)  # three blocks of times
    out = continuous_accumulator(kern, arc, times)
    # 63 whole panels of [0, 1], then the cut panel of each time
    assert out.shape == (150, 2) and len(calls.times) == 4 * 63 + 4 * 150
    edges = np.linspace(0.0, 1.0, 65)  # the times count as sampled on [0, 1]
    _assert_rel(out[[0, 77, 149]], [oracles.memory_integral(kern, arc, t, edges)
                                     for t in times[[0, 77, 149]]])


def test_scalar_times_keep_their_shapes():
    kern = catalog.get("damped_volterra").problem.kernel
    mesh = TimeMesh.uniform(4, 1.0)
    arc = PiecewiseLinearArc(mesh, np.ones((5, 2)))
    for kernel in (kern, VolterraKernel.zero()):
        assert continuous_accumulator(kernel, arc, 0.7).shape == (2,)
        assert volterra_adjoint_integral(kernel, arc, arc, 0.3, 1.0).shape == (2,)
        assert not continuous_accumulator(kernel, arc, 0.0).any()
        assert not volterra_adjoint_integral(kernel, arc, arc, 1.0, 1.0).any()
    assert theta_vector(mesh, np.ones((4, 2)), arc, 1).shape == (2,)


# --- the exponential recurrence against the row rule --------------------------

def _memory_problem(kern, x0):
    """Memory-only dynamics x' = w: a zero drift and a point velocity set."""
    dim = len(x0)
    return ProblemData(
        name="memory_only", fmap=Singleton.linear(np.zeros((dim, dim))), kernel=kern,
        x0=x0, horizon=1.6, omega=WholeSpace(), terminal_cost=TerminalCost.zero(),
        running_cost=RunningCost.zero(), m_F=0.0, l_F=0.0, beta=1.0, alpha=1.0,
        state_box=(-np.ones(dim), np.ones(dim)))


@pytest.mark.parametrize("dim", [1, 2])
def test_exponential_path_matches_the_row_rule(dim):
    rng = np.random.default_rng(70 + dim)
    for rate in (0.0, 1.0, 2.5):
        c = -1.3
        kern = VolterraKernel.exponential(c, rate, beta=1.0, alpha=1.0)
        # the same g, but no exponential route: the row rule and the walks
        twin = VolterraKernel.convolution(lambda u: c * np.exp(-rate * u), 1.0, 1.0)
        for k in (1, 2, 11, 200):
            mesh = _random_mesh(rng, k, 1.6)
            traj = simulate(_memory_problem(kern, rng.normal(size=dim)), mesh)
            states = traj.states
            # the march and assemble_w carry one running sum: bit for bit
            assert np.array_equal(traj.w, assemble_w(kern, mesh, states))
            _assert_rel(traj.w, assemble_w(twin, mesh, states))
            vels = rng.normal(size=(k, dim))
            fast = assemble_tensors(kern, mesh, states, vels, states)
            slow = assemble_tensors(twin, mesh, states, vels, states)
            assert fast.xi is None and slow.xi.shape == (k + 1, k, dim, dim)
            _assert_rel(fast.w, slow.w)
            _assert_rel(fast.mu, slow.mu)
            r, r2 = rng.normal(size=(2, k, dim))
            want = [oracles.memory_coupling(slow.xi, j, r) for j in range(k)]
            want2 = [oracles.memory_coupling(slow.xi, j, r2) for j in range(k)]
            down = range(k - 1, -1, -1)
            slow_sweep = slow.backward_coupling(r)
            _assert_rel([slow_sweep(j) for j in down][::-1], want)
            # two running sums side by side
            sweep, sweep2 = fast.backward_coupling(r), fast.backward_coupling(r2)
            both = [(sweep(j), sweep2(j)) for j in down]
            _assert_rel([a for a, _ in both][::-1], want)
            _assert_rel([b for _, b in both][::-1], want2)
            # both continuous integrals against the walks, exact zeros at the ends
            times = np.concatenate([[0.0], cell_gauss_points(mesh)[0].ravel(),
                                    mesh.nodes[1:]])
            check = np.unique(np.concatenate([[0, 1, times.size - 1],
                                              rng.choice(times.size, 2)]))
            p = PiecewiseLinearArc(mesh, rng.normal(size=(k + 1, dim)))
            w = rng.uniform(0.5, 2.0, dim)
            smooth = CallableArc(lambda t: np.cos(np.multiply.outer(t, w)),
                                 lambda t: -w * np.sin(np.multiply.outer(t, w)))
            for arc in (traj.arc(), smooth):
                got = _memory_integrals(kern, arc, times, mesh)
                assert not got[0].any()
                _assert_rel(got[check], _walk_accumulator(twin, arc, times[check], mesh))
                for x_arc, q in ((arc, p), (p, arc)):
                    got = volterra_adjoint_integral(kern, x_arc, q, times, 1.6)
                    assert not got[-1].any()
                    edges = oracles.panel_edges(q, TimeMesh.uniform(1, 1.6))
                    _assert_rel(got[check], [oracles.adjoint_integral(
                        twin, x_arc, q, tau, 1.6, edges) for tau in times[check]])


def test_running_sums_run_in_turn():
    mesh = TimeMesh.uniform(4, 1.0)
    states = np.ones((5, 1))
    for kern in (catalog.get("damped_volterra").problem.kernel, _nonlinear_kernel(1),
                 VolterraKernel.zero()):
        tensors = assemble_tensors(kern, mesh, states, np.ones((4, 1)), states)
        sweep = tensors.backward_coupling(states[1:])
        sweep(3)
        with pytest.raises(KernelIndexError):  # cell 2 skipped
            sweep(1)
        for j in (2, 1, 0):
            sweep(j)
        with pytest.raises(KernelIndexError):  # past cell 0
            sweep(0)


def test_zero_kernel_march_has_exact_zero_memory(monkeypatch):
    # the zero kernel's averages are zeros without a row rule per cell
    import idikit.kernel as kernel_module
    monkeypatch.setattr(kernel_module, "kernel_average_w", None)
    problem = catalog.get("ball_control_lq").problem
    mesh = TimeMesh.from_nodes([0.0, 0.1, 0.45, 0.5, 1.0])
    traj = simulate(problem, mesh)
    assert traj.w.shape == (4, problem.dim)
    assert not traj.w.any() and not np.signbit(traj.w).any()
    w = assemble_w(VolterraKernel.zero(), mesh, traj.states)
    assert w.shape == (4, problem.dim) and not w.any() and not np.signbit(w).any()


def test_exponential_kernel_with_zero_weight_is_zero():
    kern = VolterraKernel.exponential(0.0, 1.0, beta=0.0, alpha=0.0)
    mesh = TimeMesh.from_nodes([0.0, 0.2, 0.7, 1.0])
    states = np.random.default_rng(3).normal(size=(4, 2))
    tensors = assemble_tensors(kern, mesh, states, np.ones((3, 2)), states)
    assert not tensors.w.any() and not tensors.mu.any()
    sweep = tensors.backward_coupling(states[1:])
    assert not any(sweep(j).any() for j in (2, 1, 0))
    arc = PiecewiseLinearArc(mesh, states)
    assert not continuous_accumulator(kern, arc, mesh.nodes).any()
    assert not volterra_adjoint_integral(kern, arc, arc, mesh.nodes, 1.0).any()


def test_exponential_kernel_rejects_growth_and_non_finite_values(tmp_path):
    for c, r in ((-1.0, -0.5), (-1.0, np.nan), (-1.0, np.inf), (np.nan, 1.0),
                 (np.inf, 0.0)):
        with pytest.raises(ValueError):
            VolterraKernel.exponential(c, r, beta=1.0, alpha=1.0)
    # a growing inline kernel would void the declared beta = alpha = 1
    for rate in ("-0.5", "nan", "inf"):
        with pytest.raises(ConfigError, match="problem.kernel_rate"):
            _inline_kernel(tmp_path, f"kernel = identity_decay\nkernel_rate = {rate}")
