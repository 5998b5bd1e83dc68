import numpy as np
import pytest

from idikit.mesh import (CallableArc, MeshError, PiecewiseConstantArc,
                         PiecewiseLinearArc, TimeMesh, average_operator,
                         l2_distance, sup_distance, w12_distance)
from idikit import mesh as mesh_module
from oracles import round_down_map


def test_gauss_rule_is_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(mesh_module.GAUSS_ORDER)
    assert mesh_module._GAUSS_X.tobytes() == x.tobytes()
    assert mesh_module._GAUSS_W.tobytes() == w.tobytes()


def test_round_down_basics():
    mesh = TimeMesh.uniform(4, 1.0)
    assert round_down_map(mesh, 0.3) == 0.25
    assert round_down_map(mesh, 0.0) == 0.0
    assert round_down_map(mesh, 1.0) == 1.0  # last node is a fixed point
    with pytest.raises(MeshError):
        round_down_map(mesh, 1.5)
    with pytest.raises(MeshError):
        round_down_map(mesh, -0.1)


def test_round_down_idempotent_monotone():
    mesh = TimeMesh.from_nodes([0.0, 0.1, 0.45, 0.6, 1.0])
    grid = np.linspace(0, 1, 97)
    vals = [round_down_map(mesh, t) for t in grid]
    assert all(round_down_map(mesh, v) == v for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_mesh_validation_and_refine():
    with pytest.raises(MeshError):
        TimeMesh.from_nodes([0.1, 0.5, 1.0])  # must start at 0
    with pytest.raises(MeshError):
        TimeMesh.from_nodes([0.0, 0.5, 0.5, 1.0])  # strictly increasing
    for nodes in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(MeshError, match="finite"):
            TimeMesh.from_nodes(nodes)
    for horizon in (np.nan, np.inf, 0.0):
        with pytest.raises(MeshError, match="horizon"):
            TimeMesh.uniform(4, horizon)
    mesh = TimeMesh.from_nodes([0.0, 0.2, 1.0])
    assert not mesh.satisfies_uniformity_cap
    fine = mesh.refine()
    assert fine.max_step == mesh.max_step / 2  # exact halving
    assert np.allclose(fine.nodes[::2], mesh.nodes)
    assert TimeMesh.uniform(7, 2.0).satisfies_uniformity_cap


def test_average_operator_constant_and_linear():
    mesh = TimeMesh.uniform(3, 1.5)
    const = average_operator(mesh, lambda t: np.array([2.5, -1.0]))
    assert np.allclose(const.values, [[2.5, -1.0]] * 3)

    mesh2 = TimeMesh.uniform(2, 1.0)
    lin = average_operator(mesh2, lambda t: np.array([t]))
    assert np.allclose(lin.values[:, 0], [0.25, 0.75])  # cell midpoints


def test_average_operator_quadratic_single_cell():
    # integral of t^2 over [0,1] is 1/3
    mesh = TimeMesh.uniform(1, 1.0)
    avg = average_operator(mesh, lambda t: np.array([t * t]))
    assert abs(avg.values[0, 0] - 1.0 / 3.0) < 1e-14


def test_average_operator_linearity():
    mesh = TimeMesh.from_nodes([0.0, 0.3, 0.7, 1.0])
    y = lambda t: np.array([np.sin(t), t])
    z = lambda t: np.array([np.cos(2 * t), 1.0])
    lhs = average_operator(mesh, lambda t: 3.0 * y(t) + z(t))
    rhs = 3.0 * average_operator(mesh, y).values + average_operator(mesh, z).values
    assert np.allclose(lhs.values, rhs, atol=1e-13)


def test_average_operator_converges_on_sin():
    # L2 gap of the cell-average projection shrinks under refinement
    gaps = []
    for k in (4, 8, 16, 32):
        mesh = TimeMesh.uniform(k, 1.0)
        avg = average_operator(mesh, lambda t: np.array([np.sin(t)]))
        gaps.append(l2_distance(mesh, avg, lambda t: np.array([np.sin(t)])))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02


def test_l2_distance_cases():
    mesh = TimeMesh.uniform(4, 1.0)
    f = lambda t: np.array([t, 1 - t])
    assert l2_distance(mesh, f, f) == 0.0
    one = lambda t: np.array([1.0])
    zero = lambda t: np.array([0.0])
    assert abs(l2_distance(mesh, zero, one) - 1.0) < 1e-14
    ramp = lambda t: np.array([t])
    assert abs(l2_distance(mesh, ramp, zero) - 1.0 / np.sqrt(3.0)) < 1e-14


def test_piecewise_linear_arc_eval_and_derivative():
    mesh = TimeMesh.uniform(4, 1.0)
    vals = np.array([[0.0], [1.0], [0.5], [0.5], [2.0]])
    arc = PiecewiseLinearArc(mesh, vals)
    for j, t in enumerate(mesh.nodes):
        assert np.allclose(arc.eval(t), vals[j])
    assert np.allclose(arc.eval(0.125), [0.5])
    assert np.allclose(arc.derivative(0.1), [4.0])
    assert np.allclose(arc.derivative(0.9), [6.0])


def test_piecewise_constant_convention():
    mesh = TimeMesh.uniform(2, 1.0)
    arc = PiecewiseConstantArc(mesh, [[1.0], [2.0]], value_at_zero=[0.0])
    assert arc.eval(0.0) == 0.0
    assert arc.eval(0.25) == 1.0
    assert arc.eval(0.5) == 1.0  # value on (t_j, t_{j+1}] comes from the left cell
    assert arc.eval(0.75) == 2.0
    assert arc.eval(1.0) == 2.0


def test_w12_distance_interpolant_and_shift():
    mesh = TimeMesh.uniform(5, 1.0)
    slope = np.array([2.0, -1.0])
    lin = lambda t: slope * t
    dlin = lambda t: slope
    arc = PiecewiseLinearArc(mesh, np.array([lin(t) for t in mesh.nodes]))
    sup_e, d_e = w12_distance(mesh, arc, lin, dlin)
    assert sup_e < 1e-14 and d_e < 1e-14

    shift = np.array([0.3, 0.4])
    arc2 = PiecewiseLinearArc(mesh, arc.values + shift)
    sup_e, d_e = w12_distance(mesh, arc2, lin, dlin)
    assert abs(sup_e - 0.5) < 1e-14  # |(0.3, 0.4)| = 0.5
    assert d_e < 1e-14


def test_w12_interpolation_bound_cos():
    # nodal interpolant of cos on k=10: sup error <= h^2/8 * max|cos''| = 0.00125
    mesh = TimeMesh.uniform(10, 1.0)
    arc = PiecewiseLinearArc(mesh, np.array([[np.cos(t)] for t in mesh.nodes]))
    sup_e, d_e = w12_distance(mesh, arc, lambda t: np.array([np.cos(t)]),
                              lambda t: np.array([-np.sin(t)]))
    assert 0.0 < sup_e <= 0.00125
    assert d_e < 0.05


def test_sup_distance_matches_manual_sampling():
    mesh = TimeMesh.uniform(3, 1.0)
    a = lambda t: np.array([t * t])
    b = lambda t: np.array([t])
    got = sup_distance(mesh, a, b)
    assert abs(got - 0.25) < 1e-3  # max of t - t^2 on [0, 1]


# --- arcs take arrays of times ------------------------------------------------

def _arcs(mesh, dim, rng):
    """One arc of each class on ``mesh``, with derivative where it has one."""
    w = rng.normal(size=dim)
    return [
        PiecewiseLinearArc(mesh, rng.normal(size=(mesh.k + 1, dim))),
        PiecewiseConstantArc(mesh, rng.normal(size=(mesh.k, dim)),
                             value_at_zero=rng.normal(size=dim)),
        CallableArc(lambda t: np.cos(np.multiply.outer(t, w)),
                    lambda t: -w * np.sin(np.multiply.outer(t, w))),
    ]


@pytest.mark.parametrize("dim", [1, 2])
def test_array_eval_is_bitwise_the_scalar_eval(dim):
    rng = np.random.default_rng(40 + dim)
    for k in (1, 3, 9):
        inner = np.sort(rng.uniform(0.0, 1.7, k - 1))
        mesh = TimeMesh.from_nodes(np.concatenate([[0.0], inner, [1.7]]))
        T = mesh.horizon
        times = np.concatenate([mesh.nodes, rng.uniform(0.0, T, 25),
                                [-1e-12, -5e-13, 5e-13, T - 5e-13, T + 5e-13, T + 1e-12]])
        for arc in _arcs(mesh, dim, rng):
            methods = [arc.eval, arc.__call__]
            if hasattr(arc, "derivative"):
                methods.append(arc.derivative)
            for f in methods:
                batch = f(times)
                assert batch.shape == (times.size, dim)
                for i, t in enumerate(times):
                    one = f(float(t))
                    assert one.shape == (dim,)
                    assert np.array_equal(batch[i], one), (type(arc).__name__, t)
            for bad in (-2e-12, T + 2e-12, 2 * T):
                if isinstance(arc, CallableArc):
                    continue  # a closed-form arc has no domain
                with pytest.raises(MeshError):
                    arc.eval(bad)
                with pytest.raises(MeshError):
                    arc.eval(np.array([0.5 * T, bad]))


def test_piecewise_linear_arc_ends_within_round_off():
    # times within 1e-12 outside [0, T] continue the end cells' lines
    mesh = TimeMesh.from_nodes([0.0, 0.3, 1.0])
    arc = PiecewiseLinearArc(mesh, [[1.0], [4.0], [0.5]])
    got = arc.eval(np.array([-1e-12, 0.0, 1.0, 1.0 + 1e-12]))[:, 0]
    assert np.allclose(got, [1.0 - 1e-11, 1.0, 0.5, 0.5 - 5e-12], rtol=0, atol=1e-15)
    assert np.array_equal(arc.derivative(np.array([-1e-12, 1.0 + 1e-12]))[:, 0],
                          [10.0, -5.0])


def test_piecewise_constant_array_keeps_value_at_zero_and_left_continuity():
    mesh = TimeMesh.uniform(2, 1.0)
    arc = PiecewiseConstantArc(mesh, [[1.0], [2.0]], value_at_zero=[0.0])
    times = np.array([-1e-12, 0.0, 1e-15, 0.25, 0.5, 0.5 + 1e-15, 0.75, 1.0])
    assert np.array_equal(arc.eval(times)[:, 0], [0, 0, 1, 1, 1, 2, 2, 2])
    default = PiecewiseConstantArc(mesh, [[1.0], [2.0]])  # y_0 at t = 0
    assert np.array_equal(default.eval(np.array([0.0, 0.5]))[:, 0], [1.0, 1.0])


def test_dense_samples_and_sup_distance_match_the_loops():
    rng = np.random.default_rng(3)
    mesh = TimeMesh.from_nodes(np.concatenate([[0.0], np.sort(rng.uniform(0, 2, 6)), [2.0]]))
    chunks = [mesh.nodes]
    for j in range(mesh.k):
        a, b = mesh.nodes[j], mesh.nodes[j + 1]
        chunks.append(a + (b - a) * (np.arange(1, 17) / 17))
    grid = mesh.dense_samples()
    assert np.array_equal(grid, np.sort(np.concatenate(chunks)))
    arc = PiecewiseLinearArc(mesh, rng.normal(size=(mesh.k + 1, 2)))
    ref = CallableArc(lambda t: np.stack([np.sin(t), t * t], axis=-1),
                      lambda t: np.stack([np.cos(t), 2 * t], axis=-1))
    want = max(float(np.linalg.norm(arc.eval(t) - ref.eval(t))) for t in grid)
    assert sup_distance(mesh, arc, ref) == want
