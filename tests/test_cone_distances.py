"""The stacked graph-normal-cone distances against the per-node oracle.

``pair_distances`` has a closed form per cone kind; ``oracles.pair_distance``
solves one least-squares or NNLS problem per row of the stack.  Both are
held within 1e-12 relative to |q|, the size of the query pair.
"""

import numpy as np
import pytest

import oracles
from idikit.setvalued import (BallOffset, GraphNormalCone, PolytopeOffset,
                              SetValuedError, Singleton, graph_normal_cone,
                              pair_distances)

RTOL = 1e-12
KINDS = ("zero", "subspace", "ray", "polyhedral")


def _unit(rng, shape):
    a = rng.standard_normal(shape)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _generator_sets(rng, n):
    """Generator rows shared by several cones: generic sets of 1 to n+1
    rows, and linearly dependent ones."""
    a, b = _unit(rng, (2, n))
    sets = [_unit(rng, (g, n)) for g in range(1, n + 2)]
    sets += [np.array([a, -a]), np.array([a, 2.0 * a])]
    if n > 1:
        sets.append(np.array([a, b, a + b]))
    return sets


def _cones(rng, n, N, jacobian):
    """A stack of N rows of random kinds; ``jacobian`` is "shared" (one
    (n, n) matrix, as a map built with ``linear`` gives), "per_row" or
    "zero".  The facets are the generator sets one after another, and a
    polyhedral row takes one whole set."""
    sets = _generator_sets(rng, n)
    ends = np.cumsum([len(g) for g in sets])
    if jacobian == "per_row":
        J = rng.standard_normal((N, n, n))
    else:
        J = rng.standard_normal((n, n)) if jacobian == "shared" else np.zeros((n, n))
    kind = rng.choice(KINDS, size=N)
    direction = np.zeros((N, n))
    active = np.zeros((N, ends[-1]), dtype=bool)
    for i in np.flatnonzero(kind == "ray"):
        direction[i] = _unit(rng, n)
    for i in np.flatnonzero(kind == "polyhedral"):
        g = rng.integers(len(sets))
        active[i, ends[g] - len(sets[g]):ends[g]] = True
    return GraphNormalCone(kind, J, direction, np.concatenate(sets), active)


def _queries(rng, cones, n):
    """Random pairs, a quarter of them moved into their cone (distance 0)."""
    Qx, Qv = rng.standard_normal((2, len(cones), n))
    for i in np.flatnonzero(rng.random(len(cones)) < 0.25):
        u = oracles.project_u(oracles.cone_row(cones, i), Qv[i])
        Qx[i], Qv[i] = -cones.row_jacobian(i).T @ u, u
    return Qx, Qv


def _assert_matches_oracle(cones, Qx, Qv, d, U):
    for i, (qx, qv, di, u) in enumerate(zip(Qx, Qv, d, U)):
        c = oracles.cone_row(cones, i)
        scale = np.linalg.norm(np.concatenate([qx, qv]))
        want_d, want_u = oracles.pair_distance(c, qx, qv)
        assert abs(di - want_d) <= RTOL * scale, (c.kind, di, want_d)
        assert np.abs(u - want_u).max() <= RTOL * scale, (c.kind, u, want_u)
        # the witness lies in its cone and its pair is at distance d
        assert np.abs(oracles.project_u(c, u) - u).max() <= RTOL * scale
        resid = np.concatenate([qx + c.jacobian.T @ u, qv - u])
        assert abs(np.linalg.norm(resid) - di) <= RTOL * scale


@pytest.mark.parametrize("jacobian", ["shared", "per_row", "zero"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 17, 2000])
def test_stacked_distances_match_the_per_node_oracle(n, N, jacobian):
    rng = np.random.default_rng(1000 * n + N + len(jacobian))
    cones = _cones(rng, n, N, jacobian)
    Qx, Qv = _queries(rng, cones, n)
    d, U = pair_distances(cones, Qx, Qv)
    assert d.shape == (N,) and U.shape == (N, n)
    _assert_matches_oracle(cones, Qx, Qv, d, U)


@pytest.mark.parametrize("jacobian", ["shared", "per_row"])
def test_each_row_is_its_one_row_case(jacobian):
    rng = np.random.default_rng(5)
    cones = _cones(rng, 2, 200, jacobian)
    Qx, Qv = _queries(rng, cones, 2)
    d, U = pair_distances(cones, Qx, Qv)
    for i in range(len(cones)):
        di, ui = pair_distances(cones[[i]], Qx[i:i + 1], Qv[i:i + 1])
        assert di[0] == d[i] and np.array_equal(ui[0], U[i])


def test_inputs_are_not_written():
    rng = np.random.default_rng(6)
    cones = _cones(rng, 2, 50, "shared")
    Qx, Qv = _queries(rng, cones, 2)
    before = Qx.copy(), Qv.copy()
    pair_distances(cones, Qx, Qv)
    assert np.array_equal(Qx, before[0]) and np.array_equal(Qv, before[1])


def test_degenerate_bodies_give_subspace_cones():
    # a radius-0 ball and a one-vertex polytope are points: their graph
    # cones are subspaces, as a singleton's are; a flat polytope has no
    # facet normals, which one stacked call names
    A = np.array([[0.3, -1.1], [0.7, 0.2]])
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 2))
    V = X @ A.T + np.array([0.3, -0.2])
    t = np.linspace(0.0, 1.0, 40)
    maps = (BallOffset.linear(A, 0.0),
            PolytopeOffset.linear(A, [[0.3, -0.2]]),
            Singleton.linear(np.zeros((2, 2))))
    for fmap, vv in zip(maps, (X @ A.T, V, np.zeros_like(X))):
        cones = graph_normal_cone(fmap, t, X, vv)
        assert set(cones.kind) == {"subspace"}
        Qx, Qv = rng.standard_normal((2, 40, 2))
        d, U = pair_distances(cones, Qx, Qv)
        _assert_matches_oracle(cones, Qx, Qv, d, U)
    flat = PolytopeOffset.linear(A, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(SetValuedError, match="full space"):
        graph_normal_cone(flat, t, X, X @ A.T + 0.5)


def test_a_cube_has_one_generator_per_facet():
    # a square face is one facet, not the two triangles a triangulated hull
    # gives: a vertex row has 3 generators and an edge row 2
    A = np.array([[0.1, -0.3, 0.0], [0.2, 0.0, 0.4], [0.0, 0.5, -0.1]])
    F = PolytopeOffset.linear(A, np.array(np.meshgrid(*[[0.0, 1.0]] * 3)).reshape(3, -1).T)
    body = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.5], [1.0, 0.5, 0.5],
                     [0.5, 0.5, 0.5]] * 10)
    rng = np.random.default_rng(12)
    X = rng.standard_normal(body.shape)
    cones = graph_normal_cone(F, np.zeros(len(body)), X, X @ A.T + body)
    assert cones.facets.shape == (6, 3)
    assert [len(cones.generators(i)) for i in range(3)] == [3, 2, 1]
    assert cones.kind[3] == "zero"
    Qx, Qv = rng.standard_normal((2,) + body.shape)
    d, U = pair_distances(cones, Qx, Qv)
    _assert_matches_oracle(cones, Qx, Qv, d, U)


def test_polytope_cones_from_a_trajectory_stack():
    # rows on facets and at vertices of a triangle, one shared A
    A = np.array([[0.0, 0.2], [-0.2, 0.0]])
    F = PolytopeOffset.linear(A, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(8)
    body = np.array([[0.5, 0.5], [0.0, 0.3], [0.4, 0.0], [0.0, 0.0],
                     [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]] * 30)
    X = rng.standard_normal(body.shape)
    cones = graph_normal_cone(F, np.zeros(len(body)), X, X @ A.T + body)
    assert set(cones.kind) == {"polyhedral", "zero"}
    Qx, Qv = rng.standard_normal((2,) + body.shape)
    d, U = pair_distances(cones, Qx, Qv)
    _assert_matches_oracle(cones, Qx, Qv, d, U)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_project_u_matches_nnls(n):
    rng = np.random.default_rng(9 + n)
    for gens in _generator_sets(rng, n):
        cone = GraphNormalCone(np.array(["polyhedral"]), rng.standard_normal((n, n)),
                               np.zeros((1, n)), gens, np.ones((1, len(gens)), bool))
        for b in rng.standard_normal((20, n)):
            got = cone.project_u(b, 0)
            want = oracles.project_u(oracles.cone_row(cone, 0), b)
            assert np.abs(got - want).max() <= RTOL * np.linalg.norm(b)
            assert np.linalg.norm(cone.project_u(got, 0) - got) <= 1e-9
