"""Property tests of the batched body projections and of linear drifts.

Stacks of points are projected in one call and held to the one-point
oracles in ``tests/oracles.py``: the polytope to the vertex-subset
enumeration with one least-squares solve per subset, the ball to the
radial formula.  The examples are derandomized, so a run is repeatable.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from idikit import catalog
from idikit.setvalued import (BallOffset, PolytopeOffset, SetValuedError,
                              Singleton, _HullFaces, averaged_modulus,
                              distance_and_projection, project_convex_hull)

PROPS = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])
RTOL = 1e-12
TIE = 1e-12  # the width within which distances tie


def _geom_tol(scale):
    """Width to which the projections' geometric properties hold.

    A face whose barycentric coordinates reach -1e-10 is still accepted, so
    a point may sit about 1e-10 * scale outside the hull; and a candidate
    within TIE of the nearest distance d <= 2 * scale may win a tie, which
    puts it up to sqrt(2 d TIE) from the exact projection.
    """
    return 1e-9 * scale + 2.0 * np.sqrt(4.0 * scale * TIE)


coords = st.floats(-3.0, 3.0, allow_subnormal=False)
halves = st.integers(-6, 6).map(lambda i: i / 2.0)


@st.composite
def polytopes(draw):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "grid", "one_vertex", "flat", "duplicates"]))
    if kind == "one_vertex":
        return draw(arrays(float, (1, n), elements=coords))
    m = draw(st.integers(2, 6))
    if kind == "grid":  # exact arithmetic on many faces, so many exact ties
        return draw(arrays(float, (m, n), elements=halves))
    if kind == "flat":  # collinear vertices: every larger face is degenerate
        base = draw(arrays(float, (n,), elements=coords))
        direction = draw(arrays(float, (n,), elements=halves).filter(lambda d: d.any()))
        ts = draw(arrays(float, (m,), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
        return base + ts[:, None] * direction
    V = draw(arrays(float, (m, n), elements=coords))
    if kind == "duplicates":
        picks = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
        V = np.vstack([V, V[picks]])
    return V


@st.composite
def polytope_queries(draw):
    V = draw(polytopes())
    n = V.shape[1]
    N = draw(st.integers(1, 8))
    Z = draw(arrays(float, (N, n), elements=st.floats(-5.0, 5.0, allow_subnormal=False)))
    # points within the 1e-12 tie width of a vertex, where faces tie
    near = draw(st.lists(st.tuples(
        st.integers(0, V.shape[0] - 1),
        arrays(float, (n,), elements=st.floats(-1e-12, 1e-12))), max_size=3))
    rows = [V[i] + offset for i, offset in near]
    return V, np.vstack([Z] + rows)


def _scale(*arrays_):
    return max(1.0, *(float(np.abs(a).max()) for a in arrays_))


def _polytope(V):
    n = V.shape[1]
    return PolytopeOffset(lambda t, x: np.zeros(n), V)


@PROPS
@given(polytope_queries())
def test_batched_polytope_projection_matches_enumeration_oracle(case):
    V, Z = case
    body = _polytope(V)
    got = body.project_body(Z)
    want = np.array([oracles.convex_hull_projection(V, z) for z in Z])
    assert got.shape == Z.shape
    assert np.abs(got - want).max() <= RTOL * _scale(V, Z)
    # one row alone gives the same bits as in the stack
    for z, g in zip(Z, got):
        assert body.project_body(z).tobytes() == g.tobytes()
    assert np.array_equal(project_convex_hull(V, Z), got)


@PROPS
@given(polytope_queries())
def test_polytope_projection_idempotent_nonexpansive_member(case):
    V, Z = case
    body = _polytope(V)
    scale = _scale(V, Z)
    tol = _geom_tol(scale)
    P = body.project_body(Z)
    assert np.abs(body.project_body(P) - P).max() <= tol
    for i in range(len(Z)):
        for j in range(i):
            assert np.linalg.norm(P[i] - P[j]) <= np.linalg.norm(Z[i] - Z[j]) + tol
    # membership: the nearest hull point of p is p; optimality: no vertex
    # lies on the far side of the hyperplane through p normal to z - p
    for z, p in zip(Z, P):
        assert np.linalg.norm(oracles.convex_hull_projection(V, p) - p) <= tol
        assert np.all((V - p) @ (z - p) <= tol * 2.0 * scale)


def test_exact_ties_take_the_lexicographic_point():
    # z sits 5e-13 left of the vertex 0: the vertex and the edge candidate
    # (about z) tie within 1e-12, and the smaller point, the edge's, wins in
    # either vertex order, in the oracle and in the batch
    z = np.array([[-5e-13], [0.25], [3.0]])
    for V in ([[0.0], [1.0]], [[1.0], [0.0]], [[1.0], [0.0], [0.0]]):
        V = np.asarray(V)
        got = _polytope(V).project_body(z)
        want = np.array([oracles.convex_hull_projection(V, row) for row in z])
        assert got.tobytes() == want.tobytes()
        assert -1e-12 < got[0, 0] < 0.0
    # a doubled vertex gives two bit-identical candidates: the first stays
    V = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]])
    z = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(_polytope(V).project_body(z), [[1.0, 1.0], [1.0, 1.0]])


def test_barycentric_coordinates_may_reach_minus_1e_10():
    # on the edge [0, 1] a point 1e-11 outside has coordinate -1e-11 and is
    # its own projection; at 1e-8 outside the edge is rejected and the
    # vertex wins; either end exercises either coordinate
    z = np.array([[-1e-8], [-1e-11], [1.0 + 1e-8], [1.0 + 1e-11]])
    want = np.array([[0.0], [-1e-11], [1.0], [1.0 + 1e-11]])
    for V in ([[0.0], [1.0]], [[1.0], [0.0]]):
        got = _polytope(np.asarray(V)).project_body(z)
        oracle = np.array([oracles.convex_hull_projection(V, row) for row in z])
        assert np.abs(got - want).max() <= 1e-16
        assert np.abs(oracle - want).max() <= 1e-16



# --- the deep-row rule of the hull projection --------------------------------

def _same_bits(a, b):
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


SIMPLICES = {1: [[-0.5], [1.25]],
             2: [[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]],
             3: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.1]]}
PLACEMENTS = {"unit": (1.0, 0.0), "small": (1e-6, 0.0), "large": (1e6, 0.0),
              "translated": (1.0, 1e6)}


def _simplex_rows(hull, V):
    """Rows deep inside, at 0.5x and 2x the margin from each facet, on each
    facet, edge and vertex, outside, far out (|z| = 1e6) and NaN."""
    m, n = V.shape
    inside = np.full(m, 1.0 / m)
    lams = [inside]
    for i in range(m):
        for t in (0.5, 2.0, 0.0):  # lambda_i h_i = t * margin
            lam = np.full(m, 0.0)
            lam[i] = t * hull._margin / hull._heights[i]
            lam[np.arange(m) != i] = (1.0 - lam[i]) / (m - 1)
            lams.append(lam)
        lams.append(np.eye(m)[i])  # vertex
        for j in range(i + 1, m):  # midpoint of an edge
            lams.append((np.eye(m)[i] + np.eye(m)[j]) / 2.0)
    Z = np.array(lams) @ V
    out = 2.0 * V - Z[0]  # beyond each vertex
    far = 1e6 * np.vstack([np.ones(n), -np.eye(n)])
    return np.vstack([Z, out, far, np.full((1, n), np.nan)])


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("n", sorted(SIMPLICES))
def test_simplex_projection_equals_the_ordered_scan(n, placement):
    scale, shift = PLACEMENTS[placement]
    V = scale * np.array(SIMPLICES[n]) + shift
    hull = _HullFaces(V)
    assert hull._heights is not None  # the deep-row rule applies
    Z = _simplex_rows(hull, V)
    got = hull.project(Z)
    assert _same_bits(got, hull._scan(Z))
    assert _same_bits(project_convex_hull(V, Z), got)
    for z, g in zip(Z, got):
        assert _same_bits(hull.project(z), g)
    want = np.array([oracles.convex_hull_projection(V, z) for z in Z[:-1]])
    assert np.abs(got[:-1] - want).max() <= RTOL * _scale(V, Z[:-1])
    assert np.isnan(got[-1]).all()


@pytest.mark.parametrize("V", [
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],  # a square
    [[0.0], [1.0], [0.5]],  # an interval with an inner vertex
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],  # flat, m = n + 1
    [[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]],  # a doubled vertex
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-5]],  # a simplex too thin for the rule
    [[0.3, -0.2]],  # one vertex
], ids=["square", "interval-3", "flat", "doubled", "thin", "vertex"])
def test_other_bodies_take_the_ordered_scan(V):
    V = np.array(V)
    hull = _HullFaces(V)
    assert hull._heights is None
    n = V.shape[1]
    Z = np.vstack([V.mean(axis=0), V, 2.0 * V - V.mean(axis=0), 1e6 * np.ones((1, n)),
                   np.full((1, n), np.nan)])
    got = hull.project(Z)
    assert _same_bits(got, hull._scan(Z))
    want = np.array([oracles.convex_hull_projection(V, z) for z in Z[:-1]])
    assert np.abs(got[:-1] - want).max() <= RTOL * _scale(V, Z[:-1])


def test_rows_inside_the_simplex_never_enter_the_scan(monkeypatch):
    body = catalog.get("polytope_endpoint").problem.fmap
    scan, handed = _HullFaces._scan, []

    def spy(self, Z):
        handed.append(Z.copy())
        return scan(self, Z)
    monkeypatch.setattr(_HullFaces, "_scan", spy)
    rng = np.random.default_rng(20)
    Z = (0.05 + 0.85 * rng.dirichlet(np.ones(3), size=40)) @ body.vertices
    body.project_body(Z)
    assert handed == []
    Z[17] = [2.0, 2.0]
    got = body.project_body(Z)
    assert len(handed) == 1 and _same_bits(handed[0], Z[17:18])
    assert _same_bits(got, scan(body._hull, Z))

@st.composite
def ball_queries(draw):
    n = draw(st.integers(1, 3))
    radius = draw(st.one_of(st.just(0.0), st.floats(1e-3, 4.0)))
    N = draw(st.integers(1, 10))
    U = draw(arrays(float, (N, n), elements=st.floats(-6.0, 6.0, allow_subnormal=False)))
    return radius, U


@PROPS
@given(ball_queries())
def test_batched_ball_projection_matches_radial_formula(case):
    radius, U = case
    body = BallOffset(lambda t, x: np.zeros(U.shape[1]), radius)
    got = body.project_body(U)
    want = np.array([oracles.ball_projection(radius, u) for u in U])
    assert got.tobytes() == want.tobytes()
    d, p = body.body_distance_projection(U)
    assert p.tobytes() == got.tobytes()
    for u, du in zip(U, d):
        assert du == max(float(np.linalg.norm(u)) - radius, 0.0)
    tol = 1e-12 * _scale(U, radius)
    assert np.all(np.linalg.norm(got, axis=1) <= radius + tol)
    assert np.abs(body.project_body(got) - got).max() <= tol
    for i in range(len(U)):
        for j in range(i):
            assert np.linalg.norm(got[i] - got[j]) <= np.linalg.norm(U[i] - U[j]) + tol


@PROPS
@given(st.data())
def test_stacked_distance_and_projection_matches_pointwise(data):
    # a nonlinear, time-dependent drift: the centers go through the callable
    n = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, 6))
    V = data.draw(arrays(float, (3, n), elements=coords))
    drift = lambda t, x: np.sin(np.atleast_1d(x)) + t
    maps = [Singleton(drift), BallOffset(drift, data.draw(st.floats(0.0, 2.0))),
            PolytopeOffset(drift, V)]
    ts = data.draw(arrays(float, (N,), elements=st.floats(0.0, 1.0)))
    X = data.draw(arrays(float, (N, n), elements=coords))
    Z = data.draw(arrays(float, (N, n), elements=st.floats(-5.0, 5.0, allow_subnormal=False)))
    for fmap in maps:
        d, p = distance_and_projection(fmap, ts, X, Z)
        for i in range(N):
            di, pi = distance_and_projection(fmap, ts[i], X[i], Z[i])
            assert isinstance(di, float)
            assert d[i] == di and p[i].tobytes() == pi.tobytes()


# --- linear drifts ------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


values = st.sampled_from([0.0, -0.0, 1.5, -2.0]) | st.floats(-1e3, 1e3)
nonzero = st.floats(-2.0, 2.0).filter(lambda v: v != 0.0)


@PROPS
@given(arrays(float, (1,), elements=values), arrays(float, (2,), elements=values),
       nonzero, st.floats(0.0, 1.0))
def test_linear_drifts_equal_the_lambdas_they_replace(x1, x2, scale, t):
    # the former hand-written drifts, bit for bit, signs of zero included; a
    # zero matrix is the zero drift, which returns +0.0 (the former rotation
    # and scalar_linear lambdas at scale 0 could return -0.0 there)
    zero1 = Singleton.linear(np.zeros((1, 1)))
    assert _bits(zero1.center(t, x1)) == _bits(np.zeros_like(np.atleast_1d(x1)))
    zero2 = BallOffset.linear(np.zeros((2, 2)), 1.0)
    assert _bits(zero2.center(t, x2)) == _bits(np.zeros(2))
    assert _bits(zero2.jacobian(t, x2)) == _bits(np.zeros((2, 2)))
    A = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
    rot = PolytopeOffset.linear(A, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _bits(rot.center(t, x2)) == _bits(A @ np.atleast_1d(x2))
    assert _bits(rot.jacobian(t, x2)) == _bits(A)
    lin = Singleton.linear([[scale]])
    assert _bits(lin.center(t, x1)) == _bits(scale * np.atleast_1d(x1))
    assert _bits(lin.jacobian(t, x1)) == _bits(np.array([[scale]]))


def test_scalar_linear_keeps_the_sign_of_zero():
    # -1 * 0.0 is -0.0; a 1 x 1 matmul would return +0.0
    assert np.signbit(Singleton.linear([[-1.0]]).center(0.0, [0.0])[0])
    assert not np.signbit(Singleton.linear([[0.0]]).center(0.0, [-1.0])[0])


@PROPS
@given(arrays(float, (2, 2), elements=st.floats(-2.0, 2.0)), st.floats(0.01, 0.5),
       st.integers(0, 2))
def test_linear_averaged_modulus_equals_the_sampler(A, h, variant):
    body = [(), (1.0,), ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],)][variant]
    cls = [Singleton, BallOffset, PolytopeOffset][variant]
    linear = cls.linear(A, *body)
    generic = cls(lambda t, x: A @ np.atleast_1d(x), *body, jac=lambda t, x: A)
    states = np.array([[-1.0, 0.5], [2.0, -3.0], [0.0, 0.0]])
    times = np.linspace(0.0, 1.0, 9)
    assert averaged_modulus(linear, h, states, times) \
        == averaged_modulus(generic, h, states, times) == 0.0


def _count_centers(fmap):
    calls = []
    original = fmap.center

    def counted(t, x):
        calls.append(t)
        return original(t, x)
    fmap.center = counted
    return calls


def test_linear_modulus_skips_sampling_and_callables_sample():
    A = np.array([[0.0, 0.3], [-0.3, 0.0]])
    states, times = np.zeros((4, 2)), np.linspace(0.0, 1.0, 5)
    linear = BallOffset.linear(A, 1.0)
    calls = _count_centers(linear)
    assert averaged_modulus(linear, 0.1, states, times) == 0.0
    assert calls == []
    # the same drift as a callable takes the sampling path
    generic = BallOffset(lambda t, x: A @ np.atleast_1d(x), 1.0)
    calls = _count_centers(generic)
    assert averaged_modulus(generic, 0.1, states, times) == 0.0
    assert len(calls) == 5 * 4 * 9
    # arguments are validated before the shortcut
    with pytest.raises(SetValuedError):
        averaged_modulus(linear, 0.0, states, times)
    with pytest.raises(SetValuedError):
        averaged_modulus(linear, 0.1, np.zeros((0, 2)), times)


def test_linear_needs_a_square_matrix():
    with pytest.raises(SetValuedError):
        Singleton.linear(np.zeros((2, 3)))
    with pytest.raises(SetValuedError):
        BallOffset.linear(np.ones(2), 1.0)
    with pytest.raises(SetValuedError):
        BallOffset.linear(np.eye(2), -1.0)
