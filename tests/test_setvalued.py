import numpy as np
import pytest

from idikit.setvalued import (BallOffset, InfeasiblePointError, PolytopeOffset,
                              SetValuedError, Singleton, averaged_modulus,
                              coderivative, distance_and_projection,
                              graph_normal_cone, pair_distances,
                              project_convex_hull)
from oracles import hausdorff_distance


def _lin(A):
    A = np.asarray(A, dtype=float)
    return (lambda t, x: A @ np.atleast_1d(x)), (lambda t, x: A)


def test_singleton_distance_projection():
    f, jac = _lin([[2.0]])
    F = Singleton(f, jac=jac)
    d, p = distance_and_projection(F, 0.0, [1.5], [5.0])
    assert abs(d - 2.0) < 1e-14
    assert np.allclose(p, [3.0])


def test_ball_radial_projection():
    F = BallOffset(lambda t, x: np.zeros(2), 1.0, jac=lambda t, x: np.zeros((2, 2)))
    d, p = distance_and_projection(F, 0.0, [0.0, 0.0], [2.0, 0.0])
    assert abs(d - 1.0) < 1e-14
    assert np.allclose(p, [1.0, 0.0])
    # interior point projects to itself
    d, p = distance_and_projection(F, 0.0, [0.0, 0.0], [0.2, 0.3])
    assert d == 0.0
    assert np.allclose(p, [0.2, 0.3])


def _brute_force_simplex_projection(verts, z, m=401):
    verts = np.asarray(verts, dtype=float)
    best, best_d = None, np.inf
    for a in np.linspace(0, 1, m):
        for b in np.linspace(0, 1 - a, max(2, int((1 - a) * m) + 1)):
            pt = verts[0] + a * (verts[1] - verts[0]) + b * (verts[2] - verts[0])
            d = np.linalg.norm(z - pt)
            if d < best_d:
                best, best_d = pt, d
    return best_d, best


def test_polytope_projection_against_brute_force():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    F = PolytopeOffset(lambda t, x: np.zeros(2), verts,
                       jac=lambda t, x: np.zeros((2, 2)))
    z = np.array([1.0, 1.0])
    d, p = distance_and_projection(F, 0.0, [0.0, 0.0], z)
    bf_d, bf_p = _brute_force_simplex_projection(verts, z)
    assert abs(d - np.sqrt(2) / 2) < 1e-12
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)
    assert abs(d - bf_d) < 5e-3 and np.allclose(p, bf_p, atol=5e-3)


def test_polytope_projection_random_points_optimality():
    rng = np.random.default_rng(7)
    verts = rng.normal(size=(5, 2))
    for _ in range(50):
        z = rng.normal(scale=2.0, size=2)
        p = project_convex_hull(verts, z)
        # p must beat every dense convex combination
        lam = rng.dirichlet(np.ones(5), size=200)
        pts = lam @ verts
        assert np.linalg.norm(z - p) <= np.linalg.norm(z - pts, axis=1).min() + 1e-9


def test_empty_polytope_rejected():
    with pytest.raises(SetValuedError, match="at least one vertex"):
        PolytopeOffset(lambda t, x: np.zeros(2), np.zeros((0, 2)))
    with pytest.raises(SetValuedError, match="at least one vertex"):
        project_convex_hull(np.zeros((0, 2)), np.zeros(2))
    with pytest.raises(SetValuedError, match="at least one vertex"):
        PolytopeOffset(lambda t, x: np.zeros(1), [])


def test_non_finite_vertex_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        V = [[0.0, 0.0], [1.0, 0.0], [0.0, bad]]
        with pytest.raises(SetValuedError, match="finite"):
            project_convex_hull(V, np.zeros(2))
        with pytest.raises(SetValuedError, match="finite"):
            PolytopeOffset(lambda t, x: np.zeros(2), V)


def test_query_of_the_wrong_dimension_rejected():
    V = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    body = PolytopeOffset(lambda t, x: np.zeros(2), V)
    for z in (np.zeros(3), np.zeros((4, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(SetValuedError, match="R\\^2"):
            project_convex_hull(V, z)
        with pytest.raises(SetValuedError, match="R\\^2"):
            body.project_body(z)
    # one vertex and flat bodies project as before
    assert np.array_equal(project_convex_hull([[0.3, -0.2]], [[1.0, 1.0]]), [[0.3, -0.2]])
    assert np.array_equal(project_convex_hull([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                                              [3.0, 3.0]), [2.0, 2.0])


def test_projection_lipschitz_and_membership():
    F = BallOffset(lambda t, x: np.array([np.sin(x[0]), x[0]]), 0.7,
                   jac=lambda t, x: np.array([[np.cos(x[0]), 0.0], [1.0, 0.0]]))
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=2)
        z1, z2 = rng.normal(scale=3, size=2), rng.normal(scale=3, size=2)
        d1, p1 = distance_and_projection(F, 0.0, x, z1)
        d2, p2 = distance_and_projection(F, 0.0, x, z2)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-12
        # dist == 0 iff the point is in the set
        dm, _ = distance_and_projection(F, 0.0, x, p1)
        assert dm < 1e-12
        if d1 > 1e-9:
            assert np.linalg.norm(z1 - p1) == pytest.approx(d1)


def test_hausdorff_translates():
    F = BallOffset(lambda t, x: np.atleast_1d(x), 1.0, jac=lambda t, x: np.eye(1))
    assert hausdorff_distance(F, 0.0, [0.4], [0.4]) == 0.0
    assert abs(hausdorff_distance(F, 0.0, [0.0], [3.0]) - 3.0) < 1e-14


def test_hausdorff_lipschitz_audit_sin():
    F = Singleton(lambda t, x: np.sin(np.atleast_1d(x)),
                  jac=lambda t, x: np.diag(np.cos(np.atleast_1d(x))))
    l_f = 1.0
    rng = np.random.default_rng(11)
    for _ in range(100):
        x1, x2 = rng.normal(scale=2, size=1), rng.normal(scale=2, size=1)
        assert hausdorff_distance(F, 0.0, x1, x2) <= l_f * np.linalg.norm(x1 - x2) + 1e-12


def _brute_force_tau(fmap, h, states, n_t=2001, T=1.0):
    # dense trapezoid over t of sup_x sup_{t1,t2 in window} |f(t1,x)-f(t2,x)|
    ts = np.linspace(0, T, n_t)
    sig = np.empty(n_t)
    for i, t in enumerate(ts):
        lo, hi = max(0.0, t - h / 2), min(T, t + h / 2)
        win = np.linspace(lo, hi, 21)
        worst = 0.0
        for x in states:
            vals = np.array([fmap.center(tw, x) for tw in win])
            worst = max(worst, np.ptp(vals))
        sig[i] = worst
    return np.trapezoid(sig, ts)


def test_averaged_modulus_autonomous_is_zero():
    F = Singleton(lambda t, x: np.sin(np.atleast_1d(x)))
    tau = averaged_modulus(F, 0.125, np.linspace(-1, 1, 9)[:, None],
                           np.linspace(0, 1, 33))
    assert tau == 0.0


def test_averaged_modulus_linear_drift():
    # f(t,x) = t: oscillation equals the clipped window width
    F = Singleton(lambda t, x: np.array([t]))
    h = 0.125
    states = np.zeros((1, 1))
    tau = averaged_modulus(F, h, states, np.linspace(0, 1, 201))
    oracle = _brute_force_tau(F, h, states)
    assert tau == pytest.approx(oracle, rel=1e-3)
    # interior windows have width h, edges lose h^2/4 in total
    assert tau == pytest.approx(h - h * h / 4, rel=1e-3)
    assert tau == pytest.approx(h, rel=0.05)


def test_averaged_modulus_decreases_with_h():
    F = Singleton(lambda t, x: np.array([np.sin(t)]))
    taus = [averaged_modulus(F, h, np.zeros((1, 1)), np.linspace(0, 1, 201))
            for h in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(taus, taus[1:]))
    assert taus[-1] < 0.06


def test_averaged_modulus_domain_errors():
    F = Singleton(lambda t, x: np.array([t]))
    with pytest.raises(SetValuedError):
        averaged_modulus(F, -0.1, np.zeros((1, 1)), np.linspace(0, 1, 5))
    with pytest.raises(SetValuedError):
        averaged_modulus(F, 0.1, np.zeros((0, 1)), np.linspace(0, 1, 5))


def test_graph_normal_cone_singleton_linear():
    A = np.array([[0.0, 1.0], [-2.0, 0.0]])
    f, jac = _lin(A)
    F = Singleton(f, jac=jac)
    x = np.array([0.3, -0.2])
    cone = graph_normal_cone(F, 0.0, x, A @ x)
    assert list(cone.kind) == ["subspace"]
    for u in (np.array([1.0, 0.0]), np.array([0.5, -2.0])):
        pairs = np.concatenate([-(A.T @ u), u])
        d, _ = pair_distances(cone, pairs[None, :2], pairs[None, 2:])
        assert d[0] < 1e-12


def test_graph_normal_cone_ball_boundary_and_interior():
    F = BallOffset(lambda t, x: np.zeros(2), 1.0, jac=lambda t, x: np.zeros((2, 2)))
    cone = graph_normal_cone(F, 0.0, [0.0, 0.0], [1.0, 0.0])
    assert list(cone.kind) == ["ray"]
    assert np.allclose(cone.direction, [[1.0, 0.0]])
    d, _ = pair_distances(cone, np.zeros((1, 2)), np.array([[0.7, 0.0]]))
    assert d[0] < 1e-12

    interior = graph_normal_cone(F, 0.0, [0.0, 0.0], [0.1, 0.2])
    assert list(interior.kind) == ["zero"]
    with pytest.raises(InfeasiblePointError):
        graph_normal_cone(F, 0.0, [0.0, 0.0], [2.0, 0.0])


def _proximal_check(fmap, t, x, v, pair, alpha=1e-4, n_samples=400, seed=0):
    """x-bar must be the closest sampled graph point to (x,v) + alpha*normal."""
    rng = np.random.default_rng(seed)
    base = np.concatenate([x, v])
    probe = base + alpha * pair / max(np.linalg.norm(pair), 1e-12)
    d_base = np.linalg.norm(probe - base)
    for _ in range(n_samples):
        xx = x + rng.normal(scale=0.05, size=x.size)
        c = fmap.center(t, xx)
        # sample a value point near the body
        if isinstance(fmap, BallOffset):
            dirn = rng.normal(size=x.size)
            dirn /= np.linalg.norm(dirn)
            vv = c + fmap.radius * rng.uniform() * dirn
        else:
            vv = c
        gp = np.concatenate([xx, vv])
        if np.linalg.norm(probe - gp) < d_base - 1e-9:
            return False
    return True


def test_graph_normal_cone_nonlinear_ball_proximal():
    # 1-D: f(t,x) = x, r = 1, v = x + 1 -> generators lambda * (-1, 1)
    F = BallOffset(lambda t, x: np.atleast_1d(x), 1.0, jac=lambda t, x: np.eye(1))
    x = np.array([0.2])
    v = x + 1.0
    cone = graph_normal_cone(F, 0.0, x, v)
    assert list(cone.kind) == ["ray"]
    pair = cone.pair_samples(0)[0]
    assert np.allclose(pair, [-1.0, 1.0])
    assert _proximal_check(F, 0.0, x, v, pair)


def test_graph_normal_cone_polytope_active_facets():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    F = PolytopeOffset(lambda t, x: np.zeros(2), verts,
                       jac=lambda t, x: np.zeros((2, 2)))
    # midpoint of the hypotenuse facet: one active facet with normal (1,1)/sqrt(2)
    cone = graph_normal_cone(F, 0.0, [0.0, 0.0], [0.5, 0.5])
    assert list(cone.kind) == ["polyhedral"]
    assert cone.generators(0).shape[0] == 1
    assert np.allclose(np.abs(cone.generators(0)[0]), [1 / np.sqrt(2)] * 2)
    # vertex (1,0): two active facets
    cone_v = graph_normal_cone(F, 0.0, [0.0, 0.0], [1.0, 0.0])
    assert cone_v.generators(0).shape[0] == 2
    # interior point: trivial cone
    assert list(graph_normal_cone(F, 0.0, [0.0, 0.0], [0.2, 0.2]).kind) == ["zero"]


def _facet_inputs():
    """(label, vertices) with n = 2 and 3: random point sets, duplicate
    vertices, extra vertices on a facet (some of them on an edge) and
    interior points, one set far from the origin."""
    rng = np.random.default_rng(31)
    cases = []
    for n in (2, 3):
        box = np.array(np.meshgrid(*[[0.0, 1.0]] * n)).reshape(n, -1).T
        on_facet = np.hstack([rng.uniform(0.0, 1.0, (5, n - 1)), np.ones((5, 1))])
        on_facet[0, 0] = 0.0
        pts = rng.normal(size=(9, n))
        cases += [(f"random-{n}d-{i}", rng.normal(size=(int(rng.integers(n + 1, 13)), n)))
                  for i in range(4)]
        cases += [(f"duplicates-{n}d", np.vstack([pts, pts[:3], pts[:1]])),
                  (f"box-{n}d", box),
                  (f"coplanar-{n}d", np.vstack([box, on_facet, 0.5 * (box[0] + box[1])])),
                  (f"interior-{n}d", np.vstack([pts, rng.dirichlet(np.ones(9), 6) @ pts])),
                  (f"far-{n}d", 40.0 + 3.0 * pts)]
    return cases


@pytest.mark.parametrize("label,V", _facet_inputs(), ids=[c[0] for c in _facet_inputs()])
def test_polytope_facets_match_the_convex_hull(label, V):
    import oracles
    A, b = PolytopeOffset.linear(np.eye(V.shape[1]), V)._facet_system()
    want_A, want_b = oracles.polytope_facets(V)
    assert A.shape == want_A.shape
    gap = (np.abs(A[:, None] - want_A[None]).max(axis=-1)
           + np.abs(b[:, None] - want_b[None]) / np.abs(V).max())
    match = gap.argmin(axis=1)
    assert sorted(match) == list(range(len(want_b)))
    assert gap[np.arange(len(b)), match].max() <= 1e-12
    if label.startswith("box"):
        assert len(b) == 2 * V.shape[1]


@pytest.mark.parametrize("V", [[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]],
                               [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                                [1.0, 1.0, 1.0], [0.3, 0.4, 1.0]]],
                         ids=["collinear-2d", "coplanar-3d"])
def test_flat_polytope_has_no_facets(V):
    F = PolytopeOffset.linear(np.eye(len(V[0])), V)
    with pytest.raises(SetValuedError, match="full space"):
        graph_normal_cone(F, 0.0, np.zeros(len(V[0])), V[1])


def test_coderivative_cases():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    f, jac = _lin(A)
    F = Singleton(f, jac=jac)
    x = np.array([0.5, 0.5])
    u = np.array([0.3, -0.7])
    out = coderivative(F, 0.0, x, A @ x, u)
    assert len(out) == 1 and np.allclose(out[0], A.T @ u)

    B = BallOffset(lambda t, x: np.zeros(2), 1.0, jac=lambda t, x: np.zeros((2, 2)))
    assert np.allclose(coderivative(B, 0.0, [0, 0], [0.1, 0.1], [0.0, 0.0])[0], 0.0)
    assert coderivative(B, 0.0, [0, 0], [0.1, 0.1], [1.0, 0.0]) == []


def test_coderivative_lipschitz_norm_bound():
    # |w| <= l_F |u| over 500 random samples for each supported family
    rng = np.random.default_rng(42)
    A = np.array([[0.0, 1.0], [-1.0, 0.5]])
    maps = [
        (Singleton(*_lin(A)), np.linalg.norm(A, 2)),
        (BallOffset(lambda t, x: np.sin(np.atleast_1d(x)), 0.5,
                    jac=lambda t, x: np.diag(np.cos(np.atleast_1d(x)))), 1.0),
    ]
    checked = 0
    for F, l_f in maps:
        n = 2 if F.kind == "singleton" else 1
        for _ in range(250):
            x = rng.normal(size=n)
            c = F.center(0.0, x)
            if F.kind == "singleton":
                v = c
            else:
                v = c + F.radius * rng.uniform(-1, 1, size=n)
            u = rng.normal(size=n)
            for w in coderivative(F, 0.0, x, v, u):
                assert np.linalg.norm(w) <= l_f * np.linalg.norm(u) + 1e-10
                checked += 1
    assert checked >= 250


def test_fd_jacobian_fallback():
    F = Singleton(lambda t, x: np.array([np.sin(x[0]) + x[1], x[0] * x[1]]))
    x = np.array([0.4, -1.2])
    J = F.jacobian(0.0, x)
    exact = np.array([[np.cos(0.4), 1.0], [-1.2, 0.4]])
    assert np.allclose(J, exact, atol=1e-6)


def test_graph_normal_cone_polytope_proximal():
    # facet-normal generators pass the proximal verification: stepping off
    # the graph along a normal pair keeps the base point closest
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    F = PolytopeOffset(lambda t, x: np.array([0.2 * x[1], -0.2 * x[0]]), verts,
                       jac=lambda t, x: np.array([[0.0, 0.2], [-0.2, 0.0]]))
    x = np.array([0.5, -0.3])
    v = F.center(0.0, x) + np.array([0.5, 0.5])  # hypotenuse midpoint
    cone = graph_normal_cone(F, 0.0, x, v)
    assert list(cone.kind) == ["polyhedral"]
    rng = np.random.default_rng(4)
    for pair in cone.pair_samples(0):
        probe = np.concatenate([x, v]) + 1e-4 * pair / np.linalg.norm(pair)
        d_base = np.linalg.norm(probe - np.concatenate([x, v]))
        for _ in range(300):
            xx = x + rng.normal(scale=0.05, size=2)
            lam = rng.dirichlet(np.ones(3))
            vv = F.center(0.0, xx) + lam @ np.asarray(verts)
            assert np.linalg.norm(probe - np.concatenate([xx, vv])) \
                >= d_base - 1e-9


# --- stacked graph normal cones against the one-point oracle ------------------

def _nonlinear(t, x):
    return np.sin(x) + 0.3 * t * x[::-1]


def _cone_cases():
    """(label, map, body points) for every body, drift and dim 1 to 3: the
    body points hold interior, boundary and active-facet points.  The
    degenerate bodies are a radius-0 ball, a one-vertex polytope and, in 1-D,
    a polytope of two equal vertices, whose cone is generated by -1 and 1."""
    cases = []
    for n in (1, 2, 3):
        A = np.arange(1.0, n * n + 1.0).reshape(n, n) / (n * n)
        e = np.eye(n)[0]
        u = np.ones(n) / np.sqrt(n)
        simplex = np.vstack([np.zeros(n), np.eye(n)])
        if n == 1:
            simplex = np.array([[-0.5], [1.0]])
        V = simplex
        body = {
            "singleton": [np.zeros(n), np.full(n, 1e-10)],
            "ball": [np.zeros(n), 0.3 * e, 0.8 * u, 0.8 * e, -0.8 * u],
            "ball0": [np.zeros(n), np.full(n, 1e-10)],
            "polytope": [V.mean(axis=0), V[0], V[-1], 0.5 * (V[0] + V[1]),
                         V[1:].mean(axis=0), V[:-1].mean(axis=0)],
            "vertex": [np.full(n, 0.2), np.full(n, 0.2) + 1e-10],
            "twin": [np.full(n, 0.2), np.full(n, 0.2) + 1e-10],
        }
        for drift, make in (("linear", lambda cls, *b: cls.linear(A, *b)),
                            ("nonlinear", lambda cls, *b: cls(_nonlinear, *b))):
            maps = [("singleton", make(Singleton)),
                    ("ball", make(BallOffset, 0.8)),
                    ("ball0", make(BallOffset, 0.0)),
                    ("polytope", make(PolytopeOffset, V)),
                    ("vertex", make(PolytopeOffset, [[0.2] * n]))]
            if n == 1:
                maps.append(("twin", make(PolytopeOffset, [[0.2], [0.2]])))
            for name, fmap in maps:
                cases.append((f"{name}-{drift}-{n}d", fmap, body[name]))
    return cases


def _cone_rows(fmap, body, seed=0):
    rng = np.random.default_rng(seed)
    m, n = len(body), body[0].size
    ts = rng.uniform(0.0, 1.0, m)
    xs = rng.normal(size=(m, n))
    vs = np.array([fmap.center(t, x) for t, x in zip(ts, xs)]) + np.array(body)
    return ts, xs, vs


def _same_cone(a, b):
    assert a.kind == b.kind
    assert np.array_equal(a.jacobian, b.jacobian)
    assert np.array_equal(a.direction, b.direction)
    assert (a.generators is None) == (b.generators is None)
    if b.generators is not None:
        assert a.generators.shape == b.generators.shape
        assert np.array_equal(a.generators, b.generators)


@pytest.mark.parametrize("label,fmap,body", _cone_cases(),
                         ids=[c[0] for c in _cone_cases()])
def test_stacked_cones_match_point_oracle(label, fmap, body):
    import oracles
    ts, xs, vs = _cone_rows(fmap, body)
    cones = graph_normal_cone(fmap, ts, xs, vs)
    assert len(cones) == len(body)
    rng = np.random.default_rng(1)
    Qx, Qv = rng.normal(size=(2,) + xs.shape)
    d, U = pair_distances(cones, Qx, Qv)
    for i, (t, x, v) in enumerate(zip(ts, xs, vs)):
        want = oracles.graph_normal_cone(fmap, t, x, v)
        _same_cone(oracles.cone_row(cones, i), want)
        _same_cone(oracles.cone_row(graph_normal_cone(fmap, t, x, v), 0),
                   want)  # one row
        scale = np.linalg.norm(np.concatenate([Qx[i], Qv[i]]))
        want_d, want_u = oracles.pair_distance(want, Qx[i], Qv[i])
        assert abs(d[i] - want_d) <= 1e-12 * scale
        assert np.abs(U[i] - want_u).max() <= 1e-12 * scale
    expected = {"singleton": {"subspace"}, "ball": {"zero", "ray"},
                "ball0": {"subspace"}, "polytope": {"zero", "polyhedral"},
                "vertex": {"subspace"}, "twin": {"polyhedral"}}[label.split("-")[0]]
    assert set(cones.kind) == expected
    if fmap._linear is not None:  # the map's A, stored once
        assert cones.jacobian is fmap._linear


def test_stacked_cones_name_the_first_infeasible_row():
    F = BallOffset.linear([[0.5, 0.0], [0.0, -1.0]], 1.0)
    ts = np.linspace(0.0, 1.0, 5)
    xs = np.zeros((5, 2))
    vs = np.zeros((5, 2))
    vs[2] = [3.0, 0.0]
    vs[4] = [0.0, 2.0]
    with pytest.raises(InfeasiblePointError, match=r"row 2 \(t = 0\.5\)"):
        graph_normal_cone(F, ts, xs, vs)
    vs[2] = [1.0, 0.0]
    with pytest.raises(InfeasiblePointError, match=r"row 4 \(t = 1\)"):
        graph_normal_cone(F, ts, xs, vs)
    vs[4] = [0.0, 1.0]
    assert list(graph_normal_cone(F, ts, xs, vs).kind) == \
        ["zero", "zero", "ray", "zero", "ray"]
