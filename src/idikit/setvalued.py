"""Velocity multifunctions F(t, x) = f(t, x) + P for convex bodies P.

Supported bodies: a point (singleton map), a closed ball of radius r, and a
convex polytope given by its vertices.  All values are translates of one
fixed convex body by a smooth drift f, which keeps distances, projections,
normal cones to the graph of F(t, .), and coderivatives available in closed
form while the graph itself is a nonconvex set whenever f is nonlinear.

Conventions.  A normal element of gph F(t, .) at (x, v) is a pair
(-J^T u, u) with J the state Jacobian of f and u ranging over the normal
cone of the body P at v - f(t, x).  The coderivative at (x, v) maps u to
{J^T u} when -u belongs to that body cone and to the empty set otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from .mesh import _short_all, _short_any, _short_norm, _short_sum

__all__ = [
    "Singleton",
    "BallOffset",
    "PolytopeOffset",
    "GraphNormalCone",
    "pair_distances",
    "distance_and_projection",
    "averaged_modulus",
    "graph_normal_cone",
    "coderivative",
    "project_convex_hull",
]

# how far a velocity may sit outside its value set and still get a graph
# normal cone; also the margin that tells a ball's interior from its sphere
CONE_TOL_FEAS = 1e-6
_ACTIVE_TOL = 1e-8


class SetValuedError(ValueError):
    """Ill-formed velocity map."""


class InfeasiblePointError(ValueError):
    """Queried point lies outside the value set beyond tolerance."""


def _fd_jacobian(f: Callable, t: float, x: np.ndarray) -> np.ndarray:
    # central differences with step 1e-6 * (1 + |x|); kernels use it too
    n = x.size
    step = 1e-6 * (1.0 + np.linalg.norm(x))
    out = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        out[:, i] = (np.asarray(f(t, x + e)) - np.asarray(f(t, x - e))) / (2 * step)
    return out


class _OffsetMap:
    """Common machinery for F(t,x) = f(t,x) + P.

    The body methods (``project_body``, ``body_distance_projection``) take
    one point of shape (n,) or a stack of shape (N, n).
    """

    def __init__(self, f: Callable, jac: Optional[Callable] = None):
        self._f = f
        self._jac = jac
        self._linear = None

    @classmethod
    def linear(cls, A, *body) -> "_OffsetMap":
        """F(t, x) = A x + P with Jacobian A; ``body`` is what the
        constructor takes after the drift (nothing, a radius, or vertices).

        The drift does not depend on t, so the map is autonomous by
        construction and :func:`averaged_modulus` returns 0 without sampling.
        It takes one state (n,) or a stack (N, n), which gives each row bit
        for bit as the one state would; ``jacobian`` returns A itself.
        """
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise SetValuedError(f"linear drift needs a square matrix, got shape {A.shape}")
        A.setflags(write=False)
        n = A.shape[0]
        if not A.any():  # exact zeros: A @ x would give -0.0 for some x
            f = lambda t, x: np.zeros(np.shape(np.atleast_1d(x)))
        elif n == 1:  # one product keeps the sign of zero; A @ x adds 0.0
            a = A[0, 0]
            f = lambda t, x: a * np.atleast_1d(x)
        else:  # one A @ x_i per row
            f = lambda t, x: (A @ np.asarray(x)[..., None])[..., 0]
        fmap = cls(f, *body)
        fmap._linear = A
        return fmap

    def center(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self._f(t, np.asarray(x, dtype=float)), dtype=float))

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        if self._linear is not None:
            return self._linear
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._jac is not None:
            return np.atleast_2d(np.asarray(self._jac(t, x), dtype=float))
        return _fd_jacobian(lambda tt, xx: np.atleast_1d(self._f(tt, xx)), t, x)

    # body interface -------------------------------------------------
    def body_distance_projection(self, w: np.ndarray):
        raise NotImplementedError

    def body_normal_cone(self, W: np.ndarray) -> dict:
        """The body cones at the rows of W, shape (N, n), as the fields of a
        :class:`GraphNormalCone` stack but its Jacobian; here those of a
        point body, the whole space at every row."""
        return {"kind": np.full(len(W), "subspace"), "direction": np.zeros_like(W)}

    def body_radius(self) -> float:
        raise NotImplementedError

    def sample_extreme(self, t: float, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A random extreme point of F(t, x), used by selection policies."""
        raise NotImplementedError


class Singleton(_OffsetMap):
    """F(t,x) = {f(t,x)}."""

    kind = "singleton"

    def body_distance_projection(self, w):
        w = np.asarray(w, dtype=float)
        return _norm(w), np.zeros_like(w)

    def body_radius(self):
        return 0.0

    def sample_extreme(self, t, x, rng):
        return self.center(t, x)

    def project_body(self, u):
        return np.zeros_like(u)


class BallOffset(_OffsetMap):
    """F(t,x) = f(t,x) + r*B with the closed Euclidean unit ball B."""

    kind = "ball"

    def __init__(self, f, radius: float, jac=None):
        if radius < 0:
            raise SetValuedError("ball radius must be nonnegative")
        super().__init__(f, jac)
        self.radius = float(radius)

    def body_distance_projection(self, w):
        w = np.asarray(w, dtype=float)
        nw = _norm(w)
        scale = np.divide(self.radius, nw, out=np.ones_like(nw), where=nw > self.radius)
        return np.maximum(nw - self.radius, 0.0), scale[..., None] * w

    def body_normal_cone(self, W):
        nw = _norm(W)
        # a point within the tolerance of the center is a radius-0 ball's
        # one point, where the cone is the whole space
        kind = np.where(nw < self.radius - CONE_TOL_FEAS, "zero",
                        np.where(nw <= CONE_TOL_FEAS, "subspace", "ray"))
        ray = kind == "ray"
        direction = np.zeros_like(W)
        direction[ray] = W[ray] / nw[ray, None]
        return {"kind": kind, "direction": direction}

    def body_radius(self):
        return self.radius

    def sample_extreme(self, t, x, rng):
        c = self.center(t, x)
        d = rng.standard_normal(c.size)
        nd = np.linalg.norm(d)
        if nd == 0:
            d, nd = np.ones_like(c), np.sqrt(c.size)
        return c + self.radius * d / nd

    def project_body(self, u):
        return self.body_distance_projection(u)[1]


class PolytopeOffset(_OffsetMap):
    """F(t,x) = f(t,x) + conv(vertices)."""

    kind = "polytope"

    def __init__(self, f, vertices: Sequence[Sequence[float]], jac=None):
        super().__init__(f, jac)
        verts = np.atleast_2d(np.array(vertices, dtype=float))
        verts.setflags(write=False)
        self.vertices = verts
        self._hull = _HullFaces(verts)
        self._facets = None

    def body_distance_projection(self, w):
        w = np.asarray(w, dtype=float)
        proj = self._hull.project(w)
        return _norm(w - proj), proj

    def _facet_system(self):
        """Outer unit facet normals (rows A) and offsets b with
        P = {A y <= b}, one row per facet.

        For n >= 2 the facets come from the size-n vertex subsets that the
        projection enumerates (``_HullFaces``): a subset of rank n - 1 spans
        a hyperplane, normal to the null space of E^T for its edge matrix E,
        kept and turned outward when every vertex lies on one side of it
        within 1e-12 times the largest |vertex coordinate|.  Equal normals
        (within 1e-9) are one facet, the first in ``combinations`` order.
        """
        if self._facets is not None:
            return self._facets
        V = self.vertices
        n = V.shape[1]
        if V.shape[0] == 1:
            self._facets = (np.zeros((0, n)), np.zeros(0))
        elif n == 1:
            # kept apart: the zero-length interval [[0.2], [0.2]] has the
            # facets -1 and 1 here but is a flat body to the rank test below
            lo, hi = float(V.min()), float(V.max())
            self._facets = (np.array([[-1.0], [1.0]]), np.array([-lo, hi]))
        else:
            tol = 1e-12 * np.abs(V).max()
            if np.linalg.matrix_rank(V - V[0], tol=tol) < n:
                raise SetValuedError("polytope vertices must span the full space "
                                     "for facet normal cones; got a flat body")
            base, E = map(np.array, zip(*[f[:2] for f in self._hull._faces
                                          if f[1].shape[1] == n - 1]))
            _, s, Vt = np.linalg.svd(np.swapaxes(E, 1, 2))
            A = Vt[:, -1] / _norm(Vt[:, -1])[:, None]
            side = _short_sum(V[:, None, :] * A) - np.vecdot(A, base)  # (m, K)
            below, above = _short_all(side <= tol, 0), _short_all(side >= -tol, 0)
            A = np.where(below[:, None], A, -A)[(s[:, -1] > tol) & (below | above)]
            same = np.abs(A[:, None] - A[None]).max(axis=-1) <= 1e-9
            A = A[~_short_any(np.tril(same, -1), 1)]
            self._facets = (A, _short_sum(V[:, None, :] * A).max(axis=0))
        return self._facets

    def body_normal_cone(self, W):
        if self.vertices.shape[0] == 1:
            return super().body_normal_cone(W)
        A, b = self._facet_system()
        resid = _short_sum(W[:, None, :] * A) - b  # (N, m)
        far = np.flatnonzero(_short_any(resid > CONE_TOL_FEAS, 1))
        if far.size:
            i = int(far[0])
            raise InfeasiblePointError(
                f"row {i}: point {resid[i].max():.3e} outside a facet of the "
                f"polytope, beyond the cone tolerance {CONE_TOL_FEAS:.1e}")
        active = np.abs(resid) <= _ACTIVE_TOL
        return {"kind": np.where(_short_any(active, 1), "polyhedral", "zero"),
                "direction": np.zeros_like(W), "facets": A, "active": active}

    def body_radius(self):
        return float(np.max(_short_norm(self.vertices, 1)))

    def sample_extreme(self, t, x, rng):
        return self.center(t, x) + self.vertices[int(rng.integers(self.vertices.shape[0]))]

    def project_body(self, u):
        return self._hull.project(np.asarray(u, dtype=float))


def _norm(w: np.ndarray):
    """Euclidean norm of a vector, or of each row of a stack.

    Row by row this is bit for bit ``np.linalg.norm`` of the row.
    """
    return np.sqrt(np.vecdot(w, w))


class _HullFaces:
    """Euclidean projection onto conv(vertices), exact at desk scale.

    The ordered scan (``_scan``): the candidate faces are the vertex subsets
    of size <= n+1, by size and then in ``itertools.combinations`` order;
    each keeps its base vertex, its edge matrix and the edges'
    pseudo-inverse, which gives the minimum-norm least-squares solution on
    rank-deficient subsets.  The projection lies in the relative interior of
    some face, so it is among the affine-hull projections whose barycentric
    coordinates are all >= -1e-10.  Faces are visited in order; a candidate
    replaces the best so far when it is nearer by more than 1e-12, or when
    it is within 1e-12 of the best distance and lexicographically smaller.
    Each face is evaluated for every row at once.

    The deep-row rule: when the vertices form a full-dimensional simplex
    (m = n + 1, edge condition number at most 1e4), ``project`` first
    evaluates the full face, last in the scan, for the whole stack.  A row
    whose distance to every facet hyperplane, lambda_i times the height
    h_i = 1 / |grad lambda_i|, exceeds 1e-9 * max(1, max |vertex|) takes
    that face's candidate, which is bit for bit what the scan returns for
    it (see ``__init__``); only the other rows go through the scan.
    """

    def __init__(self, vertices: np.ndarray):
        if vertices.ndim != 2 or 0 in vertices.shape:
            raise SetValuedError("convex hull needs at least one vertex, as an "
                                 f"(m, n) array with n >= 1; got shape {vertices.shape}")
        if not np.isfinite(vertices).all():
            raise SetValuedError("convex hull vertices must be finite")
        m, n = vertices.shape
        self._n = n
        self._faces = []
        for size in range(1, min(m, n + 1) + 1):
            for idx in combinations(range(m), size):
                S = vertices[list(idx)]
                E = (S[1:] - S[0]).T  # n x (size-1)
                self._faces.append((S[0], E, np.linalg.pinv(E) if size > 1 else None))
        # Why a deep row's full-face candidate is the scan's choice.  Every
        # other face of a simplex misses some vertex i, so its candidate lies,
        # up to round-off, in the hyperplane of the facet opposite i, at
        # least lambda_i h_i from z; the full face's candidate is z up to
        # round-off, passes the scan's coordinate test (every lambda_i > 0)
        # and is visited last.  With s = max(1, max |vertex|) >= |z|/sqrt(n)
        # and edge condition number kappa <= 1e4, the round-offs in
        # lambda_i h_i, in a candidate (|coef| <= kappa |z - base| / |E|,
        # since a subset's edges are the full edges times a 0/+-1 matrix of
        # singular values >= 1) and in a distance are each below about
        # 8 n kappa eps s, 5e-11 s at n = 3.  So a row with every
        # lambda_i h_i > 1e-9 s has a full-face distance below every other
        # candidate's by more than the scan's tie width 1e-12 <= 1e-12 s
        # plus those round-offs, and the scan replaces its best with that
        # candidate.  Rows nearer a facet, or NaN, fail the test.
        self._heights = None
        if m == n + 1:
            E_pinv = self._faces[-1][2]
            sv = np.linalg.svd(self._faces[-1][1], compute_uv=False)
            if sv[-1] * 1e4 >= sv[0] > 0.0:
                grads = np.vstack([-_short_sum(E_pinv, 0), E_pinv])
                self._heights = 1.0 / _norm(grads)
                self._margin = 1e-9 * max(1.0, float(np.abs(vertices).max()))

    def project(self, z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(z)
        if Z.ndim != 2 or Z.shape[1] != self._n:
            raise SetValuedError(f"query of shape {np.shape(z)} for a hull in R^{self._n}; "
                                 f"expected ({self._n},) or (N, {self._n})")
        if self._heights is None:
            return self._scan(Z).reshape(np.shape(z))
        coef, out = _face_candidates(Z, *self._faces[-1])
        lam = np.column_stack((1.0 - _short_sum(coef, 1), coef))
        shallow = ~_short_all(lam * self._heights > self._margin, 1)
        if shallow.any():
            out[shallow] = self._scan(Z[shallow])
        return out.reshape(np.shape(z))

    def _scan(self, Z: np.ndarray) -> np.ndarray:
        """The ordered scan over all faces, for a stack Z of shape (N, n)."""
        best = np.full(Z.shape, np.nan)
        best_d = np.full(Z.shape[0], np.inf)
        for base, E, E_pinv in self._faces:
            if E_pinv is None:
                cand = np.broadcast_to(base, Z.shape)
                ok = True
            else:
                coef, cand = _face_candidates(Z, base, E, E_pinv)
                ok = ~((1.0 - _short_sum(coef, 1) < -1e-10)
                       | _short_any(coef < -1e-10, 1))
            d = _norm(Z - cand)
            better = ok & (d < best_d - 1e-12)
            tie = ok & ~better & (np.abs(d - best_d) <= 1e-12)
            if tie.any():
                tie &= _lex_less(cand, best)
            take = better | tie
            best[take] = cand[take]
            best_d[better] = d[better]
        return best


def _face_candidates(Z, base, E, E_pinv):
    """The coordinates along the edges E, shape (N, size-1), and the
    projections onto the face's affine hull, shape (N, n), of the rows of Z.

    Products are summed elementwise, not by BLAS, so that a row's result
    does not depend on the other rows: by :func:`mesh._short_sum`, left to
    right from +0.0 over the short axis.
    """
    coef = _short_sum((Z - base)[:, None, :] * E_pinv)
    return coef, base + _short_sum(coef[:, None, :] * E)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``tuple(a_i) < tuple(b_i)``."""
    differ = a != b
    first = differ.argmax(axis=1)
    rows = np.arange(a.shape[0])
    return _short_any(differ, 1) & (a[rows, first] < b[rows, first])


def project_convex_hull(vertices: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean projection of z, shape (n,) or (N, n), onto conv(vertices).

    Enumerates the vertex subsets of size <= n+1 (see ``_HullFaces``); ties
    within 1e-12 resolve to the lexicographically smallest point.  On a
    full-dimensional simplex a row farther than 1e-9 * max(1, max |vertex|)
    from every facet hyperplane skips that scan and takes the full face's
    candidate, which is the scan's choice bit for bit: every other face
    lies in a facet hyperplane, farther from z by more than the tie width.
    Raises ``SetValuedError`` for no vertex, a non-finite vertex, or a
    query whose last axis is not n.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    return _HullFaces(V).project(np.asarray(z, dtype=float))


@dataclass(frozen=True, eq=False)
class GraphNormalCone:
    """Closed-form N_{gph F(t_i,.)}(x_i, v_i) for a stack of N >= 1 points.

    Elements of row i are pairs (-J_i^T u, u) with u in the body cone that
    ``kind[i]`` names: all of R^n ("subspace"), {0} ("zero"), the ray of the
    unit ``direction[i]`` ("ray", zero on other rows), or the cone of the
    facet normals ``facets[active[i]]`` ("polyhedral"; ``facets`` (m, n) and
    ``active`` (N, m) are set for a polytope only).  ``jacobian`` is the
    (n, n) A of a map built with ``linear``, stored once, else (N, n, n).
    """

    kind: np.ndarray
    jacobian: np.ndarray
    direction: np.ndarray
    facets: Optional[np.ndarray] = None
    active: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.kind.size

    def __getitem__(self, rows) -> "GraphNormalCone":
        """The stack of the rows ``rows``, an index array."""
        J = self.jacobian
        return replace(self, kind=self.kind[rows],
                       jacobian=J if J.ndim == 2 else J[rows],
                       direction=self.direction[rows],
                       active=None if self.active is None else self.active[rows])

    def row_jacobian(self, j: int) -> np.ndarray:
        J = self.jacobian
        return J if J.ndim == 2 else J[j]

    def generators(self, j: int) -> np.ndarray:
        """The generator rows of the polyhedral row j."""
        return self.facets[self.active[j]]

    def project_u(self, b: np.ndarray, j: int) -> np.ndarray:
        """Projection of b onto the u-cone of row j."""
        b = np.asarray(b, dtype=float)
        kind = self.kind[j]
        if kind == "subspace":
            return b
        if kind == "zero":
            return np.zeros_like(b)
        if kind == "ray":
            e = self.direction[j]
            return max(0.0, float(e @ b)) * e
        # the nearest pair (0, u) to (0, b) when J = 0 has u the projection
        n = b.size
        return _polyhedral_witness(self.generators(j), np.zeros((n, n)),
                                   np.zeros((1, n)), b[None])[0]

    def pair_samples(self, j: int) -> np.ndarray:
        """A few representative normal pairs of row j, used by
        sampling-based audits."""
        J = self.row_jacobian(j)
        n = J.shape[0]
        kind = self.kind[j]
        if kind == "zero":
            us = np.zeros((1, n))
        elif kind == "subspace":
            us = np.vstack([np.eye(n), -np.eye(n)])
        elif kind == "ray":
            us = self.direction[j][None, :]
        else:
            us = self.generators(j)
        return np.hstack([-(J.T @ us.T).T, us])


# Products of the stacked passes below are summed elementwise, not by BLAS,
# so that a row's result does not depend on the other rows: the one-row case
# of a stack is bit for bit the row.  Each sum is mesh._short_sum, the
# columns of the short axis added left to right from +0.0.  ``J`` is shared,
# (n, n), or (N, n, n).

def _matvec(M, x):
    """M_i x_i for a matrix (n, n) or one per row (N, n, n), and x (N, n)."""
    return _short_sum(M * x[:, None, :])


def _rmatvec(M, x):
    """M_i^T x_i, with M and x as for :func:`_matvec`."""
    return _short_sum(M * x[:, :, None], -2)


def _subspace_witness(J, Qx, Qv):
    # normal equations of min |q_x + J^T u|^2 + |q_v - u|^2; I + J J^T is
    # factored once when the Jacobian is shared
    JJt = _short_sum(J[..., :, None, :] * J[..., None, :, :])
    K_inv = np.linalg.inv(np.eye(Qx.shape[1]) + JJt)
    return _matvec(K_inv, Qv - _matvec(J, Qx))


def _ray_witness(J, E, Qx, Qv):
    # clipped projection of q onto the one pair (-J^T e, e) per row
    Dx = -_rmatvec(J, E)
    lam = (np.vecdot(Dx, Qx) + np.vecdot(E, Qv)) / (np.vecdot(Dx, Dx) + np.vecdot(E, E))
    return np.maximum(lam, 0.0)[:, None] * E


def _polyhedral_witness(G, J, Qx, Qv):
    """Nearest nonnegative combination of the pairs (-J^T g, g) of the
    generator rows g of G, shared by every row.

    The subsets of at most n generators are visited in
    ``itertools.combinations`` order, by size; each gives the least-squares
    combination of its pairs, clipped at 0, which is a point of the cone.
    The projection of q is the combination of a linearly independent subset
    with nonnegative coefficients, so the nearest candidate is the
    projection; the first one wins a tie.
    """
    n = G.shape[1]
    Q = np.concatenate([Qx, Qv], axis=1)
    JtG = _short_sum(G[:, :, None] * J[..., None, :, :], -2)  # rows J^T g
    P = np.concatenate([-JtG, np.broadcast_to(G, JtG.shape)],
                       axis=-1)  # pair rows, (g, 2n) or (N, g, 2n)
    best_d = np.full(Q.shape[0], np.inf)
    best_u = np.zeros_like(Qv)
    for size in range(1, min(G.shape[0], n) + 1):
        for idx in combinations(range(G.shape[0]), size):
            rows = list(idx)
            pinv = np.linalg.pinv(np.swapaxes(P[..., rows, :], -1, -2))
            lam = np.maximum(_matvec(pinv, Q), 0.0)  # (N, size)
            d = _norm(Q - _rmatvec(P[..., rows, :], lam))
            take = d < best_d
            best_d[take] = d[take]
            best_u[take] = _short_sum(lam[take, :, None] * G[rows], 1)
    return best_u


def pair_distances(cones: GraphNormalCone, q_x, q_v):
    """Distances in R^{2n} from the rows (q_x_i, q_v_i) of two (N, n)
    arrays to the rows of a cone stack, with the witnesses: (N,) distances
    and (N, n) vectors u_i such that (-J_i^T u_i, u_i) is the nearest point
    of cone i.

    One pass per cone kind, in closed form: ``zero`` is |q| with u = 0;
    ``subspace`` is u = (I + J J^T)^{-1} (q_v - J q_x), factored once for a
    shared J; ``ray`` is one clipped projection; ``polyhedral`` enumerates
    the generator subsets of each group of rows with the same active facets.
    """
    Qx, Qv = np.array(q_x, dtype=float), np.array(q_v, dtype=float)
    U = np.zeros_like(Qv)
    J = cones.jacobian
    for kind in ("subspace", "ray", "polyhedral"):
        rows = np.flatnonzero(cones.kind == kind)
        if not rows.size:
            continue
        J_rows = J if J.ndim == 2 else J[rows]
        if kind == "subspace":
            U[rows] = _subspace_witness(J_rows, Qx[rows], Qv[rows])
        elif kind == "ray":
            U[rows] = _ray_witness(J_rows, cones.direction[rows], Qx[rows], Qv[rows])
        else:
            masks, group = np.unique(cones.active[rows], axis=0, return_inverse=True)
            for g, mask in enumerate(masks):
                sub = group.reshape(-1) == g
                U[rows[sub]] = _polyhedral_witness(
                    cones.facets[mask], J_rows if J.ndim == 2 else J_rows[sub],
                    Qx[rows[sub]], Qv[rows[sub]])
    Rx, Rv = Qx + _rmatvec(J, U), Qv - U
    return np.sqrt(np.vecdot(Rx, Rx) + np.vecdot(Rv, Rv)), U


def _as_state(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _centers(fmap: _OffsetMap, t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """f(t_i, x_i) for the rows of a stack, shape (N, n).

    A map built with ``linear`` gives the whole stack from one call of its
    drift; any other drift is called row by row.
    """
    if fmap._linear is not None:
        return fmap._f(t, X)
    return np.array([fmap.center(ti, xi) for ti, xi in zip(t, X)]).reshape(X.shape)


def _jacobians(fmap: _OffsetMap, t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The Jacobians of f at the rows of a stack: the matrix (n, n) of a map
    built with ``linear``, the same at every row, else (N, n, n) row by row."""
    if fmap._linear is not None:
        return fmap._linear
    return np.stack([fmap.jacobian(ti, xi) for ti, xi in zip(t, X)])


def distance_and_projection(fmap: _OffsetMap, t, x, z):
    """(dist(z; F(t,x)), nearest point of F(t,x) to z).

    Stacked queries, ``t`` of shape (N,) with ``x`` and ``z`` of shape
    (N, n), give (N,) distances and (N, n) points from one body projection.
    """
    if np.ndim(t) == 0:
        x, z = _as_state(x), _as_state(z)
        c = fmap.center(t, x)
        d, p = fmap.body_distance_projection(z - c)
        return float(d), c + p
    c = _centers(fmap, t, np.asarray(x, dtype=float))
    d, p = fmap.body_distance_projection(np.asarray(z, dtype=float) - c)
    return d, c + p


def averaged_modulus(fmap: _OffsetMap, h: float, state_samples,
                     time_grid) -> float:
    """Sampled estimate of the time-averaged oscillation of t -> F(t, x).

    Integrates over the time grid the supremum (over the state samples) of
    the largest Hausdorff distance between values of F at two of 9 evenly
    spaced times in the window [t - h/2, t + h/2] clipped to the horizon.  A
    map built with ``linear`` is autonomous: its estimate is 0.0 without
    sampling, which is what the sampler returns for it.
    """
    if h <= 0:
        raise SetValuedError("window width h must be positive")
    tg = np.atleast_1d(np.asarray(time_grid, dtype=float))
    states = np.atleast_2d(np.asarray(state_samples, dtype=float))
    if tg.size == 0 or states.size == 0:
        raise SetValuedError("averaged modulus needs nonempty sample grids")
    if fmap._linear is not None:  # f(t, x) = A x does not depend on t
        return 0.0
    T = float(tg[-1])
    sigma = np.empty(tg.size)
    for i, t in enumerate(tg):
        lo, hi = max(0.0, t - h / 2), min(T, t + h / 2)
        window = np.linspace(lo, hi, 9)
        worst = 0.0
        for x in states:
            pts = np.array([fmap.center(tw, x) for tw in window])
            # max pairwise distance of the centers == max Hausdorff gap
            diff = pts[:, None, :] - pts[None, :, :]
            worst = max(worst, float(_short_norm(diff).max()))
        sigma[i] = worst
    return float(np.trapezoid(sigma, tg))


def graph_normal_cone(fmap: _OffsetMap, t, x, v) -> GraphNormalCone:
    """The stack of limiting normal cones to gph F(t_i,.) at (x_i, v_i).

    ``t`` of shape (N,) with ``x`` and ``v`` of shape (N, n) gives N rows,
    and a scalar ``t`` one row, from one feasibility gate, one body
    projection and one body-cone pass.  A row whose v is farther than
    ``CONE_TOL_FEAS`` from F(t, x) raises :class:`InfeasiblePointError`
    naming the first such row and its time.  Only a map not built with
    ``linear`` is asked for its Jacobian, row by row.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    X = np.asarray(x, dtype=float).reshape(ts.size, -1)
    V = np.asarray(v, dtype=float).reshape(X.shape)
    W = V - _centers(fmap, ts, X)
    dist, _ = fmap.body_distance_projection(W)
    far = np.flatnonzero(dist > CONE_TOL_FEAS)
    if far.size:
        i = int(far[0])
        raise InfeasiblePointError(
            f"row {i} (t = {ts[i]:.6g}): v is {dist[i]:.3e} away from F(t,x), "
            f"beyond the cone tolerance {CONE_TOL_FEAS:.1e}")
    return GraphNormalCone(jacobian=_jacobians(fmap, ts, X),
                           **fmap.body_normal_cone(W))


def coderivative(fmap: _OffsetMap, t: float, x, v, u):
    """D*F(t,.)(x, v)(u) as a list of vectors (empty or one element)."""
    cone = graph_normal_cone(fmap, t, x, v)
    u = _as_state(u)
    if np.linalg.norm(u + cone.project_u(-u, 0)) <= 1e-9:  # -u in the u-cone
        return [cone.row_jacobian(0).T @ u]
    return []
