"""Certified Gronwall-type bounds and the a-priori trajectory estimates.

Each evaluator returns the closed-form majorant.  Next to the bounds sit the
equality-case oracles the `audit` subcommand checks them against: the
forward and backward recursions and an RK4 solve of the integro-ODE, each
run on a stack of N instances: first argument (N,), rows (N, m) or (N, G).
The bounds take such a stack too, or one instance (a scalar and rows (m,)
or (G,)), and work along the last axis: row i of a stacked bound is bit for
bit the call on instance i.  Instances of different lengths may share one
stack zero-padded to the longest, at the end for the forward recursion
(causal: a row's first m + 1 columns do not see the padding) and at the
front for the backward one (anchored at the terminal: a row's last m - 1
covered columns do not see it); in those covered columns row i of a bound
or of its oracle is bit for bit the call on instance i, and zero padding
passes the nonnegativity checks and stays finite.  The bounds never
consult the oracles.  The RK4 oracle forms its stage times and finds their
grid cells once per call, interpolates each cell's stage coefficients as
one block (once per call for rows that are constant, finite and free of
-0.0) and steps the packed (int rho, rho, rho') rows of one workspace; it
takes only a uniform grid: any other grid raises GronwallDomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "BoundCertificate",
    "discrete_gronwall_forward",
    "discrete_gronwall_backward",
    "continuous_gronwall",
    "apriori_bounds",
    "forward_extremal",
    "backward_extremal",
    "continuous_extremal",
]

CERT_TOL = 1e-12


class GronwallDomainError(ValueError):
    pass


def _nonneg(name, arr):
    a = np.asarray(arr, dtype=float)
    if np.any(a < 0):
        raise GronwallDomainError(f"{name} must be nonnegative")
    return a


@dataclass(frozen=True)
class BoundCertificate:
    """A bound sequence together with the witness values it must dominate."""

    bounds: np.ndarray
    actual: np.ndarray

    @property
    def slack(self) -> np.ndarray:
        return self.bounds - self.actual

    @property
    def min_slack(self) -> float:
        return float(self.slack.min())

    @property
    def certified(self) -> bool:
        return self.min_slack >= -CERT_TOL


def discrete_gronwall_forward(e0, sigma, rho, gamma) -> np.ndarray:
    """Majorant for e_{n+1} <= sigma_n + rho_n * sum_{i<n} e_i + (1+gamma_n) e_n.

    Returns the values (e0 + sum_{i<n} sigma_i) * exp(sum_{i<n} (i rho_i +
    gamma_i)) for n = 0..m; the n = 0 entry is e0 itself.  Rows of shape
    (m,) give (m+1,); a stack, e0 (N,) and rows (N, m), gives (N, m+1).
    """
    e0 = _nonneg("e0", e0)
    sigma = _nonneg("sigma", sigma)
    rho = _nonneg("rho", rho)
    gamma = _nonneg("gamma", gamma)
    csum = np.insert(np.cumsum(sigma, axis=-1), 0, 0.0, axis=-1)
    cexp = np.insert(np.cumsum(np.arange(sigma.shape[-1]) * rho + gamma, axis=-1),
                     0, 0.0, axis=-1)
    return (e0[..., None] + csum) * np.exp(cexp)


def discrete_gronwall_backward(x_k, c, b, a) -> np.ndarray:
    """Majorant for the terminal-anchored recursion with x_{k+1} = 0.

    Hypothesis: x_j <= c_j + b_j * sum_{i=j+1}^{k} x_{i+1} + (1+a_j) x_{j+1}
    for j = 0..k-1.  Returns bounds on x_{j+1} for j = 0..k-2:
    (x_k + sum_{i=j+1}^{k-1} c_i) * exp(sum_{i=j+1}^{k-1} ((k-i-1) b_i + a_i)).
    The x_{k+1} = 0 convention is built in, not supplied by the caller.
    Rows of shape (k,) give (k-1,); a stack, x_k (N,) and rows (N, k), gives
    (N, k-1).

    The weight k-i-1 on b_i counts the accumulated future terms the i-th
    inequality couples to; it is exactly what the index reversal
    u_{k-j} = x_j turns into the forward weight i, and it is the version
    that actually dominates the recursion (the transposed weight i-j-1
    fails on adversarial data with a large b at small index).
    """
    x_k = _nonneg("x_k", x_k)
    c = _nonneg("c", c)
    b = _nonneg("b", b)
    a = _nonneg("a", a)
    rev = np.s_[..., :0:-1]  # i = k-1, ..., 1, where the weight k-i-1 is 0, ..., k-2
    csum = np.cumsum(c[rev], axis=-1)
    wsum = np.cumsum(np.arange(c.shape[-1] - 1) * b[rev] + a[rev], axis=-1)
    # formed in the reversed order and turned round last: np.exp of a
    # contiguous row rounds as it does for the row alone, of a strided view not
    return ((x_k[..., None] + csum) * np.exp(wsum))[..., ::-1]


ArrOrFn = Union[np.ndarray, Callable[[float], float]]


def _on_grid(f: ArrOrFn, grid: np.ndarray) -> np.ndarray:
    if callable(f):
        return np.array([float(f(t)) for t in grid])
    arr = np.asarray(f, dtype=float)
    if arr.shape[-1:] != grid.shape:
        raise GronwallDomainError("array input must match the grid shape")
    return arr


def _simpson_first_cells(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """int_{x_i}^{x_{i+1}} of the parabola through the samples i, i+1, i+2,
    for i = 0..len(y)-3 (Cartwright's rule for unequal intervals)."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[..., :-2] + coeff2 * y[..., 1:-1]
                      + coeff3 * y[..., 2:])


def _cumulative_simpson(y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Cumulative composite Simpson integral of samples y, shape (G,) or
    (N, G), on a strictly increasing grid of G >= 3 points: the integral
    from grid[0] to each of grid[1:], along the last axis.

    Interval i takes the parabola through its own two samples and the next
    one, read forward on even i and backward (through the previous sample)
    on odd i and on the last interval; this is the arithmetic of
    scipy's ``cumulative_simpson(y, x=grid)``, bit for bit.
    """
    dx = np.diff(grid)
    if np.any(dx <= 0):
        raise GronwallDomainError("grid must be strictly increasing")
    forward = _simpson_first_cells(y, dx)
    backward = _simpson_first_cells(y[..., ::-1], dx[::-1])[..., ::-1]
    cells = np.empty(y.shape[:-1] + dx.shape)
    cells[..., :-1:2] = forward[..., ::2]
    cells[..., 1::2] = backward[..., ::2]
    cells[..., -1] = backward[..., -1]
    return np.cumsum(cells, axis=-1)


def continuous_gronwall(rho0, a: ArrOrFn, b1: ArrOrFn, b2: ArrOrFn,
                        grid) -> np.ndarray:
    """Majorant arc for rho' <= a + b1 rho + b2 * int rho, on the given grid.

    With b = max(b1, b2) pointwise the bound is
    rho0 exp(int (b+1)) + int a(s) exp(int_s^t (b+1)) ds, evaluated through
    cumulative composite-Simpson integrals of (b+1) and of a e^{-B}.
    Rows of shape (G,) or callables give (G,); a stack, rho0 (N,) and rows
    (N, G), gives (N, G).
    """
    rho0 = _nonneg("rho0", rho0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise GronwallDomainError("grid needs at least three points")
    av = _nonneg("a", _on_grid(a, grid))
    b = np.maximum(_nonneg("b1", _on_grid(b1, grid)), _nonneg("b2", _on_grid(b2, grid)))
    B = np.insert(_cumulative_simpson(b + 1.0, grid), 0, 0.0, axis=-1)
    inner = np.insert(_cumulative_simpson(av * np.exp(-B), grid), 0, 0.0, axis=-1)
    return rho0[..., None] * np.exp(B) + np.exp(B) * inner


def apriori_bounds(problem) -> tuple:
    """Uniform trajectory/velocity bounds (M1, M2) from the problem constants.

    M1 = (1 + |x0| + m_F/(beta+1)) exp(T (beta+1)) dominates 1 + |x(t)| and
    M2 = m_F + beta T M1 dominates |dx/dt| for every feasible trajectory.
    Accepts any object exposing m_F, beta, horizon and x0.
    """
    m_f = float(problem.m_F)
    beta = float(problem.beta)
    T = float(problem.horizon)
    x0n = float(np.linalg.norm(np.atleast_1d(problem.x0)))
    m1 = (1.0 + x0n + m_f / (beta + 1.0)) * np.exp(T * (beta + 1.0))
    m2 = m_f + beta * T * m1
    return float(m1), float(m2)


# --- equality-case oracles, batched over instances ----------------------------
#
# Each oracle takes N instances stacked along axis 0 and does for every row
# the arithmetic of the one-instance loop it batches, in the same order.


def forward_extremal(e0, sigma, rho, gamma) -> np.ndarray:
    """Equality case of the forward recursion for N instances of length m.

    e0 has shape (N,) and sigma, rho, gamma shape (N, m).  Returns e of shape
    (N, m+1) with e_0 = e0 and
    e_{n+1} = sigma_n + rho_n * sum_{i<n} e_i + (1+gamma_n) e_n,
    the pointwise maximum of the sequences `discrete_gronwall_forward` bounds.
    """
    e = np.empty((sigma.shape[0], sigma.shape[1] + 1))
    e[:, 0] = e0
    for i in range(sigma.shape[1]):
        e[:, i + 1] = (sigma[:, i] + rho[:, i] * e[:, :i].sum(axis=1)
                       + (1 + gamma[:, i]) * e[:, i])
    return e


def backward_extremal(x_k, c, b, a) -> np.ndarray:
    """Equality case of the terminal-anchored recursion for N instances.

    x_k has shape (N,) and c, b, a shape (N, k).  Returns x of shape
    (N, k+2) with x_k given, x_{k+1} = 0 and, for j = k-1, ..., 0,
    x_j = c_j + b_j * sum_{i=j+2}^{k+1} x_i + (1+a_j) x_{j+1}.
    Columns 1..k-1 are what `discrete_gronwall_backward` bounds.
    """
    n, k = c.shape
    x = np.zeros((n, k + 2))
    x[:, k] = x_k
    for j in range(k - 1, -1, -1):
        x[:, j] = (c[:, j] + b[:, j] * x[:, j + 2:].sum(axis=1)
                   + (1 + a[:, j]) * x[:, j + 1])
    return x


def _uniform_step(grid: np.ndarray) -> float:
    """The cell width of an increasing uniform grid of at least two points.

    Widths may differ from the first by 16 eps times the grid's largest
    magnitude, room for the rounding np.linspace leaves; any other grid, or
    one of fewer than two points, raises GronwallDomainError.
    """
    if grid.ndim != 1 or grid.size < 2:
        raise GronwallDomainError("grid needs at least two points")
    dx = np.diff(grid)
    tol = 16 * np.finfo(float).eps * max(abs(grid[0]), abs(grid[-1]))
    if not (np.all(dx > 0) and np.all(np.abs(dx - dx[0]) <= tol)):
        raise GronwallDomainError("grid must be increasing and uniform")
    return dx[0]


def continuous_extremal(rho0, a, b1, b2, grid) -> np.ndarray:
    """Equality case rho' = a + b1 rho + b2 int_0^t rho for N instances.

    rho0 has shape (N,) and the coefficient rows a, b1, b2 shape (N, G),
    sampled on the uniform grid (G,) and interpolated linearly between its
    points as np.interp does.  Fixed-step RK4 with 4 substeps per grid cell
    on the state (rho, int rho), dense enough to sit far below the
    continuous bound's built-in exp(t) slack.  Returns rho on the grid,
    shape (N, G).  A grid that is not uniform, or rows of another shape,
    raise GronwallDomainError.

    The stage times are formed up front, with the float arithmetic of the
    stepping (t = grid[i], t + hh/2, t + hh, t += hh), and located in the
    grid by one search; each cell then interpolates the three coefficients
    at its 9 distinct stages as one (9, 3, N) block, or, where every row is
    constant along the grid, finite and free of -0.0, fills that block once
    with the rows themselves, which the interpolation would give back bit
    for bit.  Stage s of a substep is the rows (q, r, k) of one (4, 3, N)
    workspace, so its state (q, r) and its slope (r, k) are two overlapping
    views and every step of the stage scheme runs on both components at
    once, in place.  The result is bit for bit the loop that looks up every
    stage on its own and steps rho and int rho as separate rows
    (``tests/oracles.py``).
    """
    grid = np.asarray(grid, dtype=float)
    hh = _uniform_step(grid) / 4
    rho0 = np.array(rho0, dtype=float)
    n, g = rho0.size, grid.size
    rows = [np.asarray(c, dtype=float) for c in (b2, b1, a)]
    if any(c.shape != (n, g) for c in rows):
        raise GronwallDomainError("coefficient rows must have shape (N, G)")
    # (G, 3, N): b2, b1, a, C-ordered so that taking a cell's stage rows
    # copies only those rows
    coeffs = np.empty((g, 3, n))
    for k, c in enumerate(rows):
        coeffs[:, k] = c.T

    # the 9 distinct stage times of each cell: column 0 is t = grid[i]; the
    # substep whose t is in column s takes t + hh/2 in column s + 1 (its k2
    # and k3) and t + hh in column s + 2 (its k4, and the next substep's t
    # as t += hh gives it)
    times = np.empty((g - 1, 9))
    times[:, 0] = grid[:-1]
    for s in range(0, 8, 2):
        times[:, s + 1] = times[:, s] + hh / 2
        times[:, s + 2] = times[:, s] + hh
    # np.interp(t, grid, row) with its arithmetic, (c[j+1] - c[j]) / dx_j *
    # (t - x_j) + c[j], and c[j] itself where t == x_j or j == G - 1
    lo = np.searchsorted(grid, times, side="right") - 1
    hi = np.minimum(lo + 1, g - 1)
    exact = (lo == g - 1) | (grid[lo] == times)
    width = np.where(exact, 1.0, grid[hi] - grid[lo])[..., None, None]
    offset = (times - grid[lo])[..., None, None]
    exact = exact[..., None, None]
    left = np.empty((9, 3, n))
    stage = np.empty((9, 3, n))  # rows b2, b1, a at the 9 stage times

    # W[s] = (q, r, k) of stage s: W[s, 0:2] its state, W[s, 1:3] its slope
    W = np.empty((4, 3, n))
    W[0, 0] = 0.0
    W[0, 1] = rho0
    y1, y2, y3, y4 = (W[s, 0:2] for s in range(4))
    s1, s2, s3, s4 = (W[s, 1:3] for s in range(4))
    k1, k2, k3, k4 = (W[s, 2] for s in range(4))
    tmp = np.empty((2, n))
    b2q, b1r = tmp
    mid = W[1:3, 1:3]  # s2, s3
    twice = np.empty((2, 2, n))
    d2, d3 = twice
    acc = np.empty((2, n))
    half, sixth = hh / 2, hh / 6
    # per substep: the (b2, b1) pairs and the a rows of its k1, k2 = k3, k4
    substeps = [(stage[c, 0:2], stage[c + 1, 0:2], stage[c + 2, 0:2],
                 stage[c, 2], stage[c + 1, 2], stage[c + 2, 2])
                for c in range(0, 8, 2)]
    mul, add = np.multiply, np.add

    # rows constant along the grid, finite and free of -0.0: there
    # (c - c) / dx * (t - x) + c is c itself, so every stage of every cell
    # takes the first node's rows and the block is filled once
    constant = ((coeffs == coeffs[0]).all() and np.isfinite(coeffs).all()
                and not np.signbit(coeffs[coeffs == 0.0]).any())
    if constant:
        stage[:] = coeffs[0]

    out = np.empty((n, g))
    out[:, 0] = rho0
    for i in range(g - 1):
        if not constant:
            # mode="clip" takes without a buffer; every index is in range
            coeffs.take(lo[i], axis=0, out=left, mode="clip")
            coeffs.take(hi[i], axis=0, out=stage, mode="clip")
            np.subtract(stage, left, out=stage)
            np.divide(stage, width[i], out=stage)
            np.multiply(stage, offset[i], out=stage)
            np.add(stage, left, out=stage)
            np.copyto(stage, left, where=exact[i])
        for p1, p2, p4, a1, a2, a4 in substeps:
            # k = (a + b1 r) + b2 q; the next stage's state is y + h slope
            mul(p1, y1, out=tmp); add(a1, b1r, out=k1); add(k1, b2q, out=k1)
            mul(half, s1, out=tmp); add(y1, tmp, out=y2)
            mul(p2, y2, out=tmp); add(a2, b1r, out=k2); add(k2, b2q, out=k2)
            mul(half, s2, out=tmp); add(y1, tmp, out=y3)
            mul(p2, y3, out=tmp); add(a2, b1r, out=k3); add(k3, b2q, out=k3)
            mul(hh, s3, out=tmp); add(y1, tmp, out=y4)
            mul(p4, y4, out=tmp); add(a4, b1r, out=k4); add(k4, b2q, out=k4)
            # y += hh/6 (((s1 + 2 s2) + 2 s3) + s4)
            mul(2.0, mid, out=twice)
            add(s1, d2, out=acc); add(acc, d3, out=acc)
            add(acc, s4, out=acc)
            mul(sixth, acc, out=acc); add(y1, acc, out=y1)
        out[:, i + 1] = W[0, 1]
    return out
