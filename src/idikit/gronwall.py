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
consult the oracles.  The RK4 oracle steps the linear integro-ODE one
affine map per grid cell, its 4 RK4 substeps composed; it takes only a
uniform grid: any other grid raises GronwallDomainError.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "discrete_gronwall_forward",
    "discrete_gronwall_backward",
    "continuous_gronwall",
    "apriori_bounds",
    "forward_extremal",
    "backward_extremal",
    "continuous_extremal",
]


class GronwallDomainError(ValueError):
    pass


def _nonneg(name, arr):
    a = np.asarray(arr, dtype=float)
    if np.any(a < 0):
        raise GronwallDomainError(f"{name} must be nonnegative")
    return a


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


def _on_grid(f, grid: np.ndarray) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.shape[-1:] != grid.shape:
        raise GronwallDomainError("array input must match the grid shape")
    return arr


def _simpson_cells(y0, y1, y2, x21, x32) -> np.ndarray:
    """int over [x0, x1] of the parabola through y0, y1, y2 at x0, x1, x2, from
    the steps x21 = |x1 - x0| and x32 = |x2 - x1| (Cartwright's rule)."""
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y0 + coeff2 * y1 + coeff3 * y2)


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
    y0, y1, y2 = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2]  # cells 2j, 2j + 1
    x10, x21 = dx[:-1:2], dx[1::2]
    cells = np.empty(y.shape[:-1] + dx.shape)
    cells[..., :-1:2] = _simpson_cells(y0, y1, y2, x10, x21)
    cells[..., 1::2] = _simpson_cells(y2, y1, y0, x21, x10)
    if dx.size % 2:  # an even last interval, read backward
        cells[..., -1] = _simpson_cells(y[..., -1], y[..., -2], y[..., -3],
                                        dx[-1], dx[-2])
    return np.cumsum(cells, axis=-1)


def continuous_gronwall(rho0, a, b1, b2, grid) -> np.ndarray:
    """Majorant arc for rho' <= a + b1 rho + b2 * int rho, on the given grid.

    With b = max(b1, b2) pointwise the bound is
    rho0 exp(int (b+1)) + int a(s) exp(int_s^t (b+1)) ds, evaluated through
    cumulative composite-Simpson integrals of (b+1) and of a e^{-B}.
    Rows of shape (G,) give (G,); a stack, rho0 (N,) and rows (N, G),
    gives (N, G).
    """
    rho0 = _nonneg("rho0", rho0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise GronwallDomainError("grid needs at least three points")
    av = _nonneg("a", _on_grid(a, grid))
    b = np.maximum(_nonneg("b1", _on_grid(b1, grid)), _nonneg("b2", _on_grid(b2, grid)))
    B = np.insert(_cumulative_simpson(b + 1.0, grid), 0, 0.0, axis=-1)
    inner = np.insert(_cumulative_simpson(av * np.exp(-B), grid), 0, 0.0, axis=-1)
    growth = np.exp(B)
    return rho0[..., None] * growth + growth * inner


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
# Each oracle takes N instances stacked along axis 0: the recursions do every
# row's arithmetic in their loop's order, the RK4 oracle is its loop to 1e-12.


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


def _stage_blocks(coeffs: np.ndarray, grid: np.ndarray, hh: float, out: np.ndarray):
    """Yield (cells, block): the rows ``coeffs`` (3, G, N) at the 9 RK4 stage
    times of out.shape[3] cells after another, a (3, 9, cells, N) view of
    ``out`` (3, 2, 9, cells, N) that the next block overwrites.  Columns 0
    to 3 hold each substep's t (the stepping's t = grid[i], t += hh), 1 to 4
    its t + hh, 5 to 8 its t + hh/2, interpolated as np.interp does finite
    rows, bit for bit: (c[j+1] - c[j]) / dx_j * (t - x_j) + c[j], and c[j]
    where t == x_j or j == G - 1."""
    g, width = grid.size, out.shape[3]
    times = np.empty((9, g - 1))
    times[0], times[1:5] = grid[:-1], hh
    np.add.accumulate(times[:5], out=times[:5])
    np.add(times[:4], hh / 2, out=times[5:])
    lo = np.searchsorted(grid, times, side="right") - 1
    exact = (lo == g - 1) | (grid[lo] == times)
    offset = (times - grid[lo])[..., None]
    for i in range(0, g - 1, width):
        cells, near = slice(i, min(i + width, g - 1)), slice(i, i + width + 2)
        # each stage's (c[j], slope) from the nodes it can fall between, the
        # slope -0.0 on a node or past the last: -0.0 * (t - x_j) + c[j] is c[j]
        c = coeffs[:, near]
        table = np.concatenate([c, np.diff(c, axis=1) / np.diff(grid[near])[:, None],
                                np.full((3, 1, c.shape[2]), -0.0)], axis=1)
        at, w = lo[:, cells] - i, c.shape[1]
        # mode="clip" takes without a buffer; every index is in range
        both = table.take(np.stack([at, np.where(exact[:, cells], 2 * w - 1, w + at)]),
                          axis=1, out=out[..., :cells.stop - i, :], mode="clip")
        both[:, 1] *= offset[:, cells]; both[:, 1] += both[:, 0]
        yield cells, both[:, 1]


def _compose(outer, inner, out, tmp) -> np.ndarray:
    """[M | m] of y -> M2 (M1 y + m1) + m2 into ``out`` from [M2 | m2] and
    [M1 | m1], each as its rows (2, 3, ...); ``tmp`` is scratch like out."""
    np.multiply(outer[:, 0:1], inner[0], out=out)
    out += np.multiply(outer[:, 1:2], inner[1], out=tmp)
    out[:, 2] += outer[:, 2]
    return out


def _cell_maps(stage: np.ndarray, hh: float, out: np.ndarray, work: np.ndarray) -> None:
    """The map y -> C y + c of a cell's 4 RK4 substeps on y = (q, r) = (int
    rho, rho), y' = A y + e, A = [[0, 1], [b2, b1]], e = (0, a), from the
    stage block (3, 9, cells, N): the rows (q, r, 1 coefficients) of [C | c]
    into ``out`` (2, 3, cells, N), ``work`` (6, 3, 4, cells, N) as scratch.
    The stage slopes are maps K1 = A1, K2 = A2 (I + hh/2 K1), K3 = A2 (I +
    hh/2 K2), K4 = A4 (I + hh K3), the substep R = I + hh/6 (K1 + 2 K2 + 2 K3
    + K4).  Row q of A X is row r of X, so only rows r are formed: k' = b2 w
    + b1 u + (0, 0, a), u = e_r + h k and w = e_q + h (u before, or e_r)."""
    p1, p4, p2, half = stage[:, 0:4], stage[:, 1:5], stage[:, 5:9], hh / 2
    k, (u, w, tmp) = work[0:3], work[3:6]  # k2, k3, k4; k1 is p1
    np.multiply(half, p1, out=u); u[1] += 1.0
    np.multiply(p2[1], u, out=k[0]); k[0, 0] += p2[0]  # k2, with w = (1, hh/2, 0)
    k[0, 1] += half * p2[0]; k[0, 2] += p2[2]
    for s, p, h in ((1, p2, half), (2, p4, hh)):
        np.multiply(h, u, out=w); w[0] += 1.0
        np.multiply(h, k[s - 1], out=u); u[1] += 1.0
        np.multiply(p[0], w, out=k[s]); k[s] += np.multiply(p[1], u, out=tmp)
        k[s, 2] += p[2]
    # T = k2 + k3 and S = T + k1; R's rows e_q + hh e_r + hh^2/6 S and
    # e_r + hh/6 (S + T + k4) go into the spent k2 and k3
    k[0] += k[1]; np.add(k[0], p1, out=u)
    np.add(u, k[0], out=k[1]); k[1] += k[2]; k[1] *= hh / 6; k[1, 1] += 1.0
    np.multiply(hh * hh / 6, u, out=k[0]); k[0, 0] += 1.0; k[0, 1] += hh
    pairs = _compose(k[:2, :, 1::2], k[:2, :, 0::2], work[2:4, :, :2], work[4:6, :, :2])
    _compose(pairs[:, :, 1], pairs[:, :, 0], out, work[0:2, :, 0])


def continuous_extremal(rho0, a, b1, b2, grid) -> np.ndarray:
    """Equality case rho' = a + b1 rho + b2 int_0^t rho for N instances.

    rho0 has shape (N,) and the coefficient rows a, b1, b2 shape (N, G),
    sampled on the uniform grid (G,) and interpolated linearly between its
    points as np.interp does.  Fixed-step RK4 with 4 substeps per grid cell
    on the state (int rho, rho), dense enough to sit far below the
    continuous bound's built-in exp(t) slack.  Returns rho on the grid,
    shape (N, G).  A grid that is not uniform, or rows of another shape,
    raise GronwallDomainError.

    The system is linear: a cell's 4 substeps are one affine map, y <-
    C_i y + c_i, stepped cell after cell.  The stage times and coefficients
    are the stepping's and np.interp's, and row i of a stack is the call on
    instance i, bit for bit; the values are the loop that steps the stages
    (``tests/oracles.py``) to 1e-12 relative, with its non-finite entries.
    """
    grid = np.asarray(grid, dtype=float)
    hh = _uniform_step(grid) / 4
    rho0 = np.array(rho0, dtype=float)
    n, g = rho0.size, grid.size
    rows = [np.asarray(c, dtype=float) for c in (b2, b1, a)]
    if any(c.shape != (n, g) for c in rows):
        raise GronwallDomainError("coefficient rows must have shape (N, G)")
    # rows constant along the grid, finite and free of -0.0 are their own
    # interpolation: one map for all cells; others map blocks of about 4096
    # substep-instances, their work arrays and stage blocks one allocation
    coeffs = np.stack([c.T for c in rows])  # b2, b1, a: the rows r of [A | e]
    constant = ((coeffs == coeffs[:, :1]).all() and np.isfinite(coeffs).all()
                and not np.signbit(coeffs[coeffs == 0.0]).any())
    width = 1 if constant else max(1, 4096 // max(n, 1))
    scratch = np.empty(126 * width * n)
    maps = np.empty((width, 3, 2, n))  # each cell's [C | c] by columns, for both rows
    work = scratch[:72 * width * n].reshape(6, 3, 4, width, n)
    blocks = ([(slice(0, g - 1), np.broadcast_to(coeffs[:, None, :1], (3, 9, 1, n)))]
              if constant else _stage_blocks(coeffs, grid, hh,
                                             scratch[72 * width * n:].reshape(3, 2, 9, width, n)))
    y, (t0, t1), out = np.zeros((2, n)), np.empty((2, 2, n)), np.empty((n, g))
    out[:, 0] = y[1] = rho0  # y = (int rho, rho)
    for cells, stage in blocks:
        m = stage.shape[2]
        _cell_maps(stage, hh, maps[:m].transpose(2, 1, 0, 3), work[..., :m, :])
        block = np.broadcast_to(maps[:m], (cells.stop - cells.start, 3, 2, n))
        for j, (cq, cr, off) in enumerate(block, cells.start + 1):
            np.multiply(cq, y[0], out=t0); t0 += np.multiply(cr, y[1], out=t1)
            out[:, j] = np.add(t0, off, out=y)[1]
    return out
