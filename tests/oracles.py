"""Scalar reference implementations the tests hold the package to.

One copy of each brute-force oracle: the Gronwall equality cases, one
instance at a time (the batched oracles in ``idikit.gronwall`` must agree
with them), and the objective-only gradient and minimizer of the Bolza
problem.
"""

import numpy as np

from idikit.bolza import ControlParameterization, _objective


def forward_recursion(e0, sigma, rho, gamma):
    """Equality case of the forward recursion (its pointwise maximum)."""
    n = len(sigma)
    e = np.empty(n + 1)
    e[0] = e0
    for i in range(n):
        e[i + 1] = sigma[i] + rho[i] * e[:i].sum() + (1 + gamma[i]) * e[i]
    return e


def backward_recursion(x_k, c, b, a):
    """Equality case of the terminal-anchored recursion, x_{k+1} = 0."""
    k = len(c)
    x = np.zeros(k + 2)
    x[k] = x_k
    for j in range(k - 1, -1, -1):
        x[j] = c[j] + b[j] * x[j + 2:k + 2].sum() + (1 + a[j]) * x[j + 1]
    return x


def integro_rk4(rho0, a, b1, b2, grid):
    """Equality case rho' = a + b1 rho + b2 int rho by fixed-step RK4.

    Four substeps per cell of the uniform grid; the coefficient samples are
    interpolated linearly with np.interp.
    """
    def f(t, y):
        return np.array([np.interp(t, grid, a) + np.interp(t, grid, b1) * y[0]
                         + np.interp(t, grid, b2) * y[1], y[0]])

    y = np.array([rho0, 0.0])
    out = [rho0]
    h = grid[1] - grid[0]
    for i in range(grid.size - 1):
        t = grid[i]
        for _ in range(4):
            hh = h / 4
            k1 = f(t, y)
            k2 = f(t + hh / 2, y + hh / 2 * k1)
            k3 = f(t + hh / 2, y + hh / 2 * k2)
            k4 = f(t + hh, y + hh * k3)
            y = y + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += hh
        out.append(y[0])
    return np.array(out)


def fd_gradient(dbp, controls, rho=0.0, step=1e-6):
    """Central-difference gradient of the penalized objective."""
    u0 = controls.u.copy()
    g = np.zeros_like(u0)
    for j in range(u0.shape[0]):
        for i in range(u0.shape[1]):
            up = u0.copy(); up[j, i] += step
            dn = u0.copy(); dn[j, i] -= step
            fp, _ = _objective(dbp, ControlParameterization(up), rho)
            fm, _ = _objective(dbp, ControlParameterization(dn), rho)
            g[j, i] = (fp - fm) / (2 * step)
    return g


def quadratic_oracle(dbp, controls0):
    """Exact minimizer of the (quadratic) objective via sampled Hessian.

    Uses only objective values: for affine dynamics and quadratic costs the
    finite-difference identities below are exact up to roundoff, so the
    normal-equations solve is an independent oracle.
    """
    k, n = controls0.u.shape
    N = k * n
    base = controls0.u.ravel()

    def f(vec):
        val, _ = _objective(dbp, ControlParameterization(vec.reshape(k, n)), 0.0)
        return val

    f0 = f(base)
    E = np.eye(N)
    fp = np.array([f(base + E[i]) for i in range(N)])
    fm = np.array([f(base - E[i]) for i in range(N)])
    g = (fp - fm) / 2.0
    H = np.empty((N, N))
    for i in range(N):
        H[i, i] = fp[i] + fm[i] - 2 * f0
        for j in range(i + 1, N):
            fij = f(base + E[i] + E[j])
            H[i, j] = H[j, i] = fij - fp[i] - fp[j] + f0
    sol = base + np.linalg.solve(H, -g)
    return ControlParameterization(sol.reshape(k, n))
