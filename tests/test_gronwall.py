import bisect
import itertools

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, solve_ivp

from idikit.gronwall import (GronwallDomainError, _cumulative_simpson,
                             _uniform_step, apriori_bounds, backward_extremal,
                             continuous_extremal, continuous_gronwall,
                             discrete_gronwall_backward,
                             discrete_gronwall_forward, forward_extremal)
from oracles import (BoundCertificate, backward_recursion,
                     continuous_extremal_loop, forward_recursion, integro_rk4)


# --- brute-force oracles -----------------------------------------------------

def _interp(grid, *values):
    """t -> (np.interp(t, grid, v) for v in values) bit for bit, with one
    search of the grid, on Python floats."""
    xs, ys = grid.tolist(), [v.tolist() for v in values]

    def at(t):
        j = bisect.bisect_right(xs, t) - 1
        if j < 0:
            return [y[0] for y in ys]
        if j >= len(xs) - 1:
            return [y[-1] for y in ys]
        if xs[j] == t:
            return [y[j] for y in ys]
        dx, dt = xs[j + 1] - xs[j], t - xs[j]
        return [(y[j + 1] - y[j]) / dx * dt + y[j] for y in ys]

    return at


def integro_ode_worst_case(rho0, a, b1, b2, grid):
    """Stiffly integrated equality case rho' = a + b1 rho + b2 int rho."""
    coefficients = _interp(grid, a, b1, b2)

    def rhs(t, y):
        y0, y1 = y.tolist()
        av, b1v, b2v = coefficients(t)
        return [av + b1v * y0 + b2v * y1, y0]

    sol = solve_ivp(rhs, (grid[0], grid[-1]), [rho0, 0.0], t_eval=grid,
                    rtol=1e-8, atol=1e-11, method="RK45")
    return sol.y[0]


# --- forward -----------------------------------------------------------------

def test_forward_no_growth():
    out = discrete_gronwall_forward(2.0, np.zeros(5), np.zeros(5), np.zeros(5))
    assert np.allclose(out, 2.0)


def test_forward_exp_limit():
    n = 400
    out = discrete_gronwall_forward(1.0, np.zeros(n), np.zeros(n),
                                    np.full(n, 1.0 / n))
    assert out[-1] == pytest.approx(np.e, rel=1e-12)
    # oracle: the recursion equality stays below
    e = forward_recursion(1.0, np.zeros(n), np.zeros(n), np.full(n, 1.0 / n))
    assert e[-1] <= out[-1]


def test_forward_dominates_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        e0 = rng.exponential(1.0)
        sigma = rng.exponential(0.5, n)
        rho = rng.exponential(0.3, n)
        gamma = rng.exponential(0.3, n)
        bound = discrete_gronwall_forward(e0, sigma, rho, gamma)
        actual = forward_recursion(e0, sigma, rho, gamma)
        cert = BoundCertificate(bounds=bound, actual=actual)
        assert cert.certified, (e0, sigma, rho, gamma)


def test_forward_rejects_negative():
    with pytest.raises(GronwallDomainError):
        discrete_gronwall_forward(-1.0, np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(GronwallDomainError):
        discrete_gronwall_forward(1.0, np.array([-0.1, 0]), np.zeros(2), np.zeros(2))


# --- backward ----------------------------------------------------------------

def test_backward_no_growth():
    out = discrete_gronwall_backward(3.0, np.zeros(6), np.zeros(6), np.zeros(6))
    assert np.allclose(out, 3.0)


def test_backward_is_index_reversed_forward():
    # the proof substitution u_{k-j} = x_j maps one bound onto the other
    rng = np.random.default_rng(9)
    for _ in range(200):
        k = int(rng.integers(2, 10))
        c = rng.exponential(1.0, k)
        b = rng.exponential(1.0, k)
        a = rng.exponential(1.0, k)
        x_k = rng.exponential(1.0)
        back = discrete_gronwall_backward(x_k, c, b, a)
        fwd = discrete_gronwall_forward(x_k, c[::-1], b[::-1], a[::-1])
        # forward index n corresponds to x_{k-n}; bound x_{j+1} is entry k-j-1
        mirror = np.array([fwd[k - j - 1] for j in range(k - 1)])
        assert np.allclose(back, mirror, rtol=1e-13)


def test_backward_dominates_randomized():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        k = int(rng.integers(2, 12))
        c = rng.exponential(0.7, k)
        b = rng.exponential(0.7, k)
        a = rng.exponential(0.5, k)
        x_k = rng.exponential(1.0)
        bound = discrete_gronwall_backward(x_k, c, b, a)
        x = backward_recursion(x_k, c, b, a)
        cert = BoundCertificate(bounds=bound, actual=x[1:k])
        assert cert.certified, (x_k, c, b, a)


def test_backward_rejects_negative():
    with pytest.raises(GronwallDomainError):
        discrete_gronwall_backward(1.0, np.array([0.1, -0.2]), np.zeros(2), np.zeros(2))


# --- continuous --------------------------------------------------------------

def test_continuous_zero_data_keeps_plus_one():
    grid = np.linspace(0, 1, 101)
    out = continuous_gronwall(1.0, np.zeros_like(grid), np.zeros_like(grid),
                              np.zeros_like(grid), grid)
    assert np.allclose(out, np.exp(grid), rtol=1e-8)


def test_continuous_constant_coefficients_closed_form():
    # a == m_F, b == beta: rho0 e^{(b+1)t} + m_F (e^{(b+1)t} - 1)/(b+1)
    m_f, beta = 0.8, 1.5
    grid = np.linspace(0, 1, 201)
    out = continuous_gronwall(1.0, np.full_like(grid, m_f),
                              np.full_like(grid, beta),
                              np.full_like(grid, beta), grid)
    closed = np.exp((beta + 1) * grid) + m_f * (np.exp((beta + 1) * grid) - 1) / (beta + 1)
    assert np.allclose(out, closed, rtol=1e-8)
    # stays below the simplified constant-coefficient majorant
    display = (1.0 + m_f / (beta + 1)) * np.exp((beta + 1) * grid)
    assert np.all(out <= display * (1 + 1e-12))


def test_continuous_integro_ode_oracle():
    # rho' <= int_0^t rho: worst case rho = cosh(t) <= e^{2t}
    grid = np.linspace(0, 1, 201)
    out = continuous_gronwall(1.0, np.zeros_like(grid), np.zeros_like(grid),
                              np.ones_like(grid), grid)
    worst = integro_ode_worst_case(1.0, np.zeros_like(grid),
                                   np.zeros_like(grid), np.ones_like(grid), grid)
    assert np.allclose(worst, np.cosh(grid), rtol=1e-7)
    assert np.all(out >= worst - 1e-9)


def test_continuous_dominates_randomized():
    rng = np.random.default_rng(5150)
    grid = np.linspace(0, 1, 81)
    for _ in range(1000):
        rho0 = rng.exponential(1.0)
        a = rng.exponential(0.5) * (1 + np.sin(rng.uniform(0, 6) * grid)) / 2
        b1 = rng.exponential(0.5) * (1 + np.cos(rng.uniform(0, 6) * grid)) / 2
        b2 = rng.exponential(0.5) * np.ones_like(grid)
        bound = continuous_gronwall(rho0, a, b1, b2, grid)
        actual = integro_ode_worst_case(rho0, a, b1, b2, grid)
        cert = BoundCertificate(bounds=bound, actual=actual - 1e-9 * (1 + np.abs(actual)))
        assert cert.certified


def test_continuous_monotone_in_inputs():
    grid = np.linspace(0, 1, 81)
    base = continuous_gronwall(1.0, 0.3 * np.ones_like(grid),
                               0.2 * np.ones_like(grid),
                               0.1 * np.ones_like(grid), grid)
    bigger = continuous_gronwall(1.0, 0.4 * np.ones_like(grid),
                                 0.2 * np.ones_like(grid),
                                 0.1 * np.ones_like(grid), grid)
    assert np.all(bigger >= base - 1e-12)


def test_discrete_monotone_in_inputs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = 6
        sigma = rng.exponential(0.5, n)
        rho = rng.exponential(0.3, n)
        gamma = rng.exponential(0.3, n)
        base = discrete_gronwall_forward(1.0, sigma, rho, gamma)
        up = discrete_gronwall_forward(1.0, sigma + 0.1, rho, gamma)
        assert np.all(up >= base - 1e-12)


# --- batched audit oracles against the scalar ones ------------------------------

def test_batched_discrete_oracles_match_scalar():
    # every length m = 1..11, as one instance and as a stack of 20; a stacked
    # bound gives each row bit for bit as the one-instance call
    rng = np.random.default_rng(404)
    for m in range(1, 12):
        for n in (1, 20):
            first = rng.exponential(1.0, n)
            p, q, r = (rng.exponential(0.5, (n, m)) for _ in range(3))
            for bound, width in ((discrete_gronwall_forward, m + 1),
                                 (discrete_gronwall_backward, m - 1)):
                stacked = bound(first, p, q, r)
                assert stacked.shape == (n, width)
                for i, row in enumerate(stacked):
                    assert np.array_equal(row, bound(first[i], p[i], q[i], r[i]))
            np.testing.assert_allclose(
                forward_extremal(first, p, q, r),
                [forward_recursion(*row) for row in zip(first, p, q, r)],
                rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                backward_extremal(first, p, q, r),
                [backward_recursion(*row) for row in zip(first, p, q, r)],
                rtol=1e-12, atol=0)


def test_batched_continuous_oracle_matches_scalar():
    rng = np.random.default_rng(5151)
    grid = np.linspace(0, 1, 33)
    for n in (1, 200):
        rho0 = rng.exponential(1.0, n)
        a = rng.exponential(0.5, (n, 1)) \
            * (1 + np.sin(rng.uniform(0, 6, (n, 1)) * grid)) / 2
        b1 = rng.exponential(0.5, (n, 1)) \
            * (1 + np.cos(rng.uniform(0, 6, (n, 1)) * grid)) / 2
        b2 = rng.exponential(0.5, (n, 1)) * np.ones_like(grid)
        stacked = continuous_gronwall(rho0, a, b1, b2, grid)
        assert stacked.shape == (n, grid.size)
        for row, args in zip(stacked, zip(rho0, a, b1, b2)):
            assert np.array_equal(row, continuous_gronwall(*args, grid))
        np.testing.assert_allclose(
            continuous_extremal(rho0, a, b1, b2, grid),
            [integro_rk4(*row, grid) for row in zip(rho0, a, b1, b2)],
            rtol=1e-12, atol=0)


def _coefficient_rows(rng, n, grid, constant):
    """Three (N, G) rows: one value per instance broadcast along the grid,
    as the audit passes them, or independent samples at every point."""
    if constant:
        return [np.broadcast_to(rng.exponential(0.4, (n, 1)), (n, grid.size))
                for _ in range(3)]
    return [rng.exponential(0.4, (n, grid.size)) for _ in range(3)]


def test_continuous_extremal_is_the_stage_loop_bit_for_bit():
    rng = np.random.default_rng(5152)
    for g, n, start, constant in itertools.product(
            (2, 3, 33, 65, 81), (1, 250), (0.0, 1e3), (True, False)):
        grid = np.linspace(start, start + 1.0, g)
        rho0 = rng.exponential(1.0, n)
        rows = _coefficient_rows(rng, n, grid, constant)
        assert np.array_equal(continuous_extremal(rho0, *rows, grid),
                              continuous_extremal_loop(rho0, *rows, grid)), \
            (g, n, start, constant)


def test_continuous_extremal_stage_at_a_node_and_one_ulp_off():
    # on linspace(0, 1, 33) the accumulated t + hh of every cell's last
    # stage is the next node exactly (the exact-node branch); every other
    # inner node moved one ulp down or up puts it one ulp past the node (the
    # next cell's interpolation) or one ulp short of it
    rng = np.random.default_rng(5153)
    exact = np.linspace(0.0, 1.0, 33)
    hh = (exact[1] - exact[0]) / 4
    seen = set()
    for way in (0.0, -np.inf, np.inf):
        grid = exact.copy()
        if way:
            grid[1:-1:2] = np.nextafter(grid[1:-1:2], way)
        end = grid[:-1]
        for _ in range(4):
            end = end + hh
        seen |= {int(e) for e in np.sign(end - grid[1:])}
        rho0 = rng.exponential(1.0, 250)
        rows = _coefficient_rows(rng, 250, grid, False)
        assert np.array_equal(continuous_extremal(rho0, *rows, grid),
                              continuous_extremal_loop(rho0, *rows, grid)), way
    assert seen == {-1, 0, 1}


def test_continuous_extremal_on_no_instances():
    grid = np.linspace(0.0, 1.0, 33)
    rows = [np.empty((0, grid.size))] * 3
    out = continuous_extremal(np.empty(0), *rows, grid)
    assert out.shape == (0, grid.size)
    assert np.array_equal(out, continuous_extremal_loop(np.empty(0), *rows, grid))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_continuous_extremal_non_finite_is_the_loop():
    # one inf, -inf or NaN in one instance's a, b1 or b2, at the first, an
    # inner or the last node: stages on that node take it as it is, stages
    # between it and its neighbours interpolate it; the audit counts a
    # non-finite entry as a violation, so NaN and inf must land where the
    # loop puts them
    rng = np.random.default_rng(5154)
    grid = np.linspace(0.0, 1.0, 33)
    seen = set()
    for row, node, value in itertools.product(
            range(3), (0, 12, grid.size - 1), (np.inf, -np.inf, np.nan)):
        rho0 = rng.exponential(1.0, 4)
        rows = _coefficient_rows(rng, 4, grid, False)
        rows[row][2, node] = value
        got = continuous_extremal(rho0, *rows, grid)
        assert np.array_equal(got, continuous_extremal_loop(rho0, *rows, grid),
                              equal_nan=True), (row, node, value)
        assert np.all(np.isfinite(np.delete(got, 2, axis=0)))
        seen |= {"nan" if np.isnan(v) else v for v in got[2] if not np.isfinite(v)}
    assert seen == {"nan", np.inf, -np.inf}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_continuous_extremal_constant_rows_are_the_loop():
    # rows constant along the grid skip the interpolation only where it
    # would give c itself: not for -0.0 (0.0 + -0.0 is 0.0), inf or NaN,
    # nor for a stack that mixes constant and varying rows
    rng = np.random.default_rng(5155)
    grid = np.linspace(0.0, 1.0, 33)

    def same(rho0, rows):
        got = continuous_extremal(rho0, *rows, grid)
        want = continuous_extremal_loop(rho0, *rows, grid)
        number = ~np.isnan(want)
        return (np.array_equal(got, want, equal_nan=True)
                and np.array_equal(np.signbit(got[number]), np.signbit(want[number])))

    n = 6
    full = lambda v: np.full((n, grid.size), v)  # noqa: E731
    # rho0 = -0.0 stays -0.0 only where every stage's a and b2 are -0.0;
    # the interpolation turns them to +0.0 between the nodes
    for a, b1, b2 in ((-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, -0.0)):
        assert same(np.full(n, -0.0), [full(a), full(b1), full(b2)]), (a, b1, b2)
    assert np.signbit(continuous_extremal(
        np.full(n, -0.0), full(-0.0), full(0.0), full(-0.0), grid)).sum() == n
    # +0.0 at the first node, -0.0 after it: equal, but not the same bits
    mixed_zero = full(0.0)
    mixed_zero[:, 1:] = -0.0
    assert same(np.full(n, -0.0), [mixed_zero, full(0.0), full(-0.0)])
    for value in (np.inf, -np.inf, np.nan):
        for row in range(3):
            rows = [full(c) for c in rng.exponential(0.4, 3)]
            rows[row][1] = value  # one instance's row, constant and not finite
            assert same(rng.exponential(1.0, n), rows), (value, row)
    # finite constants, negative ones among them, and a stack in which one
    # instance varies
    for varying in (None, 0, n - 1):
        rows = [full(c) for c in rng.normal(0.0, 0.5, 3)]
        rows[1][2] = 0.0
        if varying is not None:
            rows[0][varying] = rng.exponential(0.4, grid.size)
        assert same(rng.exponential(1.0, n), rows), varying


def test_continuous_extremal_rejects_what_it_cannot_step():
    # fixed steps of the first cell's width would answer rho0 = 0, a = 1,
    # b = 0 on [0, .1, .5, 1] with 0.2 at t = 0.5, where rho = t is 0.5
    for grid, g in ((np.array([0.0, 0.1, 0.5, 1.0]), 4),  # not uniform
                    (np.linspace(0.0, 1.0, 4), 5),        # rows too long
                    (np.array([0.0]), 1),                 # a single point
                    (np.linspace(1.0, 0.0, 5), 5)):       # decreasing
        ones = np.ones((1, g))
        with pytest.raises(GronwallDomainError):
            continuous_extremal(np.zeros(1), ones, 0 * ones, 0 * ones, grid)


def test_uniform_step_takes_every_linspace_grid():
    # widths of linspace(0.1, 0.4, g) differ by up to 1.25 eps * 0.4
    for start, span in itertools.product((0.0, -3.0, 0.1, 1e6),
                                         (1.0, 1e-3, 0.3, 7.5, 250.0)):
        for g in range(2, 201):
            grid = np.linspace(start, start + span, g)
            assert _uniform_step(grid) == grid[1] - grid[0], (start, span, g)


# --- a-priori bounds ----------------------------------------------------------

class _Consts:
    def __init__(self, m_F, beta, horizon, x0):
        self.m_F, self.beta, self.horizon, self.x0 = m_F, beta, horizon, x0


def test_apriori_spot_value_two_e():
    m1, m2 = apriori_bounds(_Consts(1.0, 0.0, 1.0, np.zeros(1)))
    assert abs(m1 - 2 * np.e) < 1e-12
    assert abs(m2 - 1.0) < 1e-15


def test_apriori_static_inclusion():
    m1, m2 = apriori_bounds(_Consts(0.0, 0.0, 2.0, np.array([3.0, 4.0])))
    assert abs(m1 - 6.0 * np.exp(2.0)) < 1e-12
    assert m2 == 0.0


def test_cumulative_simpson_is_scipys_bit_for_bit():
    # uniform and random non-uniform grids of every length from 3 to 200
    rng = np.random.default_rng(12)
    for m in range(3, 201):
        uniform = np.linspace(0.0, 1.3, m)
        uneven = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, m - 1))])
        for grid in (uniform, uneven):
            y = rng.standard_normal(m)
            assert np.array_equal(_cumulative_simpson(y, grid),
                                  cumulative_simpson(y, x=grid)), m
    # a stack of rows, integrated along the last axis, with an even and an
    # odd last interval, on the shortest grids and the audit's
    for m in (3, 4, 5, 65, 66, 200):
        uneven = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, m - 1))])
        for grid in (np.linspace(0.0, 1.0, m), uneven):
            y = rng.standard_normal((7, m))
            assert np.array_equal(_cumulative_simpson(y, grid),
                                  cumulative_simpson(y, x=grid)), m


def test_cumulative_simpson_needs_an_increasing_grid():
    with pytest.raises(GronwallDomainError):
        continuous_gronwall(1.0, np.ones(3), np.ones(3), np.ones(3),
                            np.array([0.0, 0.5, 0.5]))
