"""Reductions over a short axis: the helpers of ``mesh`` and where they run.

``mesh._short_sum``, ``_short_norm``, ``_short_all`` and ``_short_any`` fold
the columns of a short axis one after another, a sum left to right from
+0.0.  At lengths 1 to 7 that is numpy's own order, so on the shapes and
axes the library reduces they are held bit for bit to ``np.add.reduce``,
``np.linalg.norm(axis=...)`` and ``np.logical_and/or.reduce``, with signed
zeros, infinities and NaN among the entries (a NaN is matched as NaN: its
sign may differ, see :func:`_assert_same_bits`).  Every other reduction of a
``sum``, ``all``, ``any``, ``reduce`` or ``np.linalg.norm`` over an axis in
``src/idikit`` is one of the long-axis sites named below.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from idikit.mesh import _short_all, _short_any, _short_norm, _short_sum

# (shape with the reduced axis as L, axis): the stacks the library reduces
SHAPES = (
    (("k", 4, "L"), -1),       # Gauss-point samples of a state: mesh._sq_integral
    (("k", "L"), 1),           # per-cell Gauss sums, subset coordinates, row tests
    (("N", 3, "L"), -1),       # face candidates, facet residuals, matvec
    (("N", "L", 3), -2),       # rmatvec, J^T g
    (("N", "L", 2), 1),        # witness combinations
    (("L", "L"), 0),           # the column sums of a pseudo-inverse
    (("k", "L", "L"), 1),      # the step norms of a scan
    (("k", "L", "L"), 2),
    (("L",), -1),              # one state
)
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _stack(rng, shape, length):
    dims = tuple({"k": 37, "N": 23, "L": length}.get(d, d) for d in shape)
    x = rng.normal(size=dims) * 10.0 ** rng.integers(-3, 4, size=dims)
    special = rng.random(dims) < 0.3
    x[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return x


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_same_bits(got, want):
    """Equal bit patterns, NaN for NaN: which operand's NaN an add of two
    NaNs (an input NaN and the default NaN of inf - inf) passes on is the
    machine's choice, and numpy's vector loops order the operands as they
    like, so only the sign of such a NaN may differ."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(_bits(got)[~nan], _bits(want)[~nan])


@pytest.mark.parametrize("length", range(1, 8))
@pytest.mark.parametrize("shape,axis", SHAPES)
def test_short_reductions_are_numpys_bit_for_bit(shape, axis, length):
    rng = np.random.default_rng(100 * length + len(shape))
    for _ in range(20):
        x = _stack(rng, shape, length)
        with np.errstate(invalid="ignore"):
            _assert_same_bits(_short_sum(x, axis), np.add.reduce(x, axis=axis))
            _assert_same_bits(_short_norm(x, axis), np.linalg.norm(x, axis=axis))
        for b in (x > 0.5, np.isfinite(x), x != 0.0):
            got, want = _short_all(b, axis), np.logical_and.reduce(b, axis=axis)
            assert np.shape(got) == want.shape and np.array_equal(got, want)
            got, want = _short_any(b, axis), np.logical_or.reduce(b, axis=axis)
            assert np.shape(got) == want.shape and np.array_equal(got, want)


def test_an_all_negative_zero_row_sums_to_positive_zero():
    # numpy starts from +0.0 too; a fold from the first column would keep -0.0
    x = np.full((3, 4), -0.0)
    for axis in (0, 1):
        assert not np.signbit(_short_sum(x, axis)).any()
        assert not np.signbit(np.add.reduce(x, axis=axis)).any()
    assert not np.signbit(_short_sum(np.array([-0.0])))


def test_the_order_is_left_to_right_at_every_length():
    # numpy sums 8 or more contiguous entries in pairwise blocks; the helper
    # keeps the one order, which a pure-Python fold states
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 11)) * 10.0 ** rng.integers(-8, 9, size=(200, 11))
    want = []
    for row in x.tolist():
        s = 0.0
        for v in row:
            s += v
        want.append(s)
    _assert_same_bits(_short_sum(x, 1), want)


def test_an_empty_axis_gives_the_identity():
    x = np.empty((5, 0))
    assert np.array_equal(_short_sum(x, 1), np.zeros(5))
    assert np.array_equal(_short_norm(x, 1), np.zeros(5))
    assert _short_all(x, 1).all() and not _short_any(x, 1).any()


# the long axes that keep numpy's reductions, by (file, enclosing function)
LONG_AXES = {
    ("cli.py", "_violations"): "np.any over the grid columns of an instance",
    ("cli.py", "run_bound_audit"): "spectral norms (ord=2) of the sampled Jacobians",
    ("gronwall.py", "forward_extremal"): "the growing prefix sums of the oracle",
    ("gronwall.py", "backward_extremal"): "the growing suffix sums of the oracle",
    ("kernel.py", "kernel_average_w"): "the row rule's sum over the s-cells of a row",
}
_REDUCTIONS = {"sum", "all", "any", "reduce"}
SRC = Path(__file__).resolve().parents[1] / "src" / "idikit"


def _axis_reductions(tree):
    """(enclosing function, line) of each reduction over an axis: a
    ``sum``/``all``/``any``/``reduce`` or ``np.linalg.norm`` call given an
    axis, by keyword or by position."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, owner = node.func.attr, node.func.value
            on_module = isinstance(owner, ast.Name) and owner.id == "np"
            is_norm = (name == "norm" and isinstance(owner, ast.Attribute)
                       and owner.attr == "linalg")
            positional = len(node.args)
            if is_norm:
                has_axis = positional >= 3
            elif name in _REDUCTIONS:
                has_axis = positional >= (2 if on_module or name == "reduce" else 1)
            else:
                has_axis = None
            if has_axis is not None and (has_axis or any(kw.arg == "axis"
                                                         for kw in node.keywords)):
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_axis_reductions_go_through_the_short_axis_helpers():
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _axis_reductions(ast.parse(path.read_text(encoding="utf-8"))):
            sites.setdefault((path.name, scope), []).append(line)
    stray = {site: lines for site, lines in sites.items() if site not in LONG_AXES}
    assert not stray, f"reductions over an axis outside mesh._short_*: {stray}"
    assert set(sites) == set(LONG_AXES), "a long-axis site named here is gone"


def test_the_site_finder_sees_each_form():
    code = ("def f(x):\n"
            "    a = x.sum(axis=1)\n    b = x.all(1)\n    c = np.any(x, 0)\n"
            "    d = np.linalg.norm(x, axis=-1)\n    e = np.linalg.norm(x, 2, (0, 1))\n"
            "    g = np.add.reduce(x, -1)\n"
            "    ok = x.sum() + np.sum(x) + np.linalg.norm(x) + sum(x) + x.max(axis=1)\n")
    assert [line for _, line in _axis_reductions(ast.parse(code))] == [2, 3, 4, 5, 6, 7]
