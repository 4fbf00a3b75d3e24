"""Exact rational oracle for the lifted sectional curvature of the catalog.

In the raw lift basis {X_1^v, ..., X_n^v, X_1^c, ..., X_n^c} of the input
basis, the lifted metric is blockdiag(g2, g1) and the bracket is three
copies of the base structure constants:

    [X^c, Y^c] = [X, Y]^c,  [X^c, Y^v] = [X^v, Y^c] = [X, Y]^v,  [X^v, Y^v] = 0.

With the catalog's rational inputs the Koszul connection, R(u, v)v and the
sectional curvature of every raw basis plane are rational, so stdlib
``fractions`` computes them exactly: no eigen-solve, no square root and
nothing shared with the library's frame.  Library values are judged in
ulps of the exact value.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from tanglie.cli_io import catalog_algebra
from tanglie.lie_core import bracket
from tanglie.metric_geometry import sectional_quotient
from tanglie.tangent_lift import (
    build_tangent,
    complete_lift,
    lifted_connection_structure_constants,
    lifted_sectional,
    vertical_lift,
)

from conftest import CATALOG

#: largest error of the production sectional curvature on any raw basis plane
MAX_ULPS = 2


def _exact_lift(problem):
    """Raw-basis bracket b[i][j][k] and metric g[i][j] of the lift, as Fractions."""
    n = problem.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, value in problem.brackets:
        c[i][j][k] = Fraction(value)
        c[j][i][k] = -Fraction(value)
    size = 2 * n
    b = [[[Fraction(0)] * size for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                b[n + i][n + j][n + k] = c[i][j][k]  # [X^c, Y^c]
                b[n + i][j][k] = c[i][j][k]  # [X^c, Y^v]
                b[i][n + j][k] = c[i][j][k]  # [X^v, Y^c]
    g = [[Fraction(0)] * size for _ in range(size)]
    for block, name in ((0, "g2"), (n, "g1")):
        m = problem.metrics[name]
        for i in range(n):
            for j in range(n):
                g[block + i][block + j] = Fraction(float(m[i, j]))
    return b, g


def _inverse(g):
    """Gauss-Jordan inverse of a nonsingular Fraction matrix."""
    size = len(g)
    a = [row[:] + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(g)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv_p = 1 / a[col][col]
        a[col] = [x * inv_p for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[size:] for row in a]


def _koszul(b, g):
    """gamma[i][j][k]: coefficient of e_k in nabla_{e_i} e_j."""
    size = len(g)
    ginv = _inverse(g)
    low = [
        [[sum(b[i][j][m] * g[m][k] for m in range(size)) for k in range(size)]
         for j in range(size)]
        for i in range(size)
    ]  # g([e_i, e_j], e_k)
    kos = [
        [[(low[i][j][k] - low[j][k][i] + low[k][i][j]) / 2 for k in range(size)]
         for j in range(size)]
        for i in range(size)
    ]
    return [
        [[sum(kos[i][j][m] * ginv[m][k] for m in range(size)) for k in range(size)]
         for j in range(size)]
        for i in range(size)
    ]


def _exact_sectional(b, g, gamma, a, c):
    """K(e_a, e_c) from R(e_a, e_c)e_c = nabla_a nabla_c e_c - nabla_c nabla_a e_c - nabla_[a,c] e_c."""
    size = len(g)

    def nabla(i, y):  # nabla_{e_i} of the left-invariant field with coefficients y
        return [sum(y[j] * gamma[i][j][k] for j in range(size)) for k in range(size)]

    def nabla_vec(x, y):
        out = [Fraction(0)] * size
        for i in range(size):
            if x[i] != 0:
                out = [o + x[i] * d for o, d in zip(out, nabla(i, y))]
        return out

    e = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    ruvv = [
        p - q - r
        for p, q, r in zip(
            nabla(a, gamma[c][c]),
            nabla(c, gamma[a][c]),
            nabla_vec(b[a][c], e[c]),
        )
    ]
    num = sum(ruvv[k] * g[k][a] for k in range(size))
    return num / (g[a][a] * g[c][c] - g[a][c] ** 2)


def _raw_lift(t, index):
    """Raw basis lift e_index in the library frame: X_i^v for index < n, X_i^c after."""
    n = t.dim
    x = np.eye(n)[index % n]
    return vertical_lift(t, x) if index < n else complete_lift(t, x)


def _ulps(value, exact):
    """Error of a float in ulps of the exact value; exact zeros allow no error."""
    err = abs(Fraction(value) - exact)
    if exact == 0:
        return 0.0 if err == 0 else math.inf
    return float(err / Fraction(math.ulp(float(exact))))


@functools.cache
def _planes(name):
    """(plane, exact K, library K, structure-constant route K) per ordered raw basis plane."""
    problem = catalog_algebra(name)
    b, g = _exact_lift(problem)
    gamma = _koszul(b, g)
    t = build_tangent(problem.algebra(), problem.metric("g1"), problem.metric("g2"))
    structconst = lifted_connection_structure_constants(t).apply
    size = 2 * t.dim
    out = []
    for a in range(size):
        for c in range(size):
            if a == c:
                continue
            u, v = _raw_lift(t, a), _raw_lift(t, c)
            ruvv = (
                structconst(u, structconst(v, v))
                - structconst(v, structconst(u, v))
                - structconst(bracket(t.lifted, u, v), v)
            )
            out.append(
                (
                    (name, a, c),
                    _exact_sectional(b, g, gamma, a, c),
                    lifted_sectional(t, u, v),
                    sectional_quotient(t.lifted_metric, u, v, ruvv),
                )
            )
    return out


def test_plane_count():
    assert sum(len(_planes(name)) for name in CATALOG) == 144


@pytest.mark.parametrize("name", CATALOG)
def test_lifted_sectional_within_two_ulps(name):
    for plane, exact, value, _ in _planes(name):
        assert _ulps(value, exact) <= MAX_ULPS, (plane, value, exact)


def test_structure_constant_route_ulps():
    # the lambda-weighted route is no production path; its error is recorded
    # here so a move of lifted_sectional onto it can be judged on this oracle
    ulps = [_ulps(route, exact) for name in CATALOG for _, exact, _, route in _planes(name)]
    assert max(ulps) <= 3


def test_readme_values_are_exact():
    heis = {p[1:3]: (exact, value) for p, exact, value, _ in _planes("heisenberg")}
    solv = {p[1:3]: (exact, value) for p, exact, value, _ in _planes("solvable_rr2")}
    # raw indices: Y^v = 1, Z^v = 2 on heisenberg; Z^v = 2, X^v = 0 on solvable_rr2
    exact, value = heis[(1, 2)]
    assert exact == Fraction(1, 8) and _ulps(value, exact) <= MAX_ULPS
    exact, value = solv[(2, 0)]
    assert exact == Fraction(1, 12) and _ulps(value, exact) <= MAX_ULPS
