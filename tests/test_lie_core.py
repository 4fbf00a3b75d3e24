"""Brackets, adjoints, automorphisms, and basis changes."""

import numpy as np
import numpy.testing as npt
import pytest

from tanglie.cli_io import catalog_algebra
from tanglie.errors import InvalidDimension, SingularMap, ValidationError
from tanglie.lie_core import (
    LieAlgebra,
    Metric,
    ad_matrix,
    ad_star,
    bracket,
    center,
    change_basis_constants,
    is_automorphism,
    jacobi_defect,
    pullback_metric,
)
from conftest import CATALOG

X, Y, Z = np.eye(3)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_heisenberg_bracket(heisenberg):
    algebra = heisenberg.algebra()
    npt.assert_allclose(bracket(algebra, X, Y), Z)
    npt.assert_allclose(bracket(algebra, Y, X), -Z)
    npt.assert_allclose(bracket(algebra, X, Z), np.zeros(3))


def test_solvable_bracket(solvable):
    algebra = solvable.algebra()
    npt.assert_allclose(bracket(algebra, Z, X), X)
    npt.assert_allclose(bracket(algebra, Z, Y), -Y)


def test_bracket_of_vector_with_itself_vanishes(catalog_problem, rng):
    algebra = catalog_problem.algebra()
    for _ in range(20):
        v = rng.standard_normal(algebra.dim)
        npt.assert_allclose(bracket(algebra, v, v), 0.0, atol=1e-12)


def test_bracket_bilinear_antisymmetric(catalog_problem, rng):
    algebra = catalog_problem.algebra()
    n = algebra.dim
    for _ in range(20):
        x, y, z = rng.standard_normal((3, n))
        a, b = rng.standard_normal(2)
        npt.assert_allclose(
            bracket(algebra, a * x + b * y, z),
            a * bracket(algebra, x, z) + b * bracket(algebra, y, z),
            atol=1e-10,
        )
        npt.assert_allclose(
            bracket(algebra, x, y), -bracket(algebra, y, x), atol=1e-12
        )


def test_bracket_dimension_mismatch(heisenberg):
    with pytest.raises(InvalidDimension):
        bracket(heisenberg.algebra(), [1.0, 0.0], [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# ad and its metric adjoint
# ---------------------------------------------------------------------------


def test_heisenberg_ad(heisenberg):
    algebra = heisenberg.algebra()
    adx = ad_matrix(algebra, X)
    npt.assert_allclose(adx @ Y, Z)
    npt.assert_allclose(adx @ X, 0.0)
    npt.assert_allclose(adx @ Z, 0.0)


def test_abelian_ad_is_zero():
    algebra = catalog_algebra("abelian3").algebra()
    npt.assert_allclose(ad_matrix(algebra, [1.0, 2.0, 3.0]), 0.0)


def test_solvable_ad_z_is_diagonal(solvable):
    npt.assert_allclose(ad_matrix(solvable.algebra(), Z), np.diag([1.0, -1.0, 0.0]))


def test_heisenberg_ad_star_value(heisenberg):
    # g2((ad X)* Z, W) = g2(Z, [X, W]) equals 1 at W = Y and 0 elsewhere;
    # with g2 = diag(2, 2, 1) that forces (ad X)* Z = Y/2
    algebra = heisenberg.algebra()
    star = ad_star(algebra, heisenberg.metric("g2"), X)
    npt.assert_allclose(star @ Z, 0.5 * Y, atol=1e-12)
    npt.assert_allclose(star @ X, 0.0, atol=1e-12)
    npt.assert_allclose(star @ Y, 0.0, atol=1e-12)


def test_ad_star_defining_identity(catalog_problem, rng):
    algebra = catalog_problem.algebra()
    n = algebra.dim
    for metric_name in catalog_problem.metrics:
        metric = catalog_problem.metric(metric_name)
        x = rng.standard_normal(n)
        star = ad_star(algebra, metric, x)
        for j in range(n):
            for k in range(n):
                e_j, e_k = np.eye(n)[j], np.eye(n)[k]
                lhs = metric.inner(star @ e_j, e_k)
                rhs = metric.inner(e_j, bracket(algebra, x, e_k))
                assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Jacobi identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_tables_satisfy_jacobi(name):
    assert jacobi_defect(catalog_algebra(name).algebra()) <= 1e-9


def test_non_jacobi_table_has_positive_defect():
    bad = LieAlgebra.from_brackets(
        3, {(0, 1, 2): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0}, ("X", "Y", "Z")
    )
    # independent oracle: evaluate the cyclic sum with explicit loops
    c = bad.c
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    s = sum(
                        c[i, j, m] * c[m, k, l]
                        + c[j, k, m] * c[m, i, l]
                        + c[k, i, m] * c[m, j, l]
                        for m in range(3)
                    )
                    worst = max(worst, abs(s))
    assert worst > 0.1
    npt.assert_allclose(jacobi_defect(bad), worst, atol=1e-14)


def test_jacobi_verdict_refuses_an_overflowing_defect():
    # [X1, X2] = a X3 and [X3, X4] = a X5 break Jacobi by a^2; at a = 1e200
    # one term overflows to inf with no inf - inf, so max|J| and the bound
    # are both inf, and an infinite bound judges nothing
    a = 1e200
    c = np.zeros((5, 5, 5))
    c[0, 1, 2], c[1, 0, 2], c[2, 3, 4], c[3, 2, 4] = a, -a, a, -a
    assert jacobi_defect(LieAlgebra.from_tensor(c / a)) == 1.0
    algebra = LieAlgebra.from_tensor(c)
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="defect inf"):
        algebra.require_jacobi()
    assert algebra.jacobi_residual == algebra.jacobi_bound == np.inf


# ---------------------------------------------------------------------------
# center
# ---------------------------------------------------------------------------


def test_heisenberg_center_is_z(heisenberg):
    basis = center(heisenberg.algebra())
    assert len(basis) == 1
    npt.assert_allclose(basis[0], Z, atol=1e-12)


def test_abelian_center_is_everything():
    basis = center(catalog_algebra("abelian3").algebra())
    assert len(basis) == 3
    gram = np.array([[u @ v for v in basis] for u in basis])
    npt.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_solvable_center_is_trivial(solvable):
    assert center(solvable.algebra()) == []


def test_center_spans_commuting_vectors(catalog_problem, rng):
    algebra = catalog_problem.algebra()
    for v in center(algebra):
        for i in range(algebra.dim):
            npt.assert_allclose(
                bracket(algebra, np.eye(algebra.dim)[i], v), 0.0, atol=1e-10
            )


# ---------------------------------------------------------------------------
# automorphisms and pullbacks
# ---------------------------------------------------------------------------


def test_identity_is_automorphism(catalog_problem):
    algebra = catalog_problem.algebra()
    assert is_automorphism(algebra, np.eye(algebra.dim))


def test_heisenberg_dilation_automorphism(heisenberg):
    algebra = heisenberg.algebra()
    assert is_automorphism(algebra, np.diag([2.0, 3.0, 6.0]))
    assert not is_automorphism(algebra, np.diag([2.0, 3.0, 1.0]))


def test_singular_map_is_not_automorphism(heisenberg):
    assert not is_automorphism(heisenberg.algebra(), np.zeros((3, 3)))


def test_pullback_by_identity_fixes_metric():
    g = Metric(np.diag([1.0, 2.0, 3.0]))
    npt.assert_allclose(pullback_metric(g, np.eye(3)).g, g.g)
    # halves first: g + g^T would overflow an entry above max/2
    big = np.diag([1e308, 1.0])
    npt.assert_array_equal(pullback_metric(Metric(big), np.eye(2)).g, big)


def test_pullback_diagonal():
    g = pullback_metric(Metric(np.eye(3)), np.diag([2.0, 3.0, 1.0]))
    npt.assert_allclose(g.g, np.diag([4.0, 9.0, 1.0]))


def test_pullback_rejects_singular_map():
    with pytest.raises(SingularMap):
        pullback_metric(Metric(np.eye(2)), np.zeros((2, 2)))


def test_pullback_rounding_is_not_an_input_error():
    # tau^T g tau is symmetric in exact arithmetic; unsymmetrized, this
    # product's rounding asymmetry is 1.9e-9, over Metric's 1e-9
    a, b, c, d, e, f = (
        134.366877, 182.85812, 620.421919, 561.308716, 860.691177, -491.122815
    )
    tau = np.array([[a, b, 0.0], [c, d, 0.0], [e, f, a * d - b * c]])
    assert is_automorphism(catalog_algebra("heisenberg").algebra(), tau)
    g = Metric([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    product = tau.T @ g.g @ tau
    assert np.max(np.abs(product - product.T)) > 1e-9
    pulled = pullback_metric(g, tau)
    npt.assert_array_equal(pulled.g, 0.5 * (product + product.T))


def test_pullback_contravariant_functorial(rng):
    g = Metric(np.diag([1.0, 2.0, 3.0]))
    for _ in range(10):
        t1 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        t2 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        lhs = pullback_metric(g, t1 @ t2).g
        rhs = pullback_metric(pullback_metric(g, t1), t2).g
        npt.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# change of basis
# ---------------------------------------------------------------------------


def test_change_basis_identity(catalog_problem):
    algebra = catalog_problem.algebra()
    new = change_basis_constants(algebra, np.eye(algebra.dim))
    npt.assert_allclose(new.c, algebra.c, atol=1e-14)


def test_heisenberg_rescaled_constant(heisenberg):
    # new basis (X/sqrt2, Y/sqrt2, Z): [X', Y'] = Z/2
    b = np.diag([1 / np.sqrt(2.0), 1 / np.sqrt(2.0), 1.0])
    new = change_basis_constants(heisenberg.algebra(), b)
    npt.assert_allclose(new.c[0, 1, 2], 0.5, atol=1e-14)


def test_solvable_rescaled_constant(solvable):
    b = np.diag([1.0, 1 / np.sqrt(2.0), 1 / np.sqrt(3.0)])
    new = change_basis_constants(solvable.algebra(), b)
    npt.assert_allclose(new.c[2, 0, 0], 1 / np.sqrt(3.0), atol=1e-14)


def test_change_basis_round_trip(catalog_problem, rng):
    algebra = catalog_problem.algebra()
    n = algebra.dim
    for _ in range(5):
        b = rng.standard_normal((n, n)) + 3 * np.eye(n)
        forward = change_basis_constants(algebra, b)
        back = change_basis_constants(forward, np.linalg.inv(b))
        npt.assert_allclose(back.c, algebra.c, atol=1e-10)


def test_change_basis_rejects_singular(heisenberg):
    with pytest.raises(SingularMap):
        change_basis_constants(heisenberg.algebra(), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_antisymmetry_enforced_by_construction():
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0  # leave the mirror entry unset
    algebra = LieAlgebra.from_tensor(c)
    npt.assert_allclose(algebra.c[1, 0, 1], -0.5)
    npt.assert_allclose(algebra.c[0, 1, 1], 0.5)


def test_constructors_keep_entries_near_the_float_maximum():
    # the halves are taken first: g + g^T and c - c^T overflow above max/2
    npt.assert_array_equal(Metric(np.diag([1e308, 1.0])).g, np.diag([1e308, 1.0]))
    c = LieAlgebra.from_brackets(2, {(0, 1, 1): 1e308}).c
    assert (c[0, 1, 1], c[1, 0, 1]) == (1e308, -1e308)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_algebra_rejects_non_finite_constants(bad):
    c = np.zeros((2, 2, 2))
    c[0, 1, 1], c[1, 0, 1] = bad, -bad
    with pytest.raises(ValidationError, match="structure constants have non-finite entries"):
        LieAlgebra.from_tensor(c)


def test_from_brackets_requires_ordered_indices():
    with pytest.raises(InvalidDimension):
        LieAlgebra.from_brackets(3, {(1, 0, 2): 1.0})


def test_metric_rejects_indefinite_matrix():
    from tanglie.errors import NonPositiveDefinite

    with pytest.raises(NonPositiveDefinite):
        Metric(np.diag([1.0, -1.0, 1.0]))


def test_metric_rejects_asymmetric_matrix():
    from tanglie.errors import NonPositiveDefinite

    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(NonPositiveDefinite):
        Metric(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_metric_rejects_non_finite_entry(bad):
    from tanglie.errors import NonPositiveDefinite

    g = np.eye(3)
    g[1, 1] = bad
    with pytest.raises(NonPositiveDefinite):
        Metric(g)


# ---------------------------------------------------------------------------
# the shared identity metric and the kept inverse
# ---------------------------------------------------------------------------


def test_identity_is_shared_and_read_only():
    g = Metric.identity(4)
    assert Metric.identity(4) is g
    npt.assert_array_equal(g.g, np.eye(4))
    for a in (g.g, g.inv()):
        with pytest.raises(ValueError):
            a[0, 0] = 2.0


def test_inverse_is_kept_and_exact(rng):
    from tanglie.metric_geometry import random_spd_metric

    g = random_spd_metric(rng, 5)
    inv = g.inv()
    assert g.inv() is inv
    assert inv.tobytes() == np.linalg.inv(g.g).tobytes()
    assert not inv.flags.writeable
