"""Koszul connection, curvature tensor, and metric diagnostics."""

import numpy as np
import numpy.testing as npt
import pytest

from tanglie.cli_io import catalog_algebra
from tanglie.errors import DegeneratePlane, PreconditionViolated
from tanglie.lie_core import CHECK_TOL, Metric, bracket, pullback_metric
from tanglie.metric_geometry import (
    MetricLieAlgebra,
    bi_invariance_defect,
    canonical_metricity_defect,
    classify_field,
    compatibility_defect,
    curvature,
    curvature_invariant_defects,
    double_bracket_defect,
    equivariance_defect,
    is_geodesic_vector,
    levi_civita,
    lie_derivative_metric,
    random_spd_metric,
    sectional,
    torsion_defect,
)
from conftest import CATALOG

X, Y, Z = np.eye(3)


def _mla(name, metric_name="g1"):
    problem = catalog_algebra(name)
    return MetricLieAlgebra(problem.algebra(), problem.metric(metric_name))


# ---------------------------------------------------------------------------
# Levi-Civita connection
# ---------------------------------------------------------------------------


def test_heisenberg_connection_values():
    # hand Koszul with g = I: 2<nabla_X Y, W> = <[X,Y],W> - <[Y,W],X> + <[W,X],Y>
    conn = levi_civita(_mla("heisenberg"))
    npt.assert_allclose(conn.apply(X, Y), 0.5 * Z, atol=1e-12)
    npt.assert_allclose(conn.apply(X, Z), -0.5 * Y, atol=1e-12)
    npt.assert_allclose(conn.apply(X, X), 0.0, atol=1e-12)


def test_bi_invariant_connection_is_half_bracket(su2):
    mla = MetricLieAlgebra(su2.algebra(), su2.metric("g1"))
    assert bi_invariance_defect(mla) <= CHECK_TOL
    conn = levi_civita(mla)
    npt.assert_allclose(conn.gamma, 0.5 * mla.algebra.c, atol=1e-9)


def test_abelian_connection_is_zero():
    conn = levi_civita(_mla("abelian3", "g2"))
    npt.assert_allclose(conn.gamma, 0.0)


@pytest.mark.parametrize("name", CATALOG)
def test_connection_invariants_random_metrics(name, rng):
    algebra = catalog_algebra(name).algebra()
    for _ in range(50):
        mla = MetricLieAlgebra(algebra, random_spd_metric(rng, algebra.dim))
        conn = levi_civita(mla)
        assert torsion_defect(mla, conn) <= 1e-9
        assert compatibility_defect(mla, conn) <= 1e-9


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


def test_abelian_curvature_is_zero():
    mla = _mla("abelian3", "g2")
    npt.assert_allclose(curvature(mla, levi_civita(mla)).r, 0.0)


def test_bi_invariant_curvature_is_quarter_double_bracket(su2):
    # nabla = half bracket, so R(X,Y)Z = 1/4([X,[Y,Z]] - [Y,[X,Z]]) -
    # 1/2[[X,Y],Z] = 1/4[Z,[X,Y]] by Jacobi; sectional curvature stays
    # positive because g(R(X,Y)Y,X) = |[X,Y]|^2 / 4
    mla = MetricLieAlgebra(su2.algebra(), su2.metric("g1"))
    riem = curvature(mla, levi_civita(mla))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                e = np.eye(3)
                expected = 0.25 * bracket(
                    mla.algebra, e[k], bracket(mla.algebra, e[i], e[j])
                )
                npt.assert_allclose(riem.apply(e[i], e[j], e[k]), expected, atol=1e-12)


def test_heisenberg_curvature_value():
    # hand computation: nabla_Y Z = X/2, nabla_Z Y = X/2, nabla_X Y = Z/2,
    # so R(X,Y)Y = -nabla_Y(Z/2) - nabla_Z Y = -3X/4 and <R(X,Y)Y,X> = -3/4
    mla = _mla("heisenberg")
    riem = curvature(mla, levi_civita(mla))
    npt.assert_allclose(mla.metric.inner(riem.apply(X, Y, Y), X), -0.75, atol=1e-12)


@pytest.mark.parametrize("name", CATALOG)
def test_curvature_invariants_random_metrics(name, rng):
    algebra = catalog_algebra(name).algebra()
    for _ in range(50):
        mla = MetricLieAlgebra(algebra, random_spd_metric(rng, algebra.dim))
        defects = curvature_invariant_defects(mla, curvature(mla, levi_civita(mla)))
        assert max(defects.values()) <= 1e-8


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


def test_heisenberg_sectional():
    mla = _mla("heisenberg")
    riem = curvature(mla, levi_civita(mla))
    npt.assert_allclose(sectional(mla, riem, X, Y), -0.75, atol=1e-12)


def test_su2_unit_metric_sectional():
    # orthonormal pair, |[X,Y]|^2 = 1, bi-invariant value 1/4
    algebra = catalog_algebra("su2").algebra()
    mla = MetricLieAlgebra(algebra, Metric(np.eye(3)))
    riem = curvature(mla, levi_civita(mla))
    npt.assert_allclose(sectional(mla, riem, X, Y), 0.25, atol=1e-12)


def test_abelian_sectional_zero(rng):
    mla = _mla("abelian3", "g2")
    riem = curvature(mla, levi_civita(mla))
    for _ in range(5):
        x, y = rng.standard_normal((2, 3))
        npt.assert_allclose(sectional(mla, riem, x, y), 0.0, atol=1e-12)


def test_sectional_plane_invariance(rng):
    mla = _mla("solvable_rr2", "g2")
    riem = curvature(mla, levi_civita(mla))
    for _ in range(20):
        x, y = rng.standard_normal((2, 3))
        k0 = sectional(mla, riem, x, y)
        a, b, c, d = rng.standard_normal(4)
        if abs(a * d - b * c) < 1e-3:
            continue
        k1 = sectional(mla, riem, a * x + b * y, c * x + d * y)
        assert abs(k0 - k1) <= 1e-8 * max(1.0, abs(k0))


def test_sectional_rejects_degenerate_plane():
    mla = _mla("heisenberg")
    riem = curvature(mla, levi_civita(mla))
    with pytest.raises(DegeneratePlane):
        sectional(mla, riem, X, 2.0 * X)


# ---------------------------------------------------------------------------
# Bi-invariance and double-bracket diagnostics
# ---------------------------------------------------------------------------


def test_bi_invariance_booleans():
    assert bi_invariance_defect(_mla("su2")) <= CHECK_TOL
    assert bi_invariance_defect(_mla("abelian3", "g2")) <= CHECK_TOL
    assert bi_invariance_defect(_mla("heisenberg")) > CHECK_TOL


def test_canonical_metricity():
    assert canonical_metricity_defect(_mla("abelian3")) == 0.0
    assert canonical_metricity_defect(_mla("su2")) <= 1e-12
    # double brackets land in the center and pair to zero with everything
    assert canonical_metricity_defect(_mla("heisenberg", "g2")) <= 1e-12


def test_double_bracket_condition():
    assert double_bracket_defect(_mla("heisenberg")) <= CHECK_TOL
    assert double_bracket_defect(_mla("heisenberg", "g2")) <= CHECK_TOL
    assert double_bracket_defect(_mla("abelian3")) <= CHECK_TOL
    assert double_bracket_defect(_mla("solvable_rr2")) > CHECK_TOL
    assert double_bracket_defect(_mla("su2", "g2")) > CHECK_TOL
    # [Z,[Z,X]] = X gives <X, X> = 1
    assert double_bracket_defect(_mla("solvable_rr2")) >= 1.0


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


def test_lie_derivative_values():
    npt.assert_allclose(lie_derivative_metric(_mla("abelian3"), X), 0.0)
    npt.assert_allclose(lie_derivative_metric(_mla("heisenberg"), Z), 0.0)
    npt.assert_allclose(
        lie_derivative_metric(_mla("solvable_rr2"), Z), np.diag([-2.0, 2.0, 0.0])
    )


def test_classify_field_heisenberg_center(heisenberg):
    mla1 = MetricLieAlgebra(heisenberg.algebra(), heisenberg.metric("g1"))
    mla2 = MetricLieAlgebra(heisenberg.algebra(), heisenberg.metric("g2"))
    cls = classify_field(mla1, mla2, Z, 1e-9)
    assert cls.killing1 and cls.killing2 and cls.in_center
    assert cls.conformal1 and cls.conformal2


def test_classify_field_abelian_always_killing(rng):
    mla = _mla("abelian3")
    mla2 = _mla("abelian3", "g2")
    for _ in range(5):
        cls = classify_field(mla, mla2, rng.standard_normal(3), 1e-9)
        assert cls.killing1 and cls.killing2
        assert cls.conformal1 and abs(cls.conformal_factor1) <= 1e-12


def test_center_vectors_killing_for_every_metric(catalog_problem, rng):
    from tanglie.lie_core import center

    algebra = catalog_problem.algebra()
    for v in center(algebra):
        for _ in range(5):
            mla = MetricLieAlgebra(algebra, random_spd_metric(rng, algebra.dim))
            npt.assert_allclose(lie_derivative_metric(mla, v), 0.0, atol=1e-10)


def test_classify_field_solvable_not_conformal(solvable):
    mla1 = MetricLieAlgebra(solvable.algebra(), solvable.metric("g1"))
    mla2 = MetricLieAlgebra(solvable.algebra(), solvable.metric("g2"))
    cls = classify_field(mla1, mla2, Z, 1e-9)
    assert not cls.killing1 and not cls.conformal1
    assert not cls.in_center


def test_geodesic_vectors():
    mla = _mla("heisenberg")
    conn = levi_civita(mla)
    assert is_geodesic_vector(mla, conn, X, 1e-9)
    mla_ab = _mla("abelian3", "g2")
    assert is_geodesic_vector(mla_ab, levi_civita(mla_ab), [1.0, 2.0, 3.0], 1e-12)
    mla_s = _mla("solvable_rr2")
    # hand Koszul: nabla_{X+Z}(X+Z) = Z - X
    conn_s = levi_civita(mla_s)
    npt.assert_allclose(conn_s.apply(X + Z, X + Z), Z - X, atol=1e-12)
    assert not is_geodesic_vector(mla_s, conn_s, X + Z, 1e-9)


def test_geodesic_vectors_ignore_scale():
    mla_s = _mla("solvable_rr2")
    conn_s = levi_civita(mla_s)
    assert is_geodesic_vector(mla_s, conn_s, np.zeros(3), 1e-9)
    for scale in (1e-160, 1e-5, 1.0, 1e160):
        assert is_geodesic_vector(mla_s, conn_s, scale * Z, 1e-9)
        assert not is_geodesic_vector(mla_s, conn_s, scale * (X + Z), 1e-9)


# ---------------------------------------------------------------------------
# Equivariance under automorphism pullback
# ---------------------------------------------------------------------------


def test_equivariance_identity(catalog_problem):
    mla = MetricLieAlgebra(
        catalog_problem.algebra(), catalog_problem.metric("g1")
    )
    defects = equivariance_defect(mla, mla, np.eye(mla.dim))
    assert defects.connection_defect == 0.0
    assert defects.curvature_defect == 0.0
    assert defects.sectional_defect == 0.0


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (1.0, 5.0), (0.5, 4.0)])
def test_heisenberg_equivariance(a, b, heisenberg):
    tau = np.diag([a, b, a * b])
    for metric_name in ("g1", "g2"):
        mla = MetricLieAlgebra(heisenberg.algebra(), heisenberg.metric(metric_name))
        pulled = MetricLieAlgebra(mla.algebra, pullback_metric(mla.metric, tau))
        defects = equivariance_defect(mla, pulled, tau)
        assert defects.connection_defect <= 1e-8
        assert defects.curvature_defect <= 1e-8
        assert defects.sectional_defect <= 1e-8


def test_su2_rotation_equivariance(su2):
    tau = su2.automorphism("rot_z")
    for metric_name in ("g1", "g2"):
        mla = MetricLieAlgebra(su2.algebra(), su2.metric(metric_name))
        pulled = MetricLieAlgebra(mla.algebra, pullback_metric(mla.metric, tau))
        defects = equivariance_defect(mla, pulled, tau)
        assert defects.connection_defect <= 1e-8
        assert defects.curvature_defect <= 1e-8
        assert defects.sectional_defect <= 1e-8


def test_equivariance_rejects_non_automorphism(heisenberg):
    tau = np.diag([2.0, 3.0, 1.0])
    mla = MetricLieAlgebra(heisenberg.algebra(), heisenberg.metric("g1"))
    pulled = MetricLieAlgebra(mla.algebra, pullback_metric(mla.metric, tau))
    with pytest.raises(PreconditionViolated):
        equivariance_defect(mla, pulled, tau)


def test_equivariance_rejects_wrong_metric(heisenberg):
    tau = np.diag([2.0, 3.0, 6.0])
    mla = MetricLieAlgebra(heisenberg.algebra(), heisenberg.metric("g1"))
    with pytest.raises(PreconditionViolated):
        equivariance_defect(mla, mla, tau)
