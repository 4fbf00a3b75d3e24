"""Tangent algebra construction and all lifted closed forms vs the oracle."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from tanglie.cli_io import catalog_algebra, problem_from_dict
from tanglie.errors import DegeneratePlane, InvalidDimension, NonPositiveDefinite
from tanglie.lie_core import (
    CHECK_TOL,
    LieAlgebra,
    Metric,
    bracket,
    center,
    is_automorphism,
    jacobi_defect,
)
from tanglie.metric_geometry import (
    MetricLieAlgebra,
    bi_invariance_defect,
    curvature,
    double_bracket_defect,
    is_geodesic_vector,
    levi_civita,
    lie_derivative_metric,
    random_spd_metric,
    sectional,
)
from tanglie.tangent_lift import (
    bi_invariance_of_lift,
    build_tangent,
    complete_lift,
    compute_phi,
    curvature_block_deviations,
    lift_automorphism,
    lift_components,
    lifted_connection_closed_form,
    lifted_connection_structure_constants,
    lifted_curvature,
    lifted_sectional,
    lifted_sectional_closed_forms,
    structure_constant_curvature_blocks,
    tangent_algebra_unnormalized,
    vertical_lift,
)

import checker
from conftest import CATALOG, h7_doc

X, Y, Z = np.eye(3)


def _tangent(name):
    problem = catalog_algebra(name)
    return build_tangent(problem.algebra(), problem.metric("g1"), problem.metric("g2"))


def _random_tangent(name, rng):
    return _random_pair_tangent(catalog_algebra(name).algebra(), rng)


def _random_pair_tangent(algebra, rng):
    return build_tangent(
        algebra,
        random_spd_metric(rng, algebra.dim),
        random_spd_metric(rng, algebra.dim),
    )


def _direct_sum(*names):
    """Direct sum of catalog algebras, for bases of dimension 4 and 6."""
    algebras = [catalog_algebra(name).algebra() for name in names]
    n = sum(a.dim for a in algebras)
    c = np.zeros((n, n, n))
    start = 0
    for a in algebras:
        block = slice(start, start + a.dim)
        c[block, block, block] = a.c
        start += a.dim
    return LieAlgebra.from_tensor(c)


#: seeded metric pairs on these sums cover n = 4 and n = 6
SUMS = (
    ("aff1", "aff1"),
    ("aff1", "abelian2"),
    ("heisenberg", "solvable_rr2"),
    ("su2", "heisenberg"),
)


def _seeded_tangents(rng):
    """Catalog pairs, 3 seeded pairs per catalog algebra and 2 per sum."""
    out = [_tangent(name) for name in CATALOG]
    out += [_random_tangent(name, rng) for name in CATALOG for _ in range(3)]
    out += [_random_pair_tangent(_direct_sum(*names), rng) for names in SUMS for _ in range(2)]
    return out


# ---------------------------------------------------------------------------
# compute_phi
# ---------------------------------------------------------------------------


def test_phi_equal_metrics_is_identity():
    g = Metric(np.diag([2.0, 2.0, 2.0]))
    data = compute_phi(g, g)
    npt.assert_allclose(data.lambdas, 1.0, atol=1e-12)
    npt.assert_allclose(data.b1.T @ g.g @ data.b1, np.eye(3), atol=1e-12)


def test_phi_heisenberg(heisenberg):
    data = compute_phi(heisenberg.metric("g1"), heisenberg.metric("g2"))
    npt.assert_allclose(data.lambdas, [1.0, 2.0, 2.0])
    g1, g2 = heisenberg.metric("g1").g, heisenberg.metric("g2").g
    npt.assert_allclose(np.linalg.solve(g1, g2), np.diag([2.0, 2.0, 1.0]))
    # degenerate eigenspace fixed by projecting X then Y, after Z
    npt.assert_allclose(data.b1, np.column_stack([Z, X, Y]), atol=1e-12)


def test_phi_solvable(solvable):
    data = compute_phi(solvable.metric("g1"), solvable.metric("g2"))
    npt.assert_allclose(data.lambdas, [1.0, 2.0, 3.0])
    g1, g2 = solvable.metric("g1").g, solvable.metric("g2").g
    npt.assert_allclose(np.linalg.solve(g1, g2), np.diag([1.0, 2.0, 3.0]))


def test_phi_invariants_random_pairs(rng):
    for dim in (2, 3, 4, 5):
        for _ in range(5):
            g1 = random_spd_metric(rng, dim)
            g2 = random_spd_metric(rng, dim)
            data = compute_phi(g1, g2)
            b1, lam = data.b1, data.lambdas
            assert np.all(lam > 0) and np.all(np.diff(lam) >= 0)
            phi = np.linalg.solve(g1.g, g2.g)
            npt.assert_allclose(
                phi @ b1, b1 * lam[None, :], atol=1e-9 * max(1, lam[-1])
            )
            npt.assert_allclose(b1.T @ g1.g @ b1, np.eye(dim), atol=1e-9)
            npt.assert_allclose(b1.T @ g2.g @ b1, np.diag(lam), atol=1e-9)


def test_phi_deterministic(heisenberg):
    a = compute_phi(heisenberg.metric("g1"), heisenberg.metric("g2"))
    b = compute_phi(heisenberg.metric("g1"), heisenberg.metric("g2"))
    npt.assert_array_equal(a.b1, b.b1)
    npt.assert_array_equal(a.lambdas, b.lambdas)


def test_phi_fully_degenerate_non_diagonal(rng):
    # g2 proportional to a generic g1: one eigenvalue cluster, so the
    # whole basis comes from Gram-Schmidt of the input vectors under g1
    g1 = random_spd_metric(rng, 4)
    g2 = Metric(2.0 * g1.g)
    data = compute_phi(g1, g2)
    npt.assert_allclose(data.lambdas, 2.0, atol=1e-12)
    npt.assert_allclose(data.b1.T @ g1.g @ data.b1, np.eye(4), atol=1e-10)
    again = compute_phi(g1, g2)
    npt.assert_array_equal(data.b1, again.b1)
    # first column is the normalized first input basis vector
    e0 = np.eye(4)[0]
    npt.assert_allclose(data.b1[:, 0], e0 / g1.norm(e0), atol=1e-12)


def test_phi_partial_clusters(rng):
    g1 = Metric(np.eye(4))
    g2 = Metric(np.diag([2.0, 2.0, 3.0, 3.0]))
    data = compute_phi(g1, g2)
    npt.assert_allclose(data.lambdas, [2.0, 2.0, 3.0, 3.0])
    npt.assert_array_equal(data.b1, np.eye(4))
    t = build_tangent(
        LieAlgebra.from_brackets(4, {(0, 1, 1): 1.0}), g1, g2
    )
    closed = lifted_connection_closed_form(t)
    npt.assert_allclose(closed.gamma, _raw_koszul_in_frame(t), atol=1e-9)


@pytest.mark.parametrize(
    "spread", [[1e8, 1.0, 1e-8], np.logspace(8, -8, 12)], ids=["n3", "n12"]
)
def test_phi_pairs_eigenvalues_spread_below_one(spread):
    # clusters are judged on the gap relative to the eigenvalues, so
    # distinct eigenvalues far below 1 keep their own eigenvectors
    g2 = np.diag(spread)
    n = g2.shape[0]
    data = compute_phi(Metric(np.eye(n)), Metric(g2))
    npt.assert_allclose(data.lambdas, np.sort(spread), rtol=1e-14)
    residual = data.b1.T @ g2 @ data.b1 - np.diag(data.lambdas)
    assert np.max(np.abs(residual) / data.lambdas[None, :]) <= 1e-12
    npt.assert_allclose(data.b1.T @ data.b1, np.eye(n), atol=1e-12)


def test_phi_dimension_mismatch():
    with pytest.raises(InvalidDimension):
        compute_phi(Metric(np.eye(2)), Metric(np.eye(3)))


# ---------------------------------------------------------------------------
# build_tangent
# ---------------------------------------------------------------------------


def test_abelian_lift_is_abelian():
    t = _tangent("abelian3")
    npt.assert_allclose(t.lifted.c, 0.0)
    npt.assert_array_equal(t.lifted_metric.g, np.eye(6))


def test_frame_metrics_are_identity_and_diag_lambda(rng):
    for t in [_tangent(name) for name in CATALOG] + [
        _random_tangent(name, rng) for name in CATALOG
    ]:
        npt.assert_array_equal(t.base_g1.g, np.eye(t.dim))
        npt.assert_array_equal(t.base_g2.g, np.diag(t.phi_data.lambdas))


def test_tiny_eigenvalue_is_rejected():
    # lambda = 1e-13 is not above EPS_PD, so g2 = diag(lambda) is refused
    algebra = catalog_algebra("heisenberg").algebra()
    with pytest.raises(NonPositiveDefinite):
        build_tangent(algebra, Metric(1e4 * np.eye(3)), Metric(1e-9 * np.eye(3)))


def test_lifted_bracket_relations(catalog_problem, rng):
    """[x^c, y^c] = [x,y]^c, [x^c, y^v] = [x,y]^v, [x^v, y^v] = 0."""
    algebra = catalog_problem.algebra()
    t = build_tangent(
        algebra, catalog_problem.metric("g1"), catalog_problem.metric("g2")
    )
    for _ in range(5):
        x, y = rng.standard_normal((2, algebra.dim))
        xy = bracket(algebra, x, y)
        npt.assert_allclose(
            bracket(t.lifted, complete_lift(t, x), complete_lift(t, y)),
            complete_lift(t, xy),
            atol=1e-10,
        )
        npt.assert_allclose(
            bracket(t.lifted, complete_lift(t, x), vertical_lift(t, y)),
            vertical_lift(t, xy),
            atol=1e-10,
        )
        npt.assert_allclose(
            bracket(t.lifted, vertical_lift(t, x), vertical_lift(t, y)),
            0.0,
            atol=1e-12,
        )


def test_heisenberg_case_coefficient():
    # [X^c, Y^v/sqrt(2)] carries sqrt(lambda_Z/lambda_Y) = 1/sqrt(2)
    t = _tangent("heisenberg")
    i_x = t.base.basis_labels.index("X")
    i_y = t.base.basis_labels.index("Y")
    i_z = t.base.basis_labels.index("Z")
    n = t.dim
    npt.assert_allclose(
        t.lifted.c[n + i_x, i_y, i_z], 1.0 / np.sqrt(2.0), atol=1e-14
    )


def test_unnormalized_metric_blocks(heisenberg):
    t = _tangent("heisenberg")
    expected = np.zeros((6, 6))
    expected[:3, :3] = np.diag([2.0, 2.0, 1.0])
    expected[3:, 3:] = np.eye(3)
    npt.assert_array_equal(lift_automorphism(t.input_g1.g, t.input_g2.g), expected)


def test_lifted_jacobi(catalog_problem, rng):
    for _ in range(3):
        t = _random_tangent(catalog_problem.name, rng)
        assert jacobi_defect(t.lifted) <= 1e-9


def test_lift_decomposition_round_trip(catalog_problem, rng):
    t = _tangent(catalog_problem.name)
    for _ in range(10):
        x, y = rng.standard_normal((2, t.dim))
        u = complete_lift(t, x) + vertical_lift(t, y)
        xr, yr = lift_components(t, u)
        npt.assert_allclose(xr, x, atol=1e-10)
        npt.assert_allclose(yr, y, atol=1e-10)


# ---------------------------------------------------------------------------
# Lifted connection: oracle agreement (the central property)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_connection_three_paths_agree(name, rng):
    # structconst is levi_civita of the lift, so each route is checked
    # against the raw-basis oracle, which shares no eigenbasis with them
    for _ in range(10):
        t = _random_tangent(name, rng)
        raw = _raw_koszul_in_frame(t)
        for route in (levi_civita(t.lifted_mla()), lifted_connection_closed_form(t),
                      lifted_connection_structure_constants(t)):
            npt.assert_allclose(route.gamma, raw, atol=1e-8)


def test_heisenberg_mixed_connection_value():
    # nabla_{X^c} Y^v = Z^v / 2 since nabla2_X Y = Z/2 and (ad2 Y)* X = 0
    t = _tangent("heisenberg")
    conn = lifted_connection_closed_form(t)
    out = conn.apply(complete_lift(t, X), vertical_lift(t, Y))
    npt.assert_allclose(out, 0.5 * vertical_lift(t, Z), atol=1e-12)


def test_heisenberg_vertical_vertical_vanishes():
    # nabla2_X Y = [X,Y]/2 makes the vertical-vertical derivative vanish
    t = _tangent("heisenberg")
    conn = lifted_connection_closed_form(t)
    out = conn.apply(vertical_lift(t, X), vertical_lift(t, Y))
    npt.assert_allclose(out, 0.0, atol=1e-12)


def _vertical_vertical(t, x, y):
    """Complete-block coefficients of the closed form's nabla_{x^v} y^v.

    x and y are coefficient vectors in the eigenbasis; their raw vertical
    lifts carry the sqrt(lambda) weights of the normalized frame.
    """
    n = t.dim
    u = np.zeros(2 * n)
    u[:n] = np.asarray(x) * t.phi_data.sqrt_lambdas
    v = np.zeros(2 * n)
    v[:n] = np.asarray(y) * t.phi_data.sqrt_lambdas
    out = lifted_connection_closed_form(t).apply(u, v)
    npt.assert_array_equal(out[:n], 0.0)
    return out[n:]


def test_vertical_vertical_coefficients_examples():
    t_ab = _tangent("abelian3")
    npt.assert_allclose(_vertical_vertical(t_ab, [1.0, 0, 0], [0, 1.0, 0]), 0.0)

    t_h = _tangent("heisenberg")
    ex = np.eye(3)[t_h.base.basis_labels.index("X")]
    ey = np.eye(3)[t_h.base.basis_labels.index("Y")]
    npt.assert_allclose(_vertical_vertical(t_h, ex, ey), 0.0, atol=1e-12)

    # solvable pair (Z, X): Gamma2 = 0 and c_{ZX}^X = 1 leave -lambda_X/2
    t_s = _tangent("solvable_rr2")
    ez = np.eye(3)[t_s.base.basis_labels.index("Z")]
    ex = np.eye(3)[t_s.base.basis_labels.index("X")]
    coeffs = _vertical_vertical(t_s, ez, ex)
    npt.assert_allclose(coeffs, [-0.5, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name", CATALOG)
def test_vertical_vertical_matches_connection_block(name, rng):
    # the paper's formula: sum_ij x_i y_j lambda_k (Gamma2_ijk - c_ijk / 2),
    # with Gamma2 the Levi-Civita connection of g2 = diag(lambda)
    t = _random_tangent(name, rng)
    gamma2 = levi_civita(t.base_mla2()).gamma
    for _ in range(5):
        x, y = rng.standard_normal((2, t.dim))
        expected = np.einsum(
            "i,j,ijk,k->k", x, y, gamma2 - 0.5 * t.base.c, t.phi_data.lambdas
        )
        npt.assert_allclose(_vertical_vertical(t, x, y), expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Zero blocks and bracket identities of the lifted connection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_lifted_connection_zero_blocks(name):
    t = _tangent(name)
    gamma = levi_civita(t.lifted_mla()).gamma
    n = t.dim
    # cc -> v, cv -> c, vc -> c, vv -> v all vanish
    assert np.max(np.abs(gamma[n:, n:, :n])) <= 1e-9
    assert np.max(np.abs(gamma[n:, :n, n:])) <= 1e-9
    assert np.max(np.abs(gamma[:n, n:, n:])) <= 1e-9
    assert np.max(np.abs(gamma[:n, :n, :n])) <= 1e-9


@pytest.mark.parametrize("name", CATALOG)
def test_lifted_connection_bracket_identities(name):
    """Inner products of mixed derivatives against g2 bracket expressions."""
    t = _tangent(name)
    conn = levi_civita(t.lifted_mla())
    algebra = t.input_algebra
    g2 = t.input_g2
    gt = t.lifted_metric.g
    n = t.dim
    e = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = e[i], e[j], e[k]
                xc, yc = complete_lift(t, x), complete_lift(t, y)
                xv, yv = vertical_lift(t, x), vertical_lift(t, y)
                zv, zc = vertical_lift(t, z), complete_lift(t, z)
                g2_y_zx = g2.inner(y, bracket(algebra, z, x))
                g2_z_xy = g2.inner(z, bracket(algebra, x, y))
                g2_x_yz = g2.inner(x, bracket(algebra, y, z))
                npt.assert_allclose(
                    conn.apply(xc, yv) @ gt @ zv,
                    0.5 * (g2_y_zx + g2_z_xy),
                    atol=1e-9,
                )
                npt.assert_allclose(
                    conn.apply(xv, yc) @ gt @ zv,
                    0.5 * (g2_z_xy - g2_x_yz),
                    atol=1e-9,
                )
                npt.assert_allclose(
                    conn.apply(xv, yv) @ gt @ zc,
                    0.5 * (g2_y_zx - g2_x_yz),
                    atol=1e-9,
                )


# ---------------------------------------------------------------------------
# Geodesic lifts and Killing lifts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_geodesic_vectors_lift(name, rng):
    problem = catalog_algebra(name)
    algebra = problem.algebra()
    t = build_tangent(algebra, problem.metric("g1"), problem.metric("g2"))
    conn_t = levi_civita(t.lifted_mla())
    mla1 = MetricLieAlgebra(algebra, problem.metric("g1"))
    mla2 = MetricLieAlgebra(algebra, problem.metric("g2"))
    conn1, conn2 = levi_civita(mla1), levi_civita(mla2)
    candidates = [np.eye(algebra.dim)[i] for i in range(algebra.dim)]
    candidates += [rng.standard_normal(algebra.dim) for _ in range(5)]
    for x in candidates:
        if is_geodesic_vector(mla1, conn1, x, 1e-10):
            u = complete_lift(t, x)
            assert np.max(np.abs(conn_t.apply(u, u))) <= 1e-9
        if is_geodesic_vector(mla2, conn2, x, 1e-10):
            u = vertical_lift(t, x)
            assert np.max(np.abs(conn_t.apply(u, u))) <= 1e-9


@pytest.mark.parametrize("name", CATALOG)
def test_vertical_lift_killing_iff_central(name):
    problem = catalog_algebra(name)
    algebra = problem.algebra()
    t = build_tangent(algebra, problem.metric("g1"), problem.metric("g2"))
    lifted_mla = t.lifted_mla()
    central = center(algebra, tol=1e-9)
    span = np.array(central).T if central else np.zeros((algebra.dim, 0))
    for i in range(algebra.dim):
        x = np.eye(algebra.dim)[i]
        residual = np.max(np.abs(lie_derivative_metric(lifted_mla, vertical_lift(t, x))))
        in_center = (
            span.size > 0
            and np.linalg.norm(x - span @ (span.T @ x)) <= 1e-9
        )
        assert (residual <= 1e-9) == in_center


# ---------------------------------------------------------------------------
# Lifted curvature
# ---------------------------------------------------------------------------


def test_abelian_lifted_curvature_zero():
    npt.assert_allclose(lifted_curvature(_tangent("abelian3")).r, 0.0)


def test_heisenberg_mixed_curvature_vanishes():
    t = _tangent("heisenberg")
    riem = lifted_curvature(t)
    out = riem.apply(vertical_lift(t, X), complete_lift(t, Y), complete_lift(t, Z))
    npt.assert_allclose(out, 0.0, atol=1e-12)


def test_solvable_vertical_curvature_vanishes():
    t = _tangent("solvable_rr2")
    riem = lifted_curvature(t)
    out = riem.apply(vertical_lift(t, X), vertical_lift(t, Y), vertical_lift(t, Z))
    npt.assert_allclose(out, 0.0, atol=1e-12)


@pytest.mark.parametrize("name", CATALOG)
def test_complete_block_is_base_curvature(name, rng):
    """R(x^c, y^c)z^c restricted to the complete block is the g1 curvature."""
    t = _random_tangent(name, rng)
    riem_t = lifted_curvature(t)
    riem_1 = curvature(t.base_mla1(), levi_civita(t.base_mla1()))
    n = t.dim
    npt.assert_allclose(riem_t.r[n:, n:, n:, n:], riem_1.r, atol=1e-9)
    npt.assert_allclose(riem_t.r[n:, n:, n:, :n], 0.0, atol=1e-9)


@pytest.mark.parametrize("name", CATALOG)
def test_structure_constant_blocks_with_unique_reading(name, rng):
    for _ in range(5):
        t = _random_tangent(name, rng)
        dev = curvature_block_deviations(t, lifted_curvature(t))
        assert dev["ccc"] <= 1e-8
        assert dev["ccv"] <= 1e-8
        assert dev["vcc"] <= 1e-8
        assert dev["vvv"] <= 1e-8


def test_higher_dimensional_lift_pipeline(rng):
    # a 5-dimensional two-step nilpotent algebra with 1-dim center
    h5 = LieAlgebra.from_brackets(
        5, {(0, 1, 4): 1.0, (2, 3, 4): 1.0}, ("X1", "Y1", "X2", "Y2", "Z")
    )
    for _ in range(3):
        t = build_tangent(h5, random_spd_metric(rng, 5), random_spd_metric(rng, 5))
        assert jacobi_defect(t.lifted) <= 1e-9
        raw = _raw_koszul_in_frame(t)
        for route in (lifted_connection_closed_form(t), lifted_connection_structure_constants(t)):
            npt.assert_allclose(route.gamma, raw, atol=1e-8)
        dev = curvature_block_deviations(t, lifted_curvature(t))
        assert dev["ccc"] <= 1e-8 and dev["vvv"] <= 1e-8


def _reference_patterns(t):
    """Christoffel patterns as inline lambda-weighted sums, C-contiguous.

    einsum sums in an order that follows the memory layout of its
    operands, so the references reduce from C-contiguous patterns, the
    layout of the sliced connection tensor.
    """
    c = t.base.c
    sl = t.phi_data.sqrt_lambdas
    isl = 1.0 / sl
    patterns = {
        "p": c - np.einsum("jli->ijl", c) + np.einsum("lij->ijl", c),
        "a": np.einsum("l,b,abl->abl", sl, isl, c) + np.einsum("b,l,lab->abl", sl, isl, c),
        "v": np.einsum("l,a,abl->abl", sl, isl, c) - np.einsum("a,l,bla->abl", sl, isl, c),
        "w": np.einsum("l,a,hal->alh", sl, isl, c) - np.einsum("a,l,lha->alh", sl, isl, c),
        "brv": np.einsum("l,i,ijl->ijl", sl, isl, c),
        "p1": c - np.einsum("jli->ijl", c) + np.einsum("lij->ijl", c),
        "mixed": np.einsum("j,i,lij->ijl", sl, isl, c) + np.einsum("i,j,lji->ijl", sl, isl, c),
    }
    return {key: np.ascontiguousarray(val) for key, val in patterns.items()}


def _block_terms(t):
    """Each of the six expanded curvature blocks as 1/4 times a sum of terms.

    A term is (weight, einsum spec, operands...).  The operands are c,
    sqrt(lambda), its inverse, the inline patterns (equal to the library's
    by the pattern pin below) and the printed first factors of vvc and
    vcv, formed by the same products as the library's.
    """
    c = t.base.c
    sl = t.phi_data.sqrt_lambdas
    isl = 1.0 / sl
    pat = _reference_patterns(t)
    p, a, v, w, brv = (pat[key] for key in ("p", "a", "v", "w", "brv"))
    g1f = np.einsum("l,k,jkl->jkl", sl, isl, c) - np.einsum("j,l,klj->jkl", sl, isl, c)
    a5 = np.einsum("l,j,jkl->jkl", sl, isl, c) + np.einsum("k,l,ljk->jkl", sl, isl, c)
    jk_il, ik_jl, ij_lk = "jkl,ilh->ijkh", "ikl,jlh->ijkh", "ijl,lkh->ijkh"
    return {
        "ccc": [(1, jk_il, p, p), (-1, ik_jl, p, p), (-2, ij_lk, c, p)],
        "ccv": [(1, jk_il, a, a), (-1, ik_jl, a, a), (-2, ij_lk, c, a)],
        "vcc": [(1, jk_il, p, v), (-1, ik_jl, v, a), (-2, ij_lk, brv, v)],
        "vvc": [(1, jk_il, g1f, w), (-1, ik_jl, v, w)],
        "vcv": [(1, jk_il, a5, w), (-1, ik_jl, w, p), (-2, "k,i,ijl,lkh->ijkh", sl, isl, c, w)],
        "vvv": [(1, jk_il, w, v), (-1, ik_jl, w, v)],
    }


def _reference_curvature_blocks(t, magnitude=False):
    """The six blocks as inline einsums, their terms added in the order listed.

    With ``magnitude`` each term is summed by its absolute value instead,
    which gives the scale of the block's rounding.
    """
    out = {}
    for key, terms in _block_terms(t).items():
        total = 0.0
        for weight, spec, *operands in terms:
            if magnitude:
                weight, operands = abs(weight), map(np.abs, operands)
            total = total + weight * np.einsum(spec, *operands)
        out[key] = 0.25 * total
    return out


def _dyadic(x):
    """Integers m and one exponent e with x == m / 2**e exactly."""
    ratios = [value.as_integer_ratio() for value in np.ravel(x).tolist()]
    e = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (e - den.bit_length() + 1) for num, den in ratios]
    return np.array(ints, dtype=object).reshape(np.shape(x)), e


def _exact_curvature_blocks(t):
    """Each block's exact sum and sum of |terms|, 1/4 included, as integers over 2**e.

    Every float is an integer over a power of two, so each operand is
    carried as integers over one power of two and the sums run in Python
    integers, where the order of addition is moot.
    """
    out = {}
    for key, terms in _block_terms(t).items():
        parts = []
        for weight, spec, *operands in terms:
            ints, exps = zip(*map(_dyadic, operands))
            parts.append((weight, sum(exps) + 2, np.einsum(spec, *ints),
                          np.einsum(spec, *map(np.abs, ints))))
        e = max(part[1] for part in parts)
        value = sum(weight * 2 ** (e - pe) * prod for weight, pe, prod, _ in parts)
        size = sum(abs(weight) * 2 ** (e - pe) * mag for weight, pe, _, mag in parts)
        out[key] = value, size, e
    return out


def block_rounding_bound(n):
    """gamma_m = m u / (1 - m u), u = 2^-53, for m = n + 3 roundings per term.

    A term of a block entry is rounded once by its product and at most
    n - 1 times by the additions of its length-n sum, in any order; the
    block adds two sums to a third, two more roundings.  The vcv term
    weighted by sqrt(lambda_k / lambda_i) carries two more products but
    joins only at the last subtraction.  Scaling by 2 and 1/4 is exact.
    So every entry is within gamma_{n + 3} times the sum of its terms'
    absolute values of the exact sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1).
    """
    m = n + 3
    u = Fraction(1, 2**53)
    return m * u / (1 - m * u)


def _reference_sectional_closed_forms(t):
    """The three pair-sectional arrays from the inline patterns."""
    c = t.base.c
    lam = t.phi_data.lambdas
    pat = _reference_patterns(t)
    p1, mixed = pat["p1"], pat["mixed"]
    cross = np.einsum("ljj,lii->ij", c, c)
    q1 = np.einsum("jli->ijl", c) - np.einsum("lij->ijl", c) + c
    r1 = np.einsum("lji->ijl", c) - np.einsum("jil->ijl", c) + np.einsum("ilj->ijl", c)
    cc = 0.25 * (
        -4.0 * cross
        - np.einsum("ijl,ijl->ij", p1, q1)
        - 2.0 * np.einsum("ijl,ijl->ij", c, r1)
    )
    vv = 0.25 * (np.einsum("ijl,ijl->ij", mixed, mixed) - 4.0 * cross)
    ratio = lam[:, None] / lam[None, :]
    vc = 0.25 * (
        np.einsum("il,jli->ij", ratio, c**2)
        - 3.0 * np.einsum("li,ijl->ij", ratio, c**2)
        - 2.0 * np.einsum("ijl,lji->ij", c, c)
        - 4.0 * cross
    )
    for m in (cc, vv):
        np.fill_diagonal(m, 0.0)
    return {"cc": cc, "vv": vv, "vc": vc}


def test_formula_arrays_equal_inline_reference(rng):
    # the patterns read off the structure-constant connection are the
    # same floating-point numbers as the inline sums
    for t in _seeded_tangents(rng):
        n = t.dim
        gamma2 = 2.0 * lifted_connection_structure_constants(t).gamma
        pat = _reference_patterns(t)
        for key, got in (
            ("p", gamma2[n:, n:, n:]),
            ("a", gamma2[n:, :n, :n]),
            ("v", gamma2[:n, n:, :n]),
            ("w", gamma2[:n, :n, n:]),
            ("brv", t.lifted.c[:n, n:, :n]),
            ("p1", gamma2[n:, n:, n:]),
            ("mixed", gamma2[:n, :n, n:]),
        ):
            assert np.array_equal(got, pat[key]), key
        forms = lifted_sectional_closed_forms(t)
        for key, want in _reference_sectional_closed_forms(t).items():
            assert np.array_equal(forms[key], want), key


def test_curvature_blocks_within_rounding_of_exact_sums(rng):
    # every entry is within gamma_{n+3} * sum|terms| of its exact value, and
    # an entry whose terms are all exactly zero is exactly zero
    for t in _seeded_tangents(rng):
        bound = block_rounding_bound(t.dim)
        blocks = structure_constant_curvature_blocks(t)
        for key, (value, size, e) in _exact_curvature_blocks(t).items():
            got, ge = _dyadic(blocks[key])
            # |got / 2^ge - value / 2^e| <= bound * size / 2^e, times 2^(e + ge)
            err = np.abs(got * 2**e - value * 2**ge)
            assert np.all(err * bound.denominator <= bound.numerator * size * 2**ge), key
            assert np.all(got[size == 0] == 0), key


def test_ambiguous_blocks_reported_not_asserted():
    # the retained vvc/vcv expansions disagree with the oracle once the
    # eigenvalues separate; solvable_rr2 pins the deviation
    t = _tangent("solvable_rr2")
    dev = curvature_block_deviations(t, lifted_curvature(t))
    assert dev["vvc"] > 1e-6
    assert dev["vcv"] > 1e-6


# ---------------------------------------------------------------------------
# Lifted sectional curvature
# ---------------------------------------------------------------------------


def test_heisenberg_sectional_values():
    t = _tangent("heisenberg")
    riem = lifted_curvature(t)
    npt.assert_allclose(
        lifted_sectional(t, vertical_lift(t, Y), vertical_lift(t, Z), riem),
        0.125,
        atol=1e-12,
    )
    npt.assert_allclose(
        lifted_sectional(t, complete_lift(t, X), complete_lift(t, Y), riem),
        -0.75,
        atol=1e-12,
    )


def test_solvable_sectional_value():
    t = _tangent("solvable_rr2")
    npt.assert_allclose(
        lifted_sectional(t, vertical_lift(t, Z), vertical_lift(t, X)),
        1.0 / 12.0,
        atol=1e-12,
    )


def test_sectional_without_tensor_matches_tensor(rng):
    for t in _seeded_tangents(rng):
        riem = lifted_curvature(t)
        scale = max(1.0, float(np.max(np.abs(riem.r))))
        for _ in range(3):
            u, v = rng.standard_normal((2, 2 * t.dim))
            assert abs(
                lifted_sectional(t, u, v) - lifted_sectional(t, u, v, riem)
            ) <= 1e-12 * scale


def test_sectional_without_tensor_rejects_degenerate_plane():
    t = _tangent("heisenberg")
    u = vertical_lift(t, Y)
    with pytest.raises(DegeneratePlane):
        lifted_sectional(t, u, 2.0 * u)


@pytest.mark.parametrize("name", CATALOG)
def test_complete_pairs_reproduce_base_sectional(name, rng):
    t = _random_tangent(name, rng)
    riem_t = lifted_curvature(t)
    riem_1 = curvature(t.base_mla1(), levi_civita(t.base_mla1()))
    n = t.dim
    for i in range(n):
        for j in range(i + 1, n):
            u = np.zeros(2 * n)
            u[n + i] = 1.0
            v = np.zeros(2 * n)
            v[n + j] = 1.0
            k_lift = lifted_sectional(t, u, v, riem_t)
            k_base = sectional(t.base_mla1(), riem_1, np.eye(n)[i], np.eye(n)[j])
            assert abs(k_lift - k_base) <= 1e-8


@pytest.mark.parametrize("name", CATALOG)
def test_sectional_closed_forms_match_tensor(name, rng):
    for t in (_tangent(name), _random_tangent(name, rng)):
        riem = lifted_curvature(t)
        forms = lifted_sectional_closed_forms(t)
        n = t.dim
        e = np.eye(2 * n)  # V_i = e[i], X_i^c = e[n + i]
        for i in range(n):
            # (V_i, X_i^c) is a plane, so the vc diagonal is a sectional curvature
            assert abs(lifted_sectional(t, e[i], e[n + i], riem) - forms["vc"][i, i]) <= 1e-12
            for j in range(n):
                if i == j:
                    continue
                cc = lifted_sectional(t, e[n + i], e[n + j], riem)
                assert abs(cc - forms["cc"][i, j]) <= 1e-8
                assert abs(lifted_sectional(t, e[i], e[j], riem) - forms["vv"][i, j]) <= 1e-8
                assert abs(lifted_sectional(t, e[i], e[n + j], riem) - forms["vc"][i, j]) <= 1e-8


# ---------------------------------------------------------------------------
# Bi-invariance of the lift
# ---------------------------------------------------------------------------


def _tensor_algebra(n, entries):
    c = np.zeros((n, n, n))
    for i, j, k, v in entries:
        c[i, j, k] = v
        c[j, i, k] = -v
    return LieAlgebra.from_tensor(c)


#: abelian, nilpotent, solvable and compact bases of the bi-invariance theorem
THEOREM_BASES = {
    "abelian3": catalog_algebra("abelian3").algebra(),
    "h3+R": _tensor_algebra(4, [(0, 1, 2, 1.0)]),
    "h11": _tensor_algebra(11, [(i, 5 + i, 10, 1.0) for i in range(5)]),
    "filiform7": _tensor_algebra(7, [(0, i, i + 1, 1.0) for i in range(1, 6)]),
    "aff1": catalog_algebra("aff1").algebra(),
    "solvable_rr2": catalog_algebra("solvable_rr2").algebra(),
    "su2": catalog_algebra("su2").algebra(),
    "su2+su2": _direct_sum("su2", "su2"),
}


@pytest.mark.parametrize("name", THEOREM_BASES)
def test_lift_bi_invariant_iff_base_abelian(name, rng):
    # gt(V_i, [V_j, X_k^c]) - gt([V_i, V_j], X_k^c) = sqrt(lambda_i / lambda_j) c_jki
    tangents = [_random_pair_tangent(THEOREM_BASES[name], rng) for _ in range(5)]
    if name in CATALOG:  # the catalog su2 pair has an ad-invariant g1
        tangents.append(_tangent(name))
    for t in tangents:
        size = float(np.max(np.abs(t.base.c)))
        lam = t.phi_data.lambdas
        defect = bi_invariance_defect(t.lifted_mla())
        if size == 0.0:
            assert defect == 0.0
        else:
            assert defect >= np.sqrt(lam.min() / lam.max()) * size
        assert bi_invariance_of_lift(t).lift_satisfies_oneill == (size == 0.0)
        # the paper's sufficient condition holds only on abelian bases
        g1_ad_invariant = bi_invariance_defect(t.base_mla1()) <= CHECK_TOL
        if g1_ad_invariant and double_bracket_defect(t.base_mla2()) <= CHECK_TOL:
            assert size == 0.0


# ---------------------------------------------------------------------------
# Bi-invariant pairs: the four derivative identities
# ---------------------------------------------------------------------------


def test_su2_bi_invariant_pair_connection_blocks(su2):
    algebra = su2.algebra()
    t = build_tangent(algebra, su2.metric("g1"), su2.metric("g2"))
    conn = lifted_connection_closed_form(t)
    e = np.eye(3)
    for i in range(3):
        for j in range(3):
            x, y = e[i], e[j]
            xy = bracket(algebra, x, y)
            xv, yv = vertical_lift(t, x), vertical_lift(t, y)
            xc, yc = complete_lift(t, x), complete_lift(t, y)
            npt.assert_allclose(conn.apply(xv, yv), 0.0, atol=1e-9)
            npt.assert_allclose(conn.apply(xv, yc), 0.0, atol=1e-9)
            npt.assert_allclose(
                conn.apply(xc, yv), vertical_lift(t, xy), atol=1e-9
            )
            npt.assert_allclose(
                conn.apply(xc, yc), 0.5 * complete_lift(t, xy), atol=1e-9
            )


def test_abelian_lift_canonical_forms(rng):
    """With trivially bi-invariant data, derivative = half bracket = 0."""
    t = _tangent("abelian3")
    npt.assert_allclose(levi_civita(t.lifted_mla()).gamma, 0.0, atol=1e-12)
    riem = lifted_curvature(t)
    npt.assert_allclose(riem.r, 0.0, atol=1e-12)
    for _ in range(5):
        u, v = rng.standard_normal((2, 6))
        gram = u @ u * (v @ v) - (u @ v) ** 2
        if gram < 1e-6:
            continue
        quotient = 0.25 * 0.0 / gram  # bracket vanishes identically
        assert abs(lifted_sectional(t, u, v, riem) - quotient) <= 1e-12


# ---------------------------------------------------------------------------
# Lifted automorphisms
# ---------------------------------------------------------------------------


def test_lift_automorphism_identity():
    npt.assert_array_equal(lift_automorphism(np.eye(3), np.eye(3)), np.eye(6))


def test_heisenberg_equal_pair_lifts_to_automorphism(heisenberg):
    tau = np.diag([2.0, 3.0, 6.0])
    big = lift_automorphism(tau, tau)
    assert is_automorphism(tangent_algebra_unnormalized(heisenberg.algebra()), big)


def test_lifted_pullback_identity(heisenberg):
    tau1 = np.diag([2.0, 3.0, 6.0])
    tau2 = np.diag([1.0, 5.0, 5.0])
    big = lift_automorphism(tau1, tau2)
    t = _tangent("heisenberg")
    g_lift = lift_automorphism(t.input_g1.g, t.input_g2.g)
    expected = np.zeros((6, 6))
    expected[:3, :3] = tau2.T @ heisenberg.metric("g2").g @ tau2
    expected[3:, 3:] = tau1.T @ heisenberg.metric("g1").g @ tau1
    npt.assert_allclose(big.T @ g_lift @ big, expected, atol=1e-9)


def test_lift_automorphism_shape_mismatch():
    with pytest.raises(InvalidDimension):
        lift_automorphism(np.eye(3), np.eye(2))


# ---------------------------------------------------------------------------
# Accuracy on ill-conditioned pairs against a raw-basis oracle
# ---------------------------------------------------------------------------


def _raw_koszul_in_frame(t):
    """Koszul connection of blockdiag(g2, g1) in the raw lift basis, mapped
    into the normalized frame by the benchmark's checker, which solves no
    eigenproblem and imports nothing from tanglie."""
    b = checker.raw_bracket(t.input_algebra.c)
    raw = checker.koszul(b, checker.raw_metric(t.input_g1.g, t.input_g2.g))
    return checker.to_frame3(raw, checker.lift_frame(t.phi_data.b1, t.phi_data.lambdas))


@pytest.mark.parametrize("spread", [2, 4, 6, 7, 8, 10])
def test_closed_form_accuracy_on_h7(spread):
    # the closed form errs against the raw oracle no more than twice as
    # much as the generic Koszul route on the same frame
    for seed in range(10):
        problem = problem_from_dict(h7_doc(seed, spread))
        t = build_tangent(problem.algebra(), problem.metric("g1"), problem.metric("g2"))
        ref = _raw_koszul_in_frame(t)
        closed = np.max(np.abs(lifted_connection_closed_form(t).gamma - ref))
        koszul = np.max(np.abs(levi_civita(t.lifted_mla()).gamma - ref))
        assert closed <= 2.0 * koszul, (seed, closed, koszul)
