"""Two-forms, the symplectic test, and the lifted form."""

import numpy as np
import numpy.testing as npt
import pytest

from tanglie.cli_io import catalog_algebra
from tanglie.errors import NotSymplecticInput, ValidationError
from tanglie.lie_core import LieAlgebra, Metric
from tanglie.metric_geometry import random_spd_metric
from tanglie.symplectic_lift import (
    CLOSEDNESS_PATTERNS,
    TwoForm,
    cocycle_defect,
    RTOL,
    is_symplectic,
    lift_symplectic,
    relative_closedness,
    verify_closedness_identities,
)
from tanglie.tangent_lift import build_tangent
from conftest import CATALOG

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _tangent(problem):
    return build_tangent(problem.algebra(), problem.metric("g1"), problem.metric("g2"))


def _sum_algebra():
    """aff(1) + R^2: [X1, Y1] = Y1, everything else commutes."""
    return LieAlgebra.from_brackets(
        4, {(0, 1, 1): 1.0}, ("X1", "Y1", "X2", "Y2")
    )


# ---------------------------------------------------------------------------
# TwoForm and the base-level tests
# ---------------------------------------------------------------------------


def test_two_form_exact_antisymmetry():
    w = TwoForm(J2 + 1e-12 * np.ones((2, 2)))
    npt.assert_array_equal(w.w, -w.w.T)


def test_two_form_rejects_symmetric_part():
    with pytest.raises(ValidationError):
        TwoForm(np.eye(2))


def test_two_form_keeps_entries_near_the_float_maximum():
    # the halves are taken first: w - w^T overflows above max/2
    npt.assert_array_equal(TwoForm(1e308 * J2).w, 1e308 * J2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_two_form_rejects_non_finite_entry(bad):
    w = J2.copy()
    w[0, 1], w[1, 0] = bad, -bad
    with pytest.raises(ValidationError):
        TwoForm(w)


def test_cocycle_two_dimensional_always_closed(rng):
    algebra = catalog_algebra("aff1").algebra()
    for _ in range(10):
        w = TwoForm(rng.standard_normal() * J2)
        assert cocycle_defect(algebra, w) <= 1e-15


def test_cocycle_abelian_closed(rng):
    algebra = catalog_algebra("abelian3").algebra()
    m = rng.standard_normal((3, 3))
    assert cocycle_defect(algebra, TwoForm(m - m.T)) <= 1e-15


def test_cocycle_heisenberg_degenerate_form():
    algebra = catalog_algebra("heisenberg").algebra()
    w = np.zeros((3, 3))
    w[0, 1], w[1, 0] = 1.0, -1.0
    form = TwoForm(w)
    assert cocycle_defect(algebra, form) == 0.0
    assert not is_symplectic(algebra, form)  # Z sits in the kernel


def test_is_symplectic_aff1():
    assert is_symplectic(catalog_algebra("aff1").algebra(), TwoForm(J2))


def test_is_symplectic_odd_dimension_false(rng):
    algebra = catalog_algebra("heisenberg").algebra()
    m = rng.standard_normal((3, 3))
    assert not is_symplectic(algebra, TwoForm(m - m.T))


def test_is_symplectic_zero_form_false():
    assert not is_symplectic(
        catalog_algebra("abelian2").algebra(), TwoForm(np.zeros((2, 2)))
    )


# ---------------------------------------------------------------------------
# The lift
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["aff1", "abelian2"])
def test_lifted_form_is_symplectic(name):
    problem = catalog_algebra(name)
    t = _tangent(problem)
    lifted = lift_symplectic(t, problem.two_form("w1"), problem.two_form("w2"))
    assert is_symplectic(t.lifted, lifted)
    residuals = verify_closedness_identities(t, lifted)
    assert max(residuals.values()) <= 1e-9
    assert residuals["vvv"] == 0.0
    # abelian2's residuals are all exactly 0, and nothing divides by zero
    assert max(relative_closedness(t, lifted).values()) <= RTOL


def test_vertical_complete_pairing_is_w2():
    problem = catalog_algebra("aff1")
    t = _tangent(problem)
    w2 = problem.two_form("w2")
    lifted = lift_symplectic(t, problem.two_form("w1"), w2)
    n = t.dim
    # undo the vertical normalization: pairing of X_i^c with X_j^v
    pairing = lifted.w[n:, :n] * t.phi_data.sqrt_lambdas[None, :]
    npt.assert_allclose(
        pairing, t.phi_data.b1.T @ w2.w @ t.phi_data.b1, atol=1e-12
    )
    assert abs(np.linalg.det(pairing)) > 1e-6


def test_lift_rounding_is_not_an_input_error():
    # b1^T w b1 is antisymmetric in exact arithmetic; unantisymmetrized,
    # this lift's rounding asymmetry is 1.5e-8, over TwoForm's 1e-9
    algebra = catalog_algebra("aff1").algebra()
    t = build_tangent(
        algebra, Metric([[2.0, 0.7], [0.7, 1.0]]), Metric([[1.0, 0.2], [0.2, 3.0]])
    )
    w = TwoForm(1e8 * J2)
    lifted = lift_symplectic(t, w, w)
    npt.assert_array_equal(lifted.w, -lifted.w.T)
    b1 = t.phi_data.b1
    npt.assert_allclose(
        lifted.w[2:, 2:], b1.T @ w.w @ b1, rtol=0, atol=1e-15 * np.max(np.abs(lifted.w))
    )


def test_product_algebra_product_forms():
    algebra = _sum_algebra()
    w = np.zeros((4, 4))
    w[0, 1], w[1, 0] = 1.0, -1.0
    w[2, 3], w[3, 2] = 1.0, -1.0
    form = TwoForm(w)
    assert is_symplectic(algebra, form)
    t = build_tangent(algebra, Metric(np.eye(4)), Metric(np.diag([1.0, 2.0, 3.0, 4.0])))
    lifted = lift_symplectic(t, form, form)
    assert is_symplectic(t.lifted, lifted)
    assert max(verify_closedness_identities(t, lifted).values()) <= 1e-9


def test_lift_rejects_odd_dimension():
    problem = catalog_algebra("heisenberg")
    t = _tangent(problem)
    w = np.zeros((3, 3))
    w[0, 1], w[1, 0] = 1.0, -1.0
    with pytest.raises(NotSymplecticInput):
        lift_symplectic(t, TwoForm(w), TwoForm(w))


def test_lift_rejects_degenerate_form():
    problem = catalog_algebra("abelian2")
    t = _tangent(problem)
    with pytest.raises(NotSymplecticInput):
        lift_symplectic(t, TwoForm(np.zeros((2, 2))), problem.two_form("w2"))


# ---------------------------------------------------------------------------
# Pattern-by-pattern reduction to base cocycle defects
# ---------------------------------------------------------------------------


ZERO_PATTERNS = ("vvv", "vvc", "vcv", "cvv")  # patterns with no nonzero term


def test_ccc_residual_equals_w1_cocycle_defect(rng):
    # a non-closed form on aff(1)+R^2 makes the reduction visible
    algebra = _sum_algebra()
    m = rng.standard_normal((4, 4))
    w1 = TwoForm(m - m.T)
    w2 = TwoForm(np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]]))
    t = build_tangent(algebra, Metric(np.eye(4)), Metric(np.eye(4)))
    lifted = lift_symplectic(t, w1, w2, check=False)
    residuals = verify_closedness_identities(t, lifted)
    base_defect = cocycle_defect(t.base, TwoForm(t.phi_data.b1.T @ w1.w @ t.phi_data.b1))
    npt.assert_allclose(residuals["ccc"], base_defect, atol=1e-12)
    assert residuals["ccc"] > 1e-3  # the chosen form really is non-closed
    assert all(residuals[p] == 0.0 for p in ZERO_PATTERNS)


def test_ccv_residual_equals_w2_cocycle_defect(rng):
    algebra = _sum_algebra()
    m = rng.standard_normal((4, 4))
    w2 = TwoForm(m - m.T)
    w1 = TwoForm(np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]]))
    t = build_tangent(algebra, Metric(np.eye(4)), Metric(np.eye(4)))
    lifted = lift_symplectic(t, w1, w2, check=False)
    residuals = verify_closedness_identities(t, lifted)
    base_defect = cocycle_defect(t.base, TwoForm(t.phi_data.b1.T @ w2.w @ t.phi_data.b1))
    size = np.max(np.abs(t.base.c)) * np.max(np.abs(t.phi_data.b1.T @ w2.w @ t.phi_data.b1))
    relative = relative_closedness(t, lifted)
    for pattern in ("ccv", "cvc", "vcc"):  # each is w2's cocycle sum
        npt.assert_allclose(residuals[pattern], base_defect, atol=1e-12)
        npt.assert_allclose(relative[pattern], residuals[pattern] / size, rtol=1e-12)
    assert residuals["ccv"] > 1e-3
    assert all(residuals[p] == 0.0 for p in ZERO_PATTERNS)


# ---------------------------------------------------------------------------
# The one-tensor closedness check against explicit lift matrices
# ---------------------------------------------------------------------------


def _closedness_by_pattern(t, wt):
    """Reference: each pattern's cyclic sum over explicit raw lift matrices."""
    n = t.dim
    b = t.lifted.c
    sl = t.phi_data.sqrt_lambdas
    lifts = {
        "v": np.hstack([np.diag(sl), np.zeros((n, n))]),  # rows: X_i^v
        "c": np.hstack([np.zeros((n, n)), np.eye(n)]),  # rows: X_i^c
    }
    out = {}
    for pattern in CLOSEDNESS_PATTERNS:
        u1, u2, u3 = (lifts[ch] for ch in pattern)
        br12 = np.einsum("ia,jb,abg->ijg", u1, u2, b)
        br23 = np.einsum("ja,kb,abg->jkg", u2, u3, b)
        br31 = np.einsum("ka,ib,abg->kig", u3, u1, b)
        total = (
            np.einsum("ijg,gh,kh->ijk", br12, wt.w, u3)
            + np.einsum("jkg,gh,ih->ijk", br23, wt.w, u1)
            + np.einsum("kig,gh,jh->ijk", br31, wt.w, u2)
        )
        out[pattern] = float(np.max(np.abs(total)))
    return out


def _assert_matches_reference(t, wt):
    got = verify_closedness_identities(t, wt)
    want = _closedness_by_pattern(t, wt)
    assert tuple(got) == CLOSEDNESS_PATTERNS
    tol = 1e-14 * np.max(np.abs(wt.w)) * np.max(np.abs(t.lifted.c))
    for pattern in CLOSEDNESS_PATTERNS:
        assert abs(got[pattern] - want[pattern]) <= tol, pattern
    return got


def _exact_form(c, theta):
    """d(theta)(X_i, X_j) = -theta([X_i, X_j]); always closed."""
    return -np.einsum("ijk,k->ij", c, theta)


def _seeded_symplectic_form(c, w0, rng):
    """A scaled symplectic w0 plus an exact form: symplectic for these w0."""
    return TwoForm(rng.uniform(1.0, 2.0) * w0 + _exact_form(c, rng.standard_normal(c.shape[0])))


AFF1 = LieAlgebra.from_brackets(2, {(0, 1, 1): 1.0}).c
H3R = LieAlgebra.from_brackets(4, {(0, 1, 2): 1.0}).c
H3R_FORM = np.zeros((4, 4))  # e^X ^ e^Z + e^Y ^ e^T
H3R_FORM[0, 2], H3R_FORM[2, 0], H3R_FORM[1, 3], H3R_FORM[3, 1] = 1.0, -1.0, 1.0, -1.0


def _direct_sum(mats, rank):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n,) * rank)
    o = 0
    for m in mats:
        k = m.shape[0]
        out[(slice(o, o + k),) * rank] = m
        o += k
    return out


@pytest.mark.parametrize("name", ["aff1", "abelian2"])
def test_closedness_matches_reference_catalog_forms(name):
    problem = catalog_algebra(name)
    t = _tangent(problem)
    lifted = lift_symplectic(t, problem.two_form("w1"), problem.two_form("w2"))
    _assert_matches_reference(t, lifted)


@pytest.mark.parametrize("name", CATALOG)
def test_closedness_matches_reference_catalog_random(name, rng):
    # every two-form on these algebras is closed, so residuals sit at rounding
    problem = catalog_algebra(name)
    n = problem.dim
    for _ in range(5):
        t = build_tangent(
            problem.algebra(), random_spd_metric(rng, n), random_spd_metric(rng, n)
        )
        m1, m2 = rng.standard_normal((2, n, n))
        lifted = lift_symplectic(t, TwoForm(m1 - m1.T), TwoForm(m2 - m2.T), check=False)
        residuals = _assert_matches_reference(t, lifted)
        assert all(residuals[p] == 0.0 for p in ZERO_PATTERNS)


SEEDED_PARTS = pytest.mark.parametrize(
    "parts",
    [("h3r",), ("aff1", "aff1"), ("aff1",) * 3, ("h3r", "aff1")],
    ids=["h3+R", "2aff1", "3aff1", "h3+R+aff1"],
)


def _seeded_pair_base(parts):
    """Direct-sum bracket and symplectic form of aff1 and h3+R blocks."""
    blocks = {"aff1": (AFF1, J2), "h3r": (H3R, H3R_FORM)}
    return (
        _direct_sum([blocks[p][0] for p in parts], 3),
        _direct_sum([blocks[p][1] for p in parts], 2),
    )


@SEEDED_PARTS
def test_closedness_matches_reference_seeded_symplectic_pairs(parts, rng):
    c, w0 = _seeded_pair_base(parts)
    algebra = LieAlgebra.from_tensor(c)
    n = algebra.dim
    for _ in range(5):
        w1, w2 = (_seeded_symplectic_form(c, w0, rng) for _ in range(2))
        assert is_symplectic(algebra, w1) and is_symplectic(algebra, w2)
        t = build_tangent(algebra, random_spd_metric(rng, n), random_spd_metric(rng, n))
        residuals = _assert_matches_reference(t, lift_symplectic(t, w1, w2))
        assert max(residuals.values()) <= 1e-9
        # arbitrary forms are not closed here; every pattern must still agree
        m1, m2 = rng.standard_normal((2, n, n))
        lifted = lift_symplectic(t, TwoForm(m1 - m1.T), TwoForm(m2 - m2.T), check=False)
        residuals = _assert_matches_reference(t, lifted)
        assert min(residuals[p] for p in ("ccc", "ccv", "cvc", "vcc")) > 1e-3
        assert all(residuals[p] == 0.0 for p in ZERO_PATTERNS)


# ---------------------------------------------------------------------------
# is_symplectic judges relative to the size of the form and the bracket
# ---------------------------------------------------------------------------

SCALES = 10.0 ** np.arange(-12, 13, 3)


def _assert_scale_free(c, w, expected):
    for s in SCALES:
        assert is_symplectic(LieAlgebra.from_tensor(c), TwoForm(s * w)) is expected, s
        assert is_symplectic(LieAlgebra.from_tensor(s * c), TwoForm(w)) is expected, s


@pytest.mark.parametrize("name", ["aff1", "abelian2"])
def test_is_symplectic_scale_free_catalog_forms(name):
    problem = catalog_algebra(name)
    for form in ("w1", "w2"):
        _assert_scale_free(problem.algebra().c, problem.two_form(form).w, True)


@SEEDED_PARTS
def test_is_symplectic_scale_free_seeded_pairs(parts, rng):
    c, w0 = _seeded_pair_base(parts)
    for _ in range(5):
        _assert_scale_free(c, _seeded_symplectic_form(c, w0, rng).w, True)


def test_is_symplectic_scale_free_non_closed_and_degenerate():
    # e^X^e^Y + e^Z^e^T is nondegenerate but not closed on h3+R
    # (de^Z = -e^X^e^Y); e^X^e^Z is closed but has rank 2
    non_closed = np.zeros((4, 4))
    non_closed[0, 1], non_closed[2, 3] = 1.0, 1.0
    degenerate = np.zeros((4, 4))
    degenerate[0, 2] = 1.0
    for w in (non_closed, degenerate):
        _assert_scale_free(H3R, w - w.T, False)
