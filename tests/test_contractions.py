"""Pairwise contractions against the multi-operand einsums they replaced.

The library contracts one tensor slot at a time by matrix products.  The
einsum expressions below are the earlier implementations, kept verbatim as
references, and every pairwise result must match its reference within
1e-12 * max|ref|.  The inputs are the catalog, seeded metric pairs on
algebras of dimension 4 and 6 with non-diagonal automorphisms, the three
graded algebras of dimension 11 with seeded dilations, and a Heisenberg
automorphism with entries in the hundreds.

The lift section holds the earlier forms of the lifted closed-form
connection, the curvature, its invariant residuals and the block
deviations.  Their rewrites round in the same order, so each must equal
its reference bit for bit, on the catalog, on seeded pairs at dimension
4 and 6 and on the three base algebras of dimension 12 of the lift
benchmark; the lifted curvature keeps only the 8 blocks its Z2 grading
allows, and the full tensor it assembles is the ungraded product.  So
must ``levi_civita`` on the frame metrics I and
diag(lambda), where each one-slot product sums a single nonzero term,
and the structure-constant connection, which is ``levi_civita`` of the
lift, against the paper's four lambda-weighted sums written out; under a
general SPD metric ``levi_civita`` keeps the 1e-12 gate.  The
connections and the raw lift bracket are compared by ``tobytes``, since
``np.array_equal`` ignores the sign of a zero and the reports print it.  The six curvature blocks are the exception: their matrix
products sum in another order than the inline einsums of
``test_tangent_lift``, so both must lie within the rounding bound that
``block_rounding_bound`` derives.  So do the Jacobi verdict that an
algebra keeps and its einsum reference, and the (C, C, V) Jacobi sum of
the lift, formed from its (C, V) blocks, and the weighted copy of c's own
sum that stands for it; ``guard_rounding_bound`` derives their bound.

The base residuals that reduce in the buffers they own, and
``equivariance_defect``, which holds one curvature tensor at a time, must
equal their earlier copying forms bit for bit on the catalog, on the
three algebras of the equivariance benchmark with two seeded draws each,
and on the large Heisenberg automorphism.
"""

import functools
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tanglie import cli_io, lie_core, metric_geometry, tangent_lift
from tanglie.cli_io import catalog_algebra, run_command
from tanglie.errors import PreconditionViolated, ValidationError
from tanglie.lie_core import (
    EPS_JACOBI,
    LieAlgebra,
    Metric,
    _jacobi_sum,
    _pull_back,
    ad_star,
    change_basis_constants,
    is_automorphism,
    jacobi_defect,
    pullback_metric,
)
from tanglie.metric_geometry import (
    Connection,
    CurvatureTensor,
    MetricLieAlgebra,
    _basis_sectionals,
    _lowered_double_bracket,
    _relative_gap,
    canonical_metricity_defect,
    curvature,
    curvature_invariant_defects,
    double_bracket_defect,
    equivariance_defect,
    levi_civita,
    random_spd_metric,
    sectional,
)
from tanglie.tangent_lift import (
    build_tangent,
    compute_phi,
    curvature_block_deviations,
    lifted_connection_closed_form,
    lifted_connection_structure_constants,
    lifted_curvature,
    lifted_sectional,
    structure_constant_curvature_blocks,
    tangent_algebra_unnormalized,
)

from conftest import CATALOG
from test_tangent_lift import _reference_curvature_blocks, block_rounding_bound

GATE = 1e-12

# ---------------------------------------------------------------------------
# References: the replaced einsums, verbatim
# ---------------------------------------------------------------------------


def ref_change_basis_constants(c, b):
    binv = np.linalg.inv(b)
    return np.einsum("pi,qj,pqm,km->ijk", b, b, c, binv)


def ref_automorphism_sides(c, tau):
    lhs = np.einsum("ijm,km->ijk", c, tau)  # tau([X_i, X_j])
    rhs = np.einsum("pi,qj,pqk->ijk", tau, tau, c)  # [tau X_i, tau X_j]
    return lhs, rhs


def ref_jacobi_product(c):
    return np.einsum("ijm,mkl->ijkl", c, c)


def ref_jacobi_defect(c):
    t = ref_jacobi_product(c)
    resid = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(resid)))


def ref_levi_civita(mla):
    """``levi_civita`` with the lowering and raising as einsums."""
    c, g = mla.algebra.c, mla.metric.g
    gb = np.einsum("ijm,mk->ijk", c, g)  # g([X_i, X_j], X_k)
    # gb.transpose(2,0,1)[i,j,k] = g([X_j, X_k], X_i); (1,2,0) gives g([X_k, X_i], X_j)
    k = 0.5 * (gb - gb.transpose(2, 0, 1) + gb.transpose(1, 2, 0))
    return np.einsum("ijk,km->ijm", k, mla.metric.inv())


def ref_curvature(c, gamma):
    t1 = np.einsum("jkm,imh->ijkh", gamma, gamma)
    t3 = np.einsum("ijm,mkh->ijkh", c, gamma)
    return t1 - t1.transpose(1, 0, 2, 3) - t3


def ref_curvature_apply(r, x, y, z):
    return np.einsum("i,j,k,ijkh->h", x, y, z, r)


def ref_lowered_curvature(r, g):
    return np.einsum("ijkm,mh->ijkh", r, g)


def ref_lowered_double_bracket(c, g):
    dbl = np.einsum("ijm,kmp->ijkp", c, c)  # [X_k, [X_i, X_j]]
    return np.einsum("ijkp,pl->ijkl", dbl, g)


def ref_connection_transport(gamma_p, gamma, tau):
    lhs = np.einsum("ijm,km->ijk", gamma_p, tau)
    rhs = np.einsum("pi,qj,pqk->ijk", tau, tau, gamma)
    return lhs, rhs


def ref_curvature_transport(r_p, r, tau):
    lhs_r = np.einsum("ijkm,hm->ijkh", r_p, tau)
    rhs_r = np.einsum("pi,qj,sk,pqsh->ijkh", tau, tau, tau, r)
    return lhs_r, rhs_r


def ref_plane_sectionals(mla, mla_pulled, riem, riem_p, tau):
    """The per-plane loop of equivariance_defect, one list per side."""
    algebra = mla.algebra
    kp, k = [], []
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = algebra.basis_vector(i), algebra.basis_vector(j)
            kp.append(sectional(mla_pulled, riem_p, ei, ej))
            k.append(sectional(mla, riem, tau[:, i], tau[:, j]))
    return np.array(kp), np.array(k)


def assert_matches(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    gap = np.max(np.abs(got - ref), initial=0.0)
    assert gap <= GATE * np.max(np.abs(ref), initial=0.0)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def tensor(n, entries):
    c = np.zeros((n, n, n))
    for i, j, k, v in entries:
        c[i, j, k] = v
        c[j, i, k] = -v
    return c


def h3_plus_line_auto(rng):
    """h3 + R, [X, Y] = Z, with an automorphism that mixes every slot it may."""
    a, b, c, d, e, f, g, h, k = rng.uniform(0.5, 1.5, 9) * rng.choice([-1, 1], 9)
    tau = np.array(
        [[a, b, 0, 0], [c, d, 0, 0], [e, f, a * d - b * c, g], [h, k, 0, 1.0 + abs(e)]]
    )
    return tensor(4, [(0, 1, 2, 1.0)]), tau


def free32_auto(rng):
    """Free 2-step nilpotent on 3 generators; tau = A on generators, Lambda^2 A on brackets."""
    pairs = list(itertools.combinations(range(3), 2))
    c = tensor(6, [(i, j, 3 + p, 1.0) for p, (i, j) in enumerate(pairs)])
    a = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
    tau = np.zeros((6, 6))
    tau[:3, :3] = a
    for q, (i, j) in enumerate(pairs):  # [A X_i, A X_j] = sum_{k<l} minor * Z_kl
        for p, (k, l) in enumerate(pairs):
            tau[3 + p, 3 + q] = a[k, i] * a[l, j] - a[l, i] * a[k, j]
    return c, tau


def graded11(name, a, b):
    """The dimension-11 algebras of the equivariance benchmark, with their dilations."""
    if name == "heisenberg11":
        c = tensor(11, [(i, 5 + i, 10, 1.0) for i in range(5)])
        return c, np.diag([a] * 5 + [b] * 5 + [a * b])
    if name == "filiform11":
        c = tensor(11, [(0, i, i + 1, 1.0) for i in range(1, 10)])
        return c, np.diag([a] + [b * a ** (i - 1) for i in range(10)])
    pairs = list(itertools.combinations(range(4), 2))  # free(4, 2) + R
    c = tensor(11, [(i, j, 4 + p, 1.0) for p, (i, j) in enumerate(pairs)])
    return c, np.diag([a] * 4 + [a * a] * 6 + [b])


# (a, b, c, d, e, f) of the Heisenberg automorphism [[a, b, 0], [c, d, 0], [e, f, ad - bc]]
LARGE_TAU = (134.366877, 182.85812, 620.421919, 561.308716, 860.691177, -491.122815)
LARGE_TAU_METRIC = [[2, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1]]

CATALOG_TAU = {
    "abelian2": [[1.3, -0.4], [0.6, 0.9]],
    "abelian3": [[1.3, -0.4, 0.2], [0.6, 0.9, 0.0], [0.1, 0.5, 1.1]],
    "aff1": [[1.0, 0.0], [0.7, 1.9]],  # [X, Y] = Y: X -> X + 0.7 Y, Y -> 1.9 Y
    "heisenberg": "dilation",
    "solvable_rr2": "axis_scale",
    "su2": "rot_z",
}


def _catalog_case(name):
    problem = catalog_algebra(name)
    c = problem.algebra().c
    tau = CATALOG_TAU[name]
    if isinstance(tau, str):
        tau = problem.automorphism(tau)
    return c, problem.metric("g1").g, problem.metric("g2").g, np.asarray(tau, dtype=float)


def _case(label):
    kind, _, arg = label.partition(":")
    if kind == "catalog":
        return _catalog_case(arg)
    if kind == "large_tau":
        a, b, c, d, e, f = LARGE_TAU
        tau = np.array([[a, b, 0], [c, d, 0], [e, f, a * d - b * c]])
        g = np.array(LARGE_TAU_METRIC, dtype=float)
        return tensor(3, [(0, 1, 2, 1.0)]), g, g, tau
    seed = int(arg.rsplit("#", 1)[1])
    rng = np.random.default_rng(seed)
    if kind == "n4":
        c, tau = h3_plus_line_auto(rng)
    elif kind == "n6":
        c, tau = free32_auto(rng)
    else:  # n11
        c, tau = graded11(arg.rsplit("#", 1)[0], *rng.uniform(0.8, 1.25, 2))
    n = c.shape[0]
    return c, random_spd_metric(rng, n).g, random_spd_metric(rng, n).g, tau


CASES = (
    [f"catalog:{name}" for name in CATALOG]
    + [f"n4:h3+R#{seed}" for seed in (401, 402, 403)]
    + [f"n6:free(3,2)#{seed}" for seed in (601, 602, 603)]
    + [f"n11:{name}#1101" for name in ("heisenberg11", "filiform11", "free(4,2)+R")]
    + ["large_tau"]
)


@pytest.fixture(params=CASES)
def case(request):
    return _case(request.param)


def _basis_change(c, seed):
    n = c.shape[0]
    return np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))


# ---------------------------------------------------------------------------
# lie_core
# ---------------------------------------------------------------------------


def test_change_basis_constants_matches_einsum(case):
    c, _, _, tau = case
    algebra = LieAlgebra.from_tensor(c)
    for b in (_basis_change(c, 7), tau):
        got = change_basis_constants(algebra, b).c
        assert_matches(got, LieAlgebra.from_tensor(ref_change_basis_constants(algebra.c, b)).c)


def test_automorphism_sides_match_einsum(case):
    c, _, _, tau = case
    algebra = LieAlgebra.from_tensor(c)
    lhs, rhs = ref_automorphism_sides(algebra.c, tau)
    assert_matches(_pull_back(algebra.c, tau, tau), rhs)
    assert is_automorphism(algebra, tau)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8  # the reference agrees: tau is one


def test_jacobi_defect_matches_einsum(case):
    c, _, _, _ = case
    for b in (None, _basis_change(c, 11)):
        algebra = LieAlgebra.from_tensor(c)
        if b is not None:  # rounding makes the defect nonzero
            algebra = change_basis_constants(algebra, b)
        # the Jacobi sums cancel to zero, so their rounding scales with |c| x |c|
        scale = np.max(ref_jacobi_product(np.abs(algebra.c)))
        assert abs(jacobi_defect(algebra) - ref_jacobi_defect(algebra.c)) <= GATE * scale


# ---------------------------------------------------------------------------
# metric_geometry
# ---------------------------------------------------------------------------


def test_curvature_and_lowerings_match_einsum(case):
    c, g1, g2, _ = case
    algebra = LieAlgebra.from_tensor(c)
    for g in (g1, g2):
        mla = MetricLieAlgebra(algebra, Metric(g))
        conn = levi_civita(mla)
        assert_matches(conn.gamma, ref_levi_civita(mla))
        riem = curvature(mla, conn)
        assert_matches(riem.r, ref_curvature(algebra.c, conn.gamma))
        assert_matches(
            _lowered_double_bracket(mla), ref_lowered_double_bracket(algebra.c, mla.metric.g)
        )
        low = ref_lowered_curvature(riem.r, mla.metric.g)
        pair = float(np.max(np.abs(low - low.transpose(2, 3, 0, 1))))
        got = curvature_invariant_defects(mla, riem)["pair_symmetry"]
        assert abs(got - pair) <= GATE * np.max(np.abs(low))


def _sides(case, which):
    c, g1, g2, tau = case
    algebra = LieAlgebra.from_tensor(c)
    mla = MetricLieAlgebra(algebra, Metric(g1 if which == "g1" else g2))
    pulled = MetricLieAlgebra(algebra, pullback_metric(mla.metric, tau))
    return mla, pulled, tau


@pytest.mark.parametrize("which", ["g1", "g2"])
def test_transports_match_einsum(case, which):
    """The tau X sides; the other sides are checked through the defects below."""
    mla, pulled, tau = _sides(case, which)
    conn, conn_p = levi_civita(mla), levi_civita(pulled)
    _, rhs = ref_connection_transport(conn_p.gamma, conn.gamma, tau)
    assert_matches(_pull_back(conn.gamma, tau, tau), rhs)
    riem, riem_p = curvature(mla, conn), curvature(pulled, conn_p)
    _, rhs_r = ref_curvature_transport(riem_p.r, riem.r, tau)
    assert_matches(_pull_back(riem.r, tau, tau, tau), rhs_r)


@pytest.mark.parametrize("which", ["g1", "g2"])
def test_basis_sectionals_match_plane_loop(case, which):
    mla, pulled, tau = _sides(case, which)
    riem = curvature(mla, levi_civita(mla))
    riem_p = curvature(pulled, levi_civita(pulled))
    kp, k = ref_plane_sectionals(mla, pulled, riem, riem_p, tau)
    g_p = pulled.metric.g
    assert_matches(_basis_sectionals(riem_p.r, g_p, g_p), kp)
    g_tau = mla.metric.g @ tau
    assert_matches(_basis_sectionals(_pull_back(riem.r, tau, tau, tau), g_tau, tau.T @ g_tau), k)


@pytest.mark.parametrize("which", ["g1", "g2"])
def test_equivariance_defects_are_relative_rounding(case, which):
    """Each defect is the reference gap over max(1, the entries compared)."""
    mla, pulled, tau = _sides(case, which)
    conn, conn_p = levi_civita(mla), levi_civita(pulled)
    riem, riem_p = curvature(mla, conn), curvature(pulled, conn_p)
    sides = (
        ref_connection_transport(conn_p.gamma, conn.gamma, tau),
        ref_curvature_transport(riem_p.r, riem.r, tau),
        ref_plane_sectionals(mla, pulled, riem, riem_p, tau),
    )
    defects = equivariance_defect(mla, pulled, tau)
    got = (defects.connection_defect, defects.curvature_defect, defects.sectional_defect)
    for value, (a, b) in zip(got, sides):
        scale = max(1.0, np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
        ref = np.max(np.abs(a - b), initial=0.0) / scale
        assert value <= 1e-12
        assert abs(value - ref) <= GATE


@pytest.mark.parametrize("name", ["heisenberg11", "filiform11", "free(4,2)+R"])
def test_equivariance_still_rejects_at_dim_11(name):
    c, tau = graded11(name, 1.1, 0.9)
    rng = np.random.default_rng(1102)
    algebra = LieAlgebra.from_tensor(c)
    mla = MetricLieAlgebra(algebra, random_spd_metric(rng, 11))
    pulled = MetricLieAlgebra(algebra, pullback_metric(mla.metric, tau))
    with pytest.raises(PreconditionViolated, match="pullback"):
        equivariance_defect(mla, mla, tau)
    not_auto = np.diag(np.arange(1.0, 12.0))
    with pytest.raises(PreconditionViolated, match="automorphism"):
        equivariance_defect(mla, MetricLieAlgebra(algebra, pullback_metric(mla.metric, not_auto)), not_auto)
    assert equivariance_defect(mla, pulled, tau).curvature_defect <= 1e-12


# ---------------------------------------------------------------------------
# Reductions in the buffers they own: the earlier copying forms, verbatim
# ---------------------------------------------------------------------------


def ref_relative_gap(a, b):
    scale = max(1.0, np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return float(np.max(np.abs(a - b), initial=0.0) / scale)


def ref_equivariance_defect(mla, mla_pulled, tau):
    """The two-tensor form: both curvature tensors alive through the whole call."""
    n = mla.dim
    conn = levi_civita(mla)
    conn_p = levi_civita(mla_pulled)
    riem = curvature(mla, conn)
    riem_p = curvature(mla_pulled, conn_p)
    lhs = (conn_p.gamma.reshape(-1, n) @ tau.T).reshape((n,) * 3)
    conn_defect = ref_relative_gap(lhs, _pull_back(conn.gamma, tau, tau))
    r_tau = _pull_back(riem.r, tau, tau, tau)
    lhs_r = (riem_p.r.reshape(-1, n) @ tau.T).reshape((n,) * 4)
    curv_defect = ref_relative_gap(lhs_r, r_tau)
    g_p = mla_pulled.metric.g
    g_tau = mla.metric.g @ tau
    sec_defect = ref_relative_gap(
        _basis_sectionals(riem_p.r, g_p, g_p),
        _basis_sectionals(r_tau, g_tau, tau.T @ g_tau),
    )
    return conn_defect, curv_defect, sec_defect


def ref_is_automorphism(algebra, tau):
    n = algebra.dim
    if np.linalg.matrix_rank(tau) < n:
        return False
    c = algebra.c
    lhs = (c.reshape(n * n, n) @ tau.T).reshape(c.shape)
    rhs = _pull_back(c, tau, tau)
    return float(np.max(np.abs(lhs - rhs))) <= 1e-8


# as the equivariance benchmark: its three algebras, two seeded draws each
BASE_EQUIV_CASES = [
    f"n11:{name}#{seed}"
    for name in ("heisenberg11", "filiform11", "free(4,2)+R")
    for seed in (1101, 1102)
]


@pytest.mark.parametrize(
    "label", [f"catalog:{name}" for name in CATALOG] + BASE_EQUIV_CASES + ["large_tau"]
)
def test_owned_buffer_reductions_equal_the_copying_forms(label):
    c, g1, g2, tau = _case(label)
    algebra = LieAlgebra.from_tensor(c)
    rebased = change_basis_constants(algebra, _basis_change(c, 13))  # a nonzero Jacobi sum
    for alg in (algebra, rebased):
        assert jacobi_defect(alg) == float(np.max(np.abs(_jacobi_sum(alg.c))))
    # tau and a perturbed tau, which is no automorphism of a non-abelian algebra
    for t in (tau, tau + 1e-3 * np.eye(len(tau))[::-1]):
        assert is_automorphism(algebra, t) == ref_is_automorphism(algebra, t)
    for g in (g1, g2):
        mla = MetricLieAlgebra(algebra, Metric(g))
        t = _lowered_double_bracket(mla)
        assert canonical_metricity_defect(mla) == float(np.max(np.abs(t + t.transpose(0, 1, 3, 2))))
        assert double_bracket_defect(mla) == float(np.max(np.abs(t)))
        pulled = MetricLieAlgebra(algebra, pullback_metric(mla.metric, tau))
        defects = equivariance_defect(mla, pulled, tau)
        got = (defects.connection_defect, defects.curvature_defect, defects.sectional_defect)
        assert got == ref_equivariance_defect(mla, pulled, tau)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_relative_gap_of_a_non_finite_entry_is_nan(bad):
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    b = a.copy()
    b[1, 0] = bad
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
        for x, y in ((a, b), (b, a), (b, b)):
            assert np.isnan(_relative_gap(x, y))
            assert np.isnan(ref_relative_gap(x, y))
    empty = np.zeros((0, 3))
    assert _relative_gap(empty, empty) == ref_relative_gap(empty, empty) == 0.0


def test_equivariance_defect_holds_one_curvature_at_a_time():
    # each n^4 tensor is dropped once transported: the two-tensor form peaked
    # at 6.3 n^4 buffers here
    n = 11
    c, tau = graded11("heisenberg11", 1.1, 0.9)
    rng = np.random.default_rng(1103)
    algebra = LieAlgebra.from_tensor(c)
    mla = MetricLieAlgebra(algebra, random_spd_metric(rng, n))
    pulled = MetricLieAlgebra(algebra, pullback_metric(mla.metric, tau))
    equivariance_defect(mla, pulled, tau)  # the cached index arrays, formed once
    tracemalloc.start()
    try:
        equivariance_defect(mla, pulled, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * n**4 * 8


# ---------------------------------------------------------------------------
# tangent_lift: rewrites that must round exactly as before
# ---------------------------------------------------------------------------


def ref_closed_form(t):
    """The closed-form connection with adstar2 stacked from n ad_star calls."""
    n = t.dim
    conn1 = levi_civita(t.base_mla1())
    conn2 = levi_civita(t.base_mla2())
    sl = t.phi_data.sqrt_lambdas
    isl = 1.0 / sl
    c = t.base.c
    phi_b = np.diag(t.phi_data.lambdas)  # phi = g1^{-1} g2 in the eigenbasis
    # adstar[j, k, i] = k-component of adstar2(X_j) applied to X_i
    adstar = np.stack(
        [ad_star(t.base, t.base_g2, t.base.basis_vector(j)) for j in range(n)]
    )

    gamma = np.zeros((2 * n, 2 * n, 2 * n))
    gamma[n:, n:, n:] = conn1.gamma
    w_cv = conn2.gamma + 0.5 * np.einsum("jki->ijk", adstar)
    gamma[n:, :n, :n] = np.einsum("k,j,ijk->ijk", sl, isl, w_cv)
    w_vc = conn2.gamma + 0.5 * np.einsum("ikj->ijk", adstar)
    gamma[:n, n:, :n] = np.einsum("k,i,ijk->ijk", sl, isl, w_vc)
    w_vv = np.einsum("km,ijm->ijk", phi_b, conn2.gamma - 0.5 * c)
    gamma[:n, :n, n:] = np.einsum("i,j,ijk->ijk", isl, isl, w_vv)
    return gamma


def ref_structure_constant_connection(t):
    """The connection from the four lambda-weighted sums, written out."""
    n = t.dim
    sl = t.phi_data.sqrt_lambdas
    isl = 1.0 / sl
    c = t.base.c
    gamma = np.zeros((2 * n, 2 * n, 2 * n))
    gamma[:n, :n, n:] = 0.5 * (
        np.einsum("j,i,lij->ijl", sl, isl, c) - np.einsum("i,j,jli->ijl", sl, isl, c)
    )
    gamma[n:, n:, n:] = 0.5 * (
        c - np.einsum("jli->ijl", c) + np.einsum("lij->ijl", c)
    )
    gamma[n:, :n, :n] = 0.5 * (
        np.einsum("l,j,ijl->ijl", sl, isl, c) + np.einsum("j,l,lij->ijl", sl, isl, c)
    )
    gamma[:n, n:, :n] = 0.5 * (
        np.einsum("l,i,ijl->ijl", sl, isl, c) - np.einsum("i,l,jli->ijl", sl, isl, c)
    )
    return gamma


def ref_full_tensor_curvature(c, gamma):
    """``curvature`` with t1 - t1^T - t3 formed as one expression."""
    n = gamma.shape[0]
    t1 = gamma.reshape(n * n, n) @ gamma.transpose(1, 0, 2).reshape(n, n * n)
    t1 = t1.reshape((n,) * 4).transpose(2, 0, 1, 3)
    t3 = (c.reshape(n * n, n) @ gamma.reshape(n, n * n)).reshape((n,) * 4)
    return t1 - t1.transpose(1, 0, 2, 3) - t3


def ref_invariant_defects(r, g):
    """``curvature_invariant_defects`` with every residual a fresh tensor."""
    n = r.shape[0]
    low = (r.reshape(-1, n) @ g).reshape(r.shape)  # g(R(X_i,X_j)X_k, X_h)
    return {
        "antisymmetry": float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
        "first_bianchi": float(
            np.max(np.abs(r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)))
        ),
        "pair_symmetry": float(np.max(np.abs(low - low.transpose(2, 3, 0, 1)))),
    }


def ref_block_deviations(t, riem):
    """``curvature_block_deviations`` against the zero-padded output fiber."""
    n = t.dim
    sl_of = {"v": slice(0, n), "c": slice(n, 2 * n)}
    blocks = structure_constant_curvature_blocks(t)
    out = {}
    for key, formula in blocks.items():
        s1, s2, s3 = (sl_of[ch] for ch in key)
        oracle = riem.r[s1, s2, s3, :]
        predicted = np.zeros_like(oracle)
        # vertical lifts are odd and complete lifts even in the grading R
        # preserves, so an odd number of vertical arguments lands vertical
        predicted[..., sl_of["v" if key.count("v") % 2 else "c"]] = formula
        out[key] = float(np.max(np.abs(oracle - predicted)))
    return out


def lifted_bracket(c, lambdas):
    """The lifted bracket tensor ``build_tangent`` assembles, for any c."""
    n = c.shape[0]
    sl = np.sqrt(lambdas)
    isl = 1.0 / sl
    b = np.zeros((2 * n, 2 * n, 2 * n))
    b[:n, n:, :n] = np.einsum("k,i,ijk->ijk", sl, isl, c)
    b[n:, :n, :n] = np.einsum("k,j,ijk->ijk", sl, isl, c)
    b[n:, n:, n:] = c
    # antisymmetrized as LieAlgebra stores it, which refuses a NaN c
    return 0.5 * b - 0.5 * b.transpose(1, 0, 2)


def ref_unnormalized_lift(c):
    """``tangent_algebra_unnormalized`` with the raw blocks copied in."""
    n = c.shape[0]
    b = np.zeros((2 * n, 2 * n, 2 * n))
    b[:n, n:, :n] = c
    b[n:, :n, :n] = c
    b[n:, n:, n:] = c
    return LieAlgebra.from_tensor(b).c


def ref_lifted_jacobi_defects(
    c: np.ndarray, b_cv: np.ndarray, b_vc: np.ndarray
) -> list[tuple[float, float]]:
    """(max-abs residual, rounding scale) of each lifted Jacobi sum left.

    c, b_cv and b_vc are the [C, C] -> C, [C, V] -> V and [V, C] -> V
    blocks.  Vertical lifts are odd, complete lifts even and [V, V] = 0, so
    a Jacobi sum with two or three vertical arguments vanishes term by
    term, and the sums with one are cyclic rotations of (Ci, Cj, Vk).  The
    two sums left are (C, C, C) -> C and (C, C, V) -> V, each added in the
    order ``jacobi_defect`` adds the full tensor's.  A sum's scale is
    max(1, its largest entry of |left| @ |right|) over its own products:
    the (C, V) blocks grow with sqrt(lambda_max / lambda_min), and a scale
    shared with them would let a broken c pass in the (C, C, C) sum.
    """
    n = c.shape[0]
    left = np.stack([c, c, b_cv, b_vc]).reshape(4, n * n, n)
    right = np.stack([c, b_cv, b_vc, b_vc]).reshape(4, n, n * n)
    # ccc[i,j,k] = [[Ci,Cj],Ck], ccv[i,j,k] = [[Ci,Cj],Vk],
    # cvc[j,k,i] = [[Cj,Vk],Ci], vcc[k,i,j] = [[Vk,Ci],Cj]
    ccc, ccv, cvc, vcc = (left @ right).reshape(4, n, n, n, n)
    resid = (
        ccc + ccc.transpose(1, 2, 0, 3) + ccc.transpose(2, 0, 1, 3),
        ccv + vcc.transpose(1, 2, 0, 3) + cvc.transpose(2, 0, 1, 3),
    )
    terms = (np.abs(left) @ np.abs(right)).reshape(4, -1).max(axis=1)
    scales = (terms[0], terms[1:].max())
    return [
        (float(np.max(np.abs(r))), max(1.0, float(scale)))
        for r, scale in zip(resid, scales)
    ]


def ref_ccv_terms(c, b_cv, b_vc):
    """The three terms of the (C, C, V) -> V Jacobi sum at (i, j, k; h)."""
    return (
        np.einsum("ijm,mkh->ijkh", c, b_cv),  # [[Ci, Cj], Vk]
        np.einsum("kim,mjh->ijkh", b_vc, b_vc),  # [[Vk, Ci], Cj]
        np.einsum("jkm,mih->ijkh", b_cv, b_vc),  # [[Cj, Vk], Ci]
    )


H3R = tensor(4, [(0, 1, 2, 1.0)])  # h3 + R: [X, Y] = Z, W central
AFF1 = tensor(2, [(0, 1, 1, 1.0)])  # aff(1): [X, Y] = Y
LIFT_BASES = {"3(h3+R)": [H3R] * 3, "6aff1": [AFF1] * 6, "2(h3+R)+2aff1": [H3R, H3R, AFF1, AFF1]}


def direct_sum(blocks):
    n = sum(b.shape[0] for b in blocks)
    c = np.zeros((n, n, n))
    o = 0
    for b in blocks:
        m = b.shape[0]
        c[o : o + m, o : o + m, o : o + m] = b
        o += m
    return c


def _lift_tangent(label):
    kind, _, arg = label.partition(":")
    if kind == "n12":
        name, _, seed = arg.partition("#")
        c = direct_sum(LIFT_BASES[name])
        if seed == "ill-conditioned":  # lambda over 16 decades
            g1, g2 = np.eye(12), np.diag(np.logspace(8, -8, 12))
        else:
            rng = np.random.default_rng(int(seed))
            g1, g2 = random_spd_metric(rng, 12).g, random_spd_metric(rng, 12).g
    else:
        c, g1, g2, _ = _case(label)
    return build_tangent(LieAlgebra.from_tensor(c), Metric(g1), Metric(g2))


LIFT_CASES = (
    [f"catalog:{name}" for name in CATALOG]
    + [f"n4:h3+R#{seed}" for seed in (401, 402, 403)]
    + [f"n6:free(3,2)#{seed}" for seed in (601, 602, 603)]
    + [f"n12:{name}#1201" for name in LIFT_BASES]
    + ["n12:3(h3+R)#ill-conditioned"]
)


@pytest.fixture(params=LIFT_CASES)
def lift_case(request):
    return _lift_tangent(request.param)


def test_lift_rewrites_equal_their_references(lift_case):
    t = lift_case
    gamma = lifted_connection_closed_form(t).gamma
    assert gamma.tobytes() == ref_closed_form(t).tobytes()
    # the frame metrics are I and diag(lambda), so each one-slot product
    # of levi_civita sums one nonzero term and rounds as the einsum did
    for mla in (t.base_mla1(), t.base_mla2(), t.lifted_mla()):
        assert levi_civita(mla).gamma.tobytes() == ref_levi_civita(mla).tobytes()
    want = ref_structure_constant_connection(t)
    assert lifted_connection_structure_constants(t).gamma.tobytes() == want.tobytes()
    riem = lifted_curvature(t)
    assert riem.classes == 2  # the invariants and deviations below read the 8 blocks
    assert np.array_equal(riem.r, ref_full_tensor_curvature(t.lifted.c, gamma))
    raw = tangent_algebra_unnormalized(t.input_algebra).c
    assert raw.tobytes() == ref_unnormalized_lift(t.input_algebra.c).tobytes()
    mla = t.lifted_mla()
    assert curvature_invariant_defects(mla, riem) == ref_invariant_defects(riem.r, mla.metric.g)
    assert curvature_block_deviations(t, riem) == ref_block_deviations(t, riem)


def _odd_blocks(r, n):
    """The 8 blocks of a (2n)^4 lift tensor that the Z2 grading forbids."""
    r8 = r.reshape(2, n, 2, n, 2, n, 2, n)
    return [r8[a, :, b, :, c, :, 1 ^ a ^ b ^ c, :] for a, b, c in itertools.product((0, 1), repeat=3)]


def test_graded_curvature_is_the_full_product(lift_case):
    # the 8 blocks hold the nonzero terms of the full product in its order,
    # so the assembled tensor is the ungraded curvature byte for byte, and
    # exactly 0 off the grading
    t = lift_case
    riem = lifted_curvature(t)
    blocks = riem.blocks
    assert blocks.shape == (2, 2, 2) + (t.dim,) * 4
    assert riem.r is riem.r and not riem.r.flags.writeable
    assert riem.blocks.tobytes() == blocks.tobytes()  # now gathered from r
    full = curvature(t.lifted_mla(), lifted_connection_closed_form(t))
    assert full.classes == 1
    assert riem.r.tobytes() == full.r.tobytes()
    assert not any(block.any() for block in _odd_blocks(riem.r, t.dim))


@pytest.mark.parametrize("n", [25, 35])
def test_graded_curvature_within_rounding_at_large_n(n):
    # at 2n = 50 and 70 the full product sums its 2n terms, n of them exact
    # zeros, in another blocking than the graded one sums its n: measured
    # 4.4e-16 and 9.0e-17 of max|R|.  The odd blocks stay exactly 0.
    rng = np.random.default_rng(n)
    m = (n - 1) // 2
    algebra = LieAlgebra.from_tensor(tensor(n, [(i, m + i, n - 1, 1.0) for i in range(m)]))
    t = build_tangent(algebra, random_spd_metric(rng, n), random_spd_metric(rng, n))
    blocks = lifted_curvature(t).blocks
    full = curvature(t.lifted_mla(), lifted_connection_closed_form(t)).r
    assert not any(block.any() for block in _odd_blocks(full, n))
    r8 = full.reshape(2, n, 2, n, 2, n, 2, n)
    scale = np.max(np.abs(full))
    for a, b, c in itertools.product((0, 1), repeat=3):
        gap = np.max(np.abs(r8[a, :, b, :, c, :, a ^ b ^ c, :] - blocks[a, b, c]))
        assert gap <= 1e-14 * scale, (a, b, c)


def test_graded_curvature_refuses_an_ungraded_connection():
    t = _lift_tangent("catalog:heisenberg")
    gamma = np.array(lifted_connection_closed_form(t).gamma)
    gamma[0, 1, 2] = 1e-300  # [V, V] lands in C, so (V, V) -> V is off the grading
    with pytest.raises(PreconditionViolated, match="connection"):
        curvature(t.lifted_mla(), Connection(gamma), graded=True)
    riem = lifted_curvature(t)
    g = np.eye(6)
    g[0, 3] = g[3, 0] = 0.5  # pairs V_1 with X_1^c
    # a graded tensor is lowered by the identity only, the lift frame's metric
    for metric in (Metric(g), Metric(2.0 * np.eye(6))):
        with pytest.raises(PreconditionViolated, match="metric"):
            curvature_invariant_defects(MetricLieAlgebra(t.lifted, metric), riem)


@pytest.mark.parametrize("name", CATALOG)
def test_structure_constant_sums_equal_koszul_on_seeded_pairs(name):
    algebra = catalog_algebra(name).algebra()
    rng = np.random.default_rng(1400)
    for _ in range(3):
        n = algebra.dim
        t = build_tangent(algebra, random_spd_metric(rng, n), random_spd_metric(rng, n))
        want = ref_structure_constant_connection(t)
        assert lifted_connection_structure_constants(t).gamma.tobytes() == want.tobytes()


def test_curvature_apply_matches_einsum(lift_case):
    riem = lifted_curvature(lift_case)
    rng = np.random.default_rng(1501)
    e = np.eye(riem.dim)
    for x, y, z in [*rng.standard_normal((4, 3, riem.dim)), (e[0], e[-1], e[1])]:
        assert_matches(riem.apply(x, y, z), ref_curvature_apply(riem.r, x, y, z))


def test_curvature_blocks_within_rounding_of_their_references(lift_case):
    # each side is within gamma * sum|terms| of the exact sum, so the two
    # differ by at most twice that; the float sum of |terms| is at least
    # (1 - gamma) times the exact one
    t = lift_case
    gamma = float(block_rounding_bound(t.dim))
    blocks = structure_constant_curvature_blocks(t)
    sizes = _reference_curvature_blocks(t, magnitude=True)
    for key, want in _reference_curvature_blocks(t).items():
        bound = 2.0 * gamma / (1.0 - gamma) * sizes[key]
        assert np.all(np.abs(blocks[key] - want) <= bound), key


def _parity_guard(c, lambdas):
    """The lifted bracket and the larger defect of its two Jacobi classes."""
    b = lifted_bracket(c, lambdas)
    n = c.shape[0]
    classes = ref_lifted_jacobi_defects(c, b[n:, :n, :n], b[:n, n:, :n])
    return b, max(defect for defect, _ in classes)


def test_parity_guard_matches_full_jacobi_defect(lift_case):
    t = lift_case
    b, guard = _parity_guard(t.base.c, t.phi_data.lambdas)
    assert np.array_equal(b, t.lifted.c)
    # the sums cancel to zero, so their rounding scales with |b| x |b|
    scale = np.max(ref_jacobi_product(np.abs(b)))
    assert abs(guard - jacobi_defect(t.lifted)) <= GATE * scale


def _broken_bracket(seed):
    rng = np.random.default_rng(seed)
    n = 5
    broken = LieAlgebra.from_tensor(rng.standard_normal((n, n, n)))
    lambdas = np.sort(rng.uniform(0.5, 4.0, n))
    return rng, broken, lambdas


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parity_guard_sees_a_broken_bracket(seed):
    rng, broken, lambdas = _broken_bracket(seed)
    n = broken.dim
    assert jacobi_defect(broken) > 1e-3
    b, guard = _parity_guard(broken.c, lambdas)
    full = jacobi_defect(LieAlgebra.from_tensor(b))
    assert full >= jacobi_defect(broken)  # the complete block copies c
    assert abs(guard - full) <= GATE * np.max(ref_jacobi_product(np.abs(b)))
    g1, g2 = random_spd_metric(rng, n), random_spd_metric(rng, n)
    with pytest.raises(ValidationError, match="Jacobi identity violated: defect"):
        build_tangent(broken, g1, g2)
    # a NaN defect fails the bound too: finite constants whose Jacobi terms overflow
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValidationError, match="Jacobi identity violated: defect nan"
    ):
        build_tangent(LieAlgebra.from_tensor(1e200 * broken.c), g1, g2)


def _h5_spread(seed):
    """h5 with [X5, X2] = [X3, X4] = X1, lambda = 1e8 .. 1e-8, and c broken by 1e-3."""
    n = 5
    c = np.zeros((n, n, n))
    c[4, 1, 0], c[1, 4, 0], c[2, 3, 0], c[3, 2, 0] = 1.0, -1.0, 1.0, -1.0
    g1, g2 = Metric.identity(n), Metric(np.diag(np.logspace(8, -8, n)))
    perturbation = np.random.default_rng(seed).standard_normal((n, n, n))
    broken = LieAlgebra.from_tensor(c + 1e-3 * (perturbation - perturbation.transpose(1, 0, 2)))
    return LieAlgebra.from_tensor(c), broken, g1, g2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parity_guard_scales_each_class_by_its_own_products(seed):
    # under lambda = 1e8 .. 1e-8 the (C, V) blocks reach 1e8, while the
    # verdict judges c alone and rounds at the size of |c| x |c|
    algebra, broken, g1, g2 = _h5_spread(seed)
    t = build_tangent(algebra, g1, g2)
    assert np.max(np.abs(t.lifted.c)) > 1e7
    assert jacobi_defect(broken) > 1e-3
    with pytest.raises(ValidationError, match="Jacobi identity violated"):
        build_tangent(broken, g1, g2)


def guard_rounding_bound(n):
    """gamma_m = m u / (1 - m u), u = 2^-53, for m = n + 14 roundings per term.

    A term of a lifted Jacobi sum is a product of two bracket entries.  The
    reference weighs a (C, V) entry by sqrt(lambda_k) / sqrt(lambda_i):
    two square roots, a division, the einsum's two products and the halved
    difference of ``LieAlgebra`` are six roundings per entry, so a product
    of two carries 13.  Its length-n sum adds n - 1 and the cyclic sum two
    more.  The weighted copy of c's own sum rounds J's terms n + 2 times
    and their weight sqrt(lambda_h) / sqrt(lambda_k) five times.  The kept
    verdict and its einsum reference round J's terms n + 2 times and P's
    n times, and the bound EPS_JACOBI * max(1, P), read back as a scale,
    two more.  So each residual entry of any side is within gamma_{n + 14}
    times the sum of its three terms' absolute values of the exact sum, and
    each raw scale within gamma_{n + 14} of the exact largest term (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    """
    m = n + 14
    u = Fraction(1, 2**53)
    return m * u / (1 - m * u)


def _guard_verdict(c):
    """The verdict an algebra keeps on c, after checking its defect and bound against the reference.

    With s* the exact max(1, max P) and gamma the bound above, each term of
    J is at most s*, and each scale is at least (1 - gamma) s*.  The
    residuals of the two sides then differ entrywise by at most 2 gamma 3 s*,
    so the defects by 6 gamma / (1 - gamma) times the reference scale, and
    the scales by 2 gamma / (1 - gamma) times it: max(1, .) narrows a gap.
    A verdict can differ only for a reference defect that close to
    EPS_JACOBI times its scale, and no input here is.
    """
    algebra = LieAlgebra.from_tensor(c)
    n = algebra.dim
    defect, scale = algebra.jacobi_residual, algebra.jacobi_bound / EPS_JACOBI
    try:
        algebra.require_jacobi()
        verdict = True
    except ValidationError:
        verdict = False
    ref_defect = ref_jacobi_defect(algebra.c)
    ref_scale = max(1.0, float(np.max(ref_jacobi_product(np.abs(algebra.c)))))
    gamma = float(guard_rounding_bound(n))
    if np.isnan(ref_defect):
        assert np.isnan(defect) and not verdict
        return verdict
    assert abs(scale - ref_scale) <= 2.0 * gamma / (1.0 - gamma) * ref_scale
    assert abs(defect - ref_defect) <= 6.0 * gamma / (1.0 - gamma) * ref_scale
    margin = (6.0 + 2.0 * EPS_JACOBI) * gamma / (1.0 - gamma) * ref_scale
    assert abs(ref_defect - EPS_JACOBI * ref_scale) > margin
    assert verdict == (ref_defect <= EPS_JACOBI * ref_scale)
    return verdict


def _guard_input(label):
    """(c, lambdas) of the lift frame: the rebased bracket and the eigenvalues it is lifted by."""
    kind, _, arg = label.partition(":")
    if kind == "lift":
        t = _lift_tangent(arg)
        return t.base.c, t.phi_data.lambdas
    if kind == "broken":
        _, broken, lambdas = _broken_bracket(int(arg))
        return broken.c, lambdas
    _, broken, g1, g2 = _h5_spread(int(arg))  # h5
    data = compute_phi(g1, g2)
    return change_basis_constants(broken, data.b1).c, data.lambdas


def _verdict_input(label):
    """The bracket whose verdict ``build_tangent`` reads: the input's, unrebased."""
    kind, _, arg = label.partition(":")
    if kind == "lift":
        return _lift_tangent(arg).input_algebra.c
    if kind == "broken":
        return _broken_bracket(int(arg))[1].c
    if kind == "nan":  # finite constants whose Jacobi terms overflow to NaN
        return 1e200 * _broken_bracket(1)[1].c
    return _h5_spread(int(arg))[1].c


GUARD_INPUTS = (
    [f"lift:{label}" for label in LIFT_CASES]
    + [f"broken:{seed}" for seed in (1, 2, 3)]
    + [f"h5:{seed}" for seed in (0, 1, 2)]
    + ["nan"]
)


@pytest.mark.parametrize("label", GUARD_INPUTS)
def test_lifted_jacobi_guard_matches_its_reference(label):
    with np.errstate(over="ignore", invalid="ignore"):
        verdict = _guard_verdict(_verdict_input(label))
    # every lift case passes; every broken bracket fails
    assert verdict == label.startswith("lift:")


def _rotated_heisenberg(n, rng):
    m = (n - 1) // 2
    c = tensor(n, [(i, m + i, n - 1, 1.0) for i in range(m)])
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return change_basis_constants(LieAlgebra.from_tensor(c), q).c


@pytest.mark.parametrize("spread", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("n", [5, 7])
def test_lifted_jacobi_guard_verdicts_sweep(n, spread):
    rng = np.random.default_rng(1000 * n + int(np.log10(spread)))
    c = _rotated_heisenberg(n, rng)
    lambdas = np.logspace(0, np.log10(spread), n)[rng.permutation(n)]
    g1, g2 = Metric.identity(n), Metric(np.diag(lambdas))
    verdicts = []
    for eps in np.logspace(-14, -3, 12):
        perturbation = rng.standard_normal((n, n, n))
        broken = LieAlgebra.from_tensor(c + eps * (perturbation - perturbation.transpose(1, 0, 2)))
        verdict = _guard_verdict(broken.c)
        # the verdict is on c alone, so the metrics cannot move it
        if verdict:
            build_tangent(broken, g1, g2)
        else:
            with pytest.raises(ValidationError, match="Jacobi identity violated"):
                build_tangent(broken, g1, g2)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("label", GUARD_INPUTS[:-1])
def test_ccv_sum_is_weighted_jacobi_sum(label):
    # [[Ci, Cj], Vk] + cyclic is w[k, h] J[i, j, k, h], w = sqrt(lambda_h / lambda_k):
    # each side is within gamma_{n + 14} times the exact sum of |terms|, and
    # the float sum of |terms| is at least (1 - gamma) times the exact one
    c, lambdas = _guard_input(label)
    n = c.shape[0]
    b = lifted_bracket(c, lambdas)
    b_cv, b_vc = b[n:, :n, :n], b[:n, n:, :n]
    ccv = sum(ref_ccv_terms(c, b_cv, b_vc))
    size = sum(ref_ccv_terms(np.abs(c), np.abs(b_cv), np.abs(b_vc)))
    sl = np.sqrt(lambdas)
    weighted = _jacobi_sum(c) * (sl / sl[:, None])
    gamma = float(guard_rounding_bound(n))
    assert np.all(np.abs(ccv - weighted) <= 2.0 * gamma / (1.0 - gamma) * size)


def test_build_tangent_peak_memory():
    # the input's verdict holds two n^4 arrays at a time: the product and
    # the Jacobi sum J, taken |.| in place.  Beside them live the lifted
    # (2n)^3 bracket and n^3 arrays (c, base c) that stay under one more
    # (2n)^3 = 8 n^3.  The (C, V) block products of an earlier guard on the
    # lifted bracket held 34 MB here.
    n = 25
    rng = np.random.default_rng(n)
    m = (n - 1) // 2
    algebra = LieAlgebra.from_tensor(tensor(n, [(i, m + i, n - 1, 1.0) for i in range(m)]))
    g1, g2 = random_spd_metric(rng, n), random_spd_metric(rng, n)
    tracemalloc.start()
    try:
        build_tangent(algebra, g1, g2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n**4 + 2 * (2 * n) ** 3)


def test_invariant_defects_keep_a_nan():
    t = _lift_tangent("catalog:heisenberg")
    r = np.array(lifted_curvature(t).r)
    r[1, 4, 5, 2] = np.nan  # (V, C, C) -> V, where the formula lands
    r[0, 1, 3, 2] = np.nan  # (V, V, C) -> V, off the formula's block
    riem = CurvatureTensor(r)
    for value in curvature_invariant_defects(t.lifted_mla(), riem).values():
        assert np.isnan(value)
    deviations = curvature_block_deviations(t, riem)
    assert np.isnan(deviations["vcc"]) and np.isnan(deviations["vvc"])
    assert not np.isnan(deviations["ccc"])


def test_block_deviations_report_an_entry_off_the_grading():
    # a tensor built from a full r is cut into the graded blocks, and what
    # it holds off them counts against the formula whose fiber it is in
    t = _lift_tangent("catalog:heisenberg")
    graded = curvature_block_deviations(t, lifted_curvature(t))
    r = np.array(lifted_curvature(t).r)
    r[0, 1, 2, 3] = 0.125  # (V, V, V) -> C; the vvv formula lands in V
    deviations = curvature_block_deviations(t, CurvatureTensor(r))
    assert deviations == {**graded, "vvv": 0.125}


def test_connections_are_derived_once_per_tangent():
    t = _lift_tangent("catalog:solvable_rr2")
    for derive in (lifted_connection_closed_form, lifted_connection_structure_constants):
        conn = derive(t)
        assert derive(t) is conn
        assert not conn.gamma.flags.writeable
    other = _lift_tangent("catalog:solvable_rr2")
    assert lifted_connection_closed_form(other) is not lifted_connection_closed_form(t)


def test_curvature_and_planes_share_one_connection(monkeypatch):
    calls = []

    def counted(mla):
        calls.append(mla)
        return levi_civita(mla)

    monkeypatch.setattr(tangent_lift, "levi_civita", counted)
    t = _lift_tangent("n12:6aff1#1201")
    rng = np.random.default_rng(1204)
    lifted_curvature(t)
    for _ in range(2):
        lifted_sectional(t, *rng.standard_normal((2, 2 * t.dim)))
    assert len(calls) == 2  # nabla1 and nabla2 of the base metrics


@pytest.mark.parametrize("method", ["koszul", "closed", "structconst"])
def test_lift_connection_command_forms_each_connection_once(monkeypatch, method):
    calls = []

    def counted(mla):
        calls.append(mla)
        return levi_civita(mla)

    for module in (metric_geometry, tangent_lift):
        monkeypatch.setattr(module, "levi_civita", counted)
    argv = ["connection", "heisenberg", "--metric", "lift", "--method", method]
    assert run_command(argv) == 0
    assert len(calls) == 3  # nabla1 and nabla2 of the base metrics, and the lift's Koszul


def test_lift_command_loads_its_input_once_and_forms_no_connection(monkeypatch):
    loads, calls = [], []
    load = cli_io.problem_from_dict

    def counted_load(doc, *args):
        loads.append(doc)
        return load(doc, *args)

    def counted(mla):
        calls.append(mla)
        return levi_civita(mla)

    monkeypatch.setattr(cli_io, "problem_from_dict", counted_load)
    for module in (metric_geometry, tangent_lift):
        monkeypatch.setattr(module, "levi_civita", counted)
    assert run_command(["lift", "heisenberg", "--json"]) == 0
    assert (len(loads), len(calls)) == (1, 0)  # the catalog entry; no reload


def _count_jacobi_work(monkeypatch):
    """Count the Jacobi sums J and the term sizes P, for the bound, that lie_core forms."""
    counts = {"J": 0, "P": 0}
    form_sum, form_bound = lie_core._jacobi_sum, LieAlgebra.jacobi_bound.func

    def counted_sum(c):
        counts["J"] += 1
        return form_sum(c)

    def counted_bound(algebra):
        counts["P"] += 1
        return form_bound(algebra)

    bound = functools.cached_property(counted_bound)
    bound.__set_name__(LieAlgebra, "jacobi_bound")
    monkeypatch.setattr(lie_core, "_jacobi_sum", counted_sum)
    monkeypatch.setattr(LieAlgebra, "jacobi_bound", bound)
    return counts


@pytest.mark.parametrize("name", CATALOG)
def test_each_command_forms_the_jacobi_sum_once(monkeypatch, capsys, name):
    # the verdict is formed at load and kept on the problem's one algebra,
    # which build_tangent and check read; only check forms P, for its bound
    counts = _count_jacobi_work(monkeypatch)
    for argv, formed in (
        (["connection", name, "--metric", "lift"], {"J": 1, "P": 0}),
        (["sectional", name, "--plane", "X^v,Y^c"], {"J": 1, "P": 0}),
        (["lift", name], {"J": 1, "P": 0}),
        (["check", name], {"J": 1, "P": 1}),
    ):
        counts.update(J=0, P=0)
        assert run_command(argv) == 0, argv
        assert counts == formed, argv
    capsys.readouterr()


def test_borderline_bracket_gets_one_verdict_from_every_command(tmp_path, capsys):
    # the eps = 1e-10 bracket of the n = 5, spread 1e4 sweep: max|J| =
    # 3.86e-10 under the bound 1e-9.  A guard on the lifted bracket once
    # refused it under these metrics, in the lift commands alone.
    n, spread = 5, 1e4
    rng = np.random.default_rng(1000 * n + int(np.log10(spread)))
    c = _rotated_heisenberg(n, rng)
    lambdas = np.logspace(0, np.log10(spread), n)[rng.permutation(n)]
    for eps in np.logspace(-14, -10, 5):  # the sweep's draws up to eps = 1e-10
        perturbation = rng.standard_normal((n, n, n))
    broken = LieAlgebra.from_tensor(c + eps * (perturbation - perturbation.transpose(1, 0, 2)))
    assert 3e-10 < jacobi_defect(broken) < EPS_JACOBI
    doc = {
        "schema": "tanglie/1",
        "dim": n,
        "brackets": [
            {"i": int(i), "j": int(j), "k": int(k), "value": float(broken.c[i, j, k])}
            for i, j, k in np.argwhere(broken.c)
            if i < j
        ],
        "metrics": {"g1": np.eye(n).tolist(), "g2": np.diag(lambdas).tolist()},
    }
    path = tmp_path / "borderline.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["check", str(path)],
        ["field", str(path), "--vector", "X1"],
        ["connection", str(path), "--metric", "g2"],
        ["connection", str(path), "--metric", "lift"],
        ["sectional", str(path), "--plane", "X1^v,X2^c"],
    ):
        assert run_command(argv) == 0, argv
    capsys.readouterr()
