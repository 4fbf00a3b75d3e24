"""Pairwise contractions against the multi-operand einsums they replaced.

The library contracts one tensor slot at a time by matrix products.  The
einsum expressions below are the earlier implementations, kept verbatim as
references, and every pairwise result must match its reference within
1e-12 * max|ref|.  The inputs are the catalog, seeded metric pairs on
algebras of dimension 4 and 6 with non-diagonal automorphisms, the three
graded algebras of dimension 11 with seeded dilations, and a Heisenberg
automorphism with entries in the hundreds.
"""

import itertools

import numpy as np
import pytest

from tanglie.cli_io import catalog_algebra
from tanglie.errors import PreconditionViolated
from tanglie.lie_core import (
    LieAlgebra,
    Metric,
    _pull_back,
    change_basis_constants,
    is_automorphism,
    jacobi_defect,
    pullback_metric,
)
from tanglie.metric_geometry import (
    MetricLieAlgebra,
    _basis_sectionals,
    _lowered_double_bracket,
    curvature,
    curvature_invariant_defects,
    equivariance_defect,
    levi_civita,
    random_spd_metric,
    sectional,
)

from conftest import CATALOG

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


def ref_curvature(c, gamma):
    t1 = np.einsum("jkm,imh->ijkh", gamma, gamma)
    t3 = np.einsum("ijm,mkh->ijkh", c, gamma)
    return t1 - t1.transpose(1, 0, 2, 3) - t3


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
