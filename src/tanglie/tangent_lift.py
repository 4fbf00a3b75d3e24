"""Tangent Lie algebra of a metric pair and its lifted geometry.

Given an algebra with two inner products g1, g2, the symmetric map
``phi = g1^{-1} g2`` has a g1-orthonormal eigenbasis B1 with positive
eigenvalues ``lambda_i``.  The double-dimension tangent algebra is spanned
by normalized vertical lifts together with complete lifts,

    basis index i       (0 <= i < n):   X_i^v / sqrt(lambda_i),
    basis index n + i   (0 <= i < n):   X_i^c,

with X_i running over B1.  In B1 the base metrics are g1 = I and
g2 = diag(lambda) by definition, and the library stores them that way,
never as the congruences B1^T g B1, so the metrics carry no rounding
beyond the eigen-solve that finds B1.  In this frame the lifted metric

    gt(X^c, Y^c) = g1(X, Y),  gt(X^v, Y^v) = g2(X, Y),  gt(X^c, Y^v) = 0

is exactly the identity matrix, and the lifted brackets are carried by
lambda-weighted copies of the base structure constants:

    [vertical, vertical] = 0,
    [X_i^c, X_j^v/sqrt(lambda_j)] = sum_k sqrt(lambda_k/lambda_j) c_ijk
                                    X_k^v/sqrt(lambda_k),
    [complete, complete]          = complete copy of the base bracket.

The lift is Z2-graded (vertical odd, complete even, [V, V] = 0), so its
Jacobi identity leaves two cyclic classes: (C, C, C) -> C, which is c's
own Jacobi sum J, and (C, C, V) -> V.  The raw sum of (X_i^c, X_j^c, X_k^v)
is the vertical lift of c's and V_k = X_k^v / sqrt(lambda_k), so the latter
is sqrt(lambda_h / lambda_k) J[i, j, k, h] at V_h.  The lift is a Lie
algebra exactly when the base is, and :func:`build_tangent` checks J alone.

Production path: :func:`build_tangent`, then the closed-form connection
:func:`lifted_connection_closed_form`, from which :func:`lifted_curvature`
and :func:`lifted_sectional` work.  The lifted metric is the identity in
the normalized frame, so the paper's lambda-weighted Christoffel sums are
the Koszul formula on the lifted bracket, and
:func:`lifted_connection_structure_constants` forms them by
:func:`~tanglie.metric_geometry.levi_civita`.  The paper's formulas built
on them (:func:`structure_constant_curvature_blocks`,
:func:`curvature_block_deviations`, :func:`lifted_sectional_closed_forms`)
are kept for checking and for ``--compare``.  Each term of the six
curvature blocks sums over one index and is formed as one (n^2, n) x
(n, n^2) matrix product.  A tangent is immutable, so each of the two
connections, the closed form and the Koszul one, is derived once per
tangent and every later call returns the same object; the Koszul and the
structure-constant routes are that one Koszul connection.  The tests
check each route against the Koszul formula in the raw lift basis of the
benchmark's checker, which solves no eigenproblem and imports nothing
from this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, NonPositiveDefinite, ValidationError
from .lie_core import (
    CHECK_TOL,
    EPS_JACOBI,
    LieAlgebra,
    Metric,
    _jacobi_sum,
    bracket,
    change_basis_constants,
)
from .metric_geometry import (
    Connection,
    CurvatureTensor,
    MetricLieAlgebra,
    bi_invariance_defect,
    curvature,
    levi_civita,
    sectional,
    sectional_quotient,
)


# ---------------------------------------------------------------------------
# Eigenstructure of the metric pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiData:
    """Eigendata of the symmetric intertwiner ``phi = g1^{-1} g2``.

    ``b1`` holds the g1-orthonormal eigenvectors as columns, ordered by
    ascending eigenvalue ``lambdas``.  In that frame phi is diag(lambdas),
    g1 is the identity and g2 is diag(lambdas), exactly and by definition.
    """

    lambdas: np.ndarray
    b1: np.ndarray = field(repr=False)

    @property
    def sqrt_lambdas(self) -> np.ndarray:
        return np.sqrt(self.lambdas)


CLUSTER_TOL = 1e-8  # relative eigenvalue gap within one eigenspace
DROP_TOL = 1e-10  # g1-norm of a projection that adds nothing to an eigenspace


def compute_phi(g1: Metric, g2: Metric) -> PhiData:
    """Solve g2 v = lambda g1 v and return a canonical eigenbasis.

    Cholesky whitening of g1 = L L^T reduces this to the ordinary
    eigenproblem of L^-1 g2 L^-T.  Eigenvalues come back ascending;
    neighbours whose gap is at most ``CLUSTER_TOL`` times the larger one
    form a cluster, whose eigenvectors are re-fixed deterministically:
    Gram-Schmidt with respect to g1 applied to the projections of the
    input basis vectors, taken in input order, discarding projections of
    g1-norm below ``DROP_TOL``.
    """
    if g1.dim != g2.dim:
        raise InvalidDimension(f"metric dims {g1.dim} and {g2.dim} differ")
    n = g1.dim
    chol = np.linalg.cholesky(g1.g)
    white = np.linalg.solve(chol, np.linalg.solve(chol, g2.g).T)
    lam, w = np.linalg.eigh(0.5 * (white + white.T))
    vecs = np.linalg.solve(chol.T, w)
    if lam[0] <= 0:
        raise NonPositiveDefinite("metric pair produced a non-positive eigenvalue")

    b1 = np.empty((n, n))
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and lam[stop] - lam[stop - 1] <= CLUSTER_TOL * lam[stop]:
            stop += 1
        v = vecs[:, start:stop]
        proj = v @ (v.T @ g1.g)  # g1-orthogonal projector onto the eigenspace
        cols: list[np.ndarray] = []
        for j in range(n):
            p = proj[:, j].copy()
            for q in cols:
                p -= (q @ g1.g @ p) * q
            norm = float(np.sqrt(max(p @ g1.g @ p, 0.0)))
            if norm < DROP_TOL:
                continue
            cols.append(p / norm)
            if len(cols) == stop - start:
                break
        if len(cols) != stop - start:
            raise ValidationError("could not span an eigenspace of the metric pair")
        b1[:, start:stop] = np.column_stack(cols)
        start = stop

    return PhiData(lambdas=lam.copy(), b1=b1)


def _eigenbasis_labels(b1: np.ndarray, labels: tuple[str, ...]) -> tuple[str, ...]:
    """Reuse input labels when the eigenbasis is a plain permutation, within 1e-9."""
    n = b1.shape[0]
    out = []
    for col in b1.T:
        idx = int(np.argmax(np.abs(col)))
        unit = np.zeros(n)
        unit[idx] = 1.0
        if np.max(np.abs(col - unit)) > 1e-9:
            break
        out.append(labels[idx])
    if len(out) == n and len(set(out)) == n:
        return tuple(out)
    return tuple(f"E{i + 1}" for i in range(n))


# ---------------------------------------------------------------------------
# The tangent algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentLieAlgebra:
    """Double-dimension algebra of lifted fields with its block metric.

    ``base`` is the input algebra re-expressed in the eigenbasis B1;
    ``base_g1``/``base_g2`` are the inner products in that basis, the
    identity and diag(lambda) exactly, by the definition of B1.  ``lifted``
    carries the bracket of the normalized lift basis described in the
    module docstring, in which ``lifted_metric`` is the identity.  The original input data is kept
    for conversions and reporting.
    """

    input_algebra: LieAlgebra
    input_g1: Metric
    input_g2: Metric
    phi_data: PhiData
    base: LieAlgebra
    base_g1: Metric
    base_g2: Metric
    lifted: LieAlgebra
    lifted_metric: Metric

    @property
    def dim(self) -> int:
        """Dimension of the base algebra (the lift has twice this)."""
        return self.base.dim

    def lifted_mla(self) -> MetricLieAlgebra:
        return MetricLieAlgebra(self.lifted, self.lifted_metric)

    def base_mla1(self) -> MetricLieAlgebra:
        return MetricLieAlgebra(self.base, self.base_g1)

    def base_mla2(self) -> MetricLieAlgebra:
        return MetricLieAlgebra(self.base, self.base_g2)


def _lift_labels(labels: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{l}^v" for l in labels) + tuple(f"{l}^c" for l in labels)


def build_tangent(algebra: LieAlgebra, g1: Metric, g2: Metric) -> TangentLieAlgebra:
    """Assemble the tangent algebra of (algebra, g1, g2)."""
    if algebra.dim != g1.dim or algebra.dim != g2.dim:
        raise InvalidDimension("algebra and metrics must share one dimension")
    n = algebra.dim
    phi_data = compute_phi(g1, g2)
    b1 = phi_data.b1
    base = change_basis_constants(
        algebra, b1, _eigenbasis_labels(b1, algebra.basis_labels)
    )

    sl = phi_data.sqrt_lambdas
    lifted = LieAlgebra.from_tensor(_lifted_bracket(base.c, sl), _lift_labels(base.basis_labels))
    for defect, scale in _lifted_jacobi_defects(base.c, sl):
        if not defect <= EPS_JACOBI * scale:
            raise ValidationError(f"lifted bracket violates Jacobi: defect {defect:.3e}")

    return TangentLieAlgebra(
        input_algebra=algebra,
        input_g1=g1,
        input_g2=g2,
        phi_data=phi_data,
        base=base,
        base_g1=Metric.identity(n),
        base_g2=Metric(np.diag(phi_data.lambdas)),
        lifted=lifted,
        lifted_metric=Metric.identity(2 * n),
    )


def _lifted_bracket(c: np.ndarray, sl: np.ndarray) -> np.ndarray:
    """Lifted bracket tensor in the basis {X_i^v / sl_i, X_i^c}; sl = 1 is the raw basis."""
    n = c.shape[0]
    isl = 1.0 / sl
    b = np.zeros((2 * n, 2 * n, 2 * n))
    # vertical-vertical block stays zero
    b[:n, n:, :n] = np.einsum("k,i,ijk->ijk", sl, isl, c)  # [X_i^v~, X_j^c]
    b[n:, :n, :n] = np.einsum("k,j,ijk->ijk", sl, isl, c)  # [X_i^c, X_j^v~]
    b[n:, n:, n:] = c  # complete copy of the base bracket
    return b


def _lifted_jacobi_defects(c: np.ndarray, sl: np.ndarray) -> list[tuple[float, float]]:
    """(max-abs residual, rounding scale) of each lifted Jacobi sum left.

    c is the base bracket, sl = sqrt(lambda).  The sums are (C, C, C) -> C,
    c's own Jacobi sum J, and (C, C, V) -> V, in which a bracket with a
    vertical argument weighs c by sqrt(lambda_out / lambda_in).  Along a
    term those weights telescope to w[k, h] = sqrt(lambda_h / lambda_k), so
    that sum at (i, j, k; h) is w[k, h] J[i, j, k, h].  A sum's scale is
    max(1, its largest term) from P = |c| @ |c|: P for (C, C, C), and for
    (C, C, V), whose vertical argument may take any slot, P[a, b, d, h]
    sqrt(lambda_h / min(lambda_a, lambda_b, lambda_d)).  A scale shared
    with those weights would let a broken c pass in the (C, C, C) sum.
    """
    n = c.shape[0]
    isl = 1.0 / sl
    jac = np.abs(_jacobi_sum(c)).reshape(n * n, n, n).max(axis=0)  # max over (i, j)
    mag = (np.abs(c).reshape(n * n, n) @ np.abs(c).reshape(n, n * n)).reshape(n**3, n)
    worst = np.maximum.outer(np.maximum.outer(isl, isl), isl).reshape(n**3, 1)
    ccc = (jac.max(), mag.max())
    ccv = ((jac * isl[:, None] * sl).max(), ((mag * worst).max(axis=0) * sl).max())
    return [(float(defect), max(1.0, float(scale))) for defect, scale in (ccc, ccv)]


def tangent_algebra_unnormalized(algebra: LieAlgebra) -> LieAlgebra:
    """Lifted bracket in the raw basis {X_i^v, X_i^c} of the input basis."""
    return LieAlgebra.from_tensor(
        _lifted_bracket(algebra.c, np.ones(algebra.dim)), _lift_labels(algebra.basis_labels)
    )


# ---------------------------------------------------------------------------
# Lifted vectors
# ---------------------------------------------------------------------------


def complete_lift(t: TangentLieAlgebra, x) -> np.ndarray:
    """Coefficients of X^c in the normalized lift basis; x in input coordinates."""
    a = np.linalg.solve(t.phi_data.b1, t.input_algebra.vector(x))
    u = np.zeros(2 * t.dim)
    u[t.dim :] = a
    return u


def vertical_lift(t: TangentLieAlgebra, x) -> np.ndarray:
    """Coefficients of the raw vertical lift X^v in the normalized basis.

    X^v expands as sum_i a_i sqrt(lambda_i) (X_i^v / sqrt(lambda_i)), so
    the stored components carry the sqrt(lambda) weights.
    """
    a = np.linalg.solve(t.phi_data.b1, t.input_algebra.vector(x))
    u = np.zeros(2 * t.dim)
    u[: t.dim] = a * t.phi_data.sqrt_lambdas
    return u


def lift_components(t: TangentLieAlgebra, u) -> tuple[np.ndarray, np.ndarray]:
    """Unique (x, y) with u = x^c + y^v, both in input coordinates."""
    u = t.lifted.vector(u)
    n = t.dim
    x = t.phi_data.b1 @ u[n:]
    y = t.phi_data.b1 @ (u[:n] / t.phi_data.sqrt_lambdas)
    return x, y


# ---------------------------------------------------------------------------
# Lifted Levi-Civita connection: the closed form and the Koszul sums
# ---------------------------------------------------------------------------


def _once_per_tangent(derive):
    """Derive a connection once per tangent and return that object on every call.

    A tangent is frozen and its arrays, the connection's included, are
    read-only, so the result is kept in the tangent's ``__dict__``, as
    ``functools.cached_property`` keeps its value.
    """
    key = f"_{derive.__name__}"

    @functools.wraps(derive)
    def once(t: TangentLieAlgebra):
        cache = vars(t)
        if key not in cache:
            cache[key] = derive(t)
        return cache[key]

    return once


@_once_per_tangent
def lifted_connection_closed_form(t: TangentLieAlgebra) -> Connection:
    """Christoffel tensor of the lifted metric from the four block formulas.

        nabla_{X^c} Y^c = (nabla1_X Y)^c
        nabla_{X^c} Y^v = (nabla2_X Y + 1/2 adstar2(Y) X)^v
        nabla_{X^v} Y^c = (nabla2_X Y + 1/2 adstar2(X) Y)^v
        nabla_{X^v} Y^v = (phi(nabla2_X Y - 1/2 [X, Y]))^c

    with adstar2 the g2-adjoint of ad and nabla1, nabla2 the base
    Levi-Civita connections of g1 and g2.  Inputs and output are expressed
    in the eigenbasis / normalized lift basis.
    """
    n = t.dim
    conn1 = levi_civita(t.base_mla1())
    conn2 = levi_civita(t.base_mla2())
    sl = t.phi_data.sqrt_lambdas
    isl = 1.0 / sl
    c = t.base.c
    lam = t.phi_data.lambdas
    # adstar[j, k, i] = k-component of adstar2(X_j) applied to X_i: the
    # product g2^{-1} ad(X_j)^T g2 with g2 = diag(lambda), rounded in that order
    adstar = ((1.0 / lam)[None, :, None] * c) * lam[None, None, :]

    gamma = np.zeros((2 * n, 2 * n, 2 * n))
    gamma[n:, n:, n:] = conn1.gamma
    w_cv = conn2.gamma + 0.5 * adstar.transpose(2, 0, 1)  # adstar[j, k, i] at [i, j, k]
    gamma[n:, :n, :n] = np.einsum("k,j,ijk->ijk", sl, isl, w_cv)
    w_vc = conn2.gamma + 0.5 * adstar.transpose(0, 2, 1)  # adstar[i, k, j] at [i, j, k]
    gamma[:n, n:, :n] = np.einsum("k,i,ijk->ijk", sl, isl, w_vc)
    w_vv = lam * (conn2.gamma - 0.5 * c)  # phi = diag(lambda) on the output slot
    gamma[:n, :n, n:] = np.einsum("i,j,ijk->ijk", isl, isl, w_vv)
    return Connection(gamma)


@_once_per_tangent
def lifted_connection_structure_constants(t: TangentLieAlgebra) -> Connection:
    """Same Christoffel tensor from the lambda-weighted bracket sums.

    The paper gives the connection as four explicit sums over the base
    structure constants and eigenvalues, without base connections:

        nabla_{Vi} Vj = 1/2 sum_l (r_ji c_li^j - r_ij c_jl^i) X_l^c
        nabla_{Ci} Cj = 1/2 sum_l (c_ij^l - c_jl^i + c_li^j) X_l^c
        nabla_{Ci} Vj = 1/2 sum_l (r_lj c_ij^l + r_jl c_li^j) Vl
        nabla_{Vi} Cj = 1/2 sum_l (r_li c_ij^l - r_il c_jl^i) Vl

    where Vi, Ci are the normalized vertical and complete basis fields and
    r_ab = sqrt(lambda_a / lambda_b).  The lifted metric is the identity in
    that frame, so these sums are the Koszul formula
    1/2 (b_ijk - b_jki + b_kij) on the lifted bracket b, term for term and
    in the same order, and the connection is :func:`levi_civita` of the
    lifted metric Lie algebra.
    """
    return levi_civita(t.lifted_mla())


# ---------------------------------------------------------------------------
# Lifted curvature
# ---------------------------------------------------------------------------


def lifted_curvature(t: TangentLieAlgebra) -> CurvatureTensor:
    """Curvature of the lifted metric, from the closed-form lifted connection."""
    return curvature(t.lifted_mla(), lifted_connection_closed_form(t))


def structure_constant_curvature_blocks(
    t: TangentLieAlgebra,
) -> dict[str, np.ndarray]:
    """Six expanded curvature blocks in terms of base structure constants.

    Keys name the lift types of the three arguments ("v" vertical
    normalized, "c" complete); values are (n, n, n, n) coefficient arrays
    on the single output block each formula produces (complete for
    "ccc", "vvc", "vcv"; vertical for "ccv", "vcc", "vvv").  The "vvc"
    and "vcv" expansions are kept in their original form even though two
    of their lambda-ratio prefactors are inconsistent with the bracket
    tables; they exist for deviation reporting, never as a source of
    truth.  Each term is a sum over one index l, formed as one
    (n^2, n) x (n, n^2) matrix product; a term that is another with i and
    j exchanged is read off that product transposed.
    """
    n = t.dim
    c = t.base.c
    sl = t.phi_data.sqrt_lambdas
    isl = 1.0 / sl

    def outer(x, y):  # sum_l x[j,k,l] y[i,l,h] at [i,j,k,h]
        prod = x.reshape(n * n, n) @ y.transpose(1, 0, 2).reshape(n, n * n)
        return prod.reshape((n,) * 4).transpose(2, 0, 1, 3)

    def inner(x, y):  # sum_l x[i,j,l] y[l,k,h] at [i,j,k,h]
        return (x.reshape(n * n, n) @ y.reshape(n, n * n)).reshape((n,) * 4)

    def swap(x):  # exchange i and j
        return x.transpose(1, 0, 2, 3)

    def skew(x):  # x[i,j,k,h] - x[j,i,k,h]
        return x - swap(x)

    # 2x the Christoffel patterns of the four connection block sums
    gamma2 = 2.0 * lifted_connection_structure_constants(t).gamma
    p = gamma2[n:, n:, n:]  # cc -> c
    a = gamma2[n:, :n, :n]  # cv -> v
    v = gamma2[:n, n:, :n]  # vc -> v
    w = gamma2[:n, :n, n:]  # vv -> c
    brv = t.lifted.c[:n, n:, :n]  # [Vi, Cj] coefficients
    # g1f[j,k,l]: first factor of vvc, with the original r_lk prefactor
    # where the bracket table would give r_lj; a5: first factor of vcv,
    # with the original r_lj where the table would give r_lk
    g1f = (sl * isl[:, None]) * c - (sl[:, None, None] * isl) * c.transpose(2, 0, 1)
    a5 = (sl * isl[:, None, None]) * c + (sl[:, None] * isl) * c.transpose(1, 2, 0)
    return {
        "ccc": 0.25 * (skew(outer(p, p)) - 2.0 * inner(c, p)),
        "ccv": 0.25 * (skew(outer(a, a)) - 2.0 * inner(c, a)),
        "vcc": 0.25 * (outer(p, v) - swap(outer(v, a)) - 2.0 * inner(brv, v)),
        "vvc": 0.25 * (outer(g1f, w) - swap(outer(v, w))),
        # sqrt(lambda_k / lambda_i) c[i,j,l] w[l,k,h], the weights folded into the factors
        "vcv": 0.25 * (
            outer(a5, w)
            - swap(outer(w, p))
            - 2.0 * inner(isl[:, None, None] * c, sl[:, None] * w)
        ),
        "vvv": 0.25 * skew(outer(w, v)),
    }


def curvature_block_deviations(
    t: TangentLieAlgebra, riem: CurvatureTensor
) -> dict[str, float]:
    """Max deviation of each expanded curvature block from the oracle tensor.

    The formulas claim the output lies in a single lift block; each
    deviation therefore compares against the full output fiber, treating
    the complementary block as zero.
    """
    n = t.dim
    sl_of = {"v": slice(0, n), "c": slice(n, 2 * n)}
    blocks = structure_constant_curvature_blocks(t)
    out = {}
    for key, formula in blocks.items():
        s1, s2, s3 = (sl_of[ch] for ch in key)
        # vertical lifts are odd and complete lifts even in the grading R
        # preserves, so an odd number of vertical arguments lands vertical
        land, other = ("v", "c") if key.count("v") % 2 else ("c", "v")
        fiber = riem.r[s1, s2, s3]
        miss = np.max(np.abs(fiber[..., sl_of[land]] - formula))
        out[key] = float(np.maximum(miss, np.max(np.abs(fiber[..., sl_of[other]]))))
    return out


# ---------------------------------------------------------------------------
# Lifted sectional curvature
# ---------------------------------------------------------------------------


def lifted_sectional(
    t: TangentLieAlgebra, u, v, riem: CurvatureTensor | None = None
) -> float:
    """Sectional curvature of the plane spanned by two lifted vectors.

    Without ``riem`` only R(u, v)v is formed, from the closed-form
    connection: nabla_u nabla_v v - nabla_v nabla_u v - nabla_[u,v] v.
    """
    if riem is not None:
        return sectional(t.lifted_mla(), riem, u, v)
    u = t.lifted.vector(u)
    v = t.lifted.vector(v)
    nabla = lifted_connection_closed_form(t).apply
    ruvv = (
        nabla(u, nabla(v, v))
        - nabla(v, nabla(u, v))
        - nabla(bracket(t.lifted, u, v), v)
    )
    return sectional_quotient(t.lifted_metric, u, v, ruvv)


def lifted_sectional_closed_forms(t: TangentLieAlgebra) -> dict[str, np.ndarray]:
    """Basis-pair sectional curvatures from the lambda-weighted sums.

    Returns (n, n) arrays for the three pure-lift pair types:
    "cc" K(X_i^c, X_j^c) (equal to the base g1 sectional curvature),
    "vv" K(Vi, Vj), and "vc" K(Vi, X_j^c).  The cc and vv diagonals are
    degenerate planes and set to zero; the vc diagonal is the plane
    (Vi, X_i^c).
    """
    n = t.dim
    c = t.base.c
    lam = t.phi_data.lambdas
    gamma2 = 2.0 * lifted_connection_structure_constants(t).gamma

    cross = np.einsum("ljj,lii->ij", c, c)
    p1 = gamma2[n:, n:, n:]
    q1 = np.einsum("jli->ijl", c) - np.einsum("lij->ijl", c) + c
    r1 = (
        np.einsum("lji->ijl", c)
        - np.einsum("jil->ijl", c)
        + np.einsum("ilj->ijl", c)
    )
    cc = 0.25 * (
        -4.0 * cross
        - np.einsum("ijl,ijl->ij", p1, q1)
        - 2.0 * np.einsum("ijl,ijl->ij", c, r1)
    )

    mixed = gamma2[:n, :n, n:]
    vv = 0.25 * (np.einsum("ijl,ijl->ij", mixed, mixed) - 4.0 * cross)

    ratio = lam[:, None] / lam[None, :]  # ratio[a, b] = lambda_a / lambda_b
    vc = 0.25 * (
        np.einsum("il,jli->ij", ratio, c**2)
        - 3.0 * np.einsum("li,ijl->ij", ratio, c**2)
        - 2.0 * np.einsum("ijl,lji->ij", c, c)
        - 4.0 * cross
    )

    for m in (cc, vv):
        np.fill_diagonal(m, 0.0)
    return {"cc": cc, "vv": vv, "vc": vc}


# ---------------------------------------------------------------------------
# Bi-invariance of the lift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftBiInvariance:
    lift_satisfies_oneill: bool


def bi_invariance_of_lift(t: TangentLieAlgebra) -> LiftBiInvariance:
    """Ad-invariance of the lifted metric, judged at ``CHECK_TOL``.

    The lift is bi-invariant iff the base is abelian.  The lifted metric is
    I in the normalized frame and [V, V] = 0, so with A = V_i, B = V_j and
    C = X_k^c the residual gt(A, [B, C]) - gt([A, B], C) is
    sqrt(lambda_i / lambda_j) c_jki; all of them vanish only when c = 0,
    and then the lifted bracket is zero.  The paper's sufficient condition
    (g1 ad-invariant and g2([Z, [X, Y]], W) = 0) thus holds only on abelian
    bases: its second half makes the base 2-step nilpotent, and then
    g1([X, Y], [X, Y]) = g1(X, [Y, [X, Y]]) = 0.  The one field keeps the
    name ``lift_satisfies_oneill`` because the benchmark reads it.
    """
    return LiftBiInvariance(bi_invariance_defect(t.lifted_mla()) <= CHECK_TOL)


def lift_automorphism(tau1, tau2) -> np.ndarray:
    """Block-diagonal lift of two base maps, tau2 on the vertical block.

    Acts in the raw basis {X_i^v, X_i^c} of the input basis.  The
    pullback identity blockdiag(tau2, tau1)^T blockdiag(g2, g1)
    blockdiag(tau2, tau1) = blockdiag(tau2^T g2 tau2, tau1^T g1 tau1)
    holds for any pair; the lift is itself a bracket automorphism when
    the two maps coincide on the adjoint action (in particular when
    tau1 = tau2 is an automorphism).
    """
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    if tau1.shape != tau2.shape or tau1.ndim != 2 or tau1.shape[0] != tau1.shape[1]:
        raise InvalidDimension("both maps must be square of the same size")
    n = tau1.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = tau2
    out[n:, n:] = tau1
    return out
