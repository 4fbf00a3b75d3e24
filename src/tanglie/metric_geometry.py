"""Levi-Civita connection, curvature, and metric diagnostics on a Lie algebra.

Everything here works for an arbitrary metric Lie algebra and serves as the
generic oracle: all data is left-invariant, so the derivative terms of the
Koszul formula vanish and the connection is determined by brackets alone,

    2 g(nabla_{X_i} X_j, X_k)
        = g([X_i, X_j], X_k) - g([X_j, X_k], X_i) + g([X_k, X_i], X_j).

The curvature sign convention is
R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X, Y] Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePlane, InvalidDimension, PreconditionViolated
from .lie_core import (
    CHECK_TOL,
    EPS_PD,
    LieAlgebra,
    Metric,
    _pull_back,
    ad_matrix,
    is_automorphism,
    pullback_metric,
)


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra together with an inner product on it."""

    algebra: LieAlgebra
    metric: Metric

    def __post_init__(self):
        if self.algebra.dim != self.metric.dim:
            raise InvalidDimension(
                f"algebra dim {self.algebra.dim} != metric dim {self.metric.dim}"
            )

    @property
    def dim(self) -> int:
        return self.algebra.dim


@dataclass(frozen=True)
class Connection:
    """Christoffel tensor: gamma[i, j, k] = coefficient of X_k in nabla_{X_i} X_j."""

    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.ascontiguousarray(self.gamma, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def apply(self, x, y) -> np.ndarray:
        """Coefficients of nabla_x y."""
        # one-slot orders put solvable_rr2's (Y^c, Y^v) sectional 2.67 ulp off exact
        return np.einsum("i,j,ijk->k", x, y, self.gamma)


@dataclass(frozen=True)
class CurvatureTensor:
    """r[i, j, k, h] = coefficient of X_h in R(X_i, X_j) X_k."""

    r: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.ascontiguousarray(self.r, dtype=float)
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return self.r.shape[0]

    def apply(self, x, y, z) -> np.ndarray:
        """Coefficients of R(x, y) z, contracting one slot at a time."""
        n = self.dim
        rx = (x @ self.r.reshape(n, -1)).reshape(n, -1)  # R(x, e_j) e_k
        return z @ (y @ rx).reshape(n, n)


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


def levi_civita(mla: MetricLieAlgebra) -> Connection:
    """Levi-Civita connection from the bracket-only Koszul formula."""
    c, g, n = mla.algebra.c, mla.metric.g, mla.dim
    gb = (c.reshape(-1, n) @ g).reshape(c.shape)  # g([X_i, X_j], X_k)
    # gb.transpose(2,0,1)[i,j,k] = g([X_j, X_k], X_i); (1,2,0) gives g([X_k, X_i], X_j)
    k = 0.5 * (gb - gb.transpose(2, 0, 1) + gb.transpose(1, 2, 0))
    return Connection((k.reshape(-1, n) @ mla.metric.inv()).reshape(c.shape))


def torsion_defect(mla: MetricLieAlgebra, conn: Connection) -> float:
    """Max-abs residual of gamma[i,j,:] - gamma[j,i,:] = c[i,j,:]."""
    gamma = conn.gamma
    return float(np.max(np.abs(gamma - gamma.transpose(1, 0, 2) - mla.algebra.c)))


def compatibility_defect(mla: MetricLieAlgebra, conn: Connection) -> float:
    """Max-abs residual of g(nabla_i X_j, X_k) + g(X_j, nabla_i X_k) = 0."""
    low = np.einsum("ijm,mk->ijk", conn.gamma, mla.metric.g)
    return float(np.max(np.abs(low + low.transpose(0, 2, 1))))


def curvature(mla: MetricLieAlgebra, conn: Connection) -> CurvatureTensor:
    """Curvature tensor of a torsion-free metric connection."""
    gamma, n = conn.gamma, conn.dim
    # t1[i, j, k, h] = nabla_i nabla_j X_k, as the product (jk, m) x (m, ih)
    prod = gamma.reshape(n * n, n) @ gamma.transpose(1, 0, 2).reshape(n, n * n)
    t1 = prod.reshape((n,) * 4).transpose(2, 0, 1, 3)
    r = t1 - t1.transpose(1, 0, 2, 3)
    # nabla_[X_i, X_j] X_k, formed in the buffer t1 no longer needs
    np.matmul(mla.algebra.c.reshape(n * n, n), gamma.reshape(n, n * n), out=prod)
    r -= prod.reshape((n,) * 4)
    return CurvatureTensor(r)


def curvature_invariant_defects(
    mla: MetricLieAlgebra, riem: CurvatureTensor
) -> dict[str, float]:
    """Residuals of antisymmetry, first Bianchi, and pair symmetry.

    Each residual is formed in one buffer and reduced there, so besides R
    at most two tensors of its size live at once; np.max keeps a NaN in R
    visible.
    """
    r, n = riem.r, riem.dim
    buf = r + r.transpose(1, 0, 2, 3)
    antisymmetry = float(np.max(np.abs(buf, out=buf)))
    np.add(r, r.transpose(1, 2, 0, 3), out=buf)
    buf += r.transpose(2, 0, 1, 3)
    first_bianchi = float(np.max(np.abs(buf, out=buf)))
    low = (r.reshape(-1, n) @ mla.metric.g).reshape(r.shape)  # g(R(X_i,X_j)X_k, X_h)
    np.subtract(low, low.transpose(2, 3, 0, 1), out=buf)
    return {
        "antisymmetry": antisymmetry,
        "first_bianchi": first_bianchi,
        "pair_symmetry": float(np.max(np.abs(buf, out=buf))),
    }


def _plane_quotients(num, gram, floor):
    """num / gram, refusing every plane that sectional curvature cannot judge.

    Raises PreconditionViolated when a Gram determinant or a numerator is
    not finite, and DegeneratePlane when a Gram determinant is not above
    its floor; a silent zero or NaN would mask user mistakes.
    """
    num, gram = np.asarray(num), np.asarray(gram)
    floor = np.broadcast_to(floor, gram.shape)
    bad = ~(np.isfinite(gram) & np.isfinite(num))
    if bad.any():
        raise PreconditionViolated(
            f"plane out of floating-point range: Gram determinant {gram[bad][0]:.3e}"
        )
    thin = gram <= floor
    if thin.any():
        k = np.argmax(thin)
        raise DegeneratePlane(
            f"Gram determinant {gram.flat[k]:.3e} not above {floor.flat[k]:.1e}"
        )
    with np.errstate(over="ignore"):  # as float division: a finite plane may give inf
        return num / gram


def sectional_quotient(metric: Metric, x, y, rxyy) -> float:
    """g(R(x, y)y, x) over the Gram determinant of (x, y), given R(x, y)y.

    Raises DegeneratePlane when the Gram determinant is not above EPS_PD,
    and PreconditionViolated when it or g(R(x, y)y, x) is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        gram = metric.inner(x, x) * metric.inner(y, y) - metric.inner(x, y) ** 2
        num = metric.inner(rxyy, x)
    return float(_plane_quotients(num, gram, EPS_PD))


def _basis_sectionals(r: np.ndarray, lower: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sectional curvatures of all basis planes (e_i, e_j), i < j, at once.

    g is the Gram matrix of the e_i, and g(R(e_i, e_j) e_k, e_l) is
    ``r[i, j, k, :] @ lower[:, l]``; the plane's value is
    g(R(e_i, e_j) e_j, e_i) / (g_ii g_jj - g_ij^2).  A basis plane of a
    positive-definite metric can only be degenerate through the angle of
    e_i and e_j, so it is refused when sin^2 of that angle is at most
    EPS_PD, a floor of EPS_PD g_ii g_jj that ignores the metric's scale.
    """
    iu, ju = np.triu_indices(g.shape[0], 1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        num = np.sum(r[iu, ju, ju] * lower[:, iu].T, axis=1)
        gii_gjj = g[iu, iu] * g[ju, ju]
        gram = gii_gjj - g[iu, ju] ** 2
    return _plane_quotients(num, gram, EPS_PD * gii_gjj)


def sectional(mla: MetricLieAlgebra, riem: CurvatureTensor, x, y) -> float:
    """Sectional curvature of the plane spanned by x and y."""
    x = mla.algebra.vector(x)
    y = mla.algebra.vector(y)
    return sectional_quotient(mla.metric, x, y, riem.apply(x, y, y))


# ---------------------------------------------------------------------------
# Bi-invariance and canonical-connection diagnostics
# ---------------------------------------------------------------------------


def bi_invariance_defect(mla: MetricLieAlgebra) -> float:
    """Max over basis triples of |g(X_i, [X_j, X_k]) - g([X_i, X_j], X_k)|."""
    c, n = mla.algebra.c, mla.dim
    gb = (c.reshape(-1, n) @ mla.metric.g).reshape(c.shape)  # g([X_i, X_j], X_k)
    # g is exactly symmetric, so gb.transpose(2, 0, 1)[i, j, k] = g(X_i, [X_j, X_k])
    return float(np.max(np.abs(gb.transpose(2, 0, 1) - gb)))


def _lowered_double_bracket(mla: MetricLieAlgebra) -> np.ndarray:
    """t[i, j, k, l] = g([X_k, [X_i, X_j]], X_l)."""
    c, n = mla.algebra.c, mla.dim
    dbl = c.reshape(n * n, n) @ c.transpose(1, 0, 2).reshape(n, n * n)  # [X_k, [X_i, X_j]]
    return (dbl.reshape(-1, n) @ mla.metric.g).reshape((n,) * 4)


def canonical_metricity_defect(mla: MetricLieAlgebra) -> float:
    """Residual of g([Z, [X, Y]], W) + g(Z, [W, [X, Y]]) = 0 over basis quadruples.

    Vanishing is exactly the condition for the canonical connection
    (half the bracket) to be metric for g.
    """
    t = _lowered_double_bracket(mla)
    return float(np.max(np.abs(t + t.transpose(0, 1, 3, 2))))


def double_bracket_defect(mla: MetricLieAlgebra) -> float:
    """Max over basis quadruples of |g([X_k, [X_i, X_j]], X_l)|."""
    return float(np.max(np.abs(_lowered_double_bracket(mla))))


# ---------------------------------------------------------------------------
# Vector-field classification
# ---------------------------------------------------------------------------


def lie_derivative_metric(mla: MetricLieAlgebra, x) -> np.ndarray:
    """Lie derivative of the metric along x, on the left-invariant frame.

    L[i, j] = -g([x, X_i], X_j) - g(X_i, [x, X_j]); symmetric by construction.
    """
    adx = ad_matrix(mla.algebra, x)
    g = mla.metric.g
    return -(adx.T @ g + g @ adx)


@dataclass(frozen=True)
class FieldClassification:
    """Killing/conformal status of one vector against two metrics."""

    killing1: bool
    killing2: bool
    conformal1: bool
    conformal2: bool
    conformal_factor1: float
    conformal_factor2: float
    in_center: bool
    residual1: float
    residual2: float


def _conformal_fit(lie_l: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Least-squares rho with lie_l ~ 2 rho g; returns (rho, max residual)."""
    rho = float(np.sum(lie_l * g) / (2.0 * np.sum(g * g)))
    return rho, float(np.max(np.abs(lie_l - 2.0 * rho * g)))


def classify_field(
    mla1: MetricLieAlgebra,
    mla2: MetricLieAlgebra,
    x,
    tol: float = CHECK_TOL,
) -> FieldClassification:
    """Classify x as Killing/conformal for each metric and test centrality.

    Restricted to left-invariant frames the conformal factor is a single
    scalar, fitted by least squares over all matrix entries; the field is
    conformal when the fit residual is below tol relative to the scale of
    the Lie derivative.  Raises PreconditionViolated when either Lie
    derivative is not finite; a NaN fit would pass as a verdict.
    """
    if mla1.algebra is not mla2.algebra and not np.array_equal(
        mla1.algebra.c, mla2.algebra.c
    ):
        raise PreconditionViolated("both metrics must live on the same algebra")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        l1 = lie_derivative_metric(mla1, x)
        l2 = lie_derivative_metric(mla2, x)
    if not (np.all(np.isfinite(l1)) and np.all(np.isfinite(l2))):
        raise PreconditionViolated(
            "vector out of floating-point range: its Lie derivative is not finite"
        )
    rho1, res1 = _conformal_fit(l1, mla1.metric.g)
    rho2, res2 = _conformal_fit(l2, mla2.metric.g)
    scale1 = max(1.0, float(np.max(np.abs(l1))))
    scale2 = max(1.0, float(np.max(np.abs(l2))))
    adx = ad_matrix(mla1.algebra, x)
    # [X_i, x] = -ad(x) X_i, so centrality is just ad(x) = 0.
    in_center = float(np.max(np.abs(adx))) <= tol
    return FieldClassification(
        killing1=float(np.max(np.abs(l1))) <= tol,
        killing2=float(np.max(np.abs(l2))) <= tol,
        conformal1=res1 <= tol * scale1,
        conformal2=res2 <= tol * scale2,
        conformal_factor1=rho1,
        conformal_factor2=rho2,
        in_center=in_center,
        residual1=float(np.max(np.abs(l1))),
        residual2=float(np.max(np.abs(l2))),
    )


def is_geodesic_vector(
    mla: MetricLieAlgebra, conn: Connection, x, tol: float = CHECK_TOL
) -> bool:
    """True iff the metric norm of nabla_u u is below tol, u = x / max|x|.

    Being geodesic does not depend on the scale of x, and the rescaled u
    keeps u (x) u from overflowing or underflowing.  The zero vector is
    geodesic.
    """
    x = mla.algebra.vector(x)
    size = np.max(np.abs(x))
    u = x / size if size else x
    return mla.metric.norm(conn.apply(u, u)) <= tol


# ---------------------------------------------------------------------------
# Equivariance under metric pullback by an automorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivarianceDefects:
    """Naturality residuals, each max|a - b| / max(1, max|a|, max|b|).

    a and b are the two sides compared: the transported Christoffel
    tensors, the transported curvature tensors, and the sectional
    curvatures of the basis planes.
    """

    connection_defect: float
    curvature_defect: float
    sectional_defect: float


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return float(np.max(np.abs(a - b), initial=0.0) / scale)


def equivariance_defect(
    mla: MetricLieAlgebra, mla_pulled: MetricLieAlgebra, tau
) -> EquivarianceDefects:
    """Residuals of naturality of connection, curvature, and sectional curvature.

    Requires metric' = tau^T metric tau and tau an automorphism; then
    tau(nabla'_X Y) = nabla_{tau X} tau Y and the curvature/sectional
    analogues hold, so all three defects should sit at rounding level.
    Every transport is a chain of one-slot matrix products, O(n^5) in all.
    """
    tau = np.asarray(tau, dtype=float)
    algebra = mla.algebra
    expected = pullback_metric(mla.metric, tau).g
    scale = max(1.0, float(np.max(np.abs(expected))))
    if float(np.max(np.abs(mla_pulled.metric.g - expected))) > CHECK_TOL * scale:
        raise PreconditionViolated("second metric is not the pullback of the first")
    if not is_automorphism(algebra, tau):
        raise PreconditionViolated("map is not an automorphism of the algebra")

    n = algebra.dim
    conn = levi_civita(mla)
    conn_p = levi_civita(mla_pulled)
    riem = curvature(mla, conn)
    riem_p = curvature(mla_pulled, conn_p)

    # tau(nabla'_{X_i} X_j) vs nabla_{tau X_i} tau X_j
    lhs = (conn_p.gamma.reshape(-1, n) @ tau.T).reshape((n,) * 3)
    conn_defect = _relative_gap(lhs, _pull_back(conn.gamma, tau, tau))

    # tau(R'(X_i, X_j) X_k) vs R(tau X_i, tau X_j) tau X_k
    r_tau = _pull_back(riem.r, tau, tau, tau)
    lhs_r = (riem_p.r.reshape(-1, n) @ tau.T).reshape((n,) * 4)
    curv_defect = _relative_gap(lhs_r, r_tau)

    # the plane (X_i, X_j) under (g', R') vs (tau X_i, tau X_j) under (g, R)
    g_p = mla_pulled.metric.g
    g_tau = mla.metric.g @ tau
    sec_defect = _relative_gap(
        _basis_sectionals(riem_p.r, g_p, g_p),
        _basis_sectionals(r_tau, g_tau, tau.T @ g_tau),
    )
    return EquivarianceDefects(conn_defect, curv_defect, sec_defect)


# ---------------------------------------------------------------------------
# Seeded random metrics for reproducible property sweeps
# ---------------------------------------------------------------------------


def random_spd_metric(rng: np.random.Generator, dim: int) -> Metric:
    """Random well-conditioned SPD metric: A^T A + I with A standard normal.

    Sweeps that use this must create their generator from a fixed seed so
    every reported residual is reproducible.
    """
    a = rng.standard_normal((dim, dim))
    return Metric(a.T @ a + np.eye(dim))
