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

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePlane, InvalidDimension, PreconditionViolated
from .lie_core import (
    CHECK_TOL,
    EPS_PD,
    LieAlgebra,
    Metric,
    _pull_back,
    _term_size,
    ad_matrix,
    is_automorphism,
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


class _Classes(NamedTuple):
    """Gather indices for a basis of k classes of m vectors, the last class even.

    For k = 2 the first class is odd.  The product of classes a and b, the
    bracket or the connection, lands in class d(a, b) = (k - 1) ^ a ^ b,
    and R(X_a, X_b) X_c in class a ^ b ^ c.  Flat indices address a whole
    (k m)^3 tensor; the (k, k, k) arrays over class triples (a, b, c)
    address lists of blocks.
    """

    allowed: np.ndarray  # (k, k, m, m, m): a 3-tensor at [a, b, i, j, l], l in class d(a, b)
    forbidden: np.ndarray  # flat: the rest of a 3-tensor
    landing: np.ndarray  # (k, k^3): 1 where the triple lands in class s, else 0
    nabla_right: np.ndarray  # (k, k, k): the allowed block (a, d(b, c)) that nabla_{X_a} meets
    bracket_right: np.ndarray  # (k, k, k): the allowed block (d(a, b), c) of nabla_[X_a, X_b] X_c
    pair: np.ndarray  # (k^3,): the triple (c, a ^ b ^ c, a) that (a, b, c) pairs with


def _rest(size: int, taken: np.ndarray) -> np.ndarray:
    """The flat indices below size that are not in taken."""
    keep = np.ones(size, dtype=bool)
    keep[taken.ravel()] = False
    return np.flatnonzero(keep)


@functools.lru_cache(maxsize=8)
def _classes(k: int, m: int) -> _Classes:
    pairs = [(a, b) for a in range(k) for b in range(k)]
    triples = [(a, b, c) for a, b in pairs for c in range(k)]
    d = {(a, b): (k - 1) ^ a ^ b for a, b in pairs}
    cube = np.arange((k * m) ** 3).reshape(k, m, k, m, k, m)
    allowed = np.stack([cube[a, :, b, :, d[a, b], :] for a, b in pairs]).reshape(k, k, m, m, m)
    idx = _Classes(
        allowed=allowed,
        forbidden=_rest(cube.size, allowed),
        landing=np.array([[float(a ^ b ^ c == s) for a, b, c in triples] for s in range(k)]),
        nabla_right=np.array([a * k + d[b, c] for a, b, c in triples]).reshape(k, k, k),
        bracket_right=np.array([d[a, b] * k + c for a, b, c in triples]).reshape(k, k, k),
        pair=np.array([(c * k + (a ^ b ^ c)) * k + a for a, b, c in triples]),
    )
    for array in idx:  # every caller shares them
        array.setflags(write=False)
    return idx


class CurvatureTensor:
    """R(X_i, X_j) X_k on a basis of k equal classes, stored by class blocks.

    Class s holds the basis indices s m, ..., s m + m - 1.
    ``blocks[a, b, c, i, j, k, h]`` is the coefficient of the h-th vector of
    class a ^ b ^ c in R(X_i, X_j) X_k, for X_i, X_j and X_k the i-th, j-th
    and k-th vectors of classes a, b and c.  A plain algebra has one class,
    and its one block is r itself.  Two classes are the odd and the even
    half of a Z2 grading that R preserves, as a tangent algebra's vertical
    and complete lifts are: R(X_i, X_j) X_k then has the parity of its
    three arguments together, which is class a ^ b ^ c whichever class is
    odd, and the full tensor is zero on the other 8 of its 16 blocks.
    """

    def __init__(self, r):
        """The one-class tensor of r[i, j, k, h], the X_h coefficient of R(X_i, X_j) X_k."""
        r = np.ascontiguousarray(r, dtype=float)
        self._set(r.reshape((1, 1, 1) + r.shape))

    @classmethod
    def graded(cls, blocks: np.ndarray) -> CurvatureTensor:
        """The tensor of blocks of shape (k, k, k, m, m, m, m), held as given."""
        riem = cls.__new__(cls)
        riem._set(blocks)
        return riem

    def _set(self, blocks: np.ndarray) -> None:
        blocks.setflags(write=False)
        self.classes = blocks.shape[0]
        self.dim = self.classes * blocks.shape[-1]
        self._blocks = blocks
        # one block is the whole tensor
        self._r = blocks.reshape(blocks.shape[3:]) if self.classes == 1 else None

    @property
    def blocks(self) -> np.ndarray:
        """The (k, k, k, m, m, m, m) blocks; gathered from ``r`` once that is read."""
        if self._blocks is None:
            k, m = self.classes, self.dim // self.classes
            a, b, c = np.indices((k, k, k))
            return self._r.reshape(k, m, k, m, k, m, k, m)[a, :, b, :, c, :, a ^ b ^ c, :]
        return self._blocks

    @property
    def r(self) -> np.ndarray:
        """r[i, j, k, h] = coefficient of X_h in R(X_i, X_j) X_k, zero off the blocks.

        A graded tensor assembles it on the first read and from then on
        holds it in place of the blocks: keeping both raised lift_pipeline's
        peak RSS 8.8 to 11.5 % against its 10 % bound (ROADMAP item 9).
        """
        if self._r is None:
            k, m = self.classes, self.dim // self.classes
            a, b, c = np.indices((k, k, k))
            r = np.zeros((k * m,) * 4)
            r.reshape(k, m, k, m, k, m, k, m)[a, :, b, :, c, :, a ^ b ^ c, :] = self._blocks
            r.setflags(write=False)
            self._r, self._blocks = r, None
        return self._r

    def apply(self, x, y, z) -> np.ndarray:
        """Coefficients of R(x, y) z, contracting one slot at a time in every block."""
        k, m = self.classes, self.dim // self.classes
        x, y, z = (np.asarray(v, dtype=float).reshape(k, m) for v in (x, y, z))
        rx = x.reshape(k, 1, 1, 1, m) @ self.blocks.reshape(k, k, k, m, -1)
        rxy = y.reshape(1, k, 1, 1, m) @ rx.reshape(k, k, k, m, -1)
        part = z.reshape(1, 1, k, 1, m) @ rxy.reshape(k, k, k, m, m)
        return (_classes(k, m).landing @ part.reshape(k**3, m)).reshape(-1)


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


def curvature(
    mla: MetricLieAlgebra, conn: Connection, graded: bool = False
) -> CurvatureTensor:
    """Curvature tensor of a torsion-free metric connection.

    With ``graded`` the basis is the odd half of a Z2 grading followed by
    the even half, as a tangent algebra's lift basis is, and the bracket
    and the connection preserve the grading: [X, Y] and nabla_X Y have
    the parity of X and Y together.  Every sum over a basis index l then
    has one class of l nonzero, so the tensor keeps 8 blocks of n^4, and
    each costs n^5 multiply-adds for nabla nabla and n^5 for the bracket
    term, a quarter of the ungraded products.  Raises PreconditionViolated
    when the bracket or the connection does not preserve the grading.
    """
    k = 2 if graded else 1
    m = conn.dim // k
    idx = _classes(k, m)
    if graded:  # one class forbids nothing
        for name, t in (("connection", conn.gamma), ("bracket", mla.algebra.c)):
            if t.take(idx.forbidden).any():
                raise PreconditionViolated(f"the {name} does not preserve the grading")
    gam, brk = conn.gamma.take(idx.allowed), mla.algebra.c.take(idx.allowed)
    # nabla_i nabla_j X_k: for each i the product (jk, l) x (l, h)
    right = gam.reshape(k * k, m, m, m).take(idx.nabla_right, axis=0)
    t1 = gam.reshape(1, k, k, 1, m * m, m) @ right
    t1 = t1.reshape((k,) * 3 + (m,) * 4)
    r = t1 - t1.transpose(1, 0, 2, 4, 3, 5, 6)
    # nabla_[X_i, X_j] X_k, formed in the buffer t1 no longer needs
    right = gam.reshape(k * k, m, m * m).take(idx.bracket_right, axis=0)
    np.matmul(brk.reshape(k, k, 1, m * m, m), right, out=t1.reshape(k, k, k, m * m, m * m))
    r -= t1
    return CurvatureTensor.graded(r)


def curvature_invariant_defects(
    mla: MetricLieAlgebra, riem: CurvatureTensor
) -> dict[str, float]:
    """Residuals of antisymmetry, first Bianchi, and pair symmetry.

    Each identity maps blocks of R onto blocks, so each residual is a
    gather of blocks and a transpose inside them; the zero blocks off a
    grading add exactly 0.  A graded tensor takes the identity metric
    only, as a lift's orthonormal frame has.  Each residual is formed in
    one buffer and reduced there, and max keeps a NaN in R visible.
    """
    r, k = riem.blocks, riem.classes
    m = r.shape[-1]
    g = mla.metric.g
    low = r  # g(R(X_i, X_j) X_k, X_h); an orthonormal basis lowers nothing
    if not np.array_equal(g, np.eye(len(g))):
        if k > 1:
            raise PreconditionViolated("a graded tensor takes the identity metric only")
        low = (r.reshape(-1, m) @ g).reshape(r.shape)
    buf = r + r.transpose(1, 0, 2, 4, 3, 5, 6)
    antisymmetry = float(np.abs(buf, out=buf).max())
    np.add(r, r.transpose(1, 2, 0, 4, 5, 3, 6), out=buf)
    buf += r.transpose(2, 0, 1, 5, 3, 4, 6)
    first_bianchi = float(np.abs(buf, out=buf).max())
    # at [a, b, c, k, h, i, j] the block (c, a ^ b ^ c, a) pairs with (a, b, c) at [i, j, k, h]
    pair = _classes(k, m).pair
    low.reshape(k**3, -1).take(pair, axis=0, out=buf.reshape(k**3, -1), mode="clip")
    buf -= low.transpose(0, 1, 2, 5, 6, 3, 4)
    return {
        "antisymmetry": antisymmetry,
        "first_bianchi": first_bianchi,
        "pair_symmetry": float(np.abs(buf, out=buf).max()),
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


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i < j, of n basis vectors, shared read-only."""
    pairs = np.triu_indices(n, 1)
    for array in pairs:  # every caller shares them
        array.setflags(write=False)
    return pairs


def _basis_sectionals(r: np.ndarray, lower: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sectional curvatures of all basis planes (e_i, e_j), i < j, at once.

    g is the Gram matrix of the e_i, and g(R(e_i, e_j) e_k, e_l) is
    ``r[i, j, k, :] @ lower[:, l]``; the plane's value is
    g(R(e_i, e_j) e_j, e_i) / (g_ii g_jj - g_ij^2).  A basis plane of a
    positive-definite metric can only be degenerate through the angle of
    e_i and e_j, so it is refused when sin^2 of that angle is at most
    EPS_PD, a floor of EPS_PD g_ii g_jj that ignores the metric's scale.
    """
    iu, ju = _upper_pairs(g.shape[0])
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
    resid = t + t.transpose(0, 1, 3, 2)
    return float(np.abs(resid, out=resid).max())


def double_bracket_defect(mla: MetricLieAlgebra) -> float:
    """Max over basis quadruples of |g([X_k, [X_i, X_j]], X_l)|."""
    t = _lowered_double_bracket(mla)
    return float(np.abs(t, out=t).max())


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


def _judge_metric(mla: MetricLieAlgebra, x: np.ndarray, ad_bound: float):
    """(killing, conformal, rho, max|L|) of the Lie derivative L of g along x.

    rho is the least-squares fit L ~ 2 rho g.  L and the fit's residual have
    the terms of ad(x) times g's, so Killing and conformal hold them to
    ad_bound max|g|, ad_bound = tol max|c| max|x|.  L must be finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        lie_l = lie_derivative_metric(mla, x)
    if not np.all(np.isfinite(lie_l)):
        raise PreconditionViolated(
            "vector out of floating-point range: its Lie derivative is not finite"
        )
    g = mla.metric.g
    bound = ad_bound * _term_size(g)
    size = float(np.max(np.abs(lie_l)))
    rho = float(np.sum(lie_l * g) / (2.0 * np.sum(g * g)))
    residual = float(np.max(np.abs(lie_l - 2.0 * rho * g)))
    return size <= bound, residual <= bound, rho, size


def classify_field(
    mla1: MetricLieAlgebra,
    mla2: MetricLieAlgebra,
    x,
    tol: float = CHECK_TOL,
) -> FieldClassification:
    """Classify x as Killing/conformal for each metric and test centrality.

    Restricted to left-invariant frames the conformal factor is a single
    scalar, fitted by least squares over all matrix entries.  Each verdict
    holds its residual to tol times the size of its terms, so no scaling of
    g or x changes it.  Raises PreconditionViolated when either Lie
    derivative is not finite.
    """
    if mla1.algebra is not mla2.algebra and not np.array_equal(
        mla1.algebra.c, mla2.algebra.c
    ):
        raise PreconditionViolated("both metrics must live on the same algebra")
    x = mla1.algebra.vector(x)
    ad_bound = tol * _term_size(mla1.algebra.c, x)  # ad(x)'s terms are c_ijk x_i
    killing1, conformal1, rho1, size1 = _judge_metric(mla1, x, ad_bound)
    killing2, conformal2, rho2, size2 = _judge_metric(mla2, x, ad_bound)
    # [X_i, x] = -ad(x) X_i, so centrality is just ad(x) = 0.
    in_center = float(np.max(np.abs(ad_matrix(mla1.algebra, x)))) <= ad_bound
    return FieldClassification(
        killing1, killing2, conformal1, conformal2, rho1, rho2, in_center, size1, size2
    )


def is_geodesic_vector(
    mla: MetricLieAlgebra, conn: Connection, x, tol: float = CHECK_TOL
) -> bool:
    """True iff max|nabla_u u| <= tol max|gamma|, u = x / max|x|.

    max|gamma| sizes the terms u_i u_j gamma_ijk, and scaling x or the
    metric changes neither u nor gamma.  The rescaled u keeps u (x) u from
    overflowing or underflowing.  The zero vector is geodesic.
    """
    x = mla.algebra.vector(x)
    size = np.max(np.abs(x))
    u = x / size if size else x
    return float(np.max(np.abs(conn.apply(u, u)))) <= tol * _term_size(conn.gamma)


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
    """max|a - b| / max(1, max|a|, max|b|); NaN when a or b is not finite.

    max|x| is read by _term_size, with no |x| copy, and |a - b| is formed
    in its one difference buffer.  A NaN drops out of the scale but stays
    in the difference, and an infinite entry gives inf / inf.
    """
    scale = max(1.0, _term_size(a), _term_size(b))
    gap = a - b
    return float(np.abs(gap, out=gap).max(initial=0.0) / scale)


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
    if not is_automorphism(algebra, tau):  # which also checks tau's shape
        raise PreconditionViolated("map is not an automorphism of the algebra")
    # not <=: a tau^T g tau out of range gives a NaN gap, which is refused
    if not _relative_gap(mla_pulled.metric.g, tau.T @ mla.metric.g @ tau) <= CHECK_TOL:
        raise PreconditionViolated("second metric is not the pullback of the first")

    n = algebra.dim
    conn = levi_civita(mla)
    conn_p = levi_civita(mla_pulled)

    # tau(nabla'_{X_i} X_j) vs nabla_{tau X_i} tau X_j
    lhs = (conn_p.gamma.reshape(-1, n) @ tau.T).reshape((n,) * 3)
    conn_defect = _relative_gap(lhs, _pull_back(conn.gamma, tau, tau))

    # One curvature tensor at a time: each is dropped once its planes are read
    # and it is transported, and only the transported R waits for R'.
    # R(tau X_i, tau X_j) tau X_k and the plane (tau X_i, tau X_j) under (g, R)
    r_tau = _pull_back(curvature(mla, conn).r, tau, tau, tau)
    g_tau = mla.metric.g @ tau
    sec_tau = _basis_sectionals(r_tau, g_tau, tau.T @ g_tau)
    # vs tau(R'(X_i, X_j) X_k) and the plane (X_i, X_j) under (g', R')
    g_p = mla_pulled.metric.g
    r_p = curvature(mla_pulled, conn_p).r
    sec_defect = _relative_gap(_basis_sectionals(r_p, g_p, g_p), sec_tau)
    lhs_r = (r_p.reshape(-1, n) @ tau.T).reshape((n,) * 4)
    del r_p
    curv_defect = _relative_gap(lhs_r, r_tau)
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
