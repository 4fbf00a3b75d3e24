"""Finite-dimensional real Lie algebras given by structure constants.

Conventions used throughout the package:

* an algebra of dimension ``n`` stores a dense rank-3 tensor ``c`` with
  ``c[i, j, k]`` the coefficient of ``X_k`` in ``[X_i, X_j]``;
* vectors are plain 1-d numpy arrays of coefficients in the stored basis;
* linear maps are ``(n, n)`` arrays whose columns are the images of the
  basis vectors, acting on coefficient vectors by matrix multiplication.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, NonPositiveDefinite, SingularMap, ValidationError

# Default tolerances.
EPS_JACOBI = 1e-9
EPS_SYM = 1e-9
EPS_PD = 1e-12
CHECK_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _symmetric_part(a: np.ndarray, anti: bool = False) -> np.ndarray:
    """Exact (anti)symmetric part of a over its first two slots, read-only.

    Halves first: a + a^T and a - a^T overflow for entries above max/2.
    """
    half = 0.5 * a.swapaxes(0, 1)
    return _freeze(0.5 * a - half if anti else 0.5 * a + half)


def _term_size(*factors: np.ndarray) -> float:
    """Size of the terms of the factors' product: the product of max|x| = max(max x, -min x)."""
    size = 1.0
    for f in factors:
        size *= max(f.max(initial=0.0), -f.min(initial=0.0))
    return float(size)


def _checked_symmetric(a, error: type, what: str, anti: bool = False) -> np.ndarray:
    """The exact (anti)symmetric part of a square, finite matrix a.

    Raises InvalidDimension for a non-square a, and ``error`` for a
    non-finite a or one more than EPS_SYM from (anti)symmetric.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidDimension(f"{what} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise error(f"{what} has non-finite entries")
    defect = float(np.max(np.abs(a + a.T if anti else a - a.T)))
    if defect > EPS_SYM:
        raise error(f"{what} asymmetry {defect:.3e} exceeds {EPS_SYM:.1e}")
    return _symmetric_part(a, anti)


@dataclass(frozen=True)
class LieAlgebra:
    """A real Lie algebra encoded by its structure-constant tensor.

    Antisymmetry in the first two tensor slots is exact by construction and
    non-finite constants are refused, so only the Jacobi identity remains a
    nontrivial property, judged on c alone by :meth:`require_jacobi`.
    """

    dim: int
    basis_labels: tuple[str, ...]
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidDimension(f"dimension must be positive, got {self.dim}")
        if len(self.basis_labels) != self.dim:
            raise InvalidDimension(
                f"{len(self.basis_labels)} labels for dimension {self.dim}"
            )
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim,) * 3:
            raise InvalidDimension(
                f"structure tensor shape {c.shape}, expected {(self.dim,) * 3}"
            )
        if not np.all(np.isfinite(c)):
            raise ValidationError("structure constants have non-finite entries")
        object.__setattr__(self, "c", _symmetric_part(c, anti=True))
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        entries: dict[tuple[int, int, int], float],
        labels: tuple[str, ...] | None = None,
    ) -> "LieAlgebra":
        """Build from sparse entries ``{(i, j, k): value}`` with ``i < j``.

        The ``j > i`` orientation is filled in by negation, which makes
        antisymmetry structurally impossible to violate.
        """
        c = np.zeros((dim, dim, dim))
        for (i, j, k), v in entries.items():
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise InvalidDimension(f"bracket entry ({i},{j},{k}) out of range")
            c[i, j, k] = v
            c[j, i, k] = -v
        if labels is None:
            labels = tuple(f"X{i + 1}" for i in range(dim))
        return cls(dim, tuple(labels), c)

    @classmethod
    def from_tensor(
        cls, c: np.ndarray, labels: tuple[str, ...] | None = None
    ) -> "LieAlgebra":
        c = np.asarray(c, dtype=float)
        dim = c.shape[0]
        if labels is None:
            labels = tuple(f"X{i + 1}" for i in range(dim))
        return cls(dim, tuple(labels), c)

    def vector(self, x) -> np.ndarray:
        """Validate and return ``x`` as a coefficient vector of this algebra."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InvalidDimension(f"vector shape {x.shape}, algebra dim {self.dim}")
        return x

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim)
        e[i] = 1.0
        return e

    @functools.cached_property
    def jacobi_residual(self) -> float:
        """max|J|, kept; :func:`jacobi_defect` forms it anew on every call."""
        return jacobi_defect(self)

    @functools.cached_property
    def jacobi_bound(self) -> float:
        """The rule's bound EPS_JACOBI * max(1, max P), kept; P = |c| x |c| sizes J's terms."""
        n, a = self.dim, np.abs(self.c)
        return EPS_JACOBI * max(1.0, float((a.reshape(n * n, n) @ a.reshape(n, n * n)).max()))

    def require_jacobi(self) -> None:
        """Raise ValidationError unless max|J| is within a finite jacobi_bound.

        J rounds within (n + 2) u 3 max P, far below the bound at any scale
        with max P >= 1.  P is formed only for a defect above EPS_JACOBI.
        """
        defect = self.jacobi_residual
        if not (defect <= EPS_JACOBI or defect <= self.jacobi_bound < np.inf):
            bound = f"{self.jacobi_bound:.3e}"
            raise ValidationError(f"Jacobi identity violated: defect {defect:.3e} exceeds {bound}")


@dataclass(frozen=True)
class Metric:
    """Inner product on a Lie algebra, stored as its Gram matrix.

    Construction validates symmetry (within ``EPS_SYM``) and positive
    definiteness (every Cholesky pivot above ``EPS_PD``), then stores the
    exactly symmetrized matrix.  The inverse is computed on the first call
    of :meth:`inv` and kept, read-only, on the instance.
    """

    g: np.ndarray = field(repr=False)

    def __init__(self, g):
        g = _checked_symmetric(g, NonPositiveDefinite, "metric")
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise NonPositiveDefinite("metric is not positive-definite") from None
        pivot = np.min(np.diag(chol)) ** 2
        if pivot <= EPS_PD:
            raise NonPositiveDefinite(
                f"smallest Cholesky pivot {pivot:.3e} not above {EPS_PD:.1e}"
            )
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def inner(self, x, y) -> float:
        return float(np.asarray(x) @ self.g @ np.asarray(y))

    def inv(self) -> np.ndarray:
        inv = self.__dict__.get("_inv")
        if inv is None:
            inv = _freeze(np.linalg.inv(self.g))
            object.__setattr__(self, "_inv", inv)
        return inv

    @classmethod
    @functools.lru_cache
    def identity(cls, dim: int) -> "Metric":
        """The identity metric: one shared, read-only instance per dimension."""
        return cls(np.eye(dim))


# ---------------------------------------------------------------------------
# Bracket and adjoint operations
# ---------------------------------------------------------------------------


def bracket(algebra: LieAlgebra, x, y) -> np.ndarray:
    """Lie bracket [x, y] of two coefficient vectors."""
    return ad_matrix(algebra, x) @ algebra.vector(y)


def ad_matrix(algebra: LieAlgebra, x) -> np.ndarray:
    """Matrix of ad(x): y -> [x, y] acting on coefficient vectors."""
    x = algebra.vector(x)
    return np.einsum("i,ijk->kj", x, algebra.c)


def ad_star(algebra: LieAlgebra, metric: Metric, x) -> np.ndarray:
    """Metric adjoint of ad(x): the unique map with g(ad*(x) y, z) = g(y, [x, z])."""
    if metric.dim != algebra.dim:
        raise InvalidDimension("metric dimension does not match algebra")
    adx = ad_matrix(algebra, x)
    return metric.inv() @ adx.T @ metric.g


def _jacobi_sum(c: np.ndarray) -> np.ndarray:
    """J[i, j, k, h]: component h of the cyclic sum over [[X_i, X_j], X_k]."""
    n = c.shape[0]
    t = (c.reshape(n * n, n) @ c.reshape(n, n * n)).reshape((n,) * 4)  # [[X_i, X_j], X_k]
    resid = t + t.transpose(1, 2, 0, 3)
    resid += t.transpose(2, 0, 1, 3)  # in place: two n^4 arrays at a time
    return resid


def jacobi_defect(algebra: LieAlgebra) -> float:
    """Max-abs residual of the Jacobi identity over all index quadruples."""
    resid = _jacobi_sum(algebra.c)
    return float(np.abs(resid, out=resid).max())


def center(algebra: LieAlgebra, tol: float = 1e-10) -> list[np.ndarray]:
    """Orthonormal basis of the center {y : [x, y] = 0 for all x}.

    The kernel of the stacked adjoint matrices is computed by SVD; columns
    are sign-fixed (largest-magnitude entry positive) for determinism.
    """
    n = algebra.dim
    stacked = algebra.c.transpose(0, 2, 1).reshape(n * n, n)  # rows: ad(X_i)
    _, s, vt = np.linalg.svd(stacked)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    basis = []
    for row in vt[rank:]:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row = -row
        basis.append(row.copy())
    return basis


def _pull_back(t: np.ndarray, *maps: np.ndarray) -> np.ndarray:
    """Pull the leading slots of t back through one matrix each.

    ``out[i, j, ..] = sum maps[0][p, i] maps[1][q, j] .. t[p, q, ..]``; the
    slots after ``len(maps)`` are untouched.  Each slot is one matrix
    product that contracts it and rotates it to the back, so for t of side
    n and rank r the cost is O(len(maps) n^(r + 1)), where one einsum over
    all the operands costs O(n^(r + len(maps))).
    """
    n, rank = t.shape[0], t.ndim
    for m in maps:
        t = (t.reshape(n, -1).T @ m).reshape((n,) * rank)
    # the untouched slots now lead: rotate them back behind the pulled ones
    done = len(maps)
    return t.transpose(*range(rank - done, rank), *range(rank - done))


def is_automorphism(algebra: LieAlgebra, tau) -> bool:
    """True iff tau is invertible and commutes with the bracket within CHECK_TOL."""
    tau = np.asarray(tau, dtype=float)
    n = algebra.dim
    if tau.shape != (n, n):
        raise InvalidDimension(f"map shape {tau.shape}, algebra dim {n}")
    if np.linalg.matrix_rank(tau) < n:
        return False
    c = algebra.c
    resid = (c.reshape(n * n, n) @ tau.T).reshape(c.shape)  # tau([X_i, X_j])
    resid -= _pull_back(c, tau, tau)  # [tau X_i, tau X_j]
    return float(np.abs(resid, out=resid).max()) <= CHECK_TOL


def pullback_metric(metric: Metric, tau) -> Metric:
    """Pullback tau^T g tau of a metric by an invertible linear map."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (metric.dim, metric.dim):
        raise InvalidDimension(f"map shape {tau.shape}, metric dim {metric.dim}")
    if np.linalg.matrix_rank(tau) < metric.dim:
        raise SingularMap("pullback by a singular map")
    # symmetric in exact arithmetic; its rounding is not an input error
    return Metric(_symmetric_part(tau.T @ metric.g @ tau))


def change_basis_constants(algebra: LieAlgebra, b, labels=None, b_inv=None) -> LieAlgebra:
    """Structure constants of the same algebra in a new basis.

    Columns of ``b`` are the new basis vectors in old coordinates.  For a
    diagonal rescaling ``b = diag(1/sqrt(lambda_i))`` the new constants are
    ``sqrt(lambda_k / (lambda_i lambda_j))`` times the old ones.  A caller
    that already holds the inverse of ``b`` passes it as ``b_inv``; ``b`` is
    then taken as invertible, with no rank check.
    """
    b = np.asarray(b, dtype=float)
    n = algebra.dim
    if b.shape != (n, n):
        raise InvalidDimension(f"basis-change shape {b.shape}, algebra dim {n}")
    if b_inv is None:
        if np.linalg.matrix_rank(b) < n:
            raise SingularMap("basis change must be invertible")
        b_inv = np.linalg.inv(b)
    d = _pull_back(algebra.c, b, b, b_inv.T)
    return LieAlgebra.from_tensor(d, labels or algebra.basis_labels)
