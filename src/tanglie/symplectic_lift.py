"""Left-invariant symplectic forms and their lift to the tangent algebra.

A two-form is closed when the cyclic cocycle sum ``w([X,Y],Z) + w([Y,Z],X)
+ w([Z,X],Y)`` vanishes, and symplectic when it is also nondegenerate.  Two
forms w1, w2 on the base lift to wt(X^c, Y^c) = w1(X, Y), wt(X^c, Y^v) =
w2(X, Y), wt(X^v, Y^v) = 0.  In the raw lifted eigenbasis {X_i^v, X_i^c}
(vertical lifts unnormalized) wt is [[0, w2], [w2, w1]], so det wt =
det(w2)^2 in even dimension.  As [V, V] = 0 and [C, V] lies in V, the
patterns vvv, vvc, vcv and cvv of wt's cocycle sum have no nonzero term,
ccc is w1's cocycle sum and ccv, cvc and vcc are each w2's, on the
eigenbasis bracket.  So wt is symplectic iff w1 is closed and w2 is
symplectic, whatever the metrics.  Every verdict here is relative
(``RTOL``): a cocycle residual against max|c|*max|w|, the size of its
terms, and sigma_min against sigma_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, NotSymplecticInput, ValidationError
from .lie_core import LieAlgebra, _checked_symmetric, _symmetric_part, _term_size
from .tangent_lift import TangentLieAlgebra

RTOL = 1e-9  # relative tolerance of every symplectic verdict


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric bilinear form; antisymmetry is exact by construction."""

    w: np.ndarray = field(repr=False)

    def __init__(self, w):
        w = _checked_symmetric(w, ValidationError, "two-form", anti=True)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def _cocycle_tensor(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cyclic sum w([X_i,X_j],X_k) + w([X_j,X_k],X_i) + w([X_k,X_i],X_j)."""
    t = np.einsum("ijm,mk->ijk", c, w)  # w([X_i, X_j], X_k)
    return t + t.transpose(2, 0, 1) + t.transpose(1, 2, 0)  # t[j, k, i] and t[k, i, j]


def cocycle_defect(algebra: LieAlgebra, form: TwoForm) -> float:
    """Max-abs cyclic cocycle residual of the form over basis triples."""
    if form.dim != algebra.dim:
        raise InvalidDimension("two-form dimension does not match algebra")
    return float(np.max(np.abs(_cocycle_tensor(algebra.c, form.w))))


def is_symplectic(algebra: LieAlgebra, form: TwoForm) -> bool:
    """Cocycle residual <= RTOL*max|c|*max|w| and sigma_min > RTOL*sigma_max.

    The second refuses odd dimension and the zero form as well.
    """
    if cocycle_defect(algebra, form) > RTOL * _term_size(algebra.c, form.w):
        return False
    singular = np.linalg.svd(form.w, compute_uv=False)
    return bool(singular[-1] > RTOL * singular[0])


def lift_symplectic(
    t: TangentLieAlgebra, w1: TwoForm, w2: TwoForm, check: bool = True
) -> TwoForm:
    """Lift a symplectic pair to the tangent algebra, in the normalized basis.

    Vertical rows and columns carry the 1/sqrt(lambda) rescaling of the
    normalized lift basis, so the returned matrix pairs directly with
    coefficient vectors of that frame.  With ``check`` enabled both inputs
    must pass :func:`is_symplectic` on the base.  That is the paper's
    hypothesis, kept by choice: the theorem above needs w1 only closed.
    """
    n = t.dim
    if w1.dim != n or w2.dim != n:
        raise InvalidDimension("two-form dimensions do not match the base algebra")
    if check:
        for name, w in (("first", w1), ("second", w2)):
            if not is_symplectic(t.input_algebra, w):
                raise NotSymplecticInput(
                    f"{name} two-form is not symplectic on the base algebra"
                )
    b1 = t.phi_data.b1
    cv = b1.T @ w2.w @ b1 * (1.0 / t.phi_data.sqrt_lambdas)  # wt(X_i^c, V_j)
    wt = np.zeros((2 * n, 2 * n))  # slice fill: np.block costs 6x as much at n = 2
    wt[n:, :n], wt[:n, n:], wt[n:, n:] = cv, -cv.T, b1.T @ w1.w @ b1
    # b1^T w b1 is antisymmetric in exact arithmetic; its rounding is not
    # an input error, so antisymmetrize before TwoForm checks it
    return TwoForm(_symmetric_part(wt, anti=True))


#: the eight lift-type patterns of the cyclic cocycle identity, in the
#: order all-vertical through all-complete
CLOSEDNESS_PATTERNS = ("vvv", "vvc", "vcv", "cvv", "ccv", "cvc", "vcc", "ccc")


def verify_closedness_identities(
    t: TangentLieAlgebra, wt: TwoForm
) -> dict[str, float]:
    """Max cyclic-cocycle residual of the lifted form per lift-type pattern.

    Arguments run over raw lifts of the eigenbasis vectors (vertical lifts
    unnormalized), so e.g. the all-complete residual reproduces the base
    cocycle defect of the complete-block form.
    """
    n = t.dim
    if wt.dim != 2 * n:
        raise InvalidDimension("lifted two-form has wrong dimension")
    # the cocycle sum is trilinear; a raw vertical lift is sqrt(lambda)
    # times the normalized basis vector
    scale = np.concatenate([t.phi_data.sqrt_lambdas, np.ones(n)])
    cyc = _cocycle_tensor(t.lifted.c, wt.w) * (scale[:, None, None] * scale[:, None] * scale)
    part = {"v": slice(0, n), "c": slice(n, 2 * n)}
    return {
        pattern: float(np.max(np.abs(cyc[tuple(part[ch] for ch in pattern)])))
        for pattern in CLOSEDNESS_PATTERNS
    }


def relative_closedness(t: TangentLieAlgebra, wt: TwoForm) -> dict[str, float]:
    """Each pattern's closedness residual over the size of its terms.

    By the theorem above ccc sums w1's cocycle terms and ccv, cvc and vcc
    sum w2's, on the eigenbasis bracket; the other four have no nonzero term
    and are left out.  With no terms (an abelian base) a residual is as is.
    """
    n = t.dim
    raw = wt.w[n:] * np.concatenate([t.phi_data.sqrt_lambdas, np.ones(n)])  # rows X_i^c
    w2, w1 = _term_size(t.base.c, raw[:, :n]), _term_size(t.base.c, raw[:, n:])
    size = {"ccc": w1, "ccv": w2, "cvc": w2, "vcc": w2}
    residual = verify_closedness_identities(t, wt)
    return {p: residual[p] / s if s else residual[p] for p, s in size.items()}
