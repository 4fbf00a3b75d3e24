"""Left-invariant symplectic forms and their lift to the tangent algebra.

A two-form is closed exactly when the cyclic cocycle sum
``w([X,Y],Z) + w([Y,Z],X) + w([Z,X],Y)`` vanishes, and symplectic when it
is additionally nondegenerate.  Two symplectic forms w1, w2 on the base
lift to the tangent algebra by

    wt(X^c, Y^c) = w1(X, Y),  wt(X^c, Y^v) = w2(X, Y),  wt(X^v, Y^v) = 0,

which is again symplectic: the vertical x complete pairing is the
invertible matrix of w2, and closedness reduces pattern by pattern to the
base cocycle identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, NotSymplecticInput, ValidationError
from .lie_core import EPS_SYM, LieAlgebra
from .tangent_lift import TangentLieAlgebra


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric bilinear form; antisymmetry is exact by construction."""

    w: np.ndarray = field(repr=False)

    def __init__(self, w):
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidDimension(f"two-form must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("two-form has non-finite entries")
        skew_defect = float(np.max(np.abs(w + w.T)))
        if skew_defect > EPS_SYM:
            raise ValidationError(
                f"two-form asymmetry {skew_defect:.3e} exceeds {EPS_SYM:.1e}"
            )
        w = 0.5 * (w - w.T)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def _cocycle_tensor(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cyclic sum w([X_i,X_j],X_k) + w([X_j,X_k],X_i) + w([X_k,X_i],X_j)."""
    t = np.einsum("ijm,mk->ijk", c, w)  # w([X_i, X_j], X_k)
    return t + np.einsum("jki->ijk", t) + np.einsum("kij->ijk", t)


def cocycle_defect(algebra: LieAlgebra, form: TwoForm) -> float:
    """Max-abs cyclic cocycle residual of the form over basis triples."""
    if form.dim != algebra.dim:
        raise InvalidDimension("two-form dimension does not match algebra")
    return float(np.max(np.abs(_cocycle_tensor(algebra.c, form.w))))


def is_symplectic(algebra: LieAlgebra, form: TwoForm) -> bool:
    """Closed and nondegenerate within 1e-9; odd dimension always fails."""
    if algebra.dim % 2 == 1:
        return False
    if cocycle_defect(algebra, form) > 1e-9:
        return False
    smallest = float(np.linalg.svd(form.w, compute_uv=False)[-1])
    return smallest > 1e-9


def lift_symplectic(
    t: TangentLieAlgebra, w1: TwoForm, w2: TwoForm, check: bool = True
) -> TwoForm:
    """Lift a symplectic pair to the tangent algebra, in the normalized basis.

    Vertical rows and columns carry the 1/sqrt(lambda) rescaling of the
    normalized lift basis, so the returned matrix pairs directly with
    coefficient vectors of that frame.  With ``check`` enabled both inputs
    must pass :func:`is_symplectic` on the base; odd base dimension is
    rejected up front.
    """
    n = t.dim
    if w1.dim != n or w2.dim != n:
        raise InvalidDimension("two-form dimensions do not match the base algebra")
    if check:
        if n % 2 == 1:
            raise NotSymplecticInput(
                f"no symplectic form exists in odd dimension {n}"
            )
        for name, w in (("first", w1), ("second", w2)):
            if not is_symplectic(t.input_algebra, w):
                raise NotSymplecticInput(
                    f"{name} two-form is not symplectic on the base algebra"
                )
    b1 = t.phi_data.b1
    isl = 1.0 / t.phi_data.sqrt_lambdas
    w1b = b1.T @ w1.w @ b1
    w2b = b1.T @ w2.w @ b1
    wt = np.zeros((2 * n, 2 * n))
    wt[n:, n:] = w1b
    cv = w2b * isl[None, :]  # wt(X_i^c, V_j) = w2(X_i, X_j) / sqrt(lambda_j)
    wt[n:, :n] = cv
    wt[:n, n:] = -cv.T
    # b1^T w b1 is antisymmetric in exact arithmetic; its rounding is not
    # an input error, so antisymmetrize before TwoForm checks it
    return TwoForm(0.5 * (wt - wt.T))


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
    cyc = _cocycle_tensor(t.lifted.c, wt.w) * np.einsum("i,j,k->ijk", scale, scale, scale)
    part = {"v": slice(0, n), "c": slice(n, 2 * n)}
    return {
        pattern: float(np.max(np.abs(cyc[tuple(part[ch] for ch in pattern)])))
        for pattern in CLOSEDNESS_PATTERNS
    }
