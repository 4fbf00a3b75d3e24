"""Independent checker for the benchmark, in plain numpy.

It recomputes the lifted geometry in the raw lift basis
{X_1^v, ..., X_n^v, X_1^c, ..., X_n^c} of the input basis, where the
lifted metric is blockdiag(g2, g1) and the bracket is read off the base
structure constants.  Nothing here solves an eigenproblem or imports
tanglie, so a fault in the library's eigen-solve, basis change or
closed forms cannot hide in the reference values.

Library results live in the normalized lift frame.  That frame is the
matrix ``P = blockdiag(b1 diag(1/sqrt(lambda)), b1)`` whose columns are
the frame vectors in raw coordinates; :func:`frame_residuals` checks the
eigenpairs the library returned, and quantities are compared only after
mapping the raw ones into that frame, or on planes, which do not depend
on a basis.
"""

from __future__ import annotations

import numpy as np

# Relative tolerances.  Every comparison is scaled by the size of the
# reference quantity, so they hold for well- and ill-conditioned inputs.
RTOL = 1e-8
EIG_RTOL = 1e-9


def raw_bracket(c: np.ndarray) -> np.ndarray:
    """Bracket tensor of the raw lift basis, vertical lifts first.

    [X^c, Y^c] = [X, Y]^c, [X^c, Y^v] = [X^v, Y^c] = [X, Y]^v, [X^v, Y^v] = 0.
    """
    n = c.shape[0]
    b = np.zeros((2 * n, 2 * n, 2 * n))
    b[n:, n:, n:] = c
    b[n:, :n, :n] = c
    b[:n, n:, :n] = c
    return b


def raw_metric(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    n = g1.shape[0]
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = g2
    g[n:, n:] = g1
    return g


def koszul(b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """gamma[i, j, k]: coefficient of e_k in nabla_{e_i} e_j (Koszul formula)."""
    low = np.tensordot(b, g, axes=(2, 0))  # g([e_i, e_j], e_k)
    k = 0.5 * (low - low.transpose(2, 0, 1) + low.transpose(1, 2, 0))
    return np.tensordot(k, np.linalg.inv(g), axes=(2, 0))


def curvature(gamma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r[i, j, k, h]: coefficient of e_h in R(e_i, e_j) e_k."""
    t = np.tensordot(gamma, gamma, axes=(2, 1)).transpose(2, 0, 1, 3)  # nabla_i nabla_j e_k
    return t - t.transpose(1, 0, 2, 3) - np.tensordot(b, gamma, axes=(2, 0))


def lift_frame(b1: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    n = b1.shape[0]
    p = np.zeros((2 * n, 2 * n))
    p[:n, :n] = b1 / np.sqrt(lambdas)[None, :]
    p[n:, n:] = b1
    return p


def frame_residuals(b1, lambdas, g1, g2) -> tuple[float, float]:
    """Residuals of b1^T g1 b1 = I and b1^T g2 b1 = diag(lambda), relative to lambda."""
    scale = np.sqrt(np.outer(lambdas, lambdas))
    r1 = np.max(np.abs(b1.T @ g1 @ b1 - np.eye(len(lambdas))))
    r2 = np.max(np.abs(b1.T @ g2 @ b1 - np.diag(lambdas)) / scale)
    return float(r1), float(r2)


def to_frame3(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Change basis of a (2,1) tensor such as a bracket or a connection."""
    t = np.tensordot(p, t, axes=(0, 0))  # i, b, c
    t = np.tensordot(p, t, axes=(0, 1)).transpose(1, 0, 2)  # i, j, c
    return np.tensordot(t, np.linalg.inv(p), axes=(2, 1))


def sectional(gamma, b, g, u, v) -> float:
    """Sectional curvature of span(u, v) straight from the connection."""
    def nab(x, y):
        return x @ np.tensordot(y, gamma, axes=(0, 1))

    ruvv = nab(u, nab(v, v)) - nab(v, nab(u, v)) - nab(u @ np.tensordot(v, b, axes=(0, 1)), v)
    gram = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    return float(ruvv @ g @ u / gram)


def pair_sectionals(gamma, b, g) -> np.ndarray:
    """K(e_i, e_j) for every pair of basis vectors; zero on the diagonal."""
    diag = np.einsum("jjm->jm", gamma)
    rv = (
        np.einsum("jm,imh->ijh", diag, gamma)
        - np.einsum("ijm,jmh->ijh", gamma, gamma)
        - np.einsum("ijm,mjh->ijh", b, gamma)
    )
    num = np.einsum("ijh,hi->ij", rv, g)
    d = np.diag(g)
    gram = np.outer(d, d) - g**2
    np.fill_diagonal(gram, 1.0)
    k = num / gram
    np.fill_diagonal(k, 0.0)
    return k


def torsion_defect(gamma, b) -> float:
    return float(np.max(np.abs(gamma - gamma.transpose(1, 0, 2) - b)))


def compatibility_defect(gamma, g) -> float:
    low = np.tensordot(gamma, g, axes=(2, 0))
    return float(np.max(np.abs(low + low.transpose(0, 2, 1))))


def curvature_symmetry_defects(r, g) -> dict[str, float]:
    low = np.tensordot(r, g, axes=(3, 0))
    return {
        "antisymmetry": float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
        "first_bianchi": float(
            np.max(np.abs(r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)))
        ),
        "pair_symmetry": float(np.max(np.abs(low - low.transpose(2, 3, 0, 1)))),
    }


def raw_two_form(w1, w2) -> np.ndarray:
    """Lifted form on raw lifts: (c, c) -> w1, (c, v) -> w2, (v, v) -> 0."""
    n = w1.shape[0]
    w = np.zeros((2 * n, 2 * n))
    w[n:, n:] = w1
    w[n:, :n] = w2
    w[:n, n:] = -w2.T
    return w


def cocycle_defect(b, w) -> float:
    t = np.tensordot(b, w, axes=(2, 0))  # w([e_i, e_j], e_k)
    return float(np.max(np.abs(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1))))


def automorphism_defect(c, tau) -> float:
    """max |tau [X_i, X_j] - [tau X_i, tau X_j]| over basis pairs."""
    lhs = np.tensordot(c, tau, axes=(2, 1))
    rhs = np.tensordot(tau, np.tensordot(tau, c, axes=(0, 1)), axes=(0, 1))  # i, j, k
    return float(np.max(np.abs(lhs - rhs)))


def ad(c, x) -> np.ndarray:
    """Matrix of y -> [x, y] on coefficient vectors."""
    return np.tensordot(x, c, axes=(0, 0)).T


def killing_residual(c, g, x) -> float:
    """max |L_x g| on the left-invariant frame."""
    a = ad(c, x)
    return float(np.max(np.abs(a.T @ g + g @ a)))


def base_residuals(c, g) -> dict[str, float]:
    """The `check` command's residuals, through ad matrices of brackets."""
    n = c.shape[0]
    low = np.tensordot(c, g, axes=(2, 0))  # g([X_i, X_j], X_k)
    bi = np.max(np.abs(low.transpose(2, 0, 1) - low))  # g(X_i, [X_j, X_k]) - g([X_i, X_j], X_k)
    metricity = dbl = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            a = ad(c, c[i, j])
            metricity = max(metricity, np.max(np.abs(a.T @ g + g @ a)))
            dbl = max(dbl, np.max(np.abs(a.T @ g)))
    return {
        "bi_invariance": float(bi),
        "canonical_metricity": float(metricity),
        "double_bracket": float(dbl),
    }


class Verdict:
    """Collects the names of failed checks for one operation."""

    def __init__(self):
        self.failures: list[str] = []

    def ok(self, name: str, passed) -> None:
        if not bool(passed):
            self.failures.append(name)

    def small(self, name: str, value, scale=1.0, rtol=RTOL) -> None:
        value = float(value)
        self.ok(name, np.isfinite(value) and value <= rtol * max(1.0, float(scale)))

    def close(self, name: str, got, want, rtol=RTOL) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(np.isfinite(got)):
            self.failures.append(name)
            return
        self.small(name, np.max(np.abs(got - want), initial=0.0),
                   np.max(np.abs(want), initial=0.0), rtol)
