import os
import sys

import numpy as np
import pytest

from tanglie.cli_io import catalog_algebra

# the benchmark's checker, plain numpy that imports nothing from tanglie,
# is the tests' raw-basis oracle
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

CATALOG = ("abelian2", "abelian3", "aff1", "heisenberg", "solvable_rr2", "su2")

SWEEP_SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SWEEP_SEED)


@pytest.fixture
def heisenberg():
    return catalog_algebra("heisenberg")


@pytest.fixture
def solvable():
    return catalog_algebra("solvable_rr2")


@pytest.fixture
def su2():
    return catalog_algebra("su2")


@pytest.fixture
def aff1():
    return catalog_algebra("aff1")


@pytest.fixture(params=CATALOG)
def catalog_problem(request):
    return catalog_algebra(request.param)


def base_expr(labels, x) -> str:
    """A base-vector expression with exactly the coefficients of x."""
    # the grammar has no leading sign, so open with a zero term
    return f"0*{labels[0]}" + "".join(
        f" {'-' if v < 0 else '+'} {float(abs(v))!r}*{label}"
        for v, label in zip(x, labels)
    )


def h7_doc(seed, spread):
    """tanglie/1 document of h7 with an ill-conditioned rotated metric pair.

    [X_i, X_{3+i}] = X_7 for i = 1, 2, 3; g1 = I and g2 = Q diag(logspace(0,
    spread, 7)) Q^T, symmetrized, with Q the Q factor of a seeded Gaussian
    matrix, so the eigenvalues of the pair span 10^spread.
    """
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((7, 7)))
    g2 = q @ np.diag(np.logspace(0, spread, 7)) @ q.T
    return {
        "schema": "tanglie/1",
        "name": f"h7_seed{seed}_spread{spread}",
        "dim": 7,
        "brackets": [{"i": i, "j": 3 + i, "k": 6, "value": 1.0} for i in range(3)],
        "metrics": {"g1": np.eye(7).tolist(), "g2": (0.5 * (g2 + g2.T)).tolist()},
    }
