"""Acceptance suite: the end-to-end regression criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and the diagnostic block deviation report.
"""

import time

import numpy as np
import pytest

from tanglie.cli_io import catalog_algebra
from tanglie.errors import NotSymplecticInput
from tanglie.lie_core import bracket, center, pullback_metric
from tanglie.metric_geometry import (
    MetricLieAlgebra,
    bi_invariance_defect,
    curvature,
    curvature_invariant_defects,
    equivariance_defect,
    levi_civita,
    lie_derivative_metric,
    random_spd_metric,
    sectional,
)
from tanglie.symplectic_lift import lift_symplectic, verify_closedness_identities
from tanglie.tangent_lift import (
    build_tangent,
    complete_lift,
    curvature_block_deviations,
    lift_automorphism,
    lifted_connection_closed_form,
    lifted_connection_structure_constants,
    lifted_curvature,
    lifted_sectional,
    vertical_lift,
)
from conftest import CATALOG, SWEEP_SEED
from test_tangent_lift import _raw_koszul_in_frame

X, Y, Z = np.eye(3)

SWEEP_PAIRS = 50


def _emit(num, passed, detail):
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def _tangent(name):
    problem = catalog_algebra(name)
    return build_tangent(problem.algebra(), problem.metric("g1"), problem.metric("g2"))


def _sweep_cases():
    """Seeded metric-pair sweep over the whole catalog."""
    rng = np.random.default_rng(SWEEP_SEED)
    for name in CATALOG:
        algebra = catalog_algebra(name).algebra()
        for _ in range(SWEEP_PAIRS):
            yield name, build_tangent(
                algebra,
                random_spd_metric(rng, algebra.dim),
                random_spd_metric(rng, algebra.dim),
            )


def test_criterion_1_heisenberg_regression():
    start = time.perf_counter()
    t = _tangent("heisenberg")
    riem = lifted_curvature(t)
    k = lifted_sectional(t, vertical_lift(t, Y), vertical_lift(t, Z), riem)
    mixed = riem.apply(vertical_lift(t, X), complete_lift(t, Y), complete_lift(t, Z))
    expected_metric = np.zeros((6, 6))
    expected_metric[:3, :3] = np.diag([2.0, 2.0, 1.0])
    expected_metric[3:, 3:] = np.eye(3)
    elapsed = time.perf_counter() - start
    ok = (
        abs(k - 0.125) <= 1e-10
        and np.max(np.abs(mixed)) <= 1e-10
        and np.array_equal(lift_automorphism(t.input_g1.g, t.input_g2.g), expected_metric)
        and elapsed < 1.0
    )
    _emit(
        1,
        ok,
        f"K(Y^v,Z^v)={k!r}, |R(X^v,Y^c)Z^c|={np.max(np.abs(mixed)):.2e}, "
        f"metric block-exact, {elapsed:.3f}s",
    )


def test_criterion_2_solvable_regression():
    start = time.perf_counter()
    t = _tangent("solvable_rr2")
    riem = lifted_curvature(t)
    k = lifted_sectional(t, vertical_lift(t, Z), vertical_lift(t, X), riem)
    vvv = riem.apply(vertical_lift(t, X), vertical_lift(t, Y), vertical_lift(t, Z))
    lam_exact = sorted(t.phi_data.lambdas.tolist()) == [1.0, 2.0, 3.0]
    elapsed = time.perf_counter() - start
    ok = (
        abs(k - 1.0 / 12.0) <= 1e-10
        and np.max(np.abs(vvv)) <= 1e-10
        and lam_exact
        and elapsed < 1.0
    )
    _emit(
        2,
        ok,
        f"K(Z^v,X^v)={k!r}, |R(X^v,Y^v)Z^v|={np.max(np.abs(vvv)):.2e}, "
        f"lambdas exact={lam_exact}, {elapsed:.3f}s",
    )


def test_criterion_3_oracle_equivalence_sweep():
    start = time.perf_counter()
    worst_conn = 0.0
    worst_curv = 0.0
    count = 0
    for name, t in _sweep_cases():
        mla = t.lifted_mla()
        koszul = levi_civita(mla)
        # the raw-basis oracle solves no eigenproblem, so it checks all three routes
        raw = _raw_koszul_in_frame(t)
        for route in (koszul, lifted_connection_closed_form(t),
                      lifted_connection_structure_constants(t)):
            worst_conn = max(worst_conn, float(np.max(np.abs(route.gamma - raw))))
        defects = curvature_invariant_defects(mla, curvature(mla, koszul))
        worst_curv = max(worst_curv, max(defects.values()))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst_conn <= 1e-8 and worst_curv <= 1e-8 and elapsed < 30.0
    _emit(
        3,
        ok,
        f"{count} cases: max route gap to the raw-basis oracle {worst_conn:.2e}, "
        f"max curvature invariant defect {worst_curv:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_complete_sectional_matches_base():
    worst = 0.0
    for name, t in _sweep_cases():
        riem_t = lifted_curvature(t)
        riem_1 = curvature(t.base_mla1(), levi_civita(t.base_mla1()))
        n = t.dim
        for i in range(n):
            for j in range(i + 1, n):
                u = np.zeros(2 * n)
                u[n + i] = 1.0
                v = np.zeros(2 * n)
                v[n + j] = 1.0
                k_lift = lifted_sectional(t, u, v, riem_t)
                k_base = sectional(
                    t.base_mla1(), riem_1, np.eye(n)[i], np.eye(n)[j]
                )
                worst = max(worst, abs(k_lift - k_base))
    _emit(4, worst <= 1e-8, f"max |K_lift - K_base| over eigenbasis pairs {worst:.2e}")


def test_criterion_5_bi_invariant_pair():
    problem = catalog_algebra("su2")
    algebra = problem.algebra()
    t = build_tangent(algebra, problem.metric("g1"), problem.metric("g2"))
    conn = lifted_connection_closed_form(t)
    worst = 0.0
    some_bracket_nonzero = False
    for i in range(3):
        for j in range(3):
            x, y = np.eye(3)[i], np.eye(3)[j]
            xy = bracket(algebra, x, y)
            some_bracket_nonzero = some_bracket_nonzero or np.any(xy != 0)
            xv, yv = vertical_lift(t, x), vertical_lift(t, y)
            xc, yc = complete_lift(t, x), complete_lift(t, y)
            worst = max(
                worst,
                float(np.max(np.abs(conn.apply(xv, yv)))),
                float(np.max(np.abs(conn.apply(xv, yc)))),
                float(np.max(np.abs(conn.apply(xc, yv) - vertical_lift(t, xy)))),
                float(
                    np.max(np.abs(conn.apply(xc, yc) - 0.5 * complete_lift(t, xy)))
                ),
            )
    lift_fails_oneill = not (bi_invariance_defect(t.lifted_mla()) <= 1e-9)
    ok = worst <= 1e-9 and some_bracket_nonzero and lift_fails_oneill
    _emit(
        5,
        ok,
        f"max derivative identity residual {worst:.2e}; lift fails "
        f"ad-invariance with nonzero brackets: {lift_fails_oneill}",
    )


def test_criterion_6_vertical_killing_iff_central():
    agree = True
    heis_z_killing = False
    solvable_any_killing = False
    for name in CATALOG:
        problem = catalog_algebra(name)
        algebra = problem.algebra()
        t = build_tangent(algebra, problem.metric("g1"), problem.metric("g2"))
        mla = t.lifted_mla()
        central = center(algebra, tol=1e-9)
        span = np.array(central).T if central else np.zeros((algebra.dim, 0))
        for i in range(algebra.dim):
            x = np.eye(algebra.dim)[i]
            killing = (
                float(np.max(np.abs(lie_derivative_metric(mla, vertical_lift(t, x)))))
                <= 1e-9
            )
            in_center = (
                span.size > 0 and np.linalg.norm(x - span @ (span.T @ x)) <= 1e-9
            )
            agree = agree and (killing == in_center)
            if name == "heisenberg" and i == 2:
                heis_z_killing = killing
            if name == "solvable_rr2":
                solvable_any_killing = solvable_any_killing or killing
    ok = agree and heis_z_killing and not solvable_any_killing
    _emit(
        6,
        ok,
        f"boolean agreement={agree}, heisenberg Z^v killing={heis_z_killing}, "
        f"solvable vertical killing basis lift exists={solvable_any_killing}",
    )


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (1.0, 5.0), (0.5, 4.0)])
def test_criterion_7_equivariance(a, b):
    problem = catalog_algebra("heisenberg")
    algebra = problem.algebra()
    tau = np.diag([a, b, a * b])
    worst = 0.0
    for metric_name in ("g1", "g2"):
        mla = MetricLieAlgebra(algebra, problem.metric(metric_name))
        pulled = MetricLieAlgebra(algebra, pullback_metric(mla.metric, tau))
        defects = equivariance_defect(mla, pulled, tau)
        worst = max(
            worst,
            defects.connection_defect,
            defects.curvature_defect,
            defects.sectional_defect,
        )
    big = lift_automorphism(tau, tau)
    t = build_tangent(algebra, problem.metric("g1"), problem.metric("g2"))
    g_lift = lift_automorphism(t.input_g1.g, t.input_g2.g)
    expected = np.zeros((6, 6))
    expected[:3, :3] = tau.T @ problem.metric("g2").g @ tau
    expected[3:, 3:] = tau.T @ problem.metric("g1").g @ tau
    pullback_defect = float(np.max(np.abs(big.T @ g_lift @ big - expected)))
    ok = worst <= 1e-8 and pullback_defect <= 1e-9
    _emit(
        7,
        ok,
        f"tau=diag({a},{b},{a * b}): equivariance {worst:.2e}, "
        f"lifted pullback {pullback_defect:.2e}",
    )


def test_criterion_8_symplectic_lift():
    worst_closed = 0.0
    smallest_sv = np.inf
    for name in ("aff1", "abelian2"):
        problem = catalog_algebra(name)
        t = build_tangent(
            problem.algebra(), problem.metric("g1"), problem.metric("g2")
        )
        lifted = lift_symplectic(t, problem.two_form("w1"), problem.two_form("w2"))
        residuals = verify_closedness_identities(t, lifted)
        worst_closed = max(worst_closed, max(residuals.values()))
        smallest_sv = min(
            smallest_sv, float(np.linalg.svd(lifted.w, compute_uv=False)[-1])
        )
    t_odd = _tangent("heisenberg")
    w_odd = np.zeros((3, 3))
    w_odd[0, 1], w_odd[1, 0] = 1.0, -1.0
    from tanglie.symplectic_lift import TwoForm

    try:
        lift_symplectic(t_odd, TwoForm(w_odd), TwoForm(w_odd))
        odd_rejected = False
    except NotSymplecticInput:
        odd_rejected = True
    ok = worst_closed <= 1e-9 and smallest_sv > 1e-6 and odd_rejected
    _emit(
        8,
        ok,
        f"max closedness residual {worst_closed:.2e}, smallest singular value "
        f"{smallest_sv:.2e}, odd dimension rejected={odd_rejected}",
    )


def test_criterion_9_structure_constant_curvature_blocks():
    worst = dict.fromkeys(("ccc", "ccv", "vcc", "vvc", "vcv", "vvv"), 0.0)
    for name, t in _sweep_cases():
        dev = curvature_block_deviations(t, lifted_curvature(t))
        for key in worst:
            worst[key] = max(worst[key], dev[key])
    ok = max(worst.values()) <= 1e-8
    _emit(9, ok, "gated blocks " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
