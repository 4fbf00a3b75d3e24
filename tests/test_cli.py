"""Command-line surface: loading, reports, exit codes, determinism."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import tanglie
from tanglie import cli_io
from tanglie.cli_io import (
    catalog_algebra,
    load_problem,
    parse_base_expr,
    parse_lifted_expr,
    problem_from_dict,
    run_command,
)
from tanglie.errors import ExprError, ParseError, UnknownCatalogEntry, ValidationError
from tanglie.lie_core import CHECK_TOL, LieAlgebra, Metric, center, change_basis_constants
from tanglie.metric_geometry import (
    MetricLieAlgebra,
    levi_civita,
    lie_derivative_metric,
    random_spd_metric,
)
from tanglie.tangent_lift import build_tangent, compute_phi, vertical_lift

import tracing
from conftest import CATALOG, SWEEP_SEED, base_expr, h7_doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def _diag_list(*entries):
    return np.diag(entries).tolist()


def _heisenberg_doc():
    return {
        "schema": "tanglie/1",
        "name": "heis",
        "dim": 3,
        "basis": ["X", "Y", "Z"],
        "brackets": [{"i": 0, "j": 1, "k": 2, "value": 1.0}],
        "metrics": {
            "g1": np.eye(3).tolist(),
            "g2": np.diag([2.0, 2.0, 1.0]).tolist(),
        },
    }


# ---------------------------------------------------------------------------
# load_problem
# ---------------------------------------------------------------------------


def test_load_problem_runs_jacobi_check(tmp_path):
    problem = load_problem(_write(tmp_path, "h.json", _heisenberg_doc()))
    assert problem.dim == 3
    assert problem.basis == ("X", "Y", "Z")


def test_load_rejects_malformed_json(tmp_path):
    with pytest.raises(ParseError):
        load_problem(_write(tmp_path, "bad.json", "{not json"))


def test_load_rejects_duplicate_orientation(tmp_path):
    doc = _heisenberg_doc()
    doc["brackets"].append({"i": 1, "j": 0, "k": 2, "value": 1.0})
    with pytest.raises(ValidationError, match="i < j"):
        load_problem(_write(tmp_path, "dup.json", doc))


def test_load_rejects_indefinite_metric(tmp_path):
    doc = _heisenberg_doc()
    doc["metrics"]["g1"] = np.diag([1.0, -1.0, 1.0]).tolist()
    with pytest.raises(ValidationError, match="metrics.g1"):
        load_problem(_write(tmp_path, "npd.json", doc))


NON_JACOBI = {(0, 1, 2): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0}  # max|J| = max P = 1


def test_load_rejects_jacobi_violation(tmp_path):
    doc = _heisenberg_doc()
    doc["brackets"] = [
        {"i": 0, "j": 1, "k": 2, "value": 1.0},
        {"i": 0, "j": 2, "k": 2, "value": 1.0},
        {"i": 1, "j": 2, "k": 0, "value": 1.0},
    ]
    with pytest.raises(ValidationError, match="Jacobi"):
        load_problem(_write(tmp_path, "jac.json", doc))


def _scaled_doc(c, s, metrics):
    """A problem file of the bracket s * c, whose entries i < j are written."""
    c = s * np.asarray(c)
    return {
        "schema": "tanglie/1",
        "dim": c.shape[0],
        "brackets": [
            {"i": int(i), "j": int(j), "k": int(k), "value": float(c[i, j, k])}
            for i, j, k in np.argwhere(c)
            if i < j
        ],
        "metrics": metrics,
    }


@pytest.mark.parametrize("s", [1e-8, 1e-4, 1e4, 1e8])
def test_scaled_brackets_get_scale_free_verdicts(s, tmp_path, capsys):
    # c and s c are isomorphic by the basis X_i / s, and the Jacobi rule
    # scales with max P = max |c| x |c| once that reaches 1
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    problems = {name: catalog_algebra(name) for name in CATALOG}
    cases = [(name, p.algebra().c, p.to_dict()["metrics"]) for name, p in problems.items()]
    su2 = problems["su2"]
    rotated = change_basis_constants(su2.algebra(), q)
    cases.append(("rotated su2", rotated.c, su2.to_dict()["metrics"]))
    for name, c, metrics in cases:
        path = _write(tmp_path, "p.json", _scaled_doc(c, s, metrics))
        assert run_command(["check", path]) == 0, name
    capsys.readouterr()
    # the bracket of test_load_rejects_jacobi_violation
    broken = s * LieAlgebra.from_brackets(3, NON_JACOBI).c
    path = _write(tmp_path, "bad.json", _scaled_doc(broken, 1.0, _heisenberg_doc()["metrics"]))
    eye = Metric.identity(3)
    if s < 10**-4.5:
        # the defect s^2 max P is under the rule's absolute floor EPS_JACOBI,
        # which holds while max P < 1: accepted, as by the absolute rule before
        load_problem(path)
        build_tangent(LieAlgebra.from_tensor(broken), eye, eye)
        return
    with pytest.raises(ValidationError, match="brackets: Jacobi identity violated"):
        load_problem(path)
    with pytest.raises(ValidationError, match="Jacobi identity violated"):
        build_tangent(LieAlgebra.from_tensor(broken), eye, eye)


def test_catalog_unknown_entry():
    with pytest.raises(UnknownCatalogEntry):
        catalog_algebra("nope")


CATALOG_DIGESTS = {
    "abelian2": "sha256:33bb36f52c9e1a3d9e919667cd9ff1e8a9fa416b75d9802940c034d5177086ed",
    "abelian3": "sha256:51fef63167c8e7108c11dca5f9726bc9b56ec2c68bbe84abe7b473d3d46c9528",
    "aff1": "sha256:b5bd9cee1ad21b8c0dd07ed9462f67ba2ee01d44515cc0d0dbe533ce08d1b0f5",
    "heisenberg": "sha256:4058825f2b589024a544cbac29c68a33599391d13844a54f534c6263ebf79e09",
    "solvable_rr2": "sha256:bb677fd71cb5dade969399a1cc961db1d1d71741ee9b14e1e1f09be12d6880ed",
    "su2": "sha256:2b98fd46eb616fdb7cc02c6c91d126609723b0562add1133ab22d9f6d868a958",
}


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_digest_is_pinned(name):
    assert catalog_algebra(name).digest() == CATALOG_DIGESTS[name]


def test_catalog_calls_get_fresh_arrays():
    first = catalog_algebra("aff1")
    first.metrics["g2"][0, 0] = 7.0
    first.symplectic["w1"][0, 1] = 7.0
    second = catalog_algebra("aff1")
    assert second.metrics["g2"][0, 0] == 1.0
    assert second.symplectic["w1"][0, 1] == 1.0
    assert second.digest() == CATALOG_DIGESTS["aff1"]


def test_catalog_heisenberg_contents():
    problem = catalog_algebra("heisenberg")
    npt.assert_array_equal(problem.metrics["g2"], np.diag([2.0, 2.0, 1.0]))
    npt.assert_allclose(
        problem.algebra().c[0, 1], np.array([0.0, 0.0, 1.0])
    )


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------


def _heis_tangent():
    problem = catalog_algebra("heisenberg")
    return build_tangent(
        problem.algebra(), problem.metric("g1"), problem.metric("g2")
    )


def test_parse_complete_basis_vector():
    t = _heis_tangent()
    u = parse_lifted_expr(t, "X^c")
    i = t.base.basis_labels.index("X")
    expected = np.zeros(6)
    expected[3 + i] = 1.0
    npt.assert_allclose(u, expected, atol=1e-12)


def test_parse_mixed_expression():
    t = _heis_tangent()
    u = parse_lifted_expr(t, "0.5*X^v + Z^c - 2*Y^v")
    from tanglie.tangent_lift import complete_lift, vertical_lift

    expected = (
        0.5 * vertical_lift(t, [1, 0, 0])
        + complete_lift(t, [0, 0, 1])
        - 2.0 * vertical_lift(t, [0, 1, 0])
    )
    npt.assert_allclose(u, expected, atol=1e-12)


@pytest.mark.parametrize(
    "expr,column",
    [
        ("X^w", 2),
        ("Q^c", 0),
        ("2 Y^v", 2),
        ("X^c +", 5),
        ("", 0),
        ("X^c + 1e999*Y^v", 6),
    ],
)
def test_parse_errors_carry_columns(expr, column):
    t = _heis_tangent()
    with pytest.raises(ExprError) as err:
        parse_lifted_expr(t, expr)
    assert err.value.column == column


def test_parse_base_expression():
    algebra = catalog_algebra("heisenberg").algebra()
    npt.assert_allclose(parse_base_expr(algebra, "X + 2*Z"), [1.0, 0.0, 2.0])
    with pytest.raises(ExprError):
        parse_base_expr(algebra, "X^c")


# ---------------------------------------------------------------------------
# run_command: values and exit codes
# ---------------------------------------------------------------------------


def _run_json(argv, capsys):
    code = run_command(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_sectional_heisenberg(capsys):
    code, report = _run_json(
        ["sectional", "heisenberg", "--plane", "Y^v,Z^v"], capsys
    )
    assert code == 0
    npt.assert_allclose(report["result"]["sectional"], 0.125, atol=1e-12)


def test_sectional_solvable(capsys):
    code, report = _run_json(
        ["sectional", "solvable_rr2", "--plane", "Z^v,X^v"], capsys
    )
    assert code == 0
    npt.assert_allclose(report["result"]["sectional"], 1.0 / 12.0, atol=1e-12)


def test_connection_lift_abelian_zero(capsys):
    code, report = _run_json(
        ["connection", "abelian3", "--metric", "lift"], capsys
    )
    assert code == 0
    data = np.array(report["result"]["connection"]["data"])
    npt.assert_allclose(data, 0.0)


def test_connection_methods_agree(capsys):
    reports = {}
    for method in ("koszul", "closed", "structconst"):
        code, reports[method] = _run_json(
            ["connection", "heisenberg", "--metric", "lift", "--method", method],
            capsys,
        )
        assert code == 0
    data = {m: np.array(r["result"]["connection"]["data"]) for m, r in reports.items()}
    npt.assert_allclose(data["koszul"], data["closed"], atol=1e-10)
    # structconst is the paper's name for the Koszul route: the same tensor, bit for bit
    assert data["structconst"].tobytes() == data["koszul"].tobytes()
    assert reports["structconst"]["checks"] == reports["koszul"]["checks"]


def test_curvature_compare_blocks(capsys):
    code, report = _run_json(
        ["curvature", "solvable_rr2", "--metric", "lift", "--compare"], capsys
    )
    assert code == 0
    dev = report["result"]["block_deviations"]
    assert set(dev) == {"ccc", "ccv", "vcc", "vvc", "vcv", "vvv"}
    rows = [row for row in report["checks"] if row["name"].startswith("block_")]
    assert [row["name"] for row in rows] == [f"block_{key}_vs_oracle" for key in dev]
    assert all(row["passed"] is True for row in rows)
    assert max(dev.values()) <= 1e-15


def test_check_command(capsys):
    code, report = _run_json(["check", "su2"], capsys)
    assert code == 0
    assert report["result"]["metrics"]["g1"]["bi_invariant"] is True


def test_field_command(capsys):
    code, report = _run_json(
        ["field", "heisenberg", "--vector", "Z"], capsys
    )
    assert code == 0
    res = report["result"]
    assert res["killing"] == {"g1": True, "g2": True}
    assert res["in_center"] is True and res["vertical_lift_killing"] is True


@pytest.mark.parametrize(
    "name, vector, geodesic",
    [
        ("su2", "1e160*X", True),
        ("heisenberg", "1e160*X", True),
        ("heisenberg", "1e-5*X + 1e-5*Z", False),
        ("heisenberg", "X + Z", False),
    ],
)
def test_field_geodesic_does_not_depend_on_scale(name, vector, geodesic, capsys):
    code, report = _run_json(["field", name, "--vector", vector], capsys)
    assert code == 0
    assert report["result"]["geodesic"] == {"g1": geodesic, "g2": geodesic}


def _normalized_frame_vertical_killing(problem, x) -> bool:
    """Reference: the Lie derivative of the lifted metric along x^v, taken in
    the orthonormal eigenbasis frame of a built tangent algebra."""
    t = build_tangent(problem.algebra(), problem.metric("g1"), problem.metric("g2"))
    lie_l = lie_derivative_metric(t.lifted_mla(), vertical_lift(t, x))
    return float(np.max(np.abs(lie_l))) <= CHECK_TOL


@pytest.mark.parametrize("name", CATALOG)
def test_field_vertical_lift_killing_matches_normalized_frame(name, tmp_path, capsys):
    rng = np.random.default_rng(SWEEP_SEED)
    docs = [catalog_algebra(name).to_dict()]
    for k in range(2):
        doc = catalog_algebra(name).to_dict()
        n = doc["dim"]
        doc["metrics"] = {
            "g1": random_spd_metric(rng, n).g.tolist(),
            "g2": random_spd_metric(rng, n).g.tolist(),
        }
        docs.append(doc)
    for k, doc in enumerate(docs):
        problem = problem_from_dict(doc)
        algebra = problem.algebra()
        n = algebra.dim
        central = center(algebra)
        vectors = [algebra.basis_vector(i) for i in range(n)]
        vectors.append(rng.standard_normal(n))
        if central:
            vectors.append(rng.standard_normal(len(central)) @ np.array(central))
        path = _write(tmp_path, f"p{k}.json", doc)
        for x in vectors:
            code = run_command(
                ["field", path, "--vector", base_expr(algebra.basis_labels, x), "--json"]
            )
            result = json.loads(capsys.readouterr().out)["result"]
            assert code == 0
            want = _normalized_frame_vertical_killing(problem, x)
            assert result["vertical_lift_killing"] is want
            assert result["in_center"] is want


def test_field_builds_no_tangent(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("field must not build a tangent algebra")

    monkeypatch.setattr(tanglie.tangent_lift, "build_tangent", forbidden)
    for vector in ("Z", "X + 2*Z"):
        assert run_command(["field", "heisenberg", "--vector", vector]) == 0
    capsys.readouterr()


def test_equiv_command(capsys):
    code, report = _run_json(
        ["equiv", "heisenberg", "--tau", "dilation", "--tau2", "dilation"], capsys
    )
    assert code == 0
    assert report["result"]["lifted_is_automorphism"] is True


def test_equiv_rejects_non_automorphism(tmp_path, capsys):
    assert run_command(["equiv", "heisenberg", "--tau", "not_auto"]) == 2
    # refused before any metric is read, so a problem without metrics too
    doc = dict(_heisenberg_doc(), metrics={}, automorphisms={"d": _diag_list(2.0, 3.0, 1.0)})
    assert run_command(["equiv", _write(tmp_path, "bare.json", doc), "--tau", "d"]) == 2
    assert "PreconditionViolated: map is not an automorphism" in capsys.readouterr().err


def test_equiv_without_a_verdict_is_refused(tmp_path, capsys):
    # no metrics and no lifted check: the report would pass with no row; a tau
    # that is no automorphism is refused before (test_equiv_rejects_non_automorphism)
    doc = dict(_heisenberg_doc(), metrics={})
    shear = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    doc["automorphisms"] = {"d": _diag_list(2.0, 3.0, 6.0), "shear": shear}
    bare = _write(tmp_path, "bare.json", doc)
    for extra in ([], ["--tau2", "shear"]):
        assert run_command(["equiv", bare, "--tau", "d", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: PreconditionViolated: nothing to judge: the problem has no metrics, "
            "and no --tau2 equal to --tau\n"
        )
    # (d, shear) lifts to no automorphism; the lifted check of (d, d) is a verdict
    code, report = _run_json(["equiv", bare, "--tau", "d", "--tau2", "d"], capsys)
    assert code == 0
    assert [row["name"] for row in report["checks"]] == ["lifted_automorphism"]


def test_equiv_large_automorphism_passes(tmp_path, capsys):
    # entries in the hundreds: the absolute curvature gap was 8.2e-3 of pure
    # rounding; each defect is now relative to the tensors it compares
    a, b, c, d, e, f = (134.366877, 182.85812, 620.421919, 561.308716, 860.691177, -491.122815)
    g = [[2, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1]]
    doc = dict(_heisenberg_doc(), metrics={"g1": g, "g2": g})
    doc["automorphisms"] = {"big": [[a, b, 0], [c, d, 0], [e, f, a * d - b * c]]}
    code, report = _run_json(["equiv", _write(tmp_path, "big.json", doc), "--tau", "big"], capsys)
    assert code == 0
    for defects in report["result"]["defects"].values():
        assert max(defects.values()) <= 1e-12


def test_equiv_small_metric_passes(tmp_path, capsys):
    # a basis plane of 1e-7 I has Gram determinant 1e-14 but is not degenerate
    doc = _heisenberg_doc()
    doc["metrics"]["g1"] = (1e-7 * np.eye(3)).tolist()
    doc["automorphisms"] = {"dilation": np.diag([2.0, 3.0, 6.0]).tolist()}
    small = _write(tmp_path, "small.json", doc)
    assert run_command(["check", small]) == 0
    assert run_command(["equiv", small, "--tau", "dilation"]) == 0
    capsys.readouterr()


def _small_g1_docs():
    """Valid pairs with a small g1, whose lifted brackets are large."""
    aff1 = catalog_algebra("aff1").to_dict()
    aff1["metrics"] = {
        "g1": (1e-7 * np.array([[2, 0.7], [0.7, 1]])).tolist(),
        "g2": [[1, 0.2], [0.2, 3]],
    }
    heisenberg = catalog_algebra("heisenberg").to_dict()
    a = np.random.default_rng(3).standard_normal((3, 3))
    heisenberg["metrics"]["g1"] = (1e-9 * (a.T @ a + np.eye(3))).tolist()
    return [aff1, heisenberg]


def test_lift_small_metric_passes_jacobi_guard(tmp_path, capsys):
    # max|lifted bracket| is 6.2e3 on aff1; the Jacobi rounding of 3.7e-9
    # is 1e-16 of its square, which an absolute bound 1e-9 would reject.
    # Each command judges its input by the one relative rule.
    docs = _small_g1_docs()
    rng = np.random.default_rng(11)
    for name in ("heisenberg", "solvable_rr2", "su2", "aff1"):
        for s in (1e-6, 1e-8, 1e-10):
            doc = catalog_algebra(name).to_dict()
            a = rng.standard_normal((doc["dim"], doc["dim"]))
            doc["metrics"]["g1"] = (s * (a.T @ a + np.eye(doc["dim"]))).tolist()
            docs.append(doc)
    out = str(tmp_path / "lifted.json")
    for k, doc in enumerate(docs):
        small = _write(tmp_path, "small.json", doc)
        assert run_command(["connection", small, "--metric", "lift"]) == 0, k
        assert run_command(["lift", small]) == 0, k
        assert run_command(["lift", small, "-o", out]) == 0, k
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["dim"] == 2 * doc["dim"]
        # the lifted bracket reaches 6.2e3; the Jacobi rule is relative to it
        assert run_command(["check", out]) == 0, k
    capsys.readouterr()


def test_symplectic_command(capsys):
    code, report = _run_json(["symplectic", "aff1"], capsys)
    assert code == 0
    assert report["result"]["smallest_singular_value"] > 1e-6


def _aff1_symplectic_doc(scale=1.0, **metrics):
    doc = catalog_algebra("aff1").to_dict()
    doc["metrics"].update({k: np.asarray(v).tolist() for k, v in metrics.items()})
    doc["symplectic"] = {k: (scale * np.array(w)).tolist() for k, w in doc["symplectic"].items()}
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _aff1_symplectic_doc(g2=np.diag([1e13, 1.0])),
        _aff1_symplectic_doc(1e-7),
        _aff1_symplectic_doc(1e-10),
        _aff1_symplectic_doc(1e8, g1=[[2, 0.7], [0.7, 1]], g2=[[1, 0.2], [0.2, 3]]),
        _aff1_symplectic_doc(1e308),  # w - w^T would overflow in the lift
    ],
    ids=["g2_spread_1e13", "forms_1e-7", "forms_1e-10", "forms_1e8_rotated", "forms_1e308"],
)
def test_symplectic_verdict_ignores_scale(doc, tmp_path, capsys):
    # valid symplectic pairs that absolute bounds once judged FAIL or refused
    code, report = _run_json(["symplectic", _write(tmp_path, "p.json", doc)], capsys)
    assert code == 0
    # only the four patterns with terms: vvv, vvc, vcv and cvv are 0 by the theorem
    assert [r["name"] for r in report["checks"]] == [
        f"closedness_{p}" for p in ("ccc", "ccv", "cvc", "vcc")
    ]
    assert all(r["passed"] for r in report["checks"])


def test_symplectic_sweep_over_scales_and_spreads(tmp_path, capsys):
    # aff1 + aff1 with w1 = s*J; w2 = s*J is symplectic, w2 = s*e^X1^e^Y1
    # is closed but degenerate, so the lift of that pair must be refused
    j = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    degenerate = np.zeros((4, 4))
    degenerate[0, 1], degenerate[1, 0] = 1.0, -1.0
    base = {
        "schema": "tanglie/1",
        "dim": 4,
        "basis": ["X1", "Y1", "X2", "Y2"],
        "brackets": [
            {"i": 0, "j": 1, "k": 1, "value": 1.0},
            {"i": 2, "j": 3, "k": 3, "value": 1.0},
        ],
    }
    codes = {"valid": [], "degenerate": []}
    for s in 10.0 ** np.arange(-12, 13, 3):
        for spread in (1.0, 1e4, 1e8, 1e12, 1e14):
            metrics = {"g1": np.eye(4).tolist(), "g2": np.diag(np.geomspace(1, spread, 4)).tolist()}
            for kind, w2 in (("valid", j), ("degenerate", degenerate)):
                doc = dict(base, metrics=metrics,
                           symplectic={"w1": (s * j).tolist(), "w2": (s * w2).tolist()})
                codes[kind].append(run_command(["symplectic", _write(tmp_path, "p.json", doc)]))
                err = capsys.readouterr().err
                if kind == "degenerate":
                    assert "NotSymplecticInput" in err, (s, spread)
    assert codes == {"valid": [0] * 45, "degenerate": [2] * 45}


def test_symplectic_command_forms_the_lifted_cocycle_once(monkeypatch, capsys):
    from tanglie import symplectic_lift

    sides = []
    original = symplectic_lift._cocycle_tensor

    def counted(c, w):
        sides.append(c.shape[0])
        return original(c, w)

    monkeypatch.setattr(symplectic_lift, "_cocycle_tensor", counted)
    assert run_command(["symplectic", "aff1"]) == 0
    capsys.readouterr()
    assert sides.count(4) == 1  # the (2n)^3 tensor of the lift, n = 2


def test_symplectic_odd_dimension_rejected(capsys):
    assert run_command(["symplectic", "heisenberg"]) == 2
    assert "NotSymplecticInput" in capsys.readouterr().err


def test_lift_round_trip(tmp_path, capsys):
    code, report = _run_json(["lift", "heisenberg"], capsys)
    assert code == 0
    doc = report["result"]["problem"]
    reloaded = problem_from_dict(doc)
    conn_reloaded = levi_civita(
        MetricLieAlgebra(reloaded.algebra(), reloaded.metric("g1"))
    )
    t = _heis_tangent()
    conn_memory = levi_civita(t.lifted_mla())
    npt.assert_allclose(conn_reloaded.gamma, conn_memory.gamma, atol=1e-9)
    npt.assert_array_equal(
        np.array(doc["meta"]["lifted_metric_unnormalized"]),
        np.array(
            np.block(
                [
                    [np.diag([2.0, 2.0, 1.0]), np.zeros((3, 3))],
                    [np.zeros((3, 3)), np.eye(3)],
                ]
            )
        ),
    )


def test_lift_document_is_the_tangent_bit_for_bit(tmp_path, capsys):
    rng = np.random.default_rng(SWEEP_SEED)
    docs = _small_g1_docs()
    for name in CATALOG:
        doc = catalog_algebra(name).to_dict()
        docs.append(doc)
        for _ in range(3):
            g1, g2 = (random_spd_metric(rng, doc["dim"]).g.tolist() for _ in range(2))
            docs.append(dict(doc, metrics={"g1": g1, "g2": g2}))
    out = str(tmp_path / "lifted.json")
    for k, doc in enumerate(docs):
        path = _write(tmp_path, "p.json", doc)
        code, report = _run_json(["lift", path, "-o", out], capsys)
        assert code == 0, k
        emitted = report["result"]["problem"]
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == emitted, k
        problem = load_problem(path)
        t = build_tangent(problem.algebra(), problem.metric("g1"), problem.metric("g2"))
        rebuilt = load_problem(out).algebra()
        assert rebuilt.c.tobytes() == t.lifted.c.tobytes(), k
        assert tuple(emitted["basis"]) == t.lifted.basis_labels, k
        meta = emitted["meta"]
        assert np.array(meta["lambdas"]).tobytes() == t.phi_data.lambdas.tobytes(), k
        assert np.array(meta["eigenbasis_columns"]).tobytes() == t.phi_data.b1.tobytes(), k


def test_lift_writes_output_file(tmp_path, capsys):
    out = tmp_path / "lifted.json"
    code = run_command(["lift", "heisenberg", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    reloaded = load_problem(str(out))
    assert reloaded.dim == 6


def test_lift_reads_its_own_output(tmp_path, capsys):
    once, twice = str(tmp_path / "once.json"), str(tmp_path / "twice.json")
    assert run_command(["lift", "heisenberg", "-o", once]) == 0
    assert run_command(["lift", once, "-o", twice]) == 0
    capsys.readouterr()
    labels = load_problem(twice).algebra().basis_labels
    assert "Z^v^v" in labels and "X^c^c" in labels
    # expressions name suffixed labels; in a lifted one the last suffix is the lift
    assert run_command(["field", once, "--vector", "Z^v + 2*X^c", "--json"]) == 0
    assert run_command(["sectional", once, "--plane", "Z^v^c,X^c^v", "--json"]) == 0
    capsys.readouterr()
    for argv, message in (
        (["field", once, "--vector", "Z^v^c"], "unknown basis label 'Z^v^c'"),
        (["field", "heisenberg", "--vector", "Z^v"], "lift suffix not allowed"),
        (["sectional", once, "--plane", "Z^v,X^c^v"], "unknown basis label 'Z'"),
    ):
        assert run_command(argv) == 2
        assert message in capsys.readouterr().err


def test_reports_are_deterministic(capsys):
    run_command(["curvature", "heisenberg", "--metric", "lift", "--json"])
    first = capsys.readouterr().out
    run_command(["curvature", "heisenberg", "--metric", "lift", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_exit_codes(tmp_path, capsys):
    assert run_command(["check", "nope"]) == 2
    capsys.readouterr()
    bad = _write(tmp_path, "bad.json", "{nope")
    assert run_command(["check", bad]) == 2
    capsys.readouterr()
    doc = _heisenberg_doc()
    doc["metrics"]["g1"] = np.diag([1.0, -1.0, 1.0]).tolist()
    npd = _write(tmp_path, "npd.json", doc)
    assert run_command(["check", npd]) == 2
    capsys.readouterr()
    assert run_command(["sectional", "heisenberg", "--plane", "X^w,Z^v"]) == 2
    capsys.readouterr()
    # non-finite entries are input errors in metrics, forms and automorphisms
    doc = _heisenberg_doc()
    doc["metrics"]["g2"][1][1] = float("nan")
    nan_metric = _write(tmp_path, "nan.json", doc)
    assert run_command(["check", nan_metric, "--json"]) == 2
    assert run_command(["curvature", nan_metric, "--metric", "lift"]) == 2
    assert "metrics.g2" in capsys.readouterr().err
    doc = _heisenberg_doc()
    doc["automorphisms"] = {"d": np.diag([2.0, float("inf"), 6.0]).tolist()}
    inf_auto = _write(tmp_path, "inf.json", doc)
    assert run_command(["equiv", inf_auto, "--tau", "d"]) == 2
    assert "automorphisms.d" in capsys.readouterr().err
    doc = catalog_algebra("aff1").to_dict()
    doc["symplectic"]["w1"][0][1] = float("inf")
    doc["symplectic"]["w1"][1][0] = float("-inf")
    inf_form = _write(tmp_path, "form.json", doc)
    assert run_command(["symplectic", inf_form]) == 2
    assert "symplectic.w1" in capsys.readouterr().err
    # JSON true and false are not the numbers 1 and 0 in any matrix section
    for key, name, matrix in (
        ("metrics", "g1", [[True, 0], [0, True]]),
        ("symplectic", "w2", [[0, True], [-1, False]]),
        ("automorphisms", "d", [[1, 0], [0, True]]),
    ):
        doc = catalog_algebra("aff1").to_dict()
        doc.setdefault(key, {})[name] = matrix
        assert run_command(["check", _write(tmp_path, "bool.json", doc), "--json"]) == 2
        assert f"{key}.{name}: entries must be numbers, got True" in capsys.readouterr().err
    # a non-finite bracket value is named by its entry
    doc = _heisenberg_doc()
    for value in (float("nan"), float("inf")):
        doc["brackets"][0]["value"] = value
        assert run_command(["check", _write(tmp_path, "br.json", doc), "--json"]) == 2
        assert "brackets[0]: value must be finite" in capsys.readouterr().err
    # indices must be integers and values numbers: no truncation, no bool,
    # no string; basis labels must be distinct
    for entry, message in (
        ({"i": 0.9, "j": 1.7}, "brackets[0]: i, j and k must be integers"),
        ({"i": True}, "brackets[0]: i, j and k must be integers"),
        ({"j": "2"}, "brackets[0]: i, j and k must be integers"),
        ({"value": "1e0"}, "brackets[0]: value must be a number"),
        ({"value": True}, "brackets[0]: value must be a number"),
        ({"value": 10**400}, "brackets[0]: value must be finite"),
    ):
        doc = _heisenberg_doc()
        doc["brackets"][0].update(entry)
        assert run_command(["check", _write(tmp_path, "br.json", doc), "--json"]) == 2
        assert message in capsys.readouterr().err
    doc = dict(_heisenberg_doc(), basis=["X", "X", "Z"])
    dup_basis = _write(tmp_path, "basis.json", doc)
    assert run_command(["field", dup_basis, "--vector", "X", "--json"]) == 2
    assert "basis: labels must be distinct" in capsys.readouterr().err
    # a label the expression grammar splits, or no name at all, is refused;
    # lift labels such as "Y^v" and "Y^v^c" are what `tanglie lift` writes
    for idx, label in ((2, "X+Y"), (2, "2*X"), (0, ""), (1, "Y^w"), (1, "Y^cv"), (1, 7)):
        doc = _heisenberg_doc()
        doc["basis"][idx] = label
        bad_label = _write(tmp_path, "label.json", doc)
        assert run_command(["field", bad_label, "--vector", "X", "--json"]) == 2
        assert f"basis[{idx}]: label must match" in capsys.readouterr().err
    # degenerate plane is an input error
    assert run_command(["sectional", "heisenberg", "--plane", "X^c,X^c"]) == 2
    capsys.readouterr()
    # so are a coefficient that overflows and a plane whose Gram
    # determinant overflows
    for argv, message in (
        (["sectional", "heisenberg", "--plane", "1e999*Y^v,Z^v"], "coefficient 1e999"),
        (["field", "heisenberg", "--vector", "1e999*Z"], "coefficient 1e999"),
        (["sectional", "heisenberg", "--plane", "1e200*Y^v,Z^v"], "Gram determinant"),
        (
            ["sectional", "heisenberg", "--plane", "1e308*Y^v + 1e308*Y^v,Z^v"],
            "Gram determinant",
        ),
    ):
        assert run_command(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    # a Lie derivative out of range, an unwritable --output and malformed
    # problem sections are input errors too
    doc = _heisenberg_doc()
    sections = []
    for key, value in (
        ("symplectic", "x"),
        ("automorphisms", [1]),
        ("dim", True),
        ("metrics", []),
        ("brackets", {"0": {"i": 0, "j": 1, "k": 2, "value": 1.0}}),
    ):
        bad_doc = dict(doc, **{key: value})
        bad_path = _write(tmp_path, f"{key}.json", bad_doc)
        sections.append((["check", bad_path], f"ValidationError: {key}: must be"))
    missing = str(tmp_path / "missing" / "x.json")
    doc = catalog_algebra("su2").to_dict()
    doc["metrics"]["g1"] = _diag_list(1e308, 1e308, 1e308)  # a finite metric and pullback
    big_su2 = _write(tmp_path, "big_su2.json", doc)
    for argv, message in (
        (
            ["equiv", big_su2, "--tau", "rot_z"],
            "PreconditionViolated: plane out of floating-point range",
        ),
        (["field", "su2", "--vector", "1e308*X"], "vector out of floating-point range"),
        (
            ["field", "heisenberg", "--vector", "1e308*X + 1e308*X"],
            "vector out of floating-point range",
        ),
        (["lift", "heisenberg", "-o", missing], f"--output: cannot write {missing}"),
        *sections,
    ):
        assert run_command(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    assert not os.path.exists(missing)
    # a tolerance must be finite and non-negative
    for tol in ("nan", "inf", "-inf", "-1e-9"):
        assert run_command(["check", "heisenberg", f"--tol={tol}", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--tol: tolerance must be finite and >= 0, got '{tol}'" in captured.err
    # an absurd tolerance turns rounding noise into check failures
    assert (
        run_command(
            ["connection", "heisenberg", "--metric", "lift", "--tol", "1e-300"]
        )
        == 1
    )
    capsys.readouterr()


def _refusal_docs():
    no_forms = catalog_algebra("abelian2").to_dict()
    del no_forms["symplectic"]
    no_g2 = _heisenberg_doc()
    del no_g2["metrics"]["g2"]
    text_g1, ragged_g1 = _heisenberg_doc(), _heisenberg_doc()
    text_g1["metrics"]["g1"] = "eye"
    ragged_g1["metrics"]["g1"] = [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
    return {"no_forms": no_forms, "no_g2": no_g2, "text_g1": text_g1, "ragged_g1": ragged_g1}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equiv", "heisenberg", "--tau", "nope"],
         "ValidationError: automorphisms.nope: not present in problem"),
        (["symplectic", "{no_forms}"], "ValidationError: symplectic.w1: not present in problem"),
        (["connection", "{no_g2}", "--metric", "lift"],
         "ValidationError: metrics.g2: not present in problem"),
        (["field", "{no_g2}", "--vector", "X"],
         "ValidationError: metrics.g2: not present in problem"),
        (["curvature", "heisenberg", "--metric", "g1", "--compare"],
         "ValidationError: --compare applies only to the lifted metric"),
        (["connection", "heisenberg", "--metric", "g1", "--method", "closed"],
         "ValidationError: method 'closed' applies only to the lifted metric"),
        (["sectional", "heisenberg", "--plane", "X^v"],
         "ExprError: plane needs exactly two comma-separated expressions (column 0)"),
        (["sectional", "heisenberg", "--plane", "X,Y^v"],
         "ExprError: expected '^c' or '^v' after label (column 1)"),
        (["field", "heisenberg", "--vector", "X Y"],
         "ExprError: expected '+' or '-' between terms (column 2)"),
        (["field", "heisenberg", "--vector", "X^"],
         "ExprError: lift suffix not allowed in a base-vector expression (column 1)"),
        (["check", "{text_g1}"], "ValidationError: metrics.g1: not a numeric matrix"),
        (["check", "{ragged_g1}"], "ValidationError: metrics.g1: not a numeric matrix"),
        (["check", "heisenberg", "--tol", "abc"],
         "argument --tol: tolerance must be finite and >= 0, got 'abc'"),
        (["check", "{dir}"], "ParseError: cannot read {dir}: [Errno 21] Is a directory"),
    ],
)
def test_refusal_prints_one_error_line(argv, message, tmp_path, capsys):
    paths = {name: _write(tmp_path, f"{name}.json", doc) for name, doc in _refusal_docs().items()}
    paths["dir"] = str(tmp_path)
    assert run_command([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message.format(**paths) in errors[0]
    # argparse prints its usage line before the error; a library refusal prints nothing else
    usage = "--tol" in argv
    assert captured.err.startswith("usage:" if usage else "error:")
    assert len(captured.err.splitlines()) == (2 if usage else 1)


def test_frame_refusal_names_the_metric_pair(tmp_path, capsys):
    # lambda = 2e-308 is not above EPS_PD: compute_phi refuses the pair
    # before build_tangent forms diag(lambda), a metric the user never gave
    doc = catalog_algebra("su2").to_dict()
    doc["metrics"]["g1"] = _diag_list(1e308, 1e308, 1e308)
    path = _write(tmp_path, "su2_g1_1e308.json", doc)
    assert run_command(["connection", path, "--metric", "lift"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: NonPositiveDefinite: metric pair (g1, g2): "
        "lambda_min of g1^-1 g2 2.000e-308 not above 1.0e-12\n"
    )


def ref_non_finite(val, path):
    """The report walk that called numpy once per float, kept as the reference."""
    if isinstance(val, (dict, list)):
        keys = val if isinstance(val, dict) else range(len(val))
        return next(filter(None, (ref_non_finite(val[k], f"{path}.{k}") for k in keys)), None)
    if isinstance(val, (float, np.ndarray)) and not np.all(np.isfinite(val)):
        return path
    return None


def test_non_finite_walk_matches_its_reference():
    leaves = [1.5, np.float64(2.0), 3, True, None, "x", np.arange(4.0), np.eye(2)]
    bad = [np.nan, -np.inf, np.float64(np.inf), np.array([1.0, np.nan]), np.full((2, 2), np.inf)]

    def nest(leaf, depth):
        return {"a": [leaves, {"b": leaf, "c": leaves}], "d": leaf} if depth else leaf

    values = [leaves, {"k": leaves}, {}, [], nest(1.0, 2)]
    for leaf in bad:
        values += [leaf, [1.0, leaf], {"x": 1, "y": [None, leaf, np.nan]}]
        values += [nest(leaf, depth) for depth in (1, 2)]
        values += [[*leaves, leaf], {str(i): v for i, v in enumerate([*leaves, leaf])}]
    for val in values:
        assert cli_io._non_finite(val, "report") == ref_non_finite(val, "report")
    assert cli_io._non_finite(nest(np.nan, 2), "report") == "report.a.1.b"


def test_non_finite_report_is_refused(tmp_path, capsys):
    # every input entry is finite, but g1 = diag(1, 1, 1e300) against a
    # bracket of 1e10 overflows the connection and the curvature; the
    # refusal is one error line, with no floating-point warning before it
    doc = _heisenberg_doc()
    doc["brackets"][0]["value"] = 1e10
    doc["metrics"]["g1"] = _diag_list(1.0, 1.0, 1e300)
    huge = _write(tmp_path, "huge.json", doc)
    for argv in (
        ["check", huge],
        ["connection", huge, "--metric", "g1"],
        ["curvature", huge, "--metric", "g1"],
    ):
        for mode in ([], ["--json"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_command(argv + mode) == 2
            assert caught == []
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("error: PreconditionViolated: report.")
            assert line.endswith("is not finite: out of floating-point range")
    # entries up to the float maximum are kept finite, and so is the report
    doc = catalog_algebra("aff1").to_dict()
    doc["metrics"]["g1"] = _diag_list(1e308, 1.0)
    code = run_command(["check", _write(tmp_path, "max.json", doc), "--json"])
    assert code == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def _readme_examples() -> list[str]:
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^tanglie (.+?)(?:\s+#.*)?$", text, flags=re.MULTILINE)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("example", _readme_examples())
def test_readme_example_runs(example, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `lift -o` writes next to the caller
    code = run_command(shlex.split(example) + ["--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    json.loads(captured.out, parse_constant=_reject_constant)


def test_readme_examples_found():
    assert len(_readme_examples()) >= 9


def test_readme_library_block_runs():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["k"] == 0.125


def test_usage_error_is_exit_2(capsys):
    assert run_command(["connection", "heisenberg"]) == 2  # missing --metric
    capsys.readouterr()


def _run_python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tanglie.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    proc = _run_python("-m", "tanglie", "check", "heisenberg", "--json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["passed"] is True


def test_import_does_not_load_scipy():
    proc = _run_python("-c", "import sys, tanglie; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_adds_no_module_beyond_numpy():
    # every process of the command line pays for these imports at start-up
    code = (
        "import sys, numpy; before = set(sys.modules); import tanglie.cli_io; "
        "print(*{m.partition('.')[0] for m in set(sys.modules) - before})"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split()) - {"tanglie"}
    assert added <= {
        "__future__", "_blake2", "_hashlib", "_json", "argparse", "copy", "dataclasses",
        "gettext", "hashlib", "json",
    }


def test_import_does_not_load_the_cli():
    proc = _run_python(
        "-c",
        "import sys, tanglie; "
        "print([m for m in ('tanglie.cli_io', 'argparse') if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_cli_io_runs_without_warning():
    # runpy warns when the package import has already loaded the module it runs
    proc = _run_python("-m", "tanglie.cli_io", "check", "heisenberg", "--json")
    assert proc.returncode == 0
    assert proc.stderr == ""


def _tool(name):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(name, os.path.join(root, "tools", f"{name}.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool, root


def test_report_digests_tool_covers_every_command(capsys):
    tool, _ = _tool("report_digests")
    tool.main()
    lines = [line.split(" ", 2) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 174
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for sha, _, _ in lines)
    # odd-dimensional algebras have no symplectic form, and not_auto is no
    # automorphism: these ten are input errors, every other report passes
    odd = ("abelian3", "heisenberg", "solvable_rr2", "su2")
    expected = [f"symplectic {name}" for name in odd] + ["equiv heisenberg --tau not_auto"]
    expected += [argv + " --json" for argv in expected]
    failed = sorted((argv, code) for _, code, argv in lines if code != "0")
    assert failed == sorted((argv, "2") for argv in expected)


def test_every_report_row_is_a_verdict(capsys):
    # no row compares a route with itself, restates a result or is 0 by construction
    tool, _ = _tool("report_digests")
    removed = {"structure_constants_vs_koszul", "lifted_pullback_identity", "tau_is_automorphism"}
    removed |= {f"closedness_{p}" for p in ("vvv", "vvc", "vcv", "cvv")}
    for argv in tool.commands():
        code = run_command(argv + ["--json"])
        out = capsys.readouterr().out
        if code == 2:
            assert out == ""
            continue
        rows = json.loads(out, parse_constant=_reject_constant)["checks"]
        assert all(row["passed"] in (True, False) for row in rows), argv
        assert not removed & {row["name"] for row in rows}, argv
        run_command(argv)
        text = capsys.readouterr().out
        assert "[info]" not in text and not any(name in text for name in removed), argv


def test_ab_pairs_counts_wins_by_direction():
    tool, _ = _tool("ab_pairs")

    def run(ops, p50, rss, setup, failed=0):
        metrics = {"ops_per_s": {"value": ops}, "latency_p50_ms": {"value": p50},
                   "peak_rss_mb": {"value": rss}, "setup_s": {"value": setup}}
        return {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics}

    runs = {
        "parent": [run(10.0, 5.0, 40.0, 1.0), run(12.0, 4.0, 40.0, 2.0),
                   run(11.0, 4.5, 40.0, 3.0, failed=1)],
        "change": [run(11.0, 4.0, 45.0, 0.5), run(11.0, 4.5, 44.0, 0.6),
                   run(13.0, 4.0, 46.0, 0.7, failed=1)],
    }
    metrics = [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
    out = tool.summarize(runs, metrics)
    assert out["pairs"] == 3
    assert out["fail_share"] == {"parent": [0.0, 0.1], "change": [0.0, 0.1]}
    assert out["ops_per_s"]["change_wins"] == 2
    assert out["latency_p50_ms"]["change_wins"] == 2
    assert out["ops_per_s"]["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    verdicts = {
        name: (out[name]["worse_move"], out[name]["exceeds_bound"], out[name]["unresolved"])
        for name in ("ops_per_s", "latency_p50_ms", "peak_rss_mb", "setup_s")
    }
    assert verdicts == {
        "ops_per_s": (0.0, False, False),  # parent spread 1/11 is inside 0.25
        "latency_p50_ms": (-0.1111, False, True),  # spread 0.5/4.5 exceeds 0.1
        "peak_rss_mb": (0.125, True, False),  # 45 against 40 moves 12.5 % the worse way
        "setup_s": (-0.7, False, False),  # spread 0.5, but every change run is better
    }


def test_op_faults_counts_every_timed_operation():
    # in a process of its own, as the benchmark runs: one round of base_equiv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tool = os.path.join(root, "tools", "op_faults.py")
    proc = _run_python(tool, root, "base_equiv", "--seed", "3", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out) == [
        "failed", "faults_per_op", "latency_p50_ms", "operations", "ops_per_s", "seed", "workload",
    ]
    assert (out["workload"], out["seed"], out["operations"], out["failed"]) == ("base_equiv", 3, 6, 0)
    assert out["faults_per_op"] >= 0 and out["latency_p50_ms"] > 0 and out["ops_per_s"] > 0


def test_ladder_times_every_stage():
    # in a process of its own: the tool pins BLAS threads and extends sys.path.
    # A budget that fits the (2n)^4 tensor of n = 3 and not that of n = 5
    # makes n = 5 skip the curvature stages and the plane read from it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tool = os.path.join(root, "tools", "ladder.py")
    run = (
        "import importlib.util, sys; "
        "spec = importlib.util.spec_from_file_location('ladder', sys.argv[1]); "
        "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool); "
        "tool.TENSOR_BUDGET = 8 * 6**4; sys.exit(tool.main(sys.argv[2:]))"
    )
    proc = _run_python("-c", run, tool, root, "--sizes", "3,5", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out) == ["3", "5"]
    for row in out.values():
        assert sorted(row) == ["ms", "peak_mb"]
        assert sorted(row["ms"]) == sorted(row["peak_mb"])
        assert "build_tangent" in row["ms"] and "lifted_connection_closed_form" in row["ms"]
        assert "levi_civita" in row["ms"]  # the lifted Koszul route, with no tensor budget
        assert "lifted_sectional" in row["ms"] and "lifted_sectional_riem" in row["ms"]
        # the block products apart from the deviation reduction around them
        assert "curvature_blocks" in row["ms"] and "curvature_block_deviations" in row["ms"]
        # the commands, from the problem file to the report
        assert "lift" in row["ms"] and "connection" in row["ms"] and "check" in row["ms"]
    assert all(v >= 0 for part in out["3"].values() for v in part.values())
    for part in out["5"].values():
        skipped = [name for name, v in part.items() if v is None]
        assert skipped == [
            name for name in part if name.startswith("curvature")
        ] + ["lifted_sectional_riem"]
        assert part["build_tangent"] >= 0 and part["lifted_connection_closed_form"] >= 0
        assert part["levi_civita"] >= 0 and part["lifted_sectional"] >= 0 and part["lift"] >= 0
        assert part["connection"] >= 0 and part["check"] >= 0


def test_trace_targets_resolve():
    # read only: install() would rebind the package for the rest of the
    # session.  A renamed or moved target otherwise breaks only traced runs.
    for module, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"tanglie.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"tanglie.{module}.{name}"


# ---------------------------------------------------------------------------
# Ill-conditioned pairs: h7 with eigenvalues spread over 10^s
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spread, argv",
    [
        (6, ["curvature", "--metric", "lift", "--compare"]),
        (7, ["connection", "--metric", "lift"]),
        (8, ["connection", "--metric", "lift"]),
    ],
)
def test_h7_spread_passes(spread, argv, tmp_path, capsys):
    # the frame metrics must be I and diag(lambda) by definition: the
    # rounding of a recomputed b1^T g b1 exceeds fixed bounds on these pairs
    codes = []
    for seed in range(10):
        path = _write(tmp_path, f"h7_{seed}.json", h7_doc(seed, spread))
        codes.append(run_command(argv[:1] + [path] + argv[1:]))
    capsys.readouterr()
    assert codes == [0] * 10


def test_h7_eigenframe_definition():
    # build_tangent takes g1 = I and g2 = diag(lambda) in the frame b1
    # without recomputing them; compute_phi must make that true
    for spread in range(11):
        for seed in range(10):
            problem = problem_from_dict(h7_doc(seed, spread))
            g1, g2 = problem.metric("g1"), problem.metric("g2")
            data = compute_phi(g1, g2)
            b1, lam = data.b1, data.lambdas
            assert np.max(np.abs(b1.T @ g1.g @ b1 - np.eye(7))) <= 1e-14
            rel = np.abs(b1.T @ g2.g @ b1 - np.diag(lam)) / np.sqrt(np.outer(lam, lam))
            assert np.max(rel) <= 1e-14 * 10.0**spread
