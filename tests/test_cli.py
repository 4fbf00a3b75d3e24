"""Command-line surface: loading, reports, exit codes, determinism."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import tanglie
from tanglie.cli_io import (
    catalog_algebra,
    load_problem,
    parse_base_expr,
    parse_lifted_expr,
    problem_from_dict,
    run_command,
)
from tanglie.errors import ExprError, ParseError, UnknownCatalogEntry, ValidationError
from tanglie.lie_core import CHECK_TOL, center
from tanglie.metric_geometry import (
    MetricLieAlgebra,
    levi_civita,
    lie_derivative_metric,
    random_spd_metric,
)
from tanglie.tangent_lift import build_tangent, compute_phi, vertical_lift

import tracing
from conftest import CATALOG, SWEEP_SEED, h7_doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


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


def test_load_rejects_jacobi_violation(tmp_path):
    doc = _heisenberg_doc()
    doc["brackets"] = [
        {"i": 0, "j": 1, "k": 2, "value": 1.0},
        {"i": 0, "j": 2, "k": 2, "value": 1.0},
        {"i": 1, "j": 2, "k": 0, "value": 1.0},
    ]
    with pytest.raises(ValidationError, match="Jacobi"):
        load_problem(_write(tmp_path, "jac.json", doc))


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
    results = []
    for method in ("koszul", "closed", "structconst"):
        code, report = _run_json(
            ["connection", "heisenberg", "--metric", "lift", "--method", method],
            capsys,
        )
        assert code == 0
        results.append(np.array(report["result"]["connection"]["data"]))
    npt.assert_allclose(results[0], results[1], atol=1e-10)
    npt.assert_allclose(results[0], results[2], atol=1e-10)


def test_curvature_compare_blocks(capsys):
    code, report = _run_json(
        ["curvature", "solvable_rr2", "--metric", "lift", "--compare"], capsys
    )
    assert code == 0
    dev = report["result"]["block_deviations"]
    assert dev["ccc"] <= 1e-8 and dev["vvv"] <= 1e-8
    assert set(dev) == {"ccc", "ccv", "vcc", "vvc", "vcv", "vvv"}


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


def _base_expr(labels, x) -> str:
    # the grammar has no leading sign, so open with a zero term
    return f"0*{labels[0]}" + "".join(
        f" {'-' if v < 0 else '+'} {float(abs(v))!r}*{label}"
        for v, label in zip(x, labels)
    )


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
                ["field", path, "--vector", _base_expr(algebra.basis_labels, x), "--json"]
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


def test_equiv_rejects_non_automorphism(capsys):
    assert run_command(["equiv", "heisenberg", "--tau", "not_auto"]) == 2


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


def test_lift_small_metric_passes_jacobi_guard(tmp_path, capsys):
    # max|lifted bracket| is 6.2e3 here; the Jacobi rounding of 3.7e-9
    # is 1e-16 of its square, which the absolute bound 1e-9 rejected
    doc = catalog_algebra("aff1").to_dict()
    doc["metrics"] = {
        "g1": (1e-7 * np.array([[2, 0.7], [0.7, 1]])).tolist(),
        "g2": [[1, 0.2], [0.2, 3]],
    }
    small = _write(tmp_path, "small.json", doc)
    assert run_command(["connection", small, "--metric", "lift"]) == 0
    capsys.readouterr()


def test_symplectic_command(capsys):
    code, report = _run_json(["symplectic", "aff1"], capsys)
    assert code == 0
    assert report["result"]["smallest_singular_value"] > 1e-6


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
    for argv, message in (
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


def test_ab_pairs_counts_wins_by_direction():
    tool, _ = _tool("ab_pairs")

    def run(ops, p50, failed=0):
        metrics = {"ops_per_s": {"value": ops}, "latency_p50_ms": {"value": p50}}
        return {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics}

    runs = {
        "parent": [run(10.0, 5.0), run(12.0, 4.0), run(11.0, 4.5, failed=1)],
        "change": [run(11.0, 4.0), run(11.0, 4.5), run(13.0, 4.0, failed=1)],
    }
    metrics = [
        {"name": "ops_per_s", "better": "higher"},
        {"name": "latency_p50_ms", "better": "lower"},
    ]
    out = tool.summarize(runs, metrics)
    assert out["pairs"] == 3
    assert out["fail_share"] == {"parent": [0.0, 0.1], "change": [0.0, 0.1]}
    assert out["ops_per_s"]["change_wins"] == 2
    assert out["latency_p50_ms"]["change_wins"] == 2
    assert out["ops_per_s"]["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}


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
    assert all(v >= 0 for part in out["3"].values() for v in part.values())
    for part in out["5"].values():
        skipped = [name for name, v in part.items() if v is None]
        assert skipped == [
            name for name in part if name.startswith("curvature")
        ] + ["lifted_sectional_riem"]
        assert part["build_tangent"] >= 0 and part["lifted_connection_closed_form"] >= 0
        assert part["levi_civita"] >= 0 and part["lifted_sectional"] >= 0


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
