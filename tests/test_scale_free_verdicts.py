"""Scale-free `field` and `check` verdicts: no yes/no flip with the unit of a metric or a vector.

g -> s g multiplies every Lie derivative L_x g, the conformal fit's residual
and the bi-invariance and double-bracket residuals by s, and leaves the
Levi-Civita connection as it is; x -> s x multiplies L_x g and ad(x) by s
and leaves u = x / max|x| as it is.  Each verdict holds its residual to tol
times the size of its terms, which scales the same way, so every verdict
and every exit code must read the same at every scale.  The scales are
those of the relations: g1 alone, g2 alone and both by s in SCALES, and x
by s in VECTOR_SCALES, on every catalog algebra at each basis vector and
one seeded combination.
"""

import json

import numpy as np
import pytest

import tanglie.tangent_lift as tl
from tanglie.cli_io import catalog_algebra, run_command
from tanglie.lie_core import CHECK_TOL, LieAlgebra, Metric, _term_size
from tanglie.metric_geometry import (
    MetricLieAlgebra,
    bi_invariance_defect,
    classify_field,
    double_bracket_defect,
    is_geodesic_vector,
    levi_civita,
)

from conftest import CATALOG, SWEEP_SEED, base_expr

SCALES = (1e-10, 1e-4, 1e4, 1e6)
VECTOR_SCALES = (1e-10, 1e10)
# (s1, s2, sx): g1 -> s1 g1, g2 -> s2 g2, x -> sx x
SCALINGS = (
    [(s, 1.0, 1.0) for s in SCALES]
    + [(1.0, s, 1.0) for s in SCALES]
    + [(s, s, 1.0) for s in SCALES]
    + [(1.0, 1.0, s) for s in VECTOR_SCALES]
)
FIELD_VERDICTS = ("killing", "conformal", "geodesic", "in_center", "vertical_lift_killing")
CHECK_VERDICTS = ("bi_invariant", "satisfies_double_bracket_condition")


def _vectors(algebra):
    """Each basis vector and one seeded combination."""
    rng = np.random.default_rng(SWEEP_SEED)
    return [algebra.basis_vector(i) for i in range(algebra.dim)] + [
        rng.standard_normal(algebra.dim)
    ]


def _scaled_doc(name, s1, s2):
    doc = catalog_algebra(name).to_dict()
    for key, s in (("g1", s1), ("g2", s2)):
        doc["metrics"][key] = (s * np.array(doc["metrics"][key])).tolist()
    return doc


def _write(tmp_path, doc, s1, s2):
    path = tmp_path / f"{doc['name']}_{s1:g}_{s2:g}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(argv, capsys):
    code = run_command(argv + ["--json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


def _library_verdicts(name, s1, s2, sx):
    """Every field verdict at each vector, and both check verdicts per metric."""
    problem = catalog_algebra(name)
    algebra = problem.algebra()
    mla1, mla2 = (
        MetricLieAlgebra(algebra, Metric(s * problem.metrics[key]))
        for key, s in (("g1", s1), ("g2", s2))
    )
    fields = []
    for x in _vectors(algebra):
        cls = classify_field(mla1, mla2, sx * x)
        geodesic = [is_geodesic_vector(m, levi_civita(m), sx * x) for m in (mla1, mla2)]
        fields.append(
            (cls.killing1, cls.killing2, cls.conformal1, cls.conformal2, cls.in_center, *geodesic)
        )
    checks = []
    for mla in (mla1, mla2):
        c, g = algebra.c, mla.metric.g
        checks.append(
            (
                bi_invariance_defect(mla) <= CHECK_TOL * _term_size(c, g),
                double_bracket_defect(mla) <= CHECK_TOL * _term_size(c, c, g),
            )
        )
    return fields, checks


@pytest.mark.parametrize("name", CATALOG)
def test_library_verdicts_do_not_depend_on_scale(name):
    want = _library_verdicts(name, 1.0, 1.0, 1.0)
    for scaling in SCALINGS:
        assert _library_verdicts(name, *scaling) == want, scaling


def _cli_verdicts(name, s1, s2, sx, tmp_path, capsys):
    """(exit code, verdicts) of `field` at each vector, and of `check`."""
    path = _write(tmp_path, _scaled_doc(name, s1, s2), s1, s2)
    algebra = catalog_algebra(name).algebra()
    out = []
    for x in _vectors(algebra):
        code, report = _run(
            ["field", path, "--vector", base_expr(algebra.basis_labels, sx * x)], capsys
        )
        out.append((code, [report["result"][key] for key in FIELD_VERDICTS]))
    code, report = _run(["check", path], capsys)
    metrics = report["result"]["metrics"]
    out.append((code, [[metrics[g][key] for key in CHECK_VERDICTS] for g in ("g1", "g2")]))
    return out


@pytest.mark.parametrize("name", CATALOG)
def test_cli_verdicts_and_exit_codes_do_not_depend_on_scale(name, tmp_path, capsys):
    want = _cli_verdicts(name, 1.0, 1.0, 1.0, tmp_path, capsys)
    assert all(code == 0 for code, _ in want)
    for scaling in SCALINGS:
        assert _cli_verdicts(name, *scaling, tmp_path, capsys) == want, scaling


def test_motivating_inputs_keep_their_verdicts(tmp_path, capsys):
    # each read true, or exited 1, when the verdicts were absolute
    for name in ("heisenberg", "su2", "solvable_rr2"):
        path = _write(tmp_path, _scaled_doc(name, 1.0, 1e-10), 1.0, 1e-10)
        code, report = _run(["field", path, "--vector", "X"], capsys)
        assert code == 0
        assert report["result"]["killing"]["g2"] is (name == "su2")
    code, report = _run(["field", "heisenberg", "--vector", "1e-9*X"], capsys)
    assert code == 0
    assert report["result"]["in_center"] is False
    assert report["result"]["killing"] == {"g1": False, "g2": False}
    path = _write(tmp_path, _scaled_doc("heisenberg", 1e-10, 1e-10), 1e-10, 1e-10)
    code, report = _run(["check", path], capsys)
    assert code == 0
    assert report["result"]["metrics"]["g1"]["bi_invariant"] is False


def _perturbed_lift(original):
    """The raw lift with 0.5 X_0^v added to [X_0^v, X_1^c], a wrong cross block."""

    def lift(algebra: LieAlgebra) -> LieAlgebra:
        right = original(algebra)
        c, n = right.c.copy(), algebra.dim
        c[0, n + 1, 0] += 0.5
        c[n + 1, 0, 0] -= 0.5
        return LieAlgebra.from_tensor(c, right.basis_labels)

    return lift


@pytest.mark.parametrize("name", CATALOG)
def test_vertical_killing_row_catches_a_wrong_lift(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        tl, "tangent_algebra_unnormalized", _perturbed_lift(tl.tangent_algebra_unnormalized)
    )
    label = catalog_algebra(name).algebra().basis_labels[0]
    for s1, s2, sx in [(1.0, 1.0, 1.0)] + SCALINGS:
        path = _write(tmp_path, _scaled_doc(name, s1, s2), s1, s2)
        code, report = _run(["field", path, "--vector", f"{sx!r}*{label}"], capsys)
        assert code == 1, (s1, s2, sx)
        assert report["checks"] == [
            {"name": "vertical_killing_iff_central", "residual": None, "tol": None, "passed": False}
        ]
