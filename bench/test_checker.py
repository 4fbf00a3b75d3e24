"""The benchmark's checker must report wrong outputs as failed.

Run with ``python3 -m pytest bench/test_checker.py`` from the repository root.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from tanglie import metric_geometry, tangent_lift  # noqa: E402


@pytest.fixture(scope="module")
def analysis():
    return workloads.LiftAnalysis()


@pytest.fixture
def case(analysis):
    rng = np.random.default_rng(7)
    c = workloads.direct_sum([workloads.H3R, workloads.AFF1])
    w = workloads.block_diag([workloads.h3r_form(), workloads.STD2])
    case = workloads.LiftCase("h3+R+aff1", c, workloads.spd(rng, 6), workloads.spd(rng, 6),
                              (w, w), workloads.seeded_planes(rng, 6, 2), precomputed=False)
    analysis.prepare(case)
    return case


def test_correct_outputs_pass(analysis, case):
    assert analysis.check(case, analysis.run(case)) == []


def test_perturbed_christoffel_fails(analysis, case):
    out = analysis.run(case)
    gamma = out["connections"]["closed"].gamma.copy()
    gamma[7, 8, 1] += 1e-5
    out["connections"]["closed"] = metric_geometry.Connection(gamma)
    assert "connection.closed" in analysis.check(case, out)


def test_mispaired_eigenbasis_fails(analysis, case, monkeypatch):
    good = tangent_lift.compute_phi

    def swapped(g1, g2):
        phi = good(g1, g2)
        b1 = phi.b1.copy()
        b1[:, [0, 1]] = b1[:, [1, 0]]  # eigenvectors of lambda_0 and lambda_1 exchanged
        return dataclasses.replace(phi, b1=b1)

    monkeypatch.setattr(tangent_lift, "compute_phi", swapped)
    failures = analysis.check(case, analysis.run(case))
    assert "frame.b1T_g2_b1_rel_lambda" in failures
    assert "connection.koszul" in failures


def test_cli_reports_are_checked(tmp_path):
    cli = workloads.CliCatalog(3, str(tmp_path), True, ROOT)  # in-process calls
    ops = {op.name: op for op in cli.ops}
    for name in ("connection heisenberg", "sectional heisenberg", "symplectic aff1"):
        op = ops[name]
        res = cli.run(op)
        assert cli.check(op, res) == []
        doc = json.loads(res.stdout)
        result = doc["result"]
        if "sectional" in result:
            result["sectional"] = 0.12
        else:
            payload = result.get("connection") or result["lifted_form"]
            payload["data"][1] += 1e-6
        res.stdout = json.dumps(doc)
        assert cli.check(op, res), name
    res = cli.run(ops["check heisenberg"])
    res.stdout = res.stdout.replace('"jacobi_defect": 0.0', '"jacobi_defect": NaN', 1)
    assert "strict_json" in cli.check(ops["check heisenberg"], res)
