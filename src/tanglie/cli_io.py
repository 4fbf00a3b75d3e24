"""Problem-file ingestion, built-in catalog, CLI commands, and reports.

Problem files are JSON documents with schema tag ``tanglie/1``::

    {
      "schema": "tanglie/1",
      "name": "heisenberg",
      "dim": 3,
      "basis": ["X", "Y", "Z"],
      "brackets": [{"i": 0, "j": 1, "k": 2, "value": 1.0}],
      "metrics": {"g1": [[...]], "g2": [[...]]},
      "symplectic": {"w1": [[...]], "w2": [[...]]},      # optional
      "automorphisms": {"dilation": [[...]]},            # optional
      "meta": {...}                                      # optional, ignored
    }

Bracket entries carry only the ``i < j`` orientation; the opposite one is
implied by antisymmetry and rejected if present.  Metrics are checked
against positive definiteness at load time, and a problem's one algebra
by its Jacobi verdict, which ``check`` and ``build_tangent`` then read.

There is one reader and one writer of the format: every problem, from a
file or from the built-in catalog, enters through :func:`problem_from_dict`,
and every problem document, the lifted one of ``tanglie lift`` included,
leaves through :meth:`ProblemFile.to_dict`.  Every library error
(:class:`~tanglie.errors.TanglieError`) ends a command with exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import metric_geometry as mg
from . import symplectic_lift as sp
from . import tangent_lift as tl
from .errors import (
    ExprError,
    NonPositiveDefinite,
    NotSymplecticInput,
    ParseError,
    PreconditionViolated,
    TanglieError,
    UnknownCatalogEntry,
    ValidationError,
)
from .lie_core import (
    CHECK_TOL,
    EPS_SYM,
    LieAlgebra,
    Metric,
    _term_size,
    ad_matrix,
    is_automorphism,
    pullback_metric,
)

SCHEMA = "tanglie/1"

LIFT_INDEX_CONVENTION = (
    "indices 0..n-1: normalized vertical lifts X_i^v/sqrt(lambda_i); "
    "indices n..2n-1: complete lifts X_i^c; X_i runs over the eigenbasis "
    "of the metric pair, eigenvalues ascending"
)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemFile:
    """Validated problem description: algebra, metrics, optional extras."""

    name: str
    dim: int
    basis: tuple[str, ...]
    brackets: tuple[tuple[int, int, int, float], ...]
    metrics: dict[str, np.ndarray] = field(default_factory=dict)
    symplectic: dict[str, np.ndarray] = field(default_factory=dict)
    automorphisms: dict[str, np.ndarray] = field(default_factory=dict)

    def algebra(self) -> LieAlgebra:
        """The problem's one algebra, built on first call and kept."""
        if "_algebra" not in self.__dict__:
            entries = {(i, j, k): v for i, j, k, v in self.brackets}
            algebra = LieAlgebra.from_brackets(self.dim, entries, self.basis)
            object.__setattr__(self, "_algebra", algebra)
        return self._algebra

    def metric(self, name: str) -> Metric:
        if name not in self.metrics:
            raise ValidationError(f"metrics.{name}: not present in problem")
        return Metric(self.metrics[name])

    def two_form(self, name: str) -> sp.TwoForm:
        if name not in self.symplectic:
            raise ValidationError(f"symplectic.{name}: not present in problem")
        return sp.TwoForm(self.symplectic[name])

    def automorphism(self, name: str) -> np.ndarray:
        if name not in self.automorphisms:
            raise ValidationError(f"automorphisms.{name}: not present in problem")
        return self.automorphisms[name]

    def to_dict(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "name": self.name,
            "dim": self.dim,
            "basis": list(self.basis),
            "brackets": [
                {"i": i, "j": j, "k": k, "value": v} for i, j, k, v in self.brackets
            ],
            "metrics": {n: m.tolist() for n, m in self.metrics.items()},
        }
        if self.symplectic:
            doc["symplectic"] = {n: m.tolist() for n, m in self.symplectic.items()}
        if self.automorphisms:
            doc["automorphisms"] = {
                n: m.tolist() for n, m in self.automorphisms.items()
            }
        return doc

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return "sha256:" + hashlib.sha256(blob).hexdigest()


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ValidationError(f"{path}: {message}")


def _as_matrix(raw, path: str, dim: int) -> np.ndarray:
    try:
        m = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: not a numeric matrix") from None
    _require(m.shape == (dim, dim), path, f"shape {m.shape}, expected ({dim}, {dim})")
    # bool is an int subclass, so numpy reads true and false as 1.0 and 0.0
    flag = next((x for row in raw for x in row if isinstance(x, bool)), None)
    _require(flag is None, path, f"entries must be numbers, got {flag!r}")
    _require(bool(np.all(np.isfinite(m))), path, "entries must be finite")
    return m


def _section(doc: dict, key: str) -> dict:
    raw = doc.get(key, {})
    _require(isinstance(raw, dict), key, "must be an object")
    return raw


def problem_from_dict(doc: dict, fallback_name: str = "problem") -> ProblemFile:
    """Validate a parsed JSON document and construct the problem."""
    _require(isinstance(doc, dict), "$", "document must be a JSON object")
    schema = doc.get("schema", SCHEMA)
    _require(schema == SCHEMA, "schema", f"unsupported schema {schema!r}")
    dim = doc.get("dim")
    _require(
        isinstance(dim, int) and not isinstance(dim, bool) and dim > 0,
        "dim",
        "must be a positive integer",
    )
    basis = doc.get("basis", [f"X{i + 1}" for i in range(dim)])
    _require(
        isinstance(basis, list) and len(basis) == dim, "basis", f"needs {dim} labels"
    )
    for idx, label in enumerate(basis):
        # the expression grammar would split any other label, and read a
        # vector the user did not write
        _require(
            isinstance(label, str) and _BASIS_LABEL.fullmatch(label) is not None,
            f"basis[{idx}]",
            f"label must match {_BASIS_LABEL.pattern}, got {label!r}",
        )
    basis = tuple(basis)
    _require(len(set(basis)) == dim, "basis", "labels must be distinct")

    entries: list[tuple[int, int, int, float]] = []
    seen: set[tuple[int, int, int]] = set()
    brackets = doc.get("brackets", [])
    _require(isinstance(brackets, list), "brackets", "must be a list")
    for idx, item in enumerate(brackets):
        path = f"brackets[{idx}]"
        _require(isinstance(item, dict), path, "must be an object")
        try:
            i, j, k, v = (item[key] for key in ("i", "j", "k", "value"))
        except KeyError:
            raise ValidationError(f"{path}: needs integer i, j, k and value") from None
        # bool is an int subclass, and int() and float() would accept 0.9 and "2"
        _require(
            all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (i, j, k)),
            path,
            f"i, j and k must be integers, got {i!r}, {j!r}, {k!r}",
        )
        _require(
            isinstance(v, numbers.Real) and not isinstance(v, bool),
            path,
            f"value must be a number, got {v!r}",
        )
        i, j, k = int(i), int(j), int(k)
        _require(abs(v) <= sys.float_info.max, path, "value must be finite")
        v = float(v)
        _require(0 <= i < dim and 0 <= j < dim and 0 <= k < dim, path, "index out of range")
        _require(
            i < j,
            path,
            f"duplicate orientation: entries must have i < j (got i={i}, j={j})",
        )
        _require((i, j, k) not in seen, path, f"duplicate entry for ({i},{j},{k})")
        seen.add((i, j, k))
        entries.append((i, j, k, v))

    def matrices(key: str, validate) -> dict[str, np.ndarray]:
        """The section's named matrices, each validated by ``validate``."""
        out = {}
        for name, raw in _section(doc, key).items():
            m = out[str(name)] = _as_matrix(raw, f"{key}.{name}", dim)
            try:
                validate(m)
            except (NonPositiveDefinite, ValidationError) as exc:
                raise ValidationError(f"{key}.{name}: {exc}") from None
        return out

    problem = ProblemFile(
        name=str(doc.get("name", fallback_name)),
        dim=dim,
        basis=basis,
        brackets=tuple(entries),
        metrics=matrices("metrics", Metric),
        symplectic=matrices("symplectic", sp.TwoForm),
        automorphisms=matrices("automorphisms", lambda m: m),
    )
    try:
        problem.algebra().require_jacobi()
    except ValidationError as exc:
        raise ValidationError(f"brackets: {exc}") from None
    return problem


def load_problem(path: str) -> ProblemFile:
    """Read and validate a problem file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return problem_from_dict(doc, fallback_name=path)


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------


def _diag(*entries: float) -> list[list[float]]:
    n = len(entries)
    return [[float(entries[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]


# Built-in problems as tanglie/1 documents; catalog_algebra validates each
# like a file, and the plain lists give every call fresh arrays.
_CATALOG = {
    "heisenberg": {
        "dim": 3,
        "basis": ["X", "Y", "Z"],
        "brackets": [{"i": 0, "j": 1, "k": 2, "value": 1.0}],
        "metrics": {"g1": _diag(1, 1, 1), "g2": _diag(2, 2, 1)},
        "automorphisms": {"dilation": _diag(2, 3, 6), "not_auto": _diag(2, 3, 1)},
    },
    # [Z, X] = X, [Z, Y] = -Y
    "solvable_rr2": {
        "dim": 3,
        "basis": ["X", "Y", "Z"],
        "brackets": [
            {"i": 0, "j": 2, "k": 0, "value": -1.0},
            {"i": 1, "j": 2, "k": 1, "value": 1.0},
        ],
        "metrics": {"g1": _diag(1, 1, 1), "g2": _diag(1, 2, 3)},
        "automorphisms": {"axis_scale": _diag(2, 3, 1)},
    },
    # cyclic bracket table; metrics are the negative Killing form
    "su2": {
        "dim": 3,
        "basis": ["X", "Y", "Z"],
        "brackets": [
            {"i": 0, "j": 1, "k": 2, "value": 1.0},
            {"i": 1, "j": 2, "k": 0, "value": 1.0},
            {"i": 0, "j": 2, "k": 1, "value": -1.0},
        ],
        "metrics": {"g1": _diag(2, 2, 2), "g2": _diag(2, 2, 2)},
        "automorphisms": {
            "rot_z": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        },
    },
    "aff1": {
        "dim": 2,
        "basis": ["X", "Y"],
        "brackets": [{"i": 0, "j": 1, "k": 1, "value": 1.0}],
        "metrics": {"g1": _diag(1, 1), "g2": _diag(1, 2)},
        "symplectic": {"w1": [[0.0, 1.0], [-1.0, 0.0]], "w2": [[0.0, 1.0], [-1.0, 0.0]]},
    },
    "abelian2": {
        "dim": 2,
        "basis": ["X", "Y"],
        "brackets": [],
        "metrics": {"g1": _diag(1, 1), "g2": _diag(1, 2)},
        "symplectic": {"w1": [[0.0, 1.0], [-1.0, 0.0]], "w2": [[0.0, 2.0], [-2.0, 0.0]]},
    },
    "abelian3": {
        "dim": 3,
        "basis": ["X", "Y", "Z"],
        "brackets": [],
        "metrics": {"g1": _diag(1, 1, 1), "g2": _diag(1, 2, 3)},
    },
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog_algebra(name: str) -> ProblemFile:
    """Return a built-in problem by name."""
    try:
        doc = _CATALOG[name]
    except KeyError:
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; available: {', '.join(CATALOG_NAMES)}"
        ) from None
    return problem_from_dict(doc, name)


def resolve_problem(source: str) -> ProblemFile:
    """Interpret a CLI argument as a file path or a catalog name."""
    import os

    if os.path.exists(source):
        return load_problem(source)
    if source in _CATALOG:
        return catalog_algebra(source)
    raise UnknownCatalogEntry(
        f"{source!r} is neither an existing file nor a catalog name "
        f"({', '.join(CATALOG_NAMES)})"
    )


# ---------------------------------------------------------------------------
# Vector expressions
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a problem's basis label: a name, or a lift of one as `tanglie lift` writes
# it, which a lift of a lifted problem suffixes again
_BASIS_LABEL = re.compile(rf"{_LABEL.pattern}(?:\^[cv])*")


def _scan_terms(s: str, labels: tuple[str, ...], lifted: bool):
    """Yield (signed coefficient, basis index, lift kind) triples.

    Grammar: term (("+"|"-") term)*; term := [coef "*"] label suffix,
    where suffix is "^c" or "^v" in lifted mode and empty otherwise.  A
    label may carry lift suffixes of its own (a lifted problem's "Z^v"),
    so in lifted mode only the last suffix is the lift.
    """
    pos = 0
    n = len(s)
    first = True
    while True:
        while pos < n and s[pos].isspace():
            pos += 1
        if pos >= n:
            if first:
                raise ExprError("empty expression", pos)
            return
        sign = 1.0
        if not first:
            if s[pos] == "+":
                pos += 1
            elif s[pos] == "-":
                sign = -1.0
                pos += 1
            else:
                raise ExprError("expected '+' or '-' between terms", pos)
            while pos < n and s[pos].isspace():
                pos += 1
        coef = 1.0
        m = _NUMBER.match(s, pos)
        if m:
            coef = float(m.group())
            if not np.isfinite(coef):
                raise ExprError(f"coefficient {m.group()} is not finite", m.start())
            pos = m.end()
            while pos < n and s[pos].isspace():
                pos += 1
            if pos < n and s[pos] == "*":
                pos += 1
                while pos < n and s[pos].isspace():
                    pos += 1
            else:
                raise ExprError("expected '*' after coefficient", pos)
        m = _BASIS_LABEL.match(s, pos)
        if not m:
            raise ExprError("expected a basis label", pos)
        label, pos = m.group(), m.end()
        kind = None
        if lifted:
            # the last suffix is the lift; what precedes it is the label
            if label[-2:] not in ("^c", "^v"):
                if pos < n and s[pos] == "^":
                    raise ExprError("expected 'c' or 'v' after '^'", pos + 1)
                raise ExprError("expected '^c' or '^v' after label", pos)
            label, kind = label[:-2], label[-1]
        elif label not in labels:
            name = _LABEL.match(label).group()
            if name in labels:
                raise ExprError(
                    "lift suffix not allowed in a base-vector expression",
                    m.start() + len(name),
                )
        if label not in labels:
            raise ExprError(f"unknown basis label {label!r}", m.start())
        if not lifted and pos < n and s[pos] == "^":
            raise ExprError("lift suffix not allowed in a base-vector expression", pos)
        yield sign * coef, labels.index(label), kind
        first = False


def parse_lifted_expr(t: tl.TangentLieAlgebra, s: str) -> np.ndarray:
    """Parse a lifted-vector expression such as ``"0.5*X^v + Z^c"``.

    Labels refer to the input basis of the base algebra; vertical terms
    are raw (unnormalized) vertical lifts.
    """
    labels = t.input_algebra.basis_labels
    u = np.zeros(2 * t.dim)
    with np.errstate(over="ignore"):  # a sum out of range is rejected where used
        for coef, idx, kind in _scan_terms(s, labels, lifted=True):
            e = t.input_algebra.basis_vector(idx)
            u += coef * (tl.vertical_lift(t, e) if kind == "v" else tl.complete_lift(t, e))
    return u


def parse_base_expr(algebra: LieAlgebra, s: str) -> np.ndarray:
    """Parse a base-vector expression such as ``"X + 2*Z"``."""
    x = np.zeros(algebra.dim)
    with np.errstate(over="ignore"):  # a sum out of range is rejected where used
        for coef, idx, _ in _scan_terms(s, algebra.basis_labels, lifted=False):
            x[idx] += coef
    return x


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def tensor_payload(arr: np.ndarray, convention: str) -> dict:
    """A tensor for a report; its data stays an array until JSON output."""
    return {
        "shape": list(arr.shape),
        "data": np.asarray(arr, dtype=float).ravel(),
        "index_convention": convention,
    }


def _non_finite(val, path: str) -> str | None:
    """Path of the first NaN or infinite number in a report value, or None."""
    # one numpy call per float cost most of the walk; keys join on the way up
    if isinstance(val, float):  # np.float64 too
        return None if abs(val) <= sys.float_info.max else path
    if isinstance(val, np.ndarray):
        return None if np.isfinite(val).all() else path
    if isinstance(val, (dict, list)):
        for key, item in val.items() if isinstance(val, dict) else enumerate(val):
            bad = _non_finite(item, "")
            if bad is not None:
                return f"{path}.{key}{bad}"
    return None


class Report:
    """Accumulates results and pass/fail residual rows for one command."""

    def __init__(self, command: list[str], problem: ProblemFile, tol: float | None):
        self.command = list(command)
        self.problem = problem
        self.tol = tol
        self.result: dict = {}
        self.checks: list[dict] = []

    def check(self, name: str, residual: float, default_tol: float):
        tol = self.tol if self.tol is not None else default_tol
        self.checks.append(
            {
                "name": name,
                "residual": float(residual),
                "tol": tol,
                "passed": bool(residual <= tol),
            }
        )

    def check_bool(self, name: str, passed: bool):
        self.checks.append(
            {"name": name, "residual": None, "tol": None, "passed": bool(passed)}
        )

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def require_finite(self) -> None:
        """Refuse a report that holds NaN or inf: such a number is no answer."""
        rows = {row["name"]: row["residual"] for row in self.checks}
        bad = _non_finite({"result": self.result, "checks": rows}, "report")
        if bad is not None:
            raise PreconditionViolated(f"{bad} is not finite: out of floating-point range")

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input": {"name": self.problem.name, "digest": self.problem.digest()},
            "tolerance": self.tol,
            "result": self.result,
            "checks": self.checks,
            "passed": self.passed,
        }

    def emit(self, json_mode: bool) -> None:
        stream = sys.stdout
        if json_mode:
            json.dump(self.to_dict(), stream, indent=2, default=np.ndarray.tolist)
            stream.write("\n")
            return
        stream.write(
            f"problem: {self.problem.name} (dim {self.problem.dim})  "
            f"{self.problem.digest()}\n"
        )
        stream.write(f"command: {' '.join(self.command)}\n")
        if self.result:
            stream.write("result:\n")
            for key, val in self.result.items():
                stream.write(f"  {key} = {_render_value(val)}\n")
        if self.checks:
            stream.write("checks:\n")
            for row in self.checks:
                status = "pass" if row["passed"] else "FAIL"
                res = "" if row["residual"] is None else f"  residual {_fmt(row['residual'])}"
                tol = "" if row["tol"] is None else f"  tol {_fmt(row['tol'])}"
                stream.write(f"  [{status}] {row['name']}{res}{tol}\n")
        stream.write(f"overall: {'PASS' if self.passed else 'FAIL'}\n")


def _render_value(val) -> str:
    if isinstance(val, float):
        return _fmt(val)
    if isinstance(val, dict) and "shape" in val and "data" in val:
        return f"tensor shape {val['shape']} ({val['index_convention']})"
    if isinstance(val, dict):
        return "{" + ", ".join(f"{k}: {_render_value(v)}" for k, v in val.items()) + "}"
    if isinstance(val, list):
        return "[" + ", ".join(_render_value(v) for v in val) + "]"
    return str(val)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _base_mla(problem: ProblemFile, metric_name: str) -> mg.MetricLieAlgebra:
    return mg.MetricLieAlgebra(problem.algebra(), problem.metric(metric_name))


def _tangent(problem: ProblemFile) -> tl.TangentLieAlgebra:
    return tl.build_tangent(
        problem.algebra(), problem.metric("g1"), problem.metric("g2")
    )


def _cmd_check(args, report: Report):
    problem = report.problem
    algebra = problem.algebra()
    defect = algebra.jacobi_residual  # judged at load
    report.check("jacobi_defect", defect, algebra.jacobi_bound)
    payload = {"jacobi_defect": defect, "metrics": {}}
    for name, raw in problem.metrics.items():
        report.check(f"metrics.{name}.symmetry", float(np.max(np.abs(raw - raw.T))), EPS_SYM)
        metric = problem.metric(name)
        mla = mg.MetricLieAlgebra(algebra, metric)
        bi = mg.bi_invariance_defect(mla)
        eq23 = mg.canonical_metricity_defect(mla)
        eq24 = mg.double_bracket_defect(mla)
        tol = report.tol if report.tol is not None else CHECK_TOL
        c, g = algebra.c, metric.g  # the terms: c g for bi-invariance, c c g for eq24
        payload["metrics"][name] = {
            "min_cholesky_pivot": float(np.min(np.diag(np.linalg.cholesky(g))) ** 2),
            "bi_invariant": bool(bi <= tol * _term_size(c, g)),
            "bi_invariance_residual": bi,
            "canonical_metricity_defect": eq23,
            "double_bracket_residual": eq24,
            "satisfies_double_bracket_condition": bool(eq24 <= tol * _term_size(c, c, g)),
        }
    report.result = payload


def _cmd_connection(args, report: Report):
    problem = report.problem
    if args.metric in ("g1", "g2"):
        if args.method not in (None, "koszul"):
            raise ValidationError(
                f"method {args.method!r} applies only to the lifted metric"
            )
        mla = _base_mla(problem, args.metric)
        conn = mg.levi_civita(mla)
        convention = "gamma[i,j,k]: coefficient of X_k in nabla_{X_i} X_j, input basis"
    else:
        t = _tangent(problem)
        mla = t.lifted_mla()
        # "structconst": the paper's lambda-weighted sums, Koszul in the lift frame
        koszul = tl.lifted_connection_structure_constants(t)
        closed = tl.lifted_connection_closed_form(t)
        conn = closed if args.method == "closed" else koszul
        gap = float(np.max(np.abs(closed.gamma - koszul.gamma)))
        report.check("closed_form_vs_koszul", gap, CHECK_TOL)
        convention = f"gamma[i,j,k] on the lift basis; {LIFT_INDEX_CONVENTION}"
    report.check("torsion_free", mg.torsion_defect(mla, conn), 1e-9)
    report.check("metric_compatible", mg.compatibility_defect(mla, conn), 1e-9)
    report.result = {"connection": tensor_payload(conn.gamma, convention)}


def _cmd_curvature(args, report: Report):
    problem = report.problem
    if args.metric in ("g1", "g2"):
        if args.compare:
            raise ValidationError("--compare applies only to the lifted metric")
        mla = _base_mla(problem, args.metric)
        riem = mg.curvature(mla, mg.levi_civita(mla))
        convention = "r[i,j,k,h]: coefficient of X_h in R(X_i,X_j)X_k, input basis"
    else:
        t = _tangent(problem)
        mla = t.lifted_mla()
        riem = tl.lifted_curvature(t)
        convention = f"r[i,j,k,h] on the lift basis; {LIFT_INDEX_CONVENTION}"
        if args.compare:
            deviations = tl.curvature_block_deviations(t, riem)
            report.result["block_deviations"] = deviations
            for key, value in deviations.items():
                report.check(f"block_{key}_vs_oracle", value, CHECK_TOL)
    defects = mg.curvature_invariant_defects(mla, riem)
    for name, value in defects.items():
        report.check(name, value, CHECK_TOL)
    report.result["curvature"] = tensor_payload(riem.r, convention)


def _cmd_sectional(args, report: Report):
    t = _tangent(report.problem)
    parts = args.plane.split(",")
    if len(parts) != 2:
        raise ExprError("plane needs exactly two comma-separated expressions", 0)
    u = parse_lifted_expr(t, parts[0])
    v = parse_lifted_expr(t, parts[1])
    value = tl.lifted_sectional(t, u, v)
    report.result = {
        "sectional": value,
        "plane": [parts[0].strip(), parts[1].strip()],
    }


def _cmd_lift(args, report: Report):
    # no row: the document is written from the tangent that build_tangent
    # checked, and read back it gives the same bytes, so no comparison can fail
    t = _tangent(report.problem)
    c = t.lifted.c
    eye = np.eye(2 * t.dim)
    doc = ProblemFile(
        name=f"{report.problem.name}_tangent",
        dim=2 * t.dim,
        basis=t.lifted.basis_labels,
        brackets=tuple(
            (int(i), int(j), int(k), float(c[i, j, k]))
            for i, j, k in np.argwhere(c)
            if i < j
        ),
        metrics={"g1": eye, "g2": eye},
    ).to_dict()
    doc["meta"] = {
        "index_convention": LIFT_INDEX_CONVENTION,
        "lambdas": [float(v) for v in t.phi_data.lambdas],
        "eigenbasis_columns": t.phi_data.b1.tolist(),
        "lifted_metric_unnormalized": tl.lift_automorphism(t.input_g1.g, t.input_g2.g).tolist(),
    }
    report.result = {"problem": doc}
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ParseError(
                f"--output: cannot write {args.output}: {exc.strerror or exc}"
            ) from None


def _cmd_field(args, report: Report):
    problem = report.problem
    algebra = problem.algebra()
    x = parse_base_expr(algebra, args.vector)
    mla1 = _base_mla(problem, "g1")
    mla2 = _base_mla(problem, "g2")
    tol = report.tol if report.tol is not None else CHECK_TOL
    cls = mg.classify_field(mla1, mla2, x, tol)
    geo1 = mg.is_geodesic_vector(mla1, mg.levi_civita(mla1), x, tol)
    geo2 = mg.is_geodesic_vector(mla2, mg.levi_civita(mla2), x, tol)
    # x^v is Killing iff x is central, by L_{x^v} = -[[0, g2 ad(x)], [ad(x)^T g2, 0]] on
    # the raw lift {X_i^v, X_i^c} with blockdiag(g2, g1); being Killing needs no frame.
    g2, n, raw = mla2.metric.g, algebra.dim, tl.tangent_algebra_unnormalized(algebra)
    lifted = mg.MetricLieAlgebra(raw, Metric(tl.lift_automorphism(mla1.metric.g, g2)))
    lift_l = mg.lie_derivative_metric(lifted, np.concatenate([x, np.zeros_like(x)]))
    bound = tol * _term_size(algebra.c, x, g2)  # only g2 meets x^v
    vertical_killing = float(np.max(np.abs(lift_l))) <= bound
    g2_ad = g2 @ ad_matrix(algebra, x)
    lift_l[:n, n:] += g2_ad
    lift_l[n:, :n] += g2_ad.T
    report.check_bool("vertical_killing_iff_central", float(np.max(np.abs(lift_l))) <= bound)
    report.result = {
        "vector": args.vector.strip(),
        "killing": {"g1": cls.killing1, "g2": cls.killing2},
        "conformal": {"g1": cls.conformal1, "g2": cls.conformal2},
        "conformal_factor": {
            "g1": cls.conformal_factor1,
            "g2": cls.conformal_factor2,
        },
        "lie_derivative_residual": {"g1": cls.residual1, "g2": cls.residual2},
        "geodesic": {"g1": geo1, "g2": geo2},
        "in_center": cls.in_center,
        "vertical_lift_killing": vertical_killing,
    }


def _cmd_equiv(args, report: Report):
    problem = report.problem
    algebra = problem.algebra()
    tau = problem.automorphism(args.tau)
    if not is_automorphism(algebra, tau):
        raise PreconditionViolated("map is not an automorphism of the algebra")
    payload = {"tau": args.tau, "defects": {}}
    for name in sorted(problem.metrics):
        mla = _base_mla(problem, name)
        pulled = mg.MetricLieAlgebra(algebra, pullback_metric(mla.metric, tau))
        defects = mg.equivariance_defect(mla, pulled, tau)
        payload["defects"][name] = {
            "connection": defects.connection_defect,
            "curvature": defects.curvature_defect,
            "sectional": defects.sectional_defect,
        }
        report.check(f"{name}.connection_equivariance", defects.connection_defect, CHECK_TOL)
        report.check(f"{name}.curvature_equivariance", defects.curvature_defect, CHECK_TOL)
        report.check(f"{name}.sectional_equivariance", defects.sectional_defect, CHECK_TOL)
    if args.tau2:
        tau2 = problem.automorphism(args.tau2)
        big = tl.lift_automorphism(tau, tau2)
        lifted_auto = is_automorphism(tl.tangent_algebra_unnormalized(algebra), big)
        payload["tau2"] = args.tau2
        payload["lifted_is_automorphism"] = lifted_auto
        if np.array_equal(tau, tau2):
            report.check_bool("lifted_automorphism", lifted_auto)
    if not report.checks:  # a report with no verdict would pass
        raise PreconditionViolated(
            "nothing to judge: the problem has no metrics, and no --tau2 equal to --tau"
        )
    report.result = payload


def _cmd_symplectic(args, report: Report):
    problem = report.problem
    if problem.dim % 2 == 1:
        raise NotSymplecticInput(
            f"no symplectic form exists in odd dimension {problem.dim}"
        )
    t = _tangent(problem)
    # refused unless both forms are symplectic; then, by the theorem, so is the lift
    lifted = sp.lift_symplectic(t, problem.two_form("w1"), problem.two_form("w2"))
    for pattern, value in sp.relative_closedness(t, lifted).items():
        report.check(f"closedness_{pattern}", value, sp.RTOL)
    report.result = {
        "lifted_form": tensor_payload(
            lifted.w, f"antisymmetric matrix on the lift basis; {LIFT_INDEX_CONVENTION}"
        ),
        "smallest_singular_value": float(np.linalg.svd(lifted.w, compute_uv=False)[-1]),
    }


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan
    if not (np.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglie",
        description=(
            "Geometry of tangent Lie groups from two left-invariant metrics: "
            "connections, curvature, sectional curvature, vector-field "
            "classification, metric equivalence, and symplectic lifts."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument(
        "--tol", type=_tolerance, help="override every check tolerance (finite, >= 0)"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("problem", help="problem file path or catalog name")
        return p

    add("check", "structural residuals of the algebra and its metrics")
    p = add("connection", "Levi-Civita Christoffel tensor")
    p.add_argument("--metric", choices=("g1", "g2", "lift"), required=True)
    p.add_argument("--method", choices=("koszul", "closed", "structconst"))
    p = add("curvature", "curvature tensor and its invariants")
    p.add_argument("--metric", choices=("g1", "g2", "lift"), required=True)
    p.add_argument(
        "--compare",
        action="store_true",
        help="per-block deviation of the structure-constant formulas",
    )
    p = add("sectional", "sectional curvature of a lifted plane")
    p.add_argument("--plane", required=True, help='two expressions, e.g. "Y^v,Z^c"')
    p = add("lift", "emit the tangent algebra as a problem document")
    p.add_argument("-o", "--output", help="also write the document to this file")
    p = add("field", "Killing/conformal/geodesic classification of a base vector")
    p.add_argument("--vector", required=True, help='base expression, e.g. "X + 2*Z"')
    p = add("equiv", "equivalence-up-to-automorphism defects")
    p.add_argument("--tau", required=True, help="automorphism name in the problem")
    p.add_argument("--tau2", help="second automorphism for the lifted pullback check")
    add("symplectic", "lift the symplectic pair and verify it")
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "connection": _cmd_connection,
    "curvature": _cmd_curvature,
    "sectional": _cmd_sectional,
    "lift": _cmd_lift,
    "field": _cmd_field,
    "equiv": _cmd_equiv,
    "symplectic": _cmd_symplectic,
}


def run_command(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code.

    0: all checks passed; 1: a check failed; 2: input or usage error.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with np.errstate(all="ignore"):  # a number out of range is refused, not warned of
            problem = resolve_problem(args.problem)
            report = Report(argv, problem, args.tol)
            _COMMANDS[args.subcommand](args, report)
            report.require_finite()
    except TanglieError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report.emit(args.json)
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
