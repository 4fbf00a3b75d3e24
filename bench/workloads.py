"""The four workloads of the benchmark.

Each workload builds its inputs from the seed, holds one round of
operations in ``ops`` and offers ``run(op)`` (the timed call into
tanglie) and ``check(op, out)`` (the untimed comparison with
:mod:`checker`, returning the names of failed checks).  A run repeats
whole rounds, so every seed and every run length attempts the same mix.

Every workload holds a single problem size: a run that mixes sizes puts
its median on whichever size happens to land there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checker as chk

# The fault in compute_phi that ill-conditioned pairs hit: eigenvalues
# are clustered on an absolute gap, so distinct eigenvalues below about 1
# merge and Gram-Schmidt pairs them with the wrong eigenvectors.
PHI_PAIRING_FAULT = "compute_phi mis-pairs eigenvectors of an ill-conditioned pair"


def spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a.T @ a + np.eye(n)


def brackets_to_tensor(n: int, entries) -> np.ndarray:
    c = np.zeros((n, n, n))
    for i, j, k, v in entries:
        c[i, j, k] = v
        c[j, i, k] = -v
    return c


def direct_sum(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    c = np.zeros((n, n, n))
    o = 0
    for b in blocks:
        m = b.shape[0]
        c[o:o + m, o:o + m, o:o + m] = b
        o += m
    return c


def block_diag(mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    o = 0
    for m in mats:
        k = m.shape[0]
        out[o:o + k, o:o + k] = m
        o += k
    return out


H3R = brackets_to_tensor(4, [(0, 1, 2, 1.0)])  # h3 + R: [X, Y] = Z, T central
AFF1 = brackets_to_tensor(2, [(0, 1, 1, 1.0)])  # aff(1): [X, Y] = Y
STD2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def h3r_form(a=0.0, b=1.0, c=0.0, d=0.0, e=1.0) -> np.ndarray:
    """Closed two-form on h3 + R: any form with w(Z, T) = 0."""
    w = np.zeros((4, 4))
    w[0, 1], w[0, 2], w[0, 3], w[1, 2], w[1, 3] = a, b, c, d, e
    return w - w.T


def seeded_h3r_form(rng) -> np.ndarray:
    while True:
        a, b, c, d, e = rng.uniform(-2.0, 2.0, 5)
        if abs(c * d - b * e) > 0.25:  # Pfaffian bounded away from 0
            return h3r_form(a, b, c, d, e)


def seeded_aff1_form(rng) -> np.ndarray:
    return rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * STD2


# ---------------------------------------------------------------------------
# Lift analysis: catalog_sweep and lift_pipeline
# ---------------------------------------------------------------------------


@dataclass
class LiftCase:
    name: str
    c: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    forms: tuple | None  # (w1, w2) on the base, or None
    planes: list  # (xv, xc, yv, yc): the plane span(xv^v + xc^c, yv^v + yc^c)
    precomputed: bool  # pass the curvature tensor to lifted_sectional
    known_fault: str | None = None
    lib: dict = field(default_factory=dict, repr=False)
    ref: dict = field(default_factory=dict, repr=False)


def seeded_planes(rng, n: int, count: int) -> list:
    return [tuple(rng.standard_normal(n) for _ in range(4)) for _ in range(count)]


class Workload:
    ops: list

    def close(self) -> None:
        """Remove what set-up wrote."""


class LiftAnalysis(Workload):
    """Shared run and check of the full lift analysis."""

    def __init__(self):
        from tanglie import lie_core, metric_geometry, symplectic_lift, tangent_lift

        self.lc, self.mg, self.tl, self.sp = lie_core, metric_geometry, tangent_lift, symplectic_lift

    def prepare(self, case: LiftCase) -> None:
        """Library-side input objects; validated once, like a loaded problem."""
        lc, sp = self.lc, self.sp
        case.lib = {
            "algebra": lc.LieAlgebra.from_tensor(case.c),
            "g1": lc.Metric(case.g1),
            "g2": lc.Metric(case.g2),
        }
        if case.forms is not None:
            case.lib["forms"] = tuple(sp.TwoForm(w) for w in case.forms)

    def run(self, case: LiftCase) -> dict:
        tl, mg, sp = self.tl, self.mg, self.sp
        lib = case.lib
        t = tl.build_tangent(lib["algebra"], lib["g1"], lib["g2"])
        mla = t.lifted_mla()
        out = {
            "t": t,
            "connections": {
                "koszul": mg.levi_civita(mla),
                "closed": tl.lifted_connection_closed_form(t),
                "structconst": tl.lifted_connection_structure_constants(t),
            },
        }
        riem = tl.lifted_curvature(t)
        out["riem"] = riem
        out["invariants"] = mg.curvature_invariant_defects(mla, riem)
        out["blocks"] = tl.curvature_block_deviations(t, riem)
        out["closed_forms"] = tl.lifted_sectional_closed_forms(t)
        out["bi"] = tl.bi_invariance_of_lift(t)
        out["planes"] = [
            tl.lifted_sectional(
                t,
                tl.vertical_lift(t, xv) + tl.complete_lift(t, xc),
                tl.vertical_lift(t, yv) + tl.complete_lift(t, yc),
                riem if case.precomputed else None,
            )
            for xv, xc, yv, yc in case.planes
        ]
        if case.forms is not None:
            w1, w2 = lib["forms"]
            wt = sp.lift_symplectic(t, w1, w2)
            out["wt"] = wt
            out["closedness"] = sp.verify_closedness_identities(t, wt)
            out["is_symplectic"] = sp.is_symplectic(t.lifted, wt)
        return out

    @staticmethod
    def reference(case: LiftCase) -> dict:
        """Raw-basis Koszul data; depends on the inputs only."""
        if not case.ref:
            b = chk.raw_bracket(case.c)
            g = chk.raw_metric(case.g1, case.g2)
            case.ref = {"b": b, "g": g, "gamma": chk.koszul(b, g)}
        return case.ref

    def check(self, case: LiftCase, out: dict) -> list[str]:
        v = chk.Verdict()
        ref = self.reference(case)
        t = out["t"]
        n = t.dim
        b1, lam = t.phi_data.b1, t.phi_data.lambdas
        r1, r2 = chk.frame_residuals(b1, lam, case.g1, case.g2)
        v.small("frame.b1T_g1_b1", r1, rtol=chk.EIG_RTOL)
        v.small("frame.b1T_g2_b1_rel_lambda", r2, rtol=chk.EIG_RTOL)

        p = chk.lift_frame(b1, lam)
        bf = chk.to_frame3(ref["b"], p)
        gf = p.T @ ref["g"] @ p
        gam = chk.to_frame3(ref["gamma"], p)
        gscale = np.max(np.abs(gam))
        v.close("lifted_bracket", t.lifted.c, bf)
        for name, conn in out["connections"].items():
            v.close(f"connection.{name}", conn.gamma, gam)
            v.small(f"connection.{name}.torsion", chk.torsion_defect(conn.gamma, bf), gscale)
            v.small(f"connection.{name}.metric", chk.compatibility_defect(conn.gamma, gf), gscale)

        r = out["riem"].r
        rscale = np.max(np.abs(r))
        for name, val in chk.curvature_symmetry_defects(r, gf).items():
            v.small(f"curvature.{name}", val, rscale)
        for name, val in out["invariants"].items():
            v.small(f"invariants.{name}", val, rscale)
        for key in ("ccc", "vvv"):  # the two blocks whose formulas are sound
            v.small(f"block.{key}", out["blocks"][key], rscale)

        k_ref = chk.pair_sectionals(gam, bf, gf)
        k_tensor = np.einsum("ijji->ij", r).copy()  # lifted metric is the identity
        np.fill_diagonal(k_tensor, 0.0)
        v.close("sectional.frame_pairs", k_tensor, k_ref)
        off = ~np.eye(n, dtype=bool)
        forms = out["closed_forms"]
        v.close("sectional.closed_cc", forms["cc"][off], k_ref[n:, n:][off])
        v.close("sectional.closed_vv", forms["vv"][off], k_ref[:n, :n][off])
        v.close("sectional.closed_vc", forms["vc"][off], k_ref[:n, n:][off])
        for idx, ((xv, xc, yv, yc), got) in enumerate(zip(case.planes, out["planes"])):
            want = chk.sectional(ref["gamma"], ref["b"], ref["g"],
                                 np.concatenate([xv, xc]), np.concatenate([yv, yc]))
            v.close(f"sectional.raw_plane{idx}", got, want)

        low = np.tensordot(bf, gf, axes=(2, 0))
        bi_defect = np.max(np.abs(low.transpose(2, 0, 1) - low))
        if bi_defect < 1e-10 or bi_defect > 1e-6:  # away from the tolerance edge
            v.ok("bi_invariance_of_lift", out["bi"].lift_satisfies_oneill == (bi_defect < 1e-10))

        if case.forms is not None:
            w = out["wt"].w
            wscale = np.max(np.abs(w))
            v.close("symplectic.lifted_form", w, p.T @ chk.raw_two_form(*case.forms) @ p)
            v.small("symplectic.closed", chk.cocycle_defect(bf, w), wscale * np.max(np.abs(bf)))
            v.ok("symplectic.nondegenerate", np.linalg.svd(w, compute_uv=False)[-1] > 1e-9 * wscale)
            for pattern, val in out["closedness"].items():
                v.small(f"symplectic.closedness_{pattern}", val, wscale * np.max(np.abs(bf)))
            v.ok("symplectic.is_symplectic", out["is_symplectic"])
        return v.failures


class CatalogSweep(LiftAnalysis):
    """Every catalog algebra at n <= 3, each with seeded SPD metric pairs."""

    PAIRS_PER_ALGEBRA = 4
    PLANES = 2

    def __init__(self, seed: int, workdir: str, traced: bool, root: str):
        super().__init__()
        from tanglie import cli_io

        rng = np.random.default_rng(seed)
        self.ops = []
        for name in cli_io.CATALOG_NAMES:
            problem = cli_io.catalog_algebra(name)
            c = problem.algebra().c
            n = problem.dim
            forms = None
            if problem.symplectic:
                forms = (problem.symplectic["w1"], problem.symplectic["w2"])
            for k in range(self.PAIRS_PER_ALGEBRA):
                case = LiftCase(f"{name}#{k}", c, spd(rng, n), spd(rng, n), forms,
                                seeded_planes(rng, n, self.PLANES), precomputed=True)
                self.prepare(case)
                self.ops.append(case)


class LiftPipeline(LiftAnalysis):
    """Symplectic nilpotent and solvable algebras at one base dimension.

    One operation in every round is the fixed ill-conditioned pair
    g1 = I, g2 = diag(logspace(8, -8, n)); it fails the eigen-pairing
    check until compute_phi clusters on relative gaps.
    """

    N = 12
    PAIRS_PER_ALGEBRA = 3
    PLANES = 2

    def __init__(self, seed: int, workdir: str, traced: bool, root: str):
        super().__init__()
        rng = np.random.default_rng(seed)
        n = self.N
        layouts = {
            "3(h3+R)": ["h3r"] * 3,
            "6aff1": ["aff1"] * 6,
            "2(h3+R)+2aff1": ["h3r", "h3r", "aff1", "aff1"],
        }
        self.ops = []
        for label, parts in layouts.items():
            c = direct_sum([H3R if p == "h3r" else AFF1 for p in parts])
            w1 = block_diag([h3r_form() if p == "h3r" else STD2 for p in parts])
            for k in range(self.PAIRS_PER_ALGEBRA):
                w2 = block_diag([seeded_h3r_form(rng) if p == "h3r" else seeded_aff1_form(rng)
                                 for p in parts])
                self.ops.append(LiftCase(f"{label}#{k}", c, spd(rng, n), spd(rng, n), (w1, w2),
                                         seeded_planes(rng, n, self.PLANES), precomputed=False))
        c = direct_sum([H3R] * 3)
        w1 = block_diag([h3r_form()] * 3)
        e = np.eye(n)
        self.ops.append(LiftCase(
            "3(h3+R)#ill-conditioned", c, np.eye(n), np.diag(np.logspace(8, -8, n)), (w1, w1),
            [(e[0], e[1], e[2], -e[3]), (e[4] + e[8], e[5], e[9], e[2])],
            precomputed=False, known_fault=PHI_PAIRING_FAULT))
        for case in self.ops:
            self.prepare(case)


# ---------------------------------------------------------------------------
# base_equiv: metric_geometry at scale, no tangent_lift in the path
# ---------------------------------------------------------------------------


def heisenberg(m: int):
    """h_{2m+1}: [X_i, Y_i] = Z.  Dilation X -> a, Y -> b, Z -> ab."""
    n = 2 * m + 1
    c = brackets_to_tensor(n, [(i, m + i, 2 * m, 1.0) for i in range(m)])
    return c, lambda a, b: np.diag([a] * m + [b] * m + [a * b]), n - 1


def filiform(n: int):
    """Model filiform: [X_1, X_i] = X_{i+1}.  Dilation X_1 -> a, X_i -> b a^(i-2)."""
    c = brackets_to_tensor(n, [(0, i, i + 1, 1.0) for i in range(1, n - 1)])
    return c, lambda a, b: np.diag([a] + [b * a ** (i - 1) for i in range(n - 1)]), n - 1


def free_two_step_plus_line(g: int):
    """Free 2-step nilpotent on g generators plus a central line T.

    Dilation: generators -> a, brackets -> a^2, T -> b.
    """
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    n = g + len(pairs) + 1
    c = brackets_to_tensor(n, [(i, j, g + k, 1.0) for k, (i, j) in enumerate(pairs)])
    return c, lambda a, b: np.diag([a] * g + [a * a] * len(pairs) + [b]), n - 1


@dataclass
class EquivCase:
    name: str
    c: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    tau: np.ndarray
    vectors: list
    known_fault: str | None = None
    lib: dict = field(default_factory=dict, repr=False)


class BaseEquiv(Workload):
    """Graded nilpotent algebras (n = 11) with dilation automorphisms."""

    PAIRS_PER_ALGEBRA = 2

    def __init__(self, seed: int, workdir: str, traced: bool, root: str):
        from tanglie import lie_core, metric_geometry

        self.lc, self.mg = lie_core, metric_geometry
        rng = np.random.default_rng(seed)
        algebras = {
            "heisenberg11": heisenberg(5),
            "filiform11": filiform(11),
            "free(4,2)+R": free_two_step_plus_line(4),
        }
        self.ops = []
        for label, (c, dilation, central) in algebras.items():
            n = c.shape[0]
            for k in range(self.PAIRS_PER_ALGEBRA):
                a, b = rng.uniform(0.8, 1.25, 2)
                case = EquivCase(f"{label}#{k}", c, spd(rng, n), spd(rng, n), dilation(a, b),
                                 [rng.standard_normal(n), np.eye(n)[central]])
                case.lib = {
                    "algebra": self.lc.LieAlgebra.from_tensor(c),
                    "g1": self.lc.Metric(case.g1),
                    "g2": self.lc.Metric(case.g2),
                }
                self.ops.append(case)

    def run(self, case: EquivCase) -> dict:
        lc, mg = self.lc, self.mg
        alg = case.lib["algebra"]
        out = {"jacobi": lc.jacobi_defect(alg), "automorphism": lc.is_automorphism(alg, case.tau)}
        mlas = []
        for name in ("g1", "g2"):
            mla = mg.MetricLieAlgebra(alg, case.lib[name])
            mlas.append(mla)
            pulled = lc.pullback_metric(mla.metric, case.tau)
            out[name] = {
                "bi_invariance": mg.bi_invariance_defect(mla),
                "canonical_metricity": mg.canonical_metricity_defect(mla),
                "double_bracket": mg.double_bracket_defect(mla),
                "pulled": pulled.g,
                "defects": mg.equivariance_defect(mla, mg.MetricLieAlgebra(alg, pulled), case.tau),
            }
        out["fields"] = [mg.classify_field(mlas[0], mlas[1], x) for x in case.vectors]
        return out

    def check(self, case: EquivCase, out: dict) -> list[str]:
        v = chk.Verdict()
        c, tau = case.c, case.tau
        v.small("jacobi", out["jacobi"], rtol=1e-12)
        v.ok("is_automorphism", out["automorphism"])
        v.small("automorphism_defect", chk.automorphism_defect(c, tau), np.max(np.abs(tau)) ** 2)
        tmax = np.max(np.abs(tau))
        for name in ("g1", "g2"):
            g = getattr(case, name)
            res = out[name]
            ref = chk.base_residuals(c, g)
            for key, want in ref.items():
                v.close(f"{name}.{key}", res[key], want)
            pulled = tau.T @ g @ tau
            v.close(f"{name}.pullback", res["pulled"], pulled)
            # zero defects for a true automorphism, relative to the tensors compared
            gam = chk.koszul(c, g)
            gam_p = chk.koszul(c, pulled)
            r = chk.curvature(gam, c)
            gscale = max(np.max(np.abs(gam)) * tmax**2, np.max(np.abs(gam_p)) * tmax)
            rscale = max(np.max(np.abs(r)) * tmax**3, np.max(np.abs(chk.curvature(gam_p, c))) * tmax)
            d = res["defects"]
            v.small(f"{name}.connection_equivariance", d.connection_defect, gscale)
            v.small(f"{name}.curvature_equivariance", d.curvature_defect, rscale)
            ksc = np.max(np.abs(chk.pair_sectionals(gam, c, g)))
            v.small(f"{name}.sectional_equivariance", d.sectional_defect, ksc)
        for idx, (x, cls) in enumerate(zip(case.vectors, out["fields"])):
            res1 = chk.killing_residual(c, case.g1, x)
            res2 = chk.killing_residual(c, case.g2, x)
            v.close(f"field{idx}.residual_g1", cls.residual1, res1)
            v.close(f"field{idx}.residual_g2", cls.residual2, res2)
            central = np.max(np.abs(chk.ad(c, x))) <= 1e-12
            v.ok(f"field{idx}.in_center", cls.in_center == central)
            v.ok(f"field{idx}.killing", (cls.killing1, cls.killing2) == (res1 <= 1e-12, res2 <= 1e-12))
        return v.failures


# ---------------------------------------------------------------------------
# cli_catalog: one fresh interpreter per call
# ---------------------------------------------------------------------------

ENTRY = "import sys; from tanglie.cli_io import main; sys.argv[0] = 'tanglie'; sys.exit(main())"

CATALOG = {
    "heisenberg": (brackets_to_tensor(3, [(0, 1, 2, 1.0)]), np.diag([2.0, 2.0, 1.0])),
    "solvable_rr2": (brackets_to_tensor(3, [(0, 2, 0, -1.0), (1, 2, 1, 1.0)]),
                     np.diag([1.0, 2.0, 3.0])),
    "aff1": (AFF1, np.diag([1.0, 2.0])),
}
HEIS_DILATION = np.diag([2.0, 3.0, 6.0])


def documented_frame(g2_diag: np.ndarray):
    """Eigenframe of (I, diag) by the README's convention: ascending, ties in input order."""
    order = np.argsort(g2_diag, kind="stable")
    return np.eye(len(g2_diag))[:, order], g2_diag[order]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@dataclass
class CliOp:
    name: str
    argv: list
    known_fault: str | None = None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


class CliCatalog(Workload):
    """All eight commands on the catalog, with the README's flags."""

    def __init__(self, seed: int, workdir: str, traced: bool, root: str):
        self.root = root
        self.traced = traced
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.child_peak_kb = 0
        if traced:
            from tanglie import cli_io

            self.cli_io = cli_io
        rng = np.random.default_rng(seed)
        # the grammar has no leading sign, so the first coefficient is positive
        coef = [f"{a:.3f}" for a in (rng.uniform(0.1, 2.0), *rng.uniform(-2.0, 2.0, 2))]
        self.field_vector = np.array([float(a) for a in coef])
        vector = " + ".join(f"{a}*{lab}" for a, lab in zip(coef, "XYZ")).replace("+ -", "- ")
        self.lifted_path = os.path.join(workdir, "heisenberg_tangent.json")
        heis_conn = [["connection", "heisenberg", "--metric", "lift", "--method", m]
                     for m in ("koszul", "closed", "structconst")]
        argvs = [
            ["check", "heisenberg"],
            *heis_conn,
            ["curvature", "solvable_rr2", "--metric", "lift", "--compare"],
            ["sectional", "heisenberg", "--plane", "Y^v,Z^v"],
            ["sectional", "solvable_rr2", "--plane", "Z^v,X^v"],
            ["lift", "heisenberg"],
            ["field", "heisenberg", "--vector", vector],
            ["equiv", "heisenberg", "--tau", "dilation", "--tau2", "dilation"],
            ["symplectic", "aff1"],
            ["check", self.lifted_path],
        ]
        self.ops = [CliOp(" ".join(a[:2]) if a[1] != self.lifted_path else "check lifted",
                          a + ["--json"]) for a in argvs]
        self.ops = [self.ops[i] for i in rng.permutation(len(self.ops))]
        self.refs = {}
        for name, (c, g2) in CATALOG.items():
            b1, lam = documented_frame(np.diag(g2))
            p = chk.lift_frame(b1, lam)
            b, g = chk.raw_bracket(c), chk.raw_metric(np.eye(len(lam)), g2)
            gamma = chk.koszul(b, g)
            self.refs[name] = {"c": c, "g2": g2, "b1": b1, "lam": lam, "p": p, "b": b, "g": g,
                               "gamma": gamma, "bf": chk.to_frame3(b, p), "gf": p.T @ g @ p,
                               "gamma_f": chk.to_frame3(gamma, p)}
        # input generation: the problem file that `check` reads back
        made = self.call(["lift", "heisenberg", "-o", self.lifted_path, "--json"])
        if made.code != 0 or not os.path.exists(self.lifted_path):
            raise RuntimeError(f"tanglie lift -o failed with exit code {made.code}: {made.stderr}")

    def call(self, argv) -> CliResult:
        if self.traced:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_io.run_command(list(argv))
            return CliResult(code, out.getvalue(), err.getvalue(), 0)
        with open(os.devnull, "rb") as devnull:
            proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=self.root,
                                    env=self.env, stdin=devnull, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
        stdout, stderr = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, stdout.decode(), stderr.decode(), usage.ru_maxrss)

    def run(self, op: CliOp) -> CliResult:
        return self.call(op.argv)

    def check(self, op: CliOp, res: CliResult) -> list[str]:
        v = chk.Verdict()
        v.ok("exit_code", res.code == 0)
        try:
            doc = json.loads(res.stdout, parse_constant=_reject_constant)
        except ValueError:
            return v.failures + ["strict_json"]
        v.ok("report.passed", doc.get("passed") is True)
        for row in doc.get("checks", []):
            v.ok(f"row.{row['name']}", row["residual"] is None or math.isfinite(row["residual"]))
        result = doc.get("result", {})
        cmd = op.argv[0]
        try:
            getattr(self, f"_check_{cmd}")(op, result, v)
        except (KeyError, TypeError, ValueError) as exc:
            v.failures.append(f"{cmd}.report_shape:{type(exc).__name__}")
        return v.failures

    @staticmethod
    def _tensor(payload) -> np.ndarray:
        return np.asarray(payload["data"], dtype=float).reshape(payload["shape"])

    def _check_check(self, op, result, v):
        v.small("jacobi_defect", result["jacobi_defect"], rtol=1e-12)
        if op.argv[1] == self.lifted_path:
            with open(self.lifted_path, encoding="utf-8") as fh:
                meta = json.load(fh)["meta"]
            ref = self.refs["heisenberg"]
            v.close("lifted_file.lambdas", meta["lambdas"], ref["lam"])
            v.close("lifted_file.eigenbasis", meta["eigenbasis_columns"], ref["b1"])
            return
        ref = self.refs[op.argv[1]]
        for name, g in (("g1", np.eye(3)), ("g2", ref["g2"])):
            want = chk.base_residuals(ref["c"], g)
            got = result["metrics"][name]
            v.close(f"{name}.bi_invariance", got["bi_invariance_residual"], want["bi_invariance"])
            v.close(f"{name}.canonical_metricity", got["canonical_metricity_defect"],
                    want["canonical_metricity"])
            v.close(f"{name}.double_bracket", got["double_bracket_residual"], want["double_bracket"])

    def _check_connection(self, op, result, v):
        ref = self.refs[op.argv[1]]
        gam = self._tensor(result["connection"])
        scale = np.max(np.abs(ref["gamma_f"]))
        v.close("connection", gam, ref["gamma_f"])
        v.small("torsion", chk.torsion_defect(gam, ref["bf"]), scale)
        v.small("metric", chk.compatibility_defect(gam, ref["gf"]), scale)

    def _check_curvature(self, op, result, v):
        ref = self.refs[op.argv[1]]
        r = self._tensor(result["curvature"])
        want = chk.curvature(ref["gamma_f"], ref["bf"])
        v.close("curvature", r, want)
        for name, val in chk.curvature_symmetry_defects(r, ref["gf"]).items():
            v.small(f"curvature.{name}", val, np.max(np.abs(want)))
        for key in ("ccc", "vvv"):
            v.small(f"block.{key}", result["block_deviations"][key], np.max(np.abs(want)))

    def _check_sectional(self, op, result, v):
        name = op.argv[1]
        ref = self.refs[name]
        labels = "XYZ"
        vecs = []
        for term in op.argv[3].split(","):
            label, kind = term.strip().split("^")
            x = np.zeros(2 * len(ref["lam"]))
            x[labels.index(label) + (len(ref["lam"]) if kind == "c" else 0)] = 1.0
            vecs.append(x)
        paper = {"heisenberg": 1.0 / 8.0, "solvable_rr2": 1.0 / 12.0}[name]
        v.close("paper_value", result["sectional"], paper, rtol=1e-12)
        v.close("sectional", result["sectional"],
                chk.sectional(ref["gamma"], ref["b"], ref["g"], *vecs))

    def _check_lift(self, op, result, v):
        ref = self.refs[op.argv[1]]
        doc = result["problem"]
        n2 = doc["dim"]
        v.ok("dim", n2 == 2 * len(ref["lam"]))
        b = np.zeros((n2, n2, n2))
        for e in doc["brackets"]:
            b[e["i"], e["j"], e["k"]] = e["value"]
            b[e["j"], e["i"], e["k"]] = -e["value"]
        v.close("lifted_bracket", b, ref["bf"])
        v.close("lambdas", doc["meta"]["lambdas"], ref["lam"])
        v.close("eigenbasis", doc["meta"]["eigenbasis_columns"], ref["b1"])
        v.close("lifted_metric_unnormalized", doc["meta"]["lifted_metric_unnormalized"], ref["g"])

    def _check_field(self, op, result, v):
        ref = self.refs[op.argv[1]]
        x = self.field_vector
        for name, g in (("g1", np.eye(3)), ("g2", ref["g2"])):
            want = chk.killing_residual(ref["c"], g, x)
            v.close(f"residual_{name}", result["lie_derivative_residual"][name], want)
            v.ok(f"killing_{name}", result["killing"][name] == (want <= 1e-12))
        central = bool(np.max(np.abs(chk.ad(ref["c"], x))) <= 1e-12)
        v.ok("in_center", result["in_center"] == central)
        v.ok("vertical_lift_killing", result["vertical_lift_killing"] == central)

    def _check_equiv(self, op, result, v):
        ref = self.refs[op.argv[1]]
        for name, defects in result["defects"].items():
            for key, val in defects.items():
                v.small(f"{name}.{key}", val, np.max(np.abs(HEIS_DILATION)) ** 4)
        big = np.kron(np.eye(2), HEIS_DILATION)
        v.small("lift_is_automorphism.reference", chk.automorphism_defect(ref["b"], big))
        v.ok("lifted_is_automorphism", result["lifted_is_automorphism"] is True)

    def _check_symplectic(self, op, result, v):
        ref = self.refs[op.argv[1]]
        w = self._tensor(result["lifted_form"])
        v.close("lifted_form", w, ref["p"].T @ chk.raw_two_form(STD2, STD2) @ ref["p"])
        v.small("closed", chk.cocycle_defect(ref["bf"], w), np.max(np.abs(w)))
        smallest = np.linalg.svd(w, compute_uv=False)[-1]
        v.close("smallest_singular_value", result["smallest_singular_value"], smallest)
        v.ok("nondegenerate", smallest > 1e-9)

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.lifted_path)


WORKLOADS = {
    "cli_catalog": CliCatalog,
    "catalog_sweep": CatalogSweep,
    "lift_pipeline": LiftPipeline,
    "base_equiv": BaseEquiv,
}
