"""Time the lift stages in-process on Heisenberg algebras of growing dimension.

For each n = 2m + 1 in ``--sizes`` the input is h_n ([X_i, Y_i] = Z) with
two metrics drawn by ``random_spd_metric`` from ``default_rng(n)``.  Each
stage is timed ``--repeat`` times, each time on a tangent built just
before, so a connection derived once per tangent is derived again every
time.  The best time in ms and the peak of memory allocated during one
more call, in MiB as ``tracemalloc`` counts it, are printed as JSON, one
object per n.  Only public library functions are timed, so two checkouts
compare stage by stage.  The ``build_tangent`` stage takes an algebra
built just before from the structure constants, so the Jacobi verdict
that an algebra keeps is formed in every call.  The two connection
stages are the closed form and ``levi_civita`` of the lift, the route of
the structure-constant sums.  The curvature stages work on a tangent whose closed form is
already derived: ``curvature`` is ``lifted_curvature``, ``curvature_r``
is the same call followed by a read of its full (2n)^4 tensor ``.r``,
which a graded tensor assembles on demand, and the invariant, block and
deviation stages and ``lifted_sectional_riem`` reuse one curvature tensor.
The two plane stages take the sectional curvature of one seeded plane:
``lifted_sectional`` from the connection, ``lifted_sectional_riem`` from
the curvature tensor.  The stages on the curvature tensor are skipped and
printed as null where its 8 stored n^4 blocks would take more than
``TENSOR_BUDGET`` bytes, and ``curvature_r`` also where the full tensor
would.  The ``lift``, ``connection`` and ``check`` stages are the
commands ``tanglie lift FILE --json``, ``tanglie connection FILE --metric
lift`` and ``tanglie check FILE`` run in-process, with their output
captured, on the h_n problem written to a file once per n: the load, the
work of the command and the emitted report.  The last two print text, in
which a tensor is one line, so their time is not that of writing (2n)^3
numbers as JSON.

Usage (from anywhere)::

    python tools/ladder.py ROOT --sizes 11,17,25 --repeat 3

ROOT is the root of the source checkout to measure.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

TENSOR_BUDGET = 2**30  # bytes of 8 n^4 float64 blocks: n = 63 fits, n = 65 does not
STAGES = (
    "build_tangent",
    "lifted_connection_closed_form",
    "levi_civita",
    "lifted_sectional",
    "curvature",
    "curvature_r",
    "curvature_invariant_defects",
    "curvature_blocks",
    "curvature_block_deviations",
    "lifted_sectional_riem",
    "lift",
    "connection",
    "check",
)


def heisenberg(n: int) -> np.ndarray:
    """Structure constants of h_n, n = 2m + 1: [X_i, Y_i] = Z."""
    m = (n - 1) // 2
    c = np.zeros((n, n, n))
    for i in range(m):
        c[i, m + i, n - 1] = 1.0
        c[m + i, i, n - 1] = -1.0
    return c


def command(*argv: str) -> None:
    """Run ``tanglie ARGV`` in-process and drop its report."""
    from tanglie.cli_io import run_command

    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command(list(argv))
    if code != 0:
        raise RuntimeError(f"tanglie {' '.join(argv)} exited {code}")


def ladder(sizes, repeat, workdir) -> dict:
    from tanglie import metric_geometry as mg, tangent_lift as tl
    from tanglie.lie_core import LieAlgebra

    out = {}
    for n in sizes:
        rng = np.random.default_rng(n)
        c = heisenberg(n)
        algebra = LieAlgebra.from_tensor(c)
        g1, g2 = mg.random_spd_metric(rng, n), mg.random_spd_metric(rng, n)
        u, v = rng.standard_normal((2, 2 * n))
        path = os.path.join(workdir, f"h{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": "tanglie/1",
                "name": f"h{n}",
                "dim": n,
                "brackets": [{"i": int(i), "j": int(j), "k": int(k), "value": float(c[i, j, k])}
                             for i, j, k in np.argwhere(c) if i < j],
                "metrics": {"g1": g1.g.tolist(), "g2": g2.g.tolist()},
            }, fh)
        warm = tl.build_tangent(algebra, g1, g2)
        tl.lifted_connection_closed_form(warm)
        stages = {  # each takes a tangent on which nothing is derived yet
            "build_tangent": lambda t: tl.build_tangent(LieAlgebra.from_tensor(c), g1, g2),
            "lifted_connection_closed_form": tl.lifted_connection_closed_form,
            "levi_civita": lambda t: mg.levi_civita(t.lifted_mla()),
            "lifted_sectional": lambda t: tl.lifted_sectional(warm, u, v),
            "lift": lambda t: command("lift", path, "--json"),
            "connection": lambda t: command("connection", path, "--metric", "lift"),
            "check": lambda t: command("check", path),
        }
        if 8 * 8 * n**4 <= TENSOR_BUDGET:
            riem = tl.lifted_curvature(warm)
            stages.update({
                "curvature": lambda t: tl.lifted_curvature(warm),
                "curvature_invariant_defects": lambda t: mg.curvature_invariant_defects(
                    t.lifted_mla(), riem),
                "curvature_blocks": tl.structure_constant_curvature_blocks,
                "curvature_block_deviations": lambda t: tl.curvature_block_deviations(t, riem),
                "lifted_sectional_riem": lambda t: tl.lifted_sectional(warm, u, v, riem),
            })
        if 8 * (2 * n) ** 4 <= TENSOR_BUDGET:
            stages["curvature_r"] = lambda t: tl.lifted_curvature(warm).r
        best = {name: float("inf") for name in stages}
        for _ in range(repeat):
            for name, stage in stages.items():
                t = tl.build_tangent(algebra, g1, g2)
                begin = time.perf_counter()
                stage(t)
                best[name] = min(best[name], (time.perf_counter() - begin) * 1e3)
        peak = {}
        for name, stage in stages.items():  # an untimed call, as tracing slows it
            t = tl.build_tangent(algebra, g1, g2)
            tracemalloc.start()
            stage(t)
            peak[name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
            tracemalloc.stop()
        out[str(n)] = {
            "ms": {name: round(best[name], 3) if name in best else None for name in STAGES},
            "peak_mb": {name: peak.get(name) for name in STAGES},
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", help="root of the source checkout")
    p.add_argument("--sizes", default="11,17,25", help="comma-separated odd dimensions")
    p.add_argument("--repeat", type=int, default=3)
    args = p.parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    sizes = [int(s) for s in args.sizes.split(",")]
    with tempfile.TemporaryDirectory() as workdir:
        print(json.dumps(ladder(sizes, args.repeat, workdir), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
