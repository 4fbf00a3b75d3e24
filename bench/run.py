"""Benchmark of tanglie: one workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics of the traced run (spans go to ``bench/out/``).
Workloads, inputs and metrics are described in ``bench/README.md``.
"""

import os

# Fixed on every commit and at most nproc on the reference machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
STARTUP_PROBES = 5
WORKLOAD_NAMES = ("cli_catalog", "catalog_sweep", "lift_pipeline", "base_equiv")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up operation, print 'ready' and exit")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_seconds(cmd, until_ready: bool) -> float:
    """Seconds from spawning cmd until it prints 'ready', or else until it exits."""
    begin = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - begin
        proc.stdout.read()
    done = time.perf_counter() - begin
    if proc.returncode != 0 or (until_ready and first.strip() != b"ready"):
        raise RuntimeError(f"{cmd[2:]} failed with exit code {proc.returncode}")
    return ready if until_ready else done


def setup_seconds(args) -> float:
    """Median, over fresh processes, of start-up to the first timed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    return statistics.median(spawn_seconds(cmd, True) for _ in range(SETUP_PROBES))


def interpreter_ms(code: str) -> float:
    cmd = [sys.executable, "-c", code]
    return statistics.median(spawn_seconds(cmd, False) for _ in range(STARTUP_PROBES)) * 1e3


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "tanglie", "__init__.py")):
        print(f"bench: no tanglie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    w = None
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir, bool(args.trace), ROOT)
        w.run(w.ops[0])  # warm-up, discarded
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if tracer:
            tracer.start()

        latencies, attempted, failed, unexpected = [], 0, 0, []
        begin = time.perf_counter()
        while True:  # whole rounds only, so every run attempts the same mix
            for op in w.ops:
                if tracer:
                    tracer.begin_op()
                start = time.perf_counter()
                try:
                    out, error = w.run(op), None
                except Exception as exc:  # a failed operation, reported below
                    out, error = None, f"{type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - start)
                problems = [error] if error else w.check(op, out)
                attempted += 1
                if problems:
                    failed += 1
                    if op.known_fault is None:
                        unexpected.append(f"{op.name}: {', '.join(problems[:5])}")
            if time.perf_counter() - begin >= args.seconds:
                break

        busy = sum(latencies)
        print(f"bench: {args.workload} seed {args.seed}: {attempted} operations "
              f"({len(w.ops)} per round), {failed} failed, {attempted / busy:.4f} ops/s",
              file=sys.stderr)
        for line in unexpected[:10]:
            print(f"bench: unexpected failure: {line}", file=sys.stderr)

        if tracer:
            metrics = tracer.metrics()
            metrics["cli.startup_ms"] = {"value": interpreter_ms("pass"), "unit": "ms"}
            metrics["cli.import_ms"] = {"value": interpreter_ms("import tanglie"), "unit": "ms"}
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        else:
            if hasattr(w, "child_peak_kb"):
                peak_kb = w.child_peak_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": {"value": setup_seconds(args), "unit": "s"},
                "ops_per_s": {"value": attempted / busy, "unit": "1/s"},
                "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            }
        print(json.dumps({"correct": not unexpected, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        if w is not None:
            w.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
