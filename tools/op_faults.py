"""Count minor page faults per timed operation of one benchmark workload.

The workload's inputs are built by ``bench/workloads.py`` from the seed,
and its operations run in this process in whole rounds, each followed by
its check, as ``bench/run.py`` runs them: the checks allocate and free
between operations, so the heap an operation meets is the one the
benchmark gives it.  One warm-up operation is discarded.  The process's
minor faults (``ru_minflt`` of ``getrusage(RUSAGE_SELF)``) are read just
before and just after each timed call, so faults taken by the checks are
not counted; a workload whose operations spawn processes counts only
this process's faults.  One JSON line is printed: the operations run,
the failed ones, faults per operation, the median latency in ms and
operations per second of busy time.  No module of the benchmark is
changed.

Usage (from anywhere)::

    python tools/op_faults.py ROOT base_equiv --seed 1 --seconds 5

ROOT is the root of the source checkout to measure.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def count(root: str, name: str, seed: int, seconds: float) -> dict:
    import workloads

    latencies, faults, failed = [], 0, 0
    with tempfile.TemporaryDirectory() as workdir:
        w = workloads.WORKLOADS[name](seed, workdir, False, root)
        try:
            w.run(w.ops[0])  # warm-up, discarded
            begin = time.perf_counter()
            while True:  # whole rounds only, as bench/run.py
                for op in w.ops:
                    before = _minflt()
                    start = time.perf_counter()
                    try:
                        out, ran = w.run(op), True
                    except Exception:  # a failed operation, counted below
                        out, ran = None, False
                    latencies.append(time.perf_counter() - start)
                    faults += _minflt() - before
                    failed += not ran or bool(w.check(op, out))
                if time.perf_counter() - begin >= seconds:
                    break
        finally:
            w.close()
    return {
        "workload": name,
        "seed": seed,
        "operations": len(latencies),
        "failed": failed,
        "faults_per_op": round(faults / len(latencies), 2),
        "latency_p50_ms": round(statistics.median(latencies) * 1e3, 4),
        "ops_per_s": round(len(latencies) / sum(latencies), 2),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", help="root of the source checkout")
    p.add_argument("workload", help="a workload name of bench/workloads.py")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0,
                   help="run whole rounds until this long has passed")
    args = p.parse_args(sys.argv[1:] if argv is None else argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    print(json.dumps(count(root, args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
