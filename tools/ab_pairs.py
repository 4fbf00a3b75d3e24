"""Compare two checkouts end to end in alternating pairs of benchmark runs.

For every workload, pair k runs ``bench/run.py --seed <first seed + k>``
once in each checkout, the parent first in even pairs and the change first
in odd ones, so a drift of the machine falls on both sides alike.  The
JSON printed at the end holds, per workload and end-to-end metric, each
side's median and quartiles over its runs, the number of pairs in which
the change reads better, the change's relative move of the median in the
worse direction, whether that move exceeds the metric's bound, and whether
the metric is unresolved: the parent's quartile spread, relative to its
median, exceeds the bound and not every change run reads better than every
parent run.  Metric names, directions and bounds come from the change's
``BENCHMARK.json``.  Progress goes to standard error.

Usage (from anywhere)::

    python tools/ab_pairs.py PARENT CHANGE --workloads lift_pipeline,catalog_sweep \\
        --pairs 10 --seed 801 --seconds 10 > pairs.json

PARENT and CHANGE are the roots of two source checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="root of the parent checkout")
    p.add_argument("change", help="root of the changed checkout")
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--pairs", type=int, required=True, help="pairs of runs per workload")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=10.0, help="length of one run")
    return p.parse_args(argv)


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``root``; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per-metric spread of each side, the change's pair wins and its verdict."""
    out = {
        "pairs": len(runs["change"]),
        "fail_share": {s: sorted({round(r["failed"] / r["attempted"], 4) for r in runs[s]})
                       for s in SIDES},
        "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
    }
    for m in metrics:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        p1, parent, p3 = quartiles(vals["parent"])
        worse = sign * (parent - statistics.median(vals["change"])) / parent
        all_better = all(sign * (c - p) > 0 for p in vals["parent"] for c in vals["change"])
        out[name] = {s: spread(vals[s]) for s in SIDES}
        out[name].update(
            change_wins=wins,
            worse_move=round(worse, 4),
            exceeds_bound=worse > m["bound"],
            unresolved=(p3 - p1) / parent > m["bound"] and not all_better,
        )
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    report = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed}+k "
                   f"--seconds {args.seconds:g} --trace 0",
        "meaning": "alternating parent/change pairs, parent first in even pairs k; median "
                   "and quartiles over the runs of each side; change_wins counts pairs "
                   "where the change reads better; worse_move is the change's median "
                   "move in the worse direction relative to the parent's; unresolved: the "
                   "parent's quartile spread exceeds the bound and the change does not "
                   "read better in every run",
    }
    for workload in args.workloads.split(","):
        runs = {s: [] for s in SIDES}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(roots[side], workload, args.seed + k, args.seconds))
            print(f"ab_pairs: {workload} pair {k + 1}/{args.pairs} done", file=sys.stderr)
        report[workload] = summarize(runs, metrics)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
