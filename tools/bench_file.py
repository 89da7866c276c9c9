"""Write one BENCH file: every perfbench metric of a checkout at fixed seeds.

Usage: python tools/bench_file.py K [--root DIR] [--against PARENT]

Runs ``perfbench/run.py`` of the checkout at DIR (default: the checkout
this file is in), unchanged, for the workloads ``point``, ``bulk`` and
``graph`` at seeds 1 and 2: three times with ``--trace 0`` (the end-to-end
metrics of a 20-second closed loop) and once with ``--trace 1`` (the
per-layer metrics of a fixed replay, which repeat exactly).  The runs go
one at a time, each in its own process.

``BENCH_K.json``, written to the current directory, holds one row per run
(workload, seed, trace, correctness, and every metric with its unit) and
a ``median`` table: per workload and seed, the median of each metric over
the three untraced runs.  A performance change is read from two
consecutive BENCH files, ``BENCH_<k>.json`` measured at the parent commit
and ``BENCH_<k+1>.json`` at the change, on the same host.  Each file
records the commit, the Python version and the host it was measured on.

With ``--against PARENT``, every run is made on both checkouts, one right
after the other, and which side goes first alternates from run to run, so
that drift of the host falls on both sides alike.  ``BENCH_K.json`` then
holds the runs of PARENT and ``BENCH_<K+1>.json`` those of DIR, and each
names the other's commit as ``paired_with``.  Exits 1 if any run reports
a wrong result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("point", "bulk", "graph")
SEEDS = (1, 2)
REPEATS = 3         # untraced runs per workload and seed; their median is kept
SECONDS = 20


def run_once(root, workload, seed, trace):
    """The last-line JSON report of one perfbench run, with its settings."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(SECONDS)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    report = json.loads(out.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "seconds": SECONDS if trace == 0 else None, **report}


def commit_of(root):
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def medians(runs):
    """{workload: {seed: {metric: {"value", "unit"}}}}: the median of each
    metric over the untraced runs."""
    table = {}
    for r in runs:
        if r["trace"] == 0:
            cell = table.setdefault(r["workload"], {}).setdefault(
                str(r["seed"]), {})
            for name, m in r["metrics"].items():
                cell.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {w: {seed: {name: {"value": statistics.median(values), "unit": unit}
                       for name, (unit, values) in cell.items()}
                for seed, cell in per_seed.items()}
            for w, per_seed in table.items()}


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("k", type=int, help="writes BENCH_<k>.json")
    ap.add_argument("--root", default=here, help="checkout to measure")
    ap.add_argument("--against", metavar="PARENT",
                    help="parent checkout, measured in alternation with "
                         "--root into BENCH_<k>.json")
    args = ap.parse_args(argv)
    sides = [os.path.abspath(d) for d in (args.against, args.root) if d]

    runs = [[] for _ in sides]
    turn = 0
    for seed in SEEDS:
        for workload in WORKLOADS:
            for trace in [0] * REPEATS + [1]:
                order = range(len(sides))
                for s in (order if turn % 2 == 0 else reversed(order)):
                    print(f"{sides[s]}: {workload} seed {seed} trace {trace}",
                          file=sys.stderr, flush=True)
                    runs[s].append(run_once(sides[s], workload, seed, trace))
                turn += 1
    commits = [commit_of(d) for d in sides]
    for s, side_runs in enumerate(runs):
        doc = {
            "commit": commits[s],
            "paired_with": commits[1 - s] if len(sides) == 2 else None,
            "python": platform.python_version(),
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                     "system": platform.system()},
            "median": medians(side_runs),
            "runs": side_runs,
        }
        with open(f"BENCH_{args.k + s}.json", "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if all(r["correct"] for rs in runs for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
