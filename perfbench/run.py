"""blocktree benchmark: one workload, untraced or traced.

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` runs the closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` replays a fixed number of rounds twice,
untraced then traced, checks that both passes computed the same results
with the same counter deltas, and reports the per-layer metrics.  Either
way every result is checked against a plain-Python oracle, a report is
printed, and the last line of standard output is one JSON object.
See README.md for the workloads and every metric.
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is repeated and its median reported, so one slow build does not
# decide the figure.
SETUP_REPEATS = 5
# Rounds replayed by the traced run: enough for ~1000 finds and inserts on
# point, so their p99 has ten samples beyond it.
TRACE_ROUNDS = {"point": 125, "bulk": 2, "graph": 3}

END_TO_END = ("setup_s", "ops_per_s", "read_us_p50", "write_us_p50",
              "entries_per_s", "bytes_per_entry", "peak_rss_mb")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_library():
    if not os.path.isfile(os.path.join(ROOT, "src", "blocktree", "__init__.py")):
        log(f"perfbench: no src/blocktree under {ROOT}; run from a checkout")
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import blocktree
    return blocktree


def workload_class(name):
    if name == "point":
        from point import Point
        return Point
    if name == "bulk":
        from bulk import Bulk
        return Bulk
    from graph import Graph
    return Graph


def plan_seed(seed):
    # the plan's stream is kept apart from the input generator's
    return seed * 1_000_003 + 17


def space_metrics(bt, wl):
    trees, entries = wl.probe_trees()
    total = meta = blocks = depth = filled = capacity = 0
    for ctx, t in trees:
        tb, mb = bt.tree_bytes(ctx, t)
        total += tb
        meta += mb
        nb = bt.count_blocks(t)
        blocks += nb
        depth = max(depth, bt.tree_depth(t))
        if nb:
            filled += bt.tree_size(t)
            capacity += 2 * ctx.config.block_size * nb
    return {"bytes_per_entry": (total / entries, "B"),
            "inspect.depth": (depth, "count"),
            "inspect.blocks": (blocks, "count"),
            "inspect.mean_block_fill": (filled / capacity if capacity else 0.0, "ratio"),
            "inspect.metadata_share": (meta / total, "ratio")}


def untraced(bt, W, seed, seconds):
    from harness import MAX_BURST, GcClock, RefGauges, Stream, peak_rss_mb
    base_live = bt.counters.live
    wl = W(bt, seed)
    ref = RefGauges(seed)
    setup = []
    for i in range(SETUP_REPEATS):
        gc.collect()
        ref.burst(MAX_BURST)
        t0 = time.perf_counter_ns()
        state = wl.build()
        t1 = time.perf_counter_ns()
        ref.burst(MAX_BURST)
        setup.append((t1 - t0) / 1e9 * ref.speed(t0, t1))
        if i + 1 < SETUP_REPEATS:
            wl.discard(state)
    wl.start(state)
    gc.collect()
    gc.freeze()
    stream = Stream(wl, bt.counters, plan_seed(seed), ref, log=log)
    stream.run_round(record=False)          # warm-up; fixes the space probe
    space = space_metrics(bt, wl)
    deadline = time.perf_counter() + seconds
    with GcClock() as gcc:
        t0 = time.perf_counter()
        while True:
            stream.run_round()
            if time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - t0
    stream.finish()
    problems = wl.finish()
    live = bt.counters.live - base_live
    if wl.owns_all_nodes and live:
        problems.append(f"{live} nodes still live after every handle was released")
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(stream.end_to_end())
    metrics["bytes_per_entry"] = space["bytes_per_entry"]
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    extra = dict(stream.ref.metrics())
    extra["runtime.gc_ms_per_s"] = (gcc.ns / 1e6 / wall, "ms/s")
    extra["rounds"] = (len(stream.rounds), "count")
    return stream, problems, metrics, extra


def traced(bt, W, seed):
    from harness import GcClock, RefGauges, Stream
    from layers import layer_metrics
    from tracing import Tracer
    rounds = TRACE_ROUNDS[W.name]
    base_live = bt.counters.live
    wl = W(bt, seed)

    def run_pass(tracer):
        wl.start(wl.build())
        if tracer is not None:
            wl.use_contexts({k: tracer.context(c)
                             for k, c in wl.contexts().items()})
        s = Stream(wl, bt.counters, plan_seed(seed), RefGauges(seed),
                   count_nodes=True, fingerprints=True, tracer=tracer, log=log)
        space = None
        with GcClock() as gcc:
            t0 = time.perf_counter()
            for r in range(rounds):
                s.run_round()
                if r == 0 and tracer is None:
                    space = space_metrics(bt, wl)
            wall = time.perf_counter() - t0
        s.finish()
        digest = wl.digest()
        problems = wl.finish()
        return s, space, digest, problems, gcc.ns / 1e6 / wall

    plain, space, digest_a, problems, gc_ms = run_pass(None)
    live = bt.counters.live - base_live
    if wl.owns_all_nodes and live:
        problems.append(f"{live} nodes still live after every handle was released")
    tracer = Tracer(W.entry)
    restore = tracer.patch(bt)
    try:
        traced_s, _, digest_b, problems_b, _ = run_pass(tracer)
    finally:
        restore()
    problems += problems_b
    if digest_a != digest_b or plain.prints != traced_s.prints:
        problems.append("traced pass computed different results")
    if plain.node_deltas != traced_s.node_deltas:
        problems.append(f"traced pass moved the counters differently: "
                        f"{plain.node_deltas} vs {traced_s.node_deltas}")
    metrics = layer_metrics(W, plain, traced_s, tracer, space, live)
    metrics.update(plain.ref.metrics())
    metrics["runtime.gc_ms_per_s"] = (gc_ms, "ms/s")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{W.name}.tsv"))
    stream = plain
    stream.attempted += traced_s.attempted
    stream.failed += traced_s.failed
    return stream, problems, metrics


def report(name, stream, metrics, extra):
    print(f"== {name}: {stream.attempted} ops checked, {stream.failed} failed")
    print("   kind             samples     raw p50 us     raw p99 us  adjusted p50 us")
    for kind, (n, med, p99, adj) in sorted(stream.per_kind().items()):
        tail = f"{p99:14.1f}" if p99 is not None else f"{'-':>14s}"
        print(f"   {kind:16s} {n:7d} {med:14.1f} {tail} {adj:16.1f}")
    for key, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"   {key:40s} {value:14.4f} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["point", "bulk", "graph"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    bt = import_library()
    bt.set_threads(1)
    W = workload_class(args.workload)
    if args.trace:
        stream, problems, metrics = traced(bt, W, args.seed)
        extra = {}
    else:
        stream, problems, metrics, extra = untraced(bt, W, args.seed, args.seconds)
    for p in problems[:10]:
        log(f"{args.workload}: {p}")
    failed = stream.failed + len(problems)
    report(args.workload, stream, metrics, extra)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": stream.attempted + len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
