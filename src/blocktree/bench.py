"""Benchmark harness.

Reproduces the microbenchmark and size-curve measurements at desk scale and
emits CSV.  Inputs are generated from the seed, so reruns with the same
configuration produce identical logical inputs and identical byte counts;
timing excludes input generation.

CSV schema (column order is frozen):

    op,n,m,B,encoding,threads,median_ms,bytes_total,bytes_metadata

Subcommands::

    blocktree-bench micro   --op union --n 100000 --m 100000 --B 128 \
                            --encoding identity --threads 1 --seed 1 --trials 3
    blocktree-bench sweep-B --op find --n 100000 --Bs 8,16,32,64,128
    blocktree-bench graph   --input edges.txt --batches 10,1000,100000

``micro`` is a ``sweep-B`` over one block size.  Bad input (an unknown op,
no block size or batch size, fewer than one trial, an edge list that is
missing, malformed or empty) is a usage error: a message and exit status
2.  A run releases every tree it builds.
"""

import argparse
import random
import statistics
import sys
import time
from dataclasses import dataclass

from . import graphstore, ordmap, parallel
from .core import make_context
from .errors import GraphParseError
from .inspect import tree_bytes
from .nodes import release, retain

HEADER = "op,n,m,B,encoding,threads,median_ms,bytes_total,bytes_metadata"
GRAPH_HEADER = "batch,n_edges,insert_eps,delete_eps"

# Keys are drawn dense (from a range 8x the requested size) so gap encoding
# has small deltas to work with; values are full-width random words.
KEY_SPACE_FACTOR = 8
VALUE_BITS = 63


@dataclass
class BenchConfig:
    op: str
    n: int
    m: int
    block_size: int
    encoding: str
    threads: int = 1
    seed: int = 1
    trials: int = 3


def gen_pairs(rng, n):
    keys = rng.sample(range(KEY_SPACE_FACTOR * n), n)
    return [(k, rng.getrandbits(VALUE_BITS)) for k in keys]


def _time(fn, trials):
    """(median ms, the result of every trial) of fn."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    times, outs = [], []
    for _ in range(trials):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
        outs.append(out)
    return statistics.median(times), outs


def run_micro(cfg):
    """One measurement row for the configured operation.  Every tree the
    run builds is released and the worker pool is switched back to one
    thread before it returns, also when the run raises."""
    ctx = make_context(block_size=cfg.block_size, encoding=cfg.encoding)
    held = []
    parallel.set_threads(cfg.threads)
    try:
        ms, tree = _measure(ctx, cfg, held)
        total, meta = tree_bytes(ctx, tree) if tree is not None else (0, 0)
    finally:
        parallel.set_threads(1)
        for t in held:
            release(t)
    return [f"{cfg.op},{cfg.n},{cfg.m},{cfg.block_size},{cfg.encoding},"
            f"{cfg.threads},{ms:.3f},{total},{meta}"]


def _measure(ctx, cfg, held):
    """(median ms, the tree the row reports) of the configured operation:
    its result, or the tree it reads where it returns no tree.  Every tree
    it builds goes on ``held``: its inputs and the result of each trial."""
    rng = random.Random(cfg.seed)
    op = cfg.op

    def built(n):
        held.append(ordmap.build(ctx, gen_pairs(rng, n)))
        return held[-1]

    tree = None
    if op == "build":
        pairs = gen_pairs(rng, cfg.n)
        fn = lambda: ordmap.build(ctx, pairs)
    elif op in ("union", "union_efficient", "intersection", "difference"):
        t1, t2, setop = built(cfg.n), built(cfg.m), getattr(ordmap, op)
        fn = lambda: setop(ctx, t1, t2)
    elif op == "multi_insert":
        t1 = built(cfg.n)
        batch = gen_pairs(rng, cfg.m)
        fn = lambda: ordmap.multi_insert(ctx, t1, batch)
    elif op == "insert":
        tree = built(cfg.n)
        fresh = [(KEY_SPACE_FACTOR * cfg.n + i, i) for i in range(cfg.m)]

        def fn():
            t = retain(tree)
            for k, v in fresh:
                t2 = ordmap.insert(ctx, t, k, v)
                release(t)
                t = t2
            release(t)
    elif op == "find":
        tree = built(cfg.n)
        queries = [rng.randrange(KEY_SPACE_FACTOR * cfg.n) for _ in range(cfg.m)]

        def fn():
            for q in queries:
                ordmap.find(ctx, tree, q)
    elif op == "range":
        tree = built(cfg.n)
        span = max(1, KEY_SPACE_FACTOR * cfg.n // max(cfg.m, 1))
        starts = [rng.randrange(KEY_SPACE_FACTOR * cfg.n) for _ in range(min(cfg.m, 200))]

        def fn():
            for s in starts:
                release(ordmap.key_range(ctx, tree, s, s + span))
    elif op == "filter":
        t1 = built(cfg.n)
        fn = lambda: ordmap.filter(ctx, t1, lambda e: e[0] % 2 == 0)
    elif op == "map":
        t1 = built(cfg.n)
        fn = lambda: ordmap.map_values(ctx, t1, lambda v: v ^ 1)
    elif op == "reduce":
        tree = built(cfg.n)

        def fn():
            ordmap.reduce(ctx, tree, lambda a, b: a + b, 0)
    else:
        raise ValueError(f"unknown op {cfg.op!r}")
    ms, outs = _time(fn, cfg.trials)
    held.extend(outs)
    return ms, tree if tree is not None else outs[-1]


def sweep_blocksize(op, n, block_sizes, encoding="identity", m=None, seed=1,
                    trials=3, threads=1):
    """One row per block size for a fixed operation."""
    if not block_sizes:
        raise ValueError("sweep needs at least one block size")
    rows = []
    for B in block_sizes:
        cfg = BenchConfig(op=op, n=n, m=m if m is not None else n,
                          block_size=B, encoding=encoding, threads=threads,
                          seed=seed, trials=trials)
        rows.extend(run_micro(cfg))
    return rows


def graph_bench(path, batch_sizes, seed=1, trials=3):
    """Batch-update throughput rows for the graph at ``path``, built at
    the graph store's default block size."""
    pairs = graphstore.load_edge_list(path)
    g = graphstore.from_edge_list(pairs)
    vids = graphstore.vertex_ids(g)
    if batch_sizes and not vids:
        raise ValueError(f"{path}: no edges to sample a batch from")
    rng = random.Random(seed)
    rows = []
    for bs in batch_sizes:
        batch = [(rng.choice(vids), rng.choice(vids)) for _ in range(bs)]
        ins_ms, g2 = _time(lambda: graphstore.insert_edges(g, batch), trials)
        del_ms, _ = _time(lambda: graphstore.delete_edges(g2[-1], batch), trials)
        ins_eps = bs / (ins_ms / 1000.0) if ins_ms > 0 else float("inf")
        del_eps = bs / (del_ms / 1000.0) if del_ms > 0 else float("inf")
        rows.append(f"{bs},{len(pairs)},{ins_eps:.1f},{del_eps:.1f}")
    return rows


def _emit(header, rows, out_path):
    text = "\n".join([header] + rows) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(s):
    return [int(x) for x in s.split(",") if x.strip()]


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--trials", type=int, default=3)
    common.add_argument("--out", default=None)
    row_flags = argparse.ArgumentParser(add_help=False, parents=[common])
    row_flags.add_argument("--op", required=True)
    row_flags.add_argument("--n", type=int, required=True)
    row_flags.add_argument("--m", type=int, default=0)
    row_flags.add_argument("--encoding", choices=["identity", "diff", "delta"],
                           default="identity")
    row_flags.add_argument("--threads", type=int, default=1)

    ap = argparse.ArgumentParser(prog="blocktree-bench",
                                 description="blocktree benchmark harness")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("micro", parents=[row_flags],
                       help="single microbenchmark row")
    p.add_argument("--B", type=int, default=128)
    p = sub.add_parser("sweep-B", parents=[row_flags],
                       help="one row per block size")
    p.add_argument("--Bs", type=_int_list, required=True,
                   help="comma-separated block sizes")
    p = sub.add_parser("graph", parents=[common],
                       help="batch-update throughput for a graph file")
    p.add_argument("--input", required=True)
    p.add_argument("--batches", type=_int_list, required=True,
                   help="comma-separated batch sizes")

    args = ap.parse_args(argv)
    # bad input (an unknown op, no block or batch size, zero trials, an
    # edge list that cannot be read or parsed) is a usage error
    try:
        if args.cmd == "graph":
            if not args.batches:
                raise ValueError("graph needs at least one batch size")
            header = GRAPH_HEADER
            rows = graph_bench(args.input, args.batches, seed=args.seed,
                               trials=args.trials)
        else:
            # micro is a sweep over one block size
            header = HEADER
            rows = sweep_blocksize(
                args.op, args.n, [args.B] if args.cmd == "micro" else args.Bs,
                encoding=args.encoding, m=args.m or None, seed=args.seed,
                trials=args.trials, threads=args.threads)
    except (ValueError, OSError, GraphParseError) as exc:
        ap.error(str(exc))
    _emit(header, rows, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
