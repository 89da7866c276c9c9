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
"""

import argparse
import random
import statistics
import sys
import time
from dataclasses import dataclass

from . import graphstore, ordmap, parallel
from .core import make_context
from .inspect import tree_bytes
from .nodes import size

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

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def gen_pairs(rng, n):
    keys = rng.sample(range(KEY_SPACE_FACTOR * n), n)
    return [(k, rng.getrandbits(VALUE_BITS)) for k in keys]


def _ctx_for(cfg):
    return make_context(block_size=cfg.block_size, encoding=cfg.encoding)


def _time(fn, trials):
    times = []
    out = None
    for _ in range(trials):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times), out


def _setup_two_trees(ctx, cfg):
    rng = random.Random(cfg.seed)
    t1 = ordmap.build(ctx, gen_pairs(rng, cfg.n))
    t2 = ordmap.build(ctx, gen_pairs(rng, cfg.m))
    return t1, t2


def run_micro(cfg):
    """One measurement row for the configured operation.  The worker pool
    is switched back to one thread afterwards, also when the run raises."""
    ctx = _ctx_for(cfg)
    parallel.set_threads(cfg.threads)
    try:
        ms, tree = _measure(ctx, cfg)
    finally:
        parallel.set_threads(1)
    total, meta = tree_bytes(ctx, tree) if tree is not None else (0, 0)
    return [f"{cfg.op},{cfg.n},{cfg.m},{cfg.block_size},{cfg.encoding},"
            f"{cfg.threads},{ms:.3f},{total},{meta}"]


def _measure(ctx, cfg):
    """(median ms, result tree or None) of the configured operation."""
    rng = random.Random(cfg.seed)
    op = cfg.op

    if op == "build":
        pairs = gen_pairs(rng, cfg.n)
        ms, tree = _time(lambda: ordmap.build(ctx, pairs), cfg.trials)
    elif op in ("union", "union_efficient", "intersection", "difference"):
        t1, t2 = _setup_two_trees(ctx, cfg)
        fn = getattr(ordmap, op)
        ms, tree = _time(lambda: fn(ctx, t1, t2), cfg.trials)
    elif op == "multi_insert":
        t1 = ordmap.build(ctx, gen_pairs(rng, cfg.n))
        batch = gen_pairs(rng, cfg.m)
        ms, tree = _time(lambda: ordmap.multi_insert(ctx, t1, batch), cfg.trials)
    elif op == "insert":
        tree = ordmap.build(ctx, gen_pairs(rng, cfg.n))
        fresh = [(KEY_SPACE_FACTOR * cfg.n + i, i) for i in range(cfg.m)]

        def do_inserts():
            t = tree
            for k, v in fresh:
                t = ordmap.insert(ctx, t, k, v)
            return t
        ms, _ = _time(do_inserts, cfg.trials)
    elif op == "find":
        tree = ordmap.build(ctx, gen_pairs(rng, cfg.n))
        queries = [rng.randrange(KEY_SPACE_FACTOR * cfg.n) for _ in range(cfg.m)]

        def do_finds():
            hits = 0
            for q in queries:
                if ordmap.find(ctx, tree, q) is not None:
                    hits += 1
            return hits
        ms, _ = _time(do_finds, cfg.trials)
    elif op == "range":
        tree = ordmap.build(ctx, gen_pairs(rng, cfg.n))
        span = max(1, KEY_SPACE_FACTOR * cfg.n // max(cfg.m, 1))
        starts = [rng.randrange(KEY_SPACE_FACTOR * cfg.n) for _ in range(min(cfg.m, 200))]

        def do_ranges():
            acc = 0
            for s in starts:
                acc += size(ordmap.key_range(ctx, tree, s, s + span))
            return acc
        ms, _ = _time(do_ranges, cfg.trials)
    elif op == "filter":
        tree = ordmap.build(ctx, gen_pairs(rng, cfg.n))
        ms, tree = _time(lambda: ordmap.filter(ctx, tree, lambda e: e[0] % 2 == 0),
                         cfg.trials)
    elif op == "map":
        tree = ordmap.build(ctx, gen_pairs(rng, cfg.n))
        ms, tree = _time(lambda: ordmap.map_values(ctx, tree, lambda v: v ^ 1),
                         cfg.trials)
    elif op == "reduce":
        tree = ordmap.build(ctx, gen_pairs(rng, cfg.n))
        ms, _ = _time(lambda: ordmap.reduce(ctx, tree, lambda a, b: a + b, 0),
                      cfg.trials)
    else:
        raise ValueError(f"unknown op {cfg.op!r}")
    return ms, tree


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


def graph_bench(path, batch_sizes, seed=1, trials=3, block_size=64):
    """Batch-update throughput rows for the graph at ``path``."""
    pairs = graphstore.load_edge_list(path)
    g = graphstore.from_edge_list(pairs, block_size=block_size)
    vids = graphstore.vertex_ids(g)
    rng = random.Random(seed)
    rows = []
    for bs in batch_sizes:
        batch = [(rng.choice(vids), rng.choice(vids)) for _ in range(bs)]
        ins_ms, g2 = _time(lambda: graphstore.insert_edges(g, batch), trials)
        del_ms, _ = _time(lambda: graphstore.delete_edges(g2, batch), trials)
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
    ap = argparse.ArgumentParser(prog="blocktree-bench",
                                 description="blocktree benchmark harness")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("micro", help="single microbenchmark row")
    p.add_argument("--op", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--B", type=int, default=128)
    p.add_argument("--encoding", choices=["identity", "diff", "delta"],
                   default="identity")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep-B", help="one row per block size")
    p.add_argument("--op", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--Bs", required=True, help="comma-separated block sizes")
    p.add_argument("--encoding", choices=["identity", "diff", "delta"],
                   default="identity")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", default=None)

    p = sub.add_parser("graph", help="batch-update throughput for a graph file")
    p.add_argument("--input", required=True)
    p.add_argument("--batches", required=True, help="comma-separated batch sizes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", default=None)

    args = ap.parse_args(argv)

    if args.cmd == "micro":
        cfg = BenchConfig(op=args.op, n=args.n, m=args.m or args.n,
                          block_size=args.B, encoding=args.encoding,
                          threads=args.threads, seed=args.seed,
                          trials=args.trials)
        try:
            rows = run_micro(cfg)
        except ValueError as exc:
            ap.error(str(exc))
        _emit(HEADER, rows, args.out)
    elif args.cmd == "sweep-B":
        rows = sweep_blocksize(args.op, args.n, _int_list(args.Bs),
                               encoding=args.encoding, m=args.m or None,
                               seed=args.seed, trials=args.trials,
                               threads=args.threads)
        _emit(HEADER, rows, args.out)
    else:
        rows = graph_bench(args.input, _int_list(args.batches),
                           seed=args.seed, trials=args.trials)
        _emit(GRAPH_HEADER, rows, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
