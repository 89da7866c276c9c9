import random

import pytest

from blocktree import bench
from blocktree.counters import counters
from blocktree.parallel import get_threads
from blocktree.bench import BenchConfig, gen_pairs, graph_bench, run_micro, sweep_blocksize


def row_fields(row):
    parts = row.split(",")
    return dict(zip(bench.HEADER.split(","), parts))


def test_micro_schema_and_bytes_populated():
    cfg = BenchConfig(op="union", n=10 ** 4, m=10 ** 4, block_size=128,
                      encoding="identity", seed=3, trials=1)
    rows = run_micro(cfg)
    assert len(rows) == 1
    f = row_fields(rows[0])
    assert f["op"] == "union" and f["n"] == "10000" and f["B"] == "128"
    assert int(f["bytes_total"]) > 0
    assert int(f["bytes_metadata"]) > 0
    assert float(f["median_ms"]) > 0


def test_unknown_op_rejected():
    # a failed run leaves the worker pool at one thread
    cfg = BenchConfig(op="frobnicate", n=10, m=10, block_size=8,
                      encoding="identity", threads=2, trials=1)
    with pytest.raises(ValueError):
        run_micro(cfg)
    assert get_threads() == 1


def test_inputs_seed_deterministic():
    a = gen_pairs(random.Random(7), 1000)
    b = gen_pairs(random.Random(7), 1000)
    assert a == b
    r1 = run_micro(BenchConfig(op="build", n=5000, m=5000, block_size=64,
                               encoding="delta", seed=11, trials=1))
    r2 = run_micro(BenchConfig(op="build", n=5000, m=5000, block_size=64,
                               encoding="delta", seed=11, trials=1))
    b1, m1 = row_fields(r1[0])["bytes_total"], row_fields(r1[0])["bytes_metadata"]
    b2, m2 = row_fields(r2[0])["bytes_total"], row_fields(r2[0])["bytes_metadata"]
    assert (b1, m1) == (b2, m2)


def test_size_row_near_packed_array_bound():
    n = 10 ** 5
    rows = run_micro(BenchConfig(op="build", n=n, m=n, block_size=128,
                                 encoding="identity", seed=1, trials=1))
    f = row_fields(rows[0])
    assert int(f["bytes_total"]) <= 1.05 * 16 * n
    assert int(f["bytes_metadata"]) <= 0.02 * int(f["bytes_total"])


def test_gap_encoding_beats_plain_on_dense_keys():
    n = 10 ** 5
    plain = row_fields(run_micro(BenchConfig(op="build", n=n, m=n, block_size=128,
                                             encoding="identity", seed=1, trials=1))[0])
    diff = row_fields(run_micro(BenchConfig(op="build", n=n, m=n, block_size=128,
                                            encoding="delta", seed=1, trials=1))[0])
    assert int(diff["bytes_total"]) <= 0.70 * int(plain["bytes_total"])


def test_sweep_row_count_and_size_direction():
    Bs = [8, 16, 32, 64, 128]
    rows = sweep_blocksize("build", 10 ** 5, Bs, encoding="identity", trials=1)
    assert len(rows) == len(Bs)
    sizes = [int(row_fields(r)["bytes_total"]) for r in rows]
    assert sizes[-1] < sizes[0]  # bytes(B=128) < bytes(B=8)
    assert all(a >= b for a, b in zip(sizes, sizes[1:])), \
        f"size not monotone over B sweep: {sizes}"


def _median_ms(op, block_size, encoding):
    return float(row_fields(run_micro(
        BenchConfig(op=op, n=10 ** 5, m=2000, block_size=block_size,
                    encoding=encoding, seed=2, trials=1))[0])["median_ms"])


def test_find_slows_down_at_large_blocks():
    # a delta block is read by one sequential gap decode, so its point
    # lookups grow with the block (identity blocks are searched in place)
    t16 = _median_ms("find", 16, "delta")
    t512 = _median_ms("find", 512, "delta")
    assert t512 > t16, f"delta find at B=512 ({t512}ms) not slower than B=16 ({t16}ms)"


def test_insert_slows_down_at_large_blocks():
    # a delta insert decodes and re-encodes the leaf block it lands in, so
    # it grows with the block; an identity insert splices its block's
    # payload in place and decodes nothing
    t16 = _median_ms("insert", 16, "delta")
    t512 = _median_ms("insert", 512, "delta")
    assert t512 > t16, f"delta insert at B=512 ({t512}ms) not slower than B=16 ({t16}ms)"
    from blocktree import make_context, ordmap, release
    ctx = make_context(block_size=512, encoding="identity")
    t = ordmap.build(ctx, [(k, k) for k in range(0, 4000, 2)])
    d0 = counters.decodes
    t2 = ordmap.insert(ctx, t, 1001, 0)
    assert counters.decodes == d0
    release(t2)
    release(t)


def test_graph_bench_rows_and_throughput_direction(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "g.txt"
    edges = set()
    while len(edges) < 10 ** 5:
        edges.add((rng.randrange(1200), rng.randrange(1200)))
    path.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))

    assert graph_bench(str(path), []) == []

    rows = graph_bench(str(path), [10, 10 ** 5], trials=1)
    assert len(rows) == 2
    small = float(rows[0].split(",")[2])
    large = float(rows[1].split(",")[2])
    assert large > small, f"batch throughput did not improve: {small} vs {large}"


def test_graph_roundtrip_preserved(tmp_path):
    from blocktree import graphstore as gs
    rng = random.Random(1)
    edges = sorted({(rng.randrange(200), rng.randrange(200)) for _ in range(3000)})
    g = gs.from_edge_list(edges)
    batch = [(rng.randrange(200), rng.randrange(200)) for _ in range(400)]
    fresh = [e for e in batch if e not in set(edges)]
    g_back = gs.delete_edges(gs.insert_edges(g, batch), fresh)
    assert gs.graphs_equal(g_back, g)


def test_cli_micro_and_out_file(tmp_path, capsys):
    rc = bench.main(["micro", "--op", "reduce", "--n", "2000", "--B", "32",
                     "--encoding", "diff", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == bench.HEADER
    assert lines[1].startswith("reduce,2000")

    dest = tmp_path / "rows.csv"
    bench.main(["sweep-B", "--op", "build", "--n", "3000", "--Bs", "8,64",
                "--trials", "1", "--out", str(dest)])
    text = dest.read_text().splitlines()
    assert text[0] == bench.HEADER
    assert len(text) == 3


@pytest.mark.parametrize("op", ["build", "union", "union_efficient",
                                "intersection", "difference", "multi_insert",
                                "insert", "find", "range", "filter", "map",
                                "reduce"])
def test_run_micro_releases_what_it_builds(op):
    # the setup trees, every trial's result and each intermediate insert
    # version are released: no node is left live
    live = counters.live
    rows = run_micro(BenchConfig(op=op, n=3000, m=500, block_size=32,
                                 encoding="identity", trials=2))
    assert len(rows) == 1 and rows[0].count(",") == bench.HEADER.count(",")
    f = row_fields(rows[0])
    assert f["op"] == op and float(f["median_ms"]) >= 0
    assert int(f["bytes_total"]) >= int(f["bytes_metadata"]) >= 0
    assert counters.live == live


def test_cli_rejects_unknown_op(tmp_path, capsys):
    # bad input is a usage error: exit status 2 and a message, no traceback
    good, bad, empty = (tmp_path / f for f in ("good.txt", "bad.txt", "empty.txt"))
    good.write_text("0 1\n1 2\n")
    bad.write_text("0 1\nnope\n")
    empty.write_text("# no edges\n")
    for argv in (["micro", "--op", "nope", "--n", "10"],
                 ["micro", "--op", "build", "--n", "10", "--trials", "0"],
                 ["sweep-B", "--op", "nope", "--n", "10", "--Bs", "8"],
                 ["sweep-B", "--op", "build", "--n", "10", "--Bs", "8",
                  "--trials", "0"],
                 ["sweep-B", "--op", "build", "--n", "10", "--Bs", ","],
                 ["graph", "--batches", "10"],
                 ["graph", "--input", str(tmp_path / "none.txt"), "--batches", "10"],
                 ["graph", "--input", str(bad), "--batches", "10"],
                 ["graph", "--input", str(empty), "--batches", "10"],
                 ["graph", "--input", str(good), "--batches", ","],
                 ["graph", "--input", str(good), "--batches", "10",
                  "--trials", "0"]):
        with pytest.raises(SystemExit) as exc:
            bench.main(argv)
        assert exc.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv
