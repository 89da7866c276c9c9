import random
import threading

import pytest

import blocktree as bt
from blocktree import graphstore as gs
from blocktree.errors import CodecError, GraphParseError
from blocktree.inspect import (BOUNDS_BYTES, FLAT_HEADER_BYTES, check_tree,
                               count_blocks, tree_bytes)
from blocktree.nodes import Flat

from oracles import bfs_reference


def adj_of(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set())
    return adj


def rand_edges(rng, n_edges, n_vertices):
    out = set()
    while len(out) < n_edges:
        out.add((rng.randrange(n_vertices), rng.randrange(n_vertices)))
    return sorted(out)


def test_empty_graph():
    g = gs.from_edge_list([])
    assert gs.edge_count(g) == 0
    assert gs.vertex_ids(g) == []


def test_path_graph_degrees():
    g = gs.from_edge_list([(0, 1), (1, 2), (2, 3)])
    assert [gs.degree(g, v) for v in range(4)] == [1, 1, 1, 0]
    assert gs.edge_count(g) == 3
    assert gs.bfs(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_adjacency_matches_hash_oracle():
    rng = random.Random(0)
    edges = rand_edges(rng, 10 ** 4, 500)
    g = gs.from_edge_list(edges)
    adj = adj_of(edges)
    assert gs.adjacency(g) == {u: sorted(vs) for u, vs in adj.items()}
    assert gs.edge_count(g) == len(edges)
    assert gs.edge_count(g) == sum(gs.degree(g, v) for v in gs.vertex_ids(g))
    check_tree(g.vctx, g.vertices)
    for _, et in list(bt.items(g.vctx, g.vertices))[:40]:
        if et is not None:
            check_tree(g.ectx, et)


def test_self_loops_kept_duplicates_dropped():
    g = gs.from_edge_list([(1, 1), (1, 2), (1, 2)])
    assert gs.adjacency(g) == {1: [1, 2], 2: []}
    assert gs.edge_count(g) == 2


def test_symmetric_option():
    g = gs.from_edge_list([(0, 1)], symmetric=True)
    assert gs.adjacency(g) == {0: [1], 1: [0]}


def test_insert_then_delete_is_identity():
    rng = random.Random(1)
    edges = rand_edges(rng, 3000, 300)
    g = gs.from_edge_list(edges)
    batch = [(rng.randrange(300), rng.randrange(300)) for _ in range(500)]
    g2 = gs.insert_edges(g, batch)
    g3 = gs.delete_edges(g2, [e for e in batch if e not in set(edges)])
    assert gs.graphs_equal(g3, g)


def test_insert_edges_on_empty_equals_from_edge_list():
    rng = random.Random(2)
    edges = rand_edges(rng, 800, 120)
    g1 = gs.insert_edges(gs.from_edge_list([]), edges)
    g2 = gs.from_edge_list(edges)
    assert gs.graphs_equal(g1, g2)


def test_random_update_interleavings_vs_oracle():
    rng = random.Random(3)
    edges = rand_edges(rng, 2000, 200)
    g = gs.from_edge_list(edges)
    model = adj_of(edges)
    for _ in range(30):
        ins = [(rng.randrange(200), rng.randrange(200)) for _ in range(rng.randrange(100))]
        dels = [(rng.randrange(200), rng.randrange(200)) for _ in range(rng.randrange(100))]
        g = gs.insert_edges(g, ins)
        for u, v in ins:
            model.setdefault(u, set()).add(v)
            model.setdefault(v, set())
        g = gs.delete_edges(g, dels)
        for u, v in dels:
            if u in model:
                model[u].discard(v)
        assert gs.adjacency(g) == {u: sorted(vs) for u, vs in model.items()}
    assert gs.edge_count(g) == sum(len(vs) for vs in model.values())


def _augs(t):
    """The aggregate of every node of t, in order."""
    if t is None:
        return []
    if type(t) is Flat:
        return [t.aug]
    return _augs(t.left) + [t.aug] + _augs(t.right)


@pytest.mark.parametrize("B", [1, 2, 8, 64])
def test_column_fold_equals_the_lift_fold(B):
    # the edge-count spec folds a vertex block's value column
    # (AugSpec.fold_values), and a merge that keeps one block updates its
    # count by difference (AugSpec.inverse).  Both give what folding lift
    # over the entries gives: check_tree recomputes every block aggregate
    # through lift, and graphs over the same spec without the inverse,
    # without the column fold, and without both carry the same aggregate
    # at every node.  Destinations that are no source are zero-degree
    # vertices, whose value is None
    import dataclasses
    from blocktree.augment import aug_range
    rng = random.Random(40 + B)
    n = 30 * B + 40
    edges = rand_edges(rng, 12 * B + 60, n)
    g = gs.from_edge_list(edges, block_size=B)
    spec = g.vctx.aug
    assert spec.fold_values is not None and spec.inverse is not None
    graphs = [g] + [
        gs.insert_edges(gs.Graph(None, dataclasses.replace(
            g.vctx, aug=dataclasses.replace(spec, **fields)), g.ectx), edges)
        for fields in ({"inverse": None}, {"fold_values": None},
                       {"inverse": None, "fold_values": None})]
    model = adj_of(edges)
    for _ in range(12):
        batch = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randrange(1, 4 * B + 8))]
        if rng.random() < 0.5:
            graphs = [gs.insert_edges(x, batch) for x in graphs]
            for u, v in batch:
                model.setdefault(u, set()).add(v)
                model.setdefault(v, set())
        else:
            batch += rng.sample(sorted((u, v) for u in model
                                       for v in model[u]), 3 * B)
            graphs = [gs.delete_edges(x, batch) for x in graphs]
            for u, v in batch:
                if u in model:
                    model[u].discard(v)
        assert any(not vs for vs in model.values())
        ranges = [(lo, lo + rng.randrange(n // 2))
                  for lo in (rng.randrange(n) for _ in range(12))]
        for x in graphs:
            check_tree(x.vctx, x.vertices)
            assert gs.edge_count(x) == sum(map(len, model.values()))
            for lo, hi in ranges:
                assert aug_range(x.vctx, x.vertices, lo, hi) == sum(
                    len(vs) for v, vs in model.items() if lo <= v <= hi)
            assert _augs(x.vertices) == _augs(graphs[0].vertices)


def _vertex_blocks(t):
    if t is None:
        return []
    if type(t) is Flat:
        return [t]
    return _vertex_blocks(t.left) + _vertex_blocks(t.right)


def test_insert_edges_between_existing_vertices_shares_blocks():
    # only new destinations enter the vertex run, so a batch among existing
    # vertices re-encodes just the vertex blocks that hold its sources
    rng = random.Random(16)
    edges = rand_edges(rng, 4000, 2000)
    g = gs.from_edge_list(edges, block_size=16)
    vids = gs.vertex_ids(g)
    blocks = _vertex_blocks(g.vertices)
    assert len(blocks) >= 20
    for trial in range(5):
        batch = [(rng.choice(vids), rng.choice(vids)) for _ in range(10)]
        g2 = gs.insert_edges(g, batch)
        assert gs.vertex_ids(g2) == vids
        assert gs.adjacency(g2) == {v: sorted(n) for v, n in
                                    adj_of(edges + batch).items()}
        check_tree(g2.vctx, g2.vertices)
        shared = {id(b) for b in _vertex_blocks(g2.vertices)}
        sources = {s for s, _ in batch}
        for b in blocks:
            if not any(b.first_key <= s <= b.last_key for s in sources):
                assert id(b) in shared, (trial, b.first_key)
        bt.release(g2.vertices)
    new = max(vids) + 1
    batch = [(vids[0], vids[1]), (vids[2], new)]
    g2 = gs.insert_edges(g, batch)
    assert gs.vertex_ids(g2) == vids + [new]
    assert gs.adjacency(g2) == {v: sorted(n) for v, n in
                                adj_of(edges + batch).items()}
    assert gs.vertex_ids(g) == vids


def test_neighbors_match_adjacency_oracle():
    rng = random.Random(7)
    edges = rand_edges(rng, 3000, 400) + [(1000, 2000)]
    g = gs.from_edge_list(edges, block_size=8)
    adj = adj_of(edges)
    assert adj[2000] == set()                 # a vertex with no edges
    for v in adj:
        assert gs.neighbors(g, v) == sorted(adj[v]), v
    assert gs.neighbors(g, 3000) == []        # not a vertex


@pytest.mark.parametrize("absent", ["all", "some", "empty"])
def test_delete_edges_with_absent_sources(absent):
    # a source that is not a vertex deletes nothing and adds no vertex;
    # nor does one that is a vertex without edges (1000)
    rng = random.Random(8)
    edges = rand_edges(rng, 2000, 300) + [(999, 1000)]
    g = gs.from_edge_list(edges, block_size=8)
    vids, adj = gs.vertex_ids(g), adj_of(edges)
    missing = [(s, rng.randrange(300)) for s in range(300, 340)]
    present = rng.sample(edges, 200) + [(1000, 999)]
    batch = {"all": missing, "some": missing + present, "empty": []}[absent]
    g2 = gs.delete_edges(g, batch)
    for s, d in batch:
        if s in adj:
            adj[s].discard(d)
    assert gs.vertex_ids(g2) == vids
    assert gs.adjacency(g2) == {v: sorted(n) for v, n in adj.items()}
    assert gs.edge_count(g2) == sum(len(n) for n in adj.values())
    check_tree(g2.vctx, g2.vertices)
    if absent == "empty":
        assert g2 is g
    assert gs.adjacency(g) == {v: sorted(n) for v, n in adj_of(edges).items()}


def test_degree_grows_with_fresh_edges():
    g = gs.from_edge_list([(5, 1)])
    before = gs.degree(g, 5)
    g2 = gs.insert_edges(g, [(5, 100), (5, 101), (5, 102)])
    assert gs.degree(g2, 5) == before + 3
    assert gs.degree(g, 5) == before


def test_bfs_random_vs_reference():
    rng = random.Random(4)
    for _ in range(10):
        edges = rand_edges(rng, 10 ** 4, 600)
        g = gs.from_edge_list(edges)
        adj = adj_of(edges)
        for src in rng.sample(sorted(adj), 5):
            assert gs.bfs(g, src) == bfs_reference(adj, src)


@pytest.mark.parametrize("B", [1, 8, 64])
def test_graph_readers_match_adjacency_oracle(B):
    # the readers take key columns (neighbors, adjacency, vertex_ids) and
    # bfs reads one vertex snapshot; each equals the adjacency dict, with
    # a destination that has no out-edges (7000), a source whose edges are
    # all deleted again (7001) and one large neighbor set (0)
    rng = random.Random(B)
    edges = (rand_edges(rng, 3000, 300) + [(5, 7000), (7001, 3)]
             + [(0, v) for v in range(0, 600, 3)])
    g = gs.delete_edges(gs.from_edge_list(edges, block_size=B), [(7001, 3)])
    adj = adj_of(edges)
    adj[7001].discard(3)
    assert not adj[7000] and not adj[7001]
    assert gs.vertex_ids(g) == sorted(adj)
    assert gs.adjacency(g) == {v: sorted(n) for v, n in adj.items()}
    for v in adj:
        assert gs.neighbors(g, v) == sorted(adj[v]), v
    assert gs.neighbors(g, 9999) == []
    for src in [0, 7000, 7001] + rng.sample(sorted(adj), 5):
        assert gs.bfs(g, src) == bfs_reference(adj, src), src
    with pytest.raises(KeyError):
        gs.bfs(g, 9999)


def test_has_vertex(monkeypatch):
    # sources and destinations are vertices, and stay vertices once all
    # their edges are deleted; insert_edges asks has_vertex about each
    # destination that is not a source of its batch, once however often
    # the batch repeats it
    g = gs.from_edge_list([(1, 2), (2, 3), (4, 1), (5, 6)], block_size=2)
    assert [v for v in range(8) if gs.has_vertex(g, v)] == [1, 2, 3, 4, 5, 6]
    h = gs.delete_edges(g, [(5, 6), (4, 1)])
    assert [v for v in range(8) if gs.has_vertex(h, v)] == [1, 2, 3, 4, 5, 6]
    assert gs.degree(h, 5) == gs.degree(h, 4) == 0
    asked, has_vertex = [], gs.has_vertex
    monkeypatch.setattr(gs, "has_vertex",
                        lambda g, v: asked.append(v) or has_vertex(g, v))
    k = gs.insert_edges(h, [(9, 9), (7, 8), (1, 3)])
    assert asked == [3, 8]
    assert [v for v in range(10) if has_vertex(k, v)] == [1, 2, 3, 4, 5, 6,
                                                          7, 8, 9]
    assert gs.adjacency(k) == {1: [2, 3], 2: [3], 3: [], 4: [], 5: [], 6: [],
                               7: [8], 8: [], 9: [9]}
    asked.clear()
    m = gs.insert_edges(k, [(9, 2), (7, 2), (7, 3), (1, 2), (4, 10), (5, 10)])
    assert asked == [2, 3, 10]
    assert gs.adjacency(m) == {**gs.adjacency(k), 4: [10], 5: [10], 7: [2, 3, 8],
                               9: [2, 9], 10: []}


def test_delete_of_absent_edges_shares_the_vertex_tree():
    # edges absent from sets of existing sources change nothing: each
    # set's delete returns the set itself, which the merge counts as no
    # change, both in a block and at a regular node of the vertex tree
    from blocktree.counters import counters
    rng = random.Random(3)
    edges = [(rng.randrange(20000), rng.randrange(20000)) for _ in range(20000)]
    g = gs.from_edge_list(edges, block_size=64)
    present = set(edges)
    in_nodes, t = [], g.vertices
    while type(t) is not Flat:
        in_nodes.append(t.key)
        t = t.left
    in_blocks = rng.sample(sorted({s for s, _ in edges} - set(in_nodes)), 5)
    batch = []
    for s in in_nodes[:5] + in_blocks:
        d = rng.randrange(20000)
        while (s, d) in present:
            d = rng.randrange(20000)
        batch.append((s, d))
    before = counters.snapshot()
    h = gs.delete_edges(g, batch)
    after = counters.snapshot()
    assert (after["folds"] - before["folds"],
            after["allocations"] - before["allocations"]) == (0, 0)
    assert h.vertices is g.vertices
    assert gs.adjacency(h) == {v: sorted(n) for v, n in adj_of(edges).items()}


def test_insert_of_present_edges_shares_the_vertex_tree():
    # edges already present change nothing: each source's ids merge into
    # its set, add no edge and hand back the set itself, which the vertex
    # merge counts as no change, in a block and at a regular node.  No
    # tree of the new ids is built, so the batch folds and allocates
    # nothing
    from blocktree.counters import counters
    rng = random.Random(5)
    edges = [(rng.randrange(20000), rng.randrange(20000)) for _ in range(20000)]
    g = gs.from_edge_list(edges, block_size=64)
    in_nodes, t = [], g.vertices
    while type(t) is not Flat:
        in_nodes.append(t.key)
        t = t.left
    adj = adj_of(edges)
    sources = in_nodes[:5] + rng.sample(sorted({s for s, _ in edges}), 5)
    batch = [(s, d) for s in sources if adj[s] for d in sorted(adj[s])[:2]]
    before = counters.snapshot()
    h = gs.insert_edges(g, batch)
    after = counters.snapshot()
    assert len({s for s, _ in batch}) == 8
    assert (after["folds"] - before["folds"],
            after["allocations"] - before["allocations"]) == (0, 0)
    assert h.vertices is g.vertices
    assert gs.adjacency(h) == {v: sorted(n) for v, n in adj.items()}


def test_new_edges_into_existing_sets_build_no_extra_set():
    # one new edge into each of k existing multi-entry sets merges its id
    # straight into the set: the batch folds each set's one block and the
    # one vertex block, and no set of the new edges is built beside them
    # (one more block per source, never released, when each source's new
    # ids became a set of their own first)
    from blocktree.counters import counters
    k = 6
    edges = [(s, d) for s in range(k) for d in range(10, 40, 3)]
    g = gs.from_edge_list(edges, block_size=64)
    assert type(g.vertices) is Flat
    sets = [bt.ordmap.find(g.vctx, g.vertices, s) for s in range(k)]
    assert all(type(t) is Flat and t.count == 10 for t in sets)
    batch = [(s, (s + 1) % k) for s in range(k)]
    before = counters.snapshot()
    h = gs.insert_edges(g, batch)
    after = counters.snapshot()
    assert {key: after[key] - before[key]
            for key in ("folds", "allocations", "live")} == {
        "folds": k + 1, "allocations": k + 1, "live": k + 1}
    assert gs.adjacency(h) == {v: sorted(n) for v, n in
                               adj_of(edges + batch).items()}
    assert [t.owners for t in sets] == [1] * k


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("B", [1, 2, 8, 64])
def test_new_sources_store_sets_written_from_their_ids(B, threads):
    # a source the vertex merge adds is a run-only entry: the merge stores
    # the set written from its ids (the op's second element is that
    # function), and a new destination without edges stores no set.  Into
    # the empty vertex tree and into a vertex block alike, the graph
    # matches the adjacency oracle and every tree is valid, inline and
    # with a worker pool
    bt.set_threads(threads)
    rng = random.Random(70 + B)
    base = [(0, 1)]
    for g, edges in ((gs.Graph(None, *gs.graph_contexts(B)), []),
                     (gs.from_edge_list(base, block_size=B), base)):
        assert g.vertices is None or type(g.vertices) is Flat
        batch = [(s, d) for s in range(2, 2 + 3 * B + 4)
                 for d in rng.sample(range(5 * B + 20), rng.randrange(
                     1, 3 * B + 3))]
        h = gs.insert_edges(g, batch)
        adj = adj_of(edges + batch)
        assert gs.adjacency(h) == {v: sorted(n) for v, n in adj.items()}
        assert gs.edge_count(h) == sum(map(len, adj.values()))
        check_tree(h.vctx, h.vertices)
        for _, et in bt.items(h.vctx, h.vertices):
            if et is not None:
                check_tree(h.ectx, et)
        assert any(bt.tree_size(et) > 2 * B
                   for _, et in bt.items(h.vctx, h.vertices))


def test_unchanged_edge_sets_keep_one_owner():
    # a batch that changes no edge set hands each touched set back as
    # itself; graphstore releases the owner the union or delete gave it,
    # so every set's root keeps one owner, in a vertex block and at a
    # regular node of the vertex tree alike
    rng = random.Random(11)
    edges = ([(0, d) for d in range(1, 401, 2)]
             + [(rng.randrange(1, 3000), rng.randrange(3000))
                for _ in range(6000)])
    g = gs.from_edge_list(edges, block_size=64)
    at_node = g.vertices.key
    adj = adj_of(edges)
    sources = [0, at_node] + rng.sample(sorted(v for v in adj if adj[v]), 8)
    owners = lambda h: [bt.ordmap.find(h.vctx, h.vertices, s).owners
                        for s in sources]
    assert gs.degree(g, 0) == 200
    assert owners(g) == [1] * len(sources)
    present = [(s, d) for s in sources for d in sorted(adj[s])[:2]]
    h = gs.insert_edges(g, present)
    assert h.vertices is g.vertices
    assert owners(g) == [1] * len(sources)
    absent = [(s, 3001) for s in sources]
    h = gs.delete_edges(g, absent)
    assert h.vertices is g.vertices
    assert owners(g) == [1] * len(sources)
    assert gs.adjacency(g) == {v: sorted(n) for v, n in adj.items()}


def test_bfs_isolated_and_missing_vertex():
    g = gs.from_edge_list([(3, 4)])
    assert gs.bfs(g, 4) == {4: 0}
    with pytest.raises(KeyError):
        gs.bfs(g, 99)


def test_snapshot_bfs_unaffected_by_concurrent_writer():
    rng = random.Random(5)
    edges = rand_edges(rng, 5000, 400)
    g0 = gs.from_edge_list(edges)
    adj = adj_of(edges)
    srcs = rng.sample(sorted(adj), 8)
    solo = [gs.bfs(g0, s) for s in srcs]

    stop = threading.Event()

    def writer():
        g = g0
        wrng = random.Random(99)
        while not stop.is_set():
            batch = [(wrng.randrange(400), wrng.randrange(400)) for _ in range(50)]
            g = gs.insert_edges(g, batch)

    th = threading.Thread(target=writer)
    th.start()
    try:
        concurrent = [gs.bfs(g0, s) for s in srcs for _ in range(3)]
    finally:
        stop.set()
        th.join()
    for i, s in enumerate(srcs):
        for rep in range(3):
            assert concurrent[i * 3 + rep] == solo[i]


def test_vertex_tree_overhead_small_vs_edge_payload():
    # vertex index (regular nodes + block headers) versus encoded edge bytes
    rng = random.Random(6)
    edges = rand_edges(rng, 10 ** 5, 1024)
    g = gs.from_edge_list(edges)
    _, vertex_meta = tree_bytes(g.vctx, g.vertices)
    edge_payload = 0
    for _, et in bt.items(g.vctx, g.vertices):
        if et is not None:
            total, meta = tree_bytes(g.ectx, et)
            edge_payload += total - meta
    assert edge_payload > 0
    assert vertex_meta <= 0.05 * edge_payload, \
        f"vertex overhead {vertex_meta} vs edge payload {edge_payload}"


def test_edge_blocks_are_gap_encoded():
    g = gs.from_edge_list([(0, d) for d in range(200)])
    et = bt.ordmap.find(g.vctx, g.vertices, 0)
    assert count_blocks(et) >= 1
    total, meta = tree_bytes(g.ectx, et)
    # 200 near-consecutive neighbors: one raw key plus one byte per gap
    assert total - meta < 200 * 3


def _skewed_local_edges(rng, n):
    """Pareto out-degrees; a vertex's neighbors lie in a window of at least
    128 ids above it, so every neighbor set below 64 has one-byte gaps."""
    edges = []
    for u in range(n):
        d = min(int(rng.paretovariate(1.1)), 400)
        edges += [(u, v) for v in rng.sample(range(u, u + max(128, 2 * d)), d)]
    return edges


def test_small_neighbor_sets_are_one_gap_coded_block():
    g = gs.from_edge_list(_skewed_local_edges(random.Random(11), 2000),
                          block_size=64)
    header = FLAT_HEADER_BYTES + BOUNDS_BYTES          # 32 B
    total = tree_bytes(g.vctx, g.vertices)[0]
    small = 0
    for _, et in bt.items(g.vctx, g.vertices):
        total += tree_bytes(g.ectx, et)[0]
        d = bt.tree_size(et)
        if 0 < d < 64:
            small += 1
            assert type(et) is Flat and et.count == d
            # the first key raw (8 B), then one byte per gap
            assert tree_bytes(g.ectx, et) == (header + 8 + (d - 1), header)
        check_tree(g.ectx, et)
    assert small > 1900
    # 12.2 B per edge; all-regular small sets (40 B a node) cost 29.8 here
    assert total / gs.edge_count(g) < 14


@pytest.mark.parametrize("n_ids", [1, 200])
def test_negative_neighbor_id_raises_codec_error(n_ids):
    # neighbor sets are built from ids that are sorted and deduplicated but
    # not otherwise checked before the delta codec encodes them: a negative
    # id must still raise, in a one-block set and in a set of several blocks
    bad = [(7, d) for d in range(-1, n_ids - 1)]
    with pytest.raises(CodecError):
        gs.from_edge_list(bad)
    g = gs.from_edge_list([(0, 1), (1, 2), (7, 3)])
    before = gs.adjacency(g), gs.edge_count(g)
    with pytest.raises(CodecError):
        gs.insert_edges(g, bad + [(0, 5)])
    assert (gs.adjacency(g), gs.edge_count(g)) == before
    check_tree(g.vctx, g.vertices)


def test_bad_endpoint_raises_before_any_tree_is_built():
    # a negative id, or one wider than the edge codec's key width, as a
    # source or a destination, raises before any edge tree is built: no
    # node stays live and no vertex is added
    from blocktree.counters import counters
    g = gs.from_edge_list([(0, 1), (1, 2), (7, 3)])
    before = gs.adjacency(g), gs.edge_count(g)
    live = counters.live
    for batch in ([(0, 5), (3, -1)], [(-4, 1)], [(2, 2 ** 64)]):
        with pytest.raises(CodecError):
            gs.insert_edges(g, batch)
        assert counters.live == live
        with pytest.raises(CodecError):
            gs.from_edge_list(batch)
        assert counters.live == live
    assert (gs.adjacency(g), gs.edge_count(g)) == before


def test_load_edge_list(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# a comment\n0 1\n\n 1 2 \n2 0\n")
    assert gs.load_edge_list(str(p)) == [(0, 1), (1, 2), (2, 0)]

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\nnope\n")
    with pytest.raises(GraphParseError) as ei:
        gs.load_edge_list(str(bad))
    assert ei.value.lineno == 2

    neg = tmp_path / "neg.txt"
    neg.write_text("0 -1\n")
    with pytest.raises(GraphParseError):
        gs.load_edge_list(str(neg))

    three = tmp_path / "three.txt"
    three.write_text("0 1 2\n")
    with pytest.raises(GraphParseError):
        gs.load_edge_list(str(three))

    word = tmp_path / "word.txt"
    word.write_text("0 1\n1 x\n")
    with pytest.raises(GraphParseError, match="non-integer vertex id") as ei:
        gs.load_edge_list(str(word))
    assert ei.value.lineno == 2
