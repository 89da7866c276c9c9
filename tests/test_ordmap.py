import dataclasses
import itertools
import random
from array import array
from bisect import bisect_right

import pytest

import blocktree as bt
from blocktree import ordmap
from blocktree.augment import AugSpec, aug_range
from blocktree.core import Config, Context, make_context
from blocktree.counters import counters
from blocktree.encoding import DeltaCodec, IdentityCodec, ObjectCodec
from blocktree.errors import CodecError, ContractError
from blocktree.inspect import (check_tree, count_blocks, count_nodes,
                               structure_digest, tree_depth)
from blocktree.nodes import Flat

from oracles import MapModel

KV = lambda ks: [(k, k * 10 + 1) for k in ks]


def test_build_empty_and_duplicates():
    ctx = make_context(block_size=3, encoding="identity")
    assert ordmap.build(ctx, []) is None
    t = ordmap.build(ctx, [(3, 1), (1, 2), (3, 3)])
    assert bt.to_list(ctx, t) == [(1, 2), (3, 3)]  # stable sort, last wins


def test_build_with_combine():
    ctx = make_context(block_size=3, encoding="identity")
    t = ordmap.build(ctx, [(1, 5), (1, 7), (2, 1)], combine=lambda a, b: a + b)
    assert bt.to_list(ctx, t) == [(1, 12), (2, 1)]


def test_build_aug_sum_of_keys():
    from blocktree.augment import AugSpec, aug_val
    spec = AugSpec(identity=0, lift=lambda e: e[0], combine=lambda a, b: a + b)
    ctx = make_context(block_size=3, encoding="identity", aug=spec)
    t = ordmap.build(ctx, [(k, 0) for k in range(16)])
    assert aug_val(ctx, t) == 120


def test_from_sorted_shapes():
    ctx = make_context(block_size=3, encoding="identity")
    t = ordmap.from_sorted(ctx, KV([9]))
    assert bt.tree_size(t) == 1
    t = ordmap.from_sorted(ctx, KV(range(1, 10)))
    check_tree(ctx, t)
    assert all(3 <= b.count <= 6 for b in _blocks(t))
    with pytest.raises(ContractError):
        ordmap.from_sorted(ctx, KV([2, 2]))
    with pytest.raises(ContractError):
        ordmap.from_sorted(ctx, KV([3, 1]))


def _blocks(t):
    if t is None:
        return
    if type(t) is Flat:
        yield t
        return
    yield from _blocks(t.left)
    yield from _blocks(t.right)


def test_from_sorted_roundtrip_random():
    rng = random.Random(0)
    for B in (1, 2, 8):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(60):
            ks = sorted(rng.sample(range(10 ** 6), rng.randrange(0, 500)))
            t = ordmap.from_sorted(ctx, KV(ks))
            assert bt.to_list(ctx, t) == KV(ks)
            check_tree(ctx, t)


def test_point_ops_examples():
    ctx = make_context(block_size=3, encoding="identity")
    assert ordmap.find(ctx, None, 3) is None
    t = ordmap.build(ctx, [(1, 1), (3, 3)])
    t2 = ordmap.insert(ctx, t, 2, 2)
    assert [k for k, _ in bt.to_list(ctx, t2)] == [1, 2, 3]
    assert bt.to_list(ctx, t) == [(1, 1), (3, 3)]  # persistence
    t3 = ordmap.remove(ctx, ordmap.build(ctx, KV([1, 2, 3])), 2)
    assert [k for k, _ in bt.to_list(ctx, t3)] == [1, 3]


def test_insert_combine_and_absent_remove():
    ctx = make_context(block_size=2, encoding="identity")
    t = ordmap.build(ctx, [(1, 10)])
    t2 = ordmap.insert(ctx, t, 1, 5, combine=lambda a, b: a - b)
    assert bt.to_list(ctx, t2) == [(1, 5)]
    t3 = ordmap.remove(ctx, t, 99)
    assert bt.to_list(ctx, t3) == [(1, 10)]


def test_union_examples():
    ctx = make_context(block_size=3, encoding="identity")
    t = ordmap.build(ctx, KV([1, 2]))
    assert ordmap.union(ctx, None, t) is not None
    assert bt.to_list(ctx, ordmap.union(ctx, t, None)) == KV([1, 2])
    octx = make_context(block_size=3, encoding="object")
    a = ordmap.build(octx, [(1, "a"), (3, "a"), (5, "a")])
    b = ordmap.build(octx, [(2, "b"), (3, "b"), (4, "b")])
    u = ordmap.union(octx, a, b)
    assert bt.to_list(octx, u) == [(1, "a"), (2, "b"), (3, "b"), (4, "b"), (5, "a")]


def test_intersection_examples():
    ctx = make_context(block_size=3, encoding="identity")
    t = ordmap.build(ctx, KV([1, 2, 3]))
    assert ordmap.intersection(ctx, t, None) is None
    o = ordmap.build(ctx, KV([2, 3, 4]))
    i = ordmap.intersection(ctx, t, o)
    assert [k for k, _ in bt.to_list(ctx, i)] == [2, 3]
    same = ordmap.intersection(ctx, t, t)
    assert bt.to_list(ctx, same) == bt.to_list(ctx, t)


def test_difference_examples():
    ctx = make_context(block_size=3, encoding="identity")
    t = ordmap.build(ctx, KV([1, 2, 3]))
    assert bt.to_list(ctx, ordmap.difference(ctx, t, None)) == KV([1, 2, 3])
    d = ordmap.difference(ctx, t, ordmap.build(ctx, KV([2])))
    assert [k for k, _ in bt.to_list(ctx, d)] == [1, 3]
    assert ordmap.difference(ctx, t, t) is None


def test_difference_keeps_t1_values():
    ctx = make_context(block_size=2, encoding="object")
    a = ordmap.build(ctx, [(1, "keep"), (2, "x")])
    b = ordmap.build(ctx, [(2, "other"), (3, "y")])
    d = ordmap.difference(ctx, a, b)
    assert bt.to_list(ctx, d) == [(1, "keep")]


def test_set_ops_match_merge_oracle_large():
    rng = random.Random(1)
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        n = 10 ** 4
        ka = rng.sample(range(4 * n), n)
        kb = rng.sample(range(4 * n), n)
        a, b = ordmap.build(ctx, KV(ka)), ordmap.build(ctx, KV(kb))
        ma, mb = MapModel(KV(ka)), MapModel(KV(kb))
        assert bt.to_list(ctx, ordmap.union(ctx, a, b)) == ma.union(mb).items()
        assert bt.to_list(ctx, ordmap.intersection(ctx, a, b)) == ma.intersection(mb).items()
        assert bt.to_list(ctx, ordmap.difference(ctx, a, b)) == ma.difference(mb).items()


def test_union_size_superadditive():
    rng = random.Random(2)
    ctx = make_context(block_size=8, encoding="identity")
    for _ in range(50):
        ka = set(rng.sample(range(3000), rng.randrange(0, 800)))
        kb = set(rng.sample(range(3000), rng.randrange(0, 800)))
        a, b = ordmap.build(ctx, KV(ka)), ordmap.build(ctx, KV(kb))
        u = ordmap.union(ctx, a, b)
        assert bt.tree_size(u) <= bt.tree_size(a) + bt.tree_size(b)
        assert (bt.tree_size(u) == bt.tree_size(a) + bt.tree_size(b)) == (not ka & kb)


def test_union_efficient_matches_union_200_pairs():
    rng = random.Random(3)
    for B in (2, 8, 64):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(67):
            ka = rng.sample(range(10 ** 5), rng.randrange(0, 2500))
            kb = rng.sample(range(10 ** 5), rng.randrange(0, 2500))
            a, b = ordmap.build(ctx, KV(ka)), ordmap.build(ctx, KV(kb))
            ue = ordmap.union_efficient(ctx, a, b)
            un = ordmap.union(ctx, a, b)
            assert bt.to_list(ctx, ue) == bt.to_list(ctx, un)
            check_tree(ctx, ue)
            for t in (a, b, ue, un):
                bt.release(t)
    assert counters.live == 0


def test_union_efficient_is_union():
    assert ordmap.union_efficient is ordmap.union


def test_union_efficient_unfold_bound():
    rng = random.Random(4)
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(25):
            a = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), rng.randrange(2 * B + 1, 60 * B))))
            b = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), rng.randrange(2 * B + 1, 60 * B))))
            budget = count_blocks(a) + count_blocks(b)
            u0 = counters.unfolds
            ordmap.union_efficient(ctx, a, b)
            assert counters.unfolds - u0 <= budget


def test_union_base_case_decode_bound():
    # the smaller operand is flattened once and the larger one decodes each
    # block it merges once, and the joins link the blocks a merge makes
    # instead of decoding them again: decodes <= blocks(t1) + blocks(t2)
    rng = random.Random(5)
    for encoding, B in itertools.product(("identity", "delta", "object"),
                                         (1, 2, 8, 128)):
        ctx = make_context(block_size=B, encoding=encoding)
        for _ in range(25):
            a = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), rng.randrange(2 * B + 1, 60 * B))))
            b = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), rng.randrange(2 * B + 1, 60 * B))))
            budget = count_blocks(a) + count_blocks(b)
            d0 = counters.decodes
            u = ordmap.union(ctx, a, b)
            assert counters.decodes - d0 <= budget, \
                (encoding, B, counters.decodes - d0, budget)
            for t in (a, b, u):
                bt.release(t)


def test_multi_insert_and_delete():
    ctx = make_context(block_size=3, encoding="identity")
    batch = KV([4, 9, 2])
    assert bt.to_list(ctx, ordmap.multi_insert(ctx, None, batch)) == \
        bt.to_list(ctx, ordmap.build(ctx, batch))
    t = ordmap.build(ctx, KV([1, 5, 9]))
    t2 = ordmap.multi_insert(ctx, t, [(2, 0), (5, 99)])
    assert bt.to_list(ctx, t2) == [(1, 11), (2, 0), (5, 99), (9, 91)]
    t3 = ordmap.multi_delete(ctx, ordmap.build(ctx, KV(range(1, 11))), [2, 4, 11])
    assert [k for k, _ in bt.to_list(ctx, t3)] == [1, 3, 5, 6, 7, 8, 9, 10]


def test_multi_insert_equals_fold_of_inserts():
    rng = random.Random(6)
    for B in (2, 16):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(40):
            base = KV(rng.sample(range(2000), rng.randrange(0, 400)))
            batch = [(rng.randrange(2000), rng.randrange(50)) for _ in range(rng.randrange(0, 200))]
            t = ordmap.build(ctx, base)
            got = ordmap.multi_insert(ctx, t, batch)
            ref = t
            arr = sorted(batch, key=lambda e: e[0])
            dedup = []
            for k, v in arr:
                if dedup and dedup[-1][0] == k:
                    dedup[-1] = (k, v)
                else:
                    dedup.append((k, v))
            for k, v in dedup:
                ref = ordmap.insert(ctx, ref, k, v)
            assert bt.to_list(ctx, got) == bt.to_list(ctx, ref)
            check_tree(ctx, got)


def test_combine_argument_order_matches_model():
    # pairing is neither commutative nor associative, so the result shows
    # which value went where: combine(t1 value, t2 value) for union and
    # intersection, combine(existing, incoming) for multi_insert, and batch
    # duplicates folded in batch order before they meet the tree.  Each set
    # operation runs in both operand orders, so whichever operand is the
    # smaller one is read as the sorted run; one pair per B has disjoint
    # key ranges.
    pair = lambda a, b: (a, b)
    rng = random.Random(10)
    baseline = counters.live
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="object")
        span = 30 * B + 300
        for trial in range(7):
            disjoint = trial == 0
            na = rng.randrange(0, 20 * B + 200)
            nb = rng.randrange(0, 20 * B + 200)
            if disjoint:
                na, nb = 20 * B + 200, rng.randrange(1, 10 * B + 100)
            pa = [(k, ("a", k)) for k in rng.sample(range(span), na)]
            pb = [(k + (span if disjoint else 0), ("b", k))
                  for k in rng.sample(range(span), nb)]
            batch = [(rng.randrange(span), rng.randrange(100))
                     for _ in range(rng.randrange(0, 20 * B + 200))]
            a, b = ordmap.build(ctx, pa), ordmap.build(ctx, pb)
            digests = [structure_digest(ctx, t) for t in (a, b)]
            ma, mb = MapModel(pa), MapModel(pb)
            incoming = MapModel()
            for k, v in batch:
                incoming = incoming.insert(k, v, pair)
            results = [(ordmap.multi_insert(ctx, a, batch, pair),
                        ma.union(incoming, pair))]
            for (t1, m1), (t2, m2) in (((a, ma), (b, mb)), ((b, mb), (a, ma))):
                results += [(ordmap.union(ctx, t1, t2, pair), m1.union(m2, pair)),
                            (ordmap.intersection(ctx, t1, t2, pair),
                             m1.intersection(m2, pair)),
                            (ordmap.difference(ctx, t1, t2), m1.difference(m2))]
            for t, m in results:
                assert bt.to_list(ctx, t) == m.items()
                check_tree(ctx, t)
                bt.release(t)
            assert [structure_digest(ctx, t) for t in (a, b)] == digests
            bt.release(a)
            bt.release(b)
            assert counters.live == baseline


def test_one_block_operands_match_model():
    # a one-block operand meets a tree of many blocks, so the set
    # algorithms recurse rather than merge: in either operand position the
    # block is the smaller operand, read as a sorted run that the tree
    # bisects
    pair = lambda a, b: (a, b)
    rng = random.Random(12)
    baseline = counters.live
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="object")
        span = 30 * B + 300
        for n_small in sorted({1, max(1, B // 2), 2 * B}):
            pa = [(k, ("a", k)) for k in rng.sample(range(span), rng.randrange(8 * B, 20 * B + 200))]
            pb = [(k, ("b", k)) for k in rng.sample(range(span), n_small)]
            big, block = ordmap.build(ctx, pa), ordmap.build(ctx, pb)
            assert type(block) is Flat
            digests = [structure_digest(ctx, t) for t in (big, block)]
            mbig, mblock = MapModel(pa), MapModel(pb)
            for (t1, m1), (t2, m2) in (((big, mbig), (block, mblock)),
                                       ((block, mblock), (big, mbig))):
                results = [(ordmap.union(ctx, t1, t2, pair), m1.union(m2, pair)),
                           (ordmap.intersection(ctx, t1, t2, pair),
                            m1.intersection(m2, pair)),
                           (ordmap.difference(ctx, t1, t2), m1.difference(m2))]
                for t, m in results:
                    assert bt.to_list(ctx, t) == m.items()
                    check_tree(ctx, t)
                    bt.release(t)
            assert [structure_digest(ctx, t) for t in (big, block)] == digests
            bt.release(big)
            bt.release(block)
            assert counters.live == baseline


def test_multi_delete_random_vs_model():
    rng = random.Random(11)
    baseline = counters.live
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(10):
            span = 30 * B + 300
            base = KV(rng.sample(range(span), rng.randrange(0, 20 * B + 200)))
            keys = [rng.randrange(span + 10) for _ in range(rng.randrange(0, 20 * B + 200))]
            t = ordmap.build(ctx, base)
            d = ordmap.multi_delete(ctx, t, keys)
            model = MapModel(base)
            for k in keys:
                model = model.remove(k)
            assert bt.to_list(ctx, d) == model.items()
            assert bt.to_list(ctx, t) == sorted(base)
            check_tree(ctx, d)
            bt.release(d)
            bt.release(t)
    assert counters.live == baseline


def _touched_blocks(blocks, keys):
    """Indices of the in-order blocks a batch may re-encode: each block
    whose key range holds a batch key (both blocks around a key that falls
    between blocks), and the neighbor on either side, which a fragment is
    joined to."""
    firsts = [b.first_key for b in blocks]
    hit = set()
    for k in keys:
        i = bisect_right(firsts, k) - 1
        hit.update((i,) if i >= 0 and k <= blocks[i].last_key else (i, i + 1))
    return {j for i in hit for j in (i - 1, i, i + 1) if 0 <= j < len(blocks)}


@pytest.mark.parametrize("encoding", ["identity", "delta", "object"])
def test_small_batches_share_untouched_blocks(encoding):
    # a batch of k keys merges only at the blocks it reaches: every other
    # block of the input is shared, not re-encoded
    rng = random.Random(14)
    baseline = counters.live
    for B in (2, 8, 128):
        ctx = make_context(block_size=B, encoding=encoding)
        n = 40 * B + 40
        base = KV(range(0, 2 * n, 2))
        t = ordmap.from_sorted(ctx, base)
        blocks = list(_blocks(t))
        assert len(blocks) >= 20
        depth = tree_depth(t)
        digest = structure_digest(ctx, t)
        model = MapModel(base)
        for trial in range(12):
            k = rng.randrange(1, 6)
            if trial % 2 == 0:
                batch = [(rng.randrange(2 * n + 3), trial)
                         for _ in range(k)]
                keys = [key for key, _ in batch]
                f0 = counters.folds
                got = ordmap.multi_insert(ctx, t, batch)
                want = model
                for key, v in batch:
                    want = want.insert(key, v)
            else:
                keys = rng.sample(range(0, 2 * n, 2), k)
                f0 = counters.folds
                got = ordmap.multi_delete(ctx, t, keys)
                want = model
                for key in keys:
                    want = want.remove(key)
            assert counters.folds - f0 <= k * (depth + 2)
            assert bt.to_list(ctx, got) == want.items()
            check_tree(ctx, got)
            shared = {id(b) for b in _blocks(got)}
            touched = _touched_blocks(blocks, keys)
            for i, b in enumerate(blocks):
                assert i in touched or id(b) in shared, (B, trial, i)
            bt.release(got)
        assert structure_digest(ctx, t) == digest
        bt.release(t)
    assert counters.live == baseline


@pytest.mark.parametrize("encoding", ["identity", "delta"])
def test_sparse_intersection_codec_budget(encoding):
    # each block of the larger operand keeps a few entries; they travel up
    # as entry runs and are encoded once, about B at a time, so the joins
    # never flatten the undersized pieces again
    rng = random.Random(15)
    baseline = counters.live
    for B in (8, 128):
        ctx = make_context(block_size=B, encoding=encoding)
        for _ in range(4):
            big_keys = rng.sample(range(0, 400 * B, 2), rng.randrange(50 * B, 100 * B))
            n_small = rng.randrange(5 * B, 10 * B)
            hits = rng.sample(big_keys, n_small // 10)
            small_keys = hits + rng.sample(range(1, 400 * B, 2), n_small - len(hits))
            pa, pb = KV(big_keys), [(k, 3 * k) for k in small_keys]
            t1, t2 = ordmap.build(ctx, pa), ordmap.build(ctx, pb)
            d0, f0 = counters.decodes, counters.folds
            got = ordmap.intersection(ctx, t1, t2)
            decodes, folds = counters.decodes - d0, counters.folds - f0
            want = MapModel(pa).intersection(MapModel(pb))
            assert len(want.items()) < n_small / 8
            assert bt.to_list(ctx, got) == want.items()
            check_tree(ctx, got)
            assert decodes <= count_blocks(t1) + count_blocks(t2) + count_blocks(got)
            assert folds <= 2 * -(-len(want.items()) // B) + tree_depth(t1), \
                (B, folds)
            for t in (got, t1, t2):
                bt.release(t)
    assert counters.live == baseline


def test_filter_examples_and_sharing():
    ctx = make_context(block_size=3, encoding="identity")
    t = ordmap.build(ctx, KV(range(1, 11)))
    f = ordmap.filter(ctx, t, lambda e: True)
    assert bt.to_list(ctx, f) == bt.to_list(ctx, t)
    f = ordmap.filter(ctx, t, lambda e: e[0] % 2 == 0)
    assert [k for k, _ in bt.to_list(ctx, f)] == [2, 4, 6, 8, 10]


def test_filter_drop_one_copies_depth_nodes():
    import math
    ctx = make_context(block_size=128, encoding="identity")
    n = 50000
    t = ordmap.build(ctx, KV(range(n)))
    victim = 31337
    a0 = counters.allocations
    f = ordmap.filter(ctx, t, lambda e: e[0] != victim)
    copied = counters.allocations - a0
    bound = math.ceil(math.log(n / 128) / math.log(1 / 0.71)) + 4
    assert bt.tree_size(f) == n - 1
    assert copied <= bound, f"filter copied {copied} nodes, bound {bound}"


def test_sparse_filter_allocates_no_discarded_node():
    # the few entries a filter keeps of each block travel up as entry runs
    # and are encoded once they reach B, as in _batch: no block is built to
    # be decoded again by the next level, and no regular node is built and
    # dropped.  The one allowance: when the root's entry is dropped, join2
    # of the two regular halves copies one node of their seam
    for B in (8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        n = 40 * B
        t = ordmap.build(ctx, KV(range(n)))
        for r in range(7):
            keep = lambda e: e[0] % 7 == r
            c0 = counters.snapshot()
            f = ordmap.filter(ctx, t, keep)
            c1 = counters.snapshot()
            allocations, folds, decodes = (
                c1[c] - c0[c] for c in ("allocations", "folds", "decodes"))
            assert bt.to_list(ctx, f) == KV(range(r, n, 7))
            check_tree(ctx, f)
            regular = count_nodes(f) - count_blocks(f)
            seam = 0 if keep((t.key, t.value)) else 1
            assert allocations <= folds + regular + seam, \
                (B, r, allocations, folds, regular)
            assert folds <= 2 * count_blocks(f), (B, r, folds)
            assert decodes <= count_blocks(t) + count_blocks(f), \
                (B, r, decodes)
            bt.release(f)
        bt.release(t)


@pytest.mark.parametrize("encoding", ["identity", "delta"])
def test_dropped_entry_beside_a_run_takes_no_block(encoding):
    # a multi_delete of the root key and all but one key of the left
    # subtree leaves a one-entry run on the left of the dropped entry: the
    # glue takes that entry as the middle of the join, so no block is made
    # of the run only to be cut open again
    for B in (8, 128):
        ctx = make_context(block_size=B, encoding=encoding)
        n = 40 * B
        t = ordmap.build(ctx, KV(range(n)))
        keys = [t.key] + [k for k, _ in bt.to_list(ctx, t.left)][1:]
        f0 = counters.folds
        got = ordmap.multi_delete(ctx, t, keys)
        assert counters.folds - f0 <= 1, (B, counters.folds - f0)
        want = MapModel(KV(range(n))).difference(MapModel(KV(keys)))
        assert bt.to_list(ctx, got) == want.items()
        check_tree(ctx, got)
        bt.release(got)
        bt.release(t)


def test_map_reduce():
    ctx = make_context(block_size=3, encoding="identity")
    assert ordmap.reduce(ctx, None, lambda a, b: a + b, 0) == 0
    t = ordmap.build(ctx, [(k, k) for k in range(16)])
    assert ordmap.reduce(ctx, t, lambda a, b: a + b, 0) == 120
    m = ordmap.map_values(ctx, t, lambda v: v * 2)
    assert ordmap.reduce(ctx, m, lambda a, b: a + b, 0) == 240
    assert [k for k, _ in bt.to_list(ctx, m)] == list(range(16))
    check_tree(ctx, m)


def _counting(cls, **kw):
    """A codec ``cls(**kw)`` that counts the calls the library makes of
    its ``columns``, of its ``values`` and of its ``view`` where that
    reads the block in place; a call the codec makes of its own methods
    is not counted."""
    class Counting(cls):
        calls = None
        inside = False

        def _count(self, name, read, *args):
            if self.inside:
                return read(*args)
            self.inside = True
            try:
                got = read(*args)
            finally:
                self.inside = False
            if name != "view" or got is not None:
                self.calls[name] += 1
            return got

        def columns(self, payload, count):
            return self._count("columns", super().columns, payload, count)

        def values(self, payload, count):
            return self._count("values", super().values, payload, count)

        def view(self, payload, count):
            return self._count("view", super().view, payload, count)
    return Counting(**kw)


@pytest.mark.parametrize("B", [1, 8, 128])
def test_reduce_reads_each_block_once(B):
    # a block's value column is one decode and one view (a read in place)
    # or one values call, and no columns call, at every codec; reduce
    # builds nothing.  A set's values are None: the fold counts them.
    # Dense keys take the delta codec's one-byte-gap path, sparse keys its
    # varint loop
    from blocktree.core import Config, Context
    from blocktree.encoding import DeltaCodec, IdentityCodec, ObjectCodec
    rng = random.Random(B)
    sparse = rng.sample(range(10 ** 6), 40 * B + 7)
    dense = rng.sample(range(80 * B + 14), 40 * B + 7)
    for cls, kw, keys in ((IdentityCodec, dict(key_width=8, value_width=8), sparse),
                          (IdentityCodec, dict(key_width=3, value_width=3), sparse),
                          (IdentityCodec, dict(value_width=0), sparse),
                          (DeltaCodec, dict(value_width=8), sparse),
                          (DeltaCodec, dict(value_width=8), dense),
                          (DeltaCodec, dict(value_width=0), dense),
                          (DeltaCodec, dict(value_width=3), dense),
                          (ObjectCodec, {}, sparse)):
        codec = _counting(cls, **kw)
        vw = codec.value_width
        ctx = Context(Config(block_size=B), codec)
        t = ordmap.build(ctx, [(k, k % 251 if vw else None) for k in keys])
        first = next(_blocks(t))
        read = ("values" if cls.view(codec, first.payload, first.count) is None
                else "view")
        codec.calls = {"columns": 0, "values": 0, "view": 0}
        before = counters.snapshot()
        got = ordmap.reduce(ctx, t, lambda a, b: a + (1 if b is None else b), 0)
        after = counters.snapshot()
        assert got == (sum(k % 251 for k in keys) if vw else len(keys))
        assert after["decodes"] - before["decodes"] == count_blocks(t)
        assert codec.calls == {"columns": 0, "values": 0, "view": 0,
                               read: count_blocks(t)}
        assert after["folds"] == before["folds"]
        assert after["allocations"] == before["allocations"]
        bt.release(t)


def test_range_rank_next_previous():
    ctx = make_context(block_size=3, encoding="identity")
    assert ordmap.key_range(ctx, None, 0, 9) is None
    t = ordmap.build(ctx, KV([2, 4, 6]))
    assert ordmap.rank(ctx, t, 5) == 2
    assert ordmap.next_entry(ctx, t, 4) == (6, 61)
    assert ordmap.previous_entry(ctx, t, 2) is None
    t20 = ordmap.build(ctx, KV(range(20)))
    r = ordmap.key_range(ctx, t20, 5, 11)
    assert [k for k, _ in bt.to_list(ctx, r)] == list(range(5, 12))
    check_tree(ctx, r)
    # reversed bounds raise before the walk: nothing is built or consumed
    live, owners = counters.live, t20.owners
    digest = structure_digest(ctx, t20)
    with pytest.raises(ContractError, match="lo <= hi"):
        ordmap.key_range(ctx, t20, 9, 8)
    assert counters.live == live and t20.owners == owners
    assert structure_digest(ctx, t20) == digest
    # bounds on a key, between keys, beyond both ends, lo == hi, and the
    # empty map, over a tree of several blocks
    assert ordmap.key_range(ctx, None, 4, 4) is None
    spec = AugSpec(identity=0, lift=lambda e: e[1], combine=lambda a, b: a + b)
    for enc in ("identity", "delta", "object"):
        ctx = make_context(block_size=3, encoding=enc)
        ks = list(range(0, 60, 2))
        t = ordmap.build(ctx, KV(ks))
        m = MapModel(KV(ks))
        bounds = [-5, 0, 1, 2, 7, 8, 29, 30, 31, 57, 58, 59, 100]
        for lo in bounds:
            for hi in bounds:
                if lo <= hi:
                    r = ordmap.key_range(ctx, t, lo, hi)
                    assert bt.to_list(ctx, r) == m.key_range(lo, hi).items()
                    check_tree(ctx, r)
                    bt.release(r)
        # every block's first and last key and every regular node's key,
        # and the keys beside them: the searches that step past an equal
        # key (next_entry, and aug_range's upper bound in a block)
        actx = make_context(block_size=3, encoding=enc, aug=spec)
        ta = ordmap.build(actx, KV(ks))
        probes = _edge_keys(t, [])
        assert len(probes) > 10 and _edge_keys(ta, []) == probes
        near = sorted({p + d for p in probes for d in (-1, 0, 1)})
        for k in near:
            assert ordmap.next_entry(ctx, t, k) == m.next_entry(k), k
            assert ordmap.previous_entry(ctx, t, k) == m.previous_entry(k), k
        for lo in near:
            for hi in near:
                want = sum(v for _, v in m.key_range(lo, hi).items())
                assert aug_range(actx, ta, lo, hi) == want, (lo, hi)
        bt.release(t)
        bt.release(ta)


def _edge_keys(t, out):
    """Each block's first and last key and each regular node's key, in
    order."""
    if type(t) is Flat:
        out += [t.first_key, t.last_key]
    elif t is not None:
        _edge_keys(t.left, out)
        out.append(t.key)
        _edge_keys(t.right, out)
    return out


def _nodes(t, out):
    """Every node of t, by identity."""
    if t is not None:
        out.add(id(t))
        if type(t) is not Flat:
            _nodes(t.left, out)
            _nodes(t.right, out)
    return out


def _owners(t):
    """The owner counts of t's nodes, in preorder: a failed operation that
    kept a handle to a shared subtree shows as one count too many."""
    if t is None:
        return []
    if type(t) is Flat:
        return [t.owners]
    return [t.owners] + _owners(t.left) + _owners(t.right)


def test_small_key_range_allocates_only_its_result():
    # a ~100-entry range at B=128 is one result block: the identity codec
    # finds both bounds in place and the walk zips the kept entries from
    # the boundary blocks' columns in place, so it decodes no block, and
    # the discarded sides allocate and reclaim nothing
    ctx = make_context(block_size=128, encoding="identity")
    t = ordmap.build(ctx, KV(range(0, 8 * 10 ** 5, 8)))
    rng = random.Random(13)
    for _ in range(200):
        lo = rng.randrange(-8, 8 * 10 ** 5)
        c0 = counters.snapshot()
        r = ordmap.key_range(ctx, t, lo, lo + 800)
        c1 = counters.snapshot()
        assert c1["allocations"] - c0["allocations"] == 1
        assert c1["reclaims"] == c0["reclaims"]
        assert c1["folds"] - c0["folds"] == 1
        assert c1["decodes"] == c0["decodes"]
        want = [k for k in range(max(lo, 0), lo + 801) if k % 8 == 0]
        assert [k for k, _ in bt.to_list(ctx, r)] == want
        bt.release(r)
    bt.release(t)


@pytest.mark.parametrize("B", [2, 8, 128])
def test_key_range_shares_the_subtrees_it_covers(B):
    # all but the two end blocks: the covered subtrees are the input's own
    # nodes, and only the O(depth) spine nodes the joins rebuild are new
    ctx = make_context(block_size=B, encoding="identity")
    t = ordmap.build(ctx, KV(range(300 * B)))
    depth = tree_depth(t)
    blocks = list(_blocks(t))
    a0, f0 = counters.allocations, counters.folds
    r = ordmap.key_range(ctx, t, blocks[1].first_key, blocks[-2].last_key)
    assert counters.allocations - a0 <= 3 * depth
    assert counters.folds - f0 <= depth
    inside = _nodes(r, set())
    for covered in (t.left.right, t.right.left):
        assert id(covered) in inside
    assert len(inside - _nodes(t, set())) <= 3 * depth
    assert [k for k, _ in bt.to_list(ctx, r)] == list(
        range(blocks[1].first_key, blocks[-2].last_key + 1))
    check_tree(ctx, r)
    bt.release(r)
    bt.release(t)


class _DecodeFault(Exception):
    pass


def _failing_codec(cls, **kw):
    """A codec ``cls(**kw)`` whose block reads and block writes raise on
    the ``fail_at``-th one.  A block read is a column read (``columns``,
    or ``values`` for a reader of the value column alone where the codec
    has no view; a decode zips the columns it reads, so it counts once) or
    an in-place ``view`` that found its payload readable in place.  A
    block write is a
    block written from its columns (``encode_columns``, the writer behind
    every block the library builds and behind ``encode``), an in-place
    ``splice`` that edited its payload, or an in-place ``edit_keys`` that
    edited a set block."""
    class Failing(cls):
        fail_at = None
        calls = 0
        failed_writes = 0
        edits = 0

        def _tick(self, write=False):
            self.calls += 1
            if self.calls == self.fail_at:
                self.failed_writes += write
                raise _DecodeFault

        def columns(self, payload, count):
            cols = super().columns(payload, count)
            self._tick()
            return cols

        def values(self, payload, count):
            values = super().values(payload, count)
            self._tick()
            return values

        def view(self, payload, count):
            view = super().view(payload, count)
            if view is not None:
                self._tick()
            return view

        def splice(self, payload, count, i, j, entries):
            spliced = super().splice(payload, count, i, j, entries)
            if spliced is not None:
                self._tick(write=True)
            return spliced

        def edit_keys(self, payload, count, first, last, keys, insert):
            edited = super().edit_keys(payload, count, first, last, keys,
                                       insert)
            if edited is not None:
                self.edits += 1
                self._tick(write=True)
            return edited

        def encode_columns(self, keys, values=None):
            self._tick(write=True)
            return super().encode_columns(keys, values)
    return Failing(**kw)


def _handles(result):
    """The trees of a result: one tree, every tree of a tuple (split's and
    expose's (l, entry, r), split_last's (rest, entry)), or none for a
    user value (reduce's)."""
    parts = result if type(result) is tuple else (result,)
    return [x for x in parts if hasattr(x, "owners")]


@pytest.mark.parametrize("B", [1, 2, 8])
def test_failed_decodes_release_what_they_hold(B):
    # a block read or write that fails anywhere in a key_range, a subseq,
    # a split, a split_last, an expose of a block, an append, a filter, a
    # map_values, a reduce, a write or a graph read (neighbors, bfs) (the
    # position search, the walk, the in-place edits, the merges, the splits
    # and joins that assemble the pieces, the branch that fork2 ran first)
    # leaves the inputs intact and releases every node the operation had
    # made.  The delta codec has no in-place search, so its position
    # searches decode too
    from blocktree import graphstore as gs
    from blocktree import sequence as sq
    from blocktree.core import Config, Context
    from blocktree.encoding import DeltaCodec, IdentityCodec, ObjectCodec
    # a graph's edge trees are left to the garbage collector (graphstore's
    # docstring), so the live baseline is taken once the graph is built
    vcodec = _failing_codec(ObjectCodec)
    ecodec = _failing_codec(DeltaCodec, value_width=0)
    vctx = Context(Config(block_size=B), vcodec, aug=gs._edge_count_spec())
    rng = random.Random(B)
    g = gs.insert_edges(gs.Graph(None, vctx, Context(Config(block_size=B), ecodec)),
                        [(rng.randrange(3 * B + 9), rng.randrange(20 * B + 9))
                         for _ in range(40 * B)] + [(0, v) for v in range(5 * B)])
    baseline = counters.live
    cases, trees, writers = [], [], []
    for codec in (vcodec, ecodec):
        cases.append((codec, vctx, (g.vertices,), lambda: gs.bfs(g, 0)))
    cases.append((ecodec, vctx, (g.vertices,), lambda: gs.neighbors(g, 0)))
    for cls in (IdentityCodec, DeltaCodec):
        codec = _failing_codec(cls)
        writers.append(codec)
        ctx = Context(Config(block_size=B), codec)
        t = ordmap.build(ctx, KV(range(0, 40 * B + 60, 2)))
        other = ordmap.build(ctx, KV(range(B, 30 * B + 7, 3)))
        trees += [t, other]
        for lo, hi in ((7, 20 * B + 41), (1, 40 * B + 40),
                       (10 * B, 30 * B + 3)):
            cases.append((codec, ctx, (t,), lambda ctx=ctx, t=t, lo=lo, hi=hi:
                          ordmap.key_range(ctx, t, lo, hi)))
        for read in (lambda ctx, t, o: bt.split(ctx, t, 20 * B + 1),
                     lambda ctx, t, o: bt.split_last(ctx, t),
                     lambda ctx, t, o: bt.expose(ctx, next(_blocks(t))),
                     lambda ctx, t, o: ordmap.filter(
                         ctx, t, lambda e: e[0] % 6 != 2),
                     lambda ctx, t, o: ordmap.map_values(
                         ctx, t, lambda v: v + 1),
                     lambda ctx, t, o: ordmap.insert(ctx, t, 20 * B + 1, 5),
                     lambda ctx, t, o: ordmap.remove(ctx, t, 20 * B + 2),
                     lambda ctx, t, o: ordmap.union(ctx, t, o),
                     lambda ctx, t, o: ordmap.difference(ctx, t, o),
                     lambda ctx, t, o: ordmap.multi_delete(
                         ctx, t, range(5, 30 * B, 4)),
                     lambda ctx, t, o: ordmap.reduce(
                         ctx, t, lambda a, b: a + b, 0)):
            cases.append((codec, ctx, (t, other),
                          lambda ctx=ctx, t=t, o=other, read=read:
                          read(ctx, t, o)))
    scodec = _failing_codec(ObjectCodec)
    sctx = Context(Config(block_size=B), scodec, ordered=False)
    s = sq.seq_build(sctx, range(20 * B + 30))
    s2 = sq.seq_build(sctx, range(7 * B + 3))
    for i, j in ((3, 15 * B + 11), (1, 20 * B + 29), (5 * B, 9 * B + 2)):
        cases.append((scodec, sctx, (s,),
                      lambda i=i, j=j: sq.subseq(sctx, s, i, j)))
    for a, b in ((s, s2), (s2, s)):
        cases.append((scodec, sctx, (s, s2),
                      lambda a=a, b=b: sq.append(sctx, a, b)))
    cases.append((scodec, sctx, (s,),
                  lambda: sq.seq_reduce(sctx, s, lambda a, b: a + b, 0)))
    for case, (codec, c, xs, op) in enumerate(cases):
        digests = [structure_digest(c, x) for x in xs]
        codec.calls = 0
        for result in _handles(op()):
            bt.release(result)
        live = counters.live
        # every case reads or writes a block, so each sweeps a fault
        assert codec.calls >= 1, case
        for k in range(1, codec.calls + 1):
            codec.calls, codec.fail_at = 0, k
            with pytest.raises(_DecodeFault):
                op()
            codec.fail_at = None
            assert counters.live == live, (case, k, counters.live - live)
            assert [structure_digest(c, x) for x in xs] == digests
    # the merges and maps of both byte codecs failed in their block writes
    assert all(c.failed_writes for c in writers)
    for x in trees + [s, s2]:
        bt.release(x)
    assert counters.live == baseline
    bt.release(g.vertices)


class _CallbackFault(Exception):
    pass


def _failing(f, fail_at):
    """f, except that its ``fail_at``-th call raises."""
    calls = itertools.count(1)

    def g(*args):
        if next(calls) == fail_at:
            raise _CallbackFault
        return f(*args)
    return g


def _calls(op, callback):
    """How many times op calls callback; op's result is released."""
    calls = itertools.count()

    def counted(*args):
        next(calls)
        return callback(*args)
    for result in _handles(op(counted)):
        bt.release(result)
    return next(calls)


@pytest.mark.parametrize("B", [1, 8, 128])
def test_failed_callbacks_release_what_they_hold(B):
    # a callback that raises on its k-th call (a filter predicate, a
    # map_values f, the combine of a set operation or a multi_insert, an
    # augmented context's lift, also where node or split folds an unfolded
    # block passed in, and the inverse a multi_insert updates its blocks'
    # aggregates with) leaves the inputs intact and releases every node the
    # operation had made, inline and with a worker pool running one branch
    # of each fork; once the inputs are released, no node is left live.
    # reduce's branch results are user values: its error propagates as it
    # is, and nothing tries to release them
    from blocktree.augment import AugSpec
    baseline = counters.live
    n = max(40 * B, 600)
    pairs = KV(range(0, 2 * n, 2))
    few = KV(sorted(random.Random(B).sample(range(2 * n), n // 2)))
    ctx = make_context(block_size=B, encoding="identity")
    t, other = ordmap.build(ctx, pairs), ordmap.build(ctx, few)
    # the lift the augmented trees call, swapped for each failing run
    key_of = lambda e: e[0]
    lift = [key_of]
    actx = make_context(block_size=B, encoding="identity", aug=AugSpec(
        identity=0, lift=lambda e: lift[0](e), combine=lambda a, b: a + b))
    ta, tb = ordmap.build(actx, pairs), ordmap.build(actx, few)
    # a sum of values, whose merges update block aggregates by difference
    # through the inverse, swapped like the lift
    sub = lambda a, b: a - b
    inverse = [sub]
    ictx = make_context(block_size=B, encoding="identity", aug=AugSpec(
        identity=0, lift=lambda e: e[1], combine=lambda a, b: a + b,
        inverse=lambda a, b: inverse[0](a, b)))
    ti = ordmap.build(ictx, pairs)
    block = ordmap.build(actx, KV([2 * n + 2, 2 * n + 4]))
    unfolded = bt.unfold(actx, block)
    bt.release(block)
    inputs = [(ctx, t), (ctx, other), (actx, ta), (actx, tb),
              (actx, unfolded), (ictx, ti)]
    digests = [structure_digest(c, x) for c, x in inputs]
    live = counters.live

    def swapping(slot, default, op):
        def run(f):
            slot[0] = f
            try:
                return op()
            finally:
                slot[0] = default
        return run
    lifting = lambda op: swapping(lift, key_of, op)

    add = lambda a, b: a + b
    cases = [(lambda f: ordmap.filter(ctx, t, f), lambda e: e[0] % 6 != 2),
             (lambda f: ordmap.map_values(ctx, t, f), lambda v: v + 1),
             (lambda f: ordmap.reduce(ctx, t, f, 0), add),
             (lambda f: ordmap.union(ctx, t, other, f), add),
             (lambda f: ordmap.intersection(ctx, t, other, f), add),
             (lambda f: ordmap.multi_insert(ctx, t, few, f), add)]
    cases += [(lifting(op), key_of) for op in (
        lambda: ordmap.build(actx, pairs),
        lambda: ordmap.map_values(actx, ta, lambda v: v + 1),
        lambda: ordmap.filter(actx, ta, lambda e: e[0] % 6 != 2),
        lambda: ordmap.union(actx, ta, tb),
        lambda: ordmap.insert(actx, ta, n + 1, 5),
        lambda: bt.split(actx, ta, n + 3),
        lambda: bt.node(actx, ta, (2 * n + 1, 1), unfolded),
        lambda: bt.split(actx, unfolded, 2 * n + 3))]
    cases.append((swapping(inverse, sub,
                           lambda: ordmap.multi_insert(ictx, ti, few)), sub))
    assert _calls(*cases[-1])
    for threads in (1, 2):
        bt.set_threads(threads)
        for i, (op, callback) in enumerate(cases):
            calls = _calls(op, callback)
            for k in range(1, calls + 1, max(1, calls // 24)):
                with pytest.raises(_CallbackFault):
                    op(_failing(callback, k))
                assert counters.live == live, (threads, i, k)
                assert [structure_digest(c, x) for c, x in inputs] == digests
    bt.set_threads(1)
    for _, x in inputs:
        bt.release(x)
    assert counters.live == baseline


@pytest.mark.parametrize("B", [1, 8])
def test_one_sided_batches_release_what_they_hold(B):
    # a batch run that lies wholly on one side of a node recurses into that
    # side alone, with no fork.  A combine that raises on a run key after
    # the first, or a block read or column write that fails, leaves the
    # inputs intact and releases every node the operation had made, inline
    # and with a worker pool
    codec = _failing_codec(IdentityCodec)
    ctx = Context(Config(block_size=B), codec)
    t = ordmap.build(ctx, KV(range(0, 60 * B + 40, 2)))
    # clusters at both ends and in the middle: most nodes on their paths
    # see the run on one side
    few = KV([1, 4, 6, 30 * B + 1, 30 * B + 2, 60 * B + 37, 60 * B + 38])
    other = ordmap.build(ctx, few)
    state = lambda: [(structure_digest(ctx, x), _owners(x)) for x in (t, other)]
    before = state()
    add = lambda a, b: a + b
    ops = [lambda f: ordmap.multi_insert(ctx, t, few, f),
           lambda f: ordmap.union(ctx, t, other, f),
           lambda f: ordmap.union(ctx, other, t, f)]
    live = counters.live
    for threads in (1, 2):
        bt.set_threads(threads)
        for i, op in enumerate(ops):
            calls = _calls(op, add)
            assert calls >= 2
            for k in range(2, calls + 1):
                with pytest.raises(_CallbackFault):
                    op(_failing(add, k))
                assert counters.live == live, (threads, i, k)
                assert state() == before
            codec.calls = 0
            bt.release(op(add))
            for k in range(1, codec.calls + 1):
                codec.calls, codec.fail_at = 0, k
                with pytest.raises(_DecodeFault):
                    op(add)
                codec.fail_at = None
                assert counters.live == live, (threads, i, k)
                assert state() == before
    bt.set_threads(1)
    assert codec.failed_writes
    bt.release(t)
    bt.release(other)
    assert counters.live == 0


@pytest.mark.parametrize("B", [1, 8])
def test_failed_graph_batches_release_what_they_hold(B, monkeypatch):
    # an edge batch whose per-source update (graphstore._edges: a new
    # source's set, a union or a delete) raises after the first one, or
    # whose vertex or edge block read or column write fails, leaves the
    # graph intact and releases every vertex-tree node it had made, inline
    # and with a worker pool.  graphstore leaves edge trees to the garbage
    # collector, so the test releases the ones each attempt built (every
    # per-source result but an input set handed back unchanged) for an
    # exact count
    from blocktree import graphstore as gs
    vcodec = _failing_codec(ObjectCodec)
    ecodec = _failing_codec(DeltaCodec, value_width=0)
    vctx = Context(Config(block_size=B), vcodec, aug=gs._edge_count_spec())
    ectx = Context(Config(block_size=B), ecodec)
    rng = random.Random(B)
    n = 40 * B + 9
    g = gs.insert_edges(gs.Graph(None, vctx, ectx),
                        [(rng.randrange(n), rng.randrange(n))
                         for _ in range(60 * B)] + [(0, v) for v in range(5 * B)])
    made, edge_ops = [], itertools.count(1)
    fail_at = [None]

    edges = gs._edges

    def recorded(ectx, old, ids, op):
        if next(edge_ops) == fail_at[0]:
            raise _CallbackFault
        result = edges(ectx, old, ids, op)
        # an update that changes nothing hands back its input set itself,
        # and graphstore releases the owner it gained
        if result is not old:
            made.append(result)
        return result
    monkeypatch.setattr(gs, "_edges", recorded)
    present = sorted(set(itertools.chain.from_iterable(
        (s, d) for s, ds in gs.adjacency(g).items() for d in ds[:1])))
    sources = [v for v, ds in gs.adjacency(g).items() if ds]
    batch = ([(sources[0], n + 1), (sources[len(sources) // 2], 3),
              (sources[-1], sources[0]), (n + 2, present[1])]
             + [(s, d) for s, ds in list(gs.adjacency(g).items())[::7]
                for d in ds[:1]])
    ops = [lambda: gs.insert_edges(g, batch), lambda: gs.delete_edges(g, batch)]
    state = lambda: (structure_digest(vctx, g.vertices), _owners(g.vertices))
    before = state()
    baseline = counters.live

    def settle(result=None):
        if result is not None:
            bt.release(result.vertices)
        for x in made:
            bt.release(x)
        made.clear()
        assert counters.live == baseline
        assert state() == before

    for threads in (1, 2):
        bt.set_threads(threads)
        for op in ops:
            vcodec.calls = ecodec.calls = 0
            start = next(edge_ops)
            settle(op())
            calls = next(edge_ops) - start - 1
            codec_calls = ((vcodec, vcodec.calls), (ecodec, ecodec.calls))
            assert calls >= 2
            for k in range(2, calls + 1):
                fail_at[0] = next(edge_ops) + k
                with pytest.raises(_CallbackFault):
                    op()
                settle()
            fail_at[0] = None
            for codec, n_calls in codec_calls:
                for k in range(1, n_calls + 1):
                    codec.calls, codec.fail_at = 0, k
                    with pytest.raises(_DecodeFault):
                        op()
                    codec.fail_at = None
                    settle()
    # the vertex blocks' edge counts, updated by difference: an inverse,
    # or a column fold, that raises on its k-th call
    spec = vctx.aug
    for field in ("inverse", "fold_values"):
        f = getattr(spec, field)
        for threads in (1, 2):
            bt.set_threads(threads)
            for op in (gs.insert_edges, gs.delete_edges):
                def run(h):
                    ctx = Context(vctx.config, vcodec,
                                  aug=dataclasses.replace(spec, **{field: h}))
                    return op(gs.Graph(g.vertices, ctx, ectx), batch)
                seen = []

                def counted(*args):
                    seen.append(args)
                    return f(*args)
                settle(run(counted))
                assert seen
                for k in range(1, len(seen) + 1):
                    with pytest.raises(_CallbackFault):
                        run(_failing(f, k))
                    settle()
    bt.set_threads(1)
    assert vcodec.failed_writes and ecodec.failed_writes
    # the sweep failed the edge sets' in-place edits too
    assert ecodec.edits
    bt.release(g.vertices)


class _WrappedDelta(DeltaCodec):
    """A delta codec whose block reads and writes wrap the class's own and
    log their names, as a tracer's subclass of a context's codec does."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.log = []

    def columns(self, payload, count):
        self.log.append("columns")
        return super().columns(payload, count)

    def encode_columns(self, keys, values=None):
        self.log.append("encode_columns")
        return super().encode_columns(keys, values)

    def edit_keys(self, payload, count, first, last, keys, insert):
        self.log.append("edit_keys")
        return super().edit_keys(payload, count, first, last, keys, insert)


def _set_updates(ctx, t):
    """One- and two-id updates of delta set t, each meeting one block: an
    insert of an absent id, of two, of a present one, deletes of a present
    and of an absent id, and a union with a one-id set."""
    block = max(_blocks(t), key=lambda b: b.count)
    ks = ctx.codec.columns(block.payload, block.count)[0]
    mid, top = ks[len(ks) // 2], bt.core.last_key(ctx, t)
    one = ordmap.build(ctx, [(mid + 1, None)])
    return [lambda: ordmap.multi_insert(ctx, t, [(mid + 1, None)]),
            lambda: ordmap.multi_insert(ctx, t, [(mid + 1, None),
                                                 (mid + 2, None)]),
            lambda: ordmap.multi_insert(ctx, t, [(mid, None)]),
            lambda: ordmap.multi_insert(ctx, t, [(top + 5, None)]),
            lambda: ordmap.multi_delete(ctx, t, [mid]),
            lambda: ordmap.multi_delete(ctx, t, [mid + 1]),
            lambda: ordmap.union(ctx, t, one)], one


@pytest.mark.parametrize("n", [40, 2000])
def test_set_block_edit_counts_as_the_column_merge(n, monkeypatch):
    # an update that meets one block of a delta set (the whole set, or one
    # block under regular nodes) counts one decode, and one fold where it
    # changes the block, whether the block is edited in place or read and
    # written as columns; the results agree, and a subclass that wraps the
    # codec's methods takes the same path with the same counts
    runs, edits = {}, ordmap._EDIT
    for cls, edit in ((DeltaCodec, edits), (_WrappedDelta, edits),
                      (_WrappedDelta, 0)):
        monkeypatch.setattr(ordmap, "_EDIT", edit)
        ctx = make_context(block_size=64, encoding=cls(value_width=0))
        t = ordmap.build(ctx, [(k, None) for k in range(0, 300 * n, 300)])
        updates, one = _set_updates(ctx, t)
        seen = []
        for update in updates:
            log = getattr(ctx.codec, "log", [])
            log.clear()
            d0, f0, a0 = counters.decodes, counters.folds, counters.allocations
            r = update()
            counts = (counters.decodes - d0, counters.folds - f0,
                      counters.allocations - a0)
            if cls is _WrappedDelta:
                # edited in place: no block written from columns
                assert log.count("edit_keys") == (edit > 0), log
                assert ("encode_columns" in log) == (not edit
                                                     and counts[1] > 0), log
            seen.append((*counts, bt.to_list(ctx, r), r is t))
            check_tree(ctx, r)
            bt.release(r)
        runs[cls, edit] = seen
        bt.release(one)
        bt.release(t)
    edited = runs[DeltaCodec, edits]
    assert edited == runs[_WrappedDelta, edits] == runs[_WrappedDelta, 0]
    # one decode each (and one of the one-id set a union reads as its run),
    # and one fold for each update that changes the set
    assert [(d, f) for d, f, *_ in edited] == [(1, 1), (1, 1), (1, 0), (1, 1),
                                              (1, 1), (1, 0), (2, 1)]


@pytest.mark.parametrize("B", [1, 2, 4, 8])
def test_small_runs_into_delta_set_blocks_match_the_column_merge(
        B, monkeypatch):
    # runs of 1 to 4 keys inserted into and deleted from a delta set's
    # blocks, edited in place where the result is one block of B..2B
    # entries (1..2B at the root), fill blocks to 2B and beyond and empty
    # them to B and below: each result is the tree the column merge builds,
    # byte for byte, at the same decode, fold and allocation counts, with
    # the model's keys, and its input is left as it was.  A delete key may
    # be a float or a Decimal that only equals a stored int
    from decimal import Decimal
    rng = random.Random(B)
    ctx = make_context(block_size=B, encoding=_WrappedDelta(value_width=0))
    model = set(range(0, 40 * B, 3))
    live, edits = counters.live, ordmap._EDIT
    t = ordmap.build(ctx, [(k, None) for k in model])
    for _ in range(300):
        lo = rng.randrange(40 * B)
        ks = rng.sample(range(lo, lo + 8), rng.randint(1, 4))
        insert = rng.random() < 0.5
        gone = [rng.choice((int, float, Decimal))(k) for k in ks]
        before = structure_digest(ctx, t)
        seen = []
        for edit in (edits, 0):
            monkeypatch.setattr(ordmap, "_EDIT", edit)
            c0 = counters.decodes, counters.folds, counters.allocations
            r = (ordmap.multi_insert(ctx, t, [(k, None) for k in ks])
                 if insert else ordmap.multi_delete(ctx, t, gone))
            seen.append((counters.decodes - c0[0], counters.folds - c0[1],
                         counters.allocations - c0[2],
                         structure_digest(ctx, r)))
            if edit:
                result = r
            else:
                bt.release(r)
        assert seen[0] == seen[1]
        model = model | set(ks) if insert else model - set(ks)
        assert structure_digest(ctx, t) == before
        check_tree(ctx, result)
        assert bt.core.keys(ctx, result) == sorted(model)
        bt.release(t)
        t = result
    # some runs were edited in place, and some met blocks they could not be
    assert {"edit_keys", "encode_columns"} <= set(ctx.codec.log)
    bt.release(t)
    assert counters.live == live


def test_delta_set_union_calls_combine_on_every_hit(monkeypatch):
    # a union or multi_insert with its own combine calls it on every key it
    # hits, as the column merge does, and one that raises leaves the inputs
    # intact and no node behind; a run that carries values is merged as
    # columns too, so a present key stores its new value as it does there
    results = []
    for edit in (ordmap._EDIT, 0):   # evaluated once, before the patch
        monkeypatch.setattr(ordmap, "_EDIT", edit)
        ctx = make_context(block_size=8, encoding=DeltaCodec(value_width=0))
        t = ordmap.build(ctx, [(k, None) for k in range(0, 600, 3)])
        small = ordmap.build(ctx, [(3, None), (4, None)])
        calls = []

        def combine(a, b):
            calls.append((a, b))
            return b
        got = []
        for op in (lambda f: ordmap.union(ctx, t, small, f),
                   lambda f: ordmap.multi_insert(ctx, t, [(300, None),
                                                          (301, None)], f),
                   lambda f: ordmap.multi_insert(ctx, t, [(300, 5)])):
            calls.clear()
            f0 = counters.folds
            r = op(combine)
            got.append((list(calls), counters.folds - f0, bt.to_list(ctx, r)))
            bt.release(r)
        results.append(got)
        assert [c for c, *_ in got[:2]] == [[(None, None)], [(None, None)]]

        def boom(a, b):
            raise _CallbackFault
        digests = structure_digest(ctx, t), structure_digest(ctx, small)
        live = counters.live
        for op in (lambda: ordmap.union(ctx, t, small, boom),
                   lambda: ordmap.multi_insert(ctx, t, [(300, None)], boom)):
            with pytest.raises(_CallbackFault):
                op()
            assert counters.live == live
            assert (structure_digest(ctx, t),
                    structure_digest(ctx, small)) == digests
        bt.release(small)
        bt.release(t)
    assert results[0] == results[1]


def test_point_queries_random_vs_model():
    rng = random.Random(7)
    for B in (1, 8, 128):
        for enc in ("identity", "delta"):
            ctx = make_context(block_size=B, encoding=enc)
            ks = rng.sample(range(5000), 700)
            t = ordmap.build(ctx, KV(ks))
            m = MapModel(KV(ks))
            for _ in range(300):
                q = rng.randrange(5200)
                assert ordmap.find(ctx, t, q) == m.d.get(q)
                assert ordmap.rank(ctx, t, q) == m.rank(q)
                assert ordmap.next_entry(ctx, t, q) == m.next_entry(q)
                assert ordmap.previous_entry(ctx, t, q) == m.previous_entry(q)


def test_identity_point_reads_decode_no_block():
    ctx = make_context(block_size=32, encoding="identity")
    t = ordmap.build(ctx, KV(range(0, 4000, 3)))
    before = counters.decodes
    for q in range(0, 4000, 7):
        ordmap.find(ctx, t, q)
        ordmap.rank(ctx, t, q)
        ordmap.next_entry(ctx, t, q)
        ordmap.previous_entry(ctx, t, q)
    assert counters.decodes == before
    block = ordmap.build(ctx, KV(range(0, 120, 3)))
    assert type(block) is Flat
    before = counters.decodes
    assert ordmap.remove(ctx, block, 4) is block    # absent key: no decode
    assert counters.decodes == before
    bt.release(block)
    bt.release(block)
    # the delta codec has no in-place search: each block read decodes
    dctx = make_context(block_size=32, encoding="delta")
    d = ordmap.build(dctx, KV(range(0, 4000, 3)))
    before = counters.decodes
    for q in range(0, 4000, 7):
        ordmap.find(dctx, d, q)
    assert counters.decodes > before
    bt.release(t)
    bt.release(d)


def test_insert_codec_error_consumes_nothing():
    ctx = make_context(block_size=8, encoding="identity")
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(200)))
    digest = structure_digest(ctx, t)
    for _ in range(3):
        with pytest.raises(CodecError):
            ordmap.insert(ctx, t, 101, None)
    assert structure_digest(ctx, t) == digest
    check_tree(ctx, t)
    bt.release(t)
    assert counters.live == baseline


def test_insert_combine_result_checked_by_codec():
    # key 24 sits in a regular node: the value combine returns must still
    # pass the codec check, and combine runs once, as (existing, incoming)
    ctx = make_context(block_size=8, encoding="identity")
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(0, 400, 2)))
    digest = structure_digest(ctx, t)
    calls = []

    def negative(a, b):
        calls.append((a, b))
        return -1

    with pytest.raises(CodecError):
        ordmap.insert(ctx, t, 24, 1, combine=negative)
    assert calls == [(241, 1)]
    assert ordmap.find(ctx, t, 24) == 241
    assert structure_digest(ctx, t) == digest
    summed = ordmap.insert(ctx, t, 24, 5, combine=lambda a, b: a + b)
    assert ordmap.find(ctx, summed, 24) == 246
    check_tree(ctx, summed)
    bt.release(summed)
    bt.release(t)
    assert counters.live == baseline


def test_insert_with_combine_takes_one_walk():
    # combine runs where the walk finds the key: on a delta map, whose
    # blocks are not searched in place, an insert over a present key in a
    # block decodes that block once, and one at a regular node decodes
    # nothing; a miss calls no combine
    ctx = make_context(block_size=8, encoding="delta")
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(0, 400, 2)))
    calls = []

    def add(a, b):
        calls.append((a, b))
        return a + b

    in_block = next(_blocks(t)).first_key + 2
    for k, decodes in ((in_block, 1), (t.key, 0), (in_block + 1, 1)):
        calls.clear()
        d0 = counters.decodes
        r = ordmap.insert(ctx, t, k, 5, combine=add)
        assert counters.decodes - d0 == decodes
        old = ordmap.find(ctx, t, k)
        assert calls == ([] if old is None else [(old, 5)])
        assert ordmap.find(ctx, r, k) == (5 if old is None else old + 5)
        check_tree(ctx, r)
        bt.release(r)
    bt.release(t)
    assert counters.live == baseline


def test_insert_combine_failure_consumes_nothing():
    # key 0 sits in a block: a combine that raises, or one whose result
    # the codec rejects, leaves the input intact and takes no handle
    ctx = make_context(block_size=8, encoding="identity")
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(0, 400, 2)))
    digest = structure_digest(ctx, t)
    calls = []

    def divide(a, b):
        calls.append((a, b))
        return a // 0

    def negative(a, b):
        calls.append((a, b))
        return -1

    with pytest.raises(ZeroDivisionError):
        ordmap.insert(ctx, t, 0, 7, combine=divide)
    with pytest.raises(CodecError):
        ordmap.insert(ctx, t, 0, 7, combine=negative)
    assert calls == [(1, 7), (1, 7)]
    assert structure_digest(ctx, t) == digest
    check_tree(ctx, t)
    bt.release(t)
    assert counters.live == baseline


def test_set_combine_result_is_checked_where_stored():
    # at B=8, the root key of 200 entries sits in a regular node, and the
    # recursion keeps its combined entry in one: a result the codec
    # rejects must raise there, not wait for a later fold to meet it, and
    # leaves no node live once the inputs are released
    ctx = make_context(block_size=8, encoding="identity")
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(0, 400, 2)))
    assert type(t) is not Flat
    root = KV([t.key])
    other = ordmap.build(ctx, root)
    digests = structure_digest(ctx, t), structure_digest(ctx, other)
    negative = lambda a, b: -1
    for op in (lambda: ordmap.union(ctx, t, other, negative),
               lambda: ordmap.intersection(ctx, t, other, negative),
               lambda: ordmap.multi_insert(ctx, t, root, negative)):
        with pytest.raises(CodecError):
            op()
        assert (structure_digest(ctx, t),
                structure_digest(ctx, other)) == digests
    check_tree(ctx, t)
    bt.release(t)
    bt.release(other)
    # a result rejected on any call k, also one that an entry run of a
    # sparse intersection carries to the block it is encoded in
    for B in (2, 8):
        c = make_context(block_size=B, encoding="identity")
        t1 = ordmap.build(c, KV(range(0, 600, 2)))
        t2 = ordmap.build(c, KV(range(0, 600, 7)))
        live = counters.live
        for op in (ordmap.intersection, ordmap.union):
            for k in range(1, 44):      # the 43 shared keys: 0, 14, .., 588
                calls = itertools.count(1)
                with pytest.raises(CodecError):
                    op(c, t1, t2, lambda a, b: -1 if next(calls) == k else b)
                assert counters.live == live, (B, k)
        bt.release(t1)
        bt.release(t2)
    assert counters.live == baseline


def _codec_cost(fn):
    d0, f0 = counters.decodes, counters.folds
    out = fn()
    return out, counters.decodes - d0, counters.folds - f0


def test_point_update_codec_budget():
    # a point update that stays inside its block builds only that block;
    # its sibling block is shared by the old and new versions.  Both codecs
    # search and splice a block in place, so neither a read nor an in-block
    # insert, overwrite or remove decodes anything
    for encoding in ("identity", "object"):
        ctx = make_context(block_size=128, encoding=encoding)
        t = ordmap.build(ctx, KV(range(0, 2000, 2)))   # four blocks of ~250
        leaf_parent = t.left
        assert type(leaf_parent.left) is type(leaf_parent.right) is Flat
        sibling = leaf_parent.right
        found, decodes, folds = _codec_cost(
            lambda: (ordmap.find(ctx, t, 14), ordmap.contains(ctx, t, 15)))
        assert (found, decodes, folds) == ((141, False), 0, 0)
        for update in (lambda: ordmap.insert(ctx, t, 11, 0),      # new key
                       lambda: ordmap.insert(ctx, t, 12, 0),      # overwrite
                       lambda: ordmap.remove(ctx, t, 14)):        # present key
            t2, decodes, folds = _codec_cost(update)
            assert (decodes, folds) == (0, 1)
            assert t2.left.right is sibling
            check_tree(ctx, t2)
            bt.release(t2)
        t2, decodes, folds = _codec_cost(lambda: ordmap.remove(ctx, t, 13))
        assert (decodes, folds) == (0, 0)
        bt.release(t2)
        bt.release(t)

    ctx = make_context(block_size=128, encoding="identity")
    rng = random.Random(12)
    span = 10 ** 5
    t = ordmap.build(ctx, KV(rng.sample(range(span), 20000)))
    decodes = folds = 0
    n = 2000
    for _ in range(n):
        k = rng.randrange(span)
        if rng.random() < 0.5:
            t2, d, f = _codec_cost(lambda: ordmap.insert(ctx, t, k, 0))
        else:
            t2, d, f = _codec_cost(lambda: ordmap.remove(ctx, t, k))
        decodes += d
        folds += f
        bt.release(t)
        t = t2
    check_tree(ctx, t)
    bt.release(t)
    assert decodes / n <= 1.1 and folds / n <= 1.1, (decodes / n, folds / n)


def test_point_update_path_copy_rebuilds_nothing(monkeypatch):
    # an insert or a present-key remove that stays inside its block copies
    # the regular nodes on its search path and re-encodes that one block:
    # every other node is shared, and no join flattens a pair of children
    # back into entries (core._entries, the rebuild of _node)
    from blocktree import core
    rebuilds = []
    entries = core._entries
    monkeypatch.setattr(core, "_entries",
                        lambda *a: rebuilds.append(1) or entries(*a))
    B = 128
    ctx = make_context(block_size=B, encoding="identity")
    t = ordmap.build(ctx, KV(range(0, 2 * 10 ** 5, 2)))

    def path(k):
        """(regular nodes on the search path of k, the block it ends in),
        or None where k is a regular node's key"""
        n, x = 0, t
        while type(x) is not Flat:
            if k == x.key:
                return None
            n, x = n + 1, (x.left if k < x.key else x.right)
        return n, x

    rng = random.Random(17)
    done = {"insert": 0, "remove": 0}
    for k in rng.sample(range(2 * 10 ** 5), 60):
        if path(k) is None:
            continue
        depth, block = path(k)
        if k % 2 == 0 and block.count > B:          # present: in its block
            kind, update = "remove", lambda: ordmap.remove(ctx, t, k)
        elif k % 2 == 1 and block.count < 2 * B:    # new: the block has room
            kind, update = "insert", lambda: ordmap.insert(ctx, t, k, 0)
        else:
            continue
        a0, live = counters.allocations, counters.live
        t2 = update()
        assert counters.allocations - a0 == depth + 1, (kind, k)
        assert counters.live - live == depth + 1, (kind, k)
        assert rebuilds == [], (kind, k)
        check_tree(ctx, t2)
        bt.release(t2)
        done[kind] += 1
    bt.release(t)
    assert min(done.values()) >= 10, done


def test_point_update_overflow_links_beside_its_sibling(monkeypatch):
    # an insert into a full block splits it into two blocks, and the leaf
    # rule links them beside their sibling block: no decode (the two new
    # blocks are slices of the spliced payload), the two new blocks, a
    # regular node over them and a new root; nothing is flattened back
    # into entries (core._entries, the rebuild of _node)
    from blocktree import core
    rebuilds = []
    entries = core._entries
    monkeypatch.setattr(core, "_entries",
                        lambda *a: rebuilds.append(1) or entries(*a))
    B = 128
    ctx = make_context(block_size=B, encoding="identity")
    full = ordmap.build(ctx, KV(range(0, 4 * B, 2)))
    sibling = ordmap.build(ctx, KV(range(4 * B + 2, 6 * B + 2, 2)))
    t = bt.join(ctx, full, (4 * B, 0), sibling)
    assert (t.left.count, t.right.count) == (2 * B, B)
    d0, f0, a0 = counters.decodes, counters.folds, counters.allocations
    t2 = ordmap.insert(ctx, t, 1, 0)
    assert (counters.decodes - d0, counters.folds - f0,
            counters.allocations - a0) == (0, 2, 4)
    assert rebuilds == []
    check_tree(ctx, t2)
    assert bt.to_list(ctx, t2) == sorted(bt.to_list(ctx, t) + [(1, 0)])
    for x in (full, sibling, t, t2):
        bt.release(x)


# the ids keep the "-pure" suffix of the ownership mode they once named
# (public operations borrow their inputs), so case ids stay comparable
# across versions
_PURE_IDS = lambda e: f"{e}-pure"


@pytest.mark.parametrize("encoding", ["identity", "delta", "object"],
                         ids=_PURE_IDS)
def test_absent_remove_returns_its_input(encoding):
    # remove is one walk.  A miss copies no path (no node allocated or
    # reused, nothing encoded) and returns its input; it decodes only a
    # delta block whose bounds hold the key, since identity and object
    # search in place.  A hit in a block decodes that block alone on delta.
    in_block = 1 if encoding == "delta" else 0
    for B in (8, 128):
        ctx = make_context(block_size=B, encoding=encoding)
        n = 160 * B
        t = ordmap.build(ctx, KV(range(0, n, 2)))
        node = t
        while type(node.left) is not Flat:
            node = node.left
        block = node.left
        assert block.count > B                # a hit leaves it whole
        between = block.last_key + 1          # past its block, below node
        assert between < node.key
        baseline = counters.live
        digest = structure_digest(ctx, t)
        # below every key, between two blocks and a node on either side,
        # above every key, and in a block's range
        for k, decodes in ((-1, 0), (between, 0), (node.key + 1, 0),
                           (n + 1, 0), (block.first_key + 1, in_block)):
            c0 = counters.snapshot()
            t2 = ordmap.remove(ctx, t, k)
            c1 = counters.snapshot()
            assert t2 is t
            assert tuple(c1[c] - c0[c] for c in ("allocations", "reused",
                                                  "folds", "decodes")) == (
                0, 0, 0, decodes), k
            bt.release(t2)                    # remove retained t
        assert counters.live == baseline
        k = block.first_key + 2
        d0 = counters.decodes
        t2 = ordmap.remove(ctx, t, k)
        assert counters.decodes - d0 == in_block
        assert bt.to_list(ctx, t2) == [e for e in KV(range(0, n, 2))
                                       if e[0] != k]
        check_tree(ctx, t2)
        bt.release(t2)
        assert counters.live == baseline
        assert structure_digest(ctx, t) == digest
        check_tree(ctx, t)
        bt.release(t)
    # an unfolded block comes back folded: a miss decodes nothing and
    # builds the one block of its entries
    ctx = make_context(block_size=8, encoding=encoding)
    b = ordmap.build(ctx, KV(range(0, 20, 2)))
    u = bt.unfold(ctx, b)
    baseline = counters.live
    for k in (-1, 5, 6, 18, 19):
        c0 = counters.snapshot()
        r = ordmap.remove(ctx, u, k)
        c1 = counters.snapshot()
        if k % 2:
            assert tuple(c1[c] - c0[c] for c in ("decodes", "folds",
                                                  "allocations")) == (0, 1, 1)
        assert type(r) is Flat
        assert bt.to_list(ctx, r) == [e for e in KV(range(0, 20, 2))
                                      if e[0] != k]
        bt.release(r)
    assert counters.live == baseline
    assert bt.to_list(ctx, u) == KV(range(0, 20, 2))
    bt.release(u)
    bt.release(b)


@pytest.mark.parametrize("encoding", ["identity", "delta", "object"],
                         ids=_PURE_IDS)
def test_point_updates_random_vs_model(encoding):
    # passed-through sibling blocks are shared between versions: every
    # kept snapshot must stay intact
    rng = random.Random(13)
    add = lambda a, b: a + b
    baseline = counters.live
    for B in (1, 2, 3, 8, 128):
        ctx = make_context(block_size=B, encoding=encoding)
        span = 12 * B + 400
        base = KV(rng.sample(range(span), 4 * B + 60))
        t = ordmap.build(ctx, base)
        model = MapModel(base)
        snapshots = []
        for step in range(200):
            if step % 15 == 0:
                snapshots.append((bt.retain(t), structure_digest(ctx, t),
                                  model.items()))
            k = rng.randrange(span)
            r = rng.random()
            if r < 0.45:
                v = rng.randrange(1000)
                combine = add if r < 0.15 else ordmap._RIGHT
                t2 = ordmap.insert(ctx, t, k, v, combine)
                model = model.insert(k, v, combine)
            else:
                if r < 0.9 and model.d:
                    k = rng.choice(list(model.d))
                t2 = ordmap.remove(ctx, t, k)
                model = model.remove(k)
            bt.release(t)
            t = t2
            check_tree(ctx, t)
            assert bt.to_list(ctx, t) == model.items()
        for snap, digest, snap_items in snapshots:
            assert structure_digest(ctx, snap) == digest
            assert bt.to_list(ctx, snap) == snap_items
            bt.release(snap)
        bt.release(t)
    assert counters.live == baseline
    assert counters.reused == 0


@pytest.mark.parametrize("encoding", ["identity", "delta"])
def test_multi_insert_codec_error_consumes_nothing(encoding):
    ctx = make_context(block_size=8, encoding=encoding)
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(200)))
    digest = structure_digest(ctx, t)
    for _ in range(3):
        with pytest.raises(CodecError):
            ordmap.multi_insert(ctx, t, [(5, 1), (101, None), (300, 2)])
    assert structure_digest(ctx, t) == digest
    check_tree(ctx, t)
    bt.release(t)
    assert counters.live == baseline


def test_persistence_snapshots_after_bulk_ops():
    rng = random.Random(8)
    ctx = make_context(block_size=4, encoding="identity")
    a = ordmap.build(ctx, KV(rng.sample(range(4000), 900)))
    b = ordmap.build(ctx, KV(rng.sample(range(4000), 700)))
    da, db = structure_digest(ctx, a), structure_digest(ctx, b)
    ordmap.union(ctx, a, b)
    ordmap.intersection(ctx, a, b)
    ordmap.difference(ctx, a, b)
    ordmap.union_efficient(ctx, a, b)
    ordmap.multi_insert(ctx, a, KV(range(0, 5000, 7)))
    ordmap.multi_delete(ctx, a, list(range(0, 5000, 3)))
    ordmap.filter(ctx, a, lambda e: e[0] % 2 == 0)
    ordmap.key_range(ctx, a, 100, 3000)
    ordmap.insert(ctx, a, 4444, 0)
    ordmap.remove(ctx, a, next(iter(k for k, _ in bt.to_list(ctx, a))))
    assert structure_digest(ctx, a) == da
    assert structure_digest(ctx, b) == db


def test_parallel_matches_sequential():
    rng = random.Random(9)
    ctx = make_context(block_size=16, encoding="identity")
    a = ordmap.build(ctx, KV(rng.sample(range(10 ** 5), 15000)))
    b = ordmap.build(ctx, KV(rng.sample(range(10 ** 5), 12000)))
    res1 = {}
    bt.set_threads(1)
    res1["u"] = structure_digest(ctx, ordmap.union(ctx, a, b))
    res1["i"] = structure_digest(ctx, ordmap.intersection(ctx, a, b))
    res1["d"] = structure_digest(ctx, ordmap.difference(ctx, a, b))
    bt.set_threads(4)
    assert structure_digest(ctx, ordmap.union(ctx, a, b)) == res1["u"]
    assert structure_digest(ctx, ordmap.intersection(ctx, a, b)) == res1["i"]
    assert structure_digest(ctx, ordmap.difference(ctx, a, b)) == res1["d"]
    bt.set_threads(1)


class _NoSpliceIdentity(bt.IdentityCodec):
    def splice(self, payload, count, i, j, entries):
        return None


class _NoSpliceObject(bt.ObjectCodec):
    def splice(self, payload, count, i, j, entries):
        return None


def _leaf_count(t, k):
    """Entries of the block a point update of key k reaches in t."""
    while t is not None and type(t) is not Flat:
        if k == t.key:
            return None
        t = t.left if k < t.key else t.right
    return t and t.count


@pytest.mark.parametrize("B", [1, 2, 3, 8, 128])
@pytest.mark.parametrize("codecs", [
    ("identity", lambda cls: cls(8, 8)), ("identity-keys", lambda cls: cls(8, 0)),
    ("identity-3", lambda cls: cls(3, 0)), ("object", None)], ids=lambda c: c[0])
def test_block_splice_matches_decode_and_rebuild(B, codecs):
    # the same point updates on a codec that splices blocks in place and on
    # one that declines (decode, edit and re-encode) give the same trees,
    # byte for byte: edits at a block's first and last position (its
    # cached bounds), overflows of a full block and underflows below B
    name, make = codecs
    if make is None:
        fast, slow = bt.ObjectCodec(), _NoSpliceObject()
    else:
        fast, slow = make(bt.IdentityCodec), make(_NoSpliceIdentity)
    ctxs = [make_context(block_size=B, encoding=c) for c in (fast, slow)]
    values = fast.value_width if isinstance(fast, bt.IdentityCodec) else 1
    rng = random.Random(B)
    value = lambda: rng.randrange(1000) if values else None
    baseline = counters.live
    keys = set(range(100, 100 + 24 * B, 4))
    trees = [ordmap.build(ctx, [(k, 0 if values else None) for k in keys])
             for ctx in ctxs]
    seen = {"overflow": 0, "underflow": 0}
    window = range(100, 100 + 8 * B)          # the first few blocks
    steps = 40 * B if B < 100 else 1200
    for step in range(steps):
        # fill the first blocks until they overflow, then empty them until
        # they underflow; every 50 steps, edit the first and last entries
        insert = rng.random() < (0.8 if step < steps // 2 else 0.2)
        k = rng.choice(window)
        if step % 50 < 4:
            insert = step % 50 < 2
            k = (min(keys) - 1, max(keys) + 1, min(keys), max(keys))[step % 50]
        elif not insert:
            inside = sorted(keys.intersection(window))
            k = rng.choice(inside or sorted(keys))
        if not insert and len(keys) == 1:
            insert, k = True, max(keys) + 1
        n = _leaf_count(trees[0], k)
        if insert and k not in keys and n == 2 * B:
            seen["overflow"] += 1
        if not insert and n == B:
            seen["underflow"] += 1
        v = value()
        new = [ordmap.insert(ctx, t, k, v) if insert else ordmap.remove(ctx, t, k)
               for ctx, t in zip(ctxs, trees)]
        (keys.add if insert else keys.discard)(k)
        assert structure_digest(ctxs[0], new[0]) == structure_digest(ctxs[1], new[1])
        for ctx, t in zip(ctxs, new):
            check_tree(ctx, t)
        for t in trees:
            bt.release(t)
        trees = new
    assert [k for k, _ in bt.to_list(ctxs[0], trees[0])] == sorted(keys)
    assert seen["overflow"] and seen["underflow"], seen
    for t in trees:
        bt.release(t)
    assert counters.live == baseline


@pytest.mark.parametrize("encoding", ["identity", "object"])
def test_point_update_of_a_damaged_block_raises(encoding):
    # a block whose payload does not hold ``count`` entries is caught by the
    # in-place search before any splice; the input is left as it was and
    # no node stays live.  An entry the codec rejects fails its check
    # before any node is built.
    from blocktree.errors import CorruptionError
    ctx = make_context(block_size=8, encoding=encoding)
    t = ordmap.build(ctx, KV(range(0, 200, 2)))
    digest = structure_digest(ctx, t)
    block = t
    while type(block) is not Flat:
        block = block.left
    good = block.payload
    live = counters.live
    for bad in (good[:-1], good + good[:1]):
        block.payload = bad
        for update in (lambda: ordmap.insert(ctx, t, 1, 0),
                       lambda: ordmap.insert(ctx, t, 2, 0),
                       lambda: ordmap.remove(ctx, t, 2)):
            with pytest.raises(CorruptionError):
                update()
            assert counters.live == live
    block.payload = good
    assert structure_digest(ctx, t) == digest
    check_tree(ctx, t)
    if encoding == "identity":
        a0 = counters.allocations
        for k, v in ((-1, 0), (1, 2 ** 64), (2, True)):
            with pytest.raises(CodecError):
                ordmap.insert(ctx, t, k, v)
        assert (counters.allocations, counters.live) == (a0, live)
    bt.release(t)

    # a remove that underflows its block splices it into its sibling,
    # whose damage the search of the spliced payload catches
    full = ordmap.build(ctx, KV(range(0, 32, 2)))
    sibling = ordmap.build(ctx, KV(range(34, 50, 2)))
    t = bt.join(ctx, full, (32, 0), sibling)
    assert (t.left.count, t.right.count) == (16, 8)
    good = t.left.payload
    t.left.payload = good[:-1]
    live = counters.live
    with pytest.raises(CorruptionError):
        ordmap.remove(ctx, t, 34)
    assert counters.live == live
    t.left.payload = good
    for x in (full, sibling, t):
        bt.release(x)


def test_merge_with_no_hit_shares_its_input():
    # a bulk delete whose keys all miss builds nothing: every block and
    # node the run reaches without a hit is shared, and so is the root
    from blocktree import graphstore as gs
    ctx = make_context(block_size=128, encoding="delta")
    t = ordmap.build(ctx, KV(range(0, 2 * 10 ** 5, 2)))
    f0, a0 = counters.folds, counters.allocations
    t2 = ordmap.multi_delete(ctx, t, range(1, 2 * 10 ** 5, 2000))
    assert (counters.folds - f0, counters.allocations - a0) == (0, 0)
    assert t2 is t
    bt.release(t2)
    bt.release(t)

    rng = random.Random(3)
    g = gs.from_edge_list([(rng.randrange(20000), rng.randrange(20000))
                           for _ in range(20000)])
    f0, a0 = counters.folds, counters.allocations
    g2 = gs.delete_edges(g, [(20000 + i, i) for i in range(100)])
    assert (counters.folds - f0, counters.allocations - a0) == (0, 0)
    assert g2.vertices is g.vertices


@pytest.mark.parametrize("encoding", ["identity", "delta", "object"])
def test_union_that_adds_and_changes_nothing_shares_its_input(encoding):
    # a multi_insert of present keys whose combine returns the stored value
    # object itself adds no key and changes no entry: the result is the
    # input, every block its own, and nothing is built.  One absent key
    # re-encodes only the block it lands in
    keep = lambda old, new: old
    for B in (2, 8, 64):
        ctx = make_context(block_size=B, encoding=encoding)
        t = ordmap.build(ctx, KV(range(0, 60 * B, 3)))
        blocks = {id(b) for b in _blocks(t)}
        batch = KV(range(0, 60 * B, 21))
        f0, a0 = counters.folds, counters.allocations
        r = ordmap.multi_insert(ctx, t, batch, keep)
        assert (counters.folds - f0, counters.allocations - a0) == (0, 0)
        assert r is t and {id(b) for b in _blocks(r)} == blocks
        bt.release(r)
        r = ordmap.multi_insert(ctx, t, batch + [(30 * B + 1, 7)], keep)
        assert len(blocks - {id(b) for b in _blocks(r)}) == 1
        assert ordmap.find(ctx, r, 30 * B + 1) == 7
        check_tree(ctx, r)
        bt.release(r)
        bt.release(t)


# The codecs a block merge reads as columns, each column parsed by one
# struct call (identity at struct widths), by a loop (delta, identity at
# the other widths) or stored as a tuple (object), each with the value it
# stores at key k (None for a set).
MERGE_CODECS = {
    "identity8/8": (lambda: IdentityCodec(8, 8), lambda k: k % 997 + 1),
    "identity8/0": (lambda: IdentityCodec(8, 0), lambda k: None),
    "identity3/3": (lambda: IdentityCodec(3, 3), lambda k: k % 997 + 1),
    "delta8": (lambda: DeltaCodec(value_width=8), lambda k: k % 997 + 1),
    "delta0": (lambda: DeltaCodec(value_width=0), lambda k: None),
    "object": (ObjectCodec, lambda k: k % 997 + 1),
}
# (tree entries, run entries): run-to-block ratios 1:100, 1:10, 1:1, 4:1
MERGE_SIZES = [(2000, 20), (600, 60), (300, 300), (100, 400)]


def _keep_or_bump(a, b):
    """A combine that returns the stored value object itself for some
    keys and a new value for the others."""
    return a if b is None or b % 3 == 0 else b + 1


def _bump(v):
    return None if v is None else v + 1


@pytest.mark.parametrize("B", [1, 2, 8, 128])
@pytest.mark.parametrize("name", sorted(MERGE_CODECS))
def test_bulk_ops_match_dict_oracle_across_merge_shapes(name, B):
    # every bulk op at every run-to-block ratio, on every codec: the
    # galloping and the walking merge, blocks written from columns, runs
    # zipped below B and results cut above 2B
    make, val = MERGE_CODECS[name]
    ctx = Context(Config(block_size=B), make())
    rng = random.Random(B)
    baseline = counters.live
    for n, m in MERGE_SIZES:
        space = 4 * (n + m)
        a = {k: val(k) for k in rng.sample(range(space), n)}
        hits = rng.sample(sorted(a), min(n, m) // 2)
        b = {k: val(k + 1) for k in hits + rng.sample(range(space), m)}
        t, o = ordmap.build(ctx, a.items()), ordmap.build(ctx, b.items())
        both = a.keys() & b.keys()
        union = {**a, **b}
        union.update((k, _keep_or_bump(a[k], b[k])) for k in both)
        gone = set(b)
        cases = [
            (lambda: ordmap.union(ctx, t, o, _keep_or_bump), union),
            (lambda: ordmap.intersection(ctx, t, o, _keep_or_bump),
             {k: _keep_or_bump(a[k], b[k]) for k in both}),
            (lambda: ordmap.difference(ctx, t, o),
             {k: v for k, v in a.items() if k not in b}),
            (lambda: ordmap.multi_insert(ctx, t, b.items(), _keep_or_bump),
             union),
            (lambda: ordmap.multi_delete(ctx, t, gone),
             {k: v for k, v in a.items() if k not in gone}),
            (lambda: ordmap.map_values(ctx, t, _bump),
             {k: _bump(v) for k, v in a.items()}),
        ]
        for op, want in cases:
            r = op()
            assert bt.to_list(ctx, r) == sorted(want.items()), (n, m)
            check_tree(ctx, r)
            bt.release(r)
        assert bt.to_list(ctx, t) == sorted(a.items())
        bt.release(t)
        bt.release(o)
    assert counters.live == baseline


@pytest.mark.parametrize("name", sorted(MERGE_CODECS))
def test_short_run_into_one_block_decodes_and_folds_it_once(name):
    make, val = MERGE_CODECS[name]
    ctx = Context(Config(block_size=128), make())
    t = ordmap.build(ctx, [(k, val(k)) for k in range(0, 20000, 2)])
    lo = next(_blocks(t)).first_key
    d0, f0 = counters.decodes, counters.folds
    t2 = ordmap.multi_insert(ctx, t, [(lo + 1, val(1)), (lo + 3, val(3))])
    assert (counters.decodes - d0, counters.folds - f0) == (1, 1)
    assert ordmap.find(ctx, t2, lo + 3) == val(3)
    # a delete that hits no key of the block shares it, and the tree
    d0, f0 = counters.decodes, counters.folds
    t3 = ordmap.multi_delete(ctx, t, [lo + 1, lo + 5])
    assert (counters.decodes - d0, counters.folds - f0) == (1, 0)
    assert t3 is t
    for x in (t, t2, t3):
        bt.release(x)


@pytest.mark.parametrize("encoding", ["identity", "delta"])
def test_rejected_results_raise_alike_in_blocks_and_runs(encoding):
    # a combine or f result the codec rejects raises the CodecError that
    # encode raises for it, whether it lands in a block written from the
    # merged columns, in an entry run or in a regular node.  At value
    # width 8 a delta block's value column is an array, which would store
    # True as 1 and raise no CodecError for 1.5 or 2**64: only the type and
    # width checks made where a result is made catch those.  Width 3 reads
    # and writes lists
    for vw in (8, 3):
        _rejected_results_raise_alike(
            make_context(block_size=8, encoding=encoding, value_width=vw))


def _rejected_results_raise_alike(ctx):
    vw = ctx.codec.value_width
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(0, 400, 2)))
    block = next(_blocks(t))
    assert isinstance(ctx.codec.columns(block.payload, block.count)[1],
                      array) == (ctx.codec.name == "delta" and vw == 8)
    k = block.first_key
    digest = structure_digest(ctx, t)
    one = ordmap.build(ctx, KV([k]))
    at_root = ordmap.build(ctx, KV([t.key]))
    live = counters.live
    for bad in [-1, True, 1.5, 2 ** 64] + ([2 ** 24] if vw == 3 else []):
        with pytest.raises(CodecError) as exc:
            ctx.codec.encode([(1, bad)])
        want = str(exc.value)
        reject = lambda a, b: bad
        for op in (lambda: ordmap.union(ctx, t, one, reject),           # a block
                   lambda: ordmap.intersection(ctx, t, one, reject),    # a run
                   lambda: ordmap.union(ctx, t, at_root, reject),       # a node
                   lambda: ordmap.multi_insert(ctx, t, KV([k]), reject),
                   lambda: ordmap.map_values(
                       ctx, t, lambda v: bad if v == k * 10 + 1 else v),
                   lambda: ordmap.map_values(                           # a node
                       ctx, t, lambda v: bad if v == t.value else v)):
            with pytest.raises(CodecError) as exc:
                op()
            assert str(exc.value) == want
            assert structure_digest(ctx, t) == digest
            assert counters.live == live
    for x in (t, one, at_root):
        bt.release(x)
    assert counters.live == baseline


def test_delta_keys_wider_than_the_key_width_are_rejected():
    ctx = make_context(block_size=4, encoding="delta")
    wide = 2 ** 64 + 5
    msg = f"^key {wide} out of range for 8 bytes$"
    baseline = counters.live
    t = ordmap.build(ctx, KV(range(10)))
    digest = structure_digest(ctx, t)
    live = counters.live
    # a key wider than the key width is rejected before anything is
    # built, wherever in its block it would land: stored anywhere but
    # first, it would make a later split or key_range fail to write
    for op in (lambda: ordmap.insert(ctx, t, wide, 1),
               lambda: ordmap.multi_insert(ctx, t, [(3, 1), (wide, 1)]),
               lambda: ordmap.build(ctx, KV(range(10)) + [(wide, 1)])):
        with pytest.raises(CodecError, match=msg):
            op()
        assert counters.live == live
        assert structure_digest(ctx, t) == digest
    l, e, r = bt.split(ctx, t, 9)
    assert e == (9, 91) and r is None
    assert bt.to_list(ctx, ordmap.key_range(ctx, t, 9.5, wide)) == []
    bt.release(l)
    bt.release(t)
    assert counters.live == baseline
