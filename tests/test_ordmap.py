import random

import pytest

import blocktree as bt
from blocktree import ordmap
from blocktree.core import make_context
from blocktree.counters import counters
from blocktree.errors import CodecError, ContractError
from blocktree.inspect import check_tree, count_blocks, structure_digest
from blocktree.nodes import is_flat

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
    from blocktree.nodes import is_flat
    if t is None:
        return
    if is_flat(t):
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
    # kappa base-case union: decodes <= 4 * (blocks(t1) + blocks(t2))
    rng = random.Random(5)
    for B in (8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(25):
            a = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), rng.randrange(2 * B + 1, 60 * B))))
            b = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), rng.randrange(2 * B + 1, 60 * B))))
            budget = 4 * (count_blocks(a) + count_blocks(b))
            d0 = counters.decodes
            ordmap.union(ctx, a, b)
            assert counters.decodes - d0 <= budget


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
    # duplicates folded in batch order before they meet the tree
    pair = lambda a, b: (a, b)
    rng = random.Random(10)
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="object")
        for _ in range(6):
            span = 30 * B + 300
            pa = [(k, ("a", k)) for k in rng.sample(range(span), rng.randrange(0, 20 * B + 200))]
            pb = [(k, ("b", k)) for k in rng.sample(range(span), rng.randrange(0, 20 * B + 200))]
            batch = [(rng.randrange(span), rng.randrange(100))
                     for _ in range(rng.randrange(0, 20 * B + 200))]
            a, b = ordmap.build(ctx, pa), ordmap.build(ctx, pb)
            ma, mb = MapModel(pa), MapModel(pb)
            incoming = MapModel()
            for k, v in batch:
                incoming = incoming.insert(k, v, pair)
            u = ordmap.union(ctx, a, b, pair)
            i = ordmap.intersection(ctx, a, b, pair)
            m = ordmap.multi_insert(ctx, a, batch, pair)
            assert bt.to_list(ctx, u) == ma.union(mb, pair).items()
            assert bt.to_list(ctx, i) == ma.intersection(mb, pair).items()
            assert bt.to_list(ctx, m) == ma.union(incoming, pair).items()
            for t in (u, i, m):
                check_tree(ctx, t)


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


def test_map_reduce():
    ctx = make_context(block_size=3, encoding="identity")
    assert ordmap.reduce(ctx, None, lambda a, b: a + b, 0) == 0
    t = ordmap.build(ctx, [(k, k) for k in range(16)])
    assert ordmap.reduce(ctx, t, lambda a, b: a + b, 0) == 120
    m = ordmap.map_values(ctx, t, lambda v: v * 2)
    assert ordmap.reduce(ctx, m, lambda a, b: a + b, 0) == 240
    assert [k for k, _ in bt.to_list(ctx, m)] == list(range(16))
    check_tree(ctx, m)


def test_range_rank_next_previous():
    ctx = make_context(block_size=3, encoding="identity")
    assert ordmap.key_range(ctx, None, 0, 9) is None
    t = ordmap.build(ctx, KV([2, 4, 6]))
    assert ordmap.rank(ctx, t, 5) == 2
    assert ordmap.next_entry(ctx, t, 4) == (6, 61)
    assert ordmap.previous_entry(ctx, t, 2) is None
    r = ordmap.key_range(ctx, ordmap.build(ctx, KV(range(20))), 5, 11)
    assert [k for k, _ in bt.to_list(ctx, r)] == list(range(5, 12))
    check_tree(ctx, r)


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
    assert is_flat(block)
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
    # rejects must raise there, not wait for a later fold to meet it
    ctx = make_context(block_size=8, encoding="identity")
    t = ordmap.build(ctx, KV(range(0, 400, 2)))
    assert not is_flat(t)
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


def _codec_cost(fn):
    d0, f0 = counters.decodes, counters.folds
    out = fn()
    return out, counters.decodes - d0, counters.folds - f0


def test_point_update_codec_budget():
    # a point update that stays inside its block decodes and encodes only
    # that block; its sibling block is shared by the old and new versions
    ctx = make_context(block_size=128, encoding="identity")
    t = ordmap.build(ctx, KV(range(0, 2000, 2)))   # four blocks of ~250
    leaf_parent = t.left
    assert is_flat(leaf_parent.left) and is_flat(leaf_parent.right)
    sibling = leaf_parent.right
    for update in (lambda: ordmap.insert(ctx, t, 11, 0),      # new key
                   lambda: ordmap.insert(ctx, t, 12, 0),      # overwrite
                   lambda: ordmap.remove(ctx, t, 14)):        # present key
        t2, decodes, folds = _codec_cost(update)
        assert (decodes, folds) == (1, 1)
        assert t2.left.right is sibling
        check_tree(ctx, t2)
        bt.release(t2)
    t2, decodes, folds = _codec_cost(lambda: ordmap.remove(ctx, t, 13))
    assert (decodes, folds) == (0, 0)
    bt.release(t2)
    bt.release(t)

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


# the ids keep the "-pure" suffix of the ownership mode they once named
# (public operations borrow their inputs), so case ids stay comparable
# across versions
_PURE_IDS = lambda e: f"{e}-pure"


@pytest.mark.parametrize("encoding", ["identity", "delta", "object"],
                         ids=_PURE_IDS)
def test_absent_remove_returns_its_input(encoding):
    # a miss copies no path: no node is allocated or reused, nothing encoded
    ctx = make_context(block_size=128, encoding=encoding)
    t = ordmap.build(ctx, KV(range(0, 20000, 2)))
    node = t
    while not is_flat(node.left):
        node = node.left
    between = node.left.last_key + 1          # past its block, below node
    assert between < node.key
    baseline = counters.live
    digest = structure_digest(ctx, t)
    for k in (5001, between, 20001):          # in a block's range, outside
        a0, r0, f0 = counters.allocations, counters.reused, counters.folds
        t2 = ordmap.remove(ctx, t, k)
        assert t2 is t
        assert (counters.allocations - a0, counters.reused - r0,
                counters.folds - f0) == (0, 0, 0)
        bt.release(t2)                        # remove retained t
    assert counters.live == baseline
    assert structure_digest(ctx, t) == digest
    check_tree(ctx, t)
    bt.release(t)


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
    ctx = make_context(block_size=16, encoding="identity", grain=64)
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
