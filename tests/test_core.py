import math
import random

import pytest

import blocktree as bt
from blocktree import ordmap
from blocktree.core import (Config, _balanced_pair, _make_flat, _make_regular,
                            make_context)
from blocktree.counters import counters
from blocktree.errors import ContractError, InvariantViolation
from blocktree.inspect import (check_tree, count_blocks, count_nodes,
                               structure_digest, tree_depth)
from blocktree.nodes import is_flat

from oracles import from_sorted_shape

KV = lambda ks: [(k, k) for k in ks]


def build(ctx, ks):
    return ordmap.from_sorted(ctx, KV(sorted(ks)))


def keys_of(ctx, t):
    return [k for k, _ in bt.to_list(ctx, t)]


def rand_complex(ctx, rng, lo, hi, nmin=None, nmax=None):
    """Random tree big enough to contain both node kinds."""
    B = ctx.config.block_size
    n = rng.randrange(nmin or (2 * B + 1), nmax or (40 * B))
    ks = rng.sample(range(lo, hi), n)
    return ordmap.build(ctx, KV(ks))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    Config()  # defaults fine
    with pytest.raises(ValueError):
        Config(alpha=0.5)
    with pytest.raises(ValueError):
        Config(alpha=0.0)
    with pytest.raises(ValueError):
        Config(block_size=0)
    cfg = Config(block_size=16)
    assert cfg.kappa == 128 and cfg.grain == 64


def test_kappa_is_fixed_at_8b():
    with pytest.raises(TypeError):
        Config(kappa=256, block_size=16)
    with pytest.raises(TypeError):
        make_context(block_size=16, kappa=256)
    assert make_context(block_size=3).config.kappa == 24


def test_balanced_pair_bounds():
    cfg = Config()
    assert _balanced_pair(cfg, 5, 5)
    assert not _balanced_pair(cfg, 100, 1)
    assert not _balanced_pair(cfg, 1, 100)


# ---------------------------------------------------------------------------
# expose


def test_expose_regular_reads_fields():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, range(1, 14))  # 13 entries: root regular, children untouched
    l, e, r = bt.expose(ctx, t)
    assert keys_of(ctx, l) + [e[0]] + keys_of(ctx, r) == list(range(1, 14))


def test_expose_flat_median_split():
    # median of five entries per the divide-at-n//2 rule: ([1,2], 3, [4,5])
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, [1, 2, 3, 4, 5])
    assert is_flat(t)
    shape = from_sorted_shape(KV([1, 2, 3, 4, 5]))
    assert shape[1][0] == 3  # oracle picks the middle entry
    l, e, r = bt.expose(ctx, t)
    assert e[0] == 3
    assert keys_of(ctx, l) == [1, 2]
    assert keys_of(ctx, r) == [4, 5]
    assert counters.unfolds == 1


def test_expose_singleton():
    ctx = make_context(block_size=3, encoding="identity")
    t = bt.node(ctx, None, (7, 7), None)
    l, e, r = bt.expose(ctx, t)
    assert (l, e[0], r) == (None, 7, None)


def test_expose_nil_is_contract_violation():
    ctx = make_context(block_size=3, encoding="identity")
    with pytest.raises(ContractError):
        bt.expose(ctx, None)


# ---------------------------------------------------------------------------
# node


def test_node_folds_midsize_to_flat():
    # B=3, five entries -> one block
    ctx = make_context(block_size=3, encoding="identity")
    l = build(ctx, [1, 2])
    r = build(ctx, [4, 5])
    t = bt.node(ctx, l, (3, 3), r)
    assert is_flat(t) and t.count == 5
    assert keys_of(ctx, t) == [1, 2, 3, 4, 5]


def test_node_redistributes_two_blocks():
    # B=3, nine entries: the 4+4 blocks are already valid (B..2B), so they
    # pass through untouched under a regular root
    ctx = make_context(block_size=3, encoding="identity")
    l = build(ctx, [1, 2, 3, 4])
    r = build(ctx, [6, 7, 8, 9])
    t = bt.node(ctx, l, (5, 5), r)
    assert not is_flat(t)
    assert t.key == 5
    assert is_flat(t.left) and t.left.count == 4
    assert is_flat(t.right) and t.right.count == 4
    assert t.left is l and t.right is r
    check_tree(ctx, t)


def test_node_large_keeps_children():
    # B=3, thirteen entries (> 4B): children pass through untouched
    ctx = make_context(block_size=3, encoding="identity")
    l = build(ctx, range(1, 7))
    r = build(ctx, range(8, 14))
    lid, rid = id(l), id(r)
    t = bt.node(ctx, l, (7, 7), r)
    assert not is_flat(t)
    assert id(t.left) == lid and id(t.right) == rid
    check_tree(ctx, t)


# ---------------------------------------------------------------------------
# fold / unfold / refold


def test_node_folds_at_block_threshold():
    ctx = make_context(block_size=3, encoding="identity")
    t = bt.node(ctx, bt.node(ctx, None, (1, 1), None), (2, 2),
                bt.node(ctx, None, (3, 3), None))
    assert is_flat(t)
    assert keys_of(ctx, t) == [1, 2, 3]


def test_fold_of_simplex_tree():
    # a three-entry all-regular tree at B=3 only exists transiently; unfold
    # a block to get one, then fold it back
    ctx = make_context(block_size=3, encoding="identity")
    u = bt.unfold(ctx, build(ctx, [1, 2, 3]))
    assert not is_flat(u)
    f = bt.fold(ctx, u)
    assert is_flat(f) and keys_of(ctx, f) == [1, 2, 3]


def test_fold_idempotent_on_flat():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, [1, 2, 3, 4, 5])
    f = bt.fold(ctx, t)
    assert is_flat(f)
    assert structure_digest(ctx, f) == structure_digest(ctx, t)


def test_fold_out_of_range_is_passthrough():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, range(20))  # 20 > 2B: no fold
    f = bt.fold(ctx, t)
    assert f is t


def test_fold_matches_inorder_oracle():
    ctx = make_context(block_size=4, encoding="identity")
    t = build(ctx, range(7))
    f = bt.fold(ctx, t)
    assert is_flat(f)
    assert bt.to_list(ctx, f) == KV(range(7))


def test_unfold_small_block():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, [1, 2, 3])
    u = bt.unfold(ctx, t)
    assert not is_flat(u)
    assert u.key == 2
    assert u.left.key == 1 and u.right.key == 3
    assert u.marked


def test_unfold_singleton_block():
    ctx = make_context(block_size=1, encoding="identity")
    t = build(ctx, [4])
    assert is_flat(t)
    u = bt.unfold(ctx, t)
    assert not is_flat(u) and u.key == 4 and u.size == 1


def test_unfold_non_flat_is_contract_violation():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, range(20))
    with pytest.raises(ContractError):
        bt.unfold(ctx, t)


def test_fold_unfold_roundtrip_random():
    rng = random.Random(0)
    ctx = make_context(block_size=8, encoding="identity")
    for _ in range(50):
        ks = sorted(rng.sample(range(1000), rng.randrange(8, 17)))
        b = ordmap.from_sorted(ctx, KV(ks))
        assert is_flat(b)
        u = bt.unfold(ctx, b)
        f = bt.fold(ctx, u)
        assert is_flat(f)
        assert bt.to_list(ctx, f) == KV(ks)


def test_refold_unmarked_returns_same_handle():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, range(40))
    assert bt.refold(ctx, t) is t


def test_refold_expanded_tree():
    ctx = make_context(block_size=3, encoding="identity")
    b = build(ctx, [1, 2, 3, 4, 5])
    u = bt.unfold(ctx, b)  # fully expanded, marked
    r = bt.refold(ctx, u)
    assert is_flat(r) and r.count == 5
    check_tree(ctx, r)


def test_refold_random_expanded_inputs_pass_invariants():
    rng = random.Random(1)
    for B in (2, 3, 8):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(60):
            n = rng.randrange(1, 30 * B)
            t = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), n)))
            blocks = []

            def explode(node):
                if node is None:
                    return None
                if is_flat(node):
                    return bt.unfold(ctx, bt.retain(node))
                le = explode(node.left)
                ri = explode(node.right)
                from blocktree.core import _make_regular
                return _make_regular(ctx, le, (node.key, node.value), ri,
                                     marked=True)

            ex = explode(t)
            r = bt.refold(ctx, ex)
            assert bt.to_list(ctx, r) == bt.to_list(ctx, t)
            check_tree(ctx, r)


# ---------------------------------------------------------------------------
# join / join2 / split / split_last


def test_join_nil_sides():
    ctx = make_context(block_size=3, encoding="identity")
    t = bt.join(ctx, None, (5, 5), None)
    assert keys_of(ctx, t) == [5]


def test_join_redistribution_oracle():
    ctx = make_context(block_size=3, encoding="identity")
    l = build(ctx, [1, 2, 3, 4])
    r = build(ctx, [6, 7, 8, 9])
    t = bt.join(ctx, l, (5, 5), r)
    assert t.key == 5 and is_flat(t.left) and is_flat(t.right)
    check_tree(ctx, t)


def test_join_complex_complex_never_unfolds():
    rng = random.Random(2)
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(40):
            t1 = rand_complex(ctx, rng, 0, 10 ** 6)
            t2 = rand_complex(ctx, rng, 2 * 10 ** 6, 3 * 10 ** 6)
            u0 = counters.unfolds
            j = bt.join(ctx, t1, (15 * 10 ** 5, 0), t2)
            assert counters.unfolds == u0, "join of two complex trees unfolded"
            check_tree(ctx, j)
            assert keys_of(ctx, j) == keys_of(ctx, t1) + [15 * 10 ** 5] + keys_of(ctx, t2)


def test_join_ten_thousand_vs_thousand_zero_unfolds():
    rng = random.Random(12)
    ctx = make_context(block_size=128, encoding="identity")
    t1 = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), 10 ** 4)))
    t2 = ordmap.build(ctx, KV(rng.sample(range(2 * 10 ** 6, 3 * 10 ** 6), 10 ** 3)))
    u0 = counters.unfolds
    j = bt.join(ctx, t1, (15 * 10 ** 5, 0), t2)
    assert counters.unfolds == u0
    check_tree(ctx, j)


def test_join_arbitrary_imbalance():
    rng = random.Random(3)
    ctx = make_context(block_size=4, encoding="identity")
    for _ in range(300):
        n1, n2 = rng.randrange(0, 400), rng.randrange(0, 400)
        a = sorted(rng.sample(range(0, 10 ** 5), n1))
        b = sorted(rng.sample(range(2 * 10 ** 5, 3 * 10 ** 5), n2))
        t = bt.join(ctx, ordmap.from_sorted(ctx, KV(a)), (150000, 0),
                    ordmap.from_sorted(ctx, KV(b)))
        assert keys_of(ctx, t) == a + [150000] + b
        check_tree(ctx, t)


def test_split_nil():
    ctx = make_context(block_size=3, encoding="identity")
    assert bt.split(ctx, None, 5) == (None, None, None)


def test_split_found_and_absent():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, range(1, 11))
    l, b, r = bt.split(ctx, t, 5)
    assert keys_of(ctx, l) == [1, 2, 3, 4]
    assert b == (5, 5)
    assert keys_of(ctx, r) == [6, 7, 8, 9, 10]
    check_tree(ctx, l)
    check_tree(ctx, r)

    evens = build(ctx, range(2, 21, 2))
    l, b, r = bt.split(ctx, evens, 5)
    assert keys_of(ctx, l) == [2, 4]
    assert b is None
    assert keys_of(ctx, r) == list(range(6, 21, 2))


def test_split_at_most_one_unfold():
    rng = random.Random(4)
    for B in (1, 2, 8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(60):
            t = rand_complex(ctx, rng, 0, 10 ** 6)
            u0 = counters.unfolds
            l, b, r = bt.split(ctx, t, rng.randrange(10 ** 6))
            assert counters.unfolds - u0 <= 1
            check_tree(ctx, l)
            check_tree(ctx, r)
            bt.release(l)
            bt.release(r)
            bt.release(t)


def test_split_persistence():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, range(50))
    before = structure_digest(ctx, t)
    bt.split(ctx, t, 23)
    assert structure_digest(ctx, t) == before


def test_split_last():
    ctx = make_context(block_size=3, encoding="identity")
    t, e = bt.split_last(ctx, build(ctx, [7]))
    assert t is None and e == (7, 7)
    t, e = bt.split_last(ctx, build(ctx, [1, 2, 3, 4, 5]))
    assert keys_of(ctx, t) == [1, 2, 3, 4] and e == (5, 5)
    with pytest.raises(ContractError):
        bt.split_last(ctx, None)


def test_split_last_random_invariants():
    rng = random.Random(5)
    ctx = make_context(block_size=4, encoding="identity")
    for _ in range(200):
        ks = sorted(rng.sample(range(10 ** 5), rng.randrange(1, 300)))
        t = ordmap.from_sorted(ctx, KV(ks))
        rest, e = bt.split_last(ctx, t)
        assert e == (ks[-1], ks[-1])
        assert keys_of(ctx, rest) == ks[:-1]
        check_tree(ctx, rest)


def test_join2():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, [5, 6])
    assert bt.join2(ctx, None, t) is t
    j = bt.join2(ctx, build(ctx, [1, 2]), build(ctx, [5, 6]))
    assert keys_of(ctx, j) == [1, 2, 5, 6]


def test_join2_aug_combines():
    from blocktree.augment import AugSpec, aug_val
    spec = AugSpec(identity=0, lift=lambda e: e[0], combine=lambda a, b: a + b)
    ctx = make_context(block_size=3, encoding="identity", aug=spec)
    a = build(ctx, range(10))
    b = build(ctx, range(20, 40))
    j = bt.join2(ctx, a, b)
    assert aug_val(ctx, j) == aug_val(ctx, a) + aug_val(ctx, b)


# ---------------------------------------------------------------------------
# ownership


def test_release_returns_to_baseline():
    ctx = make_context(block_size=4, encoding="identity")
    bt.reset_counters()
    t = build(ctx, range(500))
    assert counters.live == count_nodes(t)
    bt.release(t)
    assert counters.live == 0


def test_structural_sharing_survives_release():
    ctx = make_context(block_size=4, encoding="identity")
    t1 = build(ctx, range(200))
    t2 = ordmap.insert(ctx, t1, 1000, 1)
    expect = KV(range(200)) + [(1000, 1)]
    bt.release(t1)
    # the shared suffix of t2 must still decode correctly
    assert bt.to_list(ctx, t2) == expect
    check_tree(ctx, t2)
    bt.release(t2)
    assert counters.live == 0


def test_union_release_all_reclaims_all():
    ctx = make_context(block_size=4, encoding="identity")
    bt.reset_counters()
    a = build(ctx, range(0, 300, 2))
    b = build(ctx, range(1, 300, 3))
    u = ordmap.union(ctx, a, b)
    bt.release(a)
    bt.release(b)
    bt.release(u)
    assert counters.live == 0


def test_release_below_zero_raises():
    ctx = make_context(block_size=4, encoding="identity")
    t = build(ctx, [1])
    bt.release(t)
    with pytest.raises(ContractError):
        bt.release(t)


# ---------------------------------------------------------------------------
# global structural properties


def test_depth_bound_random_trees():
    rng = random.Random(7)
    for B in (1, 8, 128):
        ctx = make_context(block_size=B, encoding="identity")
        for _ in range(10):
            n = rng.randrange(1, 5000)
            t = ordmap.build(ctx, KV(rng.sample(range(10 ** 6), n)))
            bound = math.log(n + 1) / math.log(1 / (1 - ctx.config.alpha))
            assert tree_depth(t) <= bound + 1


def test_leaf_blocking_threshold():
    ctx = make_context(block_size=8, encoding="identity")
    small = build(ctx, range(7))       # below B: one undersized block
    assert is_flat(small) and small.count == 7
    check_tree(ctx, small)
    big = build(ctx, range(8))         # at B: still one block
    assert is_flat(big) and big.count == 8
    check_tree(ctx, big)
    # built by hand: a tree below B may hold no regular node, so neither a
    # lone regular node nor two blocks joined under one passes
    lone = _make_regular(ctx, None, (1, 1), None)
    with pytest.raises(InvariantViolation):
        check_tree(ctx, lone)
    pair = _make_regular(ctx, _make_flat(ctx, KV([1, 2])), (3, 3),
                         _make_flat(ctx, KV([4, 5])))
    with pytest.raises(InvariantViolation):
        check_tree(ctx, pair)
    for t in (small, big, lone, pair):
        bt.release(t)


def test_checker_rejects_entry_the_codec_rejects():
    # built by hand: a balanced blocked tree whose regular node holds a
    # value out of range for the identity codec
    ctx = make_context(block_size=8, encoding="identity")
    tree = lambda v: _make_regular(ctx, _make_flat(ctx, KV(range(8))), (8, v),
                                   _make_flat(ctx, KV(range(9, 17))))
    good, bad = tree(8), tree(-1)
    check_tree(ctx, good)
    with pytest.raises(InvariantViolation):
        check_tree(ctx, bad)
    bt.release(good)
    bt.release(bad)


def test_checker_rejects_corrupt_size():
    ctx = make_context(block_size=2, encoding="identity")
    t = build(ctx, range(30))
    t.size += 1
    with pytest.raises(InvariantViolation):
        check_tree(ctx, t)
    t.size -= 1


def test_debug_checks_catch_key_disorder():
    ctx = make_context(block_size=3, encoding="identity")
    bt.debug_checks(True)
    try:
        with pytest.raises(ContractError):
            bt.join(ctx, build(ctx, [5, 6, 7]), (1, 1), build(ctx, [8, 9, 10]))
    finally:
        bt.debug_checks(False)
