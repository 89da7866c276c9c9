import math
import random

import pytest

import blocktree as bt
from blocktree import ordmap
from blocktree import sequence as sq
from blocktree.core import (Config, Context, _balanced_pair, _make_flat,
                            _make_regular, first_key, last_key, make_context)
from blocktree.counters import counters
from blocktree.encoding import ObjectCodec
from blocktree.errors import ContractError, InvariantViolation
from blocktree.inspect import (check_tree, count_blocks, count_nodes,
                               structure_digest, tree_depth)
from blocktree.nodes import Flat

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
    # a block size is exactly an int: neither 2.5 nor True
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            make_context(block_size=bad)
    # below 1/4, balance lets a block under B sit beside 4B entries, a pair
    # node() links: with alpha 0.15 or 0.2 accepted,
    # test_mixed_updates_keep_the_leaf_rule fails at B=2, 3 and 4
    for alpha in (0.15, 0.2, 0.2499):
        with pytest.raises(ValueError):
            Config(alpha=alpha)
    Config(alpha=0.25)


@pytest.mark.parametrize("alpha", [0.25, 0.29])
@pytest.mark.parametrize("B", [1, 2, 3, 4, 8])
def test_mixed_updates_keep_the_leaf_rule(alpha, B):
    # seeded inserts, removes, batch updates and filters at both ends of the
    # alpha range; the tree passes check_tree after every operation
    ctx = make_context(block_size=B, alpha=alpha, encoding="identity")
    rng = random.Random(700 + B)
    baseline = counters.live
    model, t = {}, None
    for _ in range(300):
        op = rng.randrange(5)
        ks = rng.sample(range(400), rng.randrange(1, 40))
        if op == 0:
            t2 = ordmap.insert(ctx, t, ks[0], ks[0])
            model[ks[0]] = ks[0]
        elif op == 1:
            t2 = ordmap.remove(ctx, t, ks[0])
            model.pop(ks[0], None)
        elif op == 2:
            t2 = ordmap.multi_insert(ctx, t, KV(ks))
            model.update(KV(ks))
        elif op == 3:
            t2 = ordmap.multi_delete(ctx, t, ks)
            model = {k: v for k, v in model.items() if k not in ks}
        else:
            m = rng.randrange(2, 6)
            t2 = ordmap.filter(ctx, t, lambda e: e[0] % m != 0)
            model = {k: v for k, v in model.items() if k % m}
        bt.release(t)
        t = t2
        check_tree(ctx, t)
        assert bt.to_list(ctx, t) == sorted(model.items())
    bt.release(t)
    assert counters.live == baseline


def test_config_has_no_kappa():
    # the bulk recursion merges only at a block: no size threshold remains
    assert not hasattr(Config(), "kappa")
    assert not hasattr(make_context(block_size=3).config, "kappa")
    with pytest.raises(TypeError):
        Config(kappa=256, block_size=16)
    with pytest.raises(TypeError):
        make_context(block_size=16, kappa=256)


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
    # median of five entries per the divide-at-n//2 rule: ([1,2], 3, [4,5]);
    # the block is sliced into two blocks, both valid trees, and not unfolded
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, [1, 2, 3, 4, 5])
    assert type(t) is Flat
    shape = from_sorted_shape(KV([1, 2, 3, 4, 5]))
    assert shape[1][0] == 3  # oracle picks the middle entry
    u0 = counters.unfolds
    l, e, r = bt.expose(ctx, t)
    assert counters.unfolds == u0
    assert e[0] == 3
    assert type(l) is Flat and type(r) is Flat
    assert keys_of(ctx, l) == [1, 2]
    assert keys_of(ctx, r) == [4, 5]
    check_tree(ctx, l)
    check_tree(ctx, r)


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
    assert type(t) is Flat and t.count == 5
    assert keys_of(ctx, t) == [1, 2, 3, 4, 5]


def test_node_redistributes_two_blocks():
    # B=3, nine entries: the 4+4 blocks are already valid (B..2B), so they
    # pass through untouched under a regular root
    ctx = make_context(block_size=3, encoding="identity")
    l = build(ctx, [1, 2, 3, 4])
    r = build(ctx, [6, 7, 8, 9])
    t = bt.node(ctx, l, (5, 5), r)
    assert type(t) is not Flat
    assert t.key == 5
    assert type(t.left) is Flat and t.left.count == 4
    assert type(t.right) is Flat and t.right.count == 4
    assert t.left is l and t.right is r
    check_tree(ctx, t)


def test_node_large_keeps_children():
    # B=3, thirteen entries (> 4B): children pass through untouched
    ctx = make_context(block_size=3, encoding="identity")
    l = build(ctx, range(1, 7))
    r = build(ctx, range(8, 14))
    lid, rid = id(l), id(r)
    t = bt.node(ctx, l, (7, 7), r)
    assert type(t) is not Flat
    assert id(t.left) == lid and id(t.right) == rid
    check_tree(ctx, t)


@pytest.mark.parametrize("nl, nr", [(600, 2), (8, 22)])
def test_node_rebalances_an_unbalanced_pair(nl, nr):
    # node is join: two valid trees that do not balance (a 600-entry tree
    # beside a 2-entry block; an 8-entry block beside a 22-entry tree) give
    # a valid tree, not a root linked over them as they stand
    ctx = make_context(block_size=8, encoding="identity")
    baseline = counters.live
    l, r = build(ctx, range(nl)), build(ctx, range(nl + 1, nl + 1 + nr))
    t = bt.node(ctx, l, (nl, nl), r)
    check_tree(ctx, t)
    assert keys_of(ctx, t) == list(range(nl + 1 + nr))
    for x in (t, l, r):
        bt.release(x)
    assert counters.live == baseline


# ---------------------------------------------------------------------------
# fold / unfold / refold


def test_node_folds_at_block_threshold():
    ctx = make_context(block_size=3, encoding="identity")
    t = bt.node(ctx, bt.node(ctx, None, (1, 1), None), (2, 2),
                bt.node(ctx, None, (3, 3), None))
    assert type(t) is Flat
    assert keys_of(ctx, t) == [1, 2, 3]


def test_fold_of_simplex_tree():
    # only unfold makes a three-entry all-regular tree at B=3; fold packs
    # it back into the block
    ctx = make_context(block_size=3, encoding="identity")
    u = bt.unfold(ctx, build(ctx, [1, 2, 3]))
    assert type(u) is not Flat
    f = bt.fold(ctx, u)
    assert type(f) is Flat and keys_of(ctx, f) == [1, 2, 3]


def test_fold_idempotent_on_flat():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, [1, 2, 3, 4, 5])
    f = bt.fold(ctx, t)
    assert type(f) is Flat
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
    assert type(f) is Flat
    assert bt.to_list(ctx, f) == KV(range(7))


def _regular_shape(t):
    """An all-regular tree as nested tuples (left, entry, right)."""
    if t is None:
        return None
    assert type(t) is not Flat
    return (_regular_shape(t.left), (t.key, t.value), _regular_shape(t.right))


def test_unfold_small_block():
    # every block of 1..2B entries unfolds into the divide-at-n//2 tree of
    # regular nodes only, and folds back into its entries
    for B in (1, 3, 8):
        ctx = make_context(block_size=B, encoding="identity")
        for nb in range(1, 2 * B + 1):
            entries = KV(range(1, nb + 1))
            t = build(ctx, range(1, nb + 1))
            assert type(t) is Flat
            u = bt.unfold(ctx, t)
            assert _regular_shape(u) == from_sorted_shape(entries)
            f = bt.fold(ctx, u)
            assert type(f) is Flat and bt.to_list(ctx, f) == entries
            for x in (t, u, f):
                bt.release(x)


def test_unfold_singleton_block():
    ctx = make_context(block_size=1, encoding="identity")
    t = build(ctx, [4])
    assert type(t) is Flat
    u = bt.unfold(ctx, t)
    assert type(u) is not Flat and u.key == 4 and u.size == 1


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
        assert type(b) is Flat
        u = bt.unfold(ctx, b)
        f = bt.fold(ctx, u)
        assert type(f) is Flat
        assert bt.to_list(ctx, f) == KV(ks)


def test_refold_unmarked_returns_same_handle():
    ctx = make_context(block_size=3, encoding="identity")
    t = build(ctx, range(40))
    assert bt.refold(ctx, t) is t


def test_refold_expanded_tree():
    ctx = make_context(block_size=3, encoding="identity")
    b = build(ctx, [1, 2, 3, 4, 5])
    u = bt.unfold(ctx, b)  # fully expanded
    r = bt.refold(ctx, u)
    assert type(r) is Flat and r.count == 5
    check_tree(ctx, r)


def _blocks(t, out):
    if t is not None:
        if type(t) is Flat:
            out.append(t)
        else:
            _blocks(t.left, out)
            _blocks(t.right, out)
    return out


def test_refold_random_expanded_inputs_pass_invariants():
    # the fragments a caller can hold: the unfold of a block, and the
    # expose and split pieces of an unfolded one.  fold (and its alias
    # refold) packs each into a valid tree, and node, join and join2 with
    # valid trees absorb each; every result is checked against the model
    rng = random.Random(1)
    lo, hi = 10 ** 6, 2 * 10 ** 6
    for B in (1, 2, 3, 8):
        ctx = make_context(block_size=B, encoding="identity")
        baseline = counters.live
        for _ in range(25):
            ks = sorted(rng.sample(range(lo, hi), rng.randrange(1, 30 * B)))
            t = ordmap.from_sorted(ctx, KV(ks))
            blocks = _blocks(t, [])
            for b in rng.sample(blocks, min(2, len(blocks))):
                kb = keys_of(ctx, b)
                u0 = counters.unfolds
                u = bt.unfold(ctx, b)
                assert counters.unfolds == u0 + 1
                l, e, r = bt.expose(ctx, u)
                s1, m, s2 = bt.split(ctx, u, rng.choice(kb))
                frags = [(u, kb), (l, [k for k in kb if k < e[0]]),
                         (r, [k for k in kb if k > e[0]]),
                         (s1, [k for k in kb if k < m[0]]),
                         (s2, [k for k in kb if k > m[0]])]
                below = build(ctx, range(lo - rng.randrange(20 * B) - 1, lo - 1))
                above = build(ctx, range(hi + 1, hi + rng.randrange(20 * B) + 2))
                kl, ka = keys_of(ctx, below), keys_of(ctx, above)
                results = [(bt.node(ctx, l, e, r), kb),
                           (bt.node(ctx, s1, m, s2), kb)]
                for f, kf in frags:
                    results += [
                        (bt.fold(ctx, f), kf), (bt.refold(ctx, f), kf),
                        (bt.join(ctx, below, (lo - 1, lo - 1), f),
                         kl + [lo - 1] + kf),
                        (bt.join(ctx, f, (hi, hi), above), kf + [hi] + ka),
                        (bt.join2(ctx, below, f), kl + kf),
                        (bt.join2(ctx, f, above), kf + ka)]
                assert counters.unfolds == u0 + 1
                for x, want in results:
                    check_tree(ctx, x)
                    assert bt.to_list(ctx, x) == KV(want)
                for x in [x for x, _ in results + frags] + [below, above]:
                    bt.release(x)
            bt.release(t)
        assert counters.live == baseline


@pytest.mark.parametrize("B", [1, 2, 3, 4])
def test_public_ops_accept_unfolded_block(B):
    # an unfolded block passed to any public operation beside a larger
    # operand comes out inside a valid tree (at B <= 4 balance lets it sit
    # beside 4B entries, where _node links rather than rebuilds: the public
    # join, its second name node, and join2 fold it first)
    ctx = make_context(block_size=B, encoding="identity")
    sctx = sq.seq_context(block_size=B)
    baseline = counters.live
    for nb in range(1, 2 * B + 1):
        ub = list(range(500, 500 + nb))
        b = build(ctx, ub)
        u = bt.unfold(ctx, b)
        sb = sq.seq_build(sctx, ub)
        su = bt.unfold(sctx, sb)
        for n in range(12 * B):
            big = list(range(1000, 1000 + n))
            small = list(range(1, n + 1))
            t, ts = build(ctx, big), build(ctx, small)
            s = sq.seq_build(sctx, big)
            results = [
                (ordmap.multi_insert(ctx, u, KV(big)), ub + big),
                (ordmap.multi_insert(ctx, u, KV(small)), small + ub),
                (ordmap.multi_insert(ctx, t, KV(ub)), ub + big),
                (ordmap.union(ctx, u, t), ub + big),
                (ordmap.union(ctx, t, u), ub + big),
                (ordmap.union(ctx, ts, u), small + ub),
                (ordmap.intersection(ctx, u, t), []),
                (ordmap.difference(ctx, u, t), ub),
                (ordmap.multi_delete(ctx, u, big), ub),
                (ordmap.insert(ctx, u, 900, 900), ub + [900]),
                (ordmap.insert(ctx, u, 400, 400), [400] + ub),
                (ordmap.remove(ctx, u, 500), ub[1:]),
                (ordmap.remove(ctx, u, 1), ub),
                (ordmap.map_values(ctx, u, lambda v: v), ub),
                (ordmap.filter(ctx, u, lambda e: e[0] != ub[-1]), ub[:-1]),
                (ordmap.key_range(ctx, u, 501, 999), ub[1:]),
                (bt.join(ctx, u, (900, 900), t), ub + [900] + big),
                (bt.join(ctx, ts, (400, 400), u), small + [400] + ub),
                (bt.join2(ctx, u, t), ub + big),
                (bt.join2(ctx, ts, u), small + ub),
                (bt.node(ctx, u, (900, 900), t), ub + [900] + big),
                (bt.node(ctx, ts, (400, 400), u), small + [400] + ub),
            ]
            for x, want in results:
                check_tree(ctx, x)
                assert bt.to_list(ctx, x) == KV(want)
            seqs = [(sq.append(sctx, su, s), ub + big),
                    (sq.append(sctx, s, su), big + ub),
                    (sq.take(sctx, su, nb - 1), ub[:-1]),
                    (sq.drop(sctx, su, 1), ub[1:]),
                    (sq.seq_filter(sctx, su, lambda x: x != 500), ub[1:]),
                    (sq.seq_map(sctx, su, lambda x: x), ub),
                    (sq.reverse(sctx, su), ub[::-1])]
            for x, want in seqs:
                check_tree(sctx, x)
                assert sq.to_elements(sctx, x) == want
            for x in [x for x, _ in results + seqs] + [t, ts, s]:
                bt.release(x)
        for x in (b, u, sb, su):
            bt.release(x)
    assert counters.live == baseline


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
    assert t.key == 5 and type(t.left) is Flat and type(t.right) is Flat
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


@pytest.mark.parametrize("encoding", ["identity", "delta", "object"])
@pytest.mark.parametrize("B", [1, 2, 8, 128])
def test_no_internal_path_unfolds(B, encoding):
    # only the public unfold expands a block; expose and splits slice
    # blocks, and joins (rotations included, which run at B=1), set algebra
    # and batch updates never unfold one
    rng = random.Random(B)
    ctx = make_context(block_size=B, encoding=encoding)
    sctx = sq.seq_context(block_size=B)
    span = 40 * B + 400
    sizes = [0, 1, B, 2 * B, 9 * B, 40 * B + 300]
    trees = [ordmap.build(ctx, KV(rng.sample(range(span), n))) for n in sizes]
    n = 6 * B + 20
    seq = sq.seq_build(sctx, range(n))
    u0 = counters.unfolds
    results = []
    for t in trees:
        for k in rng.sample(range(-1, span + 1), 6):
            l, _, r = bt.split(ctx, t, k)
            results += [l, r]
            lo = rng.randrange(-1, span + 1)
            results.append(ordmap.key_range(ctx, t, min(k, lo), max(k, lo)))
        batch = KV(rng.sample(range(span), rng.randrange(1, 4 * B + 20)))
        results.append(ordmap.multi_insert(ctx, t, batch))
        results.append(ordmap.multi_delete(ctx, t, [k for k, _ in batch]))
        for t2 in trees:
            results.append(ordmap.union(ctx, t, t2))
            results.append(ordmap.intersection(ctx, t, t2))
            results.append(ordmap.difference(ctx, t, t2))
    for _ in range(40):
        a = sorted(rng.sample(range(10 ** 5), rng.randrange(0, 30 * B + 60)))
        b = sorted(rng.sample(range(2 * 10 ** 5, 3 * 10 ** 5),
                              rng.randrange(0, 30 * B + 60)))
        ta, tb = ordmap.from_sorted(ctx, KV(a)), ordmap.from_sorted(ctx, KV(b))
        results.append(bt.join(ctx, ta, (150000, 0), tb))
        results.append(bt.join2(ctx, ta, tb))
        results += [ta, tb]
    for c, t in [(ctx, t) for t in trees] + [(sctx, seq)]:
        for b in _blocks(t, []):
            l, _, r = bt.expose(c, b)
            results += [l, r]
    for i in range(0, n + 1, max(1, n // 25)):
        results.append(sq.take(sctx, seq, i))
        results.append(sq.drop(sctx, seq, i))
        results.append(sq.subseq(sctx, seq, i // 2, i))
    assert counters.unfolds == u0
    for t in results + trees + [seq]:
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


def test_split_last_of_an_unfolded_block():
    # an unfolded block is the one tree whose right spine ends in a regular
    # node with no right child; its rest is folded back into one block
    for enc in ("identity", "delta", "object"):
        for B in (1, 2, 3, 8):
            ctx = make_context(block_size=B, encoding=enc)
            for n in range(1, 2 * B + 1):
                t = build(ctx, range(n))
                u = bt.unfold(ctx, t)
                rest, e = bt.split_last(ctx, u)
                assert e == (n - 1, n - 1)
                assert keys_of(ctx, rest) == list(range(n - 1))
                check_tree(ctx, rest)
                for x in (t, u, rest):
                    bt.release(x)


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
    assert type(small) is Flat and small.count == 7
    check_tree(ctx, small)
    big = build(ctx, range(8))         # at B: still one block
    assert type(big) is Flat and big.count == 8
    check_tree(ctx, big)
    # built by hand: a tree below B may hold no regular node, so neither a
    # lone regular node nor two blocks joined under one passes
    lone = _make_regular(ctx, None, (1, 1), None, 1)
    with pytest.raises(InvariantViolation):
        check_tree(ctx, lone)
    pair = _make_regular(ctx, _make_flat(ctx, [1, 2], [1, 2]), (3, 3),
                         _make_flat(ctx, [4, 5], [4, 5]), 5)
    with pytest.raises(InvariantViolation):
        check_tree(ctx, pair)
    for t in (small, big, lone, pair):
        bt.release(t)


def test_checker_rejects_entry_the_codec_rejects():
    # built by hand: a balanced blocked tree whose regular node holds a
    # value out of range for the identity codec
    ctx = make_context(block_size=8, encoding="identity")
    block = lambda keys: _make_flat(ctx, list(keys), list(keys))
    tree = lambda v: _make_regular(ctx, block(range(8)), (8, v),
                                   block(range(9, 17)), 17)
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


class _UncheckedCodec(ObjectCodec):
    """An object codec whose column read trusts the block's count."""

    def columns(self, payload, count):
        return payload


def _first_block(t):
    while type(t) is not Flat:
        t = t.left
    return t


def test_checker_rejects_each_corrupt_field():
    # one field of a valid tree corrupted, rejected, and restored; check_tree
    # consumes nothing, so the tree is as it was
    from blocktree.augment import AugSpec

    def rejects(ctx, t, node, field, bad, msg):
        live, digest = counters.live, structure_digest(ctx, t)
        good = getattr(node, field)
        setattr(node, field, bad)
        with pytest.raises(InvariantViolation, match=msg):
            check_tree(ctx, t)
        setattr(node, field, good)
        check_tree(ctx, t)
        assert counters.live == live
        assert structure_digest(ctx, t) == digest

    ctx = make_context(block_size=4, encoding="identity")
    one = build(ctx, range(6))                  # a whole tree of one block
    rejects(ctx, one, one, "count", 0, "empty block")
    t = build(ctx, range(60))
    b = _first_block(t)
    rejects(ctx, t, b, "count", 3, "outside")
    rejects(ctx, t, b, "first_key", -1, "bounds are stale")
    rejects(ctx, t, t, "key", last_key(ctx, t.left), "left subtree")
    rejects(ctx, t, t, "key", first_key(ctx, t.right), "right subtree")
    loose = Context(Config(block_size=4), _UncheckedCodec())
    lt = ordmap.build(loose, KV(range(20)))
    lb = _first_block(lt)
    rejects(loose, lt, lb, "count", lb.count - 1, "does not match")
    keys, values = lb.payload
    rejects(loose, lt, lb, "payload", (keys[::-1], values),
            "not strictly increasing")
    sctx = make_context(block_size=4, encoding="identity",
                        aug=AugSpec(identity=0, lift=lambda e: e[0],
                                    combine=lambda a, b: a + b))
    st = build(sctx, range(60))
    sb = _first_block(st)
    rejects(sctx, st, sb, "aug", sb.aug + 1, "block aggregate is stale")
    # a root linked by hand over a block of 8 and a tree of 191 entries:
    # no single field breaks balance without breaking a size
    heavy = _make_regular(ctx, build(ctx, range(8)), (8, 8),
                          build(ctx, range(9, 200)), 200)
    with pytest.raises(InvariantViolation, match="weight balance"):
        check_tree(ctx, heavy)
    # an unfolded block of 3 at B=2: a whole tree with regular leaves
    ctx2 = make_context(block_size=2, encoding="identity")
    block = build(ctx2, range(3))
    u = bt.unfold(ctx2, block)
    with pytest.raises(InvariantViolation, match="regular leaf"):
        check_tree(ctx2, u)
    for x in (one, t, lt, st, heavy, block, u):
        bt.release(x)


def test_public_links_reject_key_disorder():
    # the public node, join and join2 check key order on an ordered context
    # before they touch their inputs: no node is left live and no input
    # gains an owner; an unfolded block is checked like any tree
    ctx = make_context(block_size=3, encoding="identity")
    baseline = counters.live
    a, b, c = build(ctx, [5, 6, 7]), build(ctx, [8, 9, 10]), build(ctx, [1, 2, 3])
    ua = bt.unfold(ctx, a)
    ins = (a, b, c, ua)
    calls = [lambda: bt.join(ctx, a, (1, 1), b),
             lambda: bt.join(ctx, c, (9, 9), b),
             lambda: bt.join(ctx, ua, (1, 1), b),
             lambda: bt.join2(ctx, a, c),
             lambda: bt.join2(ctx, ua, c),
             lambda: bt.join2(ctx, b, b),
             lambda: bt.node(ctx, a, (1, 1), b),
             lambda: bt.node(ctx, c, (4, 4), c)]
    for call in calls:
        live, owners = counters.live, [x.owners for x in ins]
        with pytest.raises(ContractError):
            call()
        assert counters.live == live
        assert [x.owners for x in ins] == owners
    # an unordered context (a sequence) links in any order
    sctx = sq.seq_context(block_size=3)
    s1, s2 = sq.seq_build(sctx, [5, 6, 7]), sq.seq_build(sctx, [1, 2, 3])
    s = sq.append(sctx, s1, s2)
    assert sq.to_elements(sctx, s) == [5, 6, 7, 1, 2, 3]
    for x in ins + (s1, s2, s):
        bt.release(x)
    assert counters.live == baseline
