import dataclasses
import random
from operator import add, sub

import pytest
from hypothesis import given, strategies as st

import blocktree as bt
from blocktree import graphstore, ordmap
from blocktree.augment import AugSpec, aug_filter, aug_range, aug_val
from blocktree.core import Config, Context, make_context
from blocktree.counters import counters
from blocktree.encoding import DeltaCodec, IdentityCodec
from blocktree.errors import ContractError
from blocktree.inspect import check_tree, structure_digest
from blocktree.nodes import Flat

from oracles import brute_aug

SUM_KEYS = AugSpec(identity=0, lift=lambda e: e[0], combine=lambda a, b: a + b)
MAX_VAL = AugSpec(identity=-1, lift=lambda e: e[1], combine=max)
# a commutative group: bulk merges update its block aggregates by difference
SUM_VALUES = AugSpec(identity=0, lift=lambda e: e[1], combine=add,
                     inverse=sub)


def sum_ctx(B=8):
    return make_context(block_size=B, encoding="identity", aug=SUM_KEYS)


@given(st.tuples(st.integers(), st.integers(), st.integers()))
def test_augspec_monoid_laws_for_shipped_specs(triple):
    a, b, c = triple
    assert SUM_KEYS.combine(SUM_KEYS.combine(a, b), c) == \
        SUM_KEYS.combine(a, SUM_KEYS.combine(b, c))
    assert SUM_KEYS.combine(SUM_KEYS.identity, a) == a
    assert SUM_KEYS.combine(a, SUM_KEYS.identity) == a
    assert max(max(a, b), c) == max(a, max(b, c))
    # a spec with an inverse is a commutative group
    for spec in (graphstore._edge_count_spec(), SUM_VALUES):
        assert spec.inverse(spec.combine(a, b), b) == a
        assert spec.combine(a, b) == spec.combine(b, a)
        assert spec.combine(spec.combine(a, b), c) == \
            spec.combine(a, spec.combine(b, c))
        assert spec.combine(spec.identity, a) == a
        assert spec.inverse(a, a) == spec.identity
    # a spec without one folds each block it writes once, from its value
    # column: one fold_values call per block written (counters.folds; an
    # augmented context neither splices nor edits a block in place), each
    # over a whole block of B entries or more.  With the inverse, no block
    # is folded whole: each block the batch meets stays one block, so
    # fold_values reads only the entries the merge changed, at most the
    # three values it stores and the one it replaces
    keys = range(0, 48, 2)
    for inverse in (None, sub):
        folded = []

        def fold(values):
            values = list(values)
            folded.append(len(values))
            return sum(values)
        spec = dataclasses.replace(SUM_VALUES, fold_values=fold,
                                   inverse=inverse)
        ctx = make_context(block_size=4, encoding="object", aug=spec)
        t = ordmap.build(ctx, [(k, k) for k in keys])
        folds, folded[:] = counters.folds, []
        r = ordmap.multi_insert(ctx, t, [(2, a), (7, b), (31, c)])
        if inverse is None:
            assert len(folded) == counters.folds - folds >= 2
            assert min(folded) >= 4
        else:
            assert folded and sum(folded) <= 4
        assert aug_val(ctx, r) == sum(keys) - 2 + a + b + c
        check_tree(ctx, r)
        bt.release(r)
        bt.release(t)


def _augs(t):
    """The aggregate of every node of t, in order."""
    if t is None:
        return []
    if type(t) is Flat:
        return [t.aug]
    return _augs(t.left) + [t.aug] + _augs(t.right)


@pytest.mark.parametrize("B", [1, 2, 8, 64])
def test_merges_under_an_inverse_match_the_refold(B):
    # bulk merges under a spec with an inverse update each block's
    # aggregate by difference where the result is one block; the trees
    # they build equal, node for node and aggregate for aggregate, those
    # built under the same spec without the inverse, which folds every
    # block it writes.  The combine sometimes returns its first value
    # object, which changes nothing where that is the stored one
    rng = random.Random(70 + B)
    inverses = []

    def inverse(a, b):
        inverses.append(b)
        return a - b
    ictx = make_context(block_size=B, encoding="identity",
                        aug=dataclasses.replace(SUM_VALUES, inverse=inverse))
    pctx = make_context(block_size=B, encoding="identity",
                        aug=dataclasses.replace(SUM_VALUES, inverse=None))
    keep = lambda a, b: a if (a + b) % 3 == 0 else a + b
    n = 40 * B + 50
    pairs = lambda m: [(rng.randrange(n), rng.randrange(10 ** 6))
                       for _ in range(m)]
    base = pairs(n // 2)
    ti, tp = ordmap.build(ictx, base), ordmap.build(pctx, base)
    for step in range(12):
        batch = pairs(rng.randrange(1, 3 * B + 8))
        keys = [k for k, _ in batch]
        results = []
        for ctx, t in ((ictx, ti), (pctx, tp)):
            other = ordmap.build(ctx, batch)
            results.append([
                ordmap.multi_insert(ctx, t, batch, keep),
                ordmap.multi_delete(ctx, t, keys),
                ordmap.union(ctx, t, other, keep),
                ordmap.union(ctx, other, t, keep),
                ordmap.intersection(ctx, t, other, keep),
                ordmap.difference(ctx, t, other),
                ordmap.difference(ctx, other, t)])
            bt.release(other)
        for ri, rp in zip(*results):
            assert structure_digest(ictx, ri) == structure_digest(pctx, rp)
            assert _augs(ri) == _augs(rp)
            check_tree(ictx, ri)
        # the next step merges into the inserted or the deleted tree
        pick = rng.randrange(2)
        for t, rs in ((ti, results[0]), (tp, results[1])):
            bt.release(t)
            for j, r in enumerate(rs):
                if j != pick:
                    bt.release(r)
        ti, tp = results[0][pick], results[1][pick]
    assert inverses
    bt.release(ti)
    bt.release(tp)


@pytest.mark.parametrize("B", [1, 2, 8, 64])
def test_point_updates_under_an_inverse_match_the_refold(B):
    # a point insert or remove whose block stays one block updates that
    # block's aggregate by difference under a spec with an inverse; the
    # trees equal, node for node and aggregate for aggregate, those built
    # under the same spec without the inverse
    rng = random.Random(110 + B)
    inverses = []

    def inverse(a, b):
        inverses.append(b)
        return a - b
    ictx = make_context(block_size=B, encoding="identity",
                        aug=dataclasses.replace(SUM_VALUES, inverse=inverse))
    pctx = make_context(block_size=B, encoding="identity",
                        aug=dataclasses.replace(SUM_VALUES, inverse=None))
    keep = lambda a, b: a if (a + b) % 3 == 0 else a + b
    n = 20 * B + 30
    base = [(rng.randrange(n), rng.randrange(10 ** 6)) for _ in range(n // 2)]
    ti, tp = ordmap.build(ictx, base), ordmap.build(pctx, base)
    for step in range(60 + 4 * B):
        k, v = rng.randrange(n), rng.randrange(10 ** 6)
        remove = step % 2
        results = [ordmap.remove(ctx, t, k) if remove
                   else ordmap.insert(ctx, t, k, v, keep)
                   for ctx, t in ((ictx, ti), (pctx, tp))]
        assert structure_digest(ictx, results[0]) == \
            structure_digest(pctx, results[1])
        assert _augs(results[0]) == _augs(results[1])
        check_tree(ictx, results[0])
        bt.release(ti)
        bt.release(tp)
        ti, tp = results
    assert inverses
    bt.release(ti)
    bt.release(tp)


def test_point_updates_under_an_inverse_lift_the_path_only():
    # under an inverse, an in-block insert lifts its new entry and a
    # remove its dropped one, once each, and each lifts the entry of every
    # regular node on its path: not the whole block (163 and 161 lift
    # calls at B=128 when the block was folded whole)
    lifts = []
    spec = dataclasses.replace(
        SUM_VALUES, lift=lambda e: lifts.append(1) or e[1])
    ctx = make_context(block_size=128, encoding="identity", aug=spec)
    t = ordmap.build(ctx, [(k, k) for k in range(0, 2 * 10 ** 4, 2)])
    rng = random.Random(5)
    worst = 0
    for k in rng.sample(range(2 * 10 ** 4), 200):
        lifts[:] = []
        r = (ordmap.remove(ctx, t, k) if k % 2 == 0
             else ordmap.insert(ctx, t, k, k))
        worst = max(worst, len(lifts))
        assert aug_val(ctx, r) == sum(k for k, _ in bt.to_list(ctx, r))
        bt.release(r)
    check_tree(ctx, t)
    bt.release(t)
    assert worst <= 7


@pytest.mark.parametrize("encoding", ["identity", "delta", "object"])
def test_point_updates_under_an_inverse_are_exception_safe(encoding):
    # a lift, combine or inverse that raises at any of its calls leaves
    # the input as it was and no node live
    calls = [0, None]

    def counted(f):
        def g(*args):
            calls[0] += 1
            if calls[0] == calls[1]:
                raise RuntimeError("callback failed")
            return f(*args)
        return g
    B = 4
    for name in ("lift", "combine", "inverse"):
        spec = dataclasses.replace(
            SUM_VALUES, **{name: counted(getattr(SUM_VALUES, name))})
        ctx = make_context(block_size=B, encoding=encoding, aug=spec)
        t = ordmap.build(ctx, [(k, k) for k in range(0, 24 * B, 2)])
        digest, live = structure_digest(ctx, t), counters.live
        for k in (0, 1, 2 * B, 2 * B + 1, 24 * B - 2, 24 * B + 1):
            update = ((lambda: ordmap.remove(ctx, t, k)) if k % 2 == 0
                      else (lambda: ordmap.insert(ctx, t, k, k)))
            fail = 1
            while True:
                calls[:] = [0, fail]
                try:
                    r = update()
                except RuntimeError:
                    assert structure_digest(ctx, t) == digest
                    assert counters.live == live
                    fail += 1
                    continue
                calls[1] = None
                break
            # the update called the callback, and it failed at each call
            assert fail > 1 or name == "inverse" and k % 2 == 1
            check_tree(ctx, r)
            bt.release(r)
            assert counters.live == live
        bt.release(t)


@pytest.mark.parametrize("B", [1, 2, 8, 64])
def test_augmented_sets_fold_their_keys(B):
    # a set stores no value column, so every block it writes folds its
    # entries (keys, None) through lift, with no fold_values, by bulk and
    # point updates alike, with and without an inverse
    rng = random.Random(90 + B)
    n = 30 * B + 40
    for codec in (DeltaCodec(value_width=0), IdentityCodec(value_width=0)):
        for inverse in (None, sub):
            ctx = Context(Config(block_size=B), codec, aug=dataclasses.replace(
                SUM_KEYS, inverse=inverse))
            model = set(rng.sample(range(n), n // 3))
            t = ordmap.build(ctx, [(k, None) for k in model])
            for step in range(16):
                op = step % 4
                if op == 0:
                    keys = rng.sample(range(n), rng.randrange(1, 3 * B + 4))
                    r = ordmap.multi_insert(ctx, t, [(k, None) for k in keys])
                    model.update(keys)
                elif op == 1:
                    keys = rng.sample(range(n), rng.randrange(1, 3 * B + 4))
                    r = ordmap.multi_delete(ctx, t, keys)
                    model.difference_update(keys)
                elif op == 2:
                    k = rng.randrange(n)
                    r = ordmap.insert(ctx, t, k, None)
                    model.add(k)
                else:
                    k = rng.choice(sorted(model)) if model else 0
                    r = ordmap.remove(ctx, t, k)
                    model.discard(k)
                bt.release(t)
                t = r
                assert [k for k, _ in bt.to_list(ctx, t)] == sorted(model)
                assert aug_val(ctx, t) == sum(model)
                for _ in range(4):
                    lo = rng.randrange(n)
                    hi = lo + rng.randrange(n // 2)
                    assert aug_range(ctx, t, lo, hi) == sum(
                        k for k in model if lo <= k <= hi)
                check_tree(ctx, t)
            bt.release(t)


def test_aug_val_examples():
    ctx = sum_ctx(3)
    assert aug_val(ctx, None) == 0
    t = ordmap.build(ctx, [(k, 0) for k in range(16)])
    assert aug_val(ctx, t) == 120


def test_aug_val_requires_augmented_context():
    # aug_val, aug_range and aug_filter each raise before they read or
    # build anything
    ctx = make_context(block_size=3, encoding="identity")
    with pytest.raises(ContractError):
        aug_val(ctx, None)
    t = ordmap.build(ctx, [(k, k) for k in range(20)])
    live, owners, digest = counters.live, t.owners, structure_digest(ctx, t)
    for call in (lambda: aug_range(ctx, t, 2, 9),
                 lambda: aug_filter(ctx, t, lambda a: True)):
        with pytest.raises(ContractError, match="no augmentation"):
            call()
        assert counters.live == live and t.owners == owners
        assert structure_digest(ctx, t) == digest
    bt.release(t)


def test_aug_val_random_vs_brute_force():
    rng = random.Random(0)
    for B in (1, 4, 64):
        ctx = sum_ctx(B)
        for _ in range(60):
            ks = rng.sample(range(10 ** 5), rng.randrange(0, 800))
            t = ordmap.build(ctx, [(k, 0) for k in ks])
            want = brute_aug([(k, 0) for k in ks], 0, lambda e: e[0],
                             lambda a, b: a + b)
            assert aug_val(ctx, t) == want
            check_tree(ctx, t)


def test_aug_range_examples():
    ctx = sum_ctx(3)
    t = ordmap.build(ctx, [(k, 0) for k in range(16)])
    assert aug_range(ctx, t, 0, 15) == aug_val(ctx, t)
    assert aug_range(ctx, t, 3, 5) == 12


def test_aug_range_random_vs_brute_force():
    rng = random.Random(1)
    for B in (2, 16, 128):
        ctx = sum_ctx(B)
        for _ in range(150):
            ks = sorted(rng.sample(range(5000), rng.randrange(1, 600)))
            t = ordmap.from_sorted(ctx, [(k, 0) for k in ks])
            lo = rng.randrange(5200)
            hi = lo + rng.randrange(1500)
            assert aug_range(ctx, t, lo, hi) == sum(k for k in ks if lo <= k <= hi)


def test_aug_range_equals_reduce_over_key_range():
    rng = random.Random(2)
    ctx = sum_ctx(8)
    ks = sorted(rng.sample(range(3000), 500))
    t = ordmap.from_sorted(ctx, [(k, k) for k in ks])
    for _ in range(100):
        lo = rng.randrange(3200)
        hi = lo + rng.randrange(900)
        sub = ordmap.key_range(ctx, t, lo, hi)
        assert aug_range(ctx, t, lo, hi) == ordmap.reduce(
            ctx, ordmap.map_values(ctx, sub, lambda v: v),
            lambda a, b: a + b, 0)


def test_aug_range_decodes_at_most_two_blocks():
    ctx = sum_ctx(16)
    t = ordmap.from_sorted(ctx, [(k, 0) for k in range(5000)])
    rng = random.Random(3)
    for _ in range(100):
        lo = rng.randrange(5000)
        hi = lo + rng.randrange(2000)
        d0 = counters.decodes
        aug_range(ctx, t, lo, hi)
        assert counters.decodes - d0 <= 2


def test_aug_filter_always_true():
    ctx = sum_ctx(4)
    t = ordmap.build(ctx, [(k, 0) for k in range(50)])
    f = aug_filter(ctx, t, lambda a: True)
    assert bt.to_list(ctx, f) == bt.to_list(ctx, t)


def test_aug_filter_interval_stabbing():
    # intervals as left -> right entries, aggregate = max right coordinate;
    # stabbing at q keeps right >= q then filters left <= q
    rng = random.Random(4)
    ctx = make_context(block_size=8, encoding="identity", aug=MAX_VAL)
    for _ in range(120):
        ivs = {}
        for _ in range(rng.randrange(1, 250)):
            left = rng.randrange(2000)
            ivs[left] = left + rng.randrange(150)
        t = ordmap.build(ctx, sorted(ivs.items()))
        q = rng.randrange(2300)
        right_ok = aug_filter(ctx, t, lambda a: a >= q)
        stabbed = ordmap.filter(ctx, right_ok, lambda e: e[0] <= q)
        want = sorted((l, r) for l, r in ivs.items() if l <= q <= r)
        assert bt.to_list(ctx, stabbed) == want
        check_tree(ctx, stabbed)


def test_aug_filter_random_vs_brute_force():
    rng = random.Random(5)
    ctx = make_context(block_size=4, encoding="identity", aug=MAX_VAL)
    for _ in range(150):
        pairs = [(k, rng.randrange(100)) for k in
                 rng.sample(range(2000), rng.randrange(0, 300))]
        t = ordmap.build(ctx, pairs)
        cut = rng.randrange(110)
        f = aug_filter(ctx, t, lambda a: a >= cut)
        assert bt.to_list(ctx, f) == sorted((k, v) for k, v in pairs if v >= cut)


def test_aug_filter_skips_failing_blocks():
    # every value below the cut: no block may be decoded
    ctx = make_context(block_size=16, encoding="identity", aug=MAX_VAL)
    t = ordmap.build(ctx, [(k, k % 50) for k in range(4000)])
    d0 = counters.decodes
    f = aug_filter(ctx, t, lambda a: a >= 100)
    assert f is None
    assert counters.decodes == d0


def test_stored_aggregates_checked_by_validator():
    from blocktree.errors import InvariantViolation
    ctx = sum_ctx(2)
    t = ordmap.build(ctx, [(k, 0) for k in range(40)])
    t.aug += 1
    with pytest.raises(InvariantViolation):
        check_tree(ctx, t)
    t.aug -= 1
    check_tree(ctx, t)
