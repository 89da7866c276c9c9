import random

import pytest

import blocktree as bt
from blocktree import sequence as sq
from blocktree.counters import counters
from blocktree.encoding import ObjectCodec
from blocktree.errors import ContractError
from blocktree.inspect import check_tree, structure_digest
from blocktree.nodes import Flat, size


def test_seq_context_rejects_byte_codecs():
    ctx = sq.seq_context(block_size=4)
    sq.check_seq_context(ctx)
    from blocktree.core import make_context
    bad = make_context(block_size=4, encoding="delta", ordered=False)
    with pytest.raises(ContractError):
        sq.check_seq_context(bad)


def test_seq_build_rejects_a_bad_context_before_building():
    # an ordered object context and unordered byte codecs raise
    # ContractError before any block is built
    from blocktree.core import make_context
    baseline = counters.live
    for bad in (make_context(block_size=4, encoding="object"),
                make_context(block_size=4, encoding="identity", ordered=False),
                make_context(block_size=4, encoding="delta", ordered=False)):
        a0, f0 = counters.allocations, counters.folds
        with pytest.raises(ContractError):
            sq.seq_build(bad, range(10))
        assert (counters.allocations, counters.folds) == (a0, f0)
        assert counters.live == baseline


def test_build_preserves_order():
    ctx = sq.seq_context(block_size=3)
    assert sq.seq_build(ctx, []) is None
    s = sq.seq_build(ctx, ["c", "a", "b"])
    assert sq.to_elements(ctx, s) == ["c", "a", "b"]


def test_build_roundtrip_random():
    rng = random.Random(0)
    for B in (1, 4, 128):
        ctx = sq.seq_context(block_size=B)
        for _ in range(80):
            xs = [rng.randrange(100) for _ in range(rng.randrange(0, 600))]
            s = sq.seq_build(ctx, xs)
            assert sq.to_elements(ctx, s) == xs
            check_tree(ctx, s)


def test_nth_take_subseq():
    ctx = sq.seq_context(block_size=3)
    assert sq.nth(ctx, sq.seq_build(ctx, ["x"]), 0) == "x"
    s = sq.seq_build(ctx, ["a", "b", "c", "d"])
    assert sq.to_elements(ctx, sq.take(ctx, s, 2)) == ["a", "b"]
    # every position is checked before any walk: nothing is built, and
    # the input keeps its owners and its content
    live, owners, digest = counters.live, s.owners, structure_digest(ctx, s)
    for call in (lambda: sq.nth(ctx, s, 4), lambda: sq.take(ctx, s, 5),
                 lambda: sq.drop(ctx, s, 5), lambda: sq.drop(ctx, s, -1),
                 lambda: sq.subseq(ctx, s, 3, 2),
                 lambda: sq.subseq(ctx, s, -1, 2),
                 lambda: sq.subseq(ctx, s, 2, 5)):
        with pytest.raises(IndexError):
            call()
        assert counters.live == live and s.owners == owners
        assert structure_digest(ctx, s) == digest


def test_subseq_equals_take_drop_random():
    rng = random.Random(1)
    for B in (1, 4, 128):
        ctx = sq.seq_context(block_size=B)
        xs = [rng.randrange(1000) for _ in range(500)]
        s = sq.seq_build(ctx, xs)
        for _ in range(60):
            i = rng.randrange(0, len(xs) + 1)
            j = rng.randrange(i, len(xs) + 1)
            sub = sq.subseq(ctx, s, i, j)
            via = sq.take(ctx, sq.drop(ctx, s, i), j - i)
            assert sq.to_elements(ctx, sub) == xs[i:j] == sq.to_elements(ctx, via)
            check_tree(ctx, sub)
    # every i <= j over a few blocks, so each slice starts and ends on both
    # sides of every block boundary
    ctx = sq.seq_context(block_size=4)
    xs = list(range(30))
    s = sq.seq_build(ctx, xs)
    for i in range(len(xs) + 1):
        assert sq.to_elements(ctx, sq.take(ctx, s, i)) == xs[:i]
        assert sq.to_elements(ctx, sq.drop(ctx, s, i)) == xs[i:]
        for j in range(i, len(xs) + 1):
            sub = sq.subseq(ctx, s, i, j)
            assert sq.to_elements(ctx, sub) == xs[i:j]
            check_tree(ctx, sub)


def test_nth_decodes_at_most_one_block():
    ctx = sq.seq_context(block_size=16)
    s = sq.seq_build(ctx, list(range(5000)))
    rng = random.Random(2)
    for _ in range(50):
        i = rng.randrange(5000)
        d0 = counters.decodes
        assert sq.nth(ctx, s, i) == i
        assert counters.decodes - d0 <= 1


def test_append_and_reverse():
    ctx = sq.seq_context(block_size=3)
    s = sq.seq_build(ctx, [1, 2, 3])
    assert sq.append(ctx, None, s) is s
    a = sq.append(ctx, s, sq.seq_build(ctx, [9, 8]))
    assert sq.to_elements(ctx, a) == [1, 2, 3, 9, 8]
    assert sq.to_elements(ctx, sq.reverse(ctx, s)) == [3, 2, 1]


def test_append_take_drop_identity():
    rng = random.Random(3)
    ctx = sq.seq_context(block_size=4)
    xs = [rng.randrange(50) for _ in range(300)]
    s = sq.seq_build(ctx, xs)
    for i in range(0, 301, 17):
        back = sq.append(ctx, sq.take(ctx, s, i), sq.drop(ctx, s, i))
        assert sq.to_elements(ctx, back) == xs
        check_tree(ctx, back)


def _block_spans(t, at=0, out=None):
    """(start, count) of each block of t, in order."""
    out = [] if out is None else out
    if type(t) is Flat:
        out.append((at, t.count))
    elif t is not None:
        _block_spans(t.left, at, out)
        _block_spans(t.right, at + size(t.left) + 1, out)
    return out


class _SplicesCounted(ObjectCodec):
    """The object codec, counting its splice calls."""
    splices = 0

    def splice(self, payload, count, i, j, entries):
        self.splices += 1
        return super().splice(payload, count, i, j, entries)


@pytest.mark.parametrize("B", [1, 8, 128])
def test_sequence_cuts_and_appends_splice_their_blocks(B):
    # an object-codec sequence splices its blocks as an ordered map does:
    # a take, drop or subseq whose boundary pieces keep at least B
    # elements, and an append whose left side's last block keeps at least
    # B once its last element is taken off, decode no block.  Under an
    # aggregate the blocks are written from their columns, and every
    # aggregate matches a fresh build of the same elements
    from blocktree.augment import AugSpec
    from blocktree.core import Config, Context, aug_of
    from blocktree.inspect import structure_digest
    spec = AugSpec(identity=0, lift=lambda e: e[1], combine=lambda a, b: a + b)
    for aug in (None, spec):
        codec = _SplicesCounted()
        ctx = Context(Config(block_size=B), codec, aug=aug, ordered=False)
        xs = list(range(40 * B + 7))
        ys = [-y for y in range(5 * B + 3)]
        s, s2 = sq.seq_build(ctx, xs), sq.seq_build(ctx, ys)
        digests = structure_digest(ctx, s), structure_digest(ctx, s2)
        spans = _block_spans(s)
        cases = []
        for start, count in spans:
            if count > B:
                cases += [("take", start + B), ("drop", start + count - B)]
        for start, count in spans[::3]:
            for end, last in spans[1::4]:
                if end > start and count > B and last > B:
                    cases.append(("subseq", start + count - B, end + B))
        for a, b, want in ((s, s2, xs + ys), (s2, s, ys + xs), (s, s, xs + xs)):
            if _block_spans(a)[-1][1] > B:
                cases.append(("append", a, b, want))
        assert len(cases) > 10
        for name, *args in cases:
            before = counters.decodes
            if name == "append":
                a, b, want = args
                got = sq.append(ctx, a, b)
            else:
                got = getattr(sq, name)(ctx, s, *args)
                want = {"take": lambda i: xs[:i], "drop": lambda i: xs[i:],
                        "subseq": lambda i, j: xs[i:j]}[name](*args)
            if aug is None:
                assert counters.decodes == before, (name, args)
            else:
                fresh = sq.seq_build(ctx, want)
                assert aug_of(ctx, got) == aug_of(ctx, fresh)
                bt.release(fresh)
            assert sq.to_elements(ctx, got) == want
            check_tree(ctx, got)
            bt.release(got)
        assert (structure_digest(ctx, s), structure_digest(ctx, s2)) == digests
        # the augmented context never splices
        assert (codec.splices > 0) == (aug is None)
        bt.release(s)
        bt.release(s2)


def test_reverse_involution():
    rng = random.Random(4)
    ctx = sq.seq_context(block_size=8)
    xs = [rng.randrange(100) for _ in range(700)]
    s = sq.seq_build(ctx, xs)
    rr = sq.reverse(ctx, sq.reverse(ctx, s))
    assert sq.to_elements(ctx, rr) == xs
    check_tree(ctx, rr)


def test_append_allocations_logarithmic():
    import math
    ctx = sq.seq_context(block_size=128)
    n = 60000
    s1 = sq.seq_build(ctx, list(range(n)))
    s2 = sq.seq_build(ctx, list(range(n, n + 3000)))
    a0 = counters.allocations
    sq.append(ctx, s1, s2)
    allocs = counters.allocations - a0
    assert allocs <= 4 * math.log2(n), f"append allocated {allocs}"


def test_map_filter_reduce_find_first():
    ctx = sq.seq_context(block_size=3)
    assert sq.find_first(ctx, None, lambda v: True) is None
    s = sq.seq_build(ctx, [4, 7, 10])
    assert sq.find_first(ctx, s, lambda v: v % 2 == 1) == 7
    big = sq.seq_build(ctx, list(range(1, 101)))
    assert sq.seq_reduce(ctx, big, lambda a, b: a + b, 0) == 5050
    doubled = sq.seq_map(ctx, s, lambda v: v * 2)
    assert sq.to_elements(ctx, doubled) == [8, 14, 20]
    kept = sq.seq_filter(ctx, s, lambda v: v > 5)
    assert sq.to_elements(ctx, kept) == [7, 10]


def test_find_first_stops_decoding_after_hit():
    ctx = sq.seq_context(block_size=8)
    xs = list(range(4000))
    s = sq.seq_build(ctx, xs)
    d0 = counters.decodes
    assert sq.find_first(ctx, s, lambda v: v >= 10) == 10
    early = counters.decodes - d0
    d0 = counters.decodes
    assert sq.find_first(ctx, s, lambda v: v >= 3990) == 3990
    late = counters.decodes - d0
    assert early <= 2
    assert late > early


def test_array_model_random_ops():
    rng = random.Random(5)
    for B in (1, 4, 128):
        ctx = sq.seq_context(block_size=B)
        xs = [rng.randrange(10 ** 4) for _ in range(10 ** 4)]
        s = sq.seq_build(ctx, xs)
        assert sq.to_elements(ctx, s) == xs
        for _ in range(40):
            i = rng.randrange(len(xs))
            assert sq.nth(ctx, s, i) == xs[i]
        i = rng.randrange(len(xs))
        assert sq.to_elements(ctx, sq.take(ctx, s, i)) == xs[:i]
        assert sq.to_elements(ctx, sq.drop(ctx, s, i)) == xs[i:]
        assert sq.seq_reduce(ctx, s, lambda a, b: a + b, 0) == sum(xs)
