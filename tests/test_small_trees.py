"""Every public operation publishes a tree below B entries as one block.

Each operation is driven to results of 0..B-1 entries from inputs both
small and large (large enough that the set algorithms split and join
rather than merge flat), so the settled roots come from every kind of
transient fragment: undersized blocks, marked halves of an exposed block
and small all-regular trees.
"""

import pytest

import blocktree as bt
from blocktree import ordmap
from blocktree import sequence as sq
from blocktree.augment import AugSpec
from blocktree.core import make_context
from blocktree.counters import counters
from blocktree.inspect import check_tree, structure_digest
from blocktree.nodes import is_flat, size

KV = lambda ks: [(k, k * 10 + 1) for k in ks]

# max of the keys: aug_filter's predicate "max >= x" is subset-monotone
_MAX_KEY = AugSpec(identity=-1, lift=lambda e: e[0], combine=max)


def _targets(B):
    return sorted({0, 1, B // 2, B - 1} & set(range(B)))


class _Run:
    """The inputs of one case: operations borrow them, so each must keep its
    structure_digest, and the case releases them at the end."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.inputs = []

    def tree(self, t):
        self.inputs.append((t, structure_digest(self.ctx, t)))
        return t

    def finish(self, results):
        B = self.ctx.config.block_size
        for t in results:
            if size(t) < B:
                assert t is None or is_flat(t)
            check_tree(self.ctx, t)
        for t, digest in self.inputs:
            assert structure_digest(self.ctx, t) == digest
        for t in results:
            bt.release(t)
        for t, _ in self.inputs:
            bt.release(t)


def _map_cases(ctx, n):
    """(name, run) pairs; run(r) returns the result trees, the first of
    which holds exactly n entries."""
    B = ctx.config.block_size
    m = 12 * B + 40
    keys = list(range(0, 3 * m, 3))
    a = (n - 1) // 2 if n else 0

    def build(ks):
        return ordmap.from_sorted(ctx, KV(ks))

    def big(r):
        return r.tree(build(keys))

    def small(r, ks):
        return r.tree(build(ks))

    def expanded(r, ks):
        # a marked fragment, the shape unfold and expose hand out
        if not ks:
            return None
        block = build(ks)
        frag = bt.unfold(ctx, block)
        bt.release(block)
        return r.tree(frag)

    cases = {
        "remove": lambda r: [ordmap.remove(
            ctx, small(r, keys[:n + 1]), keys[n])],
        "remove_absent": lambda r: [ordmap.remove(
            ctx, small(r, keys[:n]), 1)],
        "union": lambda r: [ordmap.union(
            ctx, small(r, keys[:n // 2]), small(r, keys[n // 2:n]))],
        "intersection": lambda r: [ordmap.intersection(
            ctx, big(r), small(r, sorted(keys[:n] + [k + 1 for k in keys])))],
        "difference": lambda r: [ordmap.difference(
            ctx, big(r), small(r, keys[n:]))],
        "multi_insert": lambda r: [ordmap.multi_insert(
            ctx, small(r, keys[:n // 2]),
            KV(keys[n // 2:n] + keys[n // 2:n]))],
        "multi_delete": lambda r: [ordmap.multi_delete(
            ctx, big(r), keys[n:] + [1, 2, 4])],
        "filter": lambda r: [ordmap.filter(
            ctx, big(r), lambda e: e[0] < 3 * n)],
        "aug_filter": lambda r: [bt.aug_filter(
            ctx, big(r), lambda x: x >= 3 * (m - n))],
        "key_range": lambda r: [ordmap.key_range(
            ctx, big(r), keys[m // 2] + 1, keys[m // 2 + n] + 1)],
        "split_left": lambda r: list(bt.split(
            ctx, big(r), keys[n]))[::2],
        "split_right": lambda r: list(bt.split(
            ctx, big(r), keys[m - 1 - n]))[2::-2],
        "split_last": lambda r: [bt.split_last(
            ctx, small(r, keys[:n + 1]))[0]],
        "join2": lambda r: [bt.join2(
            ctx, small(r, keys[:a]), small(r, keys[a:n]))],
        "fold": lambda r: [bt.fold(ctx, expanded(r, keys[:n]))],
        "refold": lambda r: [bt.refold(ctx, expanded(r, keys[:n]))],
    }
    if n:
        e = KV([keys[a]])[0]
        cases.update({
            "insert": lambda r: [ordmap.insert(
                ctx, small(r, keys[:n - 1]), keys[n - 1], 7)],
            "join": lambda r: [bt.join(
                ctx, small(r, keys[:a]), e, small(r, keys[a + 1:n]))],
            "node": lambda r: [bt.node(
                ctx, small(r, keys[:a]), e, small(r, keys[a + 1:n]))],
        })
    return sorted(cases.items())


def _seq_cases(ctx, n):
    B = ctx.config.block_size
    m = 12 * B + 40

    def seq(r, xs):
        return r.tree(sq.seq_build(ctx, xs))

    return [
        ("take", lambda r: [sq.take(ctx, seq(r, range(m)), n)]),
        ("drop", lambda r: [sq.drop(ctx, seq(r, range(m)), m - n)]),
        ("subseq", lambda r: [sq.subseq(
            ctx, seq(r, range(m)), m // 3, m // 3 + n)]),
        ("append", lambda r: [sq.append(
            ctx, seq(r, range(n // 2)), seq(r, range(n // 2, n)))]),
        ("seq_filter", lambda r: [sq.seq_filter(
            ctx, seq(r, range(m)), lambda x: x % 7 == 3 and x < 7 * n)]),
    ]


def _drive(ctx, cases_of):
    baseline = counters.live
    B = ctx.config.block_size
    seen = set()
    for n in _targets(B):
        for name, run in cases_of(ctx, n):
            r = _Run(ctx)
            results = run(r)
            assert size(results[0]) == n, (name, n)
            seen.add(name)
            r.finish(results)
            assert counters.live == baseline, (name, n)
    return seen


# the ids keep the "-pure" suffix of the ownership mode they once named
# (public operations borrow their inputs), so case ids stay comparable
# across versions
@pytest.mark.parametrize("encoding", ["identity", "delta", "object"],
                         ids=lambda e: f"{e}-pure")
@pytest.mark.parametrize("B", [1, 2, 8])
def test_small_map_results_are_one_block(B, encoding):
    ctx = make_context(block_size=B, encoding=encoding, aug=_MAX_KEY)
    seen = _drive(ctx, _map_cases)
    assert len(seen) == (16 if B == 1 else 19)


@pytest.mark.parametrize("B", [1, 2, 8], ids=lambda B: f"{B}-pure")
def test_small_sequence_results_are_one_block(B):
    ctx = sq.seq_context(block_size=B)
    assert _drive(ctx, _seq_cases) == {"take", "drop", "subseq", "append",
                                       "seq_filter"}
