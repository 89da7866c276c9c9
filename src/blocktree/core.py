"""Primitive algebra over block-leaf weight-balanced trees.

A tree is ``None``, a ``Regular`` node (one entry, two children), or a
``Flat`` node (a block of entries in one encoded payload).  Invariants:

* weight balance: ``alpha <= w(child)/w(node) <= 1 - alpha`` at every
  regular node, with ``w = size + 1``;
* blocked leaves: once a tree holds at least ``B`` entries, every leaf is a
  block of ``B..2B`` entries; a tree below ``B`` entries is empty or one
  block of ``1..B-1`` entries.

Everything else in the library is built from the primitives here: expose,
node, fold, unfold, refold, join, join2, split and split_last.

Ownership: functions prefixed with an underscore *consume* the handles they
are given (the caller's reference transfers), and return owned results.  The
un-prefixed public wrappers borrow their inputs: they ``retain`` each input
before handing it to the consuming internals, so callers keep their trees
(persistence).

Two deliberate deviations from the expose-everywhere formulation keep the
instrumented cost properties sharp:

* ``_expose`` on a block slices it into its two expanded halves directly
  (one unfold event); the middle node shell is never materialized.
* ``_join_right``/``_join_left`` handle an unbalanced block, or any
  rebalance of at most ``4B`` entries, by flattening and rebuilding through
  the node rules.  Joins of valid trees therefore never unfold a block, and
  a split performs at most the single unfold from its expose chain.

``_node`` passes children that are already valid through untouched (two
blocks of ``B..2B`` entries, or any pair above ``4B`` entries) and flattens
only fragments.  A point update therefore re-encodes just the one block it
changes: its untouched sibling block is shared, not rebuilt.

Fragments smaller than ``B`` produced by slicing travel as transient
undersized blocks, marked expanded subtrees or small all-regular trees
(``_node``'s simplex regime); every join absorbs them, and public wrappers
run ``_settle`` so returned roots are always valid trees.  Only expose and
unfold hand out fragments, by design.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .counters import counters
from .encoding import EncodingScheme, make_codec
from .errors import ContractError
from .nodes import (is_flat, new_flat, new_regular, release, retain, size,
                    weight)
from .parallel import fork2

ALPHA_MAX = 1.0 - 1.0 / math.sqrt(2.0)

_debug = False


def debug_checks(enabled=True):
    """Enable expensive precondition checks (key order, balance) in node()."""
    global _debug
    _debug = bool(enabled)


@dataclass(frozen=True)
class Config:
    """Tree shape parameters.

    alpha: weight-balance factor; B (block_size): block capacity lower
    bound; grain: smallest subtree size whose recursive branches may run on
    separate workers (default 4B).

    kappa is derived, not a parameter: it is fixed at 8B, the entry count
    below which the set algorithms and the batch updates switch to the
    flatten-merge base case.  Both AC4 bounds of union (unfolds at most the
    block count of the inputs, decodes at most four times it) rest on this
    value: at 4B, random unions at B=1..128 reach 1.3x the block count in
    unfolds and 4.4x in decodes.
    """

    alpha: float = 0.29
    block_size: int = 128
    grain: int = 0
    kappa: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= ALPHA_MAX + 1e-12:
            raise ValueError(f"alpha must be in (0, 1 - 1/sqrt(2)]; got {self.alpha}")
        if self.block_size < 1:
            raise ValueError("block size must be at least 1")
        object.__setattr__(self, "kappa", 8 * self.block_size)
        if self.grain == 0:
            object.__setattr__(self, "grain", 4 * self.block_size)
        if self.grain < 1:
            raise ValueError("grain must be positive")


@dataclass(frozen=True)
class Context:
    """Everything an operation needs to know about a tree family."""

    config: Config
    codec: EncodingScheme
    aug: object = None        # AugSpec or None
    ordered: bool = True


def make_context(block_size=128, alpha=0.29, encoding=None, aug=None,
                 ordered=True, grain=0, value_width=8):
    cfg = Config(alpha=alpha, block_size=block_size, grain=grain)
    return Context(config=cfg, codec=make_codec(encoding, value_width),
                   aug=aug, ordered=ordered)


# ---------------------------------------------------------------------------
# reading


def _decode(ctx, t):
    counters.decodes += 1
    return ctx.codec.decode(t.payload, t.count)


# the sort and bisect key of an entry; a C callable, cheaper per call than
# a Python function
_entry_key = itemgetter(0)


def _search(ctx, t, k, right=False):
    """(pos, entries) for key k in block t: pos is bisect_left of k among
    the block's keys (bisect_right when ``right``), entries is indexable.

    Codecs that search their payload in place decode nothing; the others
    pay one counted decode and a bisect over its result.
    """
    found = ctx.codec.search(t.payload, t.count, k, right)
    if found is not None:
        return found
    entries = _decode(ctx, t)
    pos = (bisect_right if right else bisect_left)(entries, k, key=_entry_key)
    return pos, entries


def flatten(ctx, t, out=None):
    """In-order entries of ``t`` as a list (read-only)."""
    if out is None:
        out = []
    if t is None:
        return out
    if is_flat(t):
        out.extend(_decode(ctx, t))
        return out
    flatten(ctx, t.left, out)
    out.append((t.key, t.value))
    flatten(ctx, t.right, out)
    return out


def items(ctx, t):
    """In-order iterator over entries."""
    if t is None:
        return
    if is_flat(t):
        yield from _decode(ctx, t)
        return
    yield from items(ctx, t.left)
    yield (t.key, t.value)
    yield from items(ctx, t.right)


def to_list(ctx, t):
    return flatten(ctx, t)


def aug_of(ctx, t):
    if t is None:
        return ctx.aug.identity
    return t.aug


def first_key(ctx, t):
    while not is_flat(t):
        if t.left is None:
            return t.key
        t = t.left
    return t.first_key


def last_key(ctx, t):
    while not is_flat(t):
        if t.right is None:
            return t.key
        t = t.right
    return t.last_key


# ---------------------------------------------------------------------------
# construction


def _entries_aug(ctx, entries):
    spec = ctx.aug
    acc = spec.identity
    for e in entries:
        acc = spec.combine(acc, spec.lift(e))
    return acc


def _make_flat(ctx, entries):
    counters.folds += 1
    payload = ctx.codec.encode(entries)
    aug = _entries_aug(ctx, entries) if ctx.aug else None
    if ctx.ordered:
        fk, lk = entries[0][0], entries[-1][0]
    else:
        fk = lk = None
    return new_flat(len(entries), payload, fk, lk, aug)


def _make_regular(ctx, l, e, r, marked=False):
    s = size(l) + size(r) + 1
    if ctx.aug:
        spec = ctx.aug
        aug = spec.combine(aug_of(ctx, l),
                           spec.combine(spec.lift(e), aug_of(ctx, r)))
    else:
        aug = None
    return new_regular(e[0], e[1], l, r, s, aug, marked)


def _build_expanded(ctx, entries, lo, hi, marked):
    """Perfectly balanced all-regular tree over entries[lo:hi]."""
    if lo >= hi:
        return None
    mid = lo + (hi - lo) // 2
    l = _build_expanded(ctx, entries, lo, mid, marked)
    r = _build_expanded(ctx, entries, mid + 1, hi, marked)
    return _make_regular(ctx, l, entries[mid], r, marked)


def _rebuild(ctx, entries, lo=0, hi=None):
    """Owned tree over sorted entries[lo:hi]: one block up to 2B entries,
    else blocks of B..2B under balanced regular nodes."""
    if hi is None:
        hi = len(entries)
    n = hi - lo
    if n == 0:
        return None
    if n <= 2 * ctx.config.block_size:
        return _make_flat(ctx, entries[lo:hi])
    mid = lo + n // 2
    l, r = fork2(ctx, n,
                 lambda: _rebuild(ctx, entries, lo, mid),
                 lambda: _rebuild(ctx, entries, mid + 1, hi))
    return _make_regular(ctx, l, entries[mid], r)


# ---------------------------------------------------------------------------
# expose / node


def _destructure(ctx, t):
    """Split a regular node into owned (left, entry, right); consumes t."""
    l, r = t.left, t.right
    e = (t.key, t.value)
    retain(l)
    retain(r)
    release(t)
    return l, e, r


def _expose(ctx, t):
    if t is None:
        raise ContractError("expose of an empty tree")
    if is_flat(t):
        entries = _decode(ctx, t)
        counters.unfolds += 1
        mid = len(entries) // 2
        l = _build_expanded(ctx, entries, 0, mid, True)
        r = _build_expanded(ctx, entries, mid + 1, len(entries), True)
        e = entries[mid]
        release(t)
        return l, e, r
    return _destructure(ctx, t)


def _check_node_pre(ctx, l, e, r):
    if ctx.ordered:
        if l is not None and not last_key(ctx, l) < e[0]:
            raise ContractError(f"key order violated on the left of {e[0]!r}")
        if r is not None and not e[0] < first_key(ctx, r):
            raise ContractError(f"key order violated on the right of {e[0]!r}")


def _flatten_consume(ctx, t):
    """In-order entries of t; consumes t."""
    entries = flatten(ctx, t)
    release(t)
    return entries


def _entries(ctx, l, e, r):
    """In-order entries of l, e and r; consumes l and r."""
    entries = flatten(ctx, l)
    entries.append(e)
    flatten(ctx, r, entries)
    release(l)
    release(r)
    return entries


def _is_block(B, t):
    """True for a block a blocked tree may hold as a leaf (B..2B entries)."""
    return t is not None and is_flat(t) and B <= t.count <= 2 * B


def _node(ctx, l, e, r):
    """Smart constructor; consumes l and r and restores the leaf rules.

    Children that are already valid pass through untouched: any pair above
    4B entries, and two blocks of B..2B entries.  Only fragments are
    flattened and rebuilt: blocks under B or over 2B, expanded parts and
    simplex pieces.
    """
    if _debug:
        _check_node_pre(ctx, l, e, r)
    B = ctx.config.block_size
    s = size(l) + size(r) + 1
    if s > 4 * B or (_is_block(B, l) and _is_block(B, r)):
        # Two such blocks need no balance check: their weight ratio is at
        # least (B+1)/(3B+2) > 1/3 > ALPHA_MAX.  Above 4B, an expanded
        # fragment of B..2B entries folds into its block first (reachable
        # for B <= 4, where balance permits it); _fold leaves blocks and
        # every other size alone.
        return _make_regular(ctx, _fold(ctx, l), e, _fold(ctx, r))
    if s >= B:
        entries = _entries(ctx, l, e, r)
        if s <= 2 * B:
            return _make_flat(ctx, entries)
        mid = s // 2
        lf = _make_flat(ctx, entries[:mid])
        rf = _make_flat(ctx, entries[mid + 1:])
        return _make_regular(ctx, lf, entries[mid], rf)
    # s < B: simplex regime; absorb any transient fragments
    if is_flat(l) or is_flat(r):
        entries = _entries(ctx, l, e, r)
        return _build_expanded(ctx, entries, 0, len(entries), False)
    return _make_regular(ctx, l, e, r)


# ---------------------------------------------------------------------------
# fold / unfold / refold


def _fold(ctx, t):
    if t is None or is_flat(t):
        return t
    B = ctx.config.block_size
    if not B <= t.size <= 2 * B:
        return t
    return _make_flat(ctx, _flatten_consume(ctx, t))


def _unfold(ctx, t):
    if t is None or not is_flat(t):
        raise ContractError("unfold expects a flat node")
    entries = _decode(ctx, t)
    counters.unfolds += 1
    release(t)
    return _build_expanded(ctx, entries, 0, len(entries), True)


def _refold(ctx, t):
    if t is None or is_flat(t) or not t.marked:
        return t
    B = ctx.config.block_size
    if B <= t.size <= 2 * B:
        return _make_flat(ctx, _flatten_consume(ctx, t))
    s = t.size
    l, e, r = _destructure(ctx, t)
    tl, tr = fork2(ctx, s,
                   lambda: _refold(ctx, l),
                   lambda: _refold(ctx, r))
    return _join(ctx, tl, e, tr)


def _settle(ctx, t):
    """Repair a transient root: a tree below B entries folds into one block
    (an undersized block stays as it is), a marked root of B or more
    entries refolds."""
    if t is None or is_flat(t):
        return t
    if t.size < ctx.config.block_size:
        return _make_flat(ctx, _flatten_consume(ctx, t))
    if t.marked:
        return _refold(ctx, t)
    return t


# ---------------------------------------------------------------------------
# join / split


def _balanced_pair(cfg, wl, wr):
    w = wl + wr
    return cfg.alpha * w <= wl <= (1.0 - cfg.alpha) * w


def _join(ctx, l, e, r):
    cfg = ctx.config
    wl, wr = weight(l), weight(r)
    if _balanced_pair(cfg, wl, wr):
        return _node(ctx, l, e, r)
    if wl > wr:
        return _join_right(ctx, l, e, r)
    return _join_left(ctx, l, e, r)


def _join_right(ctx, tl, k, tr):
    cfg = ctx.config
    if _balanced_pair(cfg, weight(tl), weight(tr)):
        return _node(ctx, tl, k, tr)
    if is_flat(tl):
        # lone block heavier than tr: merge contents, no unfold
        return _rebuild(ctx, _entries(ctx, tl, k, tr))
    l, e0, c = _destructure(ctx, tl)
    t2 = _join_right(ctx, c, k, tr)
    if _balanced_pair(cfg, weight(l), weight(t2)):
        return _node(ctx, l, e0, t2)
    if size(l) + size(t2) + 1 <= 4 * cfg.block_size:
        return _rebuild(ctx, _entries(ctx, l, e0, t2))
    # rotations; the pieces taken apart are regular nodes, except at tiny B
    # (seen at B=1), where a block can sit in the double-rotation slot
    if is_flat(t2):
        t2 = _unfold(ctx, t2)
    l1, e1, r1 = _destructure(ctx, t2)
    if (_balanced_pair(cfg, weight(l), weight(l1))
            and _balanced_pair(cfg, weight(l) + weight(l1), weight(r1))):
        return _node(ctx, _node(ctx, l, e0, l1), e1, r1)
    if is_flat(l1):
        l1 = _unfold(ctx, l1)
    l2, e2, r2 = _destructure(ctx, l1)
    return _node(ctx, _node(ctx, l, e0, l2), e2,
                 _node(ctx, r2, e1, r1))


def _join_left(ctx, tl, k, tr):
    cfg = ctx.config
    if _balanced_pair(cfg, weight(tl), weight(tr)):
        return _node(ctx, tl, k, tr)
    if is_flat(tr):
        return _rebuild(ctx, _entries(ctx, tl, k, tr))
    c, e0, r = _destructure(ctx, tr)
    t2 = _join_left(ctx, tl, k, c)
    if _balanced_pair(cfg, weight(t2), weight(r)):
        return _node(ctx, t2, e0, r)
    if size(t2) + size(r) + 1 <= 4 * cfg.block_size:
        return _rebuild(ctx, _entries(ctx, t2, e0, r))
    if is_flat(t2):
        t2 = _unfold(ctx, t2)
    l1, e1, r1 = _destructure(ctx, t2)
    if (_balanced_pair(cfg, weight(r1), weight(r))
            and _balanced_pair(cfg, weight(r1) + weight(r), weight(l1))):
        return _node(ctx, l1, e1, _node(ctx, r1, e0, r))
    if is_flat(r1):
        r1 = _unfold(ctx, r1)
    l2, e2, r2 = _destructure(ctx, r1)
    return _node(ctx, _node(ctx, l1, e1, l2), e2,
                 _node(ctx, r2, e0, r))


def _split(ctx, t, k):
    if t is None:
        return None, None, None
    l, e, r = _expose(ctx, t)
    if k == e[0]:
        return l, e, r
    if k < e[0]:
        ll, b, lr = _split(ctx, l, k)
        return ll, b, _join(ctx, lr, e, r)
    rl, b, rr = _split(ctx, r, k)
    return _join(ctx, l, e, rl), b, rr


def _split_last(ctx, t):
    if t is None:
        raise ContractError("split_last of an empty tree")
    if is_flat(t):
        entries = _decode(ctx, t)
        release(t)
        e = entries[-1]
        if len(entries) == 1:
            return None, e
        return _make_flat(ctx, entries[:-1]), e
    l, e, r = _destructure(ctx, t)
    if r is None:
        return l, e
    r2, last = _split_last(ctx, r)
    return _join(ctx, l, e, r2), last


def _join2(ctx, l, r):
    if l is None:
        return r
    if r is None:
        return l
    l2, m = _split_last(ctx, l)
    return _join(ctx, l2, m, r)


# ---------------------------------------------------------------------------
# public wrappers: borrow inputs


def expose(ctx, t):
    """(left, entry, right) of the root; blocks open into expanded halves."""
    return _expose(ctx, retain(t))


def node(ctx, l, e, r):
    """Combine two trees around a middle entry per the size rules."""
    return _settle(ctx, _node(ctx, retain(l), e, retain(r)))


def fold(ctx, t):
    """Pack a tree of at most 2B entries into one block; larger trees pass
    through (a marked one is refolded)."""
    return _settle(ctx, _fold(ctx, retain(t)))


def unfold(ctx, t):
    """Expand a block into a perfectly balanced all-regular (marked) tree."""
    return _unfold(ctx, retain(t))


def refold(ctx, t):
    """Repair marked expanded regions back into blocks; shares unmarked parts."""
    return _settle(ctx, _refold(ctx, retain(t)))


def join(ctx, l, e, r):
    """Concatenate l, e, r into a balanced tree; keys(l) < key(e) < keys(r)."""
    if _debug:
        _check_node_pre(ctx, l, e, r)
    return _settle(ctx, _join(ctx, retain(l), e, retain(r)))


def join2(ctx, l, r):
    """Concatenate two trees with no middle entry."""
    return _settle(ctx, _join2(ctx, retain(l), retain(r)))


def split(ctx, t, k):
    """(tree of keys < k, entry at k or None, tree of keys > k)."""
    l, b, r = _split(ctx, retain(t), k)
    return _settle(ctx, l), b, _settle(ctx, r)


def split_last(ctx, t):
    """(tree minus its maximum entry, that entry)."""
    t2, e = _split_last(ctx, retain(t))
    return _settle(ctx, t2), e
