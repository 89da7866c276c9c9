"""Primitive algebra over block-leaf weight-balanced trees.

A tree is ``None``, a ``Regular`` node (one entry, two children), or a
``Flat`` node (a block of entries in one encoded payload).  Invariants:

* weight balance: ``alpha <= w(child)/w(node) <= 1 - alpha`` at every
  regular node, with ``w = size + 1``;
* blocked leaves: once a tree holds at least ``B`` entries, every leaf is a
  block of ``B..2B`` entries; a tree below ``B`` entries is empty or one
  block of ``1..B-1`` entries.

Everything else in the library is built from the primitives here: expose,
flatten, fold, unfold, join, join2, split and split_last.  ``items`` and
``to_list`` read ``flatten``'s list, ``keys`` is ``flatten`` of each
block's key column alone (``_columns``),
``node`` is a second name for ``join`` and ``refold`` one for ``fold``,
and ``_rebuild`` builds every tree from a sorted key column and its value
column, the all-regular one ``unfold`` returns included.

Blocks are read and written as columns.  A block is read in place by
``_view`` where the codec has a view (``EncodingScheme.view``: identity
and object), which decodes nothing, and point reads bisect its key column
(``_search``).  Any other block read is ``_columns`` (the codec's
``columns``, counted as one decode), or ``_values`` (the view's value
column, or else the codec's ``values``, counted the same) where the
reader folds or indexes the value column alone, and every block is
written from a key column and a value column by ``_make_flat`` (the
codec's ``encode_columns``), except a set block that a short run of keys
edits in place (``_edit_keys``: the codec's ``edit_keys``, counted as one
decode and one fold, as the read and the write it replaces) and the
spliced blocks of ``_edit``.  ``_rebuild``,
``_make_flat``, ``_run_or_tree`` and ``_entries_aug`` each take those two
columns (the value column None for a set); a caller that holds an entry
list converts it once (``_unzip``).  So ``_columns``, ``_view`` and
``_values`` are the only block reads: ``flatten`` zips the two columns
into entries, and ``ordmap``'s filter, whose predicate takes entries,
reads its block through ``flatten``.

Ownership: a walk *borrows* the tree it reads.  ``_slice`` and
``_pop_last`` (and, in ``ordmap``, every recursion over a caller's tree)
read ``t.left``, ``t.right`` and the entry in place, and ``retain`` only
the subtrees they share into their result, after their own recursive
calls have returned: a walk that raises holds nothing of its input.  Only
the glue that links fresh pieces *consumes* the handles it is given (the
caller's reference transfers): ``_node``, the joins, ``_join2``,
``_open``, ``_concat`` and ``_as_tree``.  Glue releases every
handle it holds when an exception (a failed decode, codec check or user
callback) unwinds through it, so a failed operation leaves its inputs
intact and no node live.  Every result is owned by the caller; the public
wrappers borrow their inputs and ``retain`` them only to hand them to glue.

Two deliberate deviations from the expose-everywhere formulation keep the
instrumented cost properties sharp:

* Reads by position are one read-only walk, ``_slice``: a subtree wholly
  inside the range is shared, one wholly outside is skipped, and only the
  boundary blocks are edited.  A keyed split is two slices at the
  position the read-only ``_locate`` finds, so it edits the block it
  ends in once for each side; ``_join2`` and ``split_last`` take the last
  entry off with ``_pop_last``, a walk down the right spine that edits
  only the last block.
* ``_join_right``/``_join_left`` hand a lone block heavier than the
  other side to ``_node`` instead of exposing it; every other unbalanced
  pair rotates, at any size, and a rotation that meets a block cuts it at
  its middle entry.

Fragments are entry runs.  A piece below ``B`` entries that a walk hands
up (the cut of a boundary block, a merge of a batch, the entries a filter
keeps of a block, a block less its last entry) is a plain sorted list,
not a block (``_run_or_tree``).  ``_concat`` is the one glue: two runs are
concatenated, and stay a run below ``B``; a run becomes a block
(``_as_tree``) only where the glue hands a tree to a join; and with no
middle entry, a nonempty run beside a tree gives up the entry next to the
seam as the middle, so only two trees reach ``_join2``.  ``_node`` is the
one place that decides between linking and flattening, by the leaf rule:
it links any pair of at least ``4B`` entries, or two whole children (a
block of at least ``B`` entries, or a regular tree of more than ``2B``),
and rebuilds any other pair from its entries: where one side is a block,
the other side's entries are spliced into it (the larger block, where
both are), so only that other side is decoded.  So a block that
overflows into two is linked beside its sibling block, not flattened with
it, and one that underflows below ``B`` is merged into its sibling block
with one decode.  ``_join`` tests the balance of its pair once and hands a
balanced pair, which every level of a point update's path copy is,
straight to ``_node``.  A point update therefore builds just the one block
it changes and allocates one regular node per level: its untouched
sibling block is shared, not rebuilt.  The bulk walks' path copies skip
even that: where both results of a node are whole trees (``_whole``) that
balance, ``ordmap._glue`` links them with ``_make_regular`` directly, the
node ``_node`` would make; every other pair, a caller's unfolded block
among them, still goes through ``_concat`` and ``_as_tree``.

Blocks are edited in place.  ``_edit`` is the one block edit: a point
update's block, the cut of a boundary block by ``_slice``, the two halves
``_open`` cuts, the block ``_pop_last`` shortens and the merge of
``_node`` are all a block with a range of its entries replaced.  Where
the codec splices (``EncodingScheme.splice``: identity and object), the
new block's payload is the old one spliced, its bounds are read in place,
and a result over ``2B`` entries is cut into two payload slices at its
middle entry, as ``_rebuild`` would cut it.  So an in-block insert,
overwrite or remove on those codecs decodes nothing and builds one block,
and an overflow decodes nothing and builds two; a sequence's cuts,
appends and merges splice the same way, since its blocks are object
blocks with keys None.  Elsewhere (the delta codec, augmented contexts,
and a boundary cut left as an entry run below ``B``) the block's columns
are sliced around the new entries and the result is written from them,
once: the columns are read by ``_view``, so a boundary run cut from an
identity or object block decodes nothing, and a delta block is read once
(``_columns``).

No path but the public ``unfold`` expands a block into regular nodes; the
public ``expose`` cuts a block into two blocks like ``_open`` does.  An
unfolded block is the one regular tree of at most ``2B`` entries a caller
can hold, and ``_as_tree`` (public ``fold``) packs it back into one
block: no valid tree has a regular subtree that small.  Inside a walk
every child is valid, so ``_node`` links without folding.  The fold
happens at the public boundary: ``join`` (``node``) and ``join2``, the
only operations that can link a caller's tree beside a larger one, fold
their inputs first (O(1) on a valid tree), and the wrappers that can hand
back an input or a piece of one (``split``, ``split_last``, the point and
bulk operations, ``map_values`` and ``reverse``) end in ``_as_tree``, the
one finishing step, which also turns an entry run into its block.  So
every public operation accepts an unfolded block and returns a valid
tree.

Key order is a caller's promise only at the public ``join`` (``node``)
and ``join2``: on an ordered context they read the boundary keys of their
inputs and raise ``ContractError`` before they retain anything.  Every
internal link orders its keys by construction, and ``check_tree`` is the
test-time check.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import itemgetter

from .counters import counters
from .encoding import EncodingScheme, _Entries, make_codec
from .errors import ContractError
from .nodes import Flat, new_flat, new_regular, release, retain, size, weight
from .parallel import _release, fork2

ALPHA_MAX = 1.0 - 1.0 / math.sqrt(2.0)

@dataclass(frozen=True)
class Config:
    """Tree shape parameters.

    alpha: weight-balance factor; B (block_size): block capacity lower
    bound.
    """

    alpha: float = 0.29
    block_size: int = 128

    def __post_init__(self):
        # below 1/4, balance would let a block under B sit beside 4B
        # entries, a pair that _node links without rebuilding
        if not 0.25 <= self.alpha <= ALPHA_MAX + 1e-12:
            raise ValueError(f"alpha must be in [1/4, 1 - 1/sqrt(2)]; got {self.alpha}")
        # exactly an int: neither 2.5 nor True is a block size
        if type(self.block_size) is not int or self.block_size < 1:
            raise ValueError(f"block size must be an int of at least 1; "
                             f"got {self.block_size!r}")


@dataclass(frozen=True)
class Context:
    """Everything an operation needs to know about a tree family."""

    config: Config
    codec: EncodingScheme
    aug: object = None        # AugSpec or None
    ordered: bool = True


def make_context(block_size=128, alpha=0.29, encoding=None, aug=None,
                 ordered=True, value_width=8):
    cfg = Config(alpha=alpha, block_size=block_size)
    return Context(config=cfg, codec=make_codec(encoding, value_width),
                   aug=aug, ordered=ordered)


# ---------------------------------------------------------------------------
# reading


# the sort and bisect key of an entry; a C callable, cheaper per call than
# a Python function
_entry_key = itemgetter(0)
_entry_value = itemgetter(1)


def _unzip(entries):
    """The key column and the value column of an entry list."""
    return list(map(_entry_key, entries)), list(map(_entry_value, entries))


def _columns(ctx, t):
    """(keys, values) of block t, values None where the codec stores none,
    counted as one decode."""
    counters.decodes += 1
    return ctx.codec.columns(t.payload, t.count)


def _values(ctx, t):
    """The value column of block t, None where the codec stores none,
    counted as one decode: read in place where the codec has a view, else
    the codec's ``values``."""
    counters.decodes += 1
    at = ctx.codec.view(t.payload, t.count)
    return ctx.codec.values(t.payload, t.count) if at is None else at.values


def _view(ctx, t):
    """The entries of block t as an ``_Entries`` view of its columns: read
    in place where the codec has a view (``EncodingScheme.view``), so the
    block decodes nothing, else its columns (``_columns``), read once for
    every read that follows."""
    return ctx.codec.view(t.payload, t.count) or _Entries(*_columns(ctx, t))


def _search(ctx, t, k):
    """(pos, entries) for key k in block t: pos is bisect_left of k among
    the block's keys, entries its ``_view``."""
    at = _view(ctx, t)
    return bisect_left(at.keys, k), at


def flatten(ctx, t, out=None):
    """In-order entries of ``t`` as a list (read-only): each block's two
    columns (``_columns``) zipped."""
    if out is None:
        out = []
    if t is None:
        return out
    if type(t) is Flat:
        keys, values = _columns(ctx, t)
        out.extend(zip(keys, repeat(None) if values is None else values))
        return out
    flatten(ctx, t.left, out)
    out.append((t.key, t.value))
    flatten(ctx, t.right, out)
    return out


def keys(ctx, t, out=None):
    """In-order keys of ``t`` as a list (read-only): each block's key
    column."""
    if out is None:
        out = []
    if t is None:
        return out
    if type(t) is Flat:
        out.extend(_columns(ctx, t)[0])
        return out
    keys(ctx, t.left, out)
    out.append(t.key)
    keys(ctx, t.right, out)
    return out


def items(ctx, t):
    """In-order iterator over entries.  It decodes every block up front:
    it iterates ``flatten``'s list."""
    return iter(flatten(ctx, t))


to_list = flatten


def aug_of(ctx, t):
    if t is None:
        return ctx.aug.identity
    return t.aug


def first_key(ctx, t):
    while type(t) is not Flat:
        if t.left is None:
            return t.key
        t = t.left
    return t.first_key


def last_key(ctx, t):
    while type(t) is not Flat:
        if t.right is None:
            return t.key
        t = t.right
    return t.last_key


# ---------------------------------------------------------------------------
# construction


def _entries_aug(ctx, keys, values):
    """The aggregate of the entries of a key column and a value column
    (None for a set).  A spec's column fold (``AugSpec.fold_values``)
    reads the values alone.  The fold of a whole block, of the part of a
    boundary block ``aug_range`` reads, and, under a spec with an
    inverse, of the entries a merge replaced, dropped, added or changed
    (``ordmap._merge``, which updates the block's aggregate by their
    difference)."""
    spec = ctx.aug
    if values is None:
        values = repeat(None, len(keys))
    if spec.fold_values is None:
        return reduce(spec.combine, map(spec.lift, zip(keys, values)),
                      spec.identity)
    return spec.fold_values(values)


def _make_flat(ctx, keys, values, aug=None):
    """Block over a sorted key column and its value column (None for a
    set), written by the codec's ``encode_columns``.  Its aggregate is
    ``aug`` where the caller has it: ``ordmap._merge`` updates a block's
    aggregate by difference under a spec with an inverse, and writes its
    result here where it is one block.  None folds the entries
    (``_entries_aug``) on an augmented context."""
    counters.folds += 1
    payload = ctx.codec.encode_columns(keys, values)
    if aug is None and ctx.aug:
        aug = _entries_aug(ctx, keys, values)
    # a sequence's keys are None, so its bounds are too
    return new_flat(len(keys), payload, keys[0], keys[-1], aug)


def _edit_keys(ctx, t, keys, insert):
    """Set block t with the sorted, distinct ``keys`` inserted (or
    deleted) in place by the codec's ``edit_keys``, counted as one decode
    and, where it changed the block, one fold: t itself (retained) where
    it changed nothing, and None where the codec does not edit in place.
    Borrows t; the caller keeps the result within one block's count."""
    edited = ctx.codec.edit_keys(t.payload, t.count, t.first_key,
                                 t.last_key, keys, insert)
    if edited is None:
        return None
    counters.decodes += 1
    payload, count, first, last = edited
    if payload is t.payload:
        return retain(t)
    counters.folds += 1
    return new_flat(count, payload, first, last, None)


def _make_regular(ctx, l, e, r, s):
    """Regular node of s entries over l, e and r (its caller knows s);
    consumes l and r, and releases them if the aggregate (a user's
    ``lift`` or ``combine``) raises."""
    aug = None
    if ctx.aug:
        spec = ctx.aug
        try:
            aug = spec.combine(
                spec.identity if l is None else l.aug,
                spec.combine(spec.lift(e),
                             spec.identity if r is None else r.aug))
        except BaseException:
            release(l)
            release(r)
            raise
    return new_regular(e[0], e[1], l, r, s, aug)


def _rebuild(ctx, keys, values, lo=0, hi=None, cap=None):
    """Owned tree over the entries [lo, hi) of a sorted key column and its
    value column (None for a set): one block up to ``cap`` entries
    (default 2B), else blocks of B..2B under balanced regular nodes, split
    at the middle entry.  ``unfold`` passes ``cap=0`` for a tree of
    regular nodes only.  Blocks are written from the columns
    (``_make_flat``), each folding its own aggregate."""
    if hi is None:
        hi = len(keys)
    if cap is None:
        cap = 2 * ctx.config.block_size
    n = hi - lo
    if n == 0:
        return None
    if n <= cap:
        return _make_flat(ctx, keys[lo:hi],
                          None if values is None else values[lo:hi])
    mid = lo + n // 2
    l, r = fork2(ctx, n,
                 lambda: _rebuild(ctx, keys, values, lo, mid, cap),
                 lambda: _rebuild(ctx, keys, values, mid + 1, hi, cap))
    e = keys[mid], None if values is None else values[mid]
    return _make_regular(ctx, l, e, r, n)


def _edit(ctx, t, i, j, new=(), entries=None, hi=None, run=False):
    """Entries [0, hi) of block t (default: all of them) with [i, j)
    replaced by the entry list ``new``, built as ``_rebuild`` builds
    them, or as ``_run_or_tree`` with ``run``; borrows t.  ``entries`` is
    t's ``_view``, if its caller has one.  The one block edit: where the
    codec splices, t's payload is spliced, and a result over 2B entries is
    cut into two payload slices at its middle entry, read from the
    spliced payload in place (the codec's ``view``).  On an augmented
    context, where the codec cannot splice, and for a run below B, t's
    columns (``_view``) are sliced around ``new`` and the result written
    from them.  Maps and sequences edit alike: a sequence's block is a
    block with keys None."""
    codec, n, B = ctx.codec, t.count, ctx.config.block_size
    c = (n if hi is None else hi) - j + i + len(new)
    if not c:
        return None
    p = None
    if not ctx.aug and (c >= B or not run):
        p = codec.splice(t.payload, n, i, j, new)
    if p is None:
        at = entries or _view(ctx, t)
        keys, values = at.keys, at.values
        keys = [*keys[:i], *map(_entry_key, new), *keys[j:hi]]
        if values is not None:
            values = [*values[:i], *map(_entry_value, new), *values[j:hi]]
        return (_run_or_tree if run else _rebuild)(ctx, keys, values)
    full = n - j + i + len(new)
    at = codec.view(p, full)

    def block(a, b):    # entries [a, b) of the result, over its payload
        counters.folds += 1
        q = p if b - a == full else codec.splice(
            codec.splice(p, full, b, full, ()), b, 0, a, ())
        return new_flat(b - a, q, at[a][0], at[b - 1][0], None)

    if c <= 2 * B:
        return block(0, c)
    left = block(0, c // 2)
    return _make_regular(ctx, left, at[c // 2],
                         _guard((left,), block, c // 2 + 1, c), c)


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


def _entries(ctx, l, e, r):
    """In-order entries of l, e and r; consumes l and r."""
    try:
        entries = flatten(ctx, l)
        entries.append(e)
        return flatten(ctx, r, entries)
    finally:
        release(l)
        release(r)


def _guard(held, f, *args):
    """f(*args), releasing the pieces in ``held`` if it raises: what a
    function still owns while f runs (an entry run holds no node).  The
    hot paths do without it: the joins' recursions inline the same
    try/except, which costs nothing until it raises, where a call through
    here costs a frame, and ``_node`` links children it need not fold."""
    try:
        return f(*args)
    except BaseException:
        for t in held:
            _release(t)
        raise


def _whole(B, t):
    """True for a child a blocked tree may hold: a block of at least B
    entries, or a regular tree of more than 2B.  A fragment below B (an
    entry run too) and a caller's unfolded block are not whole."""
    return (t.count >= B if type(t) is Flat else
            t is not None and type(t) is not list and t.size > 2 * B)


def _node(ctx, l, e, r, n=None):
    """Smart constructor (n: the entries of l and r, if the caller has
    counted them); consumes l and r and restores the leaf rules.

    The one place that decides between linking and flattening, by the leaf
    rule: it links a pair of at least 4B entries, or two whole children
    (``_whole``), and rebuilds any other pair from its entries: one block
    up to 2B, else blocks under regular nodes.  Its callers hand it
    balanced pairs, or pairs where one side is a fragment (a run's block,
    or half of a block ``_open`` cut).  It never folds a child: a caller's
    unfolded block is folded by the public ``join`` and ``join2`` before it
    gets here.
    """
    B = ctx.config.block_size
    if n is None:
        n = size(l) + size(r)
    if n >= 4 * B or (_whole(B, l) and _whole(B, r)):
        # A fragment below B never sits in a pair of 4B entries that
        # balances: its weight ratio would be below B/(4B+2) < 1/4 <= alpha.
        return _make_regular(ctx, l, e, r, n + 1)
    # a block keeps its entries in its payload, and the other side's are
    # spliced in: an underflow joins its sibling block decoding only itself
    t = r if type(r) is Flat and size(l) <= r.count else l
    if type(t) is not Flat:
        return _rebuild(ctx, *_unzip(_entries(ctx, l, e, r)))
    i = 0 if t is r else t.count
    try:
        new = _entries(ctx, None if t is l else l, e, None if t is r else r)
        return _edit(ctx, t, i, i, new)
    finally:
        release(t)


# ---------------------------------------------------------------------------
# join


def _balanced_pair(cfg, wl, wr):
    w = wl + wr
    return cfg.alpha * w <= wl <= (1.0 - cfg.alpha) * w


def _join(ctx, l, e, r):
    # a balanced pair (every level of a path copy) goes straight to _node
    wl, wr = size(l) + 1, size(r) + 1
    if _balanced_pair(ctx.config, wl, wr):
        return _node(ctx, l, e, r, wl + wr - 2)
    return (_join_right if wl > wr else _join_left)(ctx, l, e, r)


def _join_right(ctx, tl, k, tr):
    cfg = ctx.config
    # a balanced pair, or a lone block heavier than tr: _node links it
    # beside a whole block (their weight ratio is at least (B+1)/(3B+2) >
    # 1/3 > ALPHA_MAX) and merges it with a fragment
    if type(tl) is Flat or _balanced_pair(cfg, weight(tl), weight(tr)):
        return _node(ctx, tl, k, tr)
    l, e0, c = _destructure(ctx, tl)
    try:
        t2 = _join_right(ctx, c, k, tr)
    except BaseException:
        release(l)
        raise
    wl, w2 = weight(l), weight(t2)
    if _balanced_pair(cfg, wl, w2):
        return _node(ctx, l, e0, t2, wl + w2 - 2)
    # rotations.  t2 is a regular node: it outweighs l, a whole tree, by
    # (1-alpha)/alpha > 2, so it holds more than 2B entries.  Its inner
    # child l1 can be a block at any B (B=100: a root over blocks of 101
    # and 200 entries joined with one of 110), which _open cuts in two.
    l1, e1, r1 = _guard((l,), _open, ctx, t2)
    if (_balanced_pair(cfg, wl, weight(l1))
            and _balanced_pair(cfg, wl + weight(l1), weight(r1))):
        return _node(ctx, _guard((r1,), _node, ctx, l, e0, l1), e1, r1)
    l2, e2, r2 = _guard((l, r1), _open, ctx, l1)
    left = _guard((r2, r1), _node, ctx, l, e0, l2)
    return _node(ctx, left, e2, _guard((left,), _node, ctx, r2, e1, r1))


def _join_left(ctx, tl, k, tr):
    cfg = ctx.config
    if type(tr) is Flat or _balanced_pair(cfg, weight(tl), weight(tr)):
        return _node(ctx, tl, k, tr)
    c, e0, r = _destructure(ctx, tr)
    try:
        t2 = _join_left(ctx, tl, k, c)
    except BaseException:
        release(r)
        raise
    w2, wr = weight(t2), weight(r)
    if _balanced_pair(cfg, w2, wr):
        return _node(ctx, t2, e0, r, w2 + wr - 2)
    l1, e1, r1 = _guard((r,), _open, ctx, t2)
    if (_balanced_pair(cfg, weight(r1), wr)
            and _balanced_pair(cfg, weight(r1) + wr, weight(l1))):
        return _node(ctx, l1, e1, _guard((l1,), _node, ctx, r1, e0, r))
    l2, e2, r2 = _guard((l1, r), _open, ctx, r1)
    left = _guard((r2, r), _node, ctx, l1, e1, l2)
    return _node(ctx, left, e2, _guard((left,), _node, ctx, r2, e0, r))


def _locate(ctx, t, k):
    """(number of keys below k, the entry at k or None); read-only.  The
    position a keyed split or a key range hands to ``_slice``."""
    n = 0
    while t is not None:
        if type(t) is Flat:
            if k < t.first_key:
                return n, None
            if k > t.last_key:
                return n + t.count, None
            pos, entries = _search(ctx, t, k)
            e = entries[pos]
            return n + pos, e if e[0] == k else None
        if k == t.key:
            return n + size(t.left), (t.key, t.value)
        if k < t.key:
            t = t.left
        else:
            n += size(t.left) + 1
            t = t.right
    return n, None


def _open(ctx, t):
    """(left, entry, right) of a nonempty tree; consumes t.  A block is
    cut at its middle entry into two blocks."""
    if type(t) is not Flat:
        return _destructure(ctx, t)
    try:
        entries, m = _view(ctx, t), t.count // 2
        left = _edit(ctx, t, m, t.count, (), entries)
        return left, entries[m], _guard((left,), _edit, ctx, t, 0, m + 1,
                                        (), entries)
    finally:
        release(t)


def _pop_last(ctx, t):
    """(t without its last entry, as a tree or an entry run; that entry);
    borrows t.  A walk down the right spine: only the last block is
    edited."""
    if type(t) is Flat:
        n, entries = t.count, _view(ctx, t)
        return _edit(ctx, t, n - 1, n, (), entries, run=True), entries[n - 1]
    if t.right is None:
        return retain(t.left), (t.key, t.value)
    rest, last = _pop_last(ctx, t.right)
    return _concat(ctx, retain(t.left), (t.key, t.value), rest), last


def _join2(ctx, l, r):
    if l is None or r is None:
        return l or r
    try:
        rest, m = _pop_last(ctx, l)
    except BaseException:
        release(r)
        raise
    finally:
        release(l)
    return _concat(ctx, rest, m, r)


# ---------------------------------------------------------------------------
# fragments: entry runs and the glue that links them


def _run_or_tree(ctx, keys, values):
    """A base case's result from a key column and its value column (None
    for a set): their entries zipped into an entry run while there are
    fewer than B of them; else their tree (``_rebuild``)."""
    if len(keys) < ctx.config.block_size:
        return list(zip(keys, repeat(None) if values is None else values))
    return _rebuild(ctx, keys, values)


def _is_run(x):
    """True for an entry run or nothing: what ``_concat`` concatenates."""
    return x is None or type(x) is list


def _as_tree(ctx, x):
    """The one finishing step; consumes x.  An entry run becomes one block,
    and a regular tree of at most 2B entries is folded into one; any other
    tree passes through.  No valid blocked tree has a regular subtree that
    small (the smallest holds 2B+1 entries), so the fold repairs exactly
    the all-regular fragments ``unfold`` hands out; ``_node``, which links
    no pair that small, rebuilds it from its entries."""
    if type(x) is list:
        return _rebuild(ctx, *_unzip(x))
    if x is None or type(x) is Flat or x.size > 2 * ctx.config.block_size:
        return x
    return _node(ctx, *_destructure(ctx, x))


def _concat(ctx, left, e, right):
    """left, then the entry e (None for none), then right, where left and
    right are trees or entry runs; consumes both.  Two runs are
    concatenated, and stay a run below B entries; a run that meets a tree
    becomes one block, which the join absorbs.  With no entry, a nonempty
    run beside a tree gives up its entry next to the seam (its last, or
    the right run's first), so only two trees reach ``_join2``.  A run
    whose block raises (a combine result the codec rejects) releases the
    other side."""
    if _is_run(left) and _is_run(right):
        run = (left or []) + ([] if e is None else [e]) + (right or [])
        return run if len(run) < ctx.config.block_size else _as_tree(ctx, run)
    if e is None and _is_run(left) and left:
        left, e = left[:-1], left[-1]
    elif e is None and _is_run(right) and right:
        e, right = right[0], right[1:]
    left = _guard((right,), _as_tree, ctx, left)
    right = _guard((left,), _as_tree, ctx, right)
    if e is None:
        return _join2(ctx, left, right)
    return _join(ctx, left, e, right)


def _slice(ctx, t, i, j):
    """Entries at positions [i, j) of t, 0 <= i <= j <= size(t); borrows
    t.  A read-only walk by position: a subtree wholly inside is shared,
    one wholly outside is skipped, and only the boundary blocks are
    edited.  Returns a tree, or an entry run of fewer than B entries."""
    if i >= j:
        return None
    if i == 0 and j == size(t):
        return retain(t)
    if type(t) is Flat:
        return _edit(ctx, t, 0, i, hi=j, run=True)
    sl = size(t.left)
    if j <= sl:
        return _slice(ctx, t.left, i, j)
    if i > sl:
        return _slice(ctx, t.right, i - sl - 1, j - sl - 1)
    left = _slice(ctx, t.left, i, sl)
    right = _guard((left,), _slice, ctx, t.right, 0, j - sl - 1)
    return _concat(ctx, left, (t.key, t.value), right)


# ---------------------------------------------------------------------------
# public wrappers: borrow inputs


def expose(ctx, t):
    """(left, entry, right) of the root; a block is sliced at its middle
    entry into two blocks (one decode, no unfold)."""
    if t is None:
        raise ContractError("expose of an empty tree")
    return _open(ctx, retain(t))


def fold(ctx, t):
    """Pack a regular tree of at most 2B entries (such as an unfolded
    block) into one block; any other tree passes through.  Borrows t."""
    return _as_tree(ctx, retain(t))


# a second public name for fold, kept for callers
refold = fold


def unfold(ctx, t):
    """Expand a block into a perfectly balanced all-regular tree (one
    unfold); ``fold`` packs it back."""
    if t is None or type(t) is not Flat:
        raise ContractError("unfold expects a flat node")
    keys, values = _columns(ctx, t)
    counters.unfolds += 1
    return _rebuild(ctx, keys, values, cap=0)


def join(ctx, l, e, r):
    """Concatenate l, e, r into a balanced tree; keys(l) < key(e) < keys(r),
    checked on an ordered context before any input is touched."""
    if ctx.ordered:
        if l is not None and not last_key(ctx, l) < e[0]:
            raise ContractError(f"key order violated on the left of {e[0]!r}")
        if r is not None and not e[0] < first_key(ctx, r):
            raise ContractError(f"key order violated on the right of {e[0]!r}")
    l = fold(ctx, l)
    return _join(ctx, l, e, _guard((l,), fold, ctx, r))


# node is join: a balanced pair is linked in O(1) (``_join`` hands it
# straight to ``_node``), and any other pair is rebalanced
node = join


def join2(ctx, l, r):
    """Concatenate two trees with no middle entry; keys(l) < keys(r),
    checked on an ordered context before any input is touched."""
    if (ctx.ordered and l is not None and r is not None
            and not last_key(ctx, l) < first_key(ctx, r)):
        raise ContractError("key order violated between the two trees")
    l = fold(ctx, l)
    return _join2(ctx, l, _guard((l,), fold, ctx, r))


def split(ctx, t, k):
    """(tree of keys < k, entry at k or None, tree of keys > k): two
    read-only slices by position, so a boundary block is decoded once for
    each side."""
    i, e = _locate(ctx, t, k)
    l = _as_tree(ctx, _slice(ctx, t, 0, i))
    r = _guard((l,), _slice, ctx, t, i + (e is not None), size(t))
    return l, e, _guard((l,), _as_tree, ctx, r)


def split_last(ctx, t):
    """(tree minus its maximum entry, that entry)."""
    if t is None:
        raise ContractError("split_last of an empty tree")
    rest, e = _pop_last(ctx, t)
    return _as_tree(ctx, rest), e
