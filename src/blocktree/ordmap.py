"""Bulk algorithms over ordered maps and sets.

All operations are persistent: callers keep their input handles, results are
freshly owned trees sharing structure with the inputs.  Key collisions are
resolved by a ``combine`` callback, called as ``combine(t1 value, t2 value)``
by ``union`` and ``intersection`` and as ``combine(existing, incoming)`` by
``insert`` and ``multi_insert``; the default keeps the second value.

All five bulk operations run one recursion, ``_batch``: it bisects a sorted
entry run at the tree's root and joins the two recursive results, and an op
triple (``_UNION``, ``_INTERSECTION``, ``_DIFFERENCE``) says which entries
to keep: those only in the tree, those only in the run, and keys in both
(through ``combine``).  The second element may be a function instead: a
run-only entry then stores that function of its value, which is how
``graphstore.insert_edges`` stores a set written from a new source's ids.
``multi_insert`` is a union with its batch and ``multi_delete`` a
difference.  A set operation reads its smaller operand as the run
(flattened once) and recurses on the larger; when the smaller one is
``t1``, ``_setop`` mirrors the op triple and flips ``combine``, so it is
still called as ``combine(t1 value, t2 value)``.  The base case is the
block: where the run reaches a block, ``_merge`` reads it as a key column
and a value column (``core._columns``, which every codec reads), merges the
run into them and returns the fragment ``_batch`` returns, written as
``core._run_or_tree`` writes it: a block of B..2B entries straight through
the codec's ``encode_columns``, more cut at the middle entry as
``core._rebuild`` cuts, fewer zipped into an entry run.  ``_bulk``, behind
every public bulk operation, is ``_batch`` over the whole run finished by
``core._as_tree``, which writes a result below B as its one block.  Under
an aggregate spec with an inverse (``AugSpec.inverse``: the graph store's
edge count), an op that keeps the block's other entries has ``_merge``
write a result of one block of B..2B entries with the block's aggregate
updated by difference, its old one combined with the fold of the entries
the merge added or changed and inverted by that of the entries it
replaced or dropped (``core._make_flat``); every other block folds its
entries whole.
A run below a quarter of the block gallops (Demaine, López-Ortiz and
Munro, SODA 2000): each run key is bisected into the key column and the
stretch before it copied as a slice; a longer run walks the block entry by
entry.  A run of at most ``_EDIT`` (4)
keys is not merged as columns where it meets a block of a set it only
inserts into or deletes from: under ``_UNION`` with the default ``combine``
and a run that carries no values, or under ``_DIFFERENCE`` (a graph batch's
per-source update, and a ``multi_insert``, ``multi_delete``, ``union`` or
``difference`` with a few keys), on a context with no aggregate, where the
result is one block whatever the run hits (at most 2B entries, and at least
B, or 1 where the block is below B and so the whole tree).  There
``_merge`` hands the keys to the codec's ``edit_keys``
(``core._edit_keys``): the delta codec edits a set block's gap varints in
place, and hands back the block itself where nothing changes.  That counts one decode, and one fold where the
block changes, as the merge does; a codec without the method, a delta codec
that stores values, a user ``combine`` (which the merge calls on every hit)
and any other count take the merge.  The threshold is measured: on the edge
blocks of an R-MAT graph, up to 4 ids edit in 0.29-0.74 times the merge's
time.  Every block the run does not reach stays shared, so a batch of k
keys re-encodes about k blocks.  A node
whose run lies wholly on one side of its key recurses into that side alone,
and shares the other child (or drops it, under an op that keeps no
tree-only entry) with no ``fork2``; only a node whose run splits forks its
two branches.  Under an op that keeps the tree's own entries (``union``,
``multi_insert``, ``multi_delete``, ``difference``,
``graphstore.delete_edges``), a block whose run adds no entry and changes
none of its entries is shared too, and so is a regular node whose two
results are its own children and whose entry is kept unchanged (``_glue``,
which ``_filter_tree`` shares).  A key the run hits changes nothing where
``combine`` returns the stored value object itself.  So a delete batch that
misses every key, or every edge of its sources, and a ``multi_insert`` of
present keys whose ``combine`` keeps the stored values, build nothing and
return their input.  Results follow ``core``'s fragment convention: a merge
result of fewer than B entries travels up as an entry run (a plain
sorted list) instead of a tree, and a regular node glues its two results
and its kept entry with ``core._concat``: two runs are concatenated and
encoded once they reach B, as one block; a run that meets a tree becomes
one block that the join absorbs, and a run beside a dropped entry gives up
its entry at the seam as the join's middle.  Two results that are whole
trees (``core._whole``) and balance beside a kept entry are linked by one
regular node directly (``core._make_regular``), the link ``_concat`` would
reach through ``_as_tree`` and ``_join``; two trees of exactly
the sizes of the node's children keep its shape and are linked so without a
balance test (every node of a graph delete, and of a graph insert that adds
no vertex).  So a sparse intersection encodes its result about once instead
of joining one undersized fragment per block.
``_filter_tree`` follows the same convention and ends in the same
``_concat``, and every public operation turns the final result into a
tree with ``core._as_tree``.  No bulk operation unfolds a block, and
each decodes every input block about once: the joins link the blocks a
merge makes beside their neighbours instead of decoding them again.  Over
900 seeded AC4-shaped unions (B in {1, 2, 8, 128}, all three codecs, 75
each) the worst count is 1.0 times the block count of the two inputs.
The cost of reading the smaller operand entry by entry shows when the key
ranges are disjoint: no subtree of the run is shared, so a union of 10^5
and 10^4 entries with disjoint ranges re-encodes the 10^4, still O(m):
9 ms at B=128 with the delta codec (Python 3.11), where joining the
shared subtrees took 0.6 ms.
``union_efficient`` is the same function as ``union``.

A point operation is one walk from the root to a block.  ``get_entry``
(behind ``find`` and ``contains``) is the lookup walk: it stops at a
regular node holding the key, and searches no block whose bounds exclude
it.  ``insert`` and ``remove`` are one ``_update`` walk each, a path copy
on the way back up; an ``insert`` with its own ``combine`` runs it where
the walk finds the key.  The walk edits one block (``core._edit``: where
the codec splices, a result that stays one block is the spliced payload
itself, and under an aggregate spec with an inverse the block's aggregate
is updated by difference), and each level links its copied child beside
the shared sibling through ``core._join``, which links a balanced pair of
at least 4B entries itself, one node in one call, and hands a smaller one
to ``core._node``.  A remove that finds nothing copies nothing and
returns its input itself, and searches no block whose bounds exclude the
key either.

``rank`` is the position search of a keyed split (``core._locate``), and
``key_range`` reads the positions ``[rank(lo), rank(hi) + (hi present))``
with ``core._slice``, the read-only walk by position that also serves
``split`` and the sequence slices ``take``, ``drop`` and ``subseq``.  A
subtree wholly inside the range is shared, one wholly outside is skipped,
and only the two boundary blocks are cut (``core._edit``: a payload
slice where the codec splices and the piece keeps B entries or more);
pieces below B travel as entry runs, as in ``_batch``.  So the discarded
sides cost nothing: a ~100-entry range at B=128 makes one block (one
allocation, one encode), and a range that covers most of the map shares
its covered subtrees and allocates O(depth) nodes.

``multi_insert`` checks every incoming entry against the codec before its
walk starts, and ``insert`` checks the entry it stores (``combine``'s result
on a hit, the incoming entry on a miss) where its walk finds the key's
place, so an entry the codec rejects builds nothing.
``union``, ``intersection`` and ``multi_insert`` check each ``combine``
result where it is made, in ``_merge`` and in the recursion alike: a
merged delta value column is an array, which would store ``True`` as 1
and which its writer writes unchecked.  ``map_values`` checks each ``f``
result where it is stored: a block's writer checks the mapped column it
writes (a list), and the recursion the value it keeps in a regular node.
A rejected result raises the same ``CodecError`` wherever it lands and
leaves the inputs intact.

Every recursion here borrows the tree it reads and retains only what it
shares into its result, once its own recursive calls have returned;
``filter``, ``map_values`` and ``_batch`` call the user's callback on a
node's own entry before its branches run, ``fork2`` releases the result
of one branch when the other raises, and the glue (``core._concat`` and
the joins) releases what it holds.  So a ``combine``, a predicate, an ``f``,
an aggregate, a codec check or a decode that raises leaves the inputs
intact and no node behind.
"""

from array import array
from bisect import bisect_left
from itertools import repeat

from .core import (_as_tree, _balanced_pair, _columns, _concat, _edit,
                   _edit_keys, _entries_aug, _entry_key, _join, _join2,
                   _locate, _make_flat, _make_regular, _rebuild, _run_or_tree,
                   _search, _slice, _unzip, _values, _whole, flatten)
from .errors import ContractError
from .nodes import Flat, release, retain, size
from .parallel import fork2

_RIGHT = lambda a, b: b


def _normalize(batch, combine):
    """The key column and the value column of a batch stably sorted by
    key, with duplicate keys folded through combine."""
    keys, values = [], []
    for k, v in sorted(batch, key=_entry_key):
        if keys and keys[-1] == k:
            values[-1] = combine(values[-1], v)
        else:
            keys.append(k)
            values.append(v)
    return keys, values


def build(ctx, pairs, combine=_RIGHT):
    """Tree over an unsorted entry sequence; duplicate keys combined."""
    return _rebuild(ctx, *_normalize(pairs, combine))


def from_sorted(ctx, entries):
    """Tree over strictly increasing entries."""
    entries = list(entries)
    for i in range(1, len(entries)):
        if not entries[i - 1][0] < entries[i][0]:
            raise ContractError("from_sorted requires strictly increasing keys")
    return _rebuild(ctx, *_unzip(entries))


# ---------------------------------------------------------------------------
# point queries (read-only)


def get_entry(ctx, t, k):
    """The entry at k, or None: the lookup walk.  A block whose bounds
    exclude k is not searched."""
    while t is not None:
        if type(t) is Flat:
            if k < t.first_key or k > t.last_key:
                return None
            pos, entries = _search(ctx, t, k)
            e = entries[pos]
            return e if e[0] == k else None
        if k == t.key:
            return t.key, t.value
        t = t.left if k < t.key else t.right
    return None


def find(ctx, t, k):
    e = get_entry(ctx, t, k)
    return None if e is None else e[1]


def contains(ctx, t, k):
    return get_entry(ctx, t, k) is not None


def rank(ctx, t, k):
    """Number of keys strictly below k."""
    return _locate(ctx, t, k)[0]


def next_entry(ctx, t, k):
    """Smallest entry with key strictly greater than k, or None."""
    best = None
    while t is not None:
        if type(t) is Flat:
            if t.last_key > k:
                # the first key at or above k, stepped past k itself
                pos, entries = _search(ctx, t, k)
                best = entries[pos]
                if best[0] == k:
                    best = entries[pos + 1]
            return best
        if t.key > k:
            best = (t.key, t.value)
            t = t.left
        else:
            t = t.right
    return best


def previous_entry(ctx, t, k):
    """Largest entry with key strictly less than k, or None."""
    best = None
    while t is not None:
        if type(t) is Flat:
            if t.first_key < k:
                pos, entries = _search(ctx, t, k)
                if pos > 0:
                    best = entries[pos - 1]
            return best
        if t.key < k:
            best = (t.key, t.value)
            t = t.right
        else:
            t = t.left
    return best


# ---------------------------------------------------------------------------
# point updates


def _stored(ctx, new, old, combine):
    """What an update stores where it finds its key's place: a remove's []
    as it is, and an insert's one entry (k, v) checked against the codec,
    as (k, combine(old value, v)) over ``old``, the entry at k (None on a
    miss)."""
    if not new:
        return new
    (k, v), = new
    if old is not None:
        v = combine(old[1], v)
    ctx.codec.check_entry(k, v)
    return [(k, v)]


def _update(ctx, t, k, new, combine=_RIGHT):
    """t with its entry at k, if any, replaced by the list ``new``: one
    entry for an insert, none for a remove; borrows t.  An insert's entry
    is combined and checked (``_stored``) where the walk finds the key or
    its place, before anything is built.  A remove that finds nothing
    copies nothing and returns t itself, still borrowed (``remove``
    retains it): a block whose bounds exclude k is not searched, and a
    node whose child returned itself returns itself."""
    if t is None:
        return _rebuild(ctx, *_unzip(_stored(ctx, new, None, combine)))
    if type(t) is Flat:
        if new or t.first_key <= k <= t.last_key:
            pos, entries = _search(ctx, t, k)
            hit = pos < t.count and entries[pos][0] == k
            if hit or new:
                new = _stored(ctx, new, entries[pos] if hit else None, combine)
                return _edit(ctx, t, pos, pos + hit, new, entries)
        return t
    if k == t.key:
        new = _stored(ctx, new, (t.key, t.value), combine)
        l, r = retain(t.left), retain(t.right)
        return _join(ctx, l, new[0], r) if new else _join2(ctx, l, r)
    # the sibling is retained after the walk below returns: a walk that
    # raises holds nothing
    e = (t.key, t.value)
    if k < t.key:
        l = _update(ctx, t.left, k, new, combine)
        return t if l is t.left else _join(ctx, l, e, retain(t.right))
    r = _update(ctx, t.right, k, new, combine)
    return t if r is t.right else _join(ctx, retain(t.left), e, r)


def insert(ctx, t, k, v, combine=_RIGHT):
    """t with (k, v) added; an existing value at k becomes combine(old, v).

    One walk: combine runs once, at the hit, and what the insert stores
    (combine's result on a hit, (k, v) on a miss) passes the codec check
    there, before anything is built: a combine that raises, or whose
    result the codec rejects, builds nothing.
    """
    return _as_tree(ctx, _update(ctx, t, k, [(k, v)], combine))


def remove(ctx, t, k):
    """t without the entry at k, by one walk; an absent key copies nothing
    and returns t itself (an unfolded block comes back folded)."""
    r = _update(ctx, t, k, [])
    return _as_tree(ctx, retain(t) if r is t else r)


# ---------------------------------------------------------------------------
# set algebra


# Which entries a set operation keeps: (only in the first operand, only in
# the second, in both -- through combine).
_UNION = (True, True, True)
_INTERSECTION = (False, False, True)
_DIFFERENCE = (True, False, False)


# A run below a quarter of its block gallops: near a quarter, a bisect and
# two slices per run key cost what the walk spends stepping over the block
# entries between them (measured at 10-60 run keys against 86-256 entries).
_GALLOP = 4

# A run of at most this many keys is inserted into (or deleted from) a set
# block by the codec's in-place edit (``edit_keys``), where it has one: on
# the edge blocks of a 2x10^5-edge R-MAT graph at B=64, a run of 1 to 4
# ids edits a block in 0.29-0.74 times the merge's time, and one of 8 in
# 0.59-0.98 times.
_EDIT = 4


def _merge(ctx, t, arr, lo, hi, op, combine):
    """Block t, or the empty tree, under op with the sorted run arr[lo:hi]
    as second operand, as ``_batch`` returns it; borrows t.  The one
    merge: it reads the block as a key column and a value column
    (``core._columns``), copies stretches of both, and writes the merged
    columns as ``core._run_or_tree`` does: an entry run below B entries,
    else their tree.  A run below a quarter of the block gallops: each run
    key is bisected into the key column, and the stretch before it copied
    as a slice; a longer one steps through the block entry by entry.
    Under a spec with an inverse (``AugSpec.inverse``), on an op that
    keeps the block's other entries (``only_a``), the merge collects the
    entries it replaces or drops (``gone``) and those it adds or changes
    (``came``), and a result of one block of B to 2B entries is written
    with the aggregate ``inverse(combine(t.aug, fold(came)), fold(gone))``
    (``core._make_flat``), each side folded as a block is
    (``core._entries_aug``: the spec's ``fold_values`` where it has one);
    every other block folds its entries whole.  A run-only entry keeps its
    value, or stores ``op[1](value)`` where the op's second element is a
    function.  The value column is built in the block's own column type
    (an array slice for an array), and each ``combine`` and ``op[1]``
    result is checked against the codec where it is made: an array would
    store ``True`` as 1, and raises no ``CodecError`` for a value it
    cannot hold.  Where the op keeps no run-only entry and no key the run
    hits changed its entry (it is dropped, or ``combine`` returns the
    stored value object itself), the block is returned shared; the empty
    tree under an op that keeps no run-only entry gives None.  A run of
    at most ``_EDIT`` keys that only inserts or deletes keys, on a
    context with no aggregate, is handed to the codec's ``edit_keys``
    where the result is one block of B (1 for a block below B, which is
    a whole tree) to 2B entries whatever the run hits; where the codec
    edits the block in place, that block is returned."""
    only_a, only_b, both = op
    store = only_b if callable(only_b) else None
    check = ctx.codec.check_entry
    run = arr[lo:hi]
    if t is None:
        if not only_b:
            return None
        keys, vals = _unzip(run)
        if store is not None:
            vals = list(map(store, vals))
            for k, v in zip(keys, vals):
                check(k, v)
        return _run_or_tree(ctx, keys, vals)
    n, r, B = t.count, len(run), ctx.config.block_size
    # a short run of keys alone, inserted or deleted, whose result is one
    # block of least..2B entries whatever it hits: a block below B is a
    # whole tree, which may shrink to one entry
    least = B if n >= B else 1
    if (r <= _EDIT and not ctx.aug
            and (op is _DIFFERENCE or op is _UNION and combine is _RIGHT
                 and all(e[1] is None for e in run))
            and (n + r <= 2 * B if only_b else least <= n - r)):
        edited = _edit_keys(ctx, t, list(map(_entry_key, run)), only_b)
        if edited is not None:
            return edited
    gallop = _GALLOP * len(run) < t.count
    # the columns of the entries the merge replaces or drops (gone) and
    # of those it adds or changes (came), where the block's aggregate is
    # updated by their difference
    spec = ctx.aug
    diff = only_a and spec is not None and spec.inverse is not None
    if diff:
        gone_k, gone_v, came_k, came_v = [], [], [], []
    keys, vals = _columns(ctx, t)
    if vals is None:
        vals = [None] * t.count
    # the merged value column has the block's own column type where that
    # is an array, so kept stretches are copied as array slices
    ok, ov = [], vals[:0] if type(vals) is array else []
    hit = False
    i, n = 0, t.count
    for k, v in run:
        if gallop:
            p = bisect_left(keys, k, i)
            if only_a:
                ok += keys[i:p]
                ov += vals[i:p]
            i = p
        else:
            while i < n and keys[i] < k:
                if only_a:
                    ok.append(keys[i])
                    ov.append(vals[i])
                i += 1
        if i < n and keys[i] == k:
            if both:
                # read once: an array boxes a fresh int on every read
                old = vals[i]
                x = combine(old, v)
                if x is not old:
                    check(k, x)
                    hit = True
                    if diff:
                        gone_k.append(k)
                        gone_v.append(old)
                        came_k.append(k)
                        came_v.append(x)
                ok.append(k)
                ov.append(x)
            else:
                hit = True
                if diff:
                    gone_k.append(k)
                    gone_v.append(vals[i])
            i += 1
        elif only_b:
            if store is not None:
                v = store(v)
                check(k, v)
            ok.append(k)
            ov.append(v)
            hit = True
            if diff:
                came_k.append(k)
                came_v.append(v)
    # a run that adds and changes nothing leaves the block as it is
    if only_a and not hit:
        return retain(t)
    if only_a:
        ok += keys[i:]
        ov += vals[i:]
    if not (diff and B <= len(ok) <= 2 * B):
        return _run_or_tree(ctx, ok, ov)
    aug = t.aug
    if came_k:
        aug = spec.combine(aug, _entries_aug(ctx, came_k, came_v))
    if gone_k:
        aug = spec.inverse(aug, _entries_aug(ctx, gone_k, gone_v))
    return _make_flat(ctx, ok, ov, aug)


def _setop(ctx, t1, t2, op, combine):
    """t1 under op with t2 as second operand; borrows both.  The smaller
    operand is read as a sorted run and bisected by ``_batch``; when that is
    t1, the op triple is mirrored and combine still sees (t1 value, t2
    value)."""
    if size(t1) < size(t2):
        t1, t2 = t2, t1
        op = (op[1], op[0], op[2])
        combine = lambda a, b, f=combine: f(b, a)
    return _bulk(ctx, t1, flatten(ctx, t2), op, combine)


def union(ctx, t1, t2, combine=_RIGHT):
    return _setop(ctx, t1, t2, _UNION, combine)


def intersection(ctx, t1, t2, combine=_RIGHT):
    return _setop(ctx, t1, t2, _INTERSECTION, combine)


def difference(ctx, t1, t2):
    """Entries of t1 whose keys are absent from t2 (t1 keeps its values)."""
    return _setop(ctx, t1, t2, _DIFFERENCE, None)


# a second public name for union, kept for callers
union_efficient = union


# ---------------------------------------------------------------------------
# batch updates


def _glue(ctx, t, kept, l, e, r):
    """The results l and r of node t's children and its entry e glued by
    ``_concat``; consumes l and r.  Where they are t's own children and t's
    entry is ``kept`` unchanged, t itself is shared instead.  Two trees of
    exactly the sizes of t's children keep t's shape, and two whole trees
    that balance (what ``_concat`` would link) are linked by one regular
    node directly."""
    if kept and l is t.left and r is t.right:
        release(l)
        release(r)
        return retain(t)
    if (e is not None and type(l) is not list and type(r) is not list
            and size(l) == size(t.left) and size(r) == size(t.right)):
        return _make_regular(ctx, l, e, r, t.size)
    B = ctx.config.block_size
    if (e is not None and _whole(B, l) and _whole(B, r)
            and _balanced_pair(ctx.config, size(l) + 1, size(r) + 1)):
        return _make_regular(ctx, l, e, r, size(l) + size(r) + 1)
    return _concat(ctx, l, e, r)


def _batch(ctx, t, arr, lo, hi, op, combine):
    """t under op with the sorted entry run arr[lo:hi] as second operand;
    borrows t.  Returns None, t or a subtree of it shared, a block, an
    entry run below B entries (which ``_concat`` joins with its
    neighbors) or a tree.  A block, or the empty tree, is the merge's
    (``_merge``)."""
    only1, only2, both = op
    if lo >= hi:
        return retain(t) if only1 else None
    if t is None or type(t) is Flat:
        return _merge(ctx, t, arr, lo, hi, op, combine)
    e = (t.key, t.value)
    pos = bisect_left(arr, e[0], lo, hi, key=_entry_key)
    hit = pos < hi and arr[pos][0] == e[0]
    # whether t's entry stays as it is: a combine that returns the stored
    # value object itself changes nothing
    kept = only1
    if hit:
        # stored in a regular node, which no encode checks
        e = (_stored(ctx, [(e[0], arr[pos][1])], e, combine)[0] if both
             else None)
        kept = e is not None and e[1] is t.value
    elif not only1:
        e = None
    l, r, mid = t.left, t.right, pos + hit
    # a run wholly on one side recurses there only, and the other child is
    # shared or dropped as an empty run leaves it
    if pos == lo:
        tr = _batch(ctx, r, arr, mid, hi, op, combine)
        tl = retain(l) if only1 else None
    elif mid == hi:
        tl = _batch(ctx, l, arr, lo, pos, op, combine)
        tr = retain(r) if only1 else None
    else:
        tl, tr = fork2(ctx, t.size + (hi - lo),
                       lambda: _batch(ctx, l, arr, lo, pos, op, combine),
                       lambda: _batch(ctx, r, arr, mid, hi, op, combine))
    return _glue(ctx, t, kept, tl, e, tr)


def _bulk(ctx, t, arr, op, combine):
    """_batch over the whole run arr; borrows t and returns a tree."""
    return _as_tree(ctx, _batch(ctx, t, arr, 0, len(arr), op, combine))


def multi_insert(ctx, t, batch, combine=_RIGHT):
    arr = list(zip(*_normalize(batch, combine)))
    check = ctx.codec.check_entry
    for k, v in arr:
        check(k, v)
    return _bulk(ctx, t, arr, _UNION, combine)


def multi_delete(ctx, t, keys):
    arr = [(k, None) for k in sorted(set(keys))]
    return _bulk(ctx, t, arr, _DIFFERENCE, None)


# ---------------------------------------------------------------------------
# traversals


def _filter_tree(ctx, t, keep, prune=None):
    """Entries satisfying ``keep``; borrows t.  Returns a tree, or an entry
    run of fewer than B entries, like ``_batch``.

    Unchanged subtrees are returned shared rather than copied, so dropping a
    few entries touches O(depth) nodes, and the few entries kept of each
    block travel up as runs, encoded once they reach B or meet a tree.
    ``prune`` short-circuits whole subtrees (used by the augmented filter).
    A node tests its own entry before its branches run, so a ``keep`` that
    raises there holds nothing.
    """
    if t is None:
        return None
    if prune is not None and not prune(t):
        return None
    if type(t) is Flat:
        # the predicate takes entries, so the block is read as entries
        kept = [e for e in flatten(ctx, t) if keep(e)]
        if len(kept) == t.count:
            return retain(t)
        if len(kept) < ctx.config.block_size:
            return kept
        return _as_tree(ctx, kept)
    e = (t.key, t.value)
    if not keep(e):
        e = None
    fl, fr = fork2(ctx, t.size,
                   lambda: _filter_tree(ctx, t.left, keep, prune),
                   lambda: _filter_tree(ctx, t.right, keep, prune))
    return _glue(ctx, t, e is not None, fl, e, fr)


def filter(ctx, t, pred):
    """Entries for which pred((key, value)) holds, as a fresh tree."""
    return _as_tree(ctx, _filter_tree(ctx, t, pred))


def _map_values(ctx, t, f):
    """f applied to every value of t, in t's shape; borrows t.  A node maps
    its own value before its branches run, so an f that raises there holds
    nothing."""
    if t is None:
        return None
    if type(t) is Flat:
        # the value column mapped, and the block written from the columns
        keys, vals = _columns(ctx, t)
        return _make_flat(ctx, keys, list(map(
            f, repeat(None, t.count) if vals is None else vals)))
    # a node's value is stored where no encode checks it
    e = (t.key, f(t.value))
    ctx.codec.check_entry(*e)
    fl, fr = fork2(ctx, t.size,
                   lambda: _map_values(ctx, t.left, f),
                   lambda: _map_values(ctx, t.right, f))
    # shape and sizes are preserved, so the node rules need not rerun
    return _make_regular(ctx, fl, e, fr, t.size)


def map_values(ctx, t, f):
    """Apply f to every value, preserving keys and shape (an unfolded block
    comes back folded)."""
    return _as_tree(ctx, _map_values(ctx, t, f))


def reduce(ctx, t, f, identity):
    """Fold of in-order values under an associative f with identity.  A
    block folds its value column (``_values``: no key is decoded)."""
    if t is None:
        return identity
    if type(t) is Flat:
        acc = identity
        vals = _values(ctx, t)
        for v in repeat(None, t.count) if vals is None else vals:
            acc = f(acc, v)
        return acc
    xl, xr = fork2(ctx, t.size,
                   lambda: reduce(ctx, t.left, f, identity),
                   lambda: reduce(ctx, t.right, f, identity), owned=False)
    return f(f(xl, t.value), xr)


def key_range(ctx, t, lo, hi):
    """Entries with lo <= key <= hi, as a fresh tree."""
    if lo > hi:
        raise ContractError("key_range requires lo <= hi")
    j, e = _locate(ctx, t, hi)
    return _as_tree(ctx, _slice(ctx, t, _locate(ctx, t, lo)[0],
                                j + (e is not None)))
