"""Bulk algorithms over ordered maps and sets.

All operations are persistent: callers keep their input handles, results are
freshly owned trees sharing structure with the inputs.  Key collisions are
resolved by a ``combine`` callback, called as ``combine(t1 value, t2 value)``
by ``union`` and ``intersection`` and as ``combine(existing, incoming)`` by
``insert`` and ``multi_insert``; the default keeps the second value.

All five bulk operations run one split/recurse/join skeleton, and an op
triple (``_UNION``, ``_INTERSECTION``, ``_DIFFERENCE``) says which entries
to keep: those only in the first operand, those only in the second, and keys
in both (through ``combine``).  ``_setop`` splits the first tree at the
second tree's root; ``_batch`` takes a sorted batch as the second operand
(``multi_insert`` is a union with it, ``multi_delete`` a difference).  Under
``kappa`` (8B) entries both flatten, run the three-way ``_merge`` and
rebuild.  That base case decodes blocks but never unfolds them, so a union
unfolds at most the block count of its two inputs, and decodes at most four
times it.  ``union_efficient`` is the same function as ``union``.

``insert`` and ``multi_insert`` check every incoming entry against the codec
before they take any handle, so an entry the codec rejects consumes nothing.
``insert`` runs a custom ``combine`` before that check and checks its result.
``union``, ``intersection`` and ``multi_insert`` check each ``combine``
result where it is stored: the merge base case encodes it into a block, and
the recursion checks the one it keeps in a regular node.  A rejected result
raises ``CodecError`` and leaves the inputs intact.
"""

from bisect import bisect_left

from .core import (_decode, _destructure, _entry_key, _expose,
                   _flatten_consume, _join, _join2, _make_flat, _make_regular,
                   _rebuild, _search, _settle, _split)
from .errors import ContractError
from .nodes import is_flat, release, retain, size
from .parallel import fork2

_RIGHT = lambda a, b: b


def _normalize(batch, combine):
    """Stable-sort a batch by key and fold duplicates through combine."""
    arr = sorted(batch, key=_entry_key)
    out = []
    for k, v in arr:
        if out and out[-1][0] == k:
            out[-1] = (k, combine(out[-1][1], v))
        else:
            out.append((k, v))
    return out


def build(ctx, pairs, combine=_RIGHT):
    """Tree over an unsorted entry sequence; duplicate keys combined."""
    return _rebuild(ctx, _normalize(pairs, combine))


def from_sorted(ctx, entries):
    """Tree over strictly increasing entries."""
    entries = list(entries)
    for i in range(1, len(entries)):
        if not entries[i - 1][0] < entries[i][0]:
            raise ContractError("from_sorted requires strictly increasing keys")
    return _rebuild(ctx, entries)


# ---------------------------------------------------------------------------
# point queries (read-only)


def _seek(ctx, t, k):
    """(pos, entries) with entries[pos] the entry at k, or None if k is
    absent.  When k sits in a block, this is that block's search result."""
    while t is not None:
        if is_flat(t):
            if k < t.first_key or k > t.last_key:
                return None
            pos, entries = _search(ctx, t, k)
            if pos < t.count and entries[pos][0] == k:
                return pos, entries
            return None
        if k == t.key:
            return 0, ((t.key, t.value),)
        t = t.left if k < t.key else t.right
    return None


def get_entry(ctx, t, k):
    found = _seek(ctx, t, k)
    return None if found is None else found[1][found[0]]


def find(ctx, t, k):
    e = get_entry(ctx, t, k)
    return None if e is None else e[1]


def contains(ctx, t, k):
    return get_entry(ctx, t, k) is not None


def rank(ctx, t, k):
    """Number of keys strictly below k."""
    n = 0
    while t is not None:
        if is_flat(t):
            if k <= t.first_key:
                return n
            if k > t.last_key:
                return n + t.count
            return n + _search(ctx, t, k)[0]
        if k <= t.key:
            t = t.left
        else:
            n += size(t.left) + 1
            t = t.right
    return n


def next_entry(ctx, t, k):
    """Smallest entry with key strictly greater than k, or None."""
    best = None
    while t is not None:
        if is_flat(t):
            if t.last_key > k:
                pos, entries = _search(ctx, t, k, right=True)
                if pos < t.count:
                    best = entries[pos]
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
        if is_flat(t):
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


def _insert(ctx, t, k, v):
    """t with the entry (k, v); an entry at k is overwritten."""
    if t is None:
        return _rebuild(ctx, [(k, v)])
    if is_flat(t):
        entries = _decode(ctx, t)
        release(t)
        pos = bisect_left(entries, k, key=_entry_key)
        if pos < len(entries) and entries[pos][0] == k:
            entries[pos] = (k, v)
        else:
            entries.insert(pos, (k, v))
        return _rebuild(ctx, entries)
    l, e, r = _destructure(ctx, t)
    if k == e[0]:
        return _join(ctx, l, (k, v), r)
    if k < e[0]:
        return _join(ctx, _insert(ctx, l, k, v), e, r)
    return _join(ctx, l, e, _insert(ctx, r, k, v))


def insert(ctx, t, k, v, combine=_RIGHT):
    """t with (k, v) added; an existing value at k becomes combine(old, v).

    combine runs once, and its result passes the codec check, before any
    handle is taken: a combine that raises, or whose result the codec
    rejects, consumes nothing.
    """
    if combine is not _RIGHT:
        old = get_entry(ctx, t, k)
        if old is not None:
            v = combine(old[1], v)
    ctx.codec.check_entry(k, v)
    return _settle(ctx, _insert(ctx, retain(t), k, v))


def _remove(ctx, t, k, found):
    """t without the entry at k, which is present; consumes t.  ``found``
    is _seek's result for k: the search of the block that holds it."""
    if is_flat(t):
        pos, entries = found
        if not isinstance(entries, list):   # searched in place
            entries = _decode(ctx, t)
        release(t)
        del entries[pos]
        return _rebuild(ctx, entries)
    l, e, r = _destructure(ctx, t)
    if k == e[0]:
        return _join2(ctx, l, r)
    if k < e[0]:
        return _join(ctx, _remove(ctx, l, k, found), e, r)
    return _join(ctx, l, e, _remove(ctx, r, k, found))


def remove(ctx, t, k):
    """t without the entry at k; an absent key copies nothing and returns
    t itself."""
    found = _seek(ctx, t, k)
    if found is None:
        return retain(t)
    return _settle(ctx, _remove(ctx, retain(t), k, found))


# ---------------------------------------------------------------------------
# set algebra


# Which entries a set operation keeps: (only in the first operand, only in
# the second, in both -- through combine).
_UNION = (True, True, True)
_INTERSECTION = (False, False, True)
_DIFFERENCE = (True, False, False)


def _merge(a, b, op, combine):
    """Three-way merge of sorted entry lists a and b under op."""
    only_a, only_b, both = op
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, kb = a[i][0], b[j][0]
        if ka < kb:
            if only_a:
                out.append(a[i])
            i += 1
        elif kb < ka:
            if only_b:
                out.append(b[j])
            j += 1
        else:
            if both:
                out.append((ka, combine(a[i][1], b[j][1])))
            i += 1; j += 1
    if only_a:
        out.extend(a[i:])
    if only_b:
        out.extend(b[j:])
    return out


def _combined(ctx, k, a, b, combine):
    """The entry (k, combine(a, b)), checked against the codec: it is stored
    in a regular node, which no encode checks."""
    e = (k, combine(a, b))
    ctx.codec.check_entry(*e)
    return e


def _setop(ctx, t1, t2, op, combine):
    only1, only2, both = op
    if t1 is None or t2 is None:
        t, keep = (t2, only2) if t1 is None else (t1, only1)
        if keep:
            return t
        release(t)
        return None
    if size(t1) + size(t2) < ctx.config.kappa:
        merged = _merge(_flatten_consume(ctx, t1), _flatten_consume(ctx, t2),
                        op, combine)
        return _rebuild(ctx, merged)
    l2, e2, r2 = _expose(ctx, t2)
    l1, b, r1 = _split(ctx, t1, e2[0])
    if b is not None:
        e = _combined(ctx, e2[0], b[1], e2[1], combine) if both else None
    else:
        e = e2 if only2 else None
    tl, tr = fork2(ctx, size(l1) + size(l2) + size(r1) + size(r2),
                   lambda: _setop(ctx, l1, l2, op, combine),
                   lambda: _setop(ctx, r1, r2, op, combine))
    if e is None:
        return _join2(ctx, tl, tr)
    return _join(ctx, tl, e, tr)


def union(ctx, t1, t2, combine=_RIGHT):
    return _settle(ctx, _setop(ctx, retain(t1), retain(t2), _UNION, combine))


def intersection(ctx, t1, t2, combine=_RIGHT):
    return _settle(ctx, _setop(ctx, retain(t1), retain(t2), _INTERSECTION,
                               combine))


def difference(ctx, t1, t2):
    """Entries of t1 whose keys are absent from t2 (t1 keeps its values)."""
    return _settle(ctx, _setop(ctx, retain(t1), retain(t2), _DIFFERENCE,
                               None))


# a second public name for union, which meets the tighter unfold bound:
# unfolds <= blocks(t1) + blocks(t2)
union_efficient = union


# ---------------------------------------------------------------------------
# batch updates


def _batch(ctx, t, arr, lo, hi, op, combine):
    """t under op with the sorted entry run arr[lo:hi] as second operand.

    op keeps the entries found only in t, as union and difference do.
    """
    _, only2, both = op
    if lo >= hi:
        return t
    if t is None:
        return _rebuild(ctx, arr, lo, hi) if only2 else None
    if size(t) + (hi - lo) < ctx.config.kappa:
        merged = _merge(_flatten_consume(ctx, t), arr[lo:hi], op, combine)
        return _rebuild(ctx, merged)
    l, e, r = _expose(ctx, t)
    pos = bisect_left(arr, e[0], lo, hi, key=_entry_key)
    hit = pos < hi and arr[pos][0] == e[0]
    if hit:
        e = _combined(ctx, e[0], e[1], arr[pos][1], combine) if both else None
    tl, tr = fork2(ctx, size(l) + size(r) + (hi - lo),
                   lambda: _batch(ctx, l, arr, lo, pos, op, combine),
                   lambda: _batch(ctx, r, arr, pos + (1 if hit else 0), hi, op,
                                  combine))
    if e is None:
        return _join2(ctx, tl, tr)
    return _join(ctx, tl, e, tr)


def multi_insert(ctx, t, batch, combine=_RIGHT):
    arr = _normalize(batch, combine)
    check = ctx.codec.check_entry
    for k, v in arr:
        check(k, v)
    return _settle(ctx, _batch(ctx, retain(t), arr, 0, len(arr), _UNION,
                               combine))


def multi_delete(ctx, t, keys):
    arr = [(k, None) for k in sorted(set(keys))]
    return _settle(ctx, _batch(ctx, retain(t), arr, 0, len(arr), _DIFFERENCE,
                               None))


# ---------------------------------------------------------------------------
# traversals


def _filter_tree(ctx, t, keep, prune=None):
    """Entries satisfying ``keep``; borrows t, returns an owned tree.

    Unchanged subtrees are returned shared rather than copied, so dropping a
    few entries touches O(depth) nodes.  ``prune`` short-circuits whole
    subtrees (used by the augmented filter).
    """
    if t is None:
        return None
    if prune is not None and not prune(t):
        return None
    if is_flat(t):
        entries = _decode(ctx, t)
        kept = [e for e in entries if keep(e)]
        if len(kept) == len(entries):
            return retain(t)
        if not kept:
            return None
        return _make_flat(ctx, kept)
    fl, fr = fork2(ctx, t.size,
                   lambda: _filter_tree(ctx, t.left, keep, prune),
                   lambda: _filter_tree(ctx, t.right, keep, prune))
    if keep((t.key, t.value)):
        if fl is t.left and fr is t.right:
            release(fl)
            release(fr)
            return retain(t)
        return _join(ctx, fl, (t.key, t.value), fr)
    return _join2(ctx, fl, fr)


def filter(ctx, t, pred):
    """Entries for which pred((key, value)) holds, as a fresh tree."""
    return _settle(ctx, _filter_tree(ctx, t, pred))


def map_values(ctx, t, f):
    """Apply f to every value, preserving keys and shape."""
    if t is None:
        return None
    if is_flat(t):
        return _make_flat(ctx, [(k, f(v)) for k, v in _decode(ctx, t)])
    fl, fr = fork2(ctx, t.size,
                   lambda: map_values(ctx, t.left, f),
                   lambda: map_values(ctx, t.right, f))
    # shape and sizes are preserved, so the node rules need not rerun
    return _make_regular(ctx, fl, (t.key, f(t.value)), fr)


def reduce(ctx, t, f, identity):
    """Fold of in-order values under an associative f with identity."""
    if t is None:
        return identity
    if is_flat(t):
        acc = identity
        for _, v in _decode(ctx, t):
            acc = f(acc, v)
        return acc
    xl, xr = fork2(ctx, t.size,
                   lambda: reduce(ctx, t.left, f, identity),
                   lambda: reduce(ctx, t.right, f, identity))
    return f(f(xl, t.value), xr)


def key_range(ctx, t, lo, hi):
    """Entries with lo <= key <= hi, as a fresh tree."""
    if lo > hi:
        raise ContractError("key_range requires lo <= hi")
    left, b_lo, rest = _split(ctx, retain(t), lo)
    release(left)
    mid, b_hi, right = _split(ctx, rest, hi)
    release(right)
    if b_hi is not None:
        mid = _join(ctx, mid, b_hi, None)
    if b_lo is not None:
        mid = _join(ctx, None, b_lo, mid)
    return _settle(ctx, mid)
