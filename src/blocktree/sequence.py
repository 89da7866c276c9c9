"""Positional sequences on the same node algebra.

Elements are ordered by position only: entries carry the element in the
value slot with an unused key, the context is unordered (no key checks), and
blocks use the object codec (gap compression needs sorted integer keys, so
byte codecs are rejected here).  Balance and blocked-leaf invariants are the
same as for maps; positions are implicit in each node's stored sizes.
"""

from .core import (_decode, _destructure, _join, _join2, _make_flat,
                   _make_regular, _rebuild, _settle, make_context)
from .encoding import ObjectCodec
from .errors import ContractError
from .nodes import is_flat, release, retain, size
from .ordmap import _filter_tree, map_values as seq_map, reduce as seq_reduce
from .parallel import fork2

_ABSENT = object()


def seq_context(block_size=128, alpha=0.29, aug=None, grain=0):
    return make_context(block_size=block_size, alpha=alpha, encoding="object",
                        aug=aug, ordered=False, grain=grain)


def check_seq_context(ctx):
    if ctx.ordered or not isinstance(ctx.codec, ObjectCodec):
        raise ContractError("sequences require an unordered object-codec context")


def seq_build(ctx, elements):
    """Sequence whose in-order traversal yields the elements in input order."""
    return _rebuild(ctx, [(None, x) for x in elements])


def to_elements(ctx, s):
    from .core import flatten
    return [v for _, v in flatten(ctx, s)]


def nth(ctx, s, i):
    if not 0 <= i < size(s):
        raise IndexError(f"index {i} out of range for sequence of {size(s)}")
    t = s
    while True:
        if is_flat(t):
            return _decode(ctx, t)[i][1]
        sl = size(t.left)
        if i < sl:
            t = t.left
        elif i == sl:
            return t.value
        else:
            i -= sl + 1
            t = t.right


def _split_at(ctx, t, i):
    """(first i elements, the rest); consumes t."""
    if t is None:
        return None, None
    if i <= 0:
        return None, t
    if i >= size(t):
        return t, None
    if is_flat(t):
        entries = _decode(ctx, t)
        release(t)
        return _make_flat(ctx, entries[:i]), _make_flat(ctx, entries[i:])
    l, e, r = _destructure(ctx, t)
    sl = size(l)
    if i <= sl:
        a, b = _split_at(ctx, l, i)
        return a, _join(ctx, b, e, r)
    a, b = _split_at(ctx, r, i - sl - 1)
    return _join(ctx, l, e, a), b


def take(ctx, s, i):
    if not 0 <= i <= size(s):
        raise IndexError(f"take({i}) out of range for sequence of {size(s)}")
    a, b = _split_at(ctx, retain(s), i)
    release(b)
    return _settle(ctx, a)


def drop(ctx, s, i):
    if not 0 <= i <= size(s):
        raise IndexError(f"drop({i}) out of range for sequence of {size(s)}")
    a, b = _split_at(ctx, retain(s), i)
    release(a)
    return _settle(ctx, b)


def subseq(ctx, s, i, j):
    """Elements at positions [i, j)."""
    if not (0 <= i <= j <= size(s)):
        raise IndexError(f"subseq({i},{j}) out of range for sequence of {size(s)}")
    a, b = _split_at(ctx, retain(s), j)
    release(b)
    c, d = _split_at(ctx, a, i)
    release(c)
    return _settle(ctx, d)


def append(ctx, s1, s2):
    return _settle(ctx, _join2(ctx, retain(s1), retain(s2)))


def reverse(ctx, s):
    """Mirrored sequence; block contents flip, node shapes mirror."""
    if s is None:
        return None
    if is_flat(s):
        return _make_flat(ctx, list(reversed(_decode(ctx, s))))
    fl, fr = fork2(ctx, s.size,
                   lambda: reverse(ctx, s.right),
                   lambda: reverse(ctx, s.left))
    return _make_regular(ctx, fl, (None, s.value), fr)


def seq_filter(ctx, s, pred):
    return _settle(ctx, _filter_tree(ctx, s, lambda e: pred(e[1])))


def _find_first(ctx, t, pred):
    if t is None:
        return _ABSENT
    if is_flat(t):
        for _, v in _decode(ctx, t):
            if pred(v):
                return v
        return _ABSENT
    hit = _find_first(ctx, t.left, pred)
    if hit is not _ABSENT:
        return hit
    if pred(t.value):
        return t.value
    return _find_first(ctx, t.right, pred)


def find_first(ctx, s, pred):
    """Leftmost element satisfying pred, scanning with early exit; None if absent."""
    hit = _find_first(ctx, s, pred)
    return None if hit is _ABSENT else hit
