"""Positional sequences on the same node algebra.

Elements are ordered by position only: entries carry the element in the
value slot with an unused key, the context is unordered (no key checks), and
blocks use the object codec (gap compression needs sorted integer keys, so
``seq_build`` rejects byte codecs, and ordered contexts, with
``ContractError`` before it builds anything).  Balance and blocked-leaf
invariants are the same as for maps; positions are implicit in each node's
stored sizes.
``take``, ``drop`` and ``subseq`` are the read-only walk by position that
ordered maps use for ``key_range`` (``core._slice``): covered subtrees are
shared and only the boundary blocks are cut.  Blocks are edited as a
map's are (``core._edit``): the object codec splices its two tuples, so a
boundary piece of B elements or more, and an ``append``'s left side less
its last element (``append`` is the core's ``join2``), are payload
slices, and a piece below B is read in place (``core._view``); none is
decoded.  On an augmented context every edited block is written from its
columns and folded.
"""

from .core import (_as_tree, _columns, _make_flat, _make_regular, _rebuild,
                   _slice, _values, flatten, join2, make_context)
from .encoding import ObjectCodec
from .errors import ContractError
from .nodes import Flat, size
from .ordmap import _filter_tree, map_values as seq_map, reduce as seq_reduce
from .parallel import fork2

_ABSENT = object()


def seq_context(block_size=128, alpha=0.29, aug=None):
    return make_context(block_size=block_size, alpha=alpha, encoding="object",
                        aug=aug, ordered=False)


def check_seq_context(ctx):
    if ctx.ordered or not isinstance(ctx.codec, ObjectCodec):
        raise ContractError("sequences require an unordered object-codec context")


def seq_build(ctx, elements):
    """Sequence whose in-order traversal yields the elements in input order."""
    check_seq_context(ctx)
    elements = list(elements)
    return _rebuild(ctx, [None] * len(elements), elements)


def to_elements(ctx, s):
    return [v for _, v in flatten(ctx, s)]


def nth(ctx, s, i):
    if not 0 <= i < size(s):
        raise IndexError(f"index {i} out of range for sequence of {size(s)}")
    t = s
    while True:
        if type(t) is Flat:
            return _values(ctx, t)[i]
        sl = size(t.left)
        if i < sl:
            t = t.left
        elif i == sl:
            return t.value
        else:
            i -= sl + 1
            t = t.right


def take(ctx, s, i):
    if not 0 <= i <= size(s):
        raise IndexError(f"take({i}) out of range for sequence of {size(s)}")
    return _as_tree(ctx, _slice(ctx, s, 0, i))


def drop(ctx, s, i):
    if not 0 <= i <= size(s):
        raise IndexError(f"drop({i}) out of range for sequence of {size(s)}")
    return _as_tree(ctx, _slice(ctx, s, i, size(s)))


def subseq(ctx, s, i, j):
    """Elements at positions [i, j)."""
    if not (0 <= i <= j <= size(s)):
        raise IndexError(f"subseq({i},{j}) out of range for sequence of {size(s)}")
    return _as_tree(ctx, _slice(ctx, s, i, j))


# concatenation is the core's join2
append = join2


def _reverse(ctx, s):
    """Mirror of s; borrows s."""
    if s is None:
        return None
    if type(s) is Flat:
        keys, values = _columns(ctx, s)
        return _make_flat(ctx, keys[::-1], values[::-1])
    fl, fr = fork2(ctx, s.size,
                   lambda: _reverse(ctx, s.right),
                   lambda: _reverse(ctx, s.left))
    return _make_regular(ctx, fl, (None, s.value), fr, s.size)


def reverse(ctx, s):
    """Mirrored sequence; block contents flip, node shapes mirror (an
    unfolded block comes back folded)."""
    return _as_tree(ctx, _reverse(ctx, s))


def seq_filter(ctx, s, pred):
    return _as_tree(ctx, _filter_tree(ctx, s, lambda e: pred(e[1])))


def _find_first(ctx, t, pred):
    if t is None:
        return _ABSENT
    if type(t) is Flat:
        for v in _values(ctx, t):
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
