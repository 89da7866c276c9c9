"""User-defined subtree aggregates and the queries that exploit them.

An ``AugSpec`` is a monoid over entries: ``identity``, ``lift(entry)`` and an
associative ``combine``.  Trees built with an augmented context cache the
fold of ``lift`` over every subtree at each regular node and one value per
block, so ``aug_val`` is O(1) and range/filter queries can prune whole
subtrees without decoding them.  The value of a block, and of the part of
a boundary block a range query reads, is one fold, ``core._entries_aug``,
and ``aug_val`` reads the root with ``core.aug_of``.

A spec may also give ``fold_values``, the aggregate of a block read from
its value column alone.  It must equal
``reduce(combine, map(lift, entries), identity)`` for every run of
entries, and ``core._entries_aug`` then calls it instead of ``lift`` per
entry.  The graph store's edge count is ``sum(map(size, values))``.

A spec may also give ``inverse(a, b)``, ``a`` combined with the inverse
of ``b``.  It is given only where ``combine`` and ``inverse`` form a
commutative group over the aggregates, with ``identity`` as its unit:
``combine`` commutes, and ``inverse(combine(a, b), b) == a`` for all
``a`` and ``b`` (an integer sum with ``operator.sub`` does; ``max`` has
no inverse).  A bulk merge then updates a block's aggregate by
difference instead of folding every entry of the block again
(``ordmap._merge``): where the op keeps the block's other entries
(``union``, ``multi_insert``, ``multi_delete``, the graph batches, and a
``difference`` whose first operand is the larger) and the result is
written as one block, the new aggregate
is ``inverse(combine(old, fold(came)), fold(gone))``.  ``gone`` holds
the entries the merge replaced or dropped, ``came`` those it added or
changed, and ``fold`` is the spec's block fold (``core._entries_aug``:
``fold_values`` where given).  A result cut into several blocks, or left
as an entry run below the block size, and every block of a spec without
an inverse, is folded whole.  The graph store's edge count sets
``inverse=operator.sub``.
"""

from dataclasses import dataclass
from bisect import bisect_right

from .core import _as_tree, _entries_aug, _search, aug_of
from .errors import ContractError
from .nodes import Flat
from .ordmap import _filter_tree


@dataclass(frozen=True)
class AugSpec:
    identity: object
    lift: object       # entry -> aug value
    combine: object    # (aug, aug) -> aug, associative
    # optional: iterable of a block's values -> its aug, equal to
    # reduce(combine, map(lift, entries), identity); None folds lift
    fold_values: object = None
    # optional: (a, b) -> a combined with the inverse of b.  Only for a
    # combine that forms a commutative group with it (identity the unit,
    # inverse(combine(a, b), b) == a); bulk merges then update a block's
    # aggregate by difference.  None refolds every block written
    inverse: object = None


def aug_val(ctx, t):
    """Aggregate over the whole tree, read from the root."""
    if ctx.aug is None:
        raise ContractError("tree context has no augmentation")
    return aug_of(ctx, t)


def aug_range(ctx, t, lo, hi):
    """Aggregate over entries with lo <= key <= hi.

    Fully covered subtrees contribute their cached value; at most the two
    boundary blocks are read, in place where the codec can (the
    identity and object codecs decode nothing).
    """
    spec = ctx.aug
    if spec is None:
        raise ContractError("tree context has no augmentation")
    if lo > hi:
        return spec.identity
    return _rng(ctx, spec, t, lo, hi)


def _block_part(ctx, t, lo, hi):
    """Aggregate over the entries of block t with lo <= key <= hi (a None
    bound is open), read in place where the codec can.  The slice of
    its columns is folded as a block's are (``core._entries_aug``)."""
    start, at = _search(ctx, t, t.first_key if lo is None else lo)
    keys, values = at.keys, at.values
    stop = t.count if hi is None else bisect_right(keys, hi, start, t.count)
    return _entries_aug(ctx, keys[start:stop],
                        None if values is None else values[start:stop])


def _rng(ctx, spec, t, lo, hi):
    """Aggregate over entries with lo <= key <= hi; a None bound is open."""
    if t is None:
        return spec.identity
    if lo is None and hi is None:
        return t.aug
    if type(t) is Flat:
        if ((lo is None or lo <= t.first_key)
                and (hi is None or t.last_key <= hi)):
            return t.aug
        if ((lo is not None and t.last_key < lo)
                or (hi is not None and hi < t.first_key)):
            return spec.identity
        return _block_part(ctx, t, lo, hi)
    k = t.key
    if lo is not None and k < lo:
        return _rng(ctx, spec, t.right, lo, hi)
    if hi is not None and k > hi:
        return _rng(ctx, spec, t.left, lo, hi)
    mid = spec.combine(spec.lift((k, t.value)),
                       _rng(ctx, spec, t.right, None, hi))
    return spec.combine(_rng(ctx, spec, t.left, lo, None), mid)


def aug_filter(ctx, t, h):
    """Entries whose lifted value satisfies ``h``.

    ``h`` must be subset-monotone over the combine (if h holds for a
    combined value it holds for at least one operand, as with "max >= x"),
    which lets whole subtrees whose aggregate fails ``h`` be dropped without
    descending into them or decoding their blocks.
    """
    spec = ctx.aug
    if spec is None:
        raise ContractError("tree context has no augmentation")
    keep = lambda e: h(spec.lift(e))
    prune = lambda node: h(node.aug)
    return _as_tree(ctx, _filter_tree(ctx, t, keep, prune))
