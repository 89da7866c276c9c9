"""Persistent collections on weight-balanced trees with block-packed leaves.

Trees are immutable values: operations return new handles sharing structure
with their inputs, so snapshots are free and any handle can be read from any
thread.  Leaves hold B..2B entries in one encoded buffer (optionally
gap-compressed for integer keys), and a tree below B entries is one such
buffer, which brings the space of a map close to a packed array while
keeping logarithmic updates.

Quick start::

    from blocktree import make_context, ordmap

    ctx = make_context(block_size=128, encoding="identity")
    t = ordmap.build(ctx, [(k, k * k) for k in range(1000)])
    t2 = ordmap.insert(ctx, t, 5000, 1)       # t is unchanged
    ordmap.find(ctx, t2, 5000)                # -> 1
"""

from . import augment, graphstore, inspect, ordmap, sequence
from .augment import AugSpec, aug_filter, aug_range, aug_val
from .core import (Config, Context, expose, fold, items, join, join2,
                   make_context, node, refold, split, split_last, to_list,
                   unfold)
from .counters import counters, reset_counters
from .encoding import (DeltaCodec, EncodingScheme, IdentityCodec, ObjectCodec,
                       make_codec)
from .errors import (BlocktreeError, CodecError, ContractError,
                     CorruptionError, GraphParseError, InvariantViolation)
from .inspect import check_tree, count_blocks, tree_bytes, tree_depth
from .nodes import release, retain, size as tree_size
from .parallel import get_threads, set_threads
from .sequence import seq_build, seq_context

__all__ = [
    "AugSpec", "BlocktreeError", "CodecError", "Config", "Context",
    "ContractError", "CorruptionError", "DeltaCodec", "EncodingScheme",
    "GraphParseError", "IdentityCodec", "InvariantViolation", "ObjectCodec",
    "aug_filter", "aug_range", "aug_val", "augment", "check_tree",
    "count_blocks", "counters", "expose", "fold",
    "graphstore", "inspect", "items", "join", "join2", "make_codec",
    "make_context", "node", "ordmap", "refold", "release", "reset_counters",
    "retain", "seq_build", "seq_context", "sequence", "set_threads",
    "get_threads", "split", "split_last", "to_list", "tree_bytes",
    "tree_depth", "tree_size", "unfold",
]
