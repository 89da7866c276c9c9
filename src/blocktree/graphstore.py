"""Two-level graph store: a vertex map whose values are neighbor sets.

The vertex tree maps vertex id to an edge tree and is augmented with the
total edge count, so ``edge_count`` is an O(1) root read (``core.aug_of``).
The count is an integer sum, a commutative group, so its spec gives
``inverse=operator.sub`` (``AugSpec.inverse``): where a batch's merge
keeps a vertex block one block, the block's count is its old count plus
the sizes of the sets the merge stored and minus those of the sets it
replaced (``ordmap._merge``), each side summed by the column fold
(``fold_values``), instead of a sum over every set of the block (about
76 on an R-MAT graph, where a ten-edge batch changes one or two).  A
vertex block that a batch overflows into two blocks is counted whole.
A batch is sorted and grouped by source with ``itertools.groupby``, and
each batch update is one bulk merge (``ordmap._bulk``) of the run of
(source, sorted ids) into the vertex tree, whose combine is the one
per-source update, ``_edges``: ``insert_edges`` merges each found
source's ids straight into its set under ``_UNION``, and ``delete_edges``
deletes them from the set of each source that is a vertex under
``_DIFFERENCE`` and drops the others (the ``_DELETE`` op triple).  The
ids reach the set's merge as a run, so no tree of them is built, and a
block of the set that the run meets with at most four ids (a source gains
or loses about one id per batch) is edited in place: the edge codec's
``edit_keys`` rewrites only the gap varints around each id
(``ordmap._merge``), and the block is not decoded and written whole.  A
source the vertex merge adds is a run-only entry: the second element of
the insert's op triple is a function, so the merge stores the set
written from the source's ids (``core._rebuild``), and nothing for a new
destination without edges.  A set that loses or gains no edge comes back
as itself, which the merge counts as no change, so a delete batch of
absent edges, and an insert batch of present ones, builds nothing and
returns the input vertex tree; the owner ``ordmap._bulk`` gave that set
back is released, so its owner count is what it was.
``from_edge_list`` is ``insert_edges`` into the empty graph.

The readers take key columns: ``neighbors``, ``adjacency``,
``vertex_ids`` and ``bfs`` read a tree's ids with ``core.keys``, which
collects each gap-coded block's key column and builds no ``(id, None)``
entry.  ``bfs`` reads one vertex snapshot: it walks the vertex tree once
into a dict of edge trees, and looks each frontier vertex up there
instead of searching the tree per vertex.

Edge trees are sets of neighbor ids with gap-compressed blocks.  Both
levels default to 64-entry blocks; a neighbor set below 64 ids is a
single gap-coded block (the raw first id, then one varint per gap), so
the many small sets of a skewed graph pay one block header each rather
than a node per edge.

Graphs are immutable snapshots: batch updates return a new ``Graph`` sharing
almost all structure with the old one, so readers on earlier snapshots are
never disturbed by writers.  Vertices persist once created (batch inserts
add both endpoints); deletions remove edges, never vertices.  Self-loops are
kept, duplicate edges within a batch are dropped.

Edge trees live inside vertex-tree payloads as plain values; their node
lifetime is managed by the host garbage collector rather than the owner
counts (values are opaque to the reclamation protocol).
"""

from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import add, sub

from . import ordmap
from .augment import AugSpec
from .core import _entry_key, _rebuild, aug_of, flatten, keys, make_context
from .encoding import DeltaCodec
from .errors import GraphParseError
from .nodes import release, size
from .ordmap import _DIFFERENCE, _RIGHT, _UNION


def _edge_count_spec():
    return AugSpec(identity=0,
                   lift=lambda e: size(e[1]),
                   combine=add,
                   fold_values=lambda values: sum(map(size, values)),
                   inverse=sub)


@dataclass(frozen=True)
class Graph:
    vertices: object
    vctx: object
    ectx: object


def graph_contexts(block_size=64):
    vctx = make_context(block_size=block_size, encoding="object",
                        aug=_edge_count_spec())
    ectx = make_context(block_size=block_size,
                        encoding=DeltaCodec(value_width=0))
    return vctx, ectx


def _normalize_batch(pairs):
    """Sorted, deduplicated (src, dst) list."""
    return sorted(set((int(s), int(d)) for s, d in pairs))


def _edges(ectx, old, ids, op):
    """Edge set ``old`` (borrowed; None for none) under op (``_UNION`` or
    ``_DIFFERENCE``) with the sorted, distinct id list ``ids``: the one
    per-source update.  Into no set, a union writes the ids' set from its
    key column.  Otherwise the ids merge into ``old`` through
    ``ordmap._bulk``; where that hands back ``old`` itself (nothing
    changed), the owner it gave ``old`` is released: the vertex merge then
    keeps ``old`` where it is and drops the handle it was handed."""
    if old is None:
        return _rebuild(ectx, ids, None) if op[1] else None
    new = ordmap._bulk(ectx, old, list(zip(ids, repeat(None))), op, _RIGHT)
    if new is old:
        release(new)
    return new


def _group_by_src(edges):
    """(src, [dst, ...]) for each source of a sorted edge list."""
    return [(src, [d for _, d in group])
            for src, group in groupby(edges, key=_entry_key)]


def from_edge_list(pairs, block_size=64, symmetric=False):
    """Graph over the distinct directed edges; both endpoints become
    vertices.  The batch insert of every edge into the empty graph."""
    pairs = list(pairs)
    if symmetric:
        pairs += [(d, s) for s, d in pairs]
    return insert_edges(Graph(None, *graph_contexts(block_size)), pairs)


def insert_edges(g, batch):
    """New snapshot with the batch's edges added; input graph unchanged.

    The vertex run holds each source with its sorted new ids, and each
    destination that is not a vertex yet with none: a vertex-tree block
    that holds no source and gains no vertex is shared, not re-encoded.
    The merge unions a found source's ids into its set (``_edges``), and
    stores a set written from its ids for a source it adds (the op's
    second element is that function), so no set of new edges is built
    for a source that has one.  Every endpoint is checked against the
    edge codec (a nonnegative id that fits its key width) before any tree
    is built.
    """
    edges = _normalize_batch(batch)
    if not edges:
        return g
    # each distinct id once: a graph's ids repeat (200,000 R-MAT edges
    # hold under 20,000), and checking every pair took 7% of a build
    check = g.ectx.codec.check_entry
    ids = set(chain.from_iterable(edges))
    for v in ids:
        check(v, None)
    additions = dict(_group_by_src(edges))
    # each distinct destination that is no source of the batch is looked
    # up once: R-MAT batches repeat their destinations, so a lookup per
    # edge repeats about one walk in five (seed 1, 10,000-edge batches)
    for d in sorted(ids.difference(additions)):
        if not has_vertex(g, d):
            additions[d] = []
    ectx = g.ectx
    op = (True, lambda ids: _edges(ectx, None, ids, _UNION), True)
    vertices = ordmap._bulk(g.vctx, g.vertices, sorted(additions.items()), op,
                            lambda old, ids: _edges(ectx, old, ids, _UNION))
    return Graph(vertices, g.vctx, g.ectx)


# What delete_edges keeps of the vertex tree and its run of (source,
# destinations): every vertex, each found source with its destinations
# deleted (``_edges`` under ``_DIFFERENCE``), and no absent source.
_DELETE = (True, False, True)


def delete_edges(g, batch):
    """New snapshot with the batch's edges removed; vertices are kept."""
    edges = _normalize_batch(batch)
    if not edges:
        return g
    ectx = g.ectx
    vertices = ordmap._bulk(g.vctx, g.vertices, _group_by_src(edges), _DELETE,
                            lambda old, ids: _edges(ectx, old, ids,
                                                    _DIFFERENCE))
    return Graph(vertices, g.vctx, g.ectx)


def degree(g, v):
    etree = ordmap.find(g.vctx, g.vertices, v)
    return size(etree)


def has_vertex(g, v):
    return ordmap.contains(g.vctx, g.vertices, v)


def neighbors(g, v):
    return keys(g.ectx, ordmap.find(g.vctx, g.vertices, v))


def vertex_ids(g):
    return keys(g.vctx, g.vertices)


def edge_count(g):
    """Total directed edges, read from the vertex tree's root aggregate."""
    return aug_of(g.vctx, g.vertices)


def adjacency(g):
    """{vertex: sorted neighbor list} over the whole graph (test oracle aid)."""
    return {v: keys(g.ectx, et) for v, et in flatten(g.vctx, g.vertices)}


def graphs_equal(g1, g2):
    return adjacency(g1) == adjacency(g2)


def bfs(g, src):
    """Unweighted shortest-path hop counts from src; unreachable ids absent."""
    edges = dict(flatten(g.vctx, g.vertices))
    if src not in edges:
        raise KeyError(f"vertex {src} not in graph")
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for nb in keys(g.ectx, edges[u]):
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


def load_edge_list(path):
    """Parse a whitespace-separated edge list; '#' lines are comments."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError(path, lineno,
                                      f"expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(path, lineno,
                                      f"non-integer vertex id in {line!r}") from None
            if u < 0 or v < 0:
                raise GraphParseError(path, lineno, "vertex ids must be nonnegative")
            pairs.append((u, v))
    return pairs
