"""Structural validation and measurement utilities.

``check_tree`` recomputes every stored field bottom-up and verifies the
weight-balance and blocked-leaf rules (a tree below ``B`` entries is empty
or one block), and that the codec accepts every regular node's entry;
tests run it after operations.

``tree_bytes`` applies the byte model used for space accounting.  The model
prices a C-layout node, not the Python objects that stand in for it:

* regular node: two child pointers (8 each), key and value words (8 each),
  32-bit size, 32-bit refcount+flags = 40 bytes, plus 8 per augmented value;
* block header: payload pointer (8), 32-bit count, 32-bit refcount+flags
  = 16 bytes, plus 8 if augmented, plus 16 cached key bounds for codecs
  that cannot read their bounds from the payload in O(1) (the gap codec);
* block payload: the encoded bytes themselves (a nominal two words per
  entry for object-codec blocks).

Metadata = regular nodes + block headers; total = metadata + payloads.
"""

from .errors import CodecError, InvariantViolation
from .nodes import is_flat, size, weight

PTR_BYTES = 8
REGULAR_NODE_BYTES = 2 * PTR_BYTES + 8 + 8 + 4 + 4
FLAT_HEADER_BYTES = PTR_BYTES + 4 + 4
AUG_BYTES = 8
BOUNDS_BYTES = 16


def _fail(msg):
    raise InvariantViolation(msg)


def check_tree(ctx, t):
    """Validate every invariant; raises InvariantViolation on the first break."""
    cfg = ctx.config
    blocked = size(t) >= cfg.block_size
    if not blocked and t is not None and not is_flat(t):
        _fail("regular node in a tree smaller than B")

    def walk(node):
        # returns (size, first_key, last_key, aug)
        if node is None:
            return 0, None, None, (ctx.aug.identity if ctx.aug else None)
        if is_flat(node):
            if node.count < 1:
                _fail("empty block")
            if blocked and not cfg.block_size <= node.count <= 2 * cfg.block_size:
                _fail(f"block of {node.count} entries outside "
                      f"[{cfg.block_size}, {2 * cfg.block_size}]")
            entries = ctx.codec.decode(node.payload, node.count)
            if len(entries) != node.count:
                _fail("block count does not match its payload")
            if ctx.ordered:
                for i in range(1, len(entries)):
                    if not entries[i - 1][0] < entries[i][0]:
                        _fail("block keys not strictly increasing")
                if node.first_key != entries[0][0] or node.last_key != entries[-1][0]:
                    _fail("cached block key bounds are stale")
            if ctx.aug:
                acc = ctx.aug.identity
                for e in entries:
                    acc = ctx.aug.combine(acc, ctx.aug.lift(e))
                if acc != node.aug:
                    _fail("block aggregate is stale")
            fk = entries[0][0] if ctx.ordered else None
            lk = entries[-1][0] if ctx.ordered else None
            return node.count, fk, lk, node.aug
        try:
            ctx.codec.check_entry(node.key, node.value)
        except CodecError as exc:
            _fail(f"regular node entry rejected by the codec: {exc}")
        sl, fl, ll, al = walk(node.left)
        sr, fr, lr, ar = walk(node.right)
        s = sl + sr + 1
        if node.size != s:
            _fail(f"stored size {node.size} != computed {s}")
        if blocked and node.left is None and node.right is None:
            _fail("regular leaf inside a blocked tree")
        w = weight(node)
        for cw in (sl + 1, sr + 1):
            if not cfg.alpha * w <= cw <= (1.0 - cfg.alpha) * w:
                _fail(f"weight balance broken: child {cw} of {w}")
        if ctx.ordered:
            if ll is not None and not ll < node.key:
                _fail("left subtree reaches past the root key")
            if fr is not None and not node.key < fr:
                _fail("right subtree reaches below the root key")
        if ctx.aug:
            spec = ctx.aug
            acc = spec.combine(al, spec.combine(spec.lift((node.key, node.value)), ar))
            if acc != node.aug:
                _fail("node aggregate is stale")
        first = fl if fl is not None else (node.key if ctx.ordered else None)
        last = lr if lr is not None else (node.key if ctx.ordered else None)
        return s, first, last, node.aug

    walk(t)
    return True


def tree_depth(t):
    if t is None or is_flat(t):
        return 0
    return 1 + max(tree_depth(t.left), tree_depth(t.right))


def count_blocks(t):
    if t is None:
        return 0
    if is_flat(t):
        return 1
    return count_blocks(t.left) + count_blocks(t.right)


def count_nodes(t):
    """All nodes, regular and flat."""
    if t is None:
        return 0
    if is_flat(t):
        return 1
    return 1 + count_nodes(t.left) + count_nodes(t.right)


def _payload_bytes(ctx, node):
    payload = node.payload
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return ctx.codec.NOMINAL_ENTRY_BYTES * node.count


def tree_bytes(ctx, t):
    """(total_bytes, metadata_bytes) under the byte model."""
    augmented = ctx.aug is not None
    reg = REGULAR_NODE_BYTES + (AUG_BYTES if augmented else 0)
    hdr = FLAT_HEADER_BYTES + (AUG_BYTES if augmented else 0)
    if ctx.codec.caches_bounds:
        hdr += BOUNDS_BYTES

    def walk(node):
        if node is None:
            return 0, 0
        if is_flat(node):
            return hdr + _payload_bytes(ctx, node), hdr
        tl, ml = walk(node.left)
        tr, mr = walk(node.right)
        return tl + tr + reg, ml + mr + reg

    return walk(t)


def structure_digest(ctx, t):
    """Deep content digest (payload bytes included) for exact comparisons."""
    if t is None:
        return ()
    if is_flat(t):
        return ("F", t.count, bytes(t.payload) if isinstance(t.payload, (bytes, bytearray)) else tuple(t.payload))
    return ("R", t.key, t.value,
            structure_digest(ctx, t.left), structure_digest(ctx, t.right))
