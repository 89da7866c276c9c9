"""Independent reference implementations the tests check against.

Everything here is deliberately written without touching the library's code
paths: plain lists, dicts, loops, and a queue-based BFS.
"""

from collections import deque


# --- base-128 varint, written independently of the codec module

def varint_encode(value):
    assert value >= 0
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def varint_decode_stream(buf):
    values = []
    cur = 0
    shift = 0
    for b in buf:
        cur |= (b & 0x7F) << shift
        if b & 0x80:
            shift += 7
        else:
            values.append(cur)
            cur = 0
            shift = 0
    assert shift == 0, "trailing partial varint"
    return values


def delta_block_bytes(keys, key_width=8, value_width=8):
    """Analytic byte count for one gap-encoded block of sorted keys."""
    if not keys:
        return 0
    n = key_width
    for a, b in zip(keys, keys[1:]):
        n += len(varint_encode(b - a))
    return n + value_width * len(keys)


def delta_block_payload(entries, key_width=8, value_width=8):
    """One delta block, written out gap by gap and value by value."""
    keys = [k for k, _ in entries]
    out = keys[0].to_bytes(key_width, "little")
    for a, b in zip(keys, keys[1:]):
        out += varint_encode(b - a)
    for _, v in entries:
        if value_width:
            out += v.to_bytes(value_width, "little")
    return out


def delta_block_decode(payload, count, key_width=8, value_width=8):
    """Entries of a delta block, read byte by byte; a malformed payload
    raises ValueError carrying the codec's CorruptionError message."""
    if count == 0:
        if payload:
            raise ValueError("nonempty payload for empty block")
        return []
    if len(payload) < key_width:
        raise ValueError("truncated first key")
    keys = [int.from_bytes(payload[:key_width], "little")]
    pos = key_width
    while len(keys) < count:
        gap = 0
        shift = 0
        while True:
            if pos >= len(payload):
                raise ValueError("truncated varint")
            b = payload[pos]
            pos += 1
            gap += (b & 0x7F) << shift
            if b < 0x80:
                break
            shift += 7
            if shift > 70:
                raise ValueError("malformed varint (too many continuation bytes)")
        if gap == 0:
            raise ValueError("zero gap in delta block")
        keys.append(keys[-1] + gap)
    if len(payload) != pos + value_width * count:
        raise ValueError("delta payload length mismatch")
    values = []
    for k in keys:
        if value_width:
            values.append(int.from_bytes(payload[pos:pos + value_width], "little"))
            pos += value_width
        else:
            values.append(None)
    return list(zip(keys, values))


def identity_block_bytes(entries, key_width=8, value_width=8):
    """One identity block, written out entry by entry."""
    out = b""
    for k, v in entries:
        out += k.to_bytes(key_width, "little")
        if value_width:
            out += v.to_bytes(value_width, "little")
    return out


# --- sorted-array model of the map ops

class MapModel:
    def __init__(self, pairs=()):
        self.d = {}
        for k, v in pairs:
            self.d[k] = v

    def items(self):
        return sorted(self.d.items())

    def insert(self, k, v, combine=lambda a, b: b):
        m = MapModel()
        m.d = dict(self.d)
        m.d[k] = combine(m.d[k], v) if k in m.d else v
        return m

    def remove(self, k):
        m = MapModel()
        m.d = dict(self.d)
        m.d.pop(k, None)
        return m

    def union(self, other, combine=lambda a, b: b):
        m = MapModel()
        m.d = dict(self.d)
        for k, v in other.d.items():
            m.d[k] = combine(m.d[k], v) if k in m.d else v
        return m

    def intersection(self, other, combine=lambda a, b: b):
        m = MapModel()
        m.d = {k: combine(v, other.d[k]) for k, v in self.d.items() if k in other.d}
        return m

    def difference(self, other):
        m = MapModel()
        m.d = {k: v for k, v in self.d.items() if k not in other.d}
        return m

    def filter(self, pred):
        m = MapModel()
        m.d = {k: v for k, v in self.d.items() if pred((k, v))}
        return m

    def key_range(self, lo, hi):
        m = MapModel()
        m.d = {k: v for k, v in self.d.items() if lo <= k <= hi}
        return m

    def rank(self, k):
        return sum(1 for kk in self.d if kk < k)

    def next_entry(self, k):
        ks = sorted(kk for kk in self.d if kk > k)
        return (ks[0], self.d[ks[0]]) if ks else None

    def previous_entry(self, k):
        ks = sorted(kk for kk in self.d if kk < k)
        return (ks[-1], self.d[ks[-1]]) if ks else None

    def split(self, k):
        left = MapModel()
        right = MapModel()
        left.d = {kk: v for kk, v in self.d.items() if kk < k}
        right.d = {kk: v for kk, v in self.d.items() if kk > k}
        found = (k, self.d[k]) if k in self.d else None
        return left, found, right


def from_sorted_shape(entries):
    """The divide-at-n//2 tree as nested tuples (left, entry, right)."""
    if not entries:
        return None
    mid = len(entries) // 2
    return (from_sorted_shape(entries[:mid]), entries[mid],
            from_sorted_shape(entries[mid + 1:]))


def bfs_reference(adj, src):
    dist = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                dq.append(w)
    return dist


def brute_aug(entries, identity, lift, combine):
    acc = identity
    for e in entries:
        acc = combine(acc, lift(e))
    return acc
