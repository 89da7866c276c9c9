"""Block codecs.

Every leaf block stores its entries through a codec.  Three methods are
required: ``encoded_size`` (bytes the encoding will occupy), ``encode``
(entries to payload) and ``decode`` (payload back to entries).  Two are
optional, with defaults on ``EncodingScheme``:

``check_entry(key, value)``
    Raise ``CodecError`` for an entry no block could hold.
    ``ordmap.insert`` and ``ordmap.multi_insert`` call it before they take
    any handle, so a bad entry consumes nothing.  The default accepts
    everything.

``search(payload, count, key, right=False)``
    ``(pos, entries)``: the ``bisect_left`` position of ``key`` among the
    block's keys (``bisect_right`` when ``right``), and the block's entries
    as an indexable sequence; or ``None`` when the codec cannot search its
    payload in place.  Point reads use it through ``core._search``, which
    falls back to a full (counted) ``decode`` and a bisect on ``None``.  The
    default returns ``None``.

Codecs are stateless and safe to share between threads.

Two byte-oriented codecs ship with the library:

``IdentityCodec``
    Fixed-width little-endian concatenation, one ``[key][value]`` pair per
    entry.  Size is ``count * (key_width + value_width)``.  When both widths
    are one struct size (1, 2, 4 or 8 bytes; ``value_width`` equal to
    ``key_width`` or 0), a block is packed and unpacked by one ``struct``
    call, and ``search`` bisects the keys inside the payload, so a point
    read decodes no block.  Other widths use a per-entry loop that writes
    the same bytes, and searches fall back to decode.

``DeltaCodec``
    For nonnegative integer keys, strictly increasing within a block::

        [first key: key_width bytes LE]
        [gap varints x (count - 1)]
        [values: value_width bytes LE x count]

    Gaps are classic little-endian base-128 varints: low seven bits per
    byte, high bit set on every byte except the last.  Decoding is strictly
    sequential within a block; no parallel-decode claim is made.  Values are
    stored raw; ``value_width=0`` drops them entirely (sets).

``ObjectCodec`` keeps entries as a plain tuple for payloads that are not
byte-packable (sequences of arbitrary elements, nested tree handles).  Its
reported size is a nominal pointer-model estimate.
"""

import struct
import sys
from bisect import bisect_left, bisect_right
from itertools import chain, repeat

from .errors import CodecError, CorruptionError


def varint_len(value):
    if value < 0:
        raise CodecError("varints encode nonnegative integers only")
    n = 1
    while value >= 0x80:
        value >>= 7
        n += 1
    return n


def write_varint(value, out):
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(buf, pos):
    """Decode one varint at ``pos``; returns (value, next_pos)."""
    result = 0
    shift = 0
    n = len(buf)
    while True:
        if pos >= n:
            raise CorruptionError("truncated varint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CorruptionError("malformed varint (too many continuation bytes)")


def _check_uint(x, width, what):
    if not isinstance(x, int) or isinstance(x, bool):
        raise CodecError(f"{what} must be an integer, got {type(x).__name__}")
    if x < 0 or x >> (8 * width):
        raise CodecError(f"{what} {x} out of range for {width} bytes")


class EncodingScheme:
    """Codec interface; subclasses implement the three required methods and
    may override the two optional ones (see the module docstring)."""

    name = "abstract"
    # True when the codec cannot read its first/last key in O(1) from the
    # payload, so the block header carries cached key bounds.
    caches_bounds = False

    def encoded_size(self, entries):
        raise NotImplementedError

    def encode(self, entries):
        raise NotImplementedError

    def decode(self, payload, count):
        raise NotImplementedError

    def check_entry(self, key, value):
        """Raise CodecError if no block could hold (key, value)."""

    def search(self, payload, count, key, right=False):
        """(position, indexable entries), or None: not searchable in place."""
        return None


# struct codes for the widths the identity codec packs in one call
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _PackedEntries:
    """The entries of an identity payload, each unpacked when indexed."""

    __slots__ = ("_payload", "_entry", "_keys_only")

    def __init__(self, payload, entry, keys_only):
        self._payload = payload
        self._entry = entry
        self._keys_only = keys_only

    def __getitem__(self, i):
        e = self._entry.unpack_from(self._payload, i * self._entry.size)
        return (e[0], None) if self._keys_only else e


class IdentityCodec(EncodingScheme):
    name = "identity"

    def __init__(self, key_width=8, value_width=8):
        self.key_width = key_width
        self.value_width = value_width
        self._step = key_width + value_width
        code = _STRUCT_CODES.get(key_width)
        if value_width not in (0, key_width):
            code = None
        # one struct code for every field, or None for the per-entry loop
        self._code = code
        self._entry = (struct.Struct("<" + code * (2 if value_width else 1))
                       if code else None)
        # memoryview casts read native byte order: the payload is searched
        # in place only where that order is the wire format's
        self._view = code if sys.byteorder == "little" else None

    def encoded_size(self, entries):
        return len(entries) * self._step

    def check_entry(self, key, value):
        _check_uint(key, self.key_width, "key")
        if self.value_width:
            _check_uint(value, self.value_width, "value")

    def encode(self, entries):
        if self._code is not None:
            if self.value_width:
                flat = list(chain.from_iterable(entries))
            else:
                flat = [k for k, _ in entries]
            # bool and other int subclasses, and out-of-range integers, go
            # through the checked loop, which raises the CodecError
            if set(map(type, flat)) == {int}:
                try:
                    return struct.pack(f"<{len(flat)}{self._code}", *flat)
                except struct.error:
                    pass
        return self._encode_loop(entries)

    def _encode_loop(self, entries):
        kw, vw = self.key_width, self.value_width
        out = bytearray()
        for k, v in entries:
            _check_uint(k, kw, "key")
            out += k.to_bytes(kw, "little")
            if vw:
                _check_uint(v, vw, "value")
                out += v.to_bytes(vw, "little")
        return bytes(out)

    def _check_length(self, payload, count):
        if len(payload) != count * self._step:
            raise CorruptionError("identity payload length mismatch")

    def decode(self, payload, count):
        self._check_length(payload, count)
        if self._entry is None:
            return self._decode_loop(payload, count)
        if self.value_width:
            return list(self._entry.iter_unpack(payload))
        return list(zip(struct.unpack(f"<{count}{self._code}", payload),
                        repeat(None)))

    def _decode_loop(self, payload, count):
        kw, vw, step = self.key_width, self.value_width, self._step
        entries = []
        pos = 0
        for _ in range(count):
            k = int.from_bytes(payload[pos:pos + kw], "little")
            v = int.from_bytes(payload[pos + kw:pos + step], "little") if vw else None
            entries.append((k, v))
            pos += step
        return entries

    def search(self, payload, count, key, right=False):
        if self._view is None:
            return None
        self._check_length(payload, count)
        keys = memoryview(payload).cast(self._view)
        if self.value_width:
            keys = keys[0::2]
        pos = (bisect_right if right else bisect_left)(keys, key)
        return pos, _PackedEntries(payload, self._entry, not self.value_width)


class DeltaCodec(EncodingScheme):
    name = "delta"
    caches_bounds = True

    def __init__(self, key_width=8, value_width=8):
        self.key_width = key_width
        self.value_width = value_width

    def _check_keys(self, entries):
        prev = -1
        for k, _ in entries:
            if not isinstance(k, int) or isinstance(k, bool):
                raise CodecError("delta codec requires integer keys")
            if k < 0:
                raise CodecError("delta codec requires nonnegative keys")
            if k <= prev:
                raise CodecError("delta codec requires strictly increasing keys")
            prev = k

    def check_entry(self, key, value):
        self._check_keys([(key, value)])
        if self.value_width:
            _check_uint(value, self.value_width, "value")

    def encoded_size(self, entries):
        self._check_keys(entries)
        if not entries:
            return 0
        size = self.key_width
        prev = entries[0][0]
        for k, _ in entries[1:]:
            size += varint_len(k - prev)
            prev = k
        return size + self.value_width * len(entries)

    def encode(self, entries):
        self._check_keys(entries)
        if not entries:
            return b""
        kw, vw = self.key_width, self.value_width
        first = entries[0][0]
        _check_uint(first, kw, "first key")
        out = bytearray(first.to_bytes(kw, "little"))
        prev = first
        for k, _ in entries[1:]:
            write_varint(k - prev, out)
            prev = k
        if vw:
            for _, v in entries:
                _check_uint(v, vw, "value")
                out += v.to_bytes(vw, "little")
        return bytes(out)

    def decode(self, payload, count):
        if count == 0:
            if payload:
                raise CorruptionError("nonempty payload for empty block")
            return []
        kw, vw = self.key_width, self.value_width
        if len(payload) < kw:
            raise CorruptionError("truncated first key")
        keys = [int.from_bytes(payload[:kw], "little")]
        pos = kw
        for _ in range(count - 1):
            gap, pos = read_varint(payload, pos)
            if gap == 0:
                raise CorruptionError("zero gap in delta block")
            keys.append(keys[-1] + gap)
        if vw:
            need = pos + vw * count
            if len(payload) != need:
                raise CorruptionError("delta payload length mismatch")
            values = [int.from_bytes(payload[pos + i * vw:pos + (i + 1) * vw], "little")
                      for i in range(count)]
        else:
            if len(payload) != pos:
                raise CorruptionError("delta payload length mismatch")
            values = [None] * count
        return list(zip(keys, values))


class ObjectCodec(EncodingScheme):
    """Stores entries as a tuple; for payloads that are not byte-packable."""

    name = "object"
    # Pointer-model estimate: one key word plus one value word per entry.
    NOMINAL_ENTRY_BYTES = 16

    def encoded_size(self, entries):
        return len(entries) * self.NOMINAL_ENTRY_BYTES

    def encode(self, entries):
        return tuple(entries)

    def decode(self, payload, count):
        if len(payload) != count:
            raise CorruptionError("object payload count mismatch")
        return list(payload)


def make_codec(spec, value_width=8):
    """Resolve a codec argument: an instance, or 'identity' / 'delta' / 'object'."""
    if isinstance(spec, EncodingScheme):
        return spec
    if spec in (None, "object"):
        return ObjectCodec()
    if spec == "identity":
        return IdentityCodec(value_width=value_width)
    if spec in ("delta", "diff"):
        return DeltaCodec(value_width=value_width)
    raise ValueError(f"unknown encoding {spec!r}")
