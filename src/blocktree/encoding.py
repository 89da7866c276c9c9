"""Block codecs.

Every leaf block stores its entries through a codec.  Two methods are
required: ``encode`` (entries to payload) and ``decode`` (payload back to
entries); ``inspect.tree_bytes`` prices a byte payload at its length.
Five more are optional, with defaults on ``EncodingScheme``:

``check_entry(key, value)``
    Raise ``CodecError`` for an entry no block could hold.
    ``ordmap.multi_insert`` calls it before its walk starts and
    ``ordmap.insert`` on the entry it stores, where its walk finds the
    key's place, so a bad entry builds nothing; ``graphstore.insert_edges``
    calls it on every endpoint before it builds an edge tree; and the
    bulk merges and ``ordmap.map_values`` call it on a combined or mapped
    value they keep in a regular node, which no writer checks.  The
    default accepts everything.

``search(payload, count, key)``
    ``(pos, entries)``: the ``bisect_left`` position of ``key`` among the
    block's keys, and the block's entries as an indexable sequence (the
    shipped codecs' one view reads entry ``i`` from the two columns); or
    ``None`` when the codec cannot search its payload in place.  Point
    reads use it through ``core._search``, which falls back to a full
    (counted) ``decode`` and a bisect on ``None``; a reader that wants the
    first key above ``key`` steps past an equal one itself.  The default
    returns ``None``.

``splice(payload, count, i, j, entries)``
    The payload of the block with its entries ``[i, j)`` replaced by the
    list ``entries``, equal to ``encode`` of the edited entries; or
    ``None`` when the codec cannot edit its payload in place.  Point
    updates, block cuts and the merge of a block with a small neighbour
    use it through ``core._edit``, which falls back to decode, edit and
    ``encode`` on ``None``.  It need not check the payload's length: a
    codec that splices also searches in place, and ``core._edit`` reads
    the new block's bounds and middle entry by ``search`` on the spliced
    payload, which checks its length against the edited count before any
    block is built on it (``ObjectCodec.splice`` checks its payload
    anyway, since it must unpack the pair to splice it).  The default
    returns ``None``.

``columns(payload, count)``
    ``(keys, values)``: the block's keys and its values as two sequences
    in entry order, with ``values`` None for a codec that stores no values
    (a byte set).  It runs the checks ``decode`` runs and raises the same
    ``CorruptionError``s.  Reads use it through ``core._columns``,
    counted as one decode: ``ordmap.reduce`` folds the value column,
    ``core.keys`` (the graph store's readers) collects the key column,
    the bulk merges and ``map_values`` of ``ordmap`` read both, and
    ``sequence``'s ``nth``, ``find_first`` and ``reverse`` read the value
    column.  Every shipped codec reads columns, so no reader keeps a
    second, decoding path.  The default splits ``decode``'s entries, for
    a codec that only decodes.

``encode_columns(keys, values)``
    The writer that mirrors ``columns``: the payload ``encode`` writes
    for the entries ``(keys[i], values[i])``, with ``values`` None for a
    set, after the same checks and with the same ``CodecError``
    messages.  The bulk merges and ``map_values`` write their blocks with
    it straight from their columns (``core._make_flat``).  Each byte
    codec keeps one writer: ``DeltaCodec.encode`` splits its entries and
    calls it, and both of ``IdentityCodec``'s writing methods pack
    through ``_write``.  The default zips the columns and calls
    ``encode``.

Codecs are stateless and safe to share between threads.  A codec is
built with a ``key_width`` of at least 1 and a ``value_width`` of at least
0, both ints (bytes per field; ``ObjectCodec`` stores no bytes and ignores
them): ``EncodingScheme.__init__`` raises ``ValueError`` for anything else.

Two byte-oriented codecs ship with the library:

``IdentityCodec``
    Fixed-width little-endian concatenation, one ``[key][value]`` pair per
    entry.  Size is ``count * (key_width + value_width)``.  When both widths
    are one struct size (1, 2, 4 or 8 bytes; ``value_width`` equal to
    ``key_width`` or 0), a block is packed and unpacked by one ``struct``
    call, and ``search`` bisects the keys inside the payload, so a point
    read decodes no block, ``splice`` cuts the payload at ``i * step`` and
    ``j * step`` and packs only the new entries, and ``columns`` slices
    the one unpacked tuple into keys and values.  ``encode`` reads the
    fields straight from its entry tuples, so a one-entry splice pays no
    split into columns, and ``encode_columns`` interleaves its two
    columns; both pack through one writer.  Other widths use per-entry
    loops that write and read the same bytes: ``columns`` parses the
    block into its two columns, ``decode`` zips them, and searches and
    splices fall back to decode.

``DeltaCodec``
    For nonnegative integer keys, strictly increasing within a block::

        [first key: key_width bytes LE]
        [gap varints x (count - 1)]
        [values: value_width bytes LE x count]

    Gaps are classic little-endian base-128 varints: low seven bits per
    byte, high bit set on every byte except the last.  Values are stored
    raw; ``value_width=0`` drops them entirely (sets).  When every gap is
    below 128 (dense keys), the gaps are one byte each.  The writer is
    ``encode_columns``; ``encode`` splits its entries into the two
    columns.  For a block whose mean gap is below 128, one
    ``bytes(map(sub, ...))`` call computes and writes the gaps (it raises
    ``ValueError`` for a gap outside 0..255), and ``isascii`` and a search
    for a zero byte check that each is one varint byte; every other block
    is checked and written by one per-key loop.  The first and the last
    key are checked against ``key_width``: the last is the largest, so its
    check covers the block.  ``check_entry`` passes exact ints in range at
    once and sends anything else through the checks that raise.  Decode
    sums ``count - 1`` gap bytes that are all below 0x80 with
    ``accumulate``, and reads any other block with one sequential varint
    loop; no parallel-decode claim is made.  Values of width 1, 2, 4 or 8
    are packed and unpacked by one ``struct`` call.  ``columns`` is the
    one parser: ``decode`` zips its two columns into entries.

``ObjectCodec`` stores a block as two tuples, ``(keys, values)``, for
entries that are not byte-packable (sequences of arbitrary elements,
nested tree handles).  ``columns`` is the payload itself, once it has
checked that the payload is a pair of ``count``-long columns; ``decode``
zips the pair, ``search`` bisects the key tuple in place, and ``splice``
splices both tuples, each after the same check, so a damaged payload
raises ``CorruptionError`` before anything is built from it.
``inspect.tree_bytes`` prices its payload by a nominal pointer model
(``NOMINAL_ENTRY_BYTES`` per entry).
"""

import struct
import sys
from bisect import bisect_left
from itertools import accumulate, chain, repeat
from operator import itemgetter, sub

from .errors import CodecError, CorruptionError


def _gap_varints(keys):
    """The gap varints of a delta block's keys; raises CodecError unless
    they are nonnegative, strictly increasing integers."""
    out = bytearray()
    append = out.append
    prev = None
    for k in keys:
        if type(k) is not int and (not isinstance(k, int) or isinstance(k, bool)):
            raise CodecError("delta codec requires integer keys")
        if k < 0:
            raise CodecError("delta codec requires nonnegative keys")
        if prev is not None:
            gap = k - prev
            if gap <= 0:
                raise CodecError("delta codec requires strictly increasing keys")
            while gap >= 0x80:
                append((gap & 0x7F) | 0x80)
                gap >>= 7
            append(gap)
        prev = k
    return out


def _varint_keys(payload, pos, count, first):
    """The ``count`` keys of a delta block whose gap varints start at
    ``pos``, and the position after the last gap."""
    keys = [first]
    append = keys.append
    key = first
    n = len(payload)
    for _ in range(count - 1):
        if pos >= n:
            raise CorruptionError("truncated varint")
        gap = payload[pos]
        pos += 1
        if gap >= 0x80:
            gap &= 0x7F
            shift = 7
            while True:
                if pos >= n:
                    raise CorruptionError("truncated varint")
                b = payload[pos]
                pos += 1
                gap |= (b & 0x7F) << shift
                if b < 0x80:
                    break
                shift += 7
                if shift > 70:
                    raise CorruptionError("malformed varint (too many continuation bytes)")
        if gap == 0:
            raise CorruptionError("zero gap in delta block")
        key += gap
        append(key)
    return keys, pos


_first = itemgetter(0)
_second = itemgetter(1)


def _check_uint(x, width, what):
    if not isinstance(x, int) or isinstance(x, bool):
        raise CodecError(f"{what} must be an integer, got {type(x).__name__}")
    if x < 0 or x >> (8 * width):
        raise CodecError(f"{what} {x} out of range for {width} bytes")


class EncodingScheme:
    """Codec interface; subclasses implement the two required methods and
    may override the five optional ones (see the module docstring)."""

    name = "abstract"
    # True when the codec cannot read its first/last key in O(1) from the
    # payload, so the block header carries cached key bounds.
    caches_bounds = False

    def __init__(self, key_width=8, value_width=8):
        # exactly ints: neither 2.5 nor True is a width
        for what, width, least in (("key", key_width, 1),
                                   ("value", value_width, 0)):
            if type(width) is not int or width < least:
                raise ValueError(f"{what} width must be an int of at least "
                                 f"{least}; got {width!r}")
        self.key_width = key_width
        self.value_width = value_width

    def encode(self, entries):
        raise NotImplementedError

    def decode(self, payload, count):
        raise NotImplementedError

    def encode_columns(self, keys, values=None):
        """encode of the entries (keys[i], values[i]); values None for a
        set."""
        return self.encode(list(zip(keys, repeat(None) if values is None
                                    else values)))

    def check_entry(self, key, value):
        """Raise CodecError if no block could hold (key, value)."""

    def search(self, payload, count, key):
        """(position, indexable entries), or None: not searchable in place."""
        return None

    def splice(self, payload, count, i, j, entries):
        """The payload with entries [i, j) replaced, or None: not editable
        in place."""
        return None

    def columns(self, payload, count):
        """(keys, values), values None where none are stored: by default
        the decoded entries, split."""
        entries = self.decode(payload, count)
        return list(map(_first, entries)), list(map(_second, entries))


# struct codes for the widths the identity codec packs in one call
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Entries:
    """A block's entries read in place from its two columns: entry i is
    ``(keys[i], values[i])``, or ``(keys[i], None)`` where ``values`` is
    None."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys, values):
        self._keys = keys
        self._values = values

    def __getitem__(self, i):
        values = self._values
        return self._keys[i], None if values is None else values[i]


class IdentityCodec(EncodingScheme):
    name = "identity"

    def __init__(self, key_width=8, value_width=8):
        super().__init__(key_width, value_width)
        self._step = key_width + value_width
        code = _STRUCT_CODES.get(key_width)
        if value_width not in (0, key_width):
            code = None
        # one struct code for every field, or None for the per-entry loop
        self._code = code
        # one [key][value] entry, where decode unpacks them in one call
        self._entry = (struct.Struct("<" + code * 2)
                       if code and value_width else None)
        # memoryview casts read native byte order: the payload is searched
        # in place only where that order is the wire format's
        self._view = code if sys.byteorder == "little" else None

    def check_entry(self, key, value):
        _check_uint(key, self.key_width, "key")
        if self.value_width:
            _check_uint(value, self.value_width, "value")

    def encode(self, entries):
        # the entries' fields in wire order, read straight from the tuples:
        # a one-entry splice pays no split into columns
        if self.value_width:
            return self._write(list(chain.from_iterable(entries)), entries)
        return self._write(list(map(_first, entries)), entries)

    def encode_columns(self, keys, values=None):
        flat = keys
        if self.value_width:
            flat = [None] * (2 * len(keys))
            flat[0::2] = keys
            flat[1::2] = values
        return self._write(flat, zip(keys, values or repeat(None)))

    def _write(self, flat, entries):
        """The one writer: the payload of the block whose fields, in wire
        order, are ``flat``; ``entries`` iterates its (key, value) pairs
        for the checked loop."""
        # bool and other int subclasses, and out-of-range integers, go
        # through the checked loop, which raises the CodecError
        if self._code is not None and set(map(type, flat)) == {int}:
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
        if self._entry is not None:
            self._check_length(payload, count)
            return list(self._entry.iter_unpack(payload))
        # this class's parser, not a subclass's: a subclass that wraps both
        # methods sees one call per block read
        keys, values = IdentityCodec.columns(self, payload, count)
        return list(zip(keys, repeat(None) if values is None else values))

    def columns(self, payload, count):
        self._check_length(payload, count)
        if self._code is None:
            return self._columns_loop(payload, count)
        if not self.value_width:
            return struct.unpack(f"<{count}{self._code}", payload), None
        flat = struct.unpack(f"<{2 * count}{self._code}", payload)
        return flat[0::2], flat[1::2]

    def _columns_loop(self, payload, count):
        kw, vw, end = self.key_width, self.value_width, count * self._step
        keys = [int.from_bytes(payload[p:p + kw], "little")
                for p in range(0, end, self._step)]
        if not vw:
            return keys, None
        return keys, [int.from_bytes(payload[p:p + vw], "little")
                      for p in range(kw, end, self._step)]

    def search(self, payload, count, key):
        if self._view is None:
            return None
        self._check_length(payload, count)
        keys, values = memoryview(payload).cast(self._view), None
        if self.value_width:
            keys, values = keys[0::2], keys[1::2]
        return bisect_left(keys, key), _Entries(keys, values)

    def splice(self, payload, count, i, j, entries):
        # a payload that is not searched in place is not spliced either
        if self._view is None:
            return None
        step = self._step
        new = self.encode(entries) if entries else b""
        return payload[:i * step] + new + payload[j * step:]


class DeltaCodec(EncodingScheme):
    name = "delta"
    caches_bounds = True

    def __init__(self, key_width=8, value_width=8):
        super().__init__(key_width, value_width)
        # struct code packing every value in one call, or None for the loop
        self._value_code = _STRUCT_CODES.get(value_width)

    def check_entry(self, key, value):
        kw, vw = self.key_width, self.value_width
        # exact ints in range pass at once; anything else takes the checks
        # that raise the CodecError
        if (type(key) is int and key >= 0 and not key >> 8 * kw
                and (not vw or type(value) is int and value >= 0
                     and not value >> 8 * vw)):
            return
        _gap_varints((key,))
        _check_uint(key, kw, "key")
        if vw:
            _check_uint(value, vw, "value")

    def encode(self, entries):
        # this class's writer, not a subclass's: a subclass that wraps both
        # methods sees one call per block written
        return DeltaCodec.encode_columns(
            self, list(map(_first, entries)),
            list(map(_second, entries)) if self.value_width else None)

    def encode_columns(self, keys, values=None):
        if not keys:
            return b""
        first, last = keys[0], keys[-1]
        gaps = None
        # Only a block whose mean gap is below 128 can have every gap one
        # byte; its keys are checked and its gaps written by C-level calls
        # (bytes() raises ValueError for a gap outside 0..255).  Every
        # other block, and any block failing a check, goes through the
        # checked loop, which raises the CodecError.
        if (type(first) is int and type(last) is int and first >= 0
                and last - first < 0x80 * (len(keys) - 1)
                and set(map(type, keys)) == {int}):
            try:
                gaps = bytes(map(sub, keys[1:], keys))
            except ValueError:
                pass
            if gaps is not None and (not gaps.isascii() or 0 in gaps):
                gaps = None
        if gaps is None:
            gaps = _gap_varints(keys)
        kw = self.key_width
        _check_uint(first, kw, "first key")
        # the keys are increasing ints: the last one's width covers them
        if last >> 8 * kw:
            _check_uint(last, kw, "key")
        out = bytearray(first.to_bytes(kw, "little"))
        out += gaps
        if self.value_width:
            out += self._encode_values(values)
        return bytes(out)

    def _encode_values(self, values):
        code, vw = self._value_code, self.value_width
        # bool and other int subclasses, and out-of-range integers, go
        # through the checked loop, which raises the CodecError
        if code is not None and set(map(type, values)) == {int}:
            try:
                return struct.pack(f"<{len(values)}{code}", *values)
            except struct.error:
                pass
        out = bytearray()
        for v in values:
            _check_uint(v, vw, "value")
            out += v.to_bytes(vw, "little")
        return out

    def decode(self, payload, count):
        # this class's parser, not a subclass's: a subclass that wraps both
        # methods sees one call per block read
        keys, values = DeltaCodec.columns(self, payload, count)
        return list(zip(keys, repeat(None) if values is None else values))

    def columns(self, payload, count):
        if count == 0:
            if payload:
                raise CorruptionError("nonempty payload for empty block")
            return [], [] if self.value_width else None
        kw, vw = self.key_width, self.value_width
        if len(payload) < kw:
            raise CorruptionError("truncated first key")
        first = int.from_bytes(payload[:kw], "little")
        pos = kw + count - 1
        gaps = payload[kw:pos]
        if len(gaps) == count - 1 and gaps.isascii():
            # every gap is one byte below 0x80, a varint equal to its value
            if 0 in gaps:
                raise CorruptionError("zero gap in delta block")
            keys = list(accumulate(gaps, initial=first))
        else:
            keys, pos = _varint_keys(payload, kw, count, first)
        if vw:
            if len(payload) != pos + vw * count:
                raise CorruptionError("delta payload length mismatch")
            if self._value_code is not None:
                values = struct.unpack_from(f"<{count}{self._value_code}", payload, pos)
            else:
                values = [int.from_bytes(payload[p:p + vw], "little")
                          for p in range(pos, pos + vw * count, vw)]
            return keys, values
        if len(payload) != pos:
            raise CorruptionError("delta payload length mismatch")
        return keys, None


class ObjectCodec(EncodingScheme):
    """Stores a block as a key tuple and a value tuple; for payloads that
    are not byte-packable."""

    name = "object"
    # Pointer-model estimate: one key word plus one value word per entry.
    NOMINAL_ENTRY_BYTES = 16

    def encode(self, entries):
        return tuple(map(_first, entries)), tuple(map(_second, entries))

    def encode_columns(self, keys, values=None):
        return tuple(keys), ((None,) * len(keys) if values is None
                             else tuple(values))

    def columns(self, payload, count):
        if (len(payload) != 2 or len(payload[0]) != count
                or len(payload[1]) != count):
            raise CorruptionError("object payload count mismatch")
        return payload

    # decode, search and splice check the payload through this class's
    # columns, not a subclass's: a subclass that wraps decode and columns
    # sees one call per block read

    def decode(self, payload, count):
        keys, values = ObjectCodec.columns(self, payload, count)
        return list(zip(keys, values))

    def search(self, payload, count, key):
        keys, values = ObjectCodec.columns(self, payload, count)
        return bisect_left(keys, key), _Entries(keys, values)

    def splice(self, payload, count, i, j, entries):
        keys, values = ObjectCodec.columns(self, payload, count)
        new_keys, new_values = ObjectCodec.encode(self, entries)
        return (keys[:i] + new_keys + keys[j:],
                values[:i] + new_values + values[j:])


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
