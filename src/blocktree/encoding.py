"""Block codecs.

Every leaf block stores its entries through a codec, and the library
reads and writes a block as two columns, its keys and its values.  Two
methods are required:

``columns(payload, count)``
    ``(keys, values)``: the block's keys and its values as two sequences
    in entry order, with ``values`` None for a codec that stores no values
    (a byte set).  A column may be any indexable sequence: the delta
    codec's value column is an ``array.array`` at the widths that have an
    array type code.  It checks the payload and raises ``CorruptionError``
    for a damaged one.  Every block read that is not a ``view`` in place
    and reads keys goes through it (``core._columns``, counted as one
    decode): the bulk merges and ``map_values`` of ``ordmap``,
    ``core.flatten`` (behind ``to_list``, the run of a set operation and
    ``ordmap.filter``), ``core.keys`` (the graph store's readers),
    ``sequence.reverse``, and the fallback of ``core._view``.

``encode_columns(keys, values)``
    The writer that mirrors ``columns``: the payload of the block whose
    entries are ``(keys[i], values[i])``, with ``values`` None for a set;
    a column may be a list, a tuple or an ``array.array``.  It raises
    ``CodecError`` for an entry it cannot store.  Every block
    the library builds is written by it (``core._make_flat``), straight
    from the columns its caller holds, except the set blocks that
    ``edit_keys`` edits in place and the payloads ``splice`` cuts.

``inspect.tree_bytes`` prices a byte payload at its length.  Five more
methods are optional, with defaults on ``EncodingScheme``:

``check_entry(key, value)``
    Raise ``CodecError`` for an entry no block could hold.
    ``ordmap.multi_insert`` calls it before its walk starts and
    ``ordmap.insert`` on the entry it stores, where its walk finds the
    key's place, so a bad entry builds nothing; ``graphstore.insert_edges``
    calls it on every endpoint before it builds an edge tree; the bulk
    merges call it on every ``combine`` result and every value their op
    function makes, where they make it (a merged delta value column is an
    array, which would store ``True`` as 1); and ``ordmap.map_values``
    calls it on a mapped value it keeps in a regular node, which no
    writer checks.  The default accepts everything.

``view(payload, count)``
    An ``_Entries`` over the block's two columns read in place (entry
    ``i`` is read from them), with the checks of ``columns`` and the same
    ``CorruptionError`` on every payload it rejects; or ``None`` when the
    codec cannot read its payload in place.  Every block read that wants
    its entries by index goes through ``core._view``, which falls back to
    the (counted) ``columns`` on ``None``: point reads bisect its key
    column (``core._search``; a reader that wants the first key above a
    key steps past an equal one itself), block edits slice its columns,
    and ``core._values`` takes its value column.  The identity codec at
    struct widths and the object codec read in place, so a point read
    decodes nothing.  The default returns ``None``.

``values(payload, count)``
    The value column alone, None for a set: ``columns(payload,
    count)[1]``, which is the default, with the same checks and the same
    ``CorruptionError`` on every payload ``columns`` rejects.  The readers
    of values alone use it where the codec has no ``view``
    (``core._values``, counted as one decode): ``ordmap.reduce`` (and
    ``seq_reduce``) and ``sequence``'s ``nth`` and ``find_first``.  The
    delta codec reads it without building the keys on a block of
    one-byte gaps (at every value width, through the reader ``columns``
    uses).

``splice(payload, count, i, j, entries)``
    The payload of the block with its entries ``[i, j)`` replaced by the
    entry list ``entries``, equal to ``encode`` of the edited entries; or
    ``None`` when the codec cannot edit its payload in place.  Point
    updates, block cuts and the merge of a block with a small neighbour
    use it through ``core._edit``, which falls back to slicing the
    block's columns and writing them with ``encode_columns`` on ``None``.
    It need not check the payload's length: a codec that splices also
    reads in place, and ``core._edit`` reads the new block's bounds and
    middle entry by ``view`` on the spliced payload, which checks its
    length against the edited count before any block is built on it
    (``ObjectCodec.splice`` checks its payload anyway, since it must
    unpack the pair to splice it).  The default returns ``None``.

``edit_keys(payload, count, first, last, keys, insert)``
    ``(payload, count, first, last)`` of the set block (a codec that
    stores no values) whose bounds are ``first`` and ``last``, with the
    sorted, distinct ``keys`` inserted into it (``insert``) or deleted
    from it: equal to ``encode_columns`` of the edited key column, with
    the payload object itself where that changes nothing, and
    ``(b"", 0, None, None)`` for a block left empty; or ``None`` when the
    codec does not edit the block in place.  It builds nothing on a
    payload that fails its checks or for a key it cannot store: it returns
    ``None`` there, and the caller's column read raises the
    ``CorruptionError`` and its writer the ``CodecError``.
    ``ordmap._merge`` uses it (``core._edit_keys``, counted as
    one decode, and one fold where it changes the block) where a run of a
    few keys meets a block; ``core._edit_keys`` reads the new block's
    bounds from its result.  The default returns ``None``.

``encode(entries)`` and ``decode(payload, count)`` are conveniences that
every codec inherits and no shipped codec overrides: ``encode`` splits an
entry list into its columns and calls ``encode_columns``, and ``decode``
zips what ``columns`` returns.  ``inspect.check_tree`` and callers that
hold entry lists use them; the library itself reads a block only through
``columns``, ``values`` and ``view``.

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
    call; on a little-endian host ``view`` reads both columns as strided
    ``memoryview`` casts of the payload, so a point read decodes no block,
    ``splice`` cuts the payload at ``i * step`` and ``j * step`` and packs
    only the new entries, read straight from their tuples (a one-entry
    splice pays no split into columns), and ``columns`` slices the one
    unpacked tuple into keys and values.  ``encode_columns`` interleaves
    its two columns; it and ``splice`` pack through one writer.  Other
    widths use per-entry loops that write and read the same bytes, and
    neither read nor splice in place.

``DeltaCodec``
    For nonnegative integer keys, strictly increasing within a block::

        [first key: key_width bytes LE]
        [gap varints x (count - 1)]
        [values: value_width bytes LE x count]

    Gaps are classic little-endian base-128 varints: low seven bits per
    byte, high bit set on every byte except the last.  Values are stored
    raw; ``value_width=0`` drops them entirely (sets).  When every gap is
    below 128 (dense keys), the gaps are one byte each.  For a block
    whose mean gap is below 128, one ``bytes(map(sub, ...))`` call
    computes and writes the gaps (it raises ``ValueError`` for a gap
    outside 0..255), and ``isascii`` and a search for a zero byte check
    that each is one varint byte; every other block is checked and
    written by one per-key loop.  The first and the last key are checked
    against ``key_width``: the last is the largest, so its check covers
    the block.  ``check_entry`` passes exact ints in range at once and
    sends anything else through the checks that raise.  ``columns`` sums
    ``count - 1`` gap bytes that are all below 0x80 with ``accumulate``,
    and reads any other block with one sequential varint loop; no
    parallel-decode claim is made.  On a little-endian host, values of
    width 1, 2, 4 or 8 are read as an ``array.array`` of the width's type
    code, in one copy of the payload's value bytes, by the one value
    reader that ``columns`` and ``values`` share; ``encode_columns``
    writes an array of exactly that type code with ``tobytes`` and no
    further check, since such an array holds only ints that fit the
    width.  Every other value column (a list, an array of another type
    code) is type-checked and packed by one ``struct`` call at those
    widths, and a per-value loop with the same checks writes the rest
    and the failures.  Other widths, and a big-endian host, read through
    the same ``struct`` call or the loop.  A one-entry block, whose key is
    an int in range, is its key's bytes and its value column, with no gap
    to write or check.

    ``edit_keys`` edits a set's gap varints in place.  Before it reads
    them, it checks the gap section at C speed: it holds exactly ``count -
    1`` terminator bytes (``bytes.translate`` maps each byte to its high
    bit, and the zeros are counted), its last byte is a terminator, it
    holds no zero byte (a zero gap ends in one) and no eleven continuing
    bytes in a row (a varint ``columns`` rejects as too long); and every
    new key is an int the block can store.  A block or a key that fails a
    check is not edited in place (``None``): the merge's column read
    raises for a damaged payload and its writer for a bad key, and reads
    and writes the rest (varints with needless zero groups, which no
    writer writes, or keys of an int subclass).  Otherwise a key inserted
    outside the block's bounds is written at its end with no scan: as its
    first key and one varint before the old gaps, or as one varint after
    them.  A key inside is found by reading the varints forward from the
    first key, only as far as the key; an insert writes the gap before it
    and the gap after it in place of the one gap they split, and a delete
    writes their sum in place of the two gaps.  Every key the edit writes
    is one of the payload's or an inserted int, never a deleted key that
    only equals one (``2.0``).  The rest of the payload is copied as byte
    slices, and the bounds come from ``first`` and ``last`` (delta blocks
    cache them).

``ObjectCodec`` stores a block as two tuples, ``(keys, values)``, for
entries that are not byte-packable (sequences of arbitrary elements,
nested tree handles).  ``columns`` is the payload itself, once it has
checked that the payload is a pair of ``count``-long columns; ``view``
is those two tuples, and ``splice`` splices both tuples, each after the
same check, so a damaged payload raises ``CorruptionError``
before anything is built from it.  ``inspect.tree_bytes`` prices its
payload by a nominal pointer model (``NOMINAL_ENTRY_BYTES`` per entry).
"""

import struct
import sys
from array import array
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


def _varint(gap):
    """The varint of one gap, a positive int."""
    if gap < 0x80:
        return bytes((gap,))
    out = bytearray()
    while gap >= 0x80:
        out.append((gap & 0x7F) | 0x80)
        gap >>= 7
    out.append(gap)
    return out


def _scan(gaps, pos, key, k):
    """``(start, end, prev, nxt)``: the varint ``gaps[start:end]`` of a gap
    section, the gap from the key ``prev``, below ``k``, to ``nxt``, the
    first key at or above ``k``; found by reading the varints forward from
    ``pos``, where the gap from ``key`` starts.  The section has passed
    ``DeltaCodec.edit_keys``'s checks, so each varint is terminated, and
    ``k`` is at most the block's last key."""
    while True:
        start = pos
        gap = gaps[pos]
        pos += 1
        if gap >= 0x80:
            gap &= 0x7F
            shift = 7
            while True:
                b = gaps[pos]
                pos += 1
                gap |= (b & 0x7F) << shift
                if b < 0x80:
                    break
                shift += 7
        nxt = key + gap
        if nxt >= k:
            return start, pos, key, nxt
        key = nxt


# byte -> 1 where its high bit is set (a varint byte that continues), else 0
_CONTINUES = bytes(b >> 7 for b in range(256))
# eleven continuing bytes in a row: a varint that columns rejects as too long
_OVERLONG = b"\x01" * 11


_first = itemgetter(0)
_second = itemgetter(1)


def _check_uint(x, width, what):
    if not isinstance(x, int) or isinstance(x, bool):
        raise CodecError(f"{what} must be an integer, got {type(x).__name__}")
    if x < 0 or x >> (8 * width):
        raise CodecError(f"{what} {x} out of range for {width} bytes")


class EncodingScheme:
    """Codec interface; subclasses implement the two required methods and
    may override the optional ones (see the module docstring)."""

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

    def columns(self, payload, count):
        """(keys, values) of a block, values None where none are stored."""
        raise NotImplementedError

    def values(self, payload, count):
        """The value column of a block, None where none is stored."""
        return self.columns(payload, count)[1]

    def encode_columns(self, keys, values=None):
        """The payload of the entries (keys[i], values[i]); values None for
        a set."""
        raise NotImplementedError

    def encode(self, entries):
        """The payload of an entry list: its two columns, written."""
        return self.encode_columns(list(map(_first, entries)),
                                   list(map(_second, entries)))

    def decode(self, payload, count):
        """The entries of a block: its two columns, zipped."""
        keys, values = self.columns(payload, count)
        return list(zip(keys, repeat(None) if values is None else values))

    def check_entry(self, key, value):
        """Raise CodecError if no block could hold (key, value)."""

    def view(self, payload, count):
        """An ``_Entries`` view of the block's columns read in place, or
        None: not read in place."""
        return None

    def splice(self, payload, count, i, j, entries):
        """The payload with entries [i, j) replaced, or None: not editable
        in place."""
        return None

    def edit_keys(self, payload, count, first, last, keys, insert):
        """(payload, count, first, last) of the set block with the sorted,
        distinct keys inserted (or deleted), or None: not edited in
        place."""
        return None


# struct codes for the widths packed in one call
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
# the same codes as array codes, where the host's array item has the width
_ARRAY_CODES = {w: c for w, c in _STRUCT_CODES.items()
                if array(c).itemsize == w}


class _Entries:
    """A block's entries read from its two columns: entry i is
    ``(keys[i], values[i])``, or ``(keys[i], None)`` where ``values`` is
    None."""

    __slots__ = ("keys", "values")

    def __init__(self, keys, values):
        self.keys = keys
        self.values = values

    def __getitem__(self, i):
        values = self.values
        return self.keys[i], None if values is None else values[i]


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
        # memoryview casts read native byte order: the payload is read in
        # place only where that order is the wire format's
        self._cast = code if sys.byteorder == "little" else None

    def check_entry(self, key, value):
        _check_uint(key, self.key_width, "key")
        if self.value_width:
            _check_uint(value, self.value_width, "value")

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

    def view(self, payload, count):
        if self._cast is None:
            return None
        self._check_length(payload, count)
        keys, values = memoryview(payload).cast(self._cast), None
        if self.value_width:
            keys, values = keys[0::2], keys[1::2]
        return _Entries(keys, values)

    def splice(self, payload, count, i, j, entries):
        # a payload that is not read in place is not spliced either
        if self._cast is None:
            return None
        step, new = self._step, b""
        if entries:
            # the fields in wire order, read straight from the entry
            # tuples: a one-entry splice pays no split into columns
            new = self._write(list(chain.from_iterable(entries))
                              if self.value_width
                              else list(map(_first, entries)), entries)
        return payload[:i * step] + new + payload[j * step:]


class DeltaCodec(EncodingScheme):
    name = "delta"
    caches_bounds = True

    def __init__(self, key_width=8, value_width=8):
        super().__init__(key_width, value_width)
        # struct code packing every value in one call, or None for the loop
        self._value_code = _STRUCT_CODES.get(value_width)
        # array code whose machine values are the wire's, or None: arrays
        # hold native byte order, the wire's only on a little-endian host
        self._array_code = (_ARRAY_CODES.get(value_width)
                            if sys.byteorder == "little" else None)

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

    def encode_columns(self, keys, values=None):
        if not keys:
            return b""
        first, last = keys[0], keys[-1]
        kw = self.key_width
        if (len(keys) == 1 and type(first) is int and first >= 0
                and not first >> 8 * kw):
            # one entry: no gap to write, and its key checked in place
            out = first.to_bytes(kw, "little")
            return (out + self._encode_values(values) if self.value_width
                    else out)
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
        # an array of this codec's own code holds only ints of the width;
        # bool and other int subclasses, and out-of-range integers, go
        # through the checked loop, which raises the CodecError
        if type(values) is array and values.typecode == self._array_code:
            return values.tobytes()
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
        if len(payload) != pos + vw * count:
            raise CorruptionError("delta payload length mismatch")
        return keys, self._read_values(payload, pos, count)

    def _read_values(self, payload, pos, count):
        """The one value reader: the ``count`` values stored from ``pos``
        (None for a set), as an array of this codec's code where it has
        one, read in one copy."""
        vw = self.value_width
        if not vw:
            return None
        end = pos + vw * count
        if self._array_code is not None:
            values = array(self._array_code)
            values.frombytes(memoryview(payload)[pos:end])
            return values
        if self._value_code is not None:
            return struct.unpack_from(f"<{count}{self._value_code}", payload, pos)
        return [int.from_bytes(payload[p:p + vw], "little")
                for p in range(pos, end, vw)]

    def values(self, payload, count):
        kw = self.key_width
        pos = kw + count - 1
        # every gap one nonzero byte below 0x80 and the length exact: the
        # checks columns makes, with the values at pos.  Any other block
        # (and any damaged one) is read by this class's columns
        if (count and len(payload) == pos + self.value_width * count
                and (gaps := payload[kw:pos]).isascii() and 0 not in gaps):
            return self._read_values(payload, pos, count)
        return DeltaCodec.columns(self, payload, count)[1]

    def edit_keys(self, payload, count, first, last, keys, insert):
        if self.value_width:
            return None
        kw = self.key_width
        gaps = payload[kw:]
        flags = gaps.translate(_CONTINUES)
        # count - 1 terminated varints that end the payload, none zero and
        # none too long, and the new keys ints the block can store
        if (len(payload) < kw or flags.count(0) != count - 1
                or flags[-1:] == b"\x01" or 0 in gaps or _OVERLONG in flags
                or insert and (set(map(type, keys)) != {int}
                               or keys[0] < 0 or keys[-1] >> 8 * kw)):
            # left to the caller's column read, which raises for a damaged
            # payload, and its writer, which raises for a bad key
            return None
        n = count
        pos, key = 0, first     # the gap at gaps[pos] leads from key
        for k in keys:
            if not first <= k <= last:
                if insert and k > last:
                    gaps += _varint(k - last)
                    last, n = k, n + 1
                elif insert:
                    gaps = _varint(first - k) + gaps
                    pos, key, first, n = 0, k, k, n + 1
                continue
            if k == first or k == last:
                if insert:
                    continue
                if n == 1:
                    return b"", 0, None, None
                if k == first:
                    # the keys built come from the payload's ints, never
                    # from k, which may only equal one (2.0 == 2)
                    _, e, _, first = _scan(gaps, 0, first, first + 1)
                    gaps = gaps[e:]
                    pos, key, n = 0, first, n - 1
                    continue
            # the gap that reaches k
            s, e, a, b = _scan(gaps, pos, key, k)
            if insert:
                pos, key = e, b
                if b != k:
                    g = _varint(k - a)
                    gaps = gaps[:s] + g + _varint(b - k) + gaps[e:]
                    pos, key, n = s + len(g), k, n + 1
                continue
            pos, key = s, a
            if b == k:
                if e == len(gaps):
                    gaps, last = gaps[:s], a
                else:
                    # two gaps become one
                    _, e, _, c = _scan(gaps, e, b, b + 1)
                    gaps = gaps[:s] + _varint(c - a) + gaps[e:]
                n -= 1
        if n == count:
            return payload, count, first, last
        return first.to_bytes(kw, "little") + gaps, n, first, last


class ObjectCodec(EncodingScheme):
    """Stores a block as a key tuple and a value tuple; for payloads that
    are not byte-packable."""

    name = "object"
    # Pointer-model estimate: one key word plus one value word per entry.
    NOMINAL_ENTRY_BYTES = 16

    def encode_columns(self, keys, values=None):
        return tuple(keys), ((None,) * len(keys) if values is None
                             else tuple(values))

    def columns(self, payload, count):
        if (len(payload) != 2 or len(payload[0]) != count
                or len(payload[1]) != count):
            raise CorruptionError("object payload count mismatch")
        return payload

    # view and splice check the payload through this class's columns, not
    # a subclass's: a subclass that wraps columns sees one call per block
    # read

    def view(self, payload, count):
        return _Entries(*ObjectCodec.columns(self, payload, count))

    def splice(self, payload, count, i, j, entries):
        keys, values = ObjectCodec.columns(self, payload, count)
        return (keys[:i] + tuple(map(_first, entries)) + keys[j:],
                values[:i] + tuple(map(_second, entries)) + values[j:])


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
