import hashlib
import random
import re
import struct
from array import array
from bisect import bisect_left
from itertools import accumulate, repeat

import pytest
from hypothesis import example, given, settings, strategies as st

from blocktree.counters import counters
from blocktree.encoding import (DeltaCodec, EncodingScheme, IdentityCodec,
                                ObjectCodec, make_codec)
from blocktree.errors import CodecError, CorruptionError
from blocktree.nodes import Flat

from oracles import (delta_block_bytes, delta_block_decode, delta_block_payload,
                     identity_block_bytes, varint_decode_stream, varint_encode)


def _gap_bytes(gap):
    """The varint a keys-only delta block writes for one gap: the payload
    of keys (0, gap) after its 8-byte first key."""
    codec = DeltaCodec(value_width=0)
    entries = [(0, None), (gap, None)]
    payload = codec.encode(entries)
    assert len(payload) == delta_block_bytes([0, gap], value_width=0)
    assert codec.decode(payload, 2) == entries
    return payload[8:]


def test_varint_single_bytes():
    assert varint_encode(0) == bytes([0])     # a gap is never 0
    for v in (1, 19, 127):
        assert _gap_bytes(v) == bytes([v]) == varint_encode(v)


def test_varint_300_is_ac_02():
    # 300 = 0b100101100 -> low seven bits 0x2C with continuation, then 0x02
    assert _gap_bytes(300) == b"\xac\x02"
    assert varint_encode(300) == b"\xac\x02"


@given(st.integers(min_value=0, max_value=2 ** 70))
@example(1)
@example(128)
@example(2 ** 64 - 1)
def test_varint_matches_oracle(v):
    out = varint_encode(v)
    assert len(out) == max(1, -(-v.bit_length() // 7))
    assert varint_decode_stream(out) == [v]
    if 0 < v < 2 ** 64:          # a gap between two 8-byte keys
        assert _gap_bytes(v) == out


def test_delta_wire_format_pinned():
    codec = DeltaCodec(key_width=8, value_width=8)
    entries = [(100, 7), (103, 8), (107, 9)]
    payload = codec.encode(entries)
    want = ((100).to_bytes(8, "little") + b"\x03\x04"
            + (7).to_bytes(8, "little") + (8).to_bytes(8, "little")
            + (9).to_bytes(8, "little"))
    assert payload == want
    assert len(payload) == delta_block_bytes([100, 103, 107])
    assert codec.decode(payload, 3) == entries


def test_delta_keys_only_format():
    codec = DeltaCodec(value_width=0)
    payload = codec.encode([(0, None), (300, None)])
    assert payload == (0).to_bytes(8, "little") + b"\xac\x02"
    assert codec.decode(payload, 2) == [(0, None), (300, None)]


def test_delta_size_matches_analytic_formula():
    rng = random.Random(1)
    codec = DeltaCodec()
    for _ in range(200):
        keys = sorted(rng.sample(range(10 ** 9), rng.randrange(1, 64)))
        entries = [(k, 0) for k in keys]
        assert len(codec.encode(entries)) == delta_block_bytes(keys)


def test_delta_size_monotone_in_gap_magnitude():
    codec = DeltaCodec(value_width=0)
    tight = [(i, None) for i in range(0, 50)]
    wide = [(i * 1000, None) for i in range(0, 50)]
    assert len(codec.encode(tight)) < len(codec.encode(wide))


def test_identity_fixed_width():
    codec = IdentityCodec()
    entries = [(5, 6), (9, 10)]
    payload = codec.encode(entries)
    assert len(payload) == 2 * 16 == len(identity_block_bytes(entries))
    assert payload[:8] == (5).to_bytes(8, "little")
    assert codec.decode(payload, 2) == entries


@settings(max_examples=300)
@given(st.sets(st.integers(min_value=0, max_value=2 ** 62), min_size=1, max_size=256),
       st.sampled_from(["identity", "delta", "delta0"]))
def test_roundtrip_fuzz(keys, kind):
    if kind == "identity":
        codec = IdentityCodec()
        entries = [(k, (k * 31) % (2 ** 60)) for k in sorted(keys)]
    elif kind == "delta":
        codec = DeltaCodec()
        entries = [(k, (k * 31) % (2 ** 60)) for k in sorted(keys)]
    else:
        codec = DeltaCodec(value_width=0)
        entries = [(k, None) for k in sorted(keys)]
    payload = codec.encode(entries)
    if kind == "identity":
        assert payload == identity_block_bytes(entries)
    else:
        assert len(payload) == delta_block_bytes(
            sorted(keys), value_width=0 if kind == "delta0" else 8)
    assert codec.decode(payload, len(entries)) == entries


def test_roundtrip_randomized_bulk():
    rng = random.Random(99)
    for codec in (IdentityCodec(), DeltaCodec(), DeltaCodec(value_width=0),
                  ObjectCodec()):
        vw = getattr(codec, "value_width", 8)
        for _ in range(2500):
            n = rng.randrange(1, 2 * 128 + 1)
            keys = sorted(rng.sample(range(10 ** 7), n))
            entries = [(k, None if vw == 0 else rng.getrandbits(40)) for k in keys]
            assert codec.decode(codec.encode(entries), n) == entries


def test_delta_rejects_misuse():
    codec = DeltaCodec()
    with pytest.raises(CodecError):
        codec.encode([(3, 0), (3, 0)])        # duplicate key
    with pytest.raises(CodecError):
        codec.encode([(5, 0), (2, 0)])        # unsorted
    with pytest.raises(CodecError):
        codec.encode([(-1, 0)])               # negative
    with pytest.raises(CodecError):
        codec.encode([("a", 0)])              # non-integer


def test_delta_detects_corruption():
    codec = DeltaCodec(value_width=0)
    payload = codec.encode([(1, None), (5, None), (9, None)])
    with pytest.raises(CorruptionError):
        codec.decode(payload[:-1], 3)                     # truncated
    with pytest.raises(CorruptionError):
        codec.decode(payload + b"\x00", 3)                # trailing junk
    with pytest.raises(CorruptionError):
        codec.decode(payload[:8] + b"\x80\x80", 2)        # unterminated varint


def test_identity_detects_length_mismatch():
    codec = IdentityCodec()
    payload = codec.encode([(1, 2)])
    with pytest.raises(CorruptionError):
        codec.decode(payload, 2)


# (key_width, value_width): struct-packed widths, then ones the loop handles
IDENTITY_WIDTHS = [(1, 1), (2, 2), (4, 4), (8, 8), (8, 0), (2, 0),
                   (3, 3), (8, 4), (3, 0)]


@st.composite
def identity_block(draw):
    kw, vw = draw(st.sampled_from(IDENTITY_WIDTHS))
    value = st.integers(0, 2 ** (8 * vw) - 1) if vw else st.none()
    entries = draw(st.lists(st.tuples(st.integers(0, 2 ** (8 * kw) - 1), value),
                            max_size=80, unique_by=lambda e: e[0]))
    return kw, vw, sorted(entries)


@settings(max_examples=300)
@given(identity_block())
def test_identity_struct_path_matches_loop(block):
    kw, vw, entries = block
    codec = IdentityCodec(kw, vw)
    assert (codec._code is None) == ((kw, vw) in {(3, 3), (8, 4), (3, 0)})
    payload = codec.encode(entries)
    assert payload == codec._encode_loop(entries) == identity_block_bytes(entries, kw, vw)
    decoded = codec.decode(payload, len(entries))
    keys, values = codec._columns_loop(payload, len(entries))
    assert decoded == list(zip(keys, values or repeat(None))) == entries
    assert all(type(e) is tuple for e in decoded)


class _Int(int):
    pass


def test_identity_int_subclass_takes_loop_with_same_bytes():
    codec = IdentityCodec()
    entries = [(_Int(3), 4), (5, _Int(6))]
    assert codec.encode(entries) == identity_block_bytes([(3, 4), (5, 6)])


@pytest.mark.parametrize("kw,vw", [(8, 8), (1, 1), (8, 0), (3, 3)])
@pytest.mark.parametrize("bad,why", [
    (True, "must be an integer, got bool"),
    (None, "must be an integer, got NoneType"),
    (-1, "-1 out of range for {w} bytes"),
    (2 ** 64, "18446744073709551616 out of range for {w} bytes"),
    (1.0, "must be an integer, got float"),
])
def test_identity_codec_error_messages(kw, vw, bad, why):
    codec = IdentityCodec(kw, vw)
    good = [(1, 2 if vw else None), (2, 3 if vw else None)]
    with pytest.raises(CodecError) as exc:
        codec.encode(good + [(bad, 1 if vw else None)])
    assert str(exc.value) == "key " + why.format(w=kw)
    with pytest.raises(CodecError) as exc:
        codec.encode_columns([1, 2, bad], [2, 3, 1] if vw else None)
    assert str(exc.value) == "key " + why.format(w=kw)
    with pytest.raises(CodecError) as exc:
        codec.check_entry(bad, 1)
    assert str(exc.value) == "key " + why.format(w=kw)
    if vw:
        with pytest.raises(CodecError) as exc:
            codec.encode(good + [(7, bad)])
        assert str(exc.value) == "value " + why.format(w=vw)
        with pytest.raises(CodecError) as exc:
            codec.encode_columns([1, 2, 7], [2, 3, bad])
        assert str(exc.value) == "value " + why.format(w=vw)
        with pytest.raises(CodecError) as exc:
            codec.check_entry(7, bad)
        assert str(exc.value) == "value " + why.format(w=vw)


@pytest.mark.parametrize("kw,vw", [(8, 8), (8, 0), (3, 3)])
def test_identity_truncated_payload_is_corruption(kw, vw):
    codec = IdentityCodec(kw, vw)
    entries = [(k, k if vw else None) for k in (1, 5, 9)]
    payload = codec.encode(entries)
    for bad in (payload[:-1], payload + b"\x00", b""):
        with pytest.raises(CorruptionError, match="^identity payload length mismatch$"):
            codec.decode(bad, 3)
        with pytest.raises(CorruptionError, match="^identity payload length mismatch$"):
            codec.columns(bad, 3)
        with pytest.raises(CorruptionError, match="^identity payload length mismatch$"):
            codec.values(bad, 3)
        if codec.view(payload, 3) is not None:
            with pytest.raises(CorruptionError, match="^identity payload length mismatch$"):
                codec.view(bad, 3)


def test_object_count_mismatch_is_corruption():
    # view checks the count as decode does
    codec = ObjectCodec()
    entries = [(1, "a"), (5, "b"), (9, "c")]
    payload = codec.encode(entries)
    view = codec.view(payload, 3)
    assert [view[i] for i in range(3)] == entries
    for count in (2, 4):
        for read in (lambda: codec.decode(payload, count),
                     lambda: codec.values(payload, count),
                     lambda: codec.view(payload, count)):
            with pytest.raises(CorruptionError, match="^object payload count mismatch$"):
                read()


def test_object_damaged_payload_is_corruption():
    # a payload that is not a pair of count-long columns is caught by
    # every read and by splice, before anything is built from it
    codec = ObjectCodec()
    keys, values = codec.encode([(1, "a"), (5, "b"), (9, "c")])
    for bad in ((keys,), (keys, values, keys), (keys, values[:2])):
        for read in (lambda: codec.decode(bad, 3),
                     lambda: codec.columns(bad, 3),
                     lambda: codec.values(bad, 3),
                     lambda: codec.view(bad, 3),
                     lambda: codec.splice(bad, 3, 1, 1, [(3, "x")])):
            with pytest.raises(CorruptionError, match="^object payload count mismatch$"):
                read()


@pytest.mark.parametrize("cls", [IdentityCodec, DeltaCodec])
def test_codec_widths_checked_at_construction(cls):
    # a width is exactly an int: key_width at least 1, value_width at
    # least 0; neither 2.5 nor True is a width
    for kw, vw in ((-1, 8), (0, 8), (2.5, 8), (True, 8), ("8", 8), (None, 8),
                   (8, -3), (8, 1.0), (8, True), (8, False), (8, None)):
        with pytest.raises(ValueError, match="^(key|value) width must be an "
                                             "int of at least [01]; got "):
            cls(key_width=kw, value_width=vw)
    for kw, vw in ((1, 0), (1, 1), (3, 3), (2, 5), (8, 8)):
        codec = cls(key_width=kw, value_width=vw)
        assert (codec.key_width, codec.value_width) == (kw, vw)
        entries = [(k, (k + 1) % 256 if vw else None) for k in (0, 3, 255)]
        assert codec.decode(codec.encode(entries), 3) == entries


def test_make_codec_resolves_names_and_rejects_others():
    assert type(make_codec("identity", 4)) is IdentityCodec
    assert make_codec("identity", 4).value_width == 4
    assert type(make_codec("delta")) is DeltaCodec
    assert type(make_codec(None)) is ObjectCodec
    codec = DeltaCodec()
    assert make_codec(codec) is codec
    with pytest.raises(ValueError, match="^unknown encoding 'nope'$"):
        make_codec("nope")


def test_delta_check_entry_bounds():
    # exact ints in range pass at once; everything else takes the checks
    # that raise, in the identity codec's wording for a key too wide
    for kw, vw in ((8, 8), (2, 1), (3, 0)):
        codec = DeltaCodec(kw, vw)
        top_k, top_v = 2 ** (8 * kw), 2 ** (8 * vw)
        for key in (0, 1, top_k - 1, _Int(5)):
            codec.check_entry(key, top_v - 1 if vw else None)
        if vw:
            codec.check_entry(7, _Int(3))
        with pytest.raises(CodecError, match=f"^key {top_k} out of range for {kw} bytes$"):
            codec.check_entry(top_k, 0)
        for bad, msg in ((1.0, "delta codec requires integer keys"),
                         (False, "delta codec requires integer keys"),
                         (-5, "delta codec requires nonnegative keys")):
            with pytest.raises(CodecError, match=f"^{msg}$"):
                codec.check_entry(bad, 0)
        if vw:
            for bad, msg in ((top_v, f"value {top_v} out of range for {vw} bytes"),
                             (-1, f"value -1 out of range for {vw} bytes"),
                             (True, "value must be an integer, got bool")):
                with pytest.raises(CodecError, match=f"^{msg}$"):
                    codec.check_entry(3, bad)


@settings(max_examples=100)
@given(st.sampled_from(["identity", "delta", "object"]), st.data())
def test_encode_columns_writes_what_encode_writes(kind, data):
    # the column writer makes encode's bytes from the two columns
    if kind == "identity":
        kw, vw, entries = data.draw(identity_block())
        codec = IdentityCodec(kw, vw)
    else:
        vw = data.draw(st.sampled_from([0, 3, 8]))
        first, gaps = DELTA_GAP_CASES[data.draw(st.sampled_from(sorted(DELTA_GAP_CASES)))]
        entries = [(k, k % 251 if vw else None)
                   for k in accumulate(gaps, initial=first)]
        codec = DeltaCodec(value_width=vw) if kind == "delta" else ObjectCodec()
    keys = [k for k, _ in entries]
    values = [v for _, v in entries]
    payload = codec.encode(entries)
    assert codec.encode_columns(keys, values) == payload
    assert codec.encode_columns(tuple(keys), tuple(values)) == payload
    if not vw and kind != "object":
        assert codec.encode_columns(keys) == payload


def test_delta_check_entry_messages():
    codec = DeltaCodec()
    for bad, msg in ((True, "delta codec requires integer keys"),
                     (-1, "delta codec requires nonnegative keys")):
        with pytest.raises(CodecError, match=f"^{msg}$"):
            codec.check_entry(bad, 0)
    with pytest.raises(CodecError, match="^value must be an integer, got NoneType$"):
        codec.check_entry(1, None)
    DeltaCodec(value_width=0).check_entry(1, None)
    ObjectCodec().check_entry(object(), object())


def _delta_gap_cases():
    rng = random.Random(7)
    return {
        # name: (first key, gaps)
        "count1": (2 ** 64 - 1, []),
        "count2": (0, [1]),
        "varint_boundaries": (3, [1, 127, 128, 16383, 16384, 2 ** 63]),
        "widest_gap_128": (9, [127, 128, 1]),
        "one_byte_256": (2 ** 40, [1, 127] + [rng.randrange(1, 128) for _ in range(253)]),
        "mixed_256": (rng.randrange(2 ** 32),
                      [rng.choice((rng.randrange(1, 128), rng.randrange(128, 2 ** 22)))
                       for _ in range(255)]),
    }


DELTA_GAP_CASES = _delta_gap_cases()


@pytest.mark.parametrize("vw", [0, 1, 2, 3, 4, 8])
@pytest.mark.parametrize("case", sorted(DELTA_GAP_CASES))
def test_delta_wire_format_matches_varint_oracle(case, vw):
    first, gaps = DELTA_GAP_CASES[case]
    rng = random.Random(vw)
    top = 2 ** (8 * vw) - 1
    entries = [(k, rng.choice((0, top, rng.randrange(top + 1))) if vw else None)
               for k in accumulate(gaps, initial=first)]
    codec = DeltaCodec(value_width=vw)
    # widths 0 and 3 have no struct code: 3 takes the per-value loop
    assert (codec._value_code is None) == (vw in (0, 3))
    payload = codec.encode(entries)
    assert payload == delta_block_payload(entries, 8, vw)
    assert len(payload) == delta_block_bytes([k for k, _ in entries], 8, vw)
    decoded = codec.decode(payload, len(entries))
    assert decoded == entries
    assert all(type(e) is tuple for e in decoded)


def _damaged_delta_payloads(codec):
    """(payload, count, message): damaged payloads of ``codec``'s blocks,
    each with the CorruptionError message ``columns`` raises for it."""
    vw = codec.value_width
    v = 6 if vw else None
    short = codec.encode([(1, v), (5, v), (9, v)])       # one-byte gaps
    long = codec.encode([(1, v), (5, v), (300, v)])      # a two-byte gap
    cut_last = "delta payload length mismatch" if vw else "truncated varint"
    return [
        (short[:8] + b"\x00" + short[9:], 3, "zero gap in delta block"),
        (short[:9] + b"\x00" + short[10:], 3, "zero gap in delta block"),
        (long[:9] + b"\x80\x00" + long[11:], 3, "zero gap in delta block"),
        (short[:9], 3, "truncated varint"),
        (long[:10], 3, "truncated varint"),
        (short[:8] + b"\x80\x80", 2, "truncated varint"),
        (short[:4], 3, "truncated first key"),
        (short[:8] + b"\xff" * 11 + b"\x01", 2,
         "malformed varint (too many continuation bytes)"),
        (short[:-1], 3, cut_last),
        (long[:-1], 3, cut_last),
        (short + b"\x00", 3, "delta payload length mismatch"),
        (long + b"\x00", 3, "delta payload length mismatch"),
        (b"\x00", 0, "nonempty payload for empty block"),
    ]


@pytest.mark.parametrize("vw", [0, 3, 8])
def test_delta_decode_error_messages(vw):
    codec = DeltaCodec(value_width=vw)
    for payload, count, msg in _damaged_delta_payloads(codec):
        for read in (codec.decode, codec.columns, codec.values):
            with pytest.raises(CorruptionError, match=f"^{re.escape(msg)}$"):
                read(payload, count)
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            delta_block_decode(payload, count, 8, vw)


@settings(max_examples=300)
@given(st.booleans(), st.lists(st.integers(1, 2 ** 20), max_size=40),
       st.sampled_from([0, 3, 8]), st.data())
def test_delta_decode_matches_oracle_on_damaged_payloads(small, gaps, vw, data):
    if small:
        gaps = [g % 127 + 1 for g in gaps]
    codec = DeltaCodec(value_width=vw)
    entries = [(k, k % 251 if vw else None) for k in accumulate(gaps, initial=7)]
    payload = bytearray(codec.encode(entries))
    for _ in range(data.draw(st.integers(0, 2))):
        what = data.draw(st.sampled_from(["set", "cut", "extend"]))
        if what == "set" and payload:
            payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(
                st.sampled_from([0, 1, 0x7F, 0x80, 0xFF]))
        elif what == "cut":
            del payload[data.draw(st.integers(0, len(payload))):]
        else:
            payload += data.draw(st.binary(min_size=1, max_size=3))
    payload = bytes(payload)
    count = max(0, len(entries) + data.draw(st.integers(-2, 2)))
    try:
        want = delta_block_decode(payload, count, 8, vw)
    except ValueError as e:
        for read in (codec.decode, codec.columns, codec.values):
            with pytest.raises(CorruptionError, match=f"^{re.escape(str(e))}$"):
                read(payload, count)
    else:
        assert codec.decode(payload, count) == want
        assert _unzipped(codec.columns(payload, count)) == _unzipped(want, vw)
        assert _listed(codec.values(payload, count)) == _unzipped(want, vw)[1]


def _edited_keys(keys, ks, insert):
    """The key column of a set block with ``ks`` inserted or deleted."""
    return sorted(set(keys) | set(ks)) if insert else [k for k in keys
                                                       if k not in ks]


def _edit_reference(codec, keys, ks, insert):
    """What ``edit_keys`` must return for the block of ``keys``: the
    payload, count and bounds of the edited key column, written whole."""
    new = _edited_keys(keys, ks, insert)
    if not new:
        return b"", 0, None, None
    return codec.encode_columns(new), len(new), new[0], new[-1]


# gaps whose varints take one, two and three bytes
_GAPS = st.one_of(st.integers(1, 127), st.integers(128, 2 ** 14 - 1),
                  st.integers(2 ** 14, 2 ** 21 - 1))


@settings(max_examples=400)
@given(st.sampled_from([4, 8]), st.integers(0, 2 ** 21),
       st.lists(_GAPS, max_size=40), st.booleans(), st.data())
def test_delta_edit_keys_matches_columns_edit_encode(kw, first, gaps, insert,
                                                     data):
    # inserting or deleting 1 to 4 keys in place gives the payload, count
    # and bounds of reading the key column, editing it and writing it whole
    codec = DeltaCodec(key_width=kw, value_width=0)
    keys = list(accumulate(gaps, initial=first))
    payload = codec.encode_columns(keys)
    # present keys (first, middle, last) and absent ones: below the first,
    # beside every key, between neighbors, and above the last
    pool = set(keys) | {k + 1 for k in keys} | {keys[-1] + 2 ** 15}
    pool |= {k - 1 for k in keys if k} | {(a + b) // 2 for a, b in
                                          zip(keys, keys[1:])}
    ks = sorted(data.draw(st.sets(st.sampled_from(sorted(pool)),
                                  min_size=1, max_size=4)))
    got = codec.edit_keys(payload, len(keys), keys[0], keys[-1], ks, insert)
    assert got == _edit_reference(codec, keys, ks, insert)
    if got[1] == len(keys):
        # nothing changed: the block's own payload comes back
        assert got[0] is payload


@pytest.mark.parametrize("keys,ks", [([5], [5]), ([5, 9], [5, 9]),
                                     ([5, 300], [5, 300]),
                                     ([5, 300, 70000], [5, 300])])
def test_delta_edit_keys_deletes_to_empty_and_back(keys, ks):
    codec = DeltaCodec(value_width=0)
    payload = codec.encode_columns(keys)
    got = codec.edit_keys(payload, len(keys), keys[0], keys[-1], ks, False)
    assert got == _edit_reference(codec, keys, ks, False)
    if got[1]:
        back = codec.edit_keys(*got, ks, True)
        assert back == (payload, len(keys), keys[0], keys[-1])


def test_delta_edit_keys_only_edits_sets():
    # a block that stores values is not edited in place, and neither is
    # one of a codec without the method
    for codec, values in ((DeltaCodec(value_width=8), [2, 3]),
                          (IdentityCodec(value_width=0), None),
                          (ObjectCodec(), None)):
        payload = codec.encode_columns([1, 5], values)
        assert codec.edit_keys(payload, 2, 1, 5, [3], True) is None


def _damaged_set_payloads():
    """(keys, payload, count, message): _damaged_delta_payloads of a set
    codec, with the keys of the block each damages, and damage beyond the
    part of a longer block that an edit near its start reads: a truncated,
    an extended, a zero and an over-long last varint."""
    codec = DeltaCodec(value_width=0)
    keys = list(range(100, 100 + 300 * 12, 300))      # two-byte gaps
    ok = codec.encode_columns(keys)
    n = len(keys)
    return [*(([1, 5, 9], *case) for case in _damaged_delta_payloads(codec)),
            (keys, ok[:-1], n, "truncated varint"),
            (keys, ok + b"\x05", n, "delta payload length mismatch"),
            (keys, ok[:-2] + b"\x80\x00", n, "zero gap in delta block"),
            (keys, ok[:-2] + b"\x80" * 11 + b"\x01", n,
             "malformed varint (too many continuation bytes)")]


def test_delta_edit_keys_declines_damaged_payloads():
    # a damaged payload is not edited, however little of it the edit would
    # read: an insert below the first key or above the last, a delete of
    # the first key or of one inside
    codec = DeltaCodec(value_width=0)
    for keys, payload, count, _ in _damaged_set_payloads():
        for ks, insert in (([0], True), ([1], False), ([3], True),
                           ([10 ** 6], True), ([10 ** 6], False)):
            assert codec.edit_keys(payload, count, keys[0], keys[-1], ks,
                                   insert) is None


def test_small_merges_into_damaged_delta_set_blocks_raise():
    # a run of a few keys that meets a damaged set block, the kind edited
    # in place, raises the CorruptionError columns raises for it, with its
    # inputs intact and no node left live: multi_insert, multi_delete and
    # union of a map, and insert and delete batches of a graph
    import blocktree as bt
    from blocktree import graphstore as gs, ordmap
    from blocktree.inspect import structure_digest
    ctx = bt.make_context(block_size=64, encoding=DeltaCodec(value_width=0))
    for keys, payload, count, msg in _damaged_set_payloads():
        t = ordmap.build(ctx, [(k, None) for k in keys])
        one = ordmap.build(ctx, [(keys[0] + 1, None)])
        g = gs.from_edge_list([(0, k) for k in keys])
        sets = [t, bt.ordmap.find(g.vctx, g.vertices, 0)]
        assert all(type(s) is Flat for s in sets)
        digests = [structure_digest(ctx, s) for s in sets]
        good = [(s.payload, s.count) for s in sets]
        for s in sets:
            s.payload, s.count = payload, count
        live = counters.live
        top = keys[-1] + 10 ** 6
        for op in (lambda: ordmap.multi_insert(ctx, t, [(0, None)]),
                   lambda: ordmap.multi_insert(ctx, t, [(keys[0] + 1, None)]),
                   lambda: ordmap.multi_insert(ctx, t, [(top, None)]),
                   lambda: ordmap.multi_delete(ctx, t, [keys[0]]),
                   lambda: ordmap.multi_delete(ctx, t, [keys[1]]),
                   lambda: ordmap.multi_delete(ctx, t, [keys[-1]]),
                   lambda: ordmap.union(ctx, t, one),
                   lambda: gs.insert_edges(g, [(0, keys[0] + 1)]),
                   lambda: gs.insert_edges(g, [(0, top)]),
                   lambda: gs.delete_edges(g, [(0, keys[1])])):
            with pytest.raises(CorruptionError, match=f"^{re.escape(msg)}$"):
                op()
            assert counters.live == live
        for s, (p, n) in zip(sets, good):
            s.payload, s.count = p, n
        assert [structure_digest(ctx, s) for s in sets] == digests
        for x in (t, one, g.vertices):
            bt.release(x)


@settings(max_examples=300)
@given(st.booleans(), st.lists(st.integers(1, 2 ** 20), max_size=40),
       st.booleans(), st.data())
def test_delta_edit_keys_matches_oracle_on_damaged_payloads(small, gaps,
                                                            insert, data):
    # a damaged payload that the oracle rejects is not edited, and one it
    # reads is edited as its keys are
    if small:
        gaps = [g % 127 + 1 for g in gaps]
    codec = DeltaCodec(value_width=0)
    keys = list(accumulate(gaps, initial=7))
    payload = bytearray(codec.encode_columns(keys))
    for _ in range(data.draw(st.integers(1, 2))):
        what = data.draw(st.sampled_from(["set", "cut", "extend"]))
        if what == "set" and payload:
            payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(
                st.sampled_from([0, 1, 0x7F, 0x80, 0xFF]))
        elif what == "cut":
            del payload[data.draw(st.integers(0, len(payload))):]
        else:
            payload += data.draw(st.binary(min_size=1, max_size=3))
    payload = bytes(payload)
    count = max(1, len(keys) + data.draw(st.integers(-2, 2)))
    ks = sorted(data.draw(st.sets(st.integers(0, keys[-1] + 300),
                                  min_size=1, max_size=2)))
    try:
        have = [k for k, _ in delta_block_decode(payload, count, 8, 0)]
    except ValueError:
        # left to the column read, which raises the oracle's message
        assert codec.edit_keys(payload, count, 7, keys[-1], ks, insert) is None
    else:
        got = codec.edit_keys(payload, count, have[0], have[-1], ks, insert)
        # a payload the oracle reads but no writer writes (a varint with
        # needless zero groups) is not edited in place
        if payload != codec.encode_columns(have):
            assert got is None
        else:
            assert got == _edit_reference(codec, have, ks, insert)


def test_delta_edit_keys_leaves_keys_it_cannot_store_to_the_merge():
    # an insert of a key no block can store is not edited in place, and
    # the map's insert raises the codec's CodecError for it, building
    # nothing; an int subclass is left to the column merge too, which
    # stores its value
    import blocktree as bt
    from blocktree import ordmap
    codec = DeltaCodec(value_width=0)
    payload = codec.encode_columns([1, 5, 300])
    ctx = bt.make_context(block_size=8, encoding=codec)
    t = ordmap.build(ctx, [(1, None), (5, None), (300, None)])
    for ks, msg in (([-1], "delta codec requires nonnegative keys"),
                    ([2 ** 64], "key 18446744073709551616 out of range "
                                "for 8 bytes"),
                    ([True], "delta codec requires integer keys"),
                    ([2.5], "delta codec requires integer keys")):
        assert codec.edit_keys(payload, 3, 1, 300, ks, True) is None
        a0, live = counters.allocations, counters.live
        with pytest.raises(CodecError, match=f"^{re.escape(msg)}$"):
            ordmap.multi_insert(ctx, t, [(k, None) for k in ks])
        assert (counters.allocations, counters.live) == (a0, live)
    assert codec.edit_keys(payload, 3, 1, 300, [_Int(7)], True) is None
    r = ordmap.multi_insert(ctx, t, [(_Int(7), None)])
    assert bt.core.keys(ctx, r) == [1, 5, 7, 300]
    for x in (r, t):
        bt.release(x)


@pytest.mark.parametrize("kind", [float, "decimal", "fraction", "numpy"])
def test_delta_edit_keys_deletes_keys_equal_to_its_own(kind):
    # a delete key that only equals a stored key (2.0 == 2) deletes it,
    # first, inside or last, and every key of the edited block is one of
    # the payload's ints
    from decimal import Decimal
    from fractions import Fraction
    if kind == "numpy":
        kind = pytest.importorskip("numpy").int64
    kind = {"decimal": Decimal, "fraction": Fraction}.get(kind, kind)
    codec = DeltaCodec(value_width=0)
    keys = [2, 9, 300, 70000, 70001]
    payload = codec.encode_columns(keys)
    for ks in ([2], [9], [70001], [2, 300], [300, 70001], [2, 70001]):
        got = codec.edit_keys(payload, len(keys), 2, 70001,
                              [kind(k) for k in ks], False)
        assert got == _edit_reference(codec, keys, ks, False)
        assert type(got[2]) is int and type(got[3]) is int
        assert codec.columns(got[0], got[1])[0] == _edited_keys(keys, ks,
                                                                 False)
    # a key that equals none, or compares with none (NaN), deletes nothing
    for ks in ([float("nan")], [2.5, 9.5]):
        assert codec.edit_keys(payload, len(keys), 2, 70001, ks,
                               False) == (payload, len(keys), 2, 70001)


@pytest.mark.parametrize("vw", [1, 3, 8])
def test_delta_encode_error_messages(vw):
    codec = DeltaCodec(value_width=vw)
    good = [(1, 2), (5, 3)]
    top = 2 ** (8 * vw)
    cases = [
        (good + [(True, 1)], "delta codec requires integer keys"),
        ([(True, 1)] + good[1:], "delta codec requires integer keys"),
        (good + [("a", 1)], "delta codec requires integer keys"),
        ([(-1, 1)] + good, "delta codec requires nonnegative keys"),
        (good + [(5, 1)], "delta codec requires strictly increasing keys"),
        ([(5, 1), (2, 2), ("a", 3)], "delta codec requires strictly increasing keys"),
        # dense blocks, whose keys are checked by C-level calls first
        ([(1, 2), ("a", 1), (5, 3)], "delta codec requires integer keys"),
        ([(1, 2), (False, 1), (5, 3)], "delta codec requires integer keys"),
        ([(-3, 2), (1, 3)], "delta codec requires nonnegative keys"),
        ([(1, 2), (3, 3), (3, 4), (5, 5)], "delta codec requires strictly increasing keys"),
        ([(1, 2), (4, 3), (3, 4), (5, 5)], "delta codec requires strictly increasing keys"),
        ([(2 ** 64, 1), (2 ** 64 + 1, 1)],
         "first key 18446744073709551616 out of range for 8 bytes"),
        ([(2 ** 64, 1)], "first key 18446744073709551616 out of range for 8 bytes"),
        # the last key is the widest: its check covers the block
        ([(1, 2), (2 ** 64, 1)], "key 18446744073709551616 out of range for 8 bytes"),
        ([(1, 2), (5, 3), (2 ** 70, 1)],
         "key 1180591620717411303424 out of range for 8 bytes"),
        (good + [(9, True)], "value must be an integer, got bool"),
        (good + [(9, None)], "value must be an integer, got NoneType"),
        (good + [(9, top)], f"value {top} out of range for {vw} bytes"),
        (good + [(9, -1)], f"value -1 out of range for {vw} bytes"),
        ([(9, -1), (10, True)], f"value -1 out of range for {vw} bytes"),
    ]
    for entries, msg in cases:
        keys, values = (list(c) for c in zip(*entries))
        for write in (lambda: codec.encode(entries),
                      lambda: codec.encode_columns(keys, values)):
            with pytest.raises(CodecError, match=f"^{re.escape(msg)}$"):
                write()


def test_delta_int_subclass_takes_loop_with_same_bytes():
    codec = DeltaCodec()
    entries = [(_Int(3), 4), (5, _Int(6)), (_Int(300), 7)]
    assert codec.encode(entries) == delta_block_payload([(3, 4), (5, 6), (300, 7)])


def _block_payloads(t, out):
    if t is None:
        return out
    if type(t) is Flat:
        out.append(t.payload)
        return out
    _block_payloads(t.left, out)
    return _block_payloads(t.right, out)


def test_delta_map_golden_digest():
    """A seeded 10^5-entry delta map at B=128, keys dense in 8x the size as
    the benchmark draws them: any change to the wire format moves the
    digest of its block payloads."""
    import blocktree as bt
    from blocktree import ordmap

    n = 10 ** 5
    rng = random.Random(1)
    keys = rng.sample(range(8 * n), n)
    ctx = bt.make_context(block_size=128, encoding="delta")
    t = ordmap.build(ctx, [(k, rng.getrandbits(63)) for k in keys])
    payloads = _block_payloads(t, [])
    bt.release(t)
    assert (len(payloads), sum(map(len, payloads))) == (512, 898985)
    assert (hashlib.sha1(b"".join(payloads)).hexdigest()
            == "3ea70201925552a4aa068f0c5022b225e415632e")


SEARCH_CODECS = {"identity": lambda: IdentityCodec(),
                 "identity0": lambda: IdentityCodec(value_width=0),
                 "identity3": lambda: IdentityCodec(3, 3),
                 "delta": lambda: DeltaCodec(),
                 "object": lambda: ObjectCodec()}


@settings(max_examples=200)
@given(st.sampled_from(sorted(SEARCH_CODECS)),
       st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=300, unique=True),
       st.lists(st.integers(-5, 2 ** 20 + 5), min_size=1, max_size=20))
def test_search_agrees_with_decode_and_bisect(kind, keys, probes):
    import blocktree as bt
    from blocktree.core import _make_flat, _search

    codec = SEARCH_CODECS[kind]()
    keys.sort()
    vw = getattr(codec, "value_width", 8)
    entries = [(k, (k * 7 + 1) if vw else None) for k in keys]
    ctx = bt.make_context(block_size=len(entries), encoding=codec)
    t = _make_flat(ctx, keys, [v for _, v in entries])
    searched_in_place = kind in ("identity", "identity0", "object")
    for k in probes + keys[:3] + keys[-3:]:
        before = counters.decodes
        pos, view = _search(ctx, t, k)
        assert counters.decodes - before == (0 if searched_in_place else 1)
        assert pos == bisect_left(keys, k)
        for i in {0, len(entries) - 1, max(0, min(pos, len(entries) - 1))}:
            assert view[i] == entries[i]
    bt.release(t)


@settings(max_examples=200)
@given(st.sampled_from([IdentityCodec, DeltaCodec, ObjectCodec]),
       st.sampled_from([1, 2, 3, 4, 8]), st.booleans(), st.data())
def test_view_reads_what_columns_reads(cls, kw, with_values, data):
    # a codec's view, where it has one, reads every entry that columns
    # reads, at every key width, for sets and for values of the key's width
    vw = kw if with_values else 0
    codec = cls(kw, vw)
    top = 2 ** (8 * kw) - 1
    keys = sorted(data.draw(st.sets(st.integers(0, top), max_size=70)))
    values = ([data.draw(st.integers(0, top)) for _ in keys] if vw
              else None)
    payload, count = codec.encode_columns(keys, values), len(keys)
    view = codec.view(payload, count)
    if view is not None:
        cols = codec.columns(payload, count)
        want = list(zip(cols[0], repeat(None) if cols[1] is None else cols[1]))
        assert [view[i] for i in range(count)] == want


def test_decode_counter_increments_via_tree_reads():
    import blocktree as bt
    from blocktree import ordmap

    ctx = bt.make_context(block_size=4, encoding="delta")
    t = ordmap.build(ctx, [(k, k) for k in range(32)])
    before = counters.decodes
    bt.to_list(ctx, t)
    assert counters.decodes > before


def _spliced(codec, payload, count, i, j, new):
    """The oracle of splice: encode of the decoded entries, edited."""
    entries = codec.decode(payload, count)
    return codec.encode(entries[:i] + new + entries[j:])


@pytest.mark.parametrize("kw,vw", [(kw, vw) for kw in (1, 2, 4, 8)
                                   for vw in (kw, 0)])
def test_identity_splice_matches_encode(kw, vw):
    codec = IdentityCodec(kw, vw)
    rng = random.Random(kw * 10 + vw)
    top = 2 ** (8 * kw) - 1
    value = lambda: rng.choice([0, top, rng.randrange(top)]) if vw else None
    entries = [(k, value()) for k in sorted({rng.randrange(top) for _ in range(12)})]
    payload, n = codec.encode(entries), len(entries)
    news = ([], [(top, value())], [(0, value()), (rng.randrange(top), value())])
    for i in range(n + 1):
        for j in range(i, n + 1):
            for new in news:
                assert (codec.splice(payload, n, i, j, new)
                        == _spliced(codec, payload, n, i, j, new))
    # the new entries pass the codec's checks, as encode's do
    with pytest.raises(CodecError):
        codec.splice(payload, n, 0, 0, [(top + 1, value())])


def test_object_splice_matches_encode():
    codec = ObjectCodec()
    entries = [(k, str(k)) for k in range(0, 30, 3)]
    payload, n = codec.encode(entries), len(entries)
    for i in range(n + 1):
        for j in range(i, n + 1):
            for new in ([], [(1, "x")], [(1, None), (2, [3])]):
                assert (codec.splice(payload, n, i, j, new)
                        == _spliced(codec, payload, n, i, j, new))


def test_splice_declined_where_payload_is_not_edited_in_place():
    # the delta codec's gaps depend on both neighbours, and an identity
    # width with no struct code is neither searched nor spliced in place
    for codec in (DeltaCodec(), DeltaCodec(value_width=0),
                  IdentityCodec(3, 0), IdentityCodec(3, 3), IdentityCodec(8, 4)):
        v = 0 if codec.value_width else None
        payload = codec.encode([(1, v), (5, v), (9, v)])
        assert codec.splice(payload, 3, 1, 2, [(4, v)]) is None


def _unzipped(cols, vw=None):
    """Columns as two lists, values None where none are stored; with
    ``vw``, cols is a decoded entry list to unzip first."""
    if vw is not None:
        cols = ([k for k, _ in cols], [v for _, v in cols] if vw else None)
    keys, values = cols
    return list(keys), _listed(values)


def _listed(column):
    """A column as a list, or None where none is stored."""
    return None if column is None else list(column)


@pytest.mark.parametrize("vw", [0, 1, 2, 3, 4, 8])
def test_delta_columns_match_decode(vw):
    # dense (one-byte) and varint gaps, at counts 0, 1, 2 and 2B (B=128)
    rng = random.Random(vw)
    top = 2 ** (8 * vw) - 1
    codec = DeltaCodec(value_width=vw)
    for count in (0, 1, 2, 256):
        for gap in (lambda: rng.randrange(1, 128),
                    lambda: rng.choice((1, rng.randrange(128, 2 ** 30)))):
            keys = list(accumulate((gap() for _ in range(count - 1)),
                                   initial=rng.randrange(2 ** 40)))[:count]
            entries = [(k, rng.choice((0, top, rng.randrange(top + 1)))
                        if vw else None) for k in keys]
            payload = codec.encode(entries)
            cols = codec.columns(payload, count)
            assert (cols[1] is None) == (vw == 0)
            assert _unzipped(cols) == _unzipped(codec.decode(payload, count), vw)
            assert _unzipped(cols) == _unzipped(entries, vw)


def _written(write):
    """What a writer gives: its payload, or the message of its
    CodecError."""
    try:
        return write()
    except CodecError as e:
        return f"CodecError: {e}"


@pytest.mark.parametrize("vw", [0, 1, 2, 3, 4, 8])
def test_delta_value_arrays_match_the_struct_and_loop_paths(vw):
    # at widths 1, 2, 4 and 8 a delta block's value column is an array of
    # the codec's own code, read in one copy and written by tobytes; every
    # other column takes the struct or loop path with its checks
    rng = random.Random(vw)
    top = 2 ** (8 * vw) - 1
    struct_code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(vw)
    codec = DeltaCodec(value_width=vw)
    # as on a big-endian host, where array items are not the wire's bytes
    portable = DeltaCodec(value_width=vw)
    portable._array_code = None
    for count in (1, 2, 195):
        for gap in (2, 300):
            keys = [7 + gap * i for i in range(count)]
            values = [rng.choice((0, top, rng.randrange(top + 1)))
                      for _ in keys] if vw else None
            payload = codec.encode_columns(keys, values)
            assert payload == delta_block_payload(
                list(zip(keys, values or repeat(None))), 8, vw)
            assert portable.encode_columns(keys, values) == payload
            column = codec.columns(payload, count)[1]
            if not vw:
                assert column is None and codec.values(payload, count) is None
                continue
            # the struct or loop oracle, read from the value bytes
            raw = payload[len(payload) - vw * count:]
            want = [int.from_bytes(raw[p:p + vw], "little")
                    for p in range(0, len(raw), vw)]
            if struct_code:
                assert list(struct.unpack(f"<{count}{struct_code}", raw)) == want
            assert type(column) is (array if struct_code else list)
            assert type(portable.columns(payload, count)[1]) is not array
            for read in (codec, portable):
                assert list(read.columns(payload, count)[1]) == want
                assert list(read.values(payload, count)) == want
                assert read.encode_columns(keys, column) == payload
                assert read.encode_columns(keys, want) == payload
    if not vw:
        return
    # an array of another code takes the checked path: the list's bytes,
    # or its CodecError
    cases = [("q", [-1]), ("d", [1.5]),
             ("B" if vw == 8 else "q", [0, 1, 255])]
    if vw < 8:
        cases.append(("Q", [0, top + 1]))
    for code, vals in cases:
        keys = list(range(1, len(vals) + 1))
        want = _written(lambda: codec.encode_columns(keys, vals))
        for write in (codec, portable):
            assert _written(
                lambda: write.encode_columns(keys, array(code, vals))) == want
    assert (_written(lambda: codec.encode_columns([1], array("q", [-1])))
            == f"CodecError: value -1 out of range for {vw} bytes")


@pytest.mark.parametrize("kw,vw", IDENTITY_WIDTHS)
def test_identity_columns_match_decode(kw, vw):
    # every width reads columns: one struct call, or the loop at the
    # widths with no struct code
    codec = IdentityCodec(kw, vw)
    rng = random.Random(kw * 10 + vw)
    top, vtop = 2 ** (8 * kw), 2 ** (8 * vw)
    for count in (0, 1, 2, 256):
        keys = sorted(rng.sample(range(max(0, top - 2 ** 31), top), count))
        entries = [(k, rng.choice((0, vtop - 1, rng.randrange(vtop)))
                    if vw else None) for k in keys]
        payload = codec.encode(entries)
        cols = codec.columns(payload, count)
        assert (codec._code is None) == ((kw, vw) in ((3, 3), (8, 4), (3, 0)))
        assert (cols[1] is None) == (vw == 0)
        assert _unzipped(cols) == _unzipped(codec.decode(payload, count), vw)
        assert _unzipped(cols) == _unzipped(entries, vw)


def test_object_columns_match_decode():
    # the payload is the two columns, a key tuple and a value tuple
    codec = ObjectCodec()
    for entries in ([], [(1, "a")], [(1, "a"), (5, None), (9, [3])]):
        payload = codec.encode(entries)
        cols = codec.columns(payload, len(entries))
        assert cols is payload
        assert _unzipped(cols) == _unzipped(codec.decode(payload, len(entries)), 8)
        assert _unzipped(cols) == _unzipped(entries, 8)
        assert codec.encode_columns(*cols) == payload


class _ColumnsOnly(EncodingScheme):
    """A codec with the two required methods alone: the identity codec's
    bytes at 8-byte keys and values, packed and unpacked by one call."""

    def columns(self, payload, count):
        flat = struct.unpack(f"<{2 * count}Q", payload)
        return flat[0::2], flat[1::2]

    def encode_columns(self, keys, values=None):
        flat = [None] * (2 * len(keys))
        flat[0::2], flat[1::2] = keys, values
        return struct.pack(f"<{len(flat)}Q", *flat)


def _values_cases():
    """(codec, payload, count) for blocks of every codec: identity at the
    loop widths and at struct widths, delta at every value width with
    one-byte and multi-byte gaps, object, and a codec with the default
    values."""
    for kw, vw in ((8, 8), (8, 0), (3, 3)):
        codec = IdentityCodec(kw, vw)
        for count in (0, 1, 5):
            yield codec, codec.encode([(k, 3 * k if vw else None)
                                       for k in range(count)]), count
    for vw in (0, 3, 8):
        codec = DeltaCodec(value_width=vw)
        for gap in (2, 300):
            for count in (0, 1, 2, 195):
                yield codec, codec.encode([(7 + gap * i, i % 251 if vw else None)
                                           for i in range(count)]), count
    object_codec = ObjectCodec()
    for entries in ([], [(1, "a")], [(1, "a"), (5, None), (9, [3])]):
        yield object_codec, object_codec.encode(entries), len(entries)
    fixed = _ColumnsOnly()
    for count in (0, 1, 5):
        yield fixed, fixed.encode([(k, k + 1) for k in range(count)]), count


def test_values_match_columns():
    # values is the value column of columns, None for a set, at every
    # codec and width (the fast paths and the fallbacks to columns)
    for codec, payload, count in _values_cases():
        values = codec.values(payload, count)
        assert _listed(values) == _listed(codec.columns(payload, count)[1])
        assert (values is None) == (codec.value_width == 0)


@pytest.mark.parametrize("B", [1, 8, 128])
def test_codec_with_only_the_required_methods_runs_every_operation(B):
    # columns and encode_columns are all a codec must define: every
    # operation builds the same trees, byte for byte, as with the identity
    # codec, which also reads and splices in place
    import blocktree as bt
    from blocktree import ordmap
    from blocktree.inspect import structure_digest

    rng = random.Random(B)
    keys = range(40 * B + 300)
    pairs = [(k, rng.randrange(1000)) for k in rng.sample(keys, 20 * B + 150)]
    more = [(k, rng.randrange(1000)) for k in rng.sample(keys, 6 * B + 40)]
    lo, hi = sorted(rng.sample(keys, 2))
    gone = pairs[len(pairs) // 3][0]
    add = lambda a, b: a + b

    def run(ctx):
        t, o = ordmap.build(ctx, pairs), ordmap.build(ctx, more)
        trees = [t, o, ordmap.insert(ctx, t, 40 * B + 301, 7),
                 ordmap.insert(ctx, t, pairs[0][0], 5, add),
                 ordmap.remove(ctx, t, gone), ordmap.union(ctx, t, o, add),
                 ordmap.key_range(ctx, t, lo, hi),
                 ordmap.filter(ctx, t, lambda e: e[1] % 3 != 0),
                 ordmap.map_values(ctx, t, lambda v: v * 2 + 1)]
        left, e, right = bt.split(ctx, t, gone)
        trees += [left, right]
        reads = [ordmap.find(ctx, t, k) for k in keys[::7]]
        reads += [e, ordmap.reduce(ctx, t, add, 0)]
        out = ([structure_digest(ctx, x) for x in trees],
               [bt.to_list(ctx, x) for x in trees], reads)
        for x in trees:
            bt.release(x)
        return out

    assert run(bt.make_context(block_size=B, encoding=_ColumnsOnly())) == run(
        bt.make_context(block_size=B, encoding=IdentityCodec()))
