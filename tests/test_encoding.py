import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from blocktree.counters import counters
from blocktree.encoding import (DeltaCodec, IdentityCodec, ObjectCodec,
                                varint_len, write_varint)
from blocktree.errors import CodecError, CorruptionError

from oracles import (delta_block_bytes, identity_block_bytes,
                     varint_decode_stream, varint_encode)


def test_varint_single_bytes():
    for v in (0, 1, 19, 127):
        out = bytearray()
        write_varint(v, out)
        assert bytes(out) == bytes([v]) == varint_encode(v)


def test_varint_300_is_ac_02():
    # 300 = 0b100101100 -> low seven bits 0x2C with continuation, then 0x02
    out = bytearray()
    write_varint(300, out)
    assert bytes(out) == b"\xac\x02"
    assert varint_encode(300) == b"\xac\x02"


@given(st.integers(min_value=0, max_value=2 ** 70))
def test_varint_matches_oracle(v):
    out = bytearray()
    write_varint(v, out)
    assert bytes(out) == varint_encode(v)
    assert varint_len(v) == len(out)
    assert varint_decode_stream(bytes(out)) == [v]


def test_delta_wire_format_pinned():
    codec = DeltaCodec(key_width=8, value_width=8)
    entries = [(100, 7), (103, 8), (107, 9)]
    payload = codec.encode(entries)
    want = ((100).to_bytes(8, "little") + b"\x03\x04"
            + (7).to_bytes(8, "little") + (8).to_bytes(8, "little")
            + (9).to_bytes(8, "little"))
    assert payload == want
    assert codec.encoded_size(entries) == len(payload)
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
        assert codec.encoded_size(entries) == delta_block_bytes(keys)
        assert len(codec.encode(entries)) == delta_block_bytes(keys)


def test_delta_size_monotone_in_gap_magnitude():
    codec = DeltaCodec(value_width=0)
    tight = [(i, None) for i in range(0, 50)]
    wide = [(i * 1000, None) for i in range(0, 50)]
    assert codec.encoded_size(tight) < codec.encoded_size(wide)


def test_identity_fixed_width():
    codec = IdentityCodec()
    entries = [(5, 6), (9, 10)]
    payload = codec.encode(entries)
    assert len(payload) == 2 * 16 == codec.encoded_size(entries)
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
    assert len(payload) == codec.encoded_size(entries)
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
    assert decoded == codec._decode_loop(payload, len(entries)) == entries
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
        codec.check_entry(bad, 1)
    assert str(exc.value) == "key " + why.format(w=kw)
    if vw:
        with pytest.raises(CodecError) as exc:
            codec.encode(good + [(7, bad)])
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
        if codec.search(payload, 3, 5) is not None:
            with pytest.raises(CorruptionError, match="^identity payload length mismatch$"):
                codec.search(bad, 3, 5)


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
    t = _make_flat(ctx, entries)
    searched_in_place = kind in ("identity", "identity0")
    for k in probes + keys[:3] + keys[-3:]:
        for right in (False, True):
            before = counters.decodes
            pos, view = _search(ctx, t, k, right)
            assert counters.decodes - before == (0 if searched_in_place else 1)
            want = (bisect_right if right else bisect_left)(keys, k)
            assert pos == want
            for i in {0, len(entries) - 1, max(0, min(pos, len(entries) - 1))}:
                assert view[i] == entries[i]
    bt.release(t)


def test_decode_counter_increments_via_tree_reads():
    import blocktree as bt
    from blocktree import ordmap

    ctx = bt.make_context(block_size=4, encoding="delta")
    t = ordmap.build(ctx, [(k, k) for k in range(32)])
    before = counters.decodes
    bt.to_list(ctx, t)
    assert counters.decodes > before
