"""The spec-written reference PNG decoder: it agrees with emforge.png on every
view of a rendered build, and decodes hand-built streams to known pixels."""

import struct
import zlib

import numpy as np
import pytest

import reference_png
from emforge import png
from emforge.corpus import CorpusSpec, build_corpus


def _chunk(kind: bytes, body: bytes) -> bytes:
    # zlib's CRC, so the reference decoder's own CRC is checked against it.
    return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", zlib.crc32(kind + body))


def _png(width, height, depth, colour, raw: bytes, palette=None, idat_parts=1, ancillary=()):
    """A PNG stream of already filtered rows `raw`, its IDAT cut into `idat_parts` chunks."""
    stream = zlib.compress(raw)
    cut = [len(stream) * k // idat_parts for k in range(idat_parts + 1)]
    return b"".join([
        reference_png.SIGNATURE,
        _chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, depth, colour, 0, 0, 0)),
        *(_chunk(kind, body) for kind, body in ancillary),
        _chunk(b"PLTE", bytes(palette)) if palette is not None else b"",
        *(_chunk(b"IDAT", stream[a:b]) for a, b in zip(cut, cut[1:])),
        _chunk(b"IEND", b""),
    ])


def _packed(samples, depth: int) -> bytes:
    """One row's samples, high-order bits first, padded with zero bits to a whole byte."""
    if depth == 16:
        return b"".join(struct.pack(">H", s) for s in samples)
    bits = "".join(format(s, f"0{depth}b") for s in samples)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _filtered(rows: list[bytes], kinds: list[int], bpp: int) -> bytes:
    """Each row behind its filter-type byte, filtered as the spec's encoder side states it."""
    out, prior = bytearray(), bytes(len(rows[0]))
    for row, kind in zip(rows, kinds):
        out.append(kind)
        for x, value in enumerate(row):
            a = row[x - bpp] if x >= bpp else 0
            b = prior[x]
            c = prior[x - bpp] if x >= bpp else 0
            p = a + b - c
            # Paeth: the nearest of a, b, c to p, ties broken in that order.
            paeth = min((abs(p - v), rank, v) for rank, v in enumerate((a, b, c)))[2]
            out.append((value - (0, a, b, (a + b) // 2, paeth)[kind]) % 256)
        prior = row
    return bytes(out)


_COMBOS = [(colour, depth) for colour, (_, depths) in reference_png.COLOUR_TYPES.items()
           for depth in depths]
# Greyscale below depth 8 scales to 0-255 by these exact factors.
_GREY_SCALE = {1: 255, 2: 85, 4: 17, 8: 1, 16: 1}


@pytest.mark.parametrize("colour,depth", _COMBOS, ids=[f"type{c}-depth{d}" for c, d in _COMBOS])
@pytest.mark.parametrize("filters", [[0] * 5, [1] * 5, [2] * 5, [3] * 5, [4] * 5, [4, 3, 2, 1, 0]],
                         ids=["none", "sub", "up", "average", "paeth", "mixed"])
def test_hand_built_stream_decodes_to_known_pixels(colour, depth, filters):
    # An odd width leaves padding bits in every sub-byte row.
    width, height = 7, len(filters)
    channels = reference_png.COLOUR_TYPES[colour][0]
    rng = np.random.default_rng(depth * 10 + colour)
    samples = rng.integers(0, 1 << depth, (height, width * channels))
    palette = None
    if colour == 3:
        palette = rng.integers(0, 256, (1 << depth, 3))
        want = palette[samples]
    elif colour == 2:
        want = samples.reshape(height, width, 3)
    else:
        want = np.repeat(samples[:, :, None] * _GREY_SCALE[depth], 3, axis=2)
    rows = [_packed(row.tolist(), depth) for row in samples]
    raw = _filtered(rows, filters, max(1, channels * depth // 8))
    plte = None if palette is None else palette.ravel().tolist()
    got = reference_png.decode(_png(width, height, depth, colour, raw, plte))
    assert got.shape == (height, width, 3)
    assert got.dtype == (np.uint16 if depth == 16 else np.uint8)
    assert np.array_equal(got, want)


def test_worked_filter_rows():
    # Two 8-bit greyscale pixels per row; each row is filtered against the row above.
    rows = [
        (0, [250, 251], [250, 251]),
        (3, [0, 0], [125, 188]),  # Average halves a + b = 125 + 251 before reducing
        (1, [200, 100], [200, 44]),  # Sub wraps: 100 + 200 = 300 -> 44
        (2, [100, 250], [44, 38]),  # Up wraps against [200, 44]
        (0, [1, 0], [1, 0]),
        (4, [2, 4], [3, 7]),  # second pixel: a=3 b=0 c=1, p=2, pa = pc = 1 < pb: a
        (0, [15, 20], [15, 20]),
        (4, [251, 1], [10, 16]),  # second pixel: a=10 b=20 c=15, p=15, pc = 0: c
    ]
    raw = b"".join(bytes([kind, *data]) for kind, data, _ in rows)
    got = reference_png.decode(_png(2, len(rows), 8, 0, raw))
    assert got[:, :, 0].tolist() == [want for _, _, want in rows]


def test_sub_byte_row_padding_is_ignored():
    # Ten 1-bit pixels take two bytes; the six padding bits are set and must not matter.
    raw = bytes([0, 0b10110011, 0b01111111])
    got = reference_png.decode(_png(10, 1, 1, 0, raw))
    assert got[0, :, 0].tolist() == [255 * bit for bit in (1, 0, 1, 1, 0, 0, 1, 1, 0, 1)]


def test_crc_is_the_spec_crc():
    assert reference_png.crc32(b"IEND") == 0xAE426082
    data = np.random.default_rng(0).integers(0, 256, 1000, dtype=np.uint8).tobytes()
    assert reference_png.crc32(data) == zlib.crc32(data)


def test_split_idat_and_ancillary_chunks_decode_the_same():
    raw = _filtered([bytes([1, 2, 3]), bytes([4, 5, 6])], [1, 4], 3)
    one = reference_png.decode(_png(1, 2, 8, 2, raw))
    many = reference_png.decode(_png(1, 2, 8, 2, raw, idat_parts=3,
                                     ancillary=[(b"tEXt", b"Comment\x00x"), (b"gAMA", bytes(4))]))
    assert one.tolist() == many.tolist() == [[[1, 2, 3]], [[4, 5, 6]]]


def _bad_streams():
    """Each case's stream and the error it must raise."""
    good = _png(2, 1, 8, 2, bytes(7))
    ihdr = struct.pack(">IIBBBBB", 2, 1, 8, 2, 0, 0, 0)
    idat = _chunk(b"IDAT", zlib.compress(bytes(7)))
    head = reference_png.SIGNATURE + _chunk(b"IHDR", ihdr)
    end = _chunk(b"IEND", b"")
    interlaced = _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 2, 0, 0, 1))
    compression_1 = _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 2, 1, 0, 0))
    filter_method_1 = _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 2, 0, 1, 0))
    return {
        "signature": (b"\x89PNG\r\n\x1a\x00" + good[8:], "no PNG signature"),
        "crc": (good[:-1] + bytes([good[-1] ^ 1]), "IEND chunk CRC mismatch"),
        "truncated": (good[:-6], "truncated chunk"),
        "depth-4-truecolour": (_png(2, 1, 4, 2, bytes(2)), "bit depth 4 is not allowed"),
        "interlaced": (reference_png.SIGNATURE + interlaced + idat + end, "Adam7"),
        "compression-method-1": (reference_png.SIGNATURE + compression_1 + idat + end,
                                 "compression method 1"),
        "filter-method-1": (reference_png.SIGNATURE + filter_method_1 + idat + end,
                            "filter method 1"),
        "indexed-without-plte": (_png(2, 1, 8, 3, bytes(3)), "without PLTE"),
        "plte-in-greyscale": (_png(2, 1, 8, 0, bytes(3), palette=[0, 0, 0]), "none may stand"),
        "index-past-palette": (_png(2, 1, 8, 3, bytes([0, 0, 1]), palette=[0, 0, 0]),
                               "palette index past"),
        "plte-too-long": (_png(2, 1, 1, 3, bytes(2), palette=[0] * 9), "3 palette entries"),
        "filter-type-5": (_png(2, 1, 8, 2, bytes([5]) + bytes(6)), "filter type 5"),
        "short-rows": (_png(2, 1, 8, 2, bytes(6)), "bytes of rows"),
        "unknown-critical": (head + _chunk(b"ABCD", b"") + idat + end, "critical chunk ABCD"),
        "idat-not-consecutive": (head + idat + _chunk(b"tEXt", b"a\x00b") + idat + end,
                                 "not consecutive"),
        "no-idat": (head + end, "no IDAT"),
    }


@pytest.mark.parametrize("case", sorted(_bad_streams()))
def test_streams_the_spec_forbids_raise(case):
    stream, message = _bad_streams()[case]
    with pytest.raises(ValueError, match=message):
        reference_png.decode(stream)


@pytest.mark.parametrize("case", sorted(_bad_streams()))
def test_emforge_decoder_rejects_what_the_spec_forbids(case):
    with pytest.raises(ValueError):
        png.decode_png(_bad_streams()[case][0])


def test_every_view_of_a_rendered_build_decodes_alike(tmp_path):
    counts = {"SSD": [1, 0], "SPE": [0, 1], "MR": [0, 1], "PR": [0, 1], "EI": [0, 1],
              "AJSD": [1, 0]}
    spec = CorpusSpec.from_dict({"counts": counts, "per_bin_min": 0})
    train, bench = build_corpus(spec, tmp_path, render=True)
    paths = [tmp_path / rel for r in train + bench for rel in r.view_paths]
    assert len(paths) == 4 * 6
    for path in paths:
        data = path.read_bytes()
        got = reference_png.decode(data)
        assert got.shape == (spec.image_size, spec.image_size, 3), path.name
        assert np.array_equal(got, png.decode_png(data)), path.name
