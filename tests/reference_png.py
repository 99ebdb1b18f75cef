"""A PNG decoder written from the W3C PNG specification, for tests only.

Section numbers are those of the W3C Recommendation "Portable Network
Graphics (PNG) Specification". The decoder shares no code with
`emforge.png`, so the two can check each other. It reads the chunk
layout and checks every CRC itself (§5.3, §5.5), reads IHDR and PLTE
(§11.2.2, §11.2.3), undoes all five filter types of filter method 0,
Paeth included (§9.2-9.4), and unpacks sub-byte samples from rows that
are each padded to a whole byte (§7.2). Inflate is the stdlib `zlib`,
compression method 0 (§10; RFC 1950/1951).

It covers colour types 0 (greyscale), 2 (truecolour) and 3 (indexed) at
every bit depth §11.2.2 allows for them, without interlacing, and
returns an (H, W, 3) RGB array: uint8 up to depth 8, with greyscale below
depth 8 scaled to 0-255 by the exact factor 255 / (2^depth - 1), and
uint16 at depth 16. Ancillary chunks are skipped. Anything else it
cannot decode, or any stream the specification forbids, raises
ValueError. Filters 1, 3 and 4 run as scalar loops, so keep their images
small.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = bytes([137, 80, 78, 71, 13, 10, 26, 10])  # §5.2
# Colour type -> (samples per pixel, the bit depths §11.2.2 allows).
COLOUR_TYPES = {0: (1, (1, 2, 4, 8, 16)), 2: (3, (8, 16)), 3: (1, (1, 2, 4, 8))}
_MAX_LENGTH = 2**31 - 1  # chunk lengths and image dimensions (§5.3, §11.2.2)


def _crc_table() -> list[int]:
    """§5.5 / Annex D: the table of CRCs of every byte value, polynomial 0xEDB88320."""
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = 0xEDB88320 ^ (c >> 1) if c & 1 else c >> 1
        table.append(c)
    return table


_CRC_TABLE = _crc_table()


def crc32(data: bytes) -> int:
    """The chunk CRC of §5.5: register preset to all ones, result complemented."""
    c = 0xFFFFFFFF
    for byte in data:
        c = _CRC_TABLE[(c ^ byte) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


def read_chunks(data: bytes) -> list[tuple[bytes, bytes]]:
    """(chunk type, chunk data) of each chunk from the signature through IEND (§5.2-5.3).

    Each chunk is a 4-byte big-endian length, a 4-byte type of ASCII
    letters, the data, and a CRC over type and data. Bytes after IEND are
    not read.
    """
    if data[:8] != SIGNATURE:
        raise ValueError("no PNG signature")
    chunks, pos = [], 8
    while True:
        if pos + 12 > len(data):
            raise ValueError(f"truncated chunk at byte {pos}")
        length, kind = struct.unpack(">I4s", data[pos : pos + 8])
        if length > _MAX_LENGTH:
            raise ValueError(f"chunk length {length} exceeds 2^31 - 1")
        if not kind.isalpha():
            raise ValueError(f"chunk type {kind!r} is not four ASCII letters")
        body_end = pos + 8 + length
        if body_end + 4 > len(data):
            raise ValueError(f"truncated {kind.decode()} chunk")
        body = data[pos + 8 : body_end]
        (crc,) = struct.unpack(">I", data[body_end : body_end + 4])
        if crc != crc32(kind + body):
            raise ValueError(f"{kind.decode()} chunk CRC mismatch")
        chunks.append((kind, body))
        pos = body_end + 4
        if kind == b"IEND":
            return chunks


def _header(body: bytes) -> tuple[int, int, int, int]:
    """(width, height, bit depth, colour type) of an IHDR chunk's data (§11.2.2)."""
    if len(body) != 13:
        raise ValueError(f"IHDR holds {len(body)} bytes, not 13")
    width, height, depth, colour, compression, filter_method, interlace = struct.unpack(
        ">IIBBBBB", body
    )
    if not (0 < width <= _MAX_LENGTH and 0 < height <= _MAX_LENGTH):
        raise ValueError(f"image size {width} x {height}")
    if colour not in COLOUR_TYPES:
        raise ValueError(f"colour type {colour} is not decoded here")
    if depth not in COLOUR_TYPES[colour][1]:
        raise ValueError(f"bit depth {depth} is not allowed for colour type {colour}")
    if compression != 0 or filter_method != 0:
        raise ValueError(f"compression method {compression}, filter method {filter_method}")
    if interlace == 1:
        raise ValueError("Adam7 interlacing is not decoded here")
    if interlace != 0:
        raise ValueError(f"interlace method {interlace}")
    return width, height, depth, colour


def _paeth(a: int, b: int, c: int) -> int:
    """§9.4: of left (a), above (b) and upper left (c), the one nearest a + b - c;
    ties go to a, then b."""
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """The (height, stride) bytes of the image rows, each row's filter undone (§9.2-9.4).

    `bpp` is the bytes per complete pixel, at least 1. Bytes left of the
    row and the row above the first count as 0; sums are modulo 256, and
    the Average filter halves a + b before any reduction.
    """
    rows = np.zeros((height, stride), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        start = y * (stride + 1)
        kind = raw[start]
        line = np.frombuffer(raw, np.uint8, stride, start + 1).copy()
        if kind == 2:  # Up: uint8 addition wraps modulo 256
            line += prior
        elif kind in (1, 3, 4):
            up = prior.tolist()
            out = line.tolist()
            for x in range(stride):
                a = out[x - bpp] if x >= bpp else 0
                b = up[x]
                c = up[x - bpp] if x >= bpp else 0
                if kind == 1:
                    predictor = a
                elif kind == 3:
                    predictor = (a + b) // 2
                else:
                    predictor = _paeth(a, b, c)
                out[x] = (out[x] + predictor) & 0xFF
            line = np.array(out, dtype=np.uint8)
        elif kind != 0:
            raise ValueError(f"row {y}: filter type {kind}")
        rows[y] = prior = line
    return rows


def _samples(rows: np.ndarray, n_samples: int, depth: int) -> np.ndarray:
    """Each row's first `n_samples` samples (§7.2): sub-byte samples fill each byte
    from its high-order bits down; 16-bit samples are big-endian."""
    if depth == 16:
        return rows.view(">u2")[:, :n_samples].astype(np.uint16)
    shifts = np.arange(8 - depth, -1, -depth, dtype=np.uint8)
    unpacked = (rows[:, :, None] >> shifts) & ((1 << depth) - 1)
    return unpacked.reshape(len(rows), -1)[:, :n_samples]


def decode(data: bytes) -> np.ndarray:
    """The (H, W, 3) RGB pixels of a PNG byte string; see the module docstring."""
    chunks = read_chunks(data)
    if chunks[0][0] != b"IHDR":
        raise ValueError("the first chunk is not IHDR")
    width, height, depth, colour = _header(chunks[0][1])
    palette, idat, last = None, [], b"IHDR"
    for kind, body in chunks[1:]:
        if kind == b"IHDR":
            raise ValueError("a second IHDR chunk")
        if kind == b"PLTE":
            # §11.2.3: at most one, before the first IDAT, never for greyscale.
            if palette is not None or idat or colour == 0:
                raise ValueError("a PLTE chunk where none may stand")
            if len(body) % 3 or not 3 <= len(body) <= 3 * 256:
                raise ValueError(f"PLTE holds {len(body)} bytes")
            palette = np.frombuffer(body, np.uint8).reshape(-1, 3)
            if colour == 3 and len(palette) > 1 << depth:
                raise ValueError(f"{len(palette)} palette entries at bit depth {depth}")
        elif kind == b"IDAT":
            if idat and last != b"IDAT":  # §5.6: IDAT chunks are consecutive
                raise ValueError("IDAT chunks are not consecutive")
            idat.append(body)
        elif kind == b"IEND":
            if body:
                raise ValueError("IEND holds data")
        elif not kind[0] & 0x20:  # §5.4: an upper-case first letter marks a critical chunk
            raise ValueError(f"unknown critical chunk {kind.decode()}")
        last = kind
    if not idat:
        raise ValueError("no IDAT chunk")
    if colour == 3 and palette is None:
        raise ValueError("an indexed-colour image without PLTE")

    channels = COLOUR_TYPES[colour][0]
    bits = channels * depth
    stride = (width * bits + 7) // 8
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as exc:
        raise ValueError(f"IDAT stream: {exc}") from exc
    if len(raw) != height * (1 + stride):
        raise ValueError(f"{len(raw)} bytes of rows, not {height} x {1 + stride}")
    samples = _samples(_unfilter(raw, height, stride, max(1, bits // 8)), width * channels, depth)

    if colour == 2:
        return samples.reshape(height, width, 3)
    if colour == 3:
        if samples.max() >= len(palette):
            raise ValueError("a palette index past the last PLTE entry")
        return palette[samples]
    grey = samples if depth >= 8 else (samples * (255 // ((1 << depth) - 1))).astype(np.uint8)
    return np.repeat(grey[:, :, None], 3, axis=2)
