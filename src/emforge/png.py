"""Minimal PNG codec with fixed encoder settings for byte-stable output.

Encodes 8-bit RGB, non-interlaced, filter type 0 on every scanline,
zlib level 6, so the same input pixels always produce the same bytes.
Encoding is two steps: `scanlines` lays the pixels out as filter-0 rows
(numpy work that holds the GIL), and `deflate_scanlines` compresses
those rows and assembles the chunks. zlib releases the GIL while it
compresses, so the second step can run on another thread, and a build
runs it on whichever thread is free: its encoder thread, or the thread
that rendered the view when the encoder is busy. Each call compresses
one view alone, and deflate output depends only on the input bytes and
the level, so which thread runs it cannot change a byte. `encode_png` is
the two steps in a row.
The decoder reads only what the encoder writes: 8-bit RGB, non-interlaced,
filter 0 on every row; any other filter byte is a ValueError.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 6


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def scanlines(pixels: np.ndarray) -> np.ndarray:
    """The (H, 1 + 3W) filter-0 scanline array of an (H, W, 3) uint8 image."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("expected an (H, W, 3) uint8 pixel array")
    h, w = pixels.shape[:2]
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 per scanline
    raw[:, 1:] = pixels.reshape(h, w * 3)
    return raw


def deflate_scanlines(raw: np.ndarray) -> bytes:
    """The PNG byte string of a `scanlines` array: zlib level 6 plus the chunks."""
    h, stride = raw.shape
    ihdr = struct.pack(">IIBBBBB", (stride - 1) // 3, h, 8, 2, 0, 0, 0)
    idat = zlib.compress(raw, _ZLIB_LEVEL)  # reads the C-contiguous buffer, no copy
    return _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as a PNG byte string."""
    return deflate_scanlines(scanlines(pixels))


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB non-interlaced filter-0 PNG into a read-only (H, W, 3) uint8 array."""
    if data[:8] != _SIGNATURE:
        raise ValueError("not a PNG byte stream")
    pos = 8
    width = height = None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            width, height, depth, color, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or color != 2 or interlace != 0:
                raise ValueError("decoder supports 8-bit RGB non-interlaced PNG only")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if width is None:
        raise ValueError("missing IHDR chunk")
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    if raw.size != height * (1 + width * 3):
        raise ValueError("PNG payload size mismatch")
    rows = raw.reshape(height, 1 + width * 3)
    filtered = np.flatnonzero(rows[:, 0])
    if filtered.size:
        y = filtered[0]
        raise ValueError(
            f"unsupported PNG filter type {rows[y, 0]} on row {y}; only filter 0 is read"
        )
    return rows[:, 1:].reshape(height, width, 3)
