"""Minimal PNG codec with fixed encoder settings for byte-stable output.

Encodes 8-bit RGB, non-interlaced, filter type 0 on every scanline,
zlib level 6, so the same input pixels always produce the same bytes.
Encoding is two steps. The first lays the pixels out as filter-0 rows
(numpy work that holds the GIL): `scanlines` from an (H, W, 3) RGB image,
or `label_scanlines` straight from a view's label image and palette, the
same rows without painting the image first. A build writes every view's
rows with `label_scanlines`. `deflate_scanlines` then compresses the rows
and assembles the chunks. A build runs both steps, with the view's
render, on one of its two encoder threads, where zlib releases the GIL
while it compresses. Each call compresses one view alone, and deflate
output depends only on the input bytes and the level, so which thread
runs it cannot change a byte. `encode_png` is `scanlines` and
`deflate_scanlines` in a row.
The decoder reads only what the encoder writes: 8-bit RGB, non-interlaced,
filter 0 on every row; any other filter byte is a ValueError. So is a
malformed stream: a truncated chunk, a CRC mismatch, a missing IHDR or
IEND, an IHDR compression or filter method other than 0, an unknown
critical chunk, IDAT chunks that are not consecutive, or an IDAT stream
that does not inflate to its end or has bytes after it.
"""

from __future__ import annotations

import functools
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


def label_scanlines(labels: np.ndarray, palette) -> np.ndarray:
    """The `scanlines` array of `paint(labels, palette)`, written without painting.

    `labels` is an (H, W) bool or uint8 array of indices into `palette`,
    (n, 3) uint8 with 1 <= n <= 256; a label outside it is a ValueError.
    Each row is cut into groups of pixels whose labels form one code: 8
    pixels of 1 bit (`np.packbits`) for up to 2 colors, 4 of 2 bits for up
    to 4, else 2 of 8 bits read as one uint16. One gather from the
    palette's table of each code's RGB bytes writes a whole group; a row
    whose width is not a multiple of the group is padded and trimmed.
    """
    labels = np.asarray(labels)
    palette = np.asarray(palette)
    if labels.ndim != 2 or labels.dtype not in (np.bool_, np.uint8):
        raise ValueError("expected an (H, W) bool or uint8 label array")
    if palette.ndim != 2 or palette.shape[1] != 3 or palette.dtype != np.uint8:
        raise ValueError("expected an (n, 3) uint8 palette")
    if not 1 <= len(palette) <= 256:
        raise ValueError(f"a palette holds 1 to 256 colors, not {len(palette)}")
    if labels.size and labels.max() >= len(palette):
        raise ValueError(f"label {int(labels.max())} is outside the {len(palette)}-color palette")
    h, w = labels.shape
    table = _group_table(palette.tobytes())
    group = table.shape[1] // 3
    if group == 8:
        codes = np.packbits(labels, axis=1)  # pads each row with 0 bits
    else:
        padded = np.ascontiguousarray(labels, dtype=np.uint8)
        if w % group:
            padded = np.pad(padded, ((0, 0), (0, group - w % group)))
        if group == 4:  # 2-bit labels, the first pixel in the high bits
            codes = padded[:, 0::4] << 6
            codes |= padded[:, 1::4] << 4
            codes |= padded[:, 2::4] << 2
            codes |= padded[:, 3::4]
        else:
            codes = padded.view(np.uint16)
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 per scanline
    raw[:, 1:] = np.take(table, codes, axis=0).reshape(h, -1)[:, : w * 3]
    return raw


@functools.lru_cache(maxsize=8)
def _group_table(palette: bytes) -> np.ndarray:
    """(codes, 3 * group) RGB bytes of every code `label_scanlines` forms for `palette`.

    Built on first use and kept for the program's few palettes; read-only.
    """
    colors = np.zeros((256, 3), dtype=np.uint8)  # entries past the palette are never indexed
    n = len(palette) // 3
    colors[:n] = np.frombuffer(palette, dtype=np.uint8).reshape(n, 3)
    if n <= 4:
        bits = 1 if n <= 2 else 2
        shifts = np.arange(8 - bits, -1, -bits)  # first pixel in the high bits
        labels = (np.arange(256)[:, None] >> shifts) & ((1 << bits) - 1)
    else:  # each uint16 code's two bytes in memory order, as `view` reads them
        labels = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
    table = colors[labels].reshape(len(labels), -1)
    table.flags.writeable = False
    return table


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
    """Decode an 8-bit RGB non-interlaced filter-0 PNG into a read-only (H, W, 3) uint8 array.

    Every chunk up to IEND must be whole and carry its CRC; a truncated
    stream, a bad CRC, a missing IHDR or IEND, an IHDR method other than 0,
    an unknown critical chunk (PNG §5.4), IDAT chunks that are not
    consecutive (§5.6), or IDAT bytes that are not exactly one zlib stream
    is a ValueError naming the fault.
    """
    if data[:8] != _SIGNATURE:
        raise ValueError("not a PNG byte stream")
    pos = 8
    width = height = last = None
    idat = []
    while True:
        if pos + 8 > len(data):
            raise ValueError(f"PNG truncated at byte {pos}: missing IEND chunk")
        length, tag = struct.unpack(">I4s", data[pos : pos + 8])
        end = pos + 8 + length
        if end + 4 > len(data):
            raise ValueError(f"PNG truncated inside the {tag!r} chunk at byte {pos}")
        payload = data[pos + 8 : end]
        (crc,) = struct.unpack(">I", data[end : end + 4])
        if crc != zlib.crc32(payload, zlib.crc32(tag)):
            raise ValueError(f"CRC mismatch in the {tag!r} chunk at byte {pos}")
        pos = end + 4
        if tag == b"IHDR":
            if length != 13:
                raise ValueError(f"IHDR chunk holds {length} bytes, not 13")
            width, height, depth, color, compression, filtering, interlace = struct.unpack(
                ">IIBBBBB", payload)
            if compression != 0 or filtering != 0:
                raise ValueError(f"IHDR compression method {compression}, filter method "
                                 f"{filtering}; PNG defines only method 0 of each")
            if depth != 8 or color != 2 or interlace != 0:
                raise ValueError("decoder supports 8-bit RGB non-interlaced PNG only")
        elif tag == b"IDAT":
            if idat and last != b"IDAT":
                raise ValueError("IDAT chunks are not consecutive")
            idat.append(payload)
        elif tag == b"IEND":
            break
        elif not tag[0] & 0x20 and tag != b"PLTE":  # an upper-case first letter marks it critical
            raise ValueError(f"unknown critical chunk {tag!r}")
        last = tag
    if width is None:
        raise ValueError("missing IHDR chunk")
    if not idat:
        raise ValueError("no IDAT chunk")
    inflater = zlib.decompressobj()
    try:
        raw = np.frombuffer(inflater.decompress(b"".join(idat)), dtype=np.uint8)
    except zlib.error as exc:
        raise ValueError(f"IDAT stream does not inflate: {exc}") from None
    if not inflater.eof:
        raise ValueError("IDAT stream does not inflate: the zlib stream is cut short")
    if inflater.unused_data:
        raise ValueError(f"{len(inflater.unused_data)} bytes follow the IDAT zlib stream")
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
