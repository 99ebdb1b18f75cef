"""Integer raster primitives for deterministic, text-free plots.

Every primitive is array code; none loops over pixels, dots or buckets.
Views build a label per pixel from masks. `paint` maps labels to colors
in one gather, for `views.render_view`'s RGB arrays only: a build writes
PNG rows straight from the labels with `png.label_scanlines` and never
calls it.

Polylines step one column per segment: `polyline_runs` joins (x, ys[x])
to (x + 1, ys[x + 1]) with the pixels Bresenham's algorithm paints. With
D = |ys[x+1] - ys[x]| and k = max(1, (D + 1) // 2), column x gets the k
rows from ys[x] stepping toward ys[x+1] and column x + 1 the rest through
ys[x+1] (just ys[x+1] when D = 0). Both segments touching column x contain
ys[x], so each column is painted on one contiguous run of rows.
"""

from __future__ import annotations

import numpy as np

WHITE = (255, 255, 255)


def paint(labels: np.ndarray, palette) -> np.ndarray:
    """(H, W, 3) uint8 image with pixel (y, x) colored palette[labels[y, x]]."""
    return np.take(np.asarray(palette, dtype=np.uint8), labels, axis=0)


def column_runs(height: int, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """(height, len(top)) mask: column x is set on rows top[x]..bottom[x] inclusive.

    `top` and `bottom` are integer arrays. Clipping them to [0, height] and
    [-1, height - 1] sets the same rows, and lets the comparisons run in
    int16, the narrowest type that holds those bounds, whenever height fits.
    """
    dtype = np.int16 if height <= np.iinfo(np.int16).max else np.int64
    rows = np.arange(height, dtype=dtype)[:, None]
    mask = rows >= np.clip(top, 0, height).astype(dtype)
    mask &= rows <= np.clip(bottom, -1, height - 1).astype(dtype)
    return mask


def polyline_runs(ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (top, bottom) rows of the polyline through (x, ys[x])."""
    ys = np.asarray(ys, dtype=np.int64)
    d = np.diff(ys)
    last = ys[:-1] + np.sign(d) * ((np.abs(d) - 1) // 2)  # segment's last row in its left column
    first = last + np.sign(d)  # and its first row in its right column
    ends = np.stack([ys, np.append(last, ys[-1]), np.insert(first, 0, ys[0])])
    return ends.min(axis=0), ends.max(axis=0)


def dot_mask(height: int, width: int, xs, ys, radius: int = 2) -> np.ndarray:
    """Mask of filled square dots of side 2*radius+1 centered on (xs, ys), clipped."""
    side = 2 * radius + 1
    centers = np.zeros((height + side - 1, width + side - 1), dtype=bool)
    xs, ys = np.asarray(xs) + radius, np.asarray(ys) + radius
    keep = (xs >= 0) & (xs < centers.shape[1]) & (ys >= 0) & (ys < centers.shape[0])
    centers[ys[keep], xs[keep]] = True
    # Dilate by the radius: OR of the grid shifted 0..side-1 rows, then columns.
    rows = np.logical_or.reduce([centers[i : i + height] for i in range(side)])
    return np.logical_or.reduce([rows[:, i : i + width] for i in range(side)])


def spectrogram_colormap() -> np.ndarray:
    """256-entry monotone-luminance table, white (low) to deep blue (high)."""
    t = np.arange(256) / 255.0
    r = np.round(255.0 * (1.0 - t))
    g = np.round(255.0 * (1.0 - t))
    b = np.round(255.0 - 127.0 * t)
    return np.stack([r, g, b], axis=1).astype(np.uint8)


def nn_resize(matrix: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of a 2-D array."""
    in_h, in_w = matrix.shape
    rows = (np.arange(out_h) * in_h) // out_h
    cols = (np.arange(out_w) * in_w) // out_w
    return matrix[rows][:, cols]


def bucket_minmax(values: np.ndarray, n_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-bucket min and max; buckets are nearest-neighbor when upsampling.

    Bucket b starts at sample (b * n) // n_buckets and runs to the next
    bucket's start; with fewer samples than buckets every bucket is one
    sample.
    """
    starts = (np.arange(n_buckets) * values.size) // n_buckets
    return np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
