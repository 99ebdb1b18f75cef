"""Array raster primitives and STFT against the scalar loops they replaced.

The oracles below are the per-pixel, per-dot, per-bucket and per-frame
loops the renderer used to run; every comparison is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emforge import views
from emforge.raster import (
    WHITE,
    bucket_minmax,
    column_runs,
    dot_mask,
    nn_resize,
    paint,
    polyline_runs,
)
from emforge.signal import IqSignal
from emforge.views import RenderParams, StftParams, _hann, render_view, stft

COLOR = (16, 16, 192)


def blank_canvas(width, height):
    return np.full((height, width, 3), WHITE, dtype=np.uint8)


def oracle_draw_line(img, x0, y0, x1, y1, color):
    """Bresenham line segment, clipped to the canvas."""
    h, w = img.shape[:2]
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < w and 0 <= y < h:
            img[y, x] = color
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def oracle_draw_polyline(img, ys, color):
    for x in range(len(ys) - 1):
        oracle_draw_line(img, x, int(ys[x]), x + 1, int(ys[x + 1]), color)


def oracle_draw_dot(img, x, y, color, radius=2):
    h, w = img.shape[:2]
    x0, x1 = max(x - radius, 0), min(x + radius + 1, w)
    y0, y1 = max(y - radius, 0), min(y + radius + 1, h)
    if x0 < x1 and y0 < y1:
        img[y0:y1, x0:x1] = color


def oracle_bucket_minmax(values, n_buckets):
    n = values.size
    if n >= n_buckets:
        edges = (np.arange(n_buckets + 1) * n) // n_buckets
        mins = np.empty(n_buckets)
        maxs = np.empty(n_buckets)
        for b in range(n_buckets):
            chunk = values[edges[b] : max(edges[b + 1], edges[b] + 1)]
            mins[b] = chunk.min()
            maxs[b] = chunk.max()
        return mins, maxs
    v = values[(np.arange(n_buckets) * n) // n_buckets]
    return v.copy(), v.copy()


def oracle_stft(samples, params):
    window = _hann(params.window_len)
    n_frames = 1 + (samples.size - params.window_len) // params.hop
    out = np.empty((params.window_len, n_frames))
    for k in range(n_frames):
        frame = samples[k * params.hop : k * params.hop + params.window_len]
        out[:, k] = np.abs(np.fft.fftshift(np.fft.fft(frame * window)))
    return out


def oracle_column_runs(height, top, bottom):
    """The mask in int64, as column_runs first computed it."""
    rows = np.arange(height)[:, None]
    return (rows >= top) & (rows <= bottom)


def oracle_render_waveform(signal, p):
    """The waveform view as it was first drawn: each trace overwrites the mask it covers."""
    env = np.abs(signal.samples)
    lim = 1.05 * env.max()
    if lim == 0:
        lim = 1.0
    labels = np.zeros((p.size, p.size), dtype=np.uint8)
    for label, values in enumerate((signal.samples.real, signal.samples.imag, env), start=1):
        lo, hi = bucket_minmax(values, p.size)
        y_lo = (p.size - 1) - views._to_px(lo, -lim, lim, p.size)
        y_hi = (p.size - 1) - views._to_px(hi, -lim, lim, p.size)
        top, bottom = polyline_runs((y_lo + y_hi) // 2)
        labels[oracle_column_runs(p.size, np.minimum(top, y_hi), np.maximum(bottom, y_lo))] = label
    palette = (WHITE, views.WAVEFORM_I_COLOR, views.WAVEFORM_Q_COLOR, views.ENVELOPE_COLOR)
    return paint(labels, palette)


def _polyline_cases():
    """(label, height, ys): 200 seeded polylines on a 384-px canvas, 40 clipped on a 16-px one."""
    rng = np.random.default_rng(2024)
    size = 384
    cases = []
    for i in range(60):
        cases.append(("random", size, rng.integers(0, size, size)))
    for i in range(60):
        steps = rng.integers(-int(rng.integers(1, 40)), int(rng.integers(1, 40)) + 1, size)
        cases.append(("walk", size, np.clip(np.cumsum(steps) + size // 2, 0, size - 1)))
    for i in range(40):
        n = int(rng.integers(1, size + 1))
        cases.append(("flat", size, np.full(n, rng.integers(0, size))))
    for i in range(40):
        n = int(rng.integers(2, size + 1))
        swing = np.where(np.arange(n) % 2 == i % 2, 0, size - 1)
        cases.append(("swing", size, swing))
    for i in range(40):
        # Vertices off the canvas: only the on-canvas pixels are painted.
        cases.append(("clipped", 16, rng.integers(-12, 28, int(rng.integers(2, 24)))))
    return cases


POLYLINES = _polyline_cases()


@pytest.mark.parametrize(
    "label,height,ys", POLYLINES, ids=[f"{c[0]}-{i}" for i, c in enumerate(POLYLINES)]
)
def test_polyline_matches_bresenham(label, height, ys):
    width = len(ys) if label == "clipped" else height
    got = blank_canvas(width, height)
    got[:, : len(ys)] = paint(column_runs(height, *polyline_runs(ys)), (WHITE, COLOR))
    want = blank_canvas(width, height)
    oracle_draw_polyline(want, ys, COLOR)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_dots_clipped_at_every_edge(radius):
    h, w = 20, 24
    centers = [
        (0, 0), (w - 1, h - 1), (0, h - 1), (w - 1, 0),  # corners
        (-1, 7), (-radius, 3), (-radius - 1, 9),  # left edge, last one fully off
        (w, 5), (w + radius - 1, 12), (w + radius, 2),  # right edge
        (6, -1), (11, -radius), (15, -radius - 1),  # top edge
        (4, h), (9, h + radius - 1), (13, h + radius),  # bottom edge
        (10, 10), (11, 10), (10, 10),  # overlapping and repeated
    ]
    rng = np.random.default_rng(radius)
    centers += [tuple(p) for p in rng.integers(-4, 28, (40, 2))]
    xs = np.array([x for x, _ in centers])
    ys = np.array([y for _, y in centers])
    got = paint(dot_mask(h, w, xs, ys, radius=radius), (WHITE, COLOR))
    want = blank_canvas(w, h)
    for x, y in centers:
        oracle_draw_dot(want, x, y, COLOR, radius=radius)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [384, 385, 100, 383, 1, 16384, 4096, 1024])
def test_bucket_minmax_matches_per_bucket_loop(n):
    values = np.random.default_rng(n).standard_normal(n)
    mins, maxs = bucket_minmax(values, 384)
    want_mins, want_maxs = oracle_bucket_minmax(values, 384)
    assert np.array_equal(mins, want_mins)
    assert np.array_equal(maxs, want_maxs)


@pytest.mark.parametrize(
    "in_shape,out_shape", [((256, 61), (384, 384)), ((7, 500), (16, 33)), ((1, 1), (5, 3))]
)
def test_nn_resize_matches_per_pixel_loop(in_shape, out_shape):
    """Pixel (y, x) reads source pixel (y * in_h // out_h, x * in_w // out_w)."""
    matrix = np.random.default_rng(sum(in_shape)).integers(0, 256, in_shape, dtype=np.uint8)
    got = nn_resize(matrix[::-1], *out_shape)
    (in_h, in_w), (out_h, out_w) = in_shape, out_shape
    want = [
        [matrix[::-1][y * in_h // out_h, x * in_w // out_w] for x in range(out_w)]
        for y in range(out_h)
    ]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("window_len,hop", [(2, 1), (64, 64), (256, 64), (128, 1)])
def test_stft_matches_per_frame_loop(window_len, hop):
    rng = np.random.default_rng(window_len + hop)
    samples = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    params = StftParams(window_len, hop)
    got = stft(IqSignal(samples, 1e6), params)
    want = oracle_stft(samples, params)
    assert got.shape == want.shape
    assert np.all(got == want)


@pytest.mark.parametrize("height", [1, 16, 384, 32767, 32768, 40000])
def test_column_runs_matches_int64_masks(height):
    """Narrow comparisons set the same rows at every height, off-canvas bounds included."""
    h = height
    rng = np.random.default_rng(height)
    cases = [
        ([0, h - 1, h // 2], [h - 1, h - 1, h // 2]),  # full column, last row, one row
        ([-3, h, -40000], [h + 3, h + 10, -1]),  # bounds past both edges
        ([h - 1, 5, 70000], [0, 2, 80000]),  # empty runs: top below bottom, all below
        ([-(2**40), 0], [2**40, h - 2]),  # bounds far outside int16 and int32
        tuple(rng.integers(-5, h + 5, (2, 3))),
    ]
    for top, bottom in cases:
        top, bottom = np.asarray(top, dtype=np.int64), np.asarray(bottom, dtype=np.int64)
        got = column_runs(h, top, bottom)
        assert got.dtype == bool
        assert np.array_equal(got, oracle_column_runs(h, top, bottom)), (top, bottom)


_COMPONENT = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data(), st.integers(16, 48))
def test_waveform_composition_matches_per_trace_overwrite(data, size):
    """Taking the largest label equals painting I, Q and the envelope over each other in turn."""
    real = data.draw(arrays(np.float64, st.integers(1, 300), elements=_COMPONENT))
    imag = data.draw(arrays(np.float64, real.shape, elements=_COMPONENT))
    signal = IqSignal(real + 1j * imag, 1e6)
    p = RenderParams(size=size)
    got = render_view(signal, "iq_waveform", p)
    assert np.array_equal(got, oracle_render_waveform(signal, p))
