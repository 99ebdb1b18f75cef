"""The four canonical signal views and their deterministic rasters.

Every render is a pure function of (signal, parameters): fixed axis
rules, fixed colors, no text, no randomness. Constellation axes span
+/-1.5 * max|x|, spectrum/spectrogram cover the full band DC-centered,
the waveform view spans the full time axis.

A view is a (size, size) label image and a fixed palette: 2 colors for
the constellation and the spectrum (bool labels), 4 for the waveform
and 256 for the spectrogram (uint8 labels). `render_labels` returns the
pair. A build writes PNG scanlines straight from it with
`png.label_scanlines` and never paints; `render_view` paints the pair
into a (size, size, 3) uint8 RGB array, the package's public view API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .manifest import ViewKind
from .raster import (
    WHITE,
    bucket_minmax,
    column_runs,
    dot_mask,
    nn_resize,
    paint,
    polyline_runs,
    spectrogram_colormap,
)
from .signal import IqSignal

DEFAULT_IMAGE_SIZE = 384
SPECTRUM_FLOOR_DB = -80.0
CONSTELLATION_COLOR = (16, 16, 160)
SPECTRUM_COLOR = (144, 16, 16)
WAVEFORM_I_COLOR = (16, 16, 192)
WAVEFORM_Q_COLOR = (192, 16, 16)
ENVELOPE_COLOR = (0, 0, 0)


def _palette(colors) -> np.ndarray:
    table = np.array(colors, dtype=np.uint8)
    table.flags.writeable = False
    return table


# Each view's palette, indexed by its labels.
_CONSTELLATION_PALETTE = _palette((WHITE, CONSTELLATION_COLOR))
_SPECTRUM_PALETTE = _palette((WHITE, SPECTRUM_COLOR))
_SPECTROGRAM_PALETTE = _palette(spectrogram_colormap())
_WAVEFORM_PALETTE = _palette((WHITE, WAVEFORM_I_COLOR, WAVEFORM_Q_COLOR, ENVELOPE_COLOR))

# A rendered view: its (size, size) label image and the (n, 3) uint8 palette
# that colors it.
Rendered = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class StftParams:
    window_len: int = 256
    hop: int = 64

    def __post_init__(self):
        if self.window_len < 2 or self.window_len & (self.window_len - 1):
            raise ValueError("window_len must be a power of two >= 2")
        if not 1 <= self.hop <= self.window_len:
            raise ValueError("hop must satisfy 1 <= hop <= window_len")


@dataclass(frozen=True)
class RenderParams:
    size: int = DEFAULT_IMAGE_SIZE
    stft: StftParams = field(default_factory=StftParams)
    constellation_stride: int | None = None

    def __post_init__(self):
        if self.size < 16:
            raise ValueError("image size must be >= 16")


def fft_magnitude(signal: IqSignal) -> np.ndarray:
    """Per-bin magnitude |FFT(x)|, DC-centered (bin N//2 is DC)."""
    if len(signal) < 2:
        raise ValueError("fft_magnitude requires at least 2 samples")
    return np.abs(np.fft.fftshift(np.fft.fft(signal.samples)))


def _hann(n: int) -> np.ndarray:
    # Periodic Hann window.
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)


def stft(signal: IqSignal, params: StftParams = StftParams()) -> np.ndarray:
    """Time-frequency magnitude matrix, shape (window_len, n_frames).

    Frame k windows samples [k*hop, k*hop + window_len); rows are
    DC-centered frequency bins; n_frames = 1 + (N - window_len) // hop.
    """
    n = len(signal)
    if n < params.window_len:
        raise ValueError(
            f"signal of {n} samples is shorter than one {params.window_len}-sample window"
        )
    frames = sliding_window_view(signal.samples, params.window_len)[:: params.hop]
    spectra = np.fft.fft(frames * _hann(params.window_len), axis=1)
    return np.abs(np.fft.fftshift(spectra, axes=1)).T


def normalized_db(matrix: np.ndarray, floor_db: float = SPECTRUM_FLOOR_DB) -> np.ndarray:
    """Map magnitudes to [0, 1]: dB relative to the matrix peak, floored."""
    peak = matrix.max()
    if peak <= 0:
        return np.zeros_like(matrix)
    db = 20.0 * np.log10(np.maximum(matrix, peak * 10.0 ** (floor_db / 20.0)) / peak)
    return (db - floor_db) / (-floor_db)


def _to_px(value: np.ndarray, lo: float, hi: float, size: int) -> np.ndarray:
    scaled = (value - lo) / (hi - lo) if hi > lo else np.zeros_like(value)
    return np.clip(np.round(scaled * (size - 1)), 0, size - 1).astype(int)


def _render_constellation(signal: IqSignal, p: RenderParams) -> Rendered:
    stride = p.constellation_stride or 4
    pts = signal.samples[::stride]
    lim = 1.5 * np.max(np.abs(signal.samples))
    if lim == 0:
        lim = 1.0
    xs = _to_px(pts.real, -lim, lim, p.size)
    ys = (p.size - 1) - _to_px(pts.imag, -lim, lim, p.size)
    return dot_mask(p.size, p.size, xs, ys, radius=2), _CONSTELLATION_PALETTE


def _render_spectrum(signal: IqSignal, p: RenderParams) -> Rendered:
    level = normalized_db(fft_magnitude(signal))
    _, peak = bucket_minmax(level, p.size)  # peak-preserving column reduction
    ys = (p.size - 1) - _to_px(peak, 0.0, 1.0, p.size)
    return column_runs(p.size, *polyline_runs(ys)), _SPECTRUM_PALETTE


def _render_spectrogram(signal: IqSignal, p: RenderParams) -> Rendered:
    level = normalized_db(stft(signal, p.stft))
    index = np.clip(np.round(level * 255), 0, 255).astype(np.uint8)
    # Row 0 = highest frequency at the top of the image.
    return nn_resize(index[::-1], p.size, p.size), _SPECTROGRAM_PALETTE


def _render_waveform(signal: IqSignal, p: RenderParams) -> Rendered:
    env = np.abs(signal.samples)
    lim = 1.05 * env.max()
    if lim == 0:
        lim = 1.0
    labels = np.zeros((p.size, p.size), dtype=np.uint8)
    # Later traces cover earlier ones: I, then Q, then the envelope. Their
    # labels rise in that order, so a pixel's label is the largest of the
    # traces that cover it.
    for label, values in enumerate((signal.samples.real, signal.samples.imag, env), start=1):
        lo, hi = bucket_minmax(values, p.size)
        y_lo = (p.size - 1) - _to_px(lo, -lim, lim, p.size)
        y_hi = (p.size - 1) - _to_px(hi, -lim, lim, p.size)
        # Each column's min-max fill and the midline polyline both contain
        # the midline row, so their union is one run of rows per column.
        top, bottom = polyline_runs((y_lo + y_hi) // 2)
        run = column_runs(p.size, np.minimum(top, y_hi), np.maximum(bottom, y_lo))
        np.maximum(labels, run.view(np.uint8) * np.uint8(label), out=labels)
    return labels, _WAVEFORM_PALETTE


_RENDERERS = {
    ViewKind.CONSTELLATION: _render_constellation,
    ViewKind.FFT_SPECTRUM: _render_spectrum,
    ViewKind.STFT_SPECTROGRAM: _render_spectrogram,
    ViewKind.IQ_WAVEFORM: _render_waveform,
}


def render_labels(signal: IqSignal, kind: ViewKind, params: RenderParams | None = None) -> Rendered:
    """Render one view as its (size, size) label image and its read-only palette."""
    p = params or RenderParams()
    return _RENDERERS[ViewKind(kind)](signal, p)  # ViewKind raises ValueError on unknown kinds


def render_view(signal: IqSignal, kind: ViewKind, params: RenderParams | None = None) -> np.ndarray:
    """Render one view as a deterministic (size, size, 3) uint8 RGB array."""
    return paint(*render_labels(signal, kind, params))
