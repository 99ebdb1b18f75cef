"""FFT/STFT against brute-force oracles, render determinism, PNG codec."""

import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emforge import png
from emforge.raster import paint
from emforge.signal import IqSignal
from emforge.synth import (
    Cw,
    ModulationKind,
    RadarPulseSpec,
    apply_awgn,
    gen_noise,
    gen_radar_pulse_train,
    modulate,
)
from emforge.views import (
    RenderParams,
    StftParams,
    VIEW_ORDER,
    ViewKind,
    fft_magnitude,
    normalized_db,
    render_view,
    stft,
)


def _naive_dft_magnitude(samples):
    """O(N^2) DFT oracle, DC-centered like fft_magnitude."""
    n = samples.size
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return np.fft.fftshift(np.abs(w @ samples))


class TestFft:
    def test_dc_impulse(self):
        sig = IqSignal(np.ones(8, dtype=complex), 1e6)
        mag = fft_magnitude(sig)
        assert abs(mag[4] - 8.0) < 1e-9
        others = np.delete(mag, 4)
        assert np.all(others < 1e-9)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        sig = IqSignal(x, 1e6)
        mag = fft_magnitude(sig)
        oracle = _naive_dft_magnitude(x)
        assert np.max(np.abs(mag - oracle)) / np.max(oracle) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        mag = fft_magnitude(IqSignal(x, 1e6))
        lhs = np.sum(mag**2)
        rhs = 512 * np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) / rhs < 1e-6

    def test_linearity_in_scale(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        a = 3.7
        m1 = fft_magnitude(IqSignal(a * x, 1e6))
        m2 = abs(a) * fft_magnitude(IqSignal(x, 1e6))
        assert np.max(np.abs(m1 - m2)) / np.max(m2) < 1e-9

    def test_circular_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        m1 = fft_magnitude(IqSignal(x, 1e6))
        m2 = fft_magnitude(IqSignal(np.roll(x, 37), 1e6))
        assert np.max(np.abs(m1 - m2)) / np.max(m1) < 1e-9

    def test_too_short_errors(self):
        with pytest.raises(ValueError):
            fft_magnitude(IqSignal(np.ones(1, dtype=complex), 1e6))


class TestStft:
    def test_frame_count_formula_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            wl = int(2 ** rng.integers(4, 9))
            hop = int(rng.integers(1, wl + 1))
            n = int(rng.integers(wl, 4 * wl))
            sig = IqSignal(rng.standard_normal(n) + 0j, 1e6)
            mat = stft(sig, StftParams(wl, hop))
            assert mat.shape == (wl, 1 + (n - wl) // hop)

    def test_pure_tone_argmax(self):
        wl, hop, n = 256, 64, 1024
        k = 19  # integer-periodic in the window
        t = np.arange(n)
        sig = IqSignal(np.exp(2j * np.pi * k * t / wl), 1e6)
        mat = stft(sig, StftParams(wl, hop))
        assert np.all(np.argmax(mat, axis=0) == wl // 2 + k)

    def test_all_zero_signal(self):
        sig = IqSignal(np.zeros(512, dtype=complex), 1e6)
        assert np.all(stft(sig, StftParams(128, 32)) == 0.0)

    def test_pulse_train_frame_energy_matches_envelope(self):
        # Parseval per frame: column energy equals window_len times the
        # windowed-envelope energy, computed here from index arithmetic.
        fs = 10e6
        spec = RadarPulseSpec(4.0, 20.0, 3, 8.0, Cw())
        sig = gen_radar_pulse_train(spec, 102.4, fs)
        wl, hop = 128, 32
        mat = stft(sig, StftParams(wl, hop))
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(wl) / wl)
        env = np.abs(sig.samples)
        for frame in range(mat.shape[1]):
            col_energy = np.sum(mat[:, frame] ** 2)
            expected = wl * np.sum((window * env[frame * hop : frame * hop + wl]) ** 2)
            assert abs(col_energy - expected) <= 1e-6 * max(expected, 1.0)

    def test_short_signal_errors(self):
        with pytest.raises(ValueError, match="shorter"):
            stft(IqSignal(np.ones(100, dtype=complex), 1e6), StftParams(256, 64))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            StftParams(100, 10)  # not a power of two
        with pytest.raises(ValueError):
            StftParams(256, 0)


def _components(mask):
    """4-connected component count oracle (BFS over nonbackground pixels)."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if mask[sy, sx] and not seen[sy, sx]:
                count += 1
                stack = [(sy, sx)]
                seen[sy, sx] = True
                while stack:
                    y, x = stack.pop()
                    for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
    return count


class TestRender:
    def test_determinism_byte_identical(self):
        sig = apply_awgn(modulate(ModulationKind.QAM16, _rand_bits(1024), 8, 1e6), 10.0, 6)
        for kind in VIEW_ORDER:
            a = png.encode_png(render_view(sig, kind))
            b = png.encode_png(render_view(sig, kind))
            assert a == b

    def test_all_views_are_384(self):
        sig = gen_noise(1024, 1e6, 0)
        for kind in VIEW_ORDER:
            img = render_view(sig, kind)
            assert img.shape == (384, 384, 3)
            assert img.dtype == np.uint8

    def test_noiseless_bpsk_two_clusters(self):
        sig = modulate(ModulationKind.BPSK, _rand_bits(256), 1, 1e6)
        img = render_view(sig, ViewKind.CONSTELLATION, RenderParams(constellation_stride=1))
        nonbackground = np.any(img != 255, axis=2)
        assert _components(nonbackground) == 2

    def test_unsupported_kind_errors(self):
        with pytest.raises(ValueError):
            render_view(gen_noise(256, 1e6, 0), "histogram")

    def test_spectrogram_noise_floor_monotone(self):
        # Per-image normalization puts the -20 dB floor closer to the peak
        # than the +18 dB floor, for every seed.
        clean = gen_radar_pulse_train(RadarPulseSpec(10.0, 40.0, 4, 5.0, Cw()), 204.8, 20e6)
        for seed in range(20):
            low = normalized_db(stft(apply_awgn(clean, -20.0, seed)))
            high = normalized_db(stft(apply_awgn(clean, 18.0, seed)))
            assert np.median(low) > np.median(high)


def _rand_bits(n):
    return np.random.default_rng(42).integers(0, 2, n)


class TestPng:
    def test_roundtrip_and_stability(self):
        sig = gen_noise(1024, 1e6, 3)
        img = render_view(sig, ViewKind.IQ_WAVEFORM)
        data1 = png.encode_png(img)
        data2 = png.encode_png(img)
        assert data1 == data2
        back = png.decode_png(data1)
        assert np.array_equal(back, img)

    def test_all_black_image(self):
        img = np.zeros((384, 384, 3), dtype=np.uint8)
        back = png.decode_png(png.encode_png(img))
        assert back.shape == (384, 384, 3)
        assert np.all(back == 0)

    def test_nonzero_filter_byte_rejected(self):
        # The encoder writes filter 0 only, so the decoder reads nothing else.
        rows = png.scanlines(np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3))
        rows[2, 0] = 1  # filter 1 (Sub) on one row
        with pytest.raises(ValueError, match="filter type 1 on row 2"):
            png.decode_png(png.deflate_scanlines(rows))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40), st.just(3))))
    def test_chunks_follow_the_spec_and_decode_back(self, img):
        # Stands in for the absent Pillow cross-decode: the chunk layout and
        # CRCs of the PNG spec, checked chunk by chunk.
        data = png.encode_png(img)
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        chunks = []
        pos = 8
        while pos < len(data):
            (length,) = struct.unpack(">I", data[pos : pos + 4])
            tag = data[pos + 4 : pos + 8]
            payload = data[pos + 8 : pos + 8 + length]
            (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
            assert crc == zlib.crc32(tag + payload), tag
            chunks.append((tag, payload))
            pos += 12 + length
        assert pos == len(data)
        h, w = img.shape[:2]
        assert chunks[0] == (b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        assert chunks[-1] == (b"IEND", b"")
        assert np.array_equal(png.decode_png(data), img)

    @staticmethod
    def _small_png() -> bytes:
        return png.encode_png(np.arange(6 * 7 * 3, dtype=np.uint8).reshape(6, 7, 3))

    @staticmethod
    def _flip(data: bytes, at: int) -> bytes:
        return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]

    def test_every_truncation_is_a_value_error(self):
        data = self._small_png()
        with pytest.raises(ValueError, match="truncated at byte 33: missing IEND"):
            png.decode_png(data[:33])  # IHDR ends at byte 33
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                png.decode_png(data[:cut])

    @pytest.mark.parametrize("cut, tag", [(20, b"IHDR"), (50, b"IDAT")])
    def test_truncated_chunk_names_it(self, cut, tag):
        with pytest.raises(ValueError, match=f"truncated inside the {tag!r} chunk"):
            png.decode_png(self._small_png()[:cut])

    @pytest.mark.parametrize(
        "tag, part",
        [
            (b"IHDR", "payload"),
            (b"IHDR", "crc"),
            (b"IDAT", "payload"),
            (b"IDAT", "crc"),
            (b"IEND", "crc"),
        ],
    )
    def test_flipped_byte_fails_the_chunk_crc(self, tag, part):
        data = self._small_png()
        start = data.index(tag) - 4
        (length,) = struct.unpack(">I", data[start : start + 4])
        at = start + 8 + (0 if part == "payload" else length)
        with pytest.raises(ValueError, match=f"CRC mismatch in the {tag!r} chunk at byte {start}"):
            png.decode_png(self._flip(data, at))

    @staticmethod
    def _assemble(ihdr: bytes, idat: bytes) -> bytes:
        """A PNG of whole chunks with valid CRCs around the given payloads."""
        chunks = png._chunk(b"IHDR", ihdr) + png._chunk(b"IDAT", idat) + png._chunk(b"IEND", b"")
        return b"\x89PNG\r\n\x1a\n" + chunks

    def test_cut_idat_stream_is_a_value_error(self):
        rows = png.scanlines(np.arange(6 * 7 * 3, dtype=np.uint8).reshape(6, 7, 3))
        ihdr = struct.pack(">IIBBBBB", 7, 6, 8, 2, 0, 0, 0)
        whole = png.decode_png(self._assemble(ihdr, zlib.compress(rows, 6)))
        assert np.array_equal(whole, rows[:, 1:].reshape(6, 7, 3))
        with pytest.raises(ValueError, match="IDAT stream does not inflate"):
            png.decode_png(self._assemble(ihdr, zlib.compress(rows, 6)[:-9]))

    def test_short_ihdr_is_a_value_error(self):
        ihdr = struct.pack(">IIBBBB", 7, 6, 8, 2, 0, 0)
        with pytest.raises(ValueError, match="IHDR chunk holds 12 bytes, not 13"):
            png.decode_png(self._assemble(ihdr, zlib.compress(b"")))

    def test_missing_iend_is_a_value_error(self):
        data = self._small_png()
        assert data[-12:] == png._chunk(b"IEND", b"")
        with pytest.raises(ValueError, match="missing IEND"):
            png.decode_png(data[:-12])

    def test_bytes_after_iend_are_ignored(self):
        data = self._small_png()
        assert np.array_equal(png.decode_png(data + b"trailing"), png.decode_png(data))

    def test_pillow_cross_decode(self):
        # Independent decoder oracle.
        import io

        PIL_Image = pytest.importorskip("PIL.Image")
        sig = gen_noise(2048, 1e6, 9)
        img = render_view(sig, ViewKind.STFT_SPECTROGRAM)
        with PIL_Image.open(io.BytesIO(png.encode_png(img))) as loaded:
            pixels = np.asarray(loaded.convert("RGB"))
        assert np.array_equal(pixels, img)


# Palette sizes on both sides of each code width's limit (2, 4 and 256 colors).
_PALETTE_SIZES = st.one_of(st.integers(1, 5), st.integers(6, 256))


class TestLabelScanlines:
    """PNG rows written from labels equal the rows of the painted image."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data(), _PALETTE_SIZES, st.integers(1, 40), st.integers(1, 97), st.booleans())
    def test_rows_equal_the_painted_rows(self, data, n, height, width, as_bool):
        palette = np.frombuffer(data.draw(st.binary(min_size=3 * n, max_size=3 * n)), np.uint8)
        palette = palette.reshape(n, 3)
        raw = np.frombuffer(
            data.draw(st.binary(min_size=height * width, max_size=height * width)), np.uint8
        ).reshape(height, width)
        if as_bool:
            labels = raw % min(n, 2) == 1
        else:
            labels = raw if n == 256 else raw % n
        painted = paint(labels, palette)
        rows = png.label_scanlines(labels, palette)
        want = png.scanlines(painted)
        assert rows.dtype == want.dtype and rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()
        assert np.array_equal(png.decode_png(png.deflate_scanlines(rows)), painted)

    def test_labels_outside_the_palette_rejected(self):
        palette = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="label 3 is outside the 3-color palette"):
            png.label_scanlines(np.full((2, 5), 3, dtype=np.uint8), palette)
        with pytest.raises(ValueError, match="label 1 is outside the 1-color palette"):
            png.label_scanlines(np.ones((2, 5), dtype=bool), palette[:1])
        with pytest.raises(ValueError, match="bool or uint8 label array"):
            png.label_scanlines(np.zeros((2, 5), dtype=np.int64), palette)
        with pytest.raises(ValueError, match="1 to 256 colors"):
            png.label_scanlines(np.zeros((2, 5), dtype=np.uint8), np.zeros((257, 3), np.uint8))

    def test_no_table_built_at_import(self):
        code = "from emforge import png; print(png._group_table.cache_info().currsize)"
        src = os.path.dirname(os.path.dirname(os.path.abspath(png.__file__)))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"
