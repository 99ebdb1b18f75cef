"""Signal synthesis: modulators, radar trains, channel, impairments,
protocol bursts, and jamming scenes against independent oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from emforge.builders import EI_SPS, MR_SPS, SEGMENT_SAMPLES, SSD_COMM_SPS
from emforge.signal import IqSignal, measure_snr, signal_power
from emforge.synth.channel import apply_awgn, gen_noise
from emforge.synth.impairments import DeviceProfile, apply_device_profile
from emforge.synth.jamming import Jammer, JammingScene, gen_jamming_scene
from emforge.synth.modulations import (
    ANALOG_KINDS,
    BITS_PER_SYMBOL,
    MODULATIONS,
    constellation,
    cyclic_filter,
    modulate,
    rrc_taps,
)
from emforge.synth.protocol import (
    PROTOCOL_CLASSES,
    ProtocolBurstSpec,
    default_burst_spec,
    gen_protocol_burst,
)
from emforge.synth.radar import RadarPulseSpec, gen_radar_pulse_train, pulse_support_indices
from emforge.views import StftParams, fft_magnitude, stft


def _bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n)


class TestRrcTaps:
    # Every samples-per-symbol the builders use.
    @pytest.mark.parametrize("sps", sorted({MR_SPS, SSD_COMM_SPS, EI_SPS}))
    def test_cached_taps_equal_fresh_computation(self, sps):
        taps = rrc_taps(sps)
        assert rrc_taps(sps) is taps
        assert np.array_equal(taps, rrc_taps.__wrapped__(sps))
        assert taps.size == 8 * sps + 1 and abs(np.sum(taps**2) - 1.0) < 1e-12

    def test_cached_taps_read_only(self):
        taps = rrc_taps(MR_SPS)
        with pytest.raises(ValueError, match="read-only"):
            taps[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            taps *= 2.0
        assert np.array_equal(taps, rrc_taps.__wrapped__(MR_SPS))


class TestModulate:
    def test_bpsk_sps1_exact(self):
        sig = modulate("BPSK", [0, 1, 0, 1], 1, 1e6)
        assert np.array_equal(sig.samples, np.array([1, -1, 1, -1], dtype=complex))

    def test_qpsk_constant_payload_single_point(self):
        sig = modulate("QPSK", np.zeros(128, dtype=int), 8, 1e6)
        instants = sig.samples[::8]
        assert np.max(np.abs(instants - instants[0])) < 1e-9

    def test_qam16_power_and_cluster_recovery(self):
        # Matched-filter oracle: an RRC receive filter undoes the shaping,
        # so decimated symbols must land on the 16-point grid.
        bits = _bits(4000, 3)
        sig = modulate("QAM16", bits, 8, 1e6)
        assert abs(signal_power(sig) - 1.0) < 0.02

        grid = constellation("QAM16")
        tx_sym = grid[bits.reshape(-1, 4) @ (1 << np.arange(3, -1, -1))]
        rx = cyclic_filter(sig.samples, rrc_taps(8))[::8]
        rx = rx * (np.vdot(rx, tx_sym) / np.vdot(rx, rx))  # least-squares gain
        nearest = np.argmin(np.abs(rx[:, None] - grid[None, :]), axis=1)
        assert np.allclose(grid[nearest], tx_sym)
        assert len(set(nearest.tolist())) == 16
        half_spacing = 0.5 * (2 / math.sqrt(10))
        assert np.max(np.abs(rx - tx_sym)) < half_spacing / 2

    @pytest.mark.parametrize("kind", MODULATIONS)
    def test_unit_average_power(self, kind):
        if kind in ANALOG_KINDS:
            sig = modulate(kind, 11, 8, 1e6, n_samples=2048)
        else:
            sig = modulate(kind, _bits(256 * BITS_PER_SYMBOL[kind], 5), 8, 1e6)
        assert abs(signal_power(sig) - 1.0) <= 1e-9

    def test_determinism(self):
        bits = _bits(512, 9)
        a = modulate("8PSK", bits[: 510 // 3 * 3], 4, 1e6)
        b = modulate("8PSK", bits[: 510 // 3 * 3], 4, 1e6)
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError, match="alphabet"):
            modulate("BPSK", [0, 2, 1], 2, 1e6)
        with pytest.raises(ValueError, match="nonempty"):
            modulate("QPSK", [], 2, 1e6)
        with pytest.raises(ValueError, match="multiple"):
            modulate("QPSK", [0, 1, 0], 2, 1e6)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="'OFDM' is not a modulation"):
            modulate("OFDM", [0, 1], 2, 1e6)

    def test_analog_requires_length(self):
        with pytest.raises(ValueError, match="n_samples"):
            modulate("WBFM", 1, 8, 1e6)


class TestRadar:
    def test_support_indices_worked_example(self):
        spec = RadarPulseSpec(2.0, 10.0, 3, 5.0)
        sig = gen_radar_pulse_train(spec, 40.0, 10e6)
        on = np.flatnonzero(np.abs(sig.samples) > 0)
        expected = np.concatenate([np.arange(50, 70), np.arange(150, 170), np.arange(250, 270)])
        assert np.array_equal(on, expected)
        assert np.allclose(np.abs(sig.samples[on]), 1.0)

    def test_single_pulse_at_origin(self):
        sig = gen_radar_pulse_train(RadarPulseSpec(3.0, 10.0, 1, 0.0), 20.0, 10e6)
        assert abs(sig.samples[0]) == 1.0

    def test_randomized_index_arithmetic_oracle(self):
        # Closed-form index arithmetic recomputed here, independent of the
        # generator's envelope loop.
        rng = np.random.default_rng(17)
        fs = 20e6
        for _ in range(50):
            pw = float(rng.uniform(0.5, 6.0))
            period = float(rng.uniform(pw + 1.0, 25.0))
            count = int(rng.integers(1, 6))
            delay = float(rng.uniform(0.0, 30.0))
            duration = delay + (count - 1) * period + pw + rng.uniform(1.0, 20.0)
            spec = RadarPulseSpec(pw, period, count, delay)
            sig = gen_radar_pulse_train(spec, duration, fs)
            env = np.zeros(len(sig))
            for k in range(count):
                start = round((delay + k * period) * 1e-6 * fs)
                stop = round((delay + k * period + pw) * 1e-6 * fs)
                env[start:stop] = 1.0
            assert np.array_equal(np.abs(sig.samples) > 0, env > 0)
            assert pulse_support_indices(spec, fs) == [
                (
                    round((delay + k * period) * 1e-6 * fs),
                    round((delay + k * period + pw) * 1e-6 * fs),
                )
                for k in range(count)
            ]

    def test_lfm_ridge_spans_sweep(self):
        # Ridge-tracking oracle on the STFT of a long LFM pulse.
        fs = 10e6
        sweep = 1e6
        sig = gen_radar_pulse_train(RadarPulseSpec(90.0, 100.0, 1, 0.0, lfm_sweep_hz=sweep), 100.0, fs)
        mat = stft(sig, StftParams(128, 32))
        freqs = np.fft.fftshift(np.fft.fftfreq(128, 1 / fs))
        n_on_frames = (900 - 128) // 32 + 1
        ridge = freqs[np.argmax(mat[:, :n_on_frames], axis=0)]
        assert np.all(np.diff(ridge) >= 0)  # monotone sweep
        assert ridge[-1] - ridge[0] > 0.6 * sweep

    def test_train_exceeding_duration_errors(self):
        with pytest.raises(ValueError, match="beyond"):
            gen_radar_pulse_train(RadarPulseSpec(2.0, 10.0, 4, 5.0), 30.0, 10e6)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RadarPulseSpec(10.0, 10.0, 1)
        with pytest.raises(ValueError):
            RadarPulseSpec(2.0, 10.0, 0)
        with pytest.raises(ValueError, match="lfm_sweep_hz must be nonzero"):
            RadarPulseSpec(2.0, 10.0, 1, lfm_sweep_hz=0.0)


class TestChannel:
    def test_noise_power_calibration(self):
        sig = gen_noise(65536, 1e6, 123)
        assert abs(signal_power(sig) - 1.0) < 0.02

    def test_noise_determinism(self):
        a = gen_noise(4096, 1e6, 7)
        b = gen_noise(4096, 1e6, 7)
        assert np.array_equal(a.samples, b.samples)

    def test_single_sample(self):
        sig = gen_noise(1, 1e6, 0)
        assert len(sig) == 1 and np.isfinite(sig.samples[0])

    def test_awgn_injected_power(self):
        x = modulate("QPSK", _bits(2 * 32768, 2), 2, 1e6)
        for snr_db, expected in ((0.0, 1.0), (10.0, 0.1)):
            noisy = apply_awgn(x, snr_db, 99)
            injected = signal_power(noisy.samples - x.samples)
            assert abs(injected - expected) < 0.02 * max(expected, 1.0)

    @pytest.mark.parametrize("snr_db", [-20.0, -10.0, 0.0, 10.0, 18.0])
    def test_snr_calibration(self, snr_db):
        x = gen_noise(65536, 1e6, 5)
        for seed in range(3):
            measured = measure_snr(apply_awgn(x, snr_db, seed), x)
            assert abs(measured - snr_db) <= 0.2

    def test_awgn_zero_power_error(self):
        zero = IqSignal(np.zeros(16, dtype=complex), 1e6)
        with pytest.raises(ValueError, match="zero power"):
            apply_awgn(zero, 10.0, 0)


class TestMeasureSnr:
    def test_identical_signals_infinite(self):
        x = gen_noise(128, 1e6, 1)
        assert measure_snr(x, x) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            measure_snr(gen_noise(8, 1e6, 0), gen_noise(9, 1e6, 0))

    def test_zero_clean_error(self):
        zero = IqSignal(np.zeros(8, dtype=complex), 1e6)
        with pytest.raises(ValueError, match="zero power"):
            measure_snr(gen_noise(8, 1e6, 0), zero)


class TestDeviceProfile:
    def test_identity_profile_is_identity(self):
        x = modulate("QPSK", _bits(512, 4), 4, 1e6)
        y = apply_device_profile(x, DeviceProfile("ref"), 0)
        assert np.array_equal(y.samples, x.samples)

    def test_dc_offset_shifts_mean(self):
        x = modulate("QPSK", _bits(4096, 6), 4, 1e6)
        y = apply_device_profile(x, DeviceProfile("dc", dc_offset=0.1 + 0j), 0)
        assert abs((np.mean(y.samples) - np.mean(x.samples)).real - 0.1) < 1e-6

    def test_profile_range_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", iq_gain_imbalance_db=5.0)
        with pytest.raises(ValueError):
            DeviceProfile("bad", cfo_ppm=80.0)

    def test_two_profiles_separable_by_nearest_neighbor(self):
        # Closed-form estimators (mean, rail-power ratio, phase-slope CFO)
        # as the oracle feature extractor.
        fs = 10e6
        clean = modulate("QPSK", _bits(2048, 8), 4, fs)
        profiles = [
            DeviceProfile("a", 1.0, 2.0, 0.05 + 0j, 20.0, 0.0),
            DeviceProfile("b", -1.0, -2.0, -0.05 + 0.02j, -20.0, 0.0),
        ]

        def features(y):
            dc = np.mean(y.samples)
            z = (y.samples - dc) * np.conj(clean.samples)
            step = np.angle(np.sum(z[1:] * np.conj(z[:-1])))
            cfo = step * fs / (2 * np.pi)
            centered = y.samples - dc
            gain = np.std(centered.real) / np.std(centered.imag)
            return np.array([dc.real * 100, dc.imag * 100, cfo / 1e3, gain * 10])

        feats, labels = [], []
        for p_idx, profile in enumerate(profiles):
            for trial in range(10):
                y = apply_awgn(
                    apply_device_profile(clean, profile, trial), 20.0, 1000 + trial
                )
                feats.append(features(y))
                labels.append(p_idx)
        feats = np.array(feats)
        correct = 0
        for i in range(len(feats)):
            dists = np.linalg.norm(feats - feats[i], axis=1)
            dists[i] = np.inf
            correct += labels[int(np.argmin(dists))] == labels[i]
        assert correct == len(feats)


class TestProtocol:
    def test_hop_pattern_visible_in_stft(self):
        # Spectral-centroid oracle: active frames round to the hop offsets.
        fs = 10e6
        spec = default_burst_spec("bluetooth-like")
        sig = gen_protocol_burst(spec, 409.6, fs, seed=2)
        mat = stft(sig, StftParams(256, 64))
        freqs = np.fft.fftshift(np.fft.fftfreq(256, 1 / fs))
        energy = (mat**2).sum(axis=0)
        active = energy > 0.25 * energy.max()
        centroids = (freqs[:, None] * mat[:, active] ** 2).sum(axis=0) / (
            mat[:, active] ** 2
        ).sum(axis=0)
        seen = {min(spec.hop_pattern, key=lambda h: abs(h - c)) for c in centroids}
        assert seen == set(spec.hop_pattern)

    def test_gapless_single_burst_is_continuous(self):
        spec = ProtocolBurstSpec("wlan-like", 2e6, 16, None, 0.0, 96)
        sig = gen_protocol_burst(spec, 50.0, 10e6, seed=1)
        assert np.allclose(np.abs(sig.samples), 1.0)  # unit on-support envelope

    @pytest.mark.parametrize("protocol_class", PROTOCOL_CLASSES)
    def test_burst_memory_does_not_grow_with_the_sample_rate(self, protocol_class):
        # One record at 2 GS/s holds 64 KiB of samples, while a whole burst
        # at that rate runs to megabytes: only the samples that fit are made.
        fs = 2e9
        tracemalloc.start()
        try:
            sig = gen_protocol_burst(
                default_burst_spec(protocol_class), SEGMENT_SAMPLES / fs * 1e6, fs, seed=0
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sig) == SEGMENT_SAMPLES
        assert peak < 2**20

    def test_burst_determinism(self):
        spec = default_burst_spec("wpan-like")
        a = gen_protocol_burst(spec, 200.0, 10e6, seed=5)
        b = gen_protocol_burst(spec, 200.0, 10e6, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_symbol_rate_estimates_differ_between_classes(self):
        # Autocorrelation-of-transitions oracle: the symbol period is the
        # smallest strong local maximum of the transition autocorrelation.
        fs = 10e6

        def estimate_sps(sig):
            d = np.abs(np.diff(sig.samples))
            d = d - d.mean()
            corr = np.correlate(d, d, mode="full")[d.size :]  # lag 1 at index 0
            peak = corr[1:400].max()
            for k in range(1, 399):
                if corr[k] >= 0.6 * peak and corr[k - 1] <= corr[k] >= corr[k + 1]:
                    return k + 1
            raise AssertionError("no symbol-period peak found")

        fast = gen_protocol_burst(default_burst_spec("wlan-like"), 409.6, fs, seed=3)
        slow = gen_protocol_burst(default_burst_spec("beacon-like"), 409.6, fs, seed=3)
        assert estimate_sps(fast) == round(fs / 2e6)
        assert estimate_sps(slow) == round(fs / 0.125e6)

    def test_nyquist_violation_errors(self):
        spec = ProtocolBurstSpec("wlan-like", 6e6, 16)
        with pytest.raises(ValueError, match="Nyquist"):
            gen_protocol_burst(spec, 100.0, 10e6)

    def test_unknown_class_errors(self):
        with pytest.raises(ValueError, match="protocol_class"):
            ProtocolBurstSpec("zigbee", 1e6, 8)


class TestJamming:
    def test_noise_only_scene_labels(self):
        sig, labels = gen_jamming_scene(JammingScene(), 100.0, 20e6, seed=1)
        assert labels["noise_only"] is True
        assert labels["jammers"] == []
        assert len(sig) == 2000

    def test_single_tone_peak_bin(self):
        scene = JammingScene("noise", (Jammer("tone", 10.0, 2e6),))
        sig, _ = gen_jamming_scene(scene, 204.8, 20e6, seed=2)
        mag = fft_magnitude(sig)
        freqs = np.fft.fftshift(np.fft.fftfreq(len(sig), 1 / 20e6))
        bin_width = 20e6 / len(sig)
        assert abs(freqs[np.argmax(mag)] - 2e6) <= bin_width

    def test_two_tones_two_dominant_peaks(self):
        scene = JammingScene(
            "noise", (Jammer("tone", 12.0, 2e6), Jammer("tone", 12.0, -3e6))
        )
        sig, _ = gen_jamming_scene(scene, 204.8, 20e6, seed=3)
        mag = fft_magnitude(sig)
        above = (mag > mag.max() * 10 ** (-20 / 20)).astype(int)
        # Count contiguous runs of above-threshold bins.
        runs = np.count_nonzero(np.diff(np.concatenate([[0], above])) == 1)
        assert runs == 2

    def test_jammer_power_calibration(self):
        scene = JammingScene("noise", (Jammer("noise-band", 10.0, 1e6),))
        sig, _ = gen_jamming_scene(scene, 204.8, 20e6, seed=4)
        # total = background (1.0) + jammer (10 dB above background)
        assert abs(signal_power(sig) - 11.0) < 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Jammer("barrage", 10.0, 0.0)

    def test_scene_determinism(self):
        scene = JammingScene("comm", (Jammer("lfm-sweep", 8.0, 1e6),), "comm-mode")
        a, _ = gen_jamming_scene(scene, 102.4, 20e6, seed=11)
        b, _ = gen_jamming_scene(scene, 102.4, 20e6, seed=11)
        assert np.array_equal(a.samples, b.samples)


class TestIqSignal:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="at least one"):
            IqSignal(np.array([], dtype=complex), 1e6)
        with pytest.raises(ValueError, match="finite"):
            IqSignal(np.array([1.0, np.inf]), 1e6)
        with pytest.raises(ValueError, match="sample_rate"):
            IqSignal(np.ones(4, dtype=complex), 0.0)

    def test_duration(self):
        sig = IqSignal(np.ones(2000, dtype=complex), 1e6)
        assert sig.duration_s == 2e-3

    def test_samples_c_contiguous_and_hash_like_their_bytes(self):
        strided = (np.arange(16) + 1j * np.arange(16))[::2]
        sig = IqSignal(strided, 1e6)
        assert sig.samples.flags.c_contiguous
        assert hashlib.sha256(sig.samples).digest() == hashlib.sha256(strided.tobytes()).digest()
