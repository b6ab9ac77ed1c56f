"""Tests for multi-waveform FDMA: BlockLayout precode and receive."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavelab as wl
from wavelab.exceptions import ConfigError, DimensionError

from oracles import build_precoder, demod_noise_variance


def mixed_layout():
    return wl.BlockLayout(
        [
            wl.WaveformConfig.ofdm(12),
            wl.WaveformConfig.afdm(12, -4.0, 0.1),
            wl.WaveformConfig.otfs(4, 3),
            wl.WaveformConfig.otfs(3, 4),
        ]
    )


def roundtrip(layout, blocks):
    """Per-block data recovered over an identity channel."""
    x = np.fft.ifft(layout.precode(np.concatenate(blocks)), norm="ortho")
    recovered = layout.receive(np.fft.fft(x, norm="ortho"))
    return [recovered[b.start : b.stop] for b in layout.blocks]


def random_blocks(layout, seed=0):
    rng = np.random.default_rng(seed)
    widths = [b.stop - b.start for b in layout.blocks]
    return [(rng.standard_normal(w) + 1j * rng.standard_normal(w)) / np.sqrt(2) for w in widths]


class TestLayout:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            wl.BlockLayout(())

    def test_total_width(self):
        assert mixed_layout().N == 48


class TestCompose:
    def test_single_block_equals_modulate(self):
        cfg = wl.WaveformConfig.afdm(16, -4.0, 0.1)
        layout = wl.BlockLayout([cfg])
        rng = np.random.default_rng(1)
        c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert_allclose(
            np.fft.ifft(layout.precode(c), norm="ortho"),
            np.fft.ifft(cfg.precode(c), norm="ortho"),
            atol=1e-12,
        )

    def test_two_ofdm_halves_equal_full_ofdm(self):
        n = 16
        layout = wl.BlockLayout(
            [wl.WaveformConfig.ofdm(n // 2), wl.WaveformConfig.ofdm(n // 2)]
        )
        rng = np.random.default_rng(2)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        combined = np.fft.ifft(layout.precode(c), norm="ortho")
        direct = np.fft.ifft(wl.WaveformConfig.ofdm(n).precode(c), norm="ortho")
        assert_allclose(combined, direct, atol=1e-12)

    def test_afdm_block_energy_confined(self):
        layout = wl.BlockLayout(
            [wl.WaveformConfig.ofdm(12), wl.WaveformConfig.afdm(12, -4.0, 0.1)]
        )
        data = [np.zeros(12, complex), random_blocks(layout, 3)[1]]
        x = np.fft.ifft(layout.precode(np.concatenate(data)), norm="ortho")
        spectrum = np.abs(np.fft.fft(x, norm="ortho")) ** 2
        outside = spectrum[:12].sum()
        assert outside < 1e-20 * spectrum.sum()

    def test_block_length_mismatch(self):
        # a stack whose last axis is not the layout's N, short or long
        layout = mixed_layout()
        for width in (12, layout.N - 1, layout.N + 1):
            with pytest.raises(DimensionError):
                layout.precode(np.zeros((3, width), complex))
            with pytest.raises(DimensionError):
                layout.receive(np.zeros((3, width), complex))


class TestDecompose:
    def test_mixed_roundtrip(self):
        layout = mixed_layout()
        data = random_blocks(layout, 4)
        recovered = roundtrip(layout, data)
        for sent, got in zip(data, recovered):
            assert np.abs(got - sent).max() < 1e-10

    def test_narrowband_blocks_roundtrip(self):
        # 12-bin resource blocks
        layout = wl.BlockLayout(
            [
                wl.WaveformConfig.afdm(12, -4.0, 0.1),
                wl.WaveformConfig.otfs(6, 2),
                wl.WaveformConfig.ofdm(12),
            ]
        )
        data = random_blocks(layout, 5)
        recovered = roundtrip(layout, data)
        for sent, got in zip(data, recovered):
            assert np.abs(got - sent).max() < 1e-10

    def test_cross_block_leakage(self):
        layout = mixed_layout()
        data = random_blocks(layout, 6)
        for active in range(len(layout.blocks)):
            alone = [np.zeros(b.stop - b.start, complex) for b in layout.blocks]
            alone[active] = data[active]
            recovered = roundtrip(layout, alone)
            for i, got in enumerate(recovered):
                if i != active:
                    assert np.abs(got).max() < 1e-12

    def test_per_bin_equalizer_roundtrip(self):
        # zero-forcing on a quasi-static channel with no noise gives the blocks back
        layout = mixed_layout()
        n = layout.N
        rng = np.random.default_rng(7)
        channel = wl.ChannelGenerator(num_taps=4)
        gains, dopplers = channel.draw([rng])
        data = random_blocks(layout, 8)
        z = layout.precode(np.concatenate(data))[None, None]
        refused, (r_f,) = wl.equalize(channel.delays, gains, dopplers, z,
                                      np.zeros((1, n), dtype=complex), 0.0, "zf")
        assert not refused.any()
        recovered = layout.receive(r_f[0])
        for sent, b in zip(data, layout.blocks):
            assert np.abs(recovered[b.start : b.stop] - sent).max() < 1e-8


class TestBlockNoise:
    def test_confined_jammer_leaves_other_blocks_unchanged(self):
        layout = mixed_layout()
        n = layout.N
        flat = np.ones(n)
        jammed = flat.copy()
        target = layout.blocks[1]
        jammed[target.start : target.stop] += 50.0
        for i, sl in enumerate(layout.blocks):
            q_inv = build_precoder(layout.configs[i]).Q_inv
            v_clean = demod_noise_variance(q_inv, flat[sl])
            v_jam = demod_noise_variance(q_inv, jammed[sl])
            if i == 1:
                assert (v_jam > v_clean).all()
            else:
                assert np.array_equal(v_clean, v_jam)

    def test_afdm_block_whitens_better_than_ofdm_block(self):
        # identical impulse shape inside same-width blocks
        width = 12
        local = np.ones(width)
        local[width // 2] += 40.0
        q_ofdm = build_precoder(wl.WaveformConfig.ofdm(width)).Q_inv
        q_afdm = build_precoder(wl.WaveformConfig.afdm(width, -4.0, 0.1)).Q_inv
        s_ofdm = wl.whitening_std(demod_noise_variance(q_ofdm, local))
        s_afdm = wl.whitening_std(demod_noise_variance(q_afdm, local))
        assert s_afdm < s_ofdm

    def test_layout_demod_power_is_each_blocks_over_stacked_rows(self):
        layout = mixed_layout()
        gains = np.random.default_rng(3).exponential(size=(3, 5, layout.N))
        stacked = layout.demod_power(gains)
        q_invs = [build_precoder(wf).Q_inv for wf in layout.configs]
        for row, got in zip(gains.reshape(-1, layout.N), stacked.reshape(-1, layout.N)):
            alone = layout.demod_power(row)
            assert np.array_equal(got, alone)
            for wf, sl, q_inv in zip(layout.configs, layout.blocks, q_invs):
                assert np.array_equal(alone[sl], wf.demod_power(row[sl]))
                dense = demod_noise_variance(q_inv, row[sl])
                assert_allclose(alone[sl], dense, rtol=0, atol=1e-12 * dense.max())

    def test_layout_demod_power_refuses_bad_gains(self):
        layout = mixed_layout()
        with pytest.raises(DimensionError):  # a row past the last block
            layout.demod_power(np.ones(layout.N + 1))
        with pytest.raises(ConfigError):
            layout.demod_power(np.r_[np.ones(layout.N - 1), -1.0])
