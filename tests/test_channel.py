"""Tests for channel construction, randomization, and equalizers."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavelab as wl
from wavelab.exceptions import ConfigError, EqualizationError

from oracles import build_channel, dft_matrix, mmse_equalizer, to_frequency, zf_equalizer


def taps_of(channel, rng=None):
    """(delays, gains, dopplers) of one draw: the arrays ``build_channel``
    takes. A fixed tap list draws nothing from ``rng``."""
    gains, dopplers = channel.draw([rng])
    return channel.delays, gains[0], dopplers[0]


def random_channel_matrix(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return h / np.sqrt(n)


class TestBuildChannel:
    def test_single_flat_tap_is_identity(self):
        spec = wl.ChannelSpec([0], [1.0 + 0j], [0.0])
        assert_allclose(build_channel(*taps_of(spec), 6), np.eye(6))

    def test_unit_delay_is_cyclic_shift(self):
        spec = wl.ChannelSpec([1], [1.0 + 0j], [0.0])
        h = build_channel(*taps_of(spec), 4)
        shift = np.roll(np.eye(4), 1, axis=0)
        assert_allclose(h, shift)
        # DFT-diagonalization oracle on the circulant shift
        diag = to_frequency(h)
        expected = np.diag(np.exp(-2j * np.pi * np.arange(4) / 4))
        assert np.abs(diag - expected).max() < 1e-12

    def test_two_taps_with_doppler_elementwise(self):
        n = 6
        taps = ([0, 2], [0.8 - 0.1j, 0.3 + 0.4j], [0.0, 0.3])
        spec = wl.ChannelSpec(*taps)
        h = build_channel(*taps_of(spec), n)
        # independent elementwise construction
        expected = np.zeros((n, n), complex)
        for delay, gain, doppler in zip(*taps):
            for row in range(n):
                expected[row, (row - delay) % n] += gain * np.exp(
                    2j * np.pi * doppler * row / n
                )
        assert_allclose(h, expected, atol=1e-14)

    def test_delay_beyond_block_rejected(self):
        spec = wl.ChannelSpec([4], [1.0 + 0j], [0.0])
        with pytest.raises(ConfigError):
            build_channel(*taps_of(spec), 4)


class TestChannelSpec:
    TOP = wl.channel.MAX_DOPPLER

    def test_holds_read_only_arrays(self):
        spec = wl.ChannelSpec([0, 3], [0.5, 0.2j], [-self.TOP, 0.1])
        assert spec.delays.dtype.kind == "i" and spec.gains.dtype == complex
        assert spec.max_doppler == self.TOP
        for array in (spec.delays, spec.gains, spec.dopplers):
            assert not array.flags.writeable
        assert spec.describe() == {"taps": [[0, 0.5, 0.0, -self.TOP], [3, 0.0, 0.2, 0.1]]}


class TestRandomChannel:
    def test_zero_max_doppler_gives_static_taps(self):
        delays, _, dopplers = taps_of(wl.ChannelGenerator(num_taps=6), np.random.default_rng(0))
        assert all(doppler == 0.0 for doppler in dopplers)
        assert delays.tolist() == list(range(6))

    def test_power_normalization(self):
        # Monte-Carlo check of E sum|h_l|^2 = 1
        rng = np.random.default_rng(11)
        gen = wl.ChannelGenerator(num_taps=8)
        gains, _ = gen.draw([rng] * 10_000)
        assert 0.97 <= np.mean(np.sum(np.abs(gains) ** 2, axis=1)) <= 1.03

    def test_fixed_seed_reproducible(self):
        gen = wl.ChannelGenerator(num_taps=4, max_doppler=0.3)
        a = gen.draw([np.random.default_rng(42)])
        b = gen.draw([np.random.default_rng(42)])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_draw_keeps_the_two_call_stream(self):
        # one standard_normal(2P) call gives the values of two P-draws: the stream the
        # frozen counts rest on
        gains, dopplers = wl.ChannelGenerator(num_taps=5, max_doppler=0.3).draw(
            [np.random.default_rng(42)])
        rng = np.random.default_rng(42)
        expected = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / np.sqrt(10)
        assert np.array_equal(gains, [expected])
        assert np.array_equal(dopplers, [rng.uniform(-0.3, 0.3, 5)])

    @pytest.mark.parametrize("max_doppler", [0.3, 0.0])
    def test_chunk_rows_are_the_per_frame_formula(self, max_doppler):
        # one row per generator, each the one-frame formula on that generator's
        # stream (max_doppler 0 still takes its uniform draw); a generator listed
        # k times gives k consecutive draws
        def streams():
            return [np.random.default_rng(s) for s in (3, 1, 4)] + [np.random.default_rng(42)] * 3

        gen = wl.ChannelGenerator(num_taps=6, max_doppler=max_doppler)
        gains, dopplers = gen.draw(streams())
        assert gains.shape == dopplers.shape == (6, 6)
        for f, rng in enumerate(streams()):
            real, imag = rng.standard_normal(12).reshape(2, 6)
            assert np.array_equal(gains[f], (real + 1j * imag) / np.sqrt(12))
            assert np.array_equal(dopplers[f], rng.uniform(-max_doppler, max_doppler, 6))

    def test_fixed_taps_repeat_per_generator(self):
        spec = wl.ChannelSpec([0, 2], [0.8 + 0.1j, -0.2j], [0.0, 0.3])
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        gains, dopplers = spec.draw([rng] * 4)
        assert np.array_equal(gains, [[0.8 + 0.1j, -0.2j]] * 4)
        assert np.array_equal(dopplers, [[0.0, 0.3]] * 4)
        assert rng.bit_generator.state == state  # draws nothing

    def test_doppler_bounded(self):
        gen = wl.ChannelGenerator(num_taps=8, max_doppler=0.3)
        _, dopplers = gen.draw([np.random.default_rng(3)] * 50)
        assert np.abs(dopplers).max() <= 0.3


class TestZfEqualizer:
    def test_identity(self):
        g = zf_equalizer(np.eye(4, dtype=complex))
        assert_allclose(g, np.eye(4))
        assert_allclose(to_frequency(g), np.eye(4), atol=1e-12)

    def test_unitary_channel(self):
        f = dft_matrix(8)
        g = zf_equalizer(f)
        assert np.abs(g - f.conj().T).max() < 1e-10

    def test_random_channel_residual(self):
        rng = np.random.default_rng(5)
        h = random_channel_matrix(rng, 16)
        g = zf_equalizer(h)
        assert np.abs(g @ h - np.eye(16)).max() < 1e-8

    def test_singular_channel_refused_with_condition(self):
        h = np.eye(4, dtype=complex)
        h[0, 0] = 0.0
        with pytest.raises(EqualizationError) as err:
            zf_equalizer(h)
        condition = float(re.search(r"condition number (\S+) exceeds", str(err.value))[1])
        assert condition > 1e12 or not np.isfinite(condition)


class TestMmseEqualizer:
    def test_identity_with_unit_rho(self):
        g = mmse_equalizer(np.eye(4, dtype=complex), 1.0)
        assert_allclose(g, np.eye(4) / 2, atol=1e-12)

    def test_zero_rho_reduces_to_zf(self):
        rng = np.random.default_rng(6)
        h = random_channel_matrix(rng, 8)
        assert np.abs(mmse_equalizer(h, 0.0) - zf_equalizer(h)).max() < 1e-10

    def test_negative_rho_rejected(self):
        with pytest.raises(ConfigError):
            mmse_equalizer(np.eye(2, dtype=complex), -0.5)

    def test_quasi_static_channel_per_bin_oracle(self):
        rng = np.random.default_rng(7)
        taps = taps_of(wl.ChannelGenerator(num_taps=4), rng)
        n, rho = 16, 0.05
        h = build_channel(*taps, n)
        g_f = to_frequency(mmse_equalizer(h, rho))
        h_f = np.diag(to_frequency(h))
        per_bin = h_f.conj() / (np.abs(h_f) ** 2 + rho)
        off_diag = g_f - np.diag(np.diag(g_f))
        assert np.abs(off_diag).max() < 1e-10
        assert np.abs(np.diag(g_f) - per_bin).max() < 1e-10


class TestFrequencyTransform:
    def test_identity(self):
        assert_allclose(to_frequency(np.eye(5)), np.eye(5), atol=1e-12)

    def test_circulant_diagonalizes(self):
        rng = np.random.default_rng(8)
        col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        circ = np.zeros((8, 8), complex)
        for i in range(8):
            circ[:, i] = np.roll(col, i)
        diag = to_frequency(circ)
        assert np.abs(diag - np.diag(np.diag(diag))).max() < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g_f = to_frequency(g)
        f = dft_matrix(6)
        assert np.abs(f.conj().T @ g_f @ f - g).max() < 1e-10


class TestDispersionInvariants:
    def test_zero_doppler_is_circulant(self):
        rng = np.random.default_rng(10)
        taps = taps_of(wl.ChannelGenerator(num_taps=8), rng)
        h_f = to_frequency(build_channel(*taps, 32))
        off = h_f - np.diag(np.diag(h_f))
        assert np.abs(off).max() < 1e-10

    def test_fractional_doppler_breaks_circulance(self):
        spec = wl.ChannelSpec([0, 1], [1.0 + 0j, 0.5 + 0j], [0.0, 0.3])
        h_f = to_frequency(build_channel(*taps_of(spec), 16))
        off = h_f - np.diag(np.diag(h_f))
        assert np.abs(off).max() > 1e-6

    def test_zf_equalizes_end_to_end(self):
        rng = np.random.default_rng(12)
        taps = taps_of(wl.ChannelGenerator(num_taps=6, max_doppler=0.3), rng)
        n = 24
        h = build_channel(*taps, n)
        g_f = to_frequency(zf_equalizer(h))
        f = dft_matrix(n)
        end_to_end = g_f @ f @ h @ f.conj().T
        assert np.abs(end_to_end - np.eye(n)).max() < 1e-8
