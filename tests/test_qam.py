"""Tests for the Gray-coded QAM mapper and hard-decision demapper."""

import itertools

import numpy as np
import pytest

import wavelab as wl
from wavelab.exceptions import ConfigError

from oracles import qam_alphabet


class TestAlphabet:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        alphabet = qam_alphabet(order)
        assert alphabet.size == order
        assert np.mean(np.abs(alphabet) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_all_points_distinct(self, order):
        alphabet = qam_alphabet(order)
        assert len(set(np.round(alphabet, 9))) == order

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_adjacency(self, order):
        # minimum-distance neighbors differ in exactly one bit
        alphabet = qam_alphabet(order)
        distances = np.abs(alphabet[:, None] - alphabet[None, :])
        min_dist = distances[distances > 1e-12].min()
        bits = int(np.log2(order))
        for i, j in itertools.combinations(range(order), 2):
            if abs(distances[i, j] - min_dist) < 1e-9:
                assert bin(i ^ j).count("1") == 1


class TestRoundTrip:
    def test_16qam_exhaustive_four_symbols(self):
        # every 16-bit pattern (all 2^16 four-symbol frames)
        patterns = np.arange(1 << 16, dtype=np.uint32)
        bits = ((patterns[:, None] >> np.arange(15, -1, -1)) & 1).astype(np.uint8)
        flat = bits.reshape(-1)
        symbols = wl.qam_map(flat, 16)
        back = wl.qam_demap(symbols, 16)
        assert np.array_equal(back, flat)

    @pytest.mark.parametrize("order", [4, 64])
    def test_random_roundtrip(self, order):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 6000 * int(np.log2(order)) // 6, dtype=np.uint8)
        usable = bits[: bits.size - bits.size % int(np.log2(order))]
        assert np.array_equal(wl.qam_demap(wl.qam_map(usable, order), order), usable)

    def test_noisy_decisions_clip_to_extremes(self):
        symbols = np.array([10 + 10j, -10 - 10j])
        bits = wl.qam_demap(symbols, 16)
        recon = wl.qam_map(bits, 16)
        alphabet = qam_alphabet(16)
        corner = alphabet[np.argmax(alphabet.real + alphabet.imag)]
        assert recon[0] == pytest.approx(corner)
        assert recon[1] == pytest.approx(-corner)


class TestValidation:
    def test_invalid_order(self):
        with pytest.raises(ConfigError):
            wl.qam_map(np.zeros(6, dtype=np.uint8), 32)

    def test_ragged_bit_count(self):
        with pytest.raises(ConfigError):
            wl.qam_map(np.zeros(7, dtype=np.uint8), 16)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            wl.qam_map(np.zeros(0, dtype=np.uint8), 16)
