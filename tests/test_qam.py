"""Tests for the Gray-coded QAM mapper, the label decision and the error count.

The label decision ``qam_decide`` is checked against the bitwise demapper
``qam_demap`` in ``tests/oracles.py``; Hamming counts on labels against
bit-by-bit comparison.
"""

import itertools

import numpy as np
import pytest

import wavelab as wl
from wavelab.qam import POPCOUNT, energy_scale

from oracles import label_bits, qam_alphabet, qam_demap


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
        symbols = wl.qam_map(wl.qam_label(flat, 16), 16)
        back = qam_demap(symbols, 16)
        assert np.array_equal(back, flat)
        assert np.array_equal(wl.qam_decide(symbols, 16), wl.qam_label(flat, 16))

    @pytest.mark.parametrize("order", [4, 64])
    def test_random_roundtrip(self, order):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 6000 * int(np.log2(order)) // 6, dtype=np.uint8)
        usable = bits[: bits.size - bits.size % int(np.log2(order))]
        labels = wl.qam_label(usable, order)
        assert np.array_equal(qam_demap(wl.qam_map(labels, order), order), usable)
        assert np.array_equal(wl.qam_decide(wl.qam_map(labels, order), order), labels)

    def test_noisy_decisions_clip_to_extremes(self):
        symbols = np.array([10 + 10j, -10 - 10j])
        bits = qam_demap(symbols, 16)
        recon = wl.qam_map(wl.qam_label(bits, 16), 16)
        alphabet = qam_alphabet(16)
        corner = alphabet[np.argmax(alphabet.real + alphabet.imag)]
        assert recon[0] == pytest.approx(corner)
        assert recon[1] == pytest.approx(-corner)


class TestLabelDecision:
    """``qam_decide`` against ``qam_label`` of the bitwise oracle."""

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_random_symbols(self, order):
        rng = np.random.default_rng(order)
        symbols = 1.5 * (rng.standard_normal((7, 60)) + 1j * rng.standard_normal((7, 60)))
        expected = wl.qam_label(qam_demap(symbols, order), order)
        assert np.array_equal(wl.qam_decide(symbols, order), expected)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_points_outside_the_outer_levels_clip(self, order):
        far = np.array([10 + 10j, -10 - 10j, 10 - 0.1j, -0.1 + 1e6j, -1e300 + 3j])
        decided = wl.qam_decide(far, order)
        assert np.array_equal(decided, wl.qam_label(qam_demap(far, order), order))
        alphabet = qam_alphabet(order)
        corner = np.argmax(alphabet.real + alphabet.imag)
        assert decided[0] == corner
        assert alphabet[decided[1]] == -alphabet[corner]

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_half_way_ties_round_half_to_even(self, order):
        # each midpoint between adjacent levels, on both axes; rint takes the even index
        top = int(np.sqrt(order)) - 1
        scale = energy_scale(order)
        mids = (2 * np.arange(top) + 1 - top) * scale
        assert np.array_equal((mids / scale + top) / 2.0, np.arange(top) + 0.5)  # exact ties
        symbols = (mids[:, None] + 1j * mids).reshape(-1)
        decided = wl.qam_decide(symbols, order)
        assert np.array_equal(decided, wl.qam_label(qam_demap(symbols, order), order))
        even = 2 * ((np.arange(top) + 1) // 2)  # rint(k + 0.5)
        gray = even ^ (even >> 1)
        half = int(np.log2(order)) // 2
        assert np.array_equal(decided, ((gray[:, None] << half) | gray).reshape(-1))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_scalar_symbol_gives_a_scalar_label(self, order):
        # qam_map of a 0-d label is 0-d, and so is the decision on it
        for label in range(order):
            decided = wl.qam_decide(wl.qam_map(np.uint8(label), order), order)
            assert decided.shape == () and decided == label

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_stacked_and_strided_symbols(self, order):
        rng = np.random.default_rng(order + 1)
        symbols = rng.standard_normal((3, 5, 24)) + 1j * rng.standard_normal((3, 5, 24))
        for view in (symbols, symbols[:, :, ::3], symbols.transpose(2, 0, 1)):
            expected = wl.qam_label(qam_demap(view, order), order)
            assert np.array_equal(wl.qam_decide(view, order), expected)


class TestHammingCount:
    def test_popcount_table(self):
        assert POPCOUNT.tolist() == [bin(label).count("1") for label in range(64)]

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_label_count_equals_bit_compare(self, order):
        # the engine's per-frame count on a chunk with refused frames
        rng = np.random.default_rng(order)
        tx = rng.integers(0, order, size=(9, 40))
        rx = np.where(rng.random((3, 9, 40)) < 0.3, rng.integers(0, order, (3, 9, 40)), tx)
        kept = np.ones(9, dtype=bool)
        kept[[1, 4, 5]] = False
        labels = POPCOUNT[rx[:, kept] ^ tx[kept]].sum(axis=2)
        bits = np.count_nonzero(
            label_bits(rx, order)[:, kept] != label_bits(tx, order)[kept], axis=2)
        assert labels.shape == (3, 6)
        assert np.array_equal(labels, bits)
        assert labels.sum() > 0

