"""Tests for sparsity reports and the rational-chirp spectrum identities."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavelab as wl
from wavelab.exceptions import ConfigError, DimensionError

from oracles import (RationalChirp, build_precoder, chirp_spectrum, rational_chirp_decompose,
                     rect_window_entry, sparsity_profile)


def slow_dft(n):
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = cmath.exp(-2j * cmath.pi * j * k / n) / cmath.sqrt(n)
    return out


class TestSparsityProfile:
    def test_identity(self):
        report = sparsity_profile(np.eye(8))
        assert (report.row_counts == 1).all()
        assert report.density == pytest.approx(1 / 8)

    def test_otfs_rows(self):
        q_inv = build_precoder(wl.WaveformConfig.otfs(4, 4)).Q_inv
        report = sparsity_profile(q_inv)
        assert (report.row_counts == 4).all()

    @pytest.mark.parametrize("k,l", [(2, 8), (4, 4), (8, 2), (12, 10)])
    def test_otfs_density_is_k_over_n(self, k, l):
        q_inv = build_precoder(wl.WaveformConfig.otfs(k, l)).Q_inv
        assert sparsity_profile(q_inv).density == pytest.approx(k / (k * l))

    def test_afdm_half_rate_dense(self):
        q_inv = build_precoder(wl.WaveformConfig.afdm(16, 0.5)).Q_inv
        assert sparsity_profile(q_inv).density == 1.0

    def test_afdm_generic_rate_dense(self):
        q_inv = build_precoder(wl.WaveformConfig.afdm(64, -4.0 + 0.01)).Q_inv
        assert sparsity_profile(q_inv).density == 1.0

    def test_invalid_tolerance(self):
        with pytest.raises(ConfigError):
            sparsity_profile(np.eye(4), tol=0.0)


class TestRationalChirp:
    @pytest.mark.parametrize(
        "q,a,b", [(-4.0, -4, 1), (0.5, 1, 2), (0.1, 1, 10), (0.75, 3, 4)]
    )
    def test_known_values(self, q, a, b):
        chirp = rational_chirp_decompose(q)
        assert (chirp.a, chirp.b) == (a, b)
        assert chirp.error <= 1e-9

    def test_smallest_denominator_against_scan(self):
        # brute-force oracle at a loose tolerance
        for target, tol in ((np.pi, 1e-3), (0.47, 1e-2), (-1.618, 1e-3)):
            chirp = rational_chirp_decompose(target, tol)
            assert abs(target - chirp.a / chirp.b) <= tol
            for b in range(1, chirp.b):
                a = round(target * b)
                assert abs(target - a / b) > tol, (target, a, b)

    def test_gcd_reduction_enforced(self):
        chirp = rational_chirp_decompose(0.25, 1e-6)
        assert (chirp.a, chirp.b) == (1, 4)
        with pytest.raises(ConfigError):
            RationalChirp(2, 4, 0.0)

    def test_search_finds_each_small_integer_rate_in_lowest_terms(self):
        # verify-appendix reduces its integer rates a/b with math.gcd; the search agrees
        for a in range(-8, 9):
            for b in range(1, 17):
                g = math.gcd(a, b)
                chirp = rational_chirp_decompose(a / b, tol=1e-12)
                assert (chirp.a, chirp.b) == (a // g, b // g), (a, b)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError):
            rational_chirp_decompose(0.5, 0.0)


class TestDecimationIdentity:
    def test_unit_denominator_exact(self):
        for a in (-4, 1, 3):
            chirp = rational_chirp_decompose(float(a))
            assert wl.verify_decimation_identity(8, chirp.a, chirp.b) < 1e-12

    @pytest.mark.parametrize("n,q", [(8, 0.5), (12, 0.75)])
    def test_rational_rates(self, n, q):
        chirp = rational_chirp_decompose(q)
        assert wl.verify_decimation_identity(n, chirp.a, chirp.b) < 1e-10

    def test_unreduced_rate(self):
        # the identity holds for any a/b: lowest terms only keep bN small
        assert wl.verify_decimation_identity(8, 2, 4) < 1e-10

    def test_expansion_guard(self):
        with pytest.raises(DimensionError):
            wl.verify_decimation_identity(4096, 1, 4096)

    def test_zero_denominator_refused(self):
        with pytest.raises(DimensionError):
            wl.verify_decimation_identity(8, 1, 0)

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("a", [1, 3])
    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_circulant_product_factorization(self, n, a, b):
        # decimated product of the two circulant factors, built densely
        # from a loop DFT; bN/sqrt(N) bridges the matrix-element scale to
        # the Gauss-sum column convention
        bn = b * n
        f = slow_dft(bn)
        k = np.arange(bn)
        chirp_factor = f @ np.diag(np.exp(-1j * np.pi * a * k**2 / bn)) @ f.conj().T
        window_factor = f @ np.diag((k < n).astype(float)) @ f.conj().T
        product_col = (chirp_factor @ window_factor)[::b, 0]
        expected = wl.afdm_inverse_column(n, a / b)
        assert np.abs(product_col * (bn / np.sqrt(n)) - expected).max() < 1e-9


class TestRectWindowSpectrum:
    def test_dc_value(self):
        assert wl.rect_window_spectrum(4, 2)[0] == pytest.approx(np.sqrt(4 / 2))

    def test_dirichlet_zero(self):
        assert abs(wl.rect_window_spectrum(4, 2)[2]) < 1e-12

    @pytest.mark.parametrize("n,b", [(8, 1), (4, 2), (8, 2), (12, 3), (1024, 1024)])
    def test_direct_dft_oracle(self, n, b):
        bn = b * n
        window = (np.arange(bn) < n).astype(float)
        direct = np.fft.fft(window, norm="ortho")
        closed = wl.rect_window_spectrum(n, b)
        assert np.abs(direct - closed).max() < 1e-10

    @pytest.mark.parametrize("n,b", [(1, 1), (8, 1), (4, 2), (12, 3), (7, 13)])
    def test_equals_the_per_index_form(self, n, b):
        # the array computes each entry with the scalar form's arithmetic, bit for bit
        closed = wl.rect_window_spectrum(n, b)
        assert closed.tobytes() == np.array([rect_window_entry(n, b, u)
                                             for u in range(b * n)]).tobytes()


class TestChirpSpectrum:
    def test_zero_rate_is_impulse(self):
        assert chirp_spectrum(4, 2, 0, 0) == pytest.approx(np.sqrt(8))
        for u in range(1, 8):
            assert abs(chirp_spectrum(4, 2, 0, u)) < 1e-12

    def test_integer_rate_comb(self):
        # b = 1 with N/a integer: N/a evenly spaced nonzeros
        n, a = 8, 4
        values = np.array([chirp_spectrum(n, 1, a, u) for u in range(n)])
        support = np.flatnonzero(np.abs(values) > 1e-9 * np.abs(values).max())
        assert support.tolist() == [0, 4]

    def test_reverse_summation_oracle(self):
        n, b, a = 8, 2, 1
        bn = b * n
        for u in range(bn):
            acc = 0j
            for k in reversed(range(bn)):
                acc += cmath.exp(-1j * cmath.pi * a * k * k / bn) * cmath.exp(
                    -2j * cmath.pi * k * u / bn
                )
            expected = acc / cmath.sqrt(bn)
            assert abs(chirp_spectrum(n, b, a, u) - expected) < 1e-12

    def test_index_error(self):
        with pytest.raises(IndexError):
            chirp_spectrum(8, 2, 1, 16)


class TestDensityClaim:
    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_rational_rates_are_dense(self, n, b):
        q_inv = build_precoder(wl.WaveformConfig.afdm(n, 1.0 / b)).Q_inv
        assert sparsity_profile(q_inv, tol=1e-9).density > 0.9

    def test_rational_approximation_of_float_rate(self):
        # Fraction(1/3 as float) reduces to a denominator-3 fraction
        chirp = rational_chirp_decompose(1 / 3, 1e-9)
        assert (chirp.a, chirp.b) == (1, 3)

    @pytest.mark.parametrize("n", [8, 64, 120])
    def test_negative_integer_rate_observed_comb(self, n):
        # regression record: negative integer rates with n/|q| integer show
        # the same evenly spaced comb as positive ones in this artifact
        col = wl.afdm_inverse_column(n, -4.0)
        support = np.flatnonzero(np.abs(col) > 1e-9 * np.abs(col).max())
        assert support.size == n // 4
        assert (np.diff(support) == 4).all()
