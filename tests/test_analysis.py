"""Tests for sparsity reports and the rational-rate appendix identities."""

import numpy as np
import pytest

import wavelab as wl
from wavelab.exceptions import ConfigError

from oracles import build_precoder, rect_window_entry, slow_dft, sparsity_profile


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


class TestDecimationIdentity:
    def test_unit_denominator_exact(self):
        for a in (-4, 1, 3):
            assert wl.verify_decimation_identity(8, a, 1) < 1e-12

    @pytest.mark.parametrize("n,a,b", [(8, 1, 2), (12, 3, 4), (10, 1, 10), (9, 1, 3),
                                       (12, -3, 4), (16, -1, 2)])
    def test_rational_rates(self, n, a, b):
        assert wl.verify_decimation_identity(n, a, b) < 1e-10

    def test_unreduced_rate(self):
        # the identity holds for any a/b: lowest terms only keep bN small
        assert wl.verify_decimation_identity(8, 2, 4) < 1e-10

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

    @pytest.mark.parametrize("n,b", [(8, 1), (4, 2), (12, 3)])
    def test_decimation_leaves_an_impulse(self, n, b):
        # the zero-rate case of the decimation identity: every b-th sample of
        # the window's spectrum vanishes but the first, sqrt(N) once scaled
        expected = np.zeros(n)
        expected[0] = np.sqrt(n)
        assert np.abs(wl.rect_window_spectrum(n, b)[::b] * np.sqrt(b) - expected).max() < 1e-12

    @pytest.mark.parametrize("n,b", [(1, 1), (8, 1), (4, 2), (12, 3), (7, 13)])
    def test_equals_the_per_index_form(self, n, b):
        # the array computes each entry with the scalar form's arithmetic, bit for bit
        closed = wl.rect_window_spectrum(n, b)
        assert closed.tobytes() == np.array([rect_window_entry(n, b, u)
                                             for u in range(b * n)]).tobytes()


class TestDensityClaim:
    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_rational_rates_are_dense(self, n, b):
        q_inv = build_precoder(wl.WaveformConfig.afdm(n, 1.0 / b)).Q_inv
        assert sparsity_profile(q_inv, tol=1e-9).density > 0.9

    @pytest.mark.parametrize("n", [8, 64, 120])
    def test_negative_integer_rate_observed_comb(self, n):
        # regression record: negative integer rates with n/|q| integer show
        # the same evenly spaced comb as positive ones in this artifact
        col = wl.afdm_inverse_column(n, -4.0)
        support = np.flatnonzero(np.abs(col) > 1e-9 * np.abs(col).max())
        assert support.size == n // 4
        assert (np.diff(support) == 4).all()
