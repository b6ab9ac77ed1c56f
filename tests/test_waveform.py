"""Tests for the precoder algebra and the precode/receive operators."""

import cmath
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavelab as wl
from wavelab.exceptions import ConfigError, DimensionError
from wavelab.waveform import afdm_inverse_column, chirp_diagonal

from oracles import build_precoder, dft_matrix, otfs_inverse_entry, otfs_inverse_matrix


def slow_dft(n):
    """Loop-built unitary DFT matrix, independent of the library path."""
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = cmath.exp(-2j * cmath.pi * j * k / n) / cmath.sqrt(n)
    return out


def random_qam_like(rng, n):
    return (rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)).astype(complex)


ALL_KINDS = [
    wl.WaveformConfig.ofdm(16),
    wl.WaveformConfig.otfs(4, 4),
    wl.WaveformConfig.afdm(16, -4.0, 0.1),
]


class TestConfig:
    @pytest.mark.parametrize("call,error,match", [
        (lambda: wl.WaveformConfig("otfs", 12, K=0, L=12), ConfigError,
         "OTFS requires positive grid dimensions"),
        (lambda: afdm_inverse_column(0, 0.5), DimensionError, "column length must be >= 1"),
    ], ids=["otfs-k", "column"])
    def test_library_refusals(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_otfs_grid_must_match_n(self):
        with pytest.raises(ConfigError, match=r"'n' = 16 is not the OTFS grid size k\*l = 12"):
            wl.WaveformConfig("otfs", 16, K=3, L=4)

    def test_positive_n_required(self):
        with pytest.raises(ConfigError):
            wl.WaveformConfig.ofdm(0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="'kind' = 'dft-s-ofdm' is not one of"):
            wl.WaveformConfig("dft-s-ofdm", 16)

    @pytest.mark.parametrize("n", [1, 2, 16, 1024])
    def test_chirp_rate_refused_where_the_phase_overflows(self, n):
        def accepted(rate):
            try:
                wl.WaveformConfig.afdm(n, rate, -rate)
            except ConfigError:
                return False
            return True

        # bisect the bit patterns of positive floats, which sort as the floats do
        lo, hi = np.array([1.0, np.finfo(float).max]).view(np.int64).tolist()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(np.array([mid]).view(np.float64)[0]) else (lo, mid)
        largest, smallest_refused = np.array([lo, hi]).view(np.float64).tolist()
        assert smallest_refused == math.nextafter(largest, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for rate in (largest, -largest):
                assert np.isfinite(chirp_diagonal(n, rate)).all()
                assert np.isfinite(afdm_inverse_column(n, rate)).all()
        with np.errstate(all="ignore"):
            assert not np.isfinite(chirp_diagonal(n, smallest_refused)).all()
        with pytest.raises(ConfigError, match="'alpha'"):
            wl.WaveformConfig.afdm(n, 1.0, smallest_refused)

    def test_labels(self):
        assert wl.WaveformConfig.ofdm(8).label == "OFDM"
        assert wl.WaveformConfig.otfs(2, 4).label == "OTFS (L=4)"
        assert wl.WaveformConfig.afdm(8, -4).label == "AFDM (q=-4)"


class TestDftMatrix:
    def test_single_point(self):
        assert_allclose(dft_matrix(1), [[1.0]])

    def test_two_point(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert_allclose(dft_matrix(2), expected, atol=1e-15)

    def test_unitary_n8(self):
        f = dft_matrix(8)
        assert np.abs(f @ f.conj().T - np.eye(8)).max() < 1e-12

    def test_matches_slow_oracle(self):
        assert_allclose(dft_matrix(12), slow_dft(12), atol=1e-12)

    def test_zero_size_rejected(self):
        with pytest.raises(DimensionError):
            dft_matrix(0)


class TestBuildPrecoder:
    def test_ofdm_is_identity(self):
        p = build_precoder(wl.WaveformConfig.ofdm(4))
        assert_allclose(p.Q, np.eye(4))
        assert_allclose(p.Q_inv, np.eye(4))

    def test_afdm_zero_rates_is_identity(self):
        p = build_precoder(wl.WaveformConfig.afdm(4, 0.0, 0.0))
        assert np.abs(p.Q - np.eye(4)).max() < 1e-12

    def test_otfs_2x2_against_brute_force(self):
        p = build_precoder(wl.WaveformConfig.otfs(2, 2))
        f4, f2 = slow_dft(4), slow_dft(2)
        expected = f4 @ np.kron(f2.conj().T, np.eye(2))
        assert np.abs(p.Q - expected).max() < 1e-12

    def test_otfs_l_equals_n_is_ofdm(self):
        p = build_precoder(wl.WaveformConfig.otfs(1, 8))
        assert np.abs(p.Q - np.eye(8)).max() < 1e-10

    def test_dense_size_guard(self):
        with pytest.raises(ConfigError):
            build_precoder(wl.WaveformConfig.ofdm(8192))

    @pytest.mark.parametrize("cfg", ALL_KINDS, ids=lambda c: c.slug)
    def test_unitarity_and_inverse(self, cfg):
        p = build_precoder(cfg)
        n = cfg.N
        assert np.abs(p.Q.conj().T @ p.Q - np.eye(n)).max() < 1e-10
        assert np.abs(p.Q_inv - p.Q.conj().T).max() < 1e-10


class TestModulateDemodulate:
    def test_ofdm_impulse_spreads_flat(self):
        n = 8
        c = np.zeros(n, complex)
        c[0] = 1.0
        x = np.fft.ifft(wl.WaveformConfig.ofdm(n).precode(c), norm="ortho")
        assert_allclose(x, np.full(n, 1 / np.sqrt(n), dtype=complex), atol=1e-12)

    def test_afdm_single_symbol_is_chirp(self):
        n = 8
        cfg = wl.WaveformConfig.afdm(n, 1.5, 0.3)
        c = np.zeros(n, complex)
        c[0] = 1.0
        x = np.fft.ifft(cfg.precode(c), norm="ortho")
        k = np.arange(n)
        assert_allclose(x, np.exp(1j * np.pi * 1.5 * k**2 / n) / np.sqrt(n), atol=1e-12)
        assert_allclose(np.abs(x), np.full(n, 1 / np.sqrt(n)), atol=1e-12)

    def test_otfs_l1_is_single_carrier(self):
        rng = np.random.default_rng(0)
        c = random_qam_like(rng, 16)
        x = np.fft.ifft(wl.WaveformConfig.otfs(16, 1).precode(c), norm="ortho")
        assert_allclose(x, c, atol=1e-12)

    @pytest.mark.parametrize("cfg", ALL_KINDS, ids=lambda c: c.slug)
    def test_energy_preserved(self, cfg):
        rng = np.random.default_rng(1)
        c = random_qam_like(rng, cfg.N)
        x = np.fft.ifft(cfg.precode(c), norm="ortho")
        assert abs(np.linalg.norm(x) - np.linalg.norm(c)) < 1e-10

    @pytest.mark.parametrize("cfg", ALL_KINDS, ids=lambda c: c.slug)
    def test_precode_demodulate_roundtrip(self, cfg):
        rng = np.random.default_rng(2)
        c = random_qam_like(rng, cfg.N)
        z = cfg.precode(c)
        back = cfg.receive(z)
        assert np.abs(back - c).max() < 1e-10

    def test_ofdm_demodulate_is_passthrough(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = wl.WaveformConfig.ofdm(8).receive(r)
        assert_allclose(out, r)

    @pytest.mark.parametrize("cfg", ALL_KINDS, ids=lambda c: c.slug)
    def test_demodulation_preserves_noise_norm(self, cfg):
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N)
        out = cfg.receive(noise)
        # direct norm computation as the oracle
        direct = np.sqrt(sum(abs(z) ** 2 for z in noise))
        assert abs(np.linalg.norm(out) - direct) < 1e-10

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            wl.WaveformConfig.ofdm(8).precode(np.ones(7, complex))


class TestOtfsInverse:
    def test_2x2_entries(self):
        assert otfs_inverse_entry(0, 0, 2, 2) == pytest.approx(1 / np.sqrt(2))
        assert otfs_inverse_entry(0, 1, 2, 2) == 0
        assert otfs_inverse_entry(1, 2, 2, 2) == pytest.approx(-1 / np.sqrt(2))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            otfs_inverse_entry(4, 0, 2, 2)

    @pytest.mark.parametrize("k,l", [(2, 2), (4, 4), (3, 5)])
    def test_against_brute_force_product(self, k, l):
        n = k * l
        brute = np.kron(slow_dft(l), np.eye(k)) @ slow_dft(n).conj().T
        closed = np.array(
            [[otfs_inverse_entry(u, v, k, l) for v in range(n)] for u in range(n)]
        )
        assert np.abs(brute - closed).max() < 1e-10

    @pytest.mark.parametrize("k,l", [(2, 2), (8, 8), (12, 10)])
    def test_row_structure(self, k, l):
        n = k * l
        m = otfs_inverse_matrix(k, l)
        nonzero = np.abs(m) > 1e-12
        assert (nonzero.sum(axis=1) == k).all()
        mags = np.abs(m[nonzero])
        assert_allclose(mags, np.sqrt(l / n), atol=1e-12)
        assert_allclose((np.abs(m) ** 2).sum(axis=1), 1.0, atol=1e-12)


class TestAfdmInverseColumn:
    def test_zero_rate_is_scaled_impulse(self):
        col = wl.afdm_inverse_column(8, 0.0)
        expected = np.zeros(8, complex)
        expected[0] = np.sqrt(8)
        assert_allclose(col, expected, atol=1e-12)

    def test_integer_rate_comb(self):
        # q and N/q integers: exactly N/q nonzeros, evenly spaced
        col = wl.afdm_inverse_column(8, 4.0)
        support = np.flatnonzero(np.abs(col) > 1e-9 * np.abs(col).max())
        assert support.tolist() == [0, 4]

    def test_half_rate_is_dense(self):
        col = wl.afdm_inverse_column(8, 0.5)
        assert (np.abs(col) > 1e-6).all()

    @pytest.mark.parametrize("n,q", [(8, 0.5), (12, -4.0), (16, 0.37)])
    def test_direct_summation_oracle(self, n, q):
        expected = np.empty(n, complex)
        for u in range(n):
            acc = 0j
            for k in range(n):
                acc += cmath.exp(-1j * cmath.pi * q * k * k / n) * cmath.exp(
                    -2j * cmath.pi * k * u / n
                )
            expected[u] = acc / cmath.sqrt(n)
        assert_allclose(wl.afdm_inverse_column(n, q), expected, atol=1e-12)

    def test_matches_circulant_factor_first_column(self):
        # column convention carries 1/sqrt(N); the matrix element carries 1/N
        n, q = 12, -4.0
        f = slow_dft(n)
        lam_q = np.diag(np.exp(1j * np.pi * q * np.arange(n) ** 2 / n))
        circulant = f @ lam_q.conj().T @ f.conj().T
        assert_allclose(
            np.sqrt(n) * circulant[:, 0], wl.afdm_inverse_column(n, q), atol=1e-10
        )


class TestStructuralInvariants:
    def test_afdm_inverse_factorization(self):
        cfg = wl.WaveformConfig.afdm(16, -4.0, 0.1)
        p = build_precoder(cfg)
        n = 16
        f = slow_dft(n)
        lam_q = np.diag(np.exp(1j * np.pi * cfg.q * np.arange(n) ** 2 / n))
        lam_a = np.diag(np.exp(1j * np.pi * cfg.alpha * np.arange(n) ** 2 / n))
        brute = np.linalg.inv(f @ lam_q @ f.conj().T @ lam_a)
        assert np.abs(p.Q_inv - brute).max() < 1e-10

    def test_reduction_chain(self):
        assert np.abs(
            build_precoder(wl.WaveformConfig.afdm(16, 0.0, 0.0)).Q - np.eye(16)
        ).max() < 1e-10
        assert np.abs(
            build_precoder(wl.WaveformConfig.otfs(1, 16)).Q - np.eye(16)
        ).max() < 1e-10
        assert np.abs(
            build_precoder(wl.WaveformConfig.otfs(16, 1)).Q - dft_matrix(16)
        ).max() < 1e-10

    @pytest.mark.parametrize("n", [4, 12, 16, 64])
    def test_identity_channel_roundtrip(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, n * 4, dtype=np.uint8)
        c = wl.qam_map(wl.qam_label(bits, 16), 16)
        configs = [wl.WaveformConfig.ofdm(n), wl.WaveformConfig.afdm(n, -4.0, 0.1)]
        for l in (2, n // 2):
            if n % l == 0:
                configs.append(wl.WaveformConfig.otfs(n // l, l))
        for cfg in configs:
            x = np.fft.ifft(cfg.precode(c), norm="ortho")
            r_f = np.fft.fft(x, norm="ortho")
            back = cfg.receive(r_f)
            assert np.abs(back - c).max() < 1e-10

    @pytest.mark.parametrize("n", [16, 64, 120, 256])
    def test_dense_and_operator_paths_agree(self, n):
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for cfg in (
            wl.WaveformConfig.otfs(n // 4, 4),
            wl.WaveformConfig.afdm(n, -4.0, 0.1),
            wl.WaveformConfig.afdm(n, 0.37, 0.0),
        ):
            p = build_precoder(cfg)
            assert np.abs(p.Q @ c - cfg.precode(c)).max() < 1e-9
            assert np.abs(p.Q_inv @ c - cfg.receive(c)).max() < 1e-9
