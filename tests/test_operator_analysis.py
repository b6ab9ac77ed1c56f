"""Operator-form whitening and sparsity against the dense Q^{-1} oracle.

``WaveformConfig.row_magnitudes``/``demod_power`` and ``row_sparsity``
never form Q^{-1}; each is checked here against ``build_precoder(...).Q_inv``
with ``demod_noise_variance`` and ``sparsity_profile`` at N <= 256.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavelab as wl
from wavelab.exceptions import ConfigError, DimensionError

from oracles import build_precoder, demod_noise_variance, sparsity_profile

CONFIGS = [
    wl.WaveformConfig.ofdm(64),
    wl.WaveformConfig.otfs(1, 64),   # K = 1: one nonzero per row
    wl.WaveformConfig.otfs(64, 1),   # L = 1: a full DFT row
    wl.WaveformConfig.otfs(12, 10),
    wl.WaveformConfig.otfs(16, 16),
    *[
        wl.WaveformConfig.afdm(n, q, alpha)
        for n in (64, 96)
        for q in (-4.0, 0.5, 1 / 3, -4.01, n / 2)
        for alpha in (0.0, 0.3)
    ],
    wl.WaveformConfig.afdm(256, 0.5, 0.1),
]


def ident(cfg):
    return f"{cfg.slug}_n{cfg.N}"


@pytest.fixture(scope="module", params=CONFIGS, ids=ident)
def case(request):
    cfg = request.param
    return cfg, build_precoder(cfg).Q_inv


def test_demod_power_matches_dense(case):
    cfg, q_inv = case
    rng = np.random.default_rng(cfg.N)
    for gains in (rng.random(cfg.N), rng.exponential(size=cfg.N) ** 3):
        dense = demod_noise_variance(q_inv, gains)
        # FFT rounding is relative to the largest variance, not to each bin
        assert_allclose(cfg.demod_power(gains), dense, rtol=0, atol=1e-12 * dense.max())


def test_demod_power_over_stacked_rows(case):
    # (..., N) gains: each row bit for bit what it gives alone, and the dense value
    cfg, q_inv = case
    gains = np.random.default_rng(cfg.N).exponential(size=(2, 16, cfg.N))
    stacked = cfg.demod_power(gains)
    assert stacked.shape == gains.shape
    rows = [cfg.demod_power(row) for row in gains.reshape(-1, cfg.N)]
    assert np.array_equal(stacked.reshape(-1, cfg.N), np.array(rows))
    dense = demod_noise_variance(q_inv, gains[1, 3])
    assert_allclose(stacked[1, 3], dense, rtol=0, atol=1e-12 * dense.max())


def test_row_magnitudes_match_every_dense_row(case):
    cfg, q_inv = case
    row = cfg.row_magnitudes()
    assert_allclose(row, np.abs(q_inv[0]), rtol=0, atol=1e-13)
    assert_allclose(np.sort(np.abs(q_inv), axis=1), np.broadcast_to(np.sort(row), q_inv.shape),
                    rtol=0, atol=1e-13)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
def test_row_sparsity_matches_dense(case, tol):
    cfg, q_inv = case
    k = wl.row_sparsity(cfg.row_magnitudes(), tol=tol)
    dense = sparsity_profile(q_inv, tol=tol)
    assert type(k) is int
    assert (dense.row_counts == k).all()
    assert k / cfg.N == dense.density


def test_zero_gain_profile_stays_nonnegative(case):
    # an interferer carrying all the power leaves every other bin at gain 0
    cfg, q_inv = case
    profile = wl.make_profile("interferer", cfg.N, power_fraction=1.0)
    assert (profile.gains == 0).any()
    v = cfg.demod_power(profile.gains)
    assert (v >= 0).all()
    dense = demod_noise_variance(q_inv, profile.gains)
    assert_allclose(v, dense, rtol=0, atol=1e-12 * dense.max())


def test_demod_power_refuses_bad_gains():
    cfg = wl.WaveformConfig.afdm(16, 0.5)
    with pytest.raises(ConfigError):
        cfg.demod_power(np.r_[-1.0, np.ones(15)])
    with pytest.raises(DimensionError):
        cfg.demod_power(np.ones(15))
    with pytest.raises(DimensionError):
        cfg.demod_power(np.ones((16, 15)))
    with pytest.raises(DimensionError):
        cfg.demod_power(1.0)
    with pytest.raises(ConfigError):  # one negative gain in any row
        cfg.demod_power(np.r_[np.ones(31), -1.0].reshape(2, 16))


def test_row_sparsity_refuses_zero_tolerance():
    with pytest.raises(ConfigError):
        wl.row_sparsity(np.ones(4), tol=0.0)
