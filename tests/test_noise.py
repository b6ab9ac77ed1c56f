"""Tests for colored-noise profiles, sampling, and whitening metrics."""

import inspect
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavelab as wl
from wavelab.exceptions import ConfigError, DimensionError

from oracles import build_precoder, demod_noise_variance, equalized_gains

# the seed of TestSampleNoise's generators; its per-bin variance checks hold their
# bounds at it
MC_SEED = 2


class TestMakeProfile:
    def test_white(self):
        assert_allclose(wl.make_profile("white", 8).gains, np.ones(8))

    def test_trace_normalization_all_kinds(self):
        for kind in ("white", "impulse", "interferer", "equalized"):
            gains = wl.make_profile(kind, 64).gains
            assert abs(gains.sum() - 64) < 1e-9

    def test_impulse_defaults_n64(self):
        prof = wl.make_profile("impulse", 64)
        assert abs(prof.gains.sum() - 64) < 1e-9
        median = np.median(prof.gains)
        assert int((prof.gains > 10 * median).sum()) == 2

    def test_impulse_matches_direct_construction(self):
        n, p, frac = 64, 2, 0.9
        expected = np.full(n, (1 - frac) * n / (n - p))
        expected[[0, 32]] = frac * n / p
        assert_allclose(wl.make_profile("impulse", n).gains, expected, atol=1e-12)

    def test_equalized_single_tap_is_flat(self):
        prof = wl.make_profile("equalized", 16, num_taps=1)
        assert_allclose(prof.gains, np.ones(16), atol=1e-12)

    def test_default_equalized_normals_are_the_seeds_draws(self):
        # names a numpy release that moves the Generator stream of the default seed
        draws = np.random.default_rng(wl.noise.DEFAULT_EQUALIZED_SEED).standard_normal(
            2 * wl.noise.DEFAULT_EQUALIZED_TAPS)
        assert wl.noise.DEFAULT_EQUALIZED_NORMALS == tuple(draws.tolist())

    @pytest.mark.parametrize("n,kwargs", [(64, {}), (64, {"seed": 3}), (64, {"num_taps": 6}),
                                          (10, {"seed": 0, "num_taps": 1, "gain_cap": 2.0}),
                                          (1024, {"gain_cap": 10.0})])
    def test_equalized_matches_two_draw_oracle(self, n, kwargs):
        args = {"num_taps": 4, "gain_cap": wl.noise.DEFAULT_GAIN_CAP, "seed": 7, **kwargs}
        gains = wl.make_profile("equalized", n, **kwargs).gains
        np.testing.assert_array_equal(gains, equalized_gains(n, **args))

    @pytest.mark.parametrize("fraction", [0.0, 5e-324, 1e-310])
    @pytest.mark.parametrize("kind,key", [("impulse", "spikes"), ("interferer", "width")])
    def test_all_bins_without_normal_power_refused(self, kind, key, fraction):
        # at 0, "no power"; below it, the normalization overflowed to inf (a RuntimeWarning)
        with pytest.raises(ConfigError, match="'power_fraction'"):
            wl.make_profile(kind, 8, **{key: 8, "power_fraction": fraction})
        prof = wl.make_profile(kind, 8, **{key: 8, "power_fraction": sys.float_info.min})
        assert_allclose(prof.gains, np.ones(8))

    def test_profile_table_lists_each_builders_keywords(self):
        for kind, (builder, keys) in wl.noise.PROFILES.items():
            assert list(inspect.signature(builder).parameters) == ["n", *keys]
            assert builder(8).kind == kind

    @pytest.mark.parametrize("offset", [2**63 - 1, 2**63 - 50, 2**63, -2**63 - 1, 10**23])
    def test_offsets_past_int64_place_the_python_int_bins(self, offset):
        # int64 arithmetic wrapped these silently near its top and overflowed past it
        n, p, w = 120, 3, 4
        impulse = wl.make_profile("impulse", n, spikes=p, spike_offset=offset).gains
        assert np.flatnonzero(impulse > 1).tolist() == sorted(
            (offset + i * n // p) % n for i in range(p))
        interferer = wl.make_profile("interferer", n, width=w, start=offset).gains
        assert np.flatnonzero(interferer > 1).tolist() == sorted(
            (offset + i) % n for i in range(w))


class TestSampleNoise:
    def test_zero_sigma_is_silent(self):
        prof = wl.make_profile("white", 8)
        w_f = wl.sample_noise(prof, 0.0, [np.random.default_rng(0)])
        assert_allclose(w_f, np.zeros((1, 8)))

    def test_keeps_the_two_call_stream(self):
        # one standard_normal(2N) call gives the values of two N-draws: the stream the
        # frozen counts rest on
        prof = wl.make_profile("impulse", 32)
        w_f = wl.sample_noise(prof, 0.7, [np.random.default_rng(MC_SEED)])
        rng = np.random.default_rng(MC_SEED)
        white = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * (0.7 / np.sqrt(2.0))
        assert np.array_equal(w_f, [np.sqrt(prof.gains) * white])

    def test_chunk_rows_are_the_per_frame_formula(self):
        # one row per generator, each the one-frame formula on that generator's stream;
        # a generator listed k times gives k consecutive draws
        prof = wl.make_profile("interferer", 24)
        rngs = [np.random.default_rng(seed) for seed in (3, 1, 4)]
        shared = np.random.default_rng(MC_SEED)
        w_f = wl.sample_noise(prof, 0.4, rngs + [shared] * 3)
        refs = [np.random.default_rng(seed) for seed in (3, 1, 4)]
        shared_ref = np.random.default_rng(MC_SEED)
        assert w_f.shape == (6, 24)
        for row, rng in zip(w_f, refs + [shared_ref] * 3):
            real, imag = rng.standard_normal(48).reshape(2, 24)
            white = (real + 1j * imag) * (0.4 / np.sqrt(2.0))
            assert np.array_equal(row, np.sqrt(prof.gains) * white)

    def test_white_per_bin_variance(self):
        # 25000 draws x 4 bins = 1e5 scalar samples; se per bin ~ 0.63%
        prof = wl.make_profile("white", 4)
        rng = np.random.default_rng(MC_SEED)
        sigma = 0.7
        samples = wl.sample_noise(prof, sigma, [rng] * 25_000)
        per_bin = np.mean(np.abs(samples) ** 2, axis=0)
        assert np.abs(per_bin / sigma**2 - 1.0).max() < 0.03

    def test_impulse_variance_ratio(self):
        prof = wl.make_profile("impulse", 32)
        rng = np.random.default_rng(MC_SEED)
        samples = wl.sample_noise(prof, 1.0, [rng] * (100_000 // 32))
        per_bin = np.mean(np.abs(samples) ** 2, axis=0)
        hot = np.flatnonzero(prof.gains > 1.0)
        cold = np.flatnonzero(prof.gains < 1.0)
        measured = per_bin[hot].mean() / per_bin[cold].mean()
        expected = prof.gains[hot].mean() / prof.gains[cold].mean()
        assert abs(measured / expected - 1.0) < 0.10


class TestDemodVariance:
    def test_ofdm_passthrough(self):
        prof = wl.make_profile("impulse", 16)
        v = demod_noise_variance(np.eye(16), prof.gains, 0.5)
        assert_allclose(v, 0.25 * prof.gains, atol=1e-12)

    def test_white_profile_flat_through_any_unitary(self):
        prof = wl.make_profile("white", 36)
        for cfg in (wl.WaveformConfig.otfs(6, 6), wl.WaveformConfig.afdm(36, -4.0, 0.1)):
            v = demod_noise_variance(build_precoder(cfg).Q_inv, prof.gains, 1.3)
            assert_allclose(v, np.full(36, 1.3**2), atol=1e-10)

    def test_otfs_locality_exact(self):
        # row u only sees bins v with (v - floor(u/K)) mod L == 0
        k, l = 8, 8
        n = k * l
        q_inv = build_precoder(wl.WaveformConfig.otfs(k, l)).Q_inv
        u = 19
        mu = u // k
        base = np.ones(n)
        v_base = demod_noise_variance(q_inv, base)[u]
        for v_bin in range(n):
            perturbed = base.copy()
            perturbed[v_bin] += 5.0
            v_new = demod_noise_variance(q_inv, perturbed)[u]
            if (v_bin - mu) % l == 0:
                assert v_new > v_base
            else:
                assert v_new == v_base

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            demod_noise_variance(np.eye(4), np.ones(5))


class TestWhiteningStd:
    def test_flat_is_zero(self):
        assert wl.whitening_std(np.ones(16)) == 0.0

    def test_hand_computed(self):
        assert wl.whitening_std([2.0, 0.0]) == pytest.approx(1.0)

    def test_report_recomputable(self):
        # against a direct population-std computation
        rng = np.random.default_rng(1)
        v = rng.uniform(0.1, 3.0, 40)
        mean = sum(v) / len(v)
        direct = np.sqrt(sum((x - mean) ** 2 for x in v) / len(v))
        assert abs(wl.whitening_std(v) - direct) < 1e-12

    def test_finite_near_the_largest_float(self):
        # the squared deviations of these used to overflow to an inf std
        assert wl.whitening_std([0.0, 1.5e308]) == 0.75e308
        assert wl.whitening_std([1e300, 3e300]) == pytest.approx(1e300, rel=1e-15)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            v = rng.exponential(size=rng.integers(1, 200)) * 10.0 ** rng.uniform(-30, 30)
            assert wl.whitening_std(v) == float(np.sqrt(np.mean((v - v.mean()) ** 2)))
