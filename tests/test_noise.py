"""Tests for colored-noise profiles, sampling, and whitening metrics."""

import inspect
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavelab as wl
from wavelab.exceptions import ConfigError, DimensionError

from oracles import build_precoder, demod_noise_variance, equalized_gains

MC_SEED = 2  # frozen after checking the max per-bin z-score stays below 3


def mc_demod_variance(q_inv, profile, draws=100_000, chunk=20_000, seed=MC_SEED):
    """Monte-Carlo estimate of the demodulated noise variance per bin.

    Returns (mean, standard error) per subcarrier for sigma_w = 1.
    """
    n = profile.N
    rng = np.random.default_rng(seed)
    s1 = np.zeros(n)
    s2 = np.zeros(n)
    done = 0
    while done < draws:
        count = min(chunk, draws - done)
        w = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))
        w *= np.sqrt(profile.gains / 2.0)
        power = np.abs(w @ q_inv.T) ** 2
        s1 += power.sum(axis=0)
        s2 += (power**2).sum(axis=0)
        done += count
    mean = s1 / draws
    se = np.sqrt((s2 / draws - mean**2) / draws)
    return mean, se


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

    @pytest.mark.parametrize("gain_cap", [5e-324, 1e-308, 0.0, -0.0, -1e308])
    def test_gain_cap_below_smallest_normal_refused(self, gain_cap):
        with pytest.raises(ConfigError, match="'gain_cap'"):
            wl.make_profile("equalized", 16, gain_cap=gain_cap)

    def test_parameter_errors(self):
        with pytest.raises(ConfigError, match="'spikes'"):
            wl.make_profile("impulse", 8, spikes=9)
        with pytest.raises(ConfigError, match="'width'"):
            wl.make_profile("interferer", 8, width=9)
        with pytest.raises(ConfigError, match="'power_fraction'"):
            wl.make_profile("interferer", 8, power_fraction=1.5)
        with pytest.raises(ConfigError):
            wl.make_profile("pink", 8)

    def test_keyword_of_another_kind_refused(self):
        # used to be ignored: a white profile
        with pytest.raises(TypeError, match="'spikes'"):
            wl.make_profile("white", 8, spikes=3)

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

    def test_negative_gains_rejected(self):
        with pytest.raises(ConfigError):
            wl.NoiseProfile(np.array([2.0, -1.0, 1.0]), "white")

    def test_unnormalized_gains_rejected(self):
        with pytest.raises(ConfigError):
            wl.NoiseProfile(np.array([5.0, 1.0]), "white")


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

    def test_otfs_impulse_against_monte_carlo(self):
        prof = wl.make_profile("impulse", 64)
        q_inv = build_precoder(wl.WaveformConfig.otfs(8, 8)).Q_inv
        mean, se = mc_demod_variance(q_inv, prof)
        v = demod_noise_variance(q_inv, prof.gains, 1.0)
        assert (np.abs(mean - v) <= 3 * se).all()

    def test_energy_conservation(self):
        sigma = 0.8
        for kind in ("impulse", "interferer", "equalized"):
            prof = wl.make_profile(kind, 64)
            for cfg in (
                wl.WaveformConfig.otfs(8, 8),
                wl.WaveformConfig.afdm(64, -4.0, 0.1),
            ):
                v = demod_noise_variance(build_precoder(cfg).Q_inv, prof.gains, sigma)
                total = sigma**2 * prof.gains.sum()
                assert abs(v.sum() - total) < 1e-9 * total

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


@pytest.mark.parametrize("call,error,match", [
    (lambda: wl.NoiseProfile(np.ones((2, 2)), "white"), DimensionError,
     r"gains must be a nonempty 1-D vector, got \(2, 2\)"),
    (lambda: wl.make_profile("white", 0), ConfigError, "profile length must be >= 1, got 0"),
    (lambda: wl.make_profile("pink", 4), ConfigError,
     r"noise: 'kind' = 'pink' is not one of \['white', 'impulse'"),
    (lambda: wl.sample_noise(wl.make_profile("white", 4), -1.0, []), ConfigError,
     "sigma_w must be >= 0"),
    (lambda: wl.whitening_std([]), DimensionError, "expected a nonempty 1-D vector"),
], ids=["gains", "n", "kind", "sigma_w", "whitening"])
def test_library_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


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


@pytest.fixture(scope="module")
def q_invs():
    return {
        "ofdm": np.eye(64, dtype=complex),
        "otfs": build_precoder(wl.WaveformConfig.otfs(8, 8)).Q_inv,
        "afdm": build_precoder(wl.WaveformConfig.afdm(64, -4.0)).Q_inv,
    }


class TestWhiteningOrdering:

    def test_default_profiles_ordering(self, q_invs):
        # reference measurement orderings: AFDM <= OTFS <= OFDM per profile
        for kind in ("impulse", "interferer", "equalized"):
            prof = wl.make_profile(kind, 64)
            s = {
                name: wl.whitening_std(demod_noise_variance(q_inv, prof.gains))
                for name, q_inv in q_invs.items()
            }
            assert s["afdm"] <= s["otfs"] <= s["ofdm"], (kind, s)

    def test_monotone_in_doppler_grid(self):
        prof = wl.make_profile("impulse", 64)
        previous = -1.0
        for l in (1, 2, 4, 8, 16, 32, 64):
            q_inv = build_precoder(wl.WaveformConfig.otfs(64 // l, l)).Q_inv
            s = wl.whitening_std(demod_noise_variance(q_inv, prof.gains))
            assert s >= previous - 1e-12
            previous = s
