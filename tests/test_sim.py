"""Tests for the Monte-Carlo BER engine."""

import concurrent.futures
import math
import os

import numpy as np
import pytest

import wavelab as wl
from wavelab.exceptions import ConfigError, EqualizationError

from oracles import IDENTITY_CHANNEL, build_precoder, demod_noise_variance, run_frame


def white_cfg(n=120, **overrides):
    base = dict(
        channel=wl.ChannelGenerator(num_taps=8),
        profile=wl.make_profile("white", n),
        waveforms=(wl.WaveformConfig.ofdm(n),),
        snr_db=(25.0,),
        bits_per_point=10_000,
        seed=7,
    )
    base.update(overrides)
    return wl.SimConfig(**base)


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def qam16_awgn_ber(snr_db):
    """Exact bit error probability of Gray 16-QAM in AWGN at Es/N0 = snr."""
    gamma = 10.0 ** (snr_db / 10.0)
    u = math.sqrt(gamma / 5.0)
    return 0.75 * qfunc(u) + 0.5 * qfunc(3 * u) - 0.25 * qfunc(5 * u)


class TestConfigValidation:
    def test_rejects_small_bit_budget(self):
        with pytest.raises(ConfigError):
            white_cfg(bits_per_point=0)
        with pytest.raises(ConfigError):
            white_cfg(bits_per_point=9_999)

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigError):
            white_cfg(qam_order=32)

    def test_rejects_profile_length_mismatch(self):
        with pytest.raises(ConfigError):
            white_cfg(profile=wl.make_profile("white", 64))

    def test_rejects_waveforms_and_layout_together(self):
        layout = wl.BlockLayout.from_configs([wl.WaveformConfig.ofdm(120)])
        with pytest.raises(ConfigError):
            white_cfg(layout=layout)

    def test_rejects_layout_with_doppler(self):
        layout = wl.BlockLayout.from_configs(
            [wl.WaveformConfig.ofdm(60), wl.WaveformConfig.ofdm(60)]
        )
        with pytest.raises(ConfigError):
            wl.SimConfig(
                channel=wl.ChannelGenerator(num_taps=4, max_doppler=0.3),
                profile=wl.make_profile("white", 120),
                layout=layout,
                bits_per_point=10_000,
            )

    def test_rejects_taps_beyond_the_block(self):
        # the generator's last delay is N; a tap list's delay N likewise
        with pytest.raises(ConfigError, match="does not fit"):
            white_cfg(channel=wl.ChannelGenerator(num_taps=121))
        white_cfg(channel=wl.ChannelGenerator(num_taps=120))
        with pytest.raises(ConfigError, match="does not fit"):
            white_cfg(channel=wl.ChannelSpec(taps=(wl.ChannelTap(120, 1.0 + 0j),)))

    def test_rejects_mixed_block_sizes(self):
        with pytest.raises(ConfigError):
            white_cfg(
                waveforms=(wl.WaveformConfig.ofdm(120), wl.WaveformConfig.ofdm(60))
            )


class TestRunFrame:
    def test_noiseless_identity_channel_is_error_free(self):
        for wf in (
            wl.WaveformConfig.ofdm(64),
            wl.WaveformConfig.otfs(8, 8),
            wl.WaveformConfig.afdm(64, -4.0, 0.1),
        ):
            cfg = wl.SimConfig(
                channel=IDENTITY_CHANNEL,
                profile=wl.make_profile("white", 64),
                waveforms=(wf,),
                snr_db=(300.0,),
                bits_per_point=10_000,
            )
            tx, rx = run_frame(cfg, np.random.default_rng(0))
            assert np.array_equal(tx, rx)

    def test_singular_channel_raises_equalization_error(self):
        # two equal-magnitude taps null the DC bin exactly
        null_spec = wl.ChannelSpec(
            taps=(wl.ChannelTap(0, 1.0 + 0j), wl.ChannelTap(1, -1.0 + 0j))
        )
        cfg = wl.SimConfig(
            channel=null_spec,
            profile=wl.make_profile("white", 16),
            waveforms=(wl.WaveformConfig.ofdm(16),),
            snr_db=(20.0,),
            bits_per_point=10_000,
            equalizer="zf",
        )
        with pytest.raises(EqualizationError):
            run_frame(cfg, np.random.default_rng(0))
        # the point-level runner skips and reports rather than crashing mid-frame
        with pytest.raises(EqualizationError, match="skipped"):
            wl.run_ber(cfg)

    def test_mmse_handles_singular_channel(self):
        null_spec = wl.ChannelSpec(
            taps=(wl.ChannelTap(0, 1.0 + 0j), wl.ChannelTap(1, -1.0 + 0j))
        )
        cfg = wl.SimConfig(
            channel=null_spec,
            profile=wl.make_profile("white", 16),
            waveforms=(wl.WaveformConfig.ofdm(16),),
            snr_db=(20.0,),
            bits_per_point=10_000,
            equalizer="mmse",
        )
        point = wl.run_ber(cfg)[0].points[0]
        assert point.skipped_frames == 0
        assert point.bits >= 10_000


class TestAwgnOracle:
    @pytest.mark.parametrize(
        "snr_db,bits", [(10.0, 2_000_000), (14.0, 2_000_000), (18.0, 8_000_000)]
    )
    def test_ofdm_matches_closed_form(self, snr_db, bits):
        cfg = wl.SimConfig(
            channel=IDENTITY_CHANNEL,
            profile=wl.make_profile("white", 128),
            waveforms=(wl.WaveformConfig.ofdm(128),),
            snr_db=(snr_db,),
            bits_per_point=bits,
            seed=3,
            equalizer="zf",
        )
        point = wl.run_ber(cfg)[0].points[0]
        reference = qam16_awgn_ber(snr_db)
        assert abs(point.ber - reference) / reference < 0.15


class TestDeterminism:
    def test_identical_runs(self):
        cfg = white_cfg(seed=123, snr_db=(15.0, 25.0))
        first = wl.run_ber(cfg)
        second = wl.run_ber(cfg)
        assert first == second

    def test_thread_count_does_not_change_counts(self):
        cfg = white_cfg(seed=42, bits_per_point=20_000)
        serial = wl.run_ber(cfg, threads=1)[0]
        threaded = wl.run_ber(cfg, threads=4)[0]
        assert serial.points == threaded.points

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        # a pool that records its size and runs the jobs serially: no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        cfg = white_cfg(seed=42, bits_per_point=20_000)
        capped = wl.run_ber(cfg, threads=10**6)
        assert sizes and max(sizes) <= (os.cpu_count() or 1)
        assert capped == wl.run_ber(cfg, threads=1)

    def test_different_seed_changes_counts(self):
        grid = (15.0, 20.0, 25.0)
        a = wl.run_ber(white_cfg(seed=1, snr_db=grid))[0]
        b = wl.run_ber(white_cfg(seed=2, snr_db=grid))[0]
        assert tuple(p.errors for p in a.points) != tuple(p.errors for p in b.points)

    def test_otfs_full_grid_identical_to_ofdm(self):
        # L = N is the same precoder; shared draws make the counts equal
        cfg = white_cfg(
            waveforms=(wl.WaveformConfig.ofdm(120), wl.WaveformConfig.otfs(1, 120)),
            bits_per_point=20_000,
        )
        ofdm, otfs = wl.run_ber(cfg)
        assert ofdm.points == otfs.points


class TestSweeps:
    def test_sweep_l_requires_divisor(self):
        with pytest.raises(ConfigError):
            wl.sweep_l(white_cfg(), [7])

    def test_sweep_q_rejects_zero(self):
        with pytest.raises(ConfigError):
            wl.sweep_q(white_cfg(), [0.0])

    def test_sweeps_refuse_empty_values(self):
        with pytest.raises(ConfigError, match="l_values"):
            wl.sweep_l(white_cfg(), [])
        with pytest.raises(ConfigError, match="q_values"):
            wl.sweep_q(white_cfg(), [])

    def test_sweeps_need_single_point_template(self):
        with pytest.raises(ConfigError):
            wl.sweep_l(white_cfg(snr_db=(10.0, 20.0)), [2])

    def test_sweep_l_shares_draws_with_run_ber(self):
        cfg = white_cfg(bits_per_point=20_000)
        swept = wl.sweep_l(cfg, [1, 120])
        points = [c.points[0] for c in wl.run_ber(swept)]
        ofdm_point = wl.run_ber(cfg)[0].points[0]
        # L = N reproduces the OFDM point exactly under shared streams
        assert points[1] == ofdm_point
        assert tuple(float(wf.L) for wf in swept.waveforms) == (1.0, 120.0)

    def test_sweep_l_ber_nondecreasing(self):
        # wideband grid at desk scale; at most one inversion within 2 sigma
        cfg = white_cfg(bits_per_point=200_000, seed=1)
        curves = wl.run_ber(wl.sweep_l(cfg, [1, 2, 4, 6, 10, 20, 40, 120]))
        points = [c.points[0] for c in curves]
        inversions = 0
        for prev, nxt in zip(points, points[1:]):
            if nxt.ber < prev.ber:
                inversions += 1
                band = 2 * math.sqrt(prev.stderr**2 + nxt.stderr**2)
                assert nxt.ber >= prev.ber - band
        assert inversions <= 1


class TestRankingConsistency:
    def test_ber_ranking_matches_whitening_ranking(self):
        # identity channel isolates the injected noise profile; BER sorted
        # by the whitening std must be non-decreasing within 3-sigma bands
        n = 120
        wfs = (
            wl.WaveformConfig.ofdm(n),
            wl.WaveformConfig.otfs(12, 10),
            wl.WaveformConfig.afdm(n, -4.0, 0.1),
        )
        q_invs = [build_precoder(w).Q_inv for w in wfs]
        for kind in ("impulse", "interferer", "equalized"):
            profile = wl.make_profile(kind, n)
            s_vals = [
                wl.whitening_std(demod_noise_variance(q, profile.gains)) for q in q_invs
            ]
            cfg = wl.SimConfig(
                channel=IDENTITY_CHANNEL,
                profile=profile,
                waveforms=wfs,
                snr_db=(25.0,),
                bits_per_point=300_000,
                seed=1,
            )
            points = [c.points[0] for c in wl.run_ber(cfg)]
            order = np.argsort(s_vals)
            for lo, hi in zip(order, order[1:]):
                band = 3 * math.sqrt(points[lo].stderr ** 2 + points[hi].stderr ** 2)
                assert points[hi].ber >= points[lo].ber - band, (kind, s_vals)


class TestFdmaSimulation:
    def test_layout_ber_runs_and_is_deterministic(self):
        layout = wl.BlockLayout.from_configs(
            [
                wl.WaveformConfig.ofdm(12),
                wl.WaveformConfig.afdm(12, -4.0, 0.1),
            ]
        )
        cfg = wl.SimConfig(
            channel=wl.ChannelGenerator(num_taps=4),
            profile=wl.make_profile("white", 24),
            layout=layout,
            snr_db=(20.0,),
            bits_per_point=10_000,
            seed=5,
        )
        first = wl.run_ber(cfg)
        second = wl.run_ber(cfg, threads=3)
        assert len(first) == 1
        assert first[0].points == second[0].points
        assert first[0].label.startswith("FDMA[")


class TestFingerprint:
    def test_sensitive_to_seed_and_waveform(self):
        a = wl.config_fingerprint(white_cfg(seed=1))
        b = wl.config_fingerprint(white_cfg(seed=2))
        c = wl.config_fingerprint(
            white_cfg(seed=1, waveforms=(wl.WaveformConfig.otfs(12, 10),))
        )
        assert a != b and a != c

    def test_stable_across_calls(self):
        cfg = white_cfg()
        assert wl.config_fingerprint(cfg) == wl.config_fingerprint(cfg)

    def test_digest_pinned(self):
        # literal digests: curves.json of earlier runs stays comparable
        generator = wl.SimConfig(
            channel=wl.ChannelGenerator(num_taps=8, max_doppler=0.3),
            profile=wl.make_profile("impulse", 120),
            waveforms=(wl.WaveformConfig.otfs(12, 10), wl.WaveformConfig.afdm(120, -4.0, 0.1)),
            snr_db=(10.0, 20.0),
            bits_per_point=10_000,
            seed=1,
        )
        fixed = wl.SimConfig(
            channel=wl.ChannelSpec(
                taps=(wl.ChannelTap(0, 0.6 - 0.2j), wl.ChannelTap(3, 0.1 + 0.4j, 0.25))
            ),
            profile=wl.make_profile("white", 16),
            waveforms=(wl.WaveformConfig.ofdm(16),),
            snr_db=(20.0,),
            bits_per_point=10_000,
            equalizer="zf",
        )
        assert wl.config_fingerprint(generator) == "76ce02202dd3f0b5"
        assert wl.config_fingerprint(fixed) == "591bfa3041505f57"
