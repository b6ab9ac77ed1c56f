"""Tests for the Monte-Carlo BER engine."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wavelab as wl
from wavelab.exceptions import ConfigError, EqualizationError

from oracles import (
    IDENTITY_CHANNEL,
    build_precoder,
    demod_noise_variance,
    run_frame,
    zf_expected_errors,
)


def white_cfg(n=120, **overrides):
    base = dict(
        channel=wl.ChannelGenerator(num_taps=8),
        profile=wl.make_profile("white", n),
        targets=(wl.WaveformConfig.ofdm(n),),
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
    def test_rejects_layout_with_doppler(self):
        # a library layout over Doppler runs (joint MMSE over all N bins); the parse
        # refuses it, and so does the CLI (test_cli.py's TestStrictConfigReader.CASES)
        from wavelab.configio import parse_sim

        layout = wl.BlockLayout([wl.WaveformConfig.ofdm(60), wl.WaveformConfig.ofdm(60)])
        wl.SimConfig(
            channel=wl.ChannelGenerator(num_taps=4, max_doppler=0.3),
            profile=wl.make_profile("white", 120),
            targets=(layout,),
            bits_per_point=10_000,
        )
        doc = {
            "n": 120, "layout": [{"kind": "ofdm", "n": 60}, {"kind": "ofdm", "n": 60}],
            "channel": {"num_taps": 4, "max_doppler": 0.3}, "noise": {"kind": "white"},
            "qam_order": 16, "snr_db": [20.0], "bits_per_point": 10_000, "seed": 1,
            "equalizer": "mmse",
        }
        with pytest.raises(ConfigError, match="FDMA layouts support quasi-static channels only"):
            parse_sim(doc)

    def test_rejects_snr_whose_noise_power_overflows(self):
        # sigma_w**2 = 10**(-snr/10) overflows between -3082.54 and -3082.55 dB
        with pytest.raises(ConfigError, match="'snr_db'"):
            white_cfg(snr_db=(20.0, -3082.55))
        white_cfg(snr_db=(20.0, -3082.54))

    def test_rejects_taps_beyond_the_block(self):
        # the generator's last delay is N; a tap list's delay N likewise
        with pytest.raises(ConfigError, match="does not fit"):
            white_cfg(channel=wl.ChannelGenerator(num_taps=121))
        white_cfg(channel=wl.ChannelGenerator(num_taps=120))
        with pytest.raises(ConfigError, match="does not fit"):
            white_cfg(channel=wl.ChannelSpec([120], [1.0 + 0j], [0.0]))


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
                targets=(wf,),
                snr_db=(300.0,),
                bits_per_point=10_000,
            )
            tx, rx = run_frame(cfg, np.random.default_rng(0))
            assert np.array_equal(tx, rx)

    def test_singular_channel_raises_equalization_error(self):
        # two equal-magnitude taps null the DC bin exactly
        null_spec = wl.ChannelSpec([0, 1], [1.0 + 0j, -1.0 + 0j], [0.0, 0.0])
        cfg = wl.SimConfig(
            channel=null_spec,
            profile=wl.make_profile("white", 16),
            targets=(wl.WaveformConfig.ofdm(16),),
            snr_db=(20.0,),
            bits_per_point=10_000,
            equalizer="zf",
        )
        with pytest.raises(EqualizationError):
            run_frame(cfg, np.random.default_rng(0))
        # the point-level runner skips and reports rather than crashing mid-frame
        with pytest.raises(EqualizationError, match="skipped"):
            wl.run_ber(cfg)

    def test_refusal_stops_at_the_first_skipped_point(self, monkeypatch):
        # points run in order, so the run names its first point whose frames were all
        # refused and starts no chunk of a later point
        null_spec = wl.ChannelSpec([0, 1], [1.0 + 0j, -1.0 + 0j], [0.0, 0.0])
        cfg = wl.SimConfig(
            channel=null_spec,
            profile=wl.make_profile("white", 16),
            targets=(wl.WaveformConfig.ofdm(16),),
            snr_db=(10.0, 20.0),
            bits_per_point=10_000,
            equalizer="zf",
        )
        points, job = [], wl.sim._chunk_job

        def counted(cfg, point, start, stop):
            points.append(point)
            return job(cfg, point, start, stop)

        monkeypatch.setattr(wl.sim, "_chunk_job", counted)
        with pytest.raises(EqualizationError, match=r"frames at 10\.0 dB were skipped"):
            wl.run_ber(cfg)
        assert points and set(points) == {0}

    def test_mmse_handles_singular_channel(self):
        null_spec = wl.ChannelSpec([0, 1], [1.0 + 0j, -1.0 + 0j], [0.0, 0.0])
        cfg = wl.SimConfig(
            channel=null_spec,
            profile=wl.make_profile("white", 16),
            targets=(wl.WaveformConfig.ofdm(16),),
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
            targets=(wl.WaveformConfig.ofdm(128),),
            snr_db=(snr_db,),
            bits_per_point=bits,
            seed=3,
            equalizer="zf",
        )
        point = wl.run_ber(cfg)[0].points[0]
        reference = qam16_awgn_ber(snr_db)
        assert abs(point.ber - reference) / reference < 0.15


class TestZeroForcingOracle:
    # at N = 16 an AFDM q of -4 is a comb that ties OTFS with L = 4 exactly: a dense q
    TARGETS = {
        "waveforms": (wl.WaveformConfig.ofdm(16), wl.WaveformConfig("otfs", 16, K=4, L=4),
                      wl.WaveformConfig.afdm(16, 0.3, 0.1)),
        "fdma": (wl.BlockLayout([wl.WaveformConfig.ofdm(4), wl.WaveformConfig.afdm(8, 0.3, 0.1),
                                 wl.WaveformConfig.otfs(2, 2)]),),
    }

    @pytest.mark.parametrize("targets", list(TARGETS.values()), ids=list(TARGETS))
    def test_counts_match_the_exact_conditional_sum(self, targets):
        # ROADMAP item 14 (a) and (b): each count lies within 4 frame-cluster sigma of
        # the exact expected errors over the same channel draws
        cfg = wl.SimConfig(
            channel=wl.ChannelGenerator(num_taps=4),
            profile=wl.make_profile("impulse", 16, spikes=2),
            targets=targets,
            qam_order=16,
            snr_db=(10.0, 20.0),
            bits_per_point=20_000,
            seed=1,
            equalizer="zf",
        )
        curves = wl.run_ber(cfg)
        for pi in range(len(cfg.snr_db)):
            expected, kept = zf_expected_errors(cfg, pi)
            for curve, mean in zip(curves, expected):
                point = curve.points[pi]
                assert point.bits == kept * cfg.bits_per_frame
                frame_var = (point.errors_sq - point.errors**2 / kept) / (kept - 1)
                assert point.errors > 0
                assert abs(point.errors - mean) <= 4 * math.sqrt(kept * frame_var), (
                    curve.label, cfg.snr_db[pi], point.errors, mean)


class TestDeterminism:
    def test_huge_budget_streams_its_jobs(self, monkeypatch):
        # 10**15 bits per point are about 2e12 frames, yet no memory grows with the
        # budget before the first job runs; the job stops the run at its 4th call
        # and runs no frame
        calls = []

        def job(cfg, point, start, stop):
            calls.append((point, start, stop))
            if len(calls) > 3:
                raise RuntimeError("stopped")
            return np.zeros((len(cfg.targets), 2), dtype=np.int64), stop - start

        monkeypatch.setattr(wl.sim, "_chunk_job", job)
        cfg = white_cfg(bits_per_point=10**15)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="stopped"):
                wl.run_ber(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [(0, 0, 32), (0, 32, 64), (0, 64, 96), (0, 96, 128)]
        assert peak < 2 * 2**20

    def test_different_seed_changes_counts(self):
        grid = (15.0, 20.0, 25.0)
        a = wl.run_ber(white_cfg(seed=1, snr_db=grid))[0]
        b = wl.run_ber(white_cfg(seed=2, snr_db=grid))[0]
        assert tuple(p.errors for p in a.points) != tuple(p.errors for p in b.points)

    def test_otfs_full_grid_identical_to_ofdm(self):
        # L = N is the same precoder; shared draws make the counts equal
        cfg = white_cfg(
            targets=(wl.WaveformConfig.ofdm(120), wl.WaveformConfig.otfs(1, 120)),
            bits_per_point=20_000,
        )
        ofdm, otfs = wl.run_ber(cfg)
        assert ofdm.points == otfs.points


def otfs_sweep(cfg, l_values):
    """``cfg`` running OTFS at each grid size L, as ``sweep-l`` parses it."""
    return replace(cfg, targets=tuple(wl.WaveformConfig.otfs(cfg.n // l, l) for l in l_values))


class TestSweeps:
    def test_sweep_l_shares_draws_with_run_ber(self):
        cfg = white_cfg(bits_per_point=20_000)
        swept = otfs_sweep(cfg, [1, 120])
        points = [c.points[0] for c in wl.run_ber(swept)]
        ofdm_point = wl.run_ber(cfg)[0].points[0]
        # L = N reproduces the OFDM point exactly under shared streams
        assert points[1] == ofdm_point
        assert tuple(float(wf.L) for wf in swept.targets) == (1.0, 120.0)

    def test_sweep_l_ber_nondecreasing(self):
        # wideband grid at desk scale; at most one inversion within 2 sigma
        cfg = white_cfg(bits_per_point=200_000, seed=1)
        curves = wl.run_ber(otfs_sweep(cfg, [1, 2, 4, 6, 10, 20, 40, 120]))
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
                targets=wfs,
                snr_db=(25.0,),
                bits_per_point=300_000,
                seed=1,
            )
            points = [c.points[0] for c in wl.run_ber(cfg)]
            order = np.argsort(s_vals)
            for lo, hi in zip(order, order[1:]):
                band = 3 * math.sqrt(points[lo].stderr ** 2 + points[hi].stderr ** 2)
                assert points[hi].ber >= points[lo].ber - band, (kind, s_vals)


class TestFingerprint:
    def test_sensitive_to_seed_and_waveform(self):
        a = wl.config_fingerprint(white_cfg(seed=1))
        b = wl.config_fingerprint(white_cfg(seed=2))
        c = wl.config_fingerprint(
            white_cfg(seed=1, targets=(wl.WaveformConfig.otfs(12, 10),))
        )
        assert a != b and a != c

    def test_digest_pinned(self):
        # literal digests: curves.json of earlier runs stays comparable
        generator = wl.SimConfig(
            channel=wl.ChannelGenerator(num_taps=8, max_doppler=0.3),
            profile=wl.make_profile("impulse", 120),
            targets=(wl.WaveformConfig.otfs(12, 10), wl.WaveformConfig.afdm(120, -4.0, 0.1)),
            snr_db=(10.0, 20.0),
            bits_per_point=10_000,
            seed=1,
        )
        fixed = wl.SimConfig(
            channel=wl.ChannelSpec([0, 3], [0.6 - 0.2j, 0.1 + 0.4j], [0.0, 0.25]),
            profile=wl.make_profile("white", 16),
            targets=(wl.WaveformConfig.ofdm(16),),
            snr_db=(20.0,),
            bits_per_point=10_000,
            equalizer="zf",
        )
        assert wl.config_fingerprint(generator) == "76ce02202dd3f0b5"
        assert wl.config_fingerprint(fixed) == "591bfa3041505f57"
