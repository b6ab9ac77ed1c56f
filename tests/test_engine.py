"""Equivalence tests for the frame-major engine.

The engine runs every layer on stacks of frames (..., N). These tests pin
that a stacked call is bitwise equal to the same call row by row, and that
CLI outputs do not depend on the thread count or on the chunk size.
"""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
import yaml

import wavelab as wl
from wavelab import sim
from wavelab.cli import main
from wavelab.exceptions import EqualizationError

from oracles import mmse_equalizer, run_frame, zf_equalizer

TARGETS = (
    wl.WaveformConfig.ofdm(36),
    wl.WaveformConfig.otfs(1, 36),
    wl.WaveformConfig.otfs(36, 1),
    wl.WaveformConfig.otfs(4, 9),
    wl.WaveformConfig.afdm(36, -4.0, 0.1),
    wl.BlockLayout.from_configs(
        [
            wl.WaveformConfig.ofdm(12),
            wl.WaveformConfig.afdm(12, -4.0, 0.1),
            wl.WaveformConfig.otfs(4, 3),
        ]
    ),
)


def stacked(rng, frames, n):
    return rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n))


def assert_rowwise(func, batch):
    expected = np.array([func(row) for row in batch])
    assert np.array_equal(func(batch), expected)


class TestStackedLayers:
    @pytest.mark.parametrize("order", wl.QAM_ORDERS)
    def test_qam_map_and_demap(self, order):
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, size=(7, 36 * int(np.log2(order))), dtype=np.uint8)
        assert_rowwise(lambda b: wl.qam_map(b, order), bits)
        symbols = wl.qam_map(bits, order) + 0.3 * stacked(rng, 7, 36)
        assert_rowwise(lambda s: wl.qam_demap(s, order), symbols)

    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.slug)
    def test_transmit_and_receive(self, target):
        batch = stacked(np.random.default_rng(1), 7, target.N)
        assert_rowwise(lambda c: np.fft.ifft(target.precode(c), norm="ortho"), batch)
        assert_rowwise(target.receive, batch)

    @pytest.mark.parametrize(
        "target", [t for t in TARGETS if isinstance(t, wl.WaveformConfig)],
        ids=lambda t: t.slug,
    )
    def test_precoder_and_inverse(self, target):
        batch = stacked(np.random.default_rng(2), 7, target.N)
        assert_rowwise(target.precode, batch)
        assert_rowwise(target.receive, batch)

    @pytest.mark.parametrize("doppler", [0.0, 0.3])
    def test_apply_channel(self, doppler):
        rng = np.random.default_rng(3)
        channel = wl.ChannelGenerator(8, doppler)
        taps = (channel.delays, *channel.draw(rng))
        assert_rowwise(lambda x: wl.apply_channel(*taps, x), stacked(rng, 5, 36))
        # per-frame taps on a (targets, frames, N) stack, against each dense H
        gains, dopplers = (np.array(c) for c in zip(*(channel.draw(rng) for _ in range(5))))
        x = stacked(rng, 3 * 5, 36).reshape(3, 5, 36)
        y = wl.apply_channel(channel.delays, gains, dopplers, x)
        for f in range(5):
            h = wl.build_channel(channel.delays, gains[f], dopplers[f], 36)
            assert np.abs(y[:, f] - x[:, f] @ h.T).max() < 1e-12


@pytest.mark.parametrize(
    "channel",
    [
        wl.ChannelGenerator(num_taps=8),
        wl.ChannelSpec(
            taps=(wl.ChannelTap(0, 0.7 + 0.1j), wl.ChannelTap(0, 0.2 - 0.3j),
                  wl.ChannelTap(3, -0.4 + 0.5j))
        ),
    ],
    ids=["generator", "delays_0_0_3"],
)
def test_quasi_static_receive_matches_dense(channel):
    # a circulant H never leaves the frequency domain: h_f . F x + w_f against
    # F (H x + F^H w_f), and equalize's per-bin G_f . (h_f . z + w_f) against
    # F G (H F^H z + F^H w_f), with the dense H and G
    rng = np.random.default_rng(5)
    n, rho = 36, 0.05
    gains, dopplers = (np.array(c) for c in zip(*(channel.draw(rng) for _ in range(4))))
    x, w_f = stacked(rng, 4, n), stacked(rng, 4, n)
    h_f = wl.frequency_response(channel.delays, gains, dopplers, n)
    fast = h_f * np.fft.fft(x, norm="ortho") + w_f
    for f in range(4):
        h = wl.build_channel(channel.delays, gains[f], dopplers[f], n)
        dense = np.fft.fft(h @ x[f] + np.fft.ifft(w_f[f], norm="ortho"), norm="ortho")
        assert np.abs(fast[f] - dense).max() < 1e-12
    z = stacked(rng, 3 * 4, n).reshape(3, 4, n)
    for equalizer in wl.channel.EQUALIZERS:
        fast, refused = wl.equalize(channel.delays, gains, dopplers, z.copy(), w_f, rho,
                                    equalizer)
        assert refused.dtype == bool and refused.shape == (4,)
        assert not refused.any()
        for f in range(4):
            h = wl.build_channel(channel.delays, gains[f], dopplers[f], n)
            g = zf_equalizer(h) if equalizer == "zf" else mmse_equalizer(h, rho)
            for t in range(3):
                y = h @ np.fft.ifft(z[t, f], norm="ortho") + np.fft.ifft(w_f[f], norm="ortho")
                dense = np.fft.fft(g @ y, norm="ortho")
                assert np.abs(fast[t, f] - dense).max() < 1e-10


@pytest.mark.parametrize(
    "channel, n",
    [
        (wl.ChannelGenerator(num_taps=8, max_doppler=0.3), 36),
        (wl.ChannelSpec(taps=(wl.ChannelTap(0, 0.7 + 0.1j, 0.1),
                              wl.ChannelTap(0, 0.2 - 0.3j, -0.25),
                              wl.ChannelTap(3, -0.4 + 0.5j, 0.3))), 36),
        (wl.ChannelGenerator(num_taps=8, max_doppler=0.3), 8),
    ],
    ids=["generator", "delays_0_0_3", "wrapped_band"],
)
def test_dispersive_receive_matches_dense(channel, n):
    # the banded H^H H + rho I and the adjoint H^H y against F G (H F^H z + F^H w_f)
    # with the dense H and G; at N = 8 with 8 taps the delay differences wrap
    # mod N onto shared diagonals
    rng = np.random.default_rng(5)
    rho = 0.05
    gains, dopplers = (np.array(c) for c in zip(*(channel.draw(rng) for _ in range(4))))
    z, w_f = stacked(rng, 3 * 4, n).reshape(3, 4, n), stacked(rng, 4, n)
    for equalizer in wl.channel.EQUALIZERS:
        fast, refused = wl.equalize(channel.delays, gains, dopplers, z.copy(), w_f, rho,
                                    equalizer)
        assert refused.dtype == bool and refused.shape == (4,)
        assert not refused.any()
        for f in range(4):
            h = wl.build_channel(channel.delays, gains[f], dopplers[f], n)
            g = zf_equalizer(h) if equalizer == "zf" else mmse_equalizer(h, rho)
            y = np.fft.ifft(z[:, f], norm="ortho") @ h.T + np.fft.ifft(w_f[f], norm="ortho")
            dense = np.fft.fft(y @ g.T, norm="ortho")
            assert np.abs(fast[:, f] - dense).max() < 1e-10


@pytest.mark.parametrize("equalizer", wl.channel.EQUALIZERS)
def test_dispersive_chunk_solves_frame_by_frame(equalizer):
    # a chunk of 32 frames never holds a (frames, N, N) stack at once
    rng = np.random.default_rng(7)
    frames, n, channel = 32, 120, wl.ChannelGenerator(num_taps=8, max_doppler=0.3)
    gains, dopplers = (np.array(c) for c in zip(*(channel.draw(rng) for _ in range(frames))))
    z, w_f = stacked(rng, 4 * frames, n).reshape(4, frames, n), stacked(rng, frames, n)
    tracemalloc.start()
    try:
        wl.equalize(channel.delays, gains, dopplers, z, w_f, 0.05, equalizer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frames * n * n * np.dtype(complex).itemsize


@pytest.mark.parametrize("doppler", [0.0, 0.2], ids=["per_bin", "dense"])
def test_refused_frames_match_dense_zf(doppler):
    # frame 1 has a spectral null at bin 0: gains [1, -1] at delays 0 and 1;
    # frame 3 has no power at all (its per-bin guard once read 0/tiny = 0);
    # Doppler on the other frames sends the chunk down the dense path
    rng = np.random.default_rng(6)
    n, delays = 16, np.arange(2)
    gains = np.array([[0.9, 0.3j], [1.0, -1.0], [0.5, 0.2 + 0.1j], [0.0, 0.0]])
    dopplers = np.zeros((4, 2))
    dopplers[[0, 2], 1] = doppler
    z, w_f = stacked(rng, 2 * 4, n).reshape(2, 4, n), stacked(rng, 4, n)
    r_f, refused = wl.equalize(delays, gains, dopplers, z, w_f, 0.0, "zf")
    assert refused.dtype == bool and refused.shape == (4,)
    assert np.isfinite(r_f).all()  # a refused frame's bins still demap quietly
    dense = {}
    for f in range(4):
        try:
            zf_equalizer(wl.build_channel(delays, gains[f], dopplers[f], n))
        except EqualizationError as exc:
            dense[f] = exc
    assert set(np.flatnonzero(refused)) == set(dense) == {1, 3}
    for exc in dense.values():
        assert re.fullmatch(r"channel condition number \S+ exceeds 1e\+12", str(exc))


@pytest.mark.parametrize("doppler", [0.0, 0.2], ids=["per_bin", "dense"])
def test_unknown_equalizer_refused(doppler):
    z, w_f = np.ones((1, 1, 8), dtype=complex), np.zeros((1, 8), dtype=complex)
    with pytest.raises(wl.ConfigError, match="equalizer must be one of"):
        wl.equalize(np.arange(1), np.ones((1, 1)), np.full((1, 1), doppler), z, w_f, 0.1, "ZF")


@pytest.mark.parametrize("doppler", [0.0, 0.2], ids=["per_bin", "dense"])
@pytest.mark.parametrize("rho", [-1.25, np.nan])
def test_bad_rho_refused(doppler, rho):
    # rho = -1.25 meets |h_f|^2 at a bin of this channel, where G_f would blow up
    z, w_f = np.ones((1, 1, 8), dtype=complex), np.zeros((1, 8), dtype=complex)
    gains, dopplers = np.array([[1.0, 0.5]]), np.array([[0.0, doppler]])
    with pytest.raises(wl.ConfigError, match="noise-to-signal ratio must be >= 0"):
        wl.equalize(np.arange(2), gains, dopplers, z, w_f, rho, "mmse")


def test_run_frame_is_a_one_frame_chunk():
    cfg = wl.SimConfig(
        channel=wl.ChannelGenerator(num_taps=4, max_doppler=0.2),
        profile=wl.make_profile("impulse", 36),
        waveforms=TARGETS[:5],
        snr_db=(15.0,),
        bits_per_point=10_000,
        seed=4,
    )
    curves = wl.run_ber(cfg)
    for target, curve in zip(cfg.targets(), curves):
        errors = 0
        for frame in range(cfg.frames_per_point):
            tx, rx = run_frame(cfg, wl.frame_rng(cfg.seed, 0, frame), target)
            errors += int(np.count_nonzero(tx != rx))
        assert curve.points[0].errors == errors


# ---------------------------------------------------------------------------
# CLI outputs across thread counts and chunk sizes

BASE = {
    "n": 60,
    "waveforms": [
        {"kind": "ofdm"},
        {"kind": "otfs", "l": 6},
        {"kind": "afdm", "q": -4.0, "alpha": 0.1},
    ],
    "channel": {"num_taps": 4},
    "noise": {"kind": "impulse"},
    "snr_db": [10.0, 25.0],
    "bits_per_point": 10_000,
    "seed": 3,
}
CONFIGS = {
    "quasi_static": BASE,
    "doppler": {**BASE, "channel": {"num_taps": 4, "max_doppler": 0.3}},
    "zf": {**BASE, "equalizer": "zf"},
    "doppler_zf": {**BASE, "channel": {"num_taps": 4, "max_doppler": 0.3}, "equalizer": "zf"},
}
VARIANTS = [(1, None), (2, None), (1, 1), (1, 7), (2, 7)]


def run_variants(tmp_path, monkeypatch, subcommand, doc):
    """Exit code, CSV bytes and manifest points of every (threads, chunk)."""
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(doc))
    results = []
    for threads, chunk in VARIANTS:
        out = tmp_path / f"t{threads}_c{chunk}"
        with monkeypatch.context() as patch:
            patch.setattr(sim, "CHUNK_FRAMES", chunk or sim.CHUNK_FRAMES)
            code = main([subcommand, "--config", str(config), "--out", str(out),
                         "--threads", str(threads)])
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        manifest = out / "manifest.json"
        points = json.loads(manifest.read_text())["points"] if manifest.exists() else None
        results.append((code, csvs, points))
    return results


def skip_some_frames(monkeypatch):
    """Replace the channel of roughly half the frames by one with a spectral
    null (gains 1, -1, 0, ...), after the usual draw, so the streams do not
    change and zero-forcing refuses just those frames."""
    draw = wl.ChannelGenerator.draw

    def draw_or_null(gen, rng):
        gains, dopplers = draw(gen, rng)
        if gains[0].real <= 0:
            return gains, dopplers
        null = np.zeros_like(gains)
        null[:2] = 1.0, -1.0
        return null, np.zeros_like(dopplers)

    monkeypatch.setattr(wl.ChannelGenerator, "draw", draw_or_null)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("subcommand", ["ber", "sweep-l"])
def test_outputs_identical_across_threads_and_chunks(tmp_path, monkeypatch, name, subcommand):
    doc = dict(CONFIGS[name])
    if subcommand == "sweep-l":
        doc.update(snr_db=[25.0], l_values=[1, 6, 60])
    if name.endswith("zf"):
        skip_some_frames(monkeypatch)
    results = run_variants(tmp_path, monkeypatch, subcommand, doc)
    first = results[0]
    assert first[0] == 0 and first[1]
    assert all(result == first for result in results[1:])
    points = first[2]
    skipped = [p["skipped_frames"] for p in points]
    if name.endswith("zf"):
        assert all(0 < s < p["frames"] for s, p in zip(skipped, points))
    else:
        assert not any(skipped)


def test_fixed_unequalizable_channel_fails_alike(tmp_path, monkeypatch):
    # every frame shares the fixed channel, so every frame is refused
    taps = [{"delay": 0, "gain_re": 1.0}, {"delay": 1, "gain_re": -1.0}]
    doc = {**CONFIGS["zf"], "channel": {"taps": taps}}
    for code, csvs, points in run_variants(tmp_path, monkeypatch, "ber", doc):
        assert (code, csvs, points) == (3, {}, None)
