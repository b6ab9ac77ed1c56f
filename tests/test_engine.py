"""Equivalence tests for the frame-major engine.

The engine runs every layer on stacks of frames (..., N). These tests pin
that a stacked call is bitwise equal to the same call row by row, and that
CLI outputs do not depend on the thread count or on the chunk size.
"""

import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

import wavelab as wl
from wavelab import sim
from wavelab.cli import main
from wavelab.exceptions import EqualizationError

from oracles import build_channel, label_bits, mmse_equalizer, qam_demap, run_frame, zf_equalizer

TARGETS = (
    wl.WaveformConfig.ofdm(36),
    wl.WaveformConfig.otfs(1, 36),
    wl.WaveformConfig.otfs(36, 1),
    wl.WaveformConfig.otfs(4, 9),
    wl.WaveformConfig.afdm(36, -4.0, 0.1),
    wl.BlockLayout(
        [
            wl.WaveformConfig.ofdm(12),
            wl.WaveformConfig.afdm(12, -4.0, 0.1),
            wl.WaveformConfig.otfs(4, 3),
        ]
    ),
)


def stacked(rng, frames, n):
    return rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n))


def equalize_all(*args):
    """``wl.equalize`` with every target's bins drawn: (targets, frames, N), and ``refused``."""
    refused, bins = wl.equalize(*args)
    return np.array(list(bins)), refused


def assert_rowwise(func, batch):
    expected = np.array([func(row) for row in batch])
    assert np.array_equal(func(batch), expected)


class TestStackedLayers:
    @pytest.mark.parametrize("order", wl.QAM_ORDERS)
    def test_qam_map_and_demap(self, order):
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, size=(7, 36 * int(np.log2(order))), dtype=np.uint8)
        assert_rowwise(lambda b: wl.qam_label(b, order), bits)
        labels = wl.qam_label(bits, order)
        assert_rowwise(lambda c: wl.qam_map(c, order), labels)
        symbols = wl.qam_map(labels, order) + 0.3 * stacked(rng, 7, 36)
        assert_rowwise(lambda s: wl.qam_decide(s, order), symbols)
        assert_rowwise(lambda s: qam_demap(s, order), symbols)

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

    def test_roll_is_numpys(self):
        # the banded path's cyclic shift, for every shift the taps can ask: -N < d < N
        batch = stacked(np.random.default_rng(4), 3, 8)
        for shift in range(-8, 9):
            assert np.array_equal(wl.channel._roll(batch, shift), np.roll(batch, shift, axis=-1))

    @pytest.mark.parametrize("equalizer", wl.channel.EQUALIZERS)
    @pytest.mark.parametrize("doppler", [0.0, 0.3], ids=["per_bin", "banded"])
    def test_equalize(self, doppler, equalizer):
        # a chunk of 5 frames on 3 targets, each frame with its own taps,
        # against the same call one frame at a time
        rng = np.random.default_rng(3)
        channel = wl.ChannelGenerator(8, doppler)
        gains, dopplers = channel.draw([rng] * 5)
        z, w_f = stacked(rng, 3 * 5, 36).reshape(3, 5, 36), stacked(rng, 5, 36)
        rows = [equalize_all(channel.delays, gains[f : f + 1], dopplers[f : f + 1],
                             z[:, f : f + 1].copy(), w_f[f : f + 1], 0.05, equalizer)
                for f in range(5)]
        r_f, refused = equalize_all(channel.delays, gains, dopplers, z, w_f, 0.05, equalizer)
        assert np.array_equal(r_f, np.concatenate([row[0] for row in rows], axis=1))
        assert np.array_equal(refused, np.concatenate([row[1] for row in rows]))


@pytest.mark.parametrize(
    "channel",
    [
        wl.ChannelGenerator(num_taps=8),
        wl.ChannelSpec([0, 0, 3], [0.7 + 0.1j, 0.2 - 0.3j, -0.4 + 0.5j], [0.0, 0.0, 0.0]),
    ],
    ids=["generator", "delays_0_0_3"],
)
def test_quasi_static_receive_matches_dense(channel):
    # equalize's per-bin G_f . (h_f . z + w_f) against F G (H F^H z + F^H w_f),
    # with the dense H and G
    rng = np.random.default_rng(5)
    n, rho = 36, 0.05
    gains, dopplers = channel.draw([rng] * 4)
    w_f = stacked(rng, 4, n)
    z = stacked(rng, 3 * 4, n).reshape(3, 4, n)
    for equalizer in wl.channel.EQUALIZERS:
        fast, refused = equalize_all(channel.delays, gains, dopplers, z.copy(), w_f, rho,
                                     equalizer)
        assert refused.dtype == bool and refused.shape == (4,)
        assert not refused.any()
        for f in range(4):
            h = build_channel(channel.delays, gains[f], dopplers[f], n)
            g = zf_equalizer(h) if equalizer == "zf" else mmse_equalizer(h, rho)
            for t in range(3):
                y = h @ np.fft.ifft(z[t, f], norm="ortho") + np.fft.ifft(w_f[f], norm="ortho")
                dense = np.fft.fft(g @ y, norm="ortho")
                assert np.abs(fast[t, f] - dense).max() < 1e-10


@pytest.mark.parametrize(
    "channel, n",
    [
        (wl.ChannelGenerator(num_taps=8, max_doppler=0.3), 36),
        (wl.ChannelSpec([0, 0, 3], [0.7 + 0.1j, 0.2 - 0.3j, -0.4 + 0.5j], [0.1, -0.25, 0.3]),
         36),
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
    gains, dopplers = channel.draw([rng] * 4)
    z, w_f = stacked(rng, 3 * 4, n).reshape(3, 4, n), stacked(rng, 4, n)
    for equalizer in wl.channel.EQUALIZERS:
        fast, refused = equalize_all(channel.delays, gains, dopplers, z.copy(), w_f, rho,
                                     equalizer)
        assert refused.dtype == bool and refused.shape == (4,)
        assert not refused.any()
        for f in range(4):
            h = build_channel(channel.delays, gains[f], dopplers[f], n)
            g = zf_equalizer(h) if equalizer == "zf" else mmse_equalizer(h, rho)
            y = np.fft.ifft(z[:, f], norm="ortho") @ h.T + np.fft.ifft(w_f[f], norm="ortho")
            dense = np.fft.fft(y @ g.T, norm="ortho")
            assert np.abs(fast[:, f] - dense).max() < 1e-10


@pytest.mark.parametrize("equalizer", wl.channel.EQUALIZERS)
def test_dispersive_chunk_solves_frame_by_frame(equalizer):
    # a chunk of 32 frames never holds a (frames, N, N) stack at once; under MMSE
    # its peak reads 7.8 z.nbytes, 9.0 under ZF. This caller holds z, so the
    # targets' stack is one z more than when each target's H^H y was written into
    # z's own arrays (6.8 and 8.0); in the engine z is a generator of fresh arrays,
    # which die once stacked. With numpy.fft's import counted as well MMSE read 8.3
    # (7.3 before the stack), 10.3 when the chunk's temporaries outlived their last
    # use, and 11.3 when x = F^H z also stayed bound to a name through the solves
    rng = np.random.default_rng(7)
    frames, n, channel = 32, 120, wl.ChannelGenerator(num_taps=8, max_doppler=0.3)
    gains, dopplers = channel.draw([rng] * frames)
    z, w_f = stacked(rng, 4 * frames, n).reshape(4, frames, n), stacked(rng, frames, n)
    np.fft.ifft(w_f[0])  # numpy.fft loads on first use: its import is not the chunk's
    tracemalloc.start()
    try:
        for _ in wl.equalize(channel.delays, gains, dopplers, z, w_f, 0.05, equalizer)[1]:
            pass  # each target's bins in turn
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frames * n * n * np.dtype(complex).itemsize
    assert peak < 11 * z.nbytes
    if equalizer == "mmse":
        assert peak < 8 * z.nbytes


@pytest.mark.parametrize("equalizer", wl.channel.EQUALIZERS)
def test_quasi_static_chunk_streams_its_targets(equalizer):
    # per bin, each target is precoded, equalized, decided and counted before the
    # next is read, so a chunk's peak does not grow with the target count; it grew
    # about linearly when the chunk held every target's (frames, N) bins at once
    def chunk_peak(targets):
        cfg = wl.SimConfig(channel=wl.ChannelGenerator(num_taps=8),
                           profile=wl.make_profile("white", 120), targets=targets,
                           snr_db=(25.0,), seed=1, equalizer=equalizer)
        sim._chunk_job(cfg, 0, 0, sim.CHUNK_FRAMES)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            sim._chunk_job(cfg, 0, 0, sim.CHUNK_FRAMES)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep = [wl.WaveformConfig.afdm(120, q, 0.1) for q in (-8, -6, -4, -2, -1, 1, 2, 4, 6, 8)]
    assert chunk_peak(sweep) < 1.5 * chunk_peak(sweep[:1])


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
    r_f, refused = equalize_all(delays, gains, dopplers, z, w_f, 0.0, "zf")
    assert refused.dtype == bool and refused.shape == (4,)
    assert np.isfinite(r_f).all()  # a refused frame's bins still demap quietly
    dense = {}
    for f in range(4):
        try:
            zf_equalizer(build_channel(delays, gains[f], dopplers[f], n))
        except EqualizationError as exc:
            dense[f] = exc
    assert set(np.flatnonzero(refused)) == set(dense) == {1, 3}
    for exc in dense.values():
        assert re.fullmatch(r"channel condition number \S+ exceeds 1e\+12", str(exc))


def test_mmse_null_bins_get_zero_gain_at_zero_rho():
    # taps 1 and 1 at delays 0 and 2 give h_f = [2, 0, 2, 0]; rho = 0 is the MMSE of a
    # noise power that underflows, where a null bin's gain once read 0/0 = NaN: it is 0,
    # its limit for any rho > 0, and each other bin is equalized as before
    rng = np.random.default_rng(3)
    delays, gains, dopplers = np.array([0, 2]), np.ones((1, 2)), np.zeros((1, 2))
    z, w_f = stacked(rng, 1, 4).reshape(1, 1, 4), stacked(rng, 1, 4)
    expected = z[0, :, ::2] + w_f[:, ::2] / 2  # (2 z + w) 2 / 2**2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_f, refused = equalize_all(delays, gains, dopplers, z, w_f, 0.0, "mmse")
    assert refused.tolist() == [False]
    assert np.isfinite(r_f).all()
    assert (r_f[0, :, 1::2] == 0).all()
    assert np.allclose(r_f[0, :, ::2], expected)


def test_banded_guard_at_the_condition_limit():
    # H = I + g diag(exp(2j pi theta m / N)) Pi has det 1 - g^N exp(1j pi theta (N - 1))
    # at even N; with g = s exp(-1j pi theta (N - 1) / N) it goes to 0 as s -> 1, and
    # only through the ramp's phase: bisect s to a dense cond(H) 1 % above the limit
    # and to one 1 % below it. (At theta = 0.3 the frame below the limit, which the
    # guard admits, meets an exact zero pivot in the ZF normal-equation solve.)
    n, delays, theta = 8, np.arange(2), 0.1
    limit, turn = wl.channel.CONDITION_LIMIT, np.exp(-1j * np.pi * theta * (n - 1) / n)

    def dense(s):
        return build_channel(delays, [1.0, s * turn], [0.0, theta], n)

    def gain_at(condition):  # the bracket (lo, hi) about that cond(H)
        lo, hi = 0.5, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if np.linalg.cond(dense(mid)) < condition else (lo, mid)
        return lo, hi

    below, above = gain_at(0.99 * limit)[0], gain_at(1.01 * limit)[1]
    assert 0.985 < np.linalg.cond(dense(below)) / limit < 0.99
    assert 1.01 <= np.linalg.cond(dense(above)) / limit < 1.015
    gains = np.array([[1.0, below], [1.0, above]]) * [1.0, turn]
    dopplers = np.array([[0.0, theta]] * 2)
    rng = np.random.default_rng(4)
    z, w_f = stacked(rng, 2, n).reshape(1, 2, n), stacked(rng, 2, n)
    refused, _ = wl.equalize(delays, gains, dopplers, z, w_f, 0.0, "zf")
    assert refused.tolist() == [False, True]
    zf_equalizer(dense(below))
    with pytest.raises(EqualizationError):
        zf_equalizer(dense(above))


def test_cholesky_certificate_refuses_as_the_svd(monkeypatch):
    # H = diag(ramp) (I - g Pi), one Doppler on both taps, has cond(H) = (1 + g) / (1 - g):
    # frames near 1e2, 1e5, 1e11 and 1e13. The certificate clears the first alone, the
    # SVD refuses the last; with every Cholesky failing, the SVD alone decides each
    # frame the same way, and the bins are the same. A kept frame's solve is that of
    # MMSE at rho = 0, which runs no guard: the certificate leaves its Gram as it was
    n, delays, targets = 16, np.arange(2), np.array([1e2, 1e5, 1e11, 1e13])
    gains = np.stack([np.ones(4), (1 - targets) / (1 + targets)], axis=1)
    dopplers = np.full((4, 2), 0.1)
    for f, target in enumerate(targets):
        assert 0.9 < np.linalg.cond(build_channel(delays, gains[f], dopplers[f], n)) / target < 1.1
    rng = np.random.default_rng(3)
    z, w_f = stacked(rng, 2 * 4, n).reshape(2, 4, n), stacked(rng, 4, n)
    svds, cond = [], np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda h: svds.append(h) or cond(h))
    unguarded = equalize_all(delays, gains, dopplers, z.copy(), w_f, 0.0, "mmse")[0]
    certified = equalize_all(delays, gains, dopplers, z.copy(), w_f, 0.0, "zf")
    assert len(svds) == 3
    assert np.array_equal(certified[0][:, :3], unguarded[:, :3])

    def fails(a):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fails)
    svd_only = equalize_all(delays, gains, dopplers, z, w_f, 0.0, "zf")
    assert len(svds) == 3 + 4
    assert certified[1].tolist() == svd_only[1].tolist() == [False, False, False, True]
    assert np.array_equal(certified[0], svd_only[0])


@pytest.mark.parametrize("rho, equalizer", [(0.0, "zf"), (1e-20, "mmse")], ids=["zf", "mmse"])
def test_singular_banded_solve_refuses_its_frame(rho, equalizer):
    # frame 0's H has cond 0.99e12, which the ZF guard admits, yet the solve of its
    # H^H H + rho I meets an exact zero pivot (numpy's LinAlgError until it was
    # caught): that frame alone is refused, and frame 1 is equalized as on its own
    n, delays = 8, np.arange(2)
    gains = np.array([[1.0, 0.6788007455315704 - 0.7343225094342021j], [1.0, 0.3]])
    dopplers = np.array([[0.0, 0.3]] * 2)
    rng = np.random.default_rng(7)
    z, w_f = stacked(rng, 2 * 2, n).reshape(2, 2, n), stacked(rng, 2, n)
    alone, kept = equalize_all(delays, gains[1:], dopplers[1:], z[:, 1:].copy(), w_f[1:], rho,
                               equalizer)
    r_f, refused = equalize_all(delays, gains, dopplers, z, w_f, rho, equalizer)
    assert refused.tolist() == [True, False] and not kept.any()
    assert np.array_equal(r_f[:, 1:], alone)


@pytest.mark.parametrize("rho, zf", [(0.05, False), (0.0, True)], ids=["mmse", "zf"])
def test_banded_path_matches_per_bin_path(rho, zf):
    # the banded solve needs no Doppler, so on a quasi-static chunk with a
    # spectral null (frame 1) and no power (frame 3) the two paths, each
    # with its own guard, must refuse the same frames and agree on the rest
    rng = np.random.default_rng(6)
    n, delays = 16, np.arange(3)
    gains = np.array([[0.9, 0.3j, 0.1], [1.0, -1.0, 0.0], [0.5, 0.2 + 0.1j, -0.3], [0.0] * 3])
    dopplers = np.zeros((4, 3))
    z, w_f = stacked(rng, 2 * 4, n).reshape(2, 4, n), stacked(rng, 4, n)
    refused, banded = wl.channel._equalize_banded(delays, gains, dopplers, z.copy(), w_f, rho, zf)
    mask, per_bin = wl.channel._equalize_per_bin(delays, gains, dopplers, z, w_f, rho, zf)
    banded, per_bin = np.array(list(banded)), np.array(list(per_bin))
    assert np.array_equal(refused, mask)
    assert refused.tolist() == [False, zf, False, zf]
    kept = ~refused
    assert np.abs(banded[:, kept] - per_bin[:, kept]).max() < 1e-10


@pytest.mark.parametrize("equalizer", wl.channel.EQUALIZERS)
@pytest.mark.parametrize("max_doppler", [0.0, 0.3], ids=["per_bin", "banded"])
def test_target_bins_do_not_depend_on_the_other_targets(max_doppler, equalizer):
    # the banded path solves a frame once for all targets, as the columns of one
    # right-hand side; each column must come out as that target's solve alone
    rng = np.random.default_rng(8)
    frames, n, channel = 21, 120, wl.ChannelGenerator(num_taps=8, max_doppler=max_doppler)
    gains, dopplers = channel.draw([rng] * frames)
    z, w_f = stacked(rng, 3 * frames, n).reshape(3, frames, n), stacked(rng, frames, n)
    args = channel.delays, gains, dopplers
    for chunk in ((bins.copy() for bins in z), z.copy()):  # a generator, then a stack
        together, refused = equalize_all(*args, chunk, w_f, 0.05, equalizer)
        for bins, alone in zip(together, z):
            alone, kept = equalize_all(*args, alone[None].copy(), w_f, 0.05, equalizer)
            assert np.array_equal(refused, kept)
            assert np.array_equal(bins, alone[0])


@pytest.mark.parametrize("equalizer", wl.channel.EQUALIZERS)
@pytest.mark.parametrize("max_doppler", [0.0, 0.3], ids=["per_bin", "banded"])
def test_target_counts_do_not_depend_on_the_other_targets(max_doppler, equalizer):
    cfg = wl.SimConfig(channel=wl.ChannelGenerator(num_taps=4, max_doppler=max_doppler),
                       profile=wl.make_profile("impulse", 36),
                       targets=(TARGETS[0], TARGETS[4], TARGETS[3]), snr_db=(10.0, 20.0),
                       bits_per_point=10_000, seed=5, equalizer=equalizer)
    assert cfg.frames_per_point > 2 * sim.CHUNK_FRAMES  # several chunks a point
    alone = wl.run_ber(dataclasses.replace(cfg, targets=cfg.targets[1:2]))
    assert wl.run_ber(cfg)[1].points == alone[0].points


def frame_by_frame(cfg, target):
    """(errors, errors_sq, skipped_frames) of the first point, one frame at a time."""
    errors, skipped = [], 0
    for frame in range(cfg.frames_per_point):
        try:
            tx, rx = run_frame(cfg, wl.frame_rng(cfg.seed, 0, frame), target)
        except EqualizationError:
            skipped += 1
            continue
        errors.append(int(np.count_nonzero(tx != rx)))
    return sum(errors), sum(e * e for e in errors), skipped


FRAME_CFG = wl.SimConfig(
    channel=wl.ChannelGenerator(num_taps=4, max_doppler=0.2),
    profile=wl.make_profile("impulse", 36),
    targets=TARGETS[:5],
    snr_db=(15.0,),
    bits_per_point=10_000,
    seed=4,
)


class HalfWordChannel:
    """Two taps whose second gain, -1 or 0.5, is one ``integers(2)`` draw per
    stream, as ``test_frozen_counts.NullingChannel`` draws it: each stream is left
    holding a 32-bit half-word, which the engine's bit draw must read as numpy's own
    ``integers`` does. About half of the frames have a null at bin 0."""

    delays = np.arange(2)

    def draw(self, rngs):
        gains = np.array([[1.0, -1.0 if rng.integers(2) else 0.5] for rng in rngs], complex)
        return gains, np.zeros(gains.shape)


@pytest.mark.parametrize("cfg", [FRAME_CFG, dataclasses.replace(
    FRAME_CFG, channel=HalfWordChannel(), equalizer="zf")], ids=["doppler", "half_word"])
def test_run_frame_is_a_one_frame_chunk(cfg):
    curves = wl.run_ber(cfg)
    for target, curve in zip(cfg.targets, curves):
        point = curve.points[0]
        assert (point.errors, point.errors_sq, point.skipped_frames) == frame_by_frame(
            cfg, target)


@pytest.mark.parametrize("channel", [FRAME_CFG.channel, wl.ChannelGenerator(num_taps=4)],
                         ids=["doppler", "max_doppler_0"])
def test_chunk_draws_follow_the_per_frame_formulas(monkeypatch, channel):
    # each stream draws its channel (standard_normal(2P), then uniform(P), even at
    # max_doppler 0), its bits, then its noise (standard_normal(2N)); the chunk's
    # arrays hold exactly the per-frame formulas' values
    cfg = dataclasses.replace(FRAME_CFG, channel=channel)
    seen = {}

    def capture_labels(labels, order):
        seen.update(tx=labels)
        return wl.qam.qam_map(labels, order)

    def capture(delays, gains, dopplers, z, w_f, rho, equalizer):
        seen.update(gains=gains, dopplers=dopplers, w_f=w_f)
        return wl.equalize(delays, gains, dopplers, z, w_f, rho, equalizer)

    monkeypatch.setattr(sim, "qam_map", capture_labels)
    monkeypatch.setattr(sim, "equalize", capture)
    sim._chunk_job(cfg, 0, 0, 5)
    p, n, top = channel.num_taps, cfg.n, channel.max_doppler
    sigma_w = 10.0 ** (-cfg.snr_db[0] / 20.0)
    for f in range(5):
        rng = wl.frame_rng(cfg.seed, 0, f)
        gains = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2 * p)
        assert np.array_equal(seen["gains"][f], gains)
        assert np.array_equal(seen["dopplers"][f], rng.uniform(-top, top, p))
        bits = rng.integers(0, 2, size=cfg.bits_per_frame, dtype=np.uint8)
        assert np.array_equal(label_bits(seen["tx"][f], cfg.qam_order), bits)
        white = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (sigma_w / np.sqrt(2.0))
        assert np.array_equal(seen["w_f"][f], np.sqrt(cfg.profile.gains) * white)


@pytest.mark.parametrize("held", range(4))
@pytest.mark.parametrize("count", [2, 4, 6, 8, 10, 48, 144, 480, 720])  # every count % 8
def test_raw_word_bits_are_numpys_uint8_draw(count, held):
    # the streams first take `held` and `held + 1` one-bit draws: after an odd number
    # a 32-bit half-word is buffered, which the raw words would skip
    def streams():
        rngs = [np.random.default_rng([count, held, f]) for f in range(2)]
        for f, rng in enumerate(rngs):
            for _ in range(held + f):
                rng.integers(2)
        return rngs

    rngs, oracle = streams(), streams()
    bits = sim._draw_bits(rngs, count)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, [rng.integers(0, 2, size=count, dtype=np.uint8)
                                 for rng in oracle])
    for rng, twin in zip(rngs, oracle):  # each pair stands at the same 64-bit word
        assert np.array_equal(rng.standard_normal(3), twin.standard_normal(3))


class RecordingRng:
    """A generator that records the names of the attributes read from it."""

    def __init__(self, rng, names):
        self._rng, self._names = rng, names

    def __getattr__(self, name):
        self._names.add(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("max_doppler", [0.0, 0.3])
def test_engine_reads_normals_uniforms_and_raw_words_only(monkeypatch, max_doppler):
    cfg = dataclasses.replace(FRAME_CFG, channel=wl.ChannelGenerator(4, max_doppler))
    expected = wl.run_ber(cfg)
    names, frame_rng = set(), sim.frame_rng
    monkeypatch.setattr(sim, "frame_rng", lambda *key: RecordingRng(frame_rng(*key), names))
    assert wl.run_ber(cfg) == expected
    assert names == {"standard_normal", "random", "bit_generator"}


def test_errors_sq_sums_kept_frames_only(monkeypatch):
    skip_some_frames(monkeypatch)
    cfg = dataclasses.replace(FRAME_CFG, equalizer="zf")
    curves = wl.run_ber(cfg)
    # recorded from the bitwise engine: labels must not change which frames are refused
    assert [curve.points[0].skipped_frames for curve in curves] == [38] * len(curves)
    for target, curve in zip(cfg.targets, curves):
        point = curve.points[0]
        assert 0 < point.skipped_frames < point.frames
        assert (point.errors, point.errors_sq, point.skipped_frames) == frame_by_frame(
            cfg, target)


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
    # ten targets streamed through one chunk's per-bin equalizer
    "many_targets": {**BASE, "waveforms": [
        {"kind": "ofdm"}, *({"kind": "otfs", "l": l} for l in (3, 6, 10)),
        *({"kind": "afdm", "q": q, "alpha": 0.1} for q in (-8.0, -4.0, -1.0, 1.0, 4.0, 8.0)),
    ]},
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
    """Replace the channel of roughly half the frames (those whose first
    gain has a positive real part) by one with a spectral null (gains 1,
    -1, 0, ...), after the usual draw, so the streams do not change and
    zero-forcing refuses just those frames."""
    draw = wl.ChannelGenerator.draw

    def draw_or_null(gen, rngs):
        gains, dopplers = draw(gen, rngs)
        nulled = gains[:, 0].real > 0
        gains[nulled] = 0.0
        gains[nulled, :2] = 1.0, -1.0
        dopplers[nulled] = 0.0
        return gains, dopplers

    monkeypatch.setattr(wl.ChannelGenerator, "draw", draw_or_null)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("subcommand", ["ber", "sweep-l"])
def test_outputs_identical_across_threads_and_chunks(tmp_path, monkeypatch, name, subcommand):
    doc = dict(CONFIGS[name])
    if subcommand == "sweep-l":
        many = [1, 2, 3, 4, 5, 6, 10, 12, 30, 60]  # as many swept targets
        doc.update(snr_db=[25.0], l_values=many if name == "many_targets" else [1, 6, 60])
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
        # per curve and point, as recorded from the bitwise engine
        assert skipped == {"ber": [30, 22] * 3, "sweep-l": [30] * 3}[subcommand]
    else:
        assert not any(skipped)


def test_fixed_unequalizable_channel_fails_alike(tmp_path, monkeypatch):
    # every frame shares the fixed channel, so every frame is refused
    taps = [{"delay": 0, "gain_re": 1.0}, {"delay": 1, "gain_re": -1.0}]
    doc = {**CONFIGS["zf"], "channel": {"taps": taps}}
    for code, csvs, points in run_variants(tmp_path, monkeypatch, "ber", doc):
        assert (code, csvs, points) == (3, {}, None)
