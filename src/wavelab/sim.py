"""Seeded Monte-Carlo bit-error-rate engine.

A target (a waveform or an FDMA grid) offers ``N``, ``label``, ``slug``,
``precode`` (data to frequency-domain blocks z = Q c) and ``receive``
(equalized blocks to data, Q^{-1} r_f), both acting along the last axis
of a (frames, N) stack.

The engine is frame-major: at each SNR point it runs chunks of up to
``CHUNK_FRAMES`` frames, one :func:`_chunk_job` each. A chunk draws each
frame's channel taps, data bits (``integers(0, 2, B, uint8)``, see
:func:`_draw_bits`) and noise, in that order, from the frame's own stream
``frame_rng(seed, point, frame)``, running the arithmetic on the stacked
raw draws once. Every target sees the same draws: the compared waveforms,
or the L or q values of a sweep. The bits become QAM labels (see
:mod:`wavelab.qam`) and symbols; :func:`wavelab.channel.equalize` takes
each target from z to r_f, and each is received, decided and counted as
it arrives, so on a quasi-static channel a chunk holds one target's
(frames, N) arrays at a time (the banded solve reads every target's bins
before it returns, for they are its right-hand sides). A frame's bit
errors are the Hamming distances between sent and decided labels; a
frame the equalizer refuses is skipped for every target.

Chunks run one after another, so no memory grows with the bit budget.
Counts are integer sums over frames, so results are bit-identical at any
chunk size.

SNR is defined as E_s / sigma_w^2 with unit average symbol energy, unit
expected channel power, and noise profiles trace-normalized to N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import EQUALIZERS, ChannelGenerator, ChannelSpec, check_delays, equalize
from .exceptions import ConfigError, EqualizationError, shown
from .noise import NoiseProfile, sample_noise
from .qam import POPCOUNT, QAM_ORDERS, qam_decide, qam_label, qam_map

MIN_BITS_PER_POINT = 10_000

# Frames drawn and run together; at N=120 one (frames, N) complex array
# of a chunk takes 61 kB, and a quasi-static chunk holds a few of them.
CHUNK_FRAMES = 32


@dataclass(frozen=True)
class SimConfig:
    """Full description of one BER experiment.

    ``targets`` run under shared draws and share one block length N: the
    waveforms compared, or one FDMA grid of several. ``channel`` is either a
    ChannelGenerator (redrawn every frame, block fading) or a fixed
    ChannelSpec.
    """

    channel: ChannelGenerator | ChannelSpec
    profile: NoiseProfile
    targets: tuple
    qam_order: int = 16
    snr_db: tuple[float, ...] = (25.0,)
    bits_per_point: int = 200_000
    seed: int = 0
    equalizer: str = "mmse"

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        if not self.targets:
            raise ConfigError("need at least one target")
        if self.qam_order not in QAM_ORDERS:
            raise ConfigError(f"'qam_order' must be one of {QAM_ORDERS}, "
                              f"got {shown(self.qam_order)}")
        if len(self.snr_db) == 0:
            raise ConfigError("need at least one SNR point")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ConfigError(f"SNR points must be finite, got {list(self.snr_db)}")
        try:  # the noise power sigma_w**2 overflows below about -3082.5 dB
            _sigma_w(min(self.snr_db)) ** 2
        except OverflowError:
            raise ConfigError(f"'snr_db' {min(self.snr_db)!r} overflows sigma_w**2") from None
        if self.bits_per_point < MIN_BITS_PER_POINT:
            raise ConfigError(f"'bits_per_point' must be >= {MIN_BITS_PER_POINT}, "
                              f"got {shown(self.bits_per_point)}")
        if self.equalizer not in EQUALIZERS:
            raise ConfigError(f"'equalizer' must be one of {EQUALIZERS}, got {self.equalizer!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        n = self.n
        for target in self.targets:
            if target.N != n:
                raise ConfigError(f"every target must have one grid size 'n', "
                                  f"got {n} and {target.N}")
        if self.profile.N != n:
            raise ConfigError(f"noise profile length {self.profile.N} does not match N={n}")
        check_delays(self.channel.delays, n)

    @property
    def n(self) -> int:
        return self.targets[0].N

    @property
    def bits_per_frame(self) -> int:
        return self.n * int(np.log2(self.qam_order))

    @property
    def frames_per_point(self) -> int:
        return math.ceil(self.bits_per_point / self.bits_per_frame)


@dataclass(frozen=True)
class BerPoint:
    """Error counts at one SNR point; BER is exactly errors / bits."""

    snr_db: float
    bits: int
    errors: int
    skipped_frames: int = 0
    frames: int = 0  # frames drawn, skipped ones included
    errors_sq: int = 0  # sum over kept frames of the squared per-frame error count

    @property
    def ber(self) -> float:
        return self.errors / self.bits

    @property
    def stderr(self) -> float:
        # binomial standard error of the BER estimate
        p = self.ber
        return math.sqrt(p * (1.0 - p) / self.bits)


@dataclass(frozen=True)
class BerCurve:
    label: str
    points: tuple[BerPoint, ...]


def config_fingerprint(cfg: SimConfig) -> str:
    """Stable digest of everything that determines the results."""
    import hashlib  # only ber writes the digest

    doc = {
        "targets": [t.describe() for t in cfg.targets],
        "channel": cfg.channel.describe(),
        "profile": {"kind": cfg.profile.kind, "gains": [repr(g) for g in cfg.profile.gains]},
        "qam_order": cfg.qam_order,
        "snr_db": list(cfg.snr_db),
        "bits_per_point": cfg.bits_per_point,
        "seed": cfg.seed,
        "equalizer": cfg.equalizer,
    }
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def frame_rng(seed: int, point_index: int, frame_index: int) -> np.random.Generator:
    """Counter-derived stream: independent of chunk size and waveform."""
    return np.random.default_rng([seed, point_index, frame_index])


def _draw_bits(rngs, count: int) -> np.ndarray:
    """Each stream's ``integers(0, 2, count, uint8)``, from its raw 64-bit words: numpy
    keeps the top bit of each byte of its 32-bit words, low byte first, and PCG64 gives
    a word's low half, then its high half. A stream holding a buffered half-word draws
    with ``integers`` itself. Where numpy's draw ends on a half-word, this one buffers
    none, which no later 64-bit draw reads."""
    words = -(-count // 8)
    held = [rng.bit_generator.state["has_uint32"] for rng in rngs]
    raw = np.array([np.zeros(words, np.uint64) if h else rng.bit_generator.random_raw(words)
                    for h, rng in zip(held, rngs)])
    bits = raw.astype("<u8", copy=False).view(np.uint8)[:, :count] >> 7
    for f in np.flatnonzero(held):
        bits[f] = rngs[f].integers(0, 2, size=count, dtype=np.uint8)
    return bits


def _sigma_w(snr_db: float) -> float:
    return 10.0 ** (-float(snr_db) / 20.0)


def _chunk_job(cfg: SimConfig, point: int, start: int, stop: int):
    """Run frames ``start`` to ``stop`` of SNR point ``point`` on every target.

    Returns the (targets, 2) sums over the kept frames of each frame's bit
    errors and of their squares, and the count of kept frames.
    """
    rngs = [frame_rng(cfg.seed, point, f) for f in range(start, stop)]
    sigma_w = _sigma_w(cfg.snr_db[point])
    gains, dopplers = cfg.channel.draw(rngs)  # each stream draws channel, bits, noise
    tx = qam_label(_draw_bits(rngs, cfg.bits_per_frame), cfg.qam_order)
    w_f = sample_noise(cfg.profile, sigma_w, rngs)
    symbols = qam_map(tx, cfg.qam_order)
    refused, r_f = equalize(cfg.channel.delays, gains, dopplers,
                            (target.precode(symbols) for target in cfg.targets), w_f, sigma_w**2,
                            cfg.equalizer)
    kept = ~refused
    sums = np.zeros((len(cfg.targets), 2), dtype=np.int64)
    for target, target_sums, r in zip(cfg.targets, sums, r_f):  # each counted as it arrives
        labels = qam_decide(target.receive(r), cfg.qam_order)
        frame_errors = POPCOUNT[labels ^ tx].sum(axis=1, dtype=np.int64)[kept]
        target_sums[:] = frame_errors.sum(), (frame_errors**2).sum()
    return sums, int(kept.sum())


def run_ber(cfg: SimConfig) -> list[BerCurve]:
    """Accumulate frames over the bit budget at every SNR point.

    Returns one curve per target. A frame the equalizer refuses is skipped
    for every target; raises EqualizationError at the first point whose
    frames all are. Deterministic for fixed (config, seed).
    """
    frames, points = cfg.frames_per_point, len(cfg.snr_db)
    errors = np.zeros((len(cfg.targets), points, 2), dtype=np.int64)  # sum, sum of squares
    kept = [0] * points
    for pi, snr_db in enumerate(cfg.snr_db):
        for start in range(0, frames, CHUNK_FRAMES):
            sums, chunk_kept = _chunk_job(cfg, pi, start, min(start + CHUNK_FRAMES, frames))
            errors[:, pi] += sums
            kept[pi] += chunk_kept
        if kept[pi] == 0:
            raise EqualizationError(
                f"all {frames} frames at {snr_db} dB were skipped as unequalizable"
            )
    return [
        BerCurve(target.label, tuple(
            BerPoint(snr_db, k * cfg.bits_per_frame, int(e), frames - k, frames, int(e2))
            for snr_db, k, (e, e2) in zip(cfg.snr_db, kept, target_errors)
        ))
        for target, target_errors in zip(cfg.targets, errors)
    ]
