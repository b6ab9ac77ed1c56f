"""Seeded Monte-Carlo bit-error-rate engine.

The engine is frame-major: at each SNR point it draws a chunk of up to
``CHUNK_FRAMES`` frames and runs every target on the shared draws. A
target (a waveform or an FDMA layout) offers ``N``, ``label``, ``slug``,
``precode`` (data to frequency-domain blocks z = Q c) and ``receive``
(equalized blocks to data, Q^{-1} r_f), both acting along the last axis
of a (frames, N) stack; :func:`wavelab.channel.equalize` takes a chunk
from z to r_f. Each frame draws channel taps, data bits and noise, in
that order, from its own stream ``frame_rng(seed, point, frame)``, and is
drawn once: compared waveforms and the L or q values of a sweep see the
same draws. A frame refused by zero-forcing is skipped for every target.
``threads`` spreads chunks over worker threads, one per CPU at most;
counts are integer sums over frames, so results are bit-identical at any
thread count and chunk size.

SNR is defined as E_s / sigma_w^2 with unit average symbol energy, unit
expected channel power, and noise profiles trace-normalized to N.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .channel import EQUALIZERS, ChannelGenerator, ChannelSpec, check_delays, equalize
from .exceptions import ConfigError, EqualizationError
from .fdma import BlockLayout
from .noise import NoiseProfile, sample_noise
from .qam import QAM_ORDERS, qam_demap, qam_map
from .waveform import WaveformConfig

MIN_BITS_PER_POINT = 10_000

# Frames drawn and run together; at N=120 one (frames, N) complex array
# of a chunk takes 61 kB.
CHUNK_FRAMES = 32


@dataclass(frozen=True)
class SimConfig:
    """Full description of one BER experiment.

    Exactly one of ``waveforms`` (compared under shared draws) or
    ``layout`` (a multi-waveform FDMA grid, quasi-static channels only)
    must be provided. ``channel`` is either a ChannelGenerator (redrawn
    every frame, block fading) or a fixed ChannelSpec.
    """

    channel: ChannelGenerator | ChannelSpec
    profile: NoiseProfile
    waveforms: tuple[WaveformConfig, ...] = ()
    layout: BlockLayout | None = None
    qam_order: int = 16
    snr_db: tuple[float, ...] = (25.0,)
    bits_per_point: int = 200_000
    seed: int = 0
    equalizer: str = "mmse"

    def __post_init__(self):
        object.__setattr__(self, "waveforms", tuple(self.waveforms))
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        if (len(self.waveforms) == 0) == (self.layout is None):
            raise ConfigError("provide either waveforms or a block layout, not both")
        if self.qam_order not in QAM_ORDERS:
            raise ConfigError(f"QAM order must be one of {QAM_ORDERS}")
        if len(self.snr_db) == 0:
            raise ConfigError("need at least one SNR point")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ConfigError(f"SNR points must be finite, got {list(self.snr_db)}")
        if self.bits_per_point < MIN_BITS_PER_POINT:
            raise ConfigError(
                f"bit budget per point must be >= {MIN_BITS_PER_POINT}, "
                f"got {self.bits_per_point}"
            )
        if self.equalizer not in EQUALIZERS:
            raise ConfigError(f"equalizer must be one of {EQUALIZERS}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        n = self.n
        for target in self.targets():
            if target.N != n:
                raise ConfigError("all waveforms must share one subcarrier count")
        if self.profile.N != n:
            raise ConfigError(
                f"noise profile length {self.profile.N} does not match N={n}"
            )
        check_delays(self.channel.delays, n)
        if self.layout is not None and self.channel.max_doppler != 0.0:
            raise ConfigError(
                "FDMA layouts support quasi-static channels only; "
                "Doppler breaks block independence"
            )

    @property
    def n(self) -> int:
        return self.targets()[0].N

    def targets(self) -> tuple:
        return self.waveforms if self.layout is None else (self.layout,)

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
        "targets": [t.describe() for t in cfg.targets()],
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
    """Counter-derived stream: independent of worker count and waveform."""
    return np.random.default_rng([seed, point_index, frame_index])


def _run_chunk(cfg: SimConfig, targets, rngs, sigma_w: float):
    """Draw one frame from each generator and run every target on it.

    Returns the sent bits (frames, B), the decided bits (targets, frames,
    B) and the (frames,) bool mask of the frames zero-forcing refused.
    """
    draws = [  # per frame: channel, bits, noise, in that order
        (*cfg.channel.draw(rng), rng.integers(0, 2, size=cfg.bits_per_frame, dtype=np.uint8),
         sample_noise(cfg.profile, sigma_w, rng))
        for rng in rngs
    ]
    gains, dopplers, bits, w_f = (np.array(column) for column in zip(*draws))
    symbols = qam_map(bits, cfg.qam_order)
    z = np.array([target.precode(symbols) for target in targets])
    r_f, refused = equalize(cfg.channel.delays, gains, dopplers, z, w_f, sigma_w**2,
                            cfg.equalizer)
    rx = [qam_demap(target.receive(r), cfg.qam_order) for target, r in zip(targets, r_f)]
    return bits, np.array(rx), refused


def _sigma_w(snr_db: float) -> float:
    return 10.0 ** (-float(snr_db) / 20.0)


def run_ber(cfg: SimConfig, threads: int = 1) -> list[BerCurve]:
    """Accumulate frames over the bit budget at every SNR point.

    Returns one curve per configured waveform (a single curve for a
    layout). Chunks run on up to ``threads`` worker threads, at most one
    per CPU. A frame zero-forcing refuses is skipped for every target;
    raises EqualizationError when every frame of a point is. Deterministic
    for fixed (config, seed) at any thread count.
    """
    targets = cfg.targets()
    frames = cfg.frames_per_point
    chunks = [range(s, min(s + CHUNK_FRAMES, frames)) for s in range(0, frames, CHUNK_FRAMES)]
    jobs = [(pi, chunk) for pi in range(len(cfg.snr_db)) for chunk in chunks]

    def run(job):
        pi, chunk = job
        rngs = [frame_rng(cfg.seed, pi, f) for f in chunk]
        tx, rx, refused = _run_chunk(cfg, targets, rngs, _sigma_w(cfg.snr_db[pi]))
        kept = ~refused
        return np.count_nonzero(rx[:, kept] != tx[kept], axis=(1, 2)), int(kept.sum())

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: pools only

        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = map(run, jobs)  # streamed: one chunk's counts at a time
    errors = np.zeros((len(targets), len(cfg.snr_db)), dtype=np.int64)
    kept = [0] * len(cfg.snr_db)
    for (pi, _), (chunk_errors, chunk_kept) in zip(jobs, results):
        errors[:, pi] += chunk_errors
        kept[pi] += chunk_kept
    for snr_db, point_kept in zip(cfg.snr_db, kept):
        if point_kept == 0:
            raise EqualizationError(
                f"all {frames} frames at {snr_db} dB were skipped as unequalizable"
            )
    return [
        BerCurve(target.label, tuple(
            BerPoint(snr_db, k * cfg.bits_per_frame, int(e), frames - k, frames)
            for snr_db, k, e in zip(cfg.snr_db, kept, target_errors)
        ))
        for target, target_errors in zip(targets, errors)
    ]


def _swept(cfg: SimConfig, key: str, waveforms) -> SimConfig:
    """``cfg`` running ``waveforms``, one per value of the swept list ``key``."""
    if len(cfg.snr_db) != 1:
        raise ConfigError("parameter sweeps need a template with exactly one SNR point")
    if not waveforms:
        raise ConfigError(f"config: {key!r} must be a nonempty list")
    return replace(cfg, waveforms=tuple(waveforms))


def sweep_l(cfg: SimConfig, l_values) -> SimConfig:
    """``cfg`` (one SNR point) running OTFS at each grid size L, for :func:`run_ber`.

    Every L shares the same per-frame channel, bits, and noise draws, so
    differences reflect the precoder alone. Each L must divide N.
    """
    n = cfg.n
    configs = []
    for l in l_values:
        l = int(l)
        if l < 1 or n % l != 0:
            raise ConfigError(f"L={l} does not divide N={n}")
        configs.append(WaveformConfig.otfs(n // l, l))
    return _swept(cfg, "l_values", configs)


def sweep_q(cfg: SimConfig, q_values, alpha: float = 0.1) -> SimConfig:
    """``cfg`` (one SNR point) running AFDM at each chirp rate q, alpha held fixed."""
    configs = []
    for q in q_values:
        q = float(q)
        if q == 0.0:
            raise ConfigError("q=0 degenerates to OFDM; sweep values must be nonzero")
        configs.append(WaveformConfig.afdm(cfg.n, q, alpha))
    return _swept(cfg, "q_values", configs)
