"""Non-white Gaussian noise profiles and whitening metrics.

Noise is modeled in the frequency domain with a diagonal covariance
sigma_w^2 * Gamma_f; the per-bin gains gamma_n^2 on the diagonal are held
in a :class:`NoiseProfile`, trace-normalized to N so that total noise
power is the same for every profile and SNR comparisons stay fair. Each
stock kind has one builder, listed in :data:`PROFILES` with the keywords it
takes; :func:`make_profile` dispatches to it.
:func:`sample_noise` draws one w_f per generator, as a (frames, N) array.

:func:`whitening_std` quantifies the whitening capability of a
demodulation matrix Q^{-1}: the standard deviation of the demodulated
per-subcarrier noise variance (the CLI's :meth:`WaveformConfig.demod_power`;
its oracle ``demod_noise_variance`` in ``tests/oracles.py`` takes a dense
Q^{-1}). A flat output profile (std 0) means the matrix fully whitened the
input.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError, kind_entry, shown

# Seed and tap count of the fixed channel behind the default "equalized" profile.
DEFAULT_EQUALIZED_SEED = 7
DEFAULT_EQUALIZED_TAPS = 4
# The 2 * DEFAULT_EQUALIZED_TAPS standard normals default_rng(DEFAULT_EQUALIZED_SEED)
# draws first, written out: the default profile needs no random generator, and
# stays the same if a numpy release changes the Generator stream (NEP 19).
DEFAULT_EQUALIZED_NORMALS = (
    0.0012301533574825742, 0.2987455375084699, -0.2741378553622176, -0.8905918387572742,
    -0.45467078517172255, -0.9916465549964624, 0.060143602597438485, 1.3402152455545335,
)
# Clip on 1/|H_f|^2 so near-null bins do not dominate the trace.
DEFAULT_GAIN_CAP = 1e4
DEFAULT_POWER_FRACTION = 0.9

TRACE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class NoiseProfile:
    """Diagonal frequency-domain covariance gains gamma_n^2, trace N."""

    gains: np.ndarray
    kind: str

    def __post_init__(self):
        gains = np.array(self.gains, dtype=float)
        if gains.ndim != 1 or gains.size < 1:
            raise DimensionError(f"gains must be a nonempty 1-D vector, got {gains.shape}")
        if np.any(gains < 0):
            raise ConfigError("noise gains must be nonnegative")
        n = gains.size
        if abs(gains.sum() - n) > TRACE_TOL * n:
            raise ConfigError(
                f"noise gains must be trace-normalized to N={n}, got {gains.sum():.6g}"
            )
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)

    @property
    def N(self) -> int:
        return self.gains.size


def _normalized(gains: np.ndarray, kind: str) -> NoiseProfile:
    return NoiseProfile(gains * (gains.size / gains.sum()), kind)


def _concentrated(n: int, bins: np.ndarray, power_fraction: float, kind: str) -> NoiseProfile:
    """The distinct ``bins`` carry ``power_fraction`` of the power; the rest
    is spread uniformly over the other bins."""
    count = bins.size
    # when every bin carries it, power_fraction is the total the normalization divides by
    low = sys.float_info.min if count == n else 0.0
    if not low <= power_fraction <= 1.0:
        raise ConfigError(f"{kind} profile 'power_fraction' must be in [{low!r}, 1], "
                          f"got {power_fraction!r}")
    gains = np.full(n, (1.0 - power_fraction) * n / (n - count) if count < n else 0.0)
    gains[bins] = power_fraction * n / count
    return _normalized(gains, kind)


def _white(n: int) -> NoiseProfile:
    """Flat gains, gamma_n^2 = 1."""
    return NoiseProfile(np.ones(n), "white")


def _impulse(n: int, *, spikes: int | None = None, spike_offset: int = 0,
             power_fraction: float = DEFAULT_POWER_FRACTION) -> NoiseProfile:
    """``spikes`` isolated bins, evenly spaced starting at ``spike_offset``,
    carry ``power_fraction`` of the power; the rest is spread uniformly. The
    default spike count is max(1, N // 32), so when 32 divides N the spikes
    sit 32 bins apart. If 32 also divides an OTFS grid's L (e.g. N = 1024,
    L = 32), each residue class mod L holds only spikes or none of them, OTFS
    averages nothing, and its whitening std ties OFDM's; set ``spikes`` to
    compare such grids."""
    p = max(1, n // 32) if spikes is None else spikes
    if not 1 <= p <= n:
        raise ConfigError(f"impulse profile 'spikes' must be in [1, {n}], got {shown(p)}")
    # the offset is reduced mod n first, so one past int64 neither overflows nor wraps
    return _concentrated(n, (spike_offset % n + (np.arange(p) * n) // p) % n, power_fraction,
                         "impulse")


def _interferer(n: int, *, width: int | None = None, start: int = 0,
                power_fraction: float = DEFAULT_POWER_FRACTION) -> NoiseProfile:
    """One contiguous block of ``width`` bins starting at ``start`` carries
    ``power_fraction`` of the power; the rest is spread uniformly. The
    default width is N // 8 + 1: a width that is a multiple of a
    demodulator's row-support spacing would be averaged perfectly and
    collapse whitening comparisons to a tie."""
    w = (n // 8 + 1) if width is None else width
    if not 1 <= w <= n:
        raise ConfigError(f"interferer profile 'width' must be in [1, {n}], got {shown(w)}")
    return _concentrated(n, (start % n + np.arange(w)) % n, power_fraction, "interferer")


def _equalized(n: int, *, num_taps: int = DEFAULT_EQUALIZED_TAPS,
               gain_cap: float = DEFAULT_GAIN_CAP,
               seed: int = DEFAULT_EQUALIZED_SEED) -> NoiseProfile:
    """Gains proportional to min(1/|H_f|^2, ``gain_cap``) for a seeded random
    ``num_taps``-tap uniform-profile channel, mimicking white noise shaped by
    zero-forcing equalization. ``num_taps`` is at most N, so every tap enters
    H_f. The taps come from 2 * ``num_taps`` standard normals of
    ``default_rng(seed)``, real parts first; the default seed and tap count
    read them from DEFAULT_EQUALIZED_NORMALS, so only other values load
    ``numpy.random``. ``gain_cap`` must be at least the smallest normal
    float, so the trace normalization, which can scale by 1/gain_cap, stays
    finite."""
    if not 1 <= num_taps <= n:  # np.fft.fft(taps, n) would crop the taps past n
        raise ConfigError(f"equalized profile 'num_taps' must be in [1, {n}], "
                          f"got {shown(num_taps)}")
    if seed < 0:
        raise ConfigError(f"equalized profile 'seed' must be >= 0, got {shown(seed)}")
    if not gain_cap >= sys.float_info.min:  # NaN as well
        raise ConfigError(f"equalized profile 'gain_cap' must be >= {sys.float_info.min!r}, "
                          f"where 1/gain_cap stays finite, got {gain_cap!r}")
    if (seed, num_taps) == (DEFAULT_EQUALIZED_SEED, DEFAULT_EQUALIZED_TAPS):
        raw = np.array(DEFAULT_EQUALIZED_NORMALS)
    else:
        raw = np.random.default_rng(seed).standard_normal(2 * num_taps)
    taps = (raw[:num_taps] + 1j * raw[num_taps:]) / np.sqrt(2 * num_taps)
    h_f = np.fft.fft(taps, n)
    gains = np.minimum(1.0 / np.abs(h_f) ** 2, gain_cap)
    return _normalized(gains, "equalized")


# The one table of noise kinds: each kind's builder, and the keywords it takes by type.
PROFILES = {
    "white": (_white, {}),
    "impulse": (_impulse, {"spikes": int, "spike_offset": int, "power_fraction": float}),
    "interferer": (_interferer, {"width": int, "start": int, "power_fraction": float}),
    "equalized": (_equalized, {"num_taps": int, "gain_cap": float, "seed": int}),
}


def make_profile(kind: str, n: int, **params) -> NoiseProfile:
    """The stock per-bin variance profile ``kind`` of length ``n``,
    trace-normalized to N, built by that kind's builder in :data:`PROFILES`;
    a keyword the kind does not take raises TypeError."""
    builder = kind_entry(PROFILES, kind, "noise")[0]
    if n < 1:
        raise ConfigError(f"profile length must be >= 1, got {n}")
    return builder(n, **params)


def sample_noise(profile: NoiseProfile, sigma_w: float, rngs) -> np.ndarray:
    """Draw one frequency-domain noise vector w_f = Gamma_f^{1/2} w_w per
    generator, (frames, N), with E{w_f w_f^H} = sigma_w^2 * diag(profile.gains)."""
    if sigma_w < 0:
        raise ConfigError(f"sigma_w must be >= 0, got {sigma_w}")
    n = profile.N
    raw = np.array([rng.standard_normal(2 * n) for rng in rngs])  # two n-draws each
    white = (raw[:, :n] + 1j * raw[:, n:]) * (sigma_w / np.sqrt(2.0))
    return np.sqrt(profile.gains) * white


def whitening_std(v) -> float:
    """Population standard deviation of the demodulated variance vector.

    Computed on v divided by the power of two of max|v|, which is exact, so
    no square overflows."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    _, exp = np.frexp(np.abs(v).max())
    u = np.ldexp(v, -exp)
    return float(np.ldexp(np.sqrt(np.mean((u - u.mean()) ** 2)), exp))
