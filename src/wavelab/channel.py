"""Doubly dispersive channels and linear equalizers.

A channel is a sum of taps, each applying a cyclic delay and a per-sample
Doppler modulation: H = sum_l h_l * Delta(theta_l) * Pi^l, where Pi is the
forward cyclic shift and Delta(theta) = diag(exp(2j*pi*theta*n/N)). With
all Doppler shifts zero the matrix is circulant and diagonalizes in the
DFT basis, which :func:`equalize` exploits for per-bin equalization.

A random ``ChannelGenerator`` and a fixed ``ChannelSpec`` share one
surface: ``delays``, ``max_doppler``, ``describe()`` and ``draw(rng) ->
(gains, dopplers)``. The channel functions take those arrays, of shape
(..., P) for P delays, leading axes over frames. ``equalize`` carries a
whole chunk of frames, per bin or through the cyclic band H^H H + rho I
built from the taps. The dense ZF/MMSE equalizers it is checked against
(G as a plain N x N array) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError

# Zero-forcing refuses channels whose condition number exceeds this.
CONDITION_LIMIT = 1e12
EQUALIZERS = ("mmse", "zf")


@dataclass(frozen=True)
class ChannelTap:
    """One propagation path: integer sample delay, complex gain, Doppler.

    ``doppler`` is normalized to cycles per block (dimensionless).
    """

    delay: int
    gain: complex
    doppler: float = 0.0

    def __post_init__(self):
        if self.delay < 0:
            raise ConfigError(f"tap delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class ChannelGenerator:
    """Statistical description of a random channel.

    Taps sit at delays 0 .. num_taps-1 (uniform delay profile) with i.i.d.
    circularly symmetric complex Gaussian gains of variance 1/num_taps, so
    the expected total power is 1. Doppler shifts are drawn uniformly in
    [-max_doppler, +max_doppler] per tap.
    """

    num_taps: int
    max_doppler: float = 0.0

    def __post_init__(self):
        if self.num_taps < 1:
            raise ConfigError(f"channel needs at least one tap, got {self.num_taps}")
        if self.max_doppler < 0:
            raise ConfigError("max_doppler must be >= 0")

    @property
    def delays(self) -> np.ndarray:
        return np.arange(self.num_taps)

    def describe(self) -> dict:
        return {"generator": {"num_taps": self.num_taps, "max_doppler": self.max_doppler}}

    def draw(self, rng: np.random.Generator):
        """One realization: gains, then Doppler shifts, from ``rng``."""
        nt = self.num_taps
        gains = (rng.standard_normal(nt) + 1j * rng.standard_normal(nt)) / np.sqrt(2 * nt)
        return gains, rng.uniform(-self.max_doppler, self.max_doppler, nt)


@dataclass(frozen=True)
class ChannelSpec:
    """A concrete tap list; delays may repeat or skip. Draws nothing."""

    taps: tuple[ChannelTap, ...]

    def __post_init__(self):
        if len(self.taps) == 0:
            raise ConfigError("channel spec needs at least one tap")

    @property
    def delays(self) -> np.ndarray:
        return np.array([tap.delay for tap in self.taps])

    @property
    def max_doppler(self) -> float:
        return max(abs(tap.doppler) for tap in self.taps)

    def describe(self) -> dict:
        return {"taps": [[t.delay, t.gain.real, t.gain.imag, t.doppler] for t in self.taps]}

    def draw(self, rng: np.random.Generator):
        gains = np.array([tap.gain for tap in self.taps], dtype=complex)
        return gains, np.array([tap.doppler for tap in self.taps], dtype=float)


def check_delays(delays, n: int) -> None:
    """Refuse taps whose delay does not fit in a block of ``n`` samples."""
    if max(delays) >= n:
        raise ConfigError(f"tap delay {max(delays)} does not fit in a block of {n} samples")


def build_channel(delays, gains, dopplers, n: int) -> np.ndarray:
    """Realize one frame's dense N x N matrix H = sum_l h_l Delta(theta_l) Pi^l."""
    check_delays(delays, n)
    h = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for delay, gain, doppler in zip(delays, gains, dopplers):
        h[rows, (rows - delay) % n] += gain * np.exp(1j * (2 * np.pi * doppler / n) * rows)
    return h


def apply_channel(delays, gains, dopplers, x: np.ndarray) -> np.ndarray:
    """Apply the channel to blocks x (..., N) without materializing H; the
    leading axes of gains/dopplers (..., P) broadcast against those of x."""
    n = x.shape[-1]
    check_delays(delays, n)
    rows = np.arange(n)
    out = np.zeros(x.shape, dtype=complex)
    for p, delay in enumerate(delays):
        ramp = np.exp(1j * (2 * np.pi * dopplers[..., p, None] / n) * rows)
        out += gains[..., p, None] * (np.roll(x, delay, axis=-1) * ramp)
    return out


def frequency_response(delays, gains, dopplers, n: int) -> np.ndarray:
    """Per-bin transfer functions (..., N), the diagonals of F H F^H. Only
    valid when every tap has zero Doppler, so that H is circulant."""
    if np.any(dopplers != 0.0):
        raise ConfigError("frequency_response requires a quasi-static channel")
    check_delays(delays, n)
    first_col = np.zeros(gains.shape[:-1] + (n,), dtype=complex)
    for p, delay in enumerate(delays):  # a scatter-add: delays may repeat
        first_col[..., delay] += gains[..., p]
    return np.fft.fft(first_col)


def equalize(delays, gains, dopplers, z, w_f, rho: float, equalizer: str):
    """Send a chunk's precoded bins z (targets, frames, N) through its
    channels (gains/dopplers (frames, P)), add its noise w_f (frames, N),
    and equalize each frame with G = (H^H H + rho I)^{-1} H^H: per bin when
    every Doppler is zero, else by one solve of (H^H H + rho I) x = H^H y per
    frame with the targets as right-hand sides. ``equalizer`` is one of
    EQUALIZERS: "mmse", or "zf", which is rho = 0 behind the condition
    guard. ``z`` may be overwritten.

    Returns the equalized bins (targets, frames, N) and ``refused``, a
    (frames,) bool mask of the frames whose condition number zero-forcing
    refuses (all False under MMSE); a refused frame's bins carry no estimate.
    """
    if equalizer not in EQUALIZERS:
        raise ConfigError(f"equalizer must be one of {EQUALIZERS}")
    if not rho >= 0:  # NaN as well
        raise ConfigError(f"noise-to-signal ratio must be >= 0, got {rho}")
    n, per_bin = z.shape[-1], not np.any(dopplers)
    condition = np.zeros(len(gains))  # MMSE refuses no frame
    if per_bin:
        h_f = frequency_response(delays, gains, dopplers, n)
        mags = np.abs(h_f)
        if equalizer == "zf":
            top, bottom = mags.max(axis=-1), np.maximum(mags.min(axis=-1), np.finfo(float).tiny)
            condition = np.where(top > 0, top / bottom, np.inf)  # no power: no inverse
    elif equalizer == "zf":
        hs = (build_channel(delays, g, d, n) for g, d in zip(gains, dopplers))
        condition = np.array([np.linalg.cond(h) for h in hs])
    refused = ~(condition <= CONDITION_LIMIT)  # NaN and inf as well
    rho = 0.0 if equalizer == "zf" else rho
    if per_bin:
        # H is circulant: r_f = (h_f . z + w_f) . G_f per bin, in place to hold one copy
        mags[refused] = np.inf  # a refused frame gets zero gains
        z *= h_f
        z += w_f
        z *= h_f.conj() / (mags**2 + rho)
        return z, refused
    # H = sum_p diag(u_p) Pi^{d_p} with u_p[m] = h_p exp(2j pi theta_p m / N),
    # so H^H y = sum_p Pi^{-d_p} (u_p^* . y) and neither it nor H^H H needs H
    rows = np.arange(n)
    u = gains[..., None] * np.exp(1j * (2 * np.pi / n) * dopplers[..., None] * rows)
    y = apply_channel(delays, gains, dopplers, np.fft.ifft(z, norm="ortho"))
    y += np.fft.ifft(w_f, norm="ortho")
    rhs = sum(np.roll(u[:, p].conj() * y, -d, axis=-1) for p, d in enumerate(delays))
    # H^H H is a cyclic band: A[i, i + d_a - d_b] += u_a^*[i + d_a] u_b[i + d_a]
    diffs = (delays[:, None] - delays) % n
    deltas = np.array(sorted(set(diffs.flat)))  # np.unique would import numpy.ma
    band_of = deltas.searchsorted(diffs)
    band = np.zeros((len(gains), len(deltas), n), dtype=complex)
    for (a, b), k in np.ndenumerate(band_of):
        band[:, k] += np.roll(u[:, a].conj() * u[:, b], -delays[a], axis=-1)
    band[:, 0] += rho  # deltas[0] == 0
    cols, gram = (rows + deltas[:, None]) % n, np.zeros((n, n), dtype=complex)
    for f in range(len(gains)):
        if refused[f]:  # its bins keep H^H y
            continue
        gram[rows, cols] = band[f]
        rhs[:, f] = np.linalg.solve(gram, rhs[:, f].T).T
    return np.fft.fft(rhs, norm="ortho"), refused
