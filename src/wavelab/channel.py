"""Doubly dispersive channels and linear equalizers.

A channel is a sum of taps, each applying a cyclic delay and a per-sample
Doppler modulation: H = sum_l h_l * Delta(theta_l) * Pi^l, where Pi is the
forward cyclic shift and Delta(theta) = diag(exp(2j*pi*theta*n/N)). With
all Doppler shifts zero the matrix is circulant and diagonalizes in the
DFT basis, which the simulator exploits for per-bin equalization. The
dense ZF/MMSE equalizers return G as a plain N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError, EqualizationError

# Zero-forcing refuses channels whose condition number exceeds this.
CONDITION_LIMIT = 1e12


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


@dataclass(frozen=True)
class ChannelSpec:
    """A concrete tap list."""

    taps: tuple[ChannelTap, ...]

    def __post_init__(self):
        if len(self.taps) == 0:
            raise ConfigError("channel spec needs at least one tap")

    @property
    def max_delay(self) -> int:
        return max(tap.delay for tap in self.taps)

    def is_quasi_static(self) -> bool:
        return all(tap.doppler == 0.0 for tap in self.taps)


IDENTITY_CHANNEL = ChannelSpec(taps=(ChannelTap(0, 1.0 + 0.0j, 0.0),))


def realize_random_channel(
    gen: ChannelGenerator, rng: np.random.Generator
) -> ChannelSpec:
    """Draw one channel realization from ``gen`` using ``rng``."""
    nt = gen.num_taps
    gains = (rng.standard_normal(nt) + 1j * rng.standard_normal(nt)) / np.sqrt(2 * nt)
    dopplers = rng.uniform(-gen.max_doppler, gen.max_doppler, nt)
    taps = tuple(
        ChannelTap(l, complex(gains[l]), float(dopplers[l])) for l in range(nt)
    )
    return ChannelSpec(taps=taps)


def build_channel(spec: ChannelSpec, n: int) -> np.ndarray:
    """Realize the dense N x N matrix H = sum_l h_l Delta(theta_l) Pi^l."""
    if spec.max_delay >= n:
        raise ConfigError(
            f"tap delay {spec.max_delay} does not fit in a block of {n} samples"
        )
    h = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for tap in spec.taps:
        h[rows, (rows - tap.delay) % n] += tap.gain * np.exp(
            (2j * np.pi * tap.doppler / n) * rows
        )
    return h


def apply_channel(spec: ChannelSpec, x: np.ndarray) -> np.ndarray:
    """Apply the channel to blocks (..., N) without materializing H."""
    n = x.shape[-1]
    if spec.max_delay >= n:
        raise ConfigError(
            f"tap delay {spec.max_delay} does not fit in a block of {n} samples"
        )
    rows = np.arange(n)
    out = np.zeros(x.shape, dtype=complex)
    for tap in spec.taps:
        shifted = np.roll(x, tap.delay, axis=-1)
        if tap.doppler != 0.0:
            shifted = shifted * np.exp((2j * np.pi * tap.doppler / n) * rows)
        out += tap.gain * shifted
    return out


def frequency_response(spec: ChannelSpec, n: int) -> np.ndarray:
    """Per-bin transfer function of a quasi-static channel.

    Returns the diagonal of F H F^H. Only valid when every tap has zero
    Doppler, in which case H is circulant.
    """
    if not spec.is_quasi_static():
        raise ConfigError("frequency_response requires a quasi-static channel")
    if spec.max_delay >= n:
        raise ConfigError(
            f"tap delay {spec.max_delay} does not fit in a block of {n} samples"
        )
    first_col = np.zeros(n, dtype=complex)
    for tap in spec.taps:
        first_col[tap.delay] += tap.gain
    return np.fft.fft(first_col)


def to_frequency(m) -> np.ndarray:
    """Similarity transform F M F^H by the unitary DFT."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return np.fft.ifft(np.fft.fft(m, axis=0, norm="ortho"), axis=1, norm="ortho")


def _as_channel_matrix(h) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected a square channel matrix, got shape {h.shape}")
    return h


def zf_equalizer(h) -> np.ndarray:
    """Zero-forcing equalizer G = (H^H H)^{-1} H^H, as an N x N array.

    Raises EqualizationError (with the condition estimate attached) when
    the channel is too ill-conditioned to invert reliably.
    """
    hm = _as_channel_matrix(h)
    condition = float(np.linalg.cond(hm))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise EqualizationError(
            f"channel condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}",
            condition,
        )
    return np.linalg.solve(hm.conj().T @ hm, hm.conj().T)


def mmse_equalizer(h, rho: float) -> np.ndarray:
    """Regularized linear equalizer G = (H^H H + rho I)^{-1} H^H, as an N x N array."""
    if rho < 0:
        raise ConfigError(f"noise-to-signal ratio must be >= 0, got {rho}")
    hm = _as_channel_matrix(h)
    n = hm.shape[0]
    return np.linalg.solve(hm.conj().T @ hm + rho * np.eye(n), hm.conj().T)
