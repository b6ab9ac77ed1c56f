"""OFDM, OTFS, and AFDM as precoded OFDM.

All three schemes are expressed as precoded OFDM: the transmitted block is
x = F^H Q c, where F is the size-N unitary DFT and the precoder Q is the
identity for OFDM, a Kronecker-structured delay-Doppler mapping for OTFS,
and a double-chirp product for AFDM. Receivers undo the precoding with
the demodulation matrix Q^{-1} after frequency-domain equalization.

:class:`WaveformConfig` is the one operator surface: ``precode`` (z = Q c)
and ``receive`` (Q^{-1} r_f) use FFT-based forms, so simulation loops never
pay for O(N^2) matrix products; the one F^H between them belongs to the
channel (:func:`wavelab.channel.equalize`). They act along the last axis: a
stack of blocks (..., N) is transformed row by row. The CLI's whitening and
sparsity analysis uses ``row_magnitudes`` and ``demod_power`` (along the last
axis too), which take |Q^{-1}| from each waveform's structure at any N. The dense precoders and
closed forms of Q^{-1} they are checked against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError, kind_entry, shown

OFDM = "ofdm"
OTFS = "otfs"
AFDM = "afdm"
# The one table of waveform kinds: each kind's config keys besides kind and n.
KINDS = {OFDM: (), OTFS: ("k", "l"), AFDM: ("q", "alpha")}


@dataclass(frozen=True)
class WaveformConfig:
    """Parameters of one multicarrier waveform.

    Attributes:
        kind: one of "ofdm", "otfs", "afdm".
        N: number of subcarriers (block length).
        K, L: OTFS delay-Doppler grid dimensions; K * L must equal N.
        q, alpha: AFDM chirp rates, reals whose chirp phase pi*rate*k^2/N
            stays finite for every k < N.
    """

    kind: str
    N: int
    K: int = 0
    L: int = 0
    q: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        kind_entry(KINDS, self.kind, "waveform")  # refuses an unknown kind
        if self.N < 1:
            raise ConfigError(f"subcarrier count must be >= 1, got {self.N}")
        if self.kind == OTFS:
            if self.K < 1 or self.L < 1:
                raise ConfigError("OTFS requires positive grid dimensions K and L")
            if self.K * self.L != self.N:
                raise ConfigError(f"waveform: 'n' = {shown(self.N)} is not the OTFS grid size "
                                  f"k*l = {shown(self.K * self.L)}")
        if self.kind == AFDM:
            for name, rate in (("q", self.q), ("alpha", self.alpha)):
                if not math.isfinite(chirp_phase(self.N, rate, self.N - 1)):  # the largest k
                    raise ConfigError(f"AFDM waveform: {name!r} = {rate!r} makes the chirp "
                                      f"phase pi*{name}*k**2/N overflow for k < N = {self.N}")

    @classmethod
    def ofdm(cls, n: int) -> "WaveformConfig":
        return cls(OFDM, n)

    @classmethod
    def otfs(cls, k: int, l: int) -> "WaveformConfig":
        return cls(OTFS, k * l, K=k, L=l)

    @classmethod
    def afdm(cls, n: int, q: float, alpha: float = 0.0) -> "WaveformConfig":
        return cls(AFDM, n, q=float(q), alpha=float(alpha))

    @property
    def label(self) -> str:
        if self.kind == OTFS:
            return f"OTFS (L={self.L})"
        if self.kind == AFDM:
            return f"AFDM (q={self.q:g})"
        return "OFDM"

    @property
    def slug(self) -> str:
        """Filesystem-safe identifier used in output file names."""
        if self.kind == OTFS:
            return f"otfs_k{self.K}_l{self.L}"
        if self.kind == AFDM:
            text = f"afdm_q{self.q:g}_a{self.alpha:g}"
            return text.replace("-", "m").replace(".", "p")
        return "ofdm"

    def describe(self) -> dict:
        return asdict(self)

    def precode(self, data) -> np.ndarray:
        """Data symbols (..., N) to frequency-domain blocks z = Q c."""
        c = _as_vector(data, self.N)
        if self.kind == OFDM:
            return c.copy()
        if self.kind == OTFS:
            # column-major vec of the K x L delay-Doppler grid, held as (..., L, K)
            grid = c.reshape(c.shape[:-1] + (self.L, self.K))
            x = np.fft.ifft(grid, axis=-2, norm="ortho").reshape(c.shape)
        else:
            chirped = chirp_diagonal(self.N, self.alpha) * c
            x = chirp_diagonal(self.N, self.q) * np.fft.ifft(chirped, norm="ortho")
        return np.fft.fft(x, norm="ortho")

    def receive(self, r_f) -> np.ndarray:
        """Equalized frequency-domain blocks (..., N) to data, Q^{-1} r_f."""
        v = _as_vector(r_f, self.N)
        if self.kind == OFDM:
            return v.copy()
        if self.kind == OTFS:
            grid = np.fft.ifft(v, norm="ortho").reshape(v.shape[:-1] + (self.L, self.K))
            return np.fft.fft(grid, axis=-2, norm="ortho").reshape(v.shape)
        dechirped = chirp_diagonal(self.N, self.q).conj() * np.fft.ifft(v, norm="ortho")
        return chirp_diagonal(self.N, self.alpha).conj() * np.fft.fft(dechirped, norm="ortho")

    def row_magnitudes(self) -> np.ndarray:
        """|Q^{-1}_{0,v}|. Every row of |Q^{-1}| permutes these values; alpha
        does not enter, as Lambda_alpha is a unit-modulus diagonal."""
        n = self.N
        if self.kind == OFDM:
            return np.eye(1, n)[0]
        if self.kind == OTFS:
            return np.where(np.arange(n) % self.L == 0, np.sqrt(self.L / n), 0.0)
        # row 0 of the circulant factor is the Gauss-sum column reversed, c_{-v mod N}
        return np.abs(np.roll(afdm_inverse_column(n, self.q)[::-1], 1)) / np.sqrt(n)

    def demod_power(self, gains) -> np.ndarray:
        """|Q^{-1}|^2 @ gains for gains (..., N), each row as if alone, without forming
        Q^{-1}: O(N) a row, or O(N log N) for AFDM."""
        g = _as_vector(gains, self.N, float)
        if np.any(g < 0):
            raise ConfigError("noise gains must be nonnegative")
        if self.kind == OFDM:
            return g.copy()
        if self.kind == OTFS:  # row u sums the residue class floor(u/K) mod L
            classes = g.reshape(g.shape[:-1] + (self.K, self.L)).sum(-2)
            return np.repeat(classes * (self.L / self.N), self.K, axis=-1)
        # |Q^{-1}_{m,v}|^2 = r_{(v-m) mod N}^2; clip the FFT rounding below 0
        spectrum = np.fft.rfft(self.row_magnitudes() ** 2).conj() * np.fft.rfft(g, axis=-1)
        return np.maximum(np.fft.irfft(spectrum, self.N, axis=-1), 0.0)


def _as_vector(x, n: int, dtype=complex) -> np.ndarray:
    v = np.asarray(x, dtype=dtype)
    if v.ndim == 0 or v.shape[-1] != n:
        raise DimensionError(f"expected length-{n} vectors, got shape {v.shape}")
    return v


def chirp_phase(n: int, rate, k):
    """pi*rate*k^2/n, k a scalar or an array: every chirp phase and its bounds use this."""
    return np.pi * rate / n * k * k


def chirp_diagonal(n: int, rate: float) -> np.ndarray:
    """Diagonal of the chirp matrix: entries exp(1j*pi*rate*k^2/n)."""
    return np.exp(1j * chirp_phase(n, rate, np.arange(n)))


def afdm_inverse_column(n: int, q: float) -> np.ndarray:
    """Generalized quadratic Gauss sum defining the AFDM demodulator.

    Entry u is (1/sqrt(n)) * sum_k exp(-1j*pi*q*k^2/n) * exp(-2j*pi*k*u/n),
    i.e. the sqrt(n)-scaled first column of the circulant chirp factor of
    Q^{-1}. For integer q with n/q integer the column is sparse with n/|q|
    evenly spaced nonzeros; for generic real q it is dense.
    """
    if n < 1:
        raise DimensionError(f"column length must be >= 1, got {n}")
    return np.fft.fft(chirp_diagonal(n, q).conj()) / np.sqrt(n)
