"""Sparsity metrics and chirp-spectrum identities for demodulation matrices.

The whitening capability of a demodulator follows from how densely its
rows mix the noise bins, so this module measures matrix sparsity and
mechanically checks the factorization that explains why the AFDM
demodulator is generally dense: a rational chirp rate a/b turns the
size-N quadratic Gauss sum into a size-bN chirp spectrum convolved with a
rectangular-window (Dirichlet kernel) spectrum, then decimated by b.
The CLI uses :func:`row_sparsity`, which never forms the matrix; its dense
oracle ``sparsity_profile`` lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError
from .waveform import afdm_inverse_column

DEFAULT_SPARSITY_TOL = 1e-9

# Largest array length a config may ask for: a grid size N, a tap count or
# a size-bN transform of the decimation identity. The parse refuses more,
# naming the key, before any array is allocated.
MAX_EXPANDED_SIZE = 1 << 20


@dataclass(frozen=True, eq=False)
class SparsityReport:
    """Nonzero structure of a matrix at a relative magnitude threshold."""

    row_counts: np.ndarray
    density: float
    tol: float
    label: str


def row_sparsity(row, tol: float = DEFAULT_SPARSITY_TOL, label: str = "") -> SparsityReport:
    """:func:`sparsity_profile` of a square matrix whose rows all permute the
    magnitudes of ``row``, as :meth:`WaveformConfig.row_magnitudes` gives, in O(N)."""
    if tol <= 0:
        raise ConfigError(f"sparsity tolerance must be > 0, got {tol}")
    mags = np.abs(np.asarray(row))
    n = mags.size
    counts = np.full(n, int((mags > tol * mags.max()).sum()))
    return SparsityReport(counts, float(counts.sum()) / (n * n), tol, label)


@dataclass(frozen=True)
class RationalChirp:
    """Reduced rational approximation a/b of a chirp rate."""

    a: int
    b: int
    error: float

    def __post_init__(self):
        if self.b < 1:
            raise ConfigError(f"denominator must be >= 1, got {self.b}")
        if math.gcd(abs(self.a), self.b) != 1:
            raise ConfigError(f"{self.a}/{self.b} is not gcd-reduced")


def rational_chirp_decompose(q: float, tol: float = 1e-9) -> RationalChirp:
    """Smallest-denominator fraction a/b with |q - a/b| <= tol.

    Uses exact rational arithmetic on the binary value of ``q`` and a
    binary search over the maximum denominator (best-approximation error
    is non-increasing in the denominator bound), so the result is both
    within tolerance and minimal in b. The denominator is bounded by
    ceil(1/tol), which always suffices.
    """
    from fractions import Fraction  # with decimal: only verify-appendix calls this

    if tol <= 0:
        raise ConfigError(f"tolerance must be > 0, got {tol}")
    exact = Fraction(q)
    bound = Fraction(tol)
    lo, hi = 1, max(1, math.ceil(1.0 / tol))
    while lo < hi:
        mid = (lo + hi) // 2
        if abs(exact - exact.limit_denominator(mid)) <= bound:
            hi = mid
        else:
            lo = mid + 1
    frac = exact.limit_denominator(lo)
    return RationalChirp(frac.numerator, frac.denominator, float(abs(q - frac)))


def verify_decimation_identity(n: int, chirp: RationalChirp) -> float:
    """Check the rational-chirp factorization of the Gauss-sum column.

    Builds the length-bN sequence exp(-1j*pi*a*k^2/(bN)) windowed to
    k < N, takes the size-bN unitary DFT, and keeps every b-th output.
    The retained samples, multiplied by the scale constant
    sqrt(bN)/sqrt(N) = sqrt(b) that bridges the 1/sqrt(bN) transform
    normalization to the 1/sqrt(N) column convention, must reproduce
    afdm_inverse_column(N, a/b). Returns the max absolute difference.
    """
    if n < 1:
        raise DimensionError(f"block size must be >= 1, got {n}")
    bn = chirp.b * n
    if bn > MAX_EXPANDED_SIZE:
        raise DimensionError(
            f"expanded transform size {bn} exceeds the {MAX_EXPANDED_SIZE} guard"
        )
    k = np.arange(n)
    seq = np.zeros(bn, dtype=complex)
    seq[:n] = np.exp((-1j * np.pi * chirp.a / bn) * k * k)
    decimated = np.fft.fft(seq, norm="ortho")[:: chirp.b] * np.sqrt(chirp.b)
    column = afdm_inverse_column(n, chirp.a / chirp.b)
    return float(np.max(np.abs(decimated - column)))


def rect_window_spectrum(n: int, b: int, u: int) -> complex:
    """Size-bN unitary DFT of the length-N rectangular window, at index u.

    Closed form: exp(-1j*pi*u*(1/b - 1/(bN))) / sqrt(bN)
                 * sin(pi*u/b) / sin(pi*u/(bN)),
    with the removable singularity at u = 0 filled by continuity,
    N / sqrt(bN). This Dirichlet kernel is the spectrum of the window
    factor in the decimation identity.
    """
    bn = b * n
    if not 0 <= u < bn:
        raise IndexError(f"index {u} out of range for size {bn}")
    if u == 0:
        return complex(n / np.sqrt(bn))
    phase = np.exp(-1j * np.pi * u * (1.0 / b - 1.0 / bn))
    return complex(phase / np.sqrt(bn) * np.sin(np.pi * u / b) / np.sin(np.pi * u / bn))
