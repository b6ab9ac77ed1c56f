"""Sparsity metrics and chirp-spectrum identities for demodulation matrices.

The whitening capability of a demodulator follows from how densely its
rows mix the noise bins, so this module measures matrix sparsity and
mechanically checks the factorization that explains why the AFDM
demodulator is generally dense: a rational chirp rate a/b turns the
size-N quadratic Gauss sum into a size-bN chirp spectrum convolved with a
rectangular-window (Dirichlet kernel) spectrum, then decimated by b.
Both checks take and return plain values: :func:`row_sparsity` counts the
nonzeros each row holds without forming the matrix (its dense oracle
``sparsity_profile`` lives in ``tests/oracles.py``), and
:func:`verify_decimation_identity` takes the integers a and b, in lowest
terms or not.
"""

from __future__ import annotations

import numpy as np

from .exceptions import MAX_EXPANDED_SIZE, ConfigError, DimensionError
from .waveform import afdm_inverse_column, chirp_phase


def row_sparsity(row, tol: float) -> int:
    """Nonzeros per row, above ``tol`` times the largest magnitude, of a square
    matrix whose rows all permute the magnitudes of ``row``, as
    :meth:`WaveformConfig.row_magnitudes` gives, in O(N). Its density is this
    count over N."""
    if tol <= 0:
        raise ConfigError(f"sparsity tolerance must be > 0, got {tol}")
    mags = np.abs(np.asarray(row))
    return int((mags > tol * mags.max()).sum())


def verify_decimation_identity(n: int, a: int, b: int) -> float:
    """Check the rational-chirp factorization of the Gauss-sum column.

    Builds the length-bN sequence exp(-1j*pi*a*k^2/(bN)) windowed to
    k < N, takes the size-bN unitary DFT, and keeps every b-th output.
    The retained samples, multiplied by the scale constant
    sqrt(bN)/sqrt(N) = sqrt(b) that bridges the 1/sqrt(bN) transform
    normalization to the 1/sqrt(N) column convention, must reproduce
    afdm_inverse_column(N, a/b). Returns the max absolute difference.
    """
    if n < 1 or b < 1:
        raise DimensionError(f"block size and denominator must be >= 1, got {n} and {b}")
    bn = b * n
    if bn > MAX_EXPANDED_SIZE:
        raise DimensionError(
            f"expanded transform size {bn} exceeds the {MAX_EXPANDED_SIZE} guard"
        )
    seq = np.zeros(bn, dtype=complex)
    seq[:n] = np.exp(-1j * chirp_phase(bn, a, np.arange(n)))
    decimated = np.fft.fft(seq, norm="ortho")[::b] * np.sqrt(b)
    column = afdm_inverse_column(n, a / b)
    return float(np.max(np.abs(decimated - column)))


def rect_window_spectrum(n: int, b: int) -> np.ndarray:
    """Size-bN unitary DFT of the length-N rectangular window, at every index u.

    Closed form: exp(-1j*pi*u*(1/b - 1/(bN))) / sqrt(bN)
                 * sin(pi*u/b) / sin(pi*u/(bN)),
    with the removable singularity at u = 0 filled by continuity,
    N / sqrt(bN). This Dirichlet kernel is the spectrum of the window
    factor in the decimation identity.
    """
    bn = b * n
    u = np.arange(bn)
    with np.errstate(invalid="ignore"):  # 0/0 at u = 0, filled below
        spectrum = (np.exp(-1j * np.pi * u * (1.0 / b - 1.0 / bn)) / np.sqrt(bn)
                    * np.sin(np.pi * u / b) / np.sin(np.pi * u / bn))
    spectrum[0] = n / np.sqrt(bn)
    return spectrum
