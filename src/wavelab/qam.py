"""Gray-mapped square QAM with hard-decision demapping.

Bit convention: each symbol consumes log2(order) bits, MSB first, with
the first half addressing the in-phase level and the second half the
quadrature level. Levels on each axis are Gray-coded, so nearest
constellation neighbors always differ in exactly one bit. The alphabet
is scaled to unit average symbol energy.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError

QAM_ORDERS = (4, 16, 64)


def _axis_bits(order: int) -> int:
    if order not in QAM_ORDERS:
        raise ConfigError(f"QAM order must be one of {QAM_ORDERS}, got {order}")
    return int(np.log2(order)) // 2


def _gray_decode(g: np.ndarray) -> np.ndarray:
    # prefix-xor inverse of i -> i ^ (i >> 1), valid for values below 2^8
    b = g.copy()
    b ^= b >> 1
    b ^= b >> 2
    b ^= b >> 4
    return b


def energy_scale(order: int) -> float:
    """Per-axis level spacing that normalizes average symbol energy to 1."""
    return 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)


def qam_map(bits, order: int) -> np.ndarray:
    """Map 0/1 bits (..., B) to unit-energy Gray-coded QAM symbols, row by row."""
    mh = _axis_bits(order)
    m = 2 * mh
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] == 0 or bits.shape[-1] % m != 0:
        raise ConfigError(
            f"bit count must be a positive multiple of {m} for {order}-QAM, "
            f"got shape {bits.shape}"
        )
    grouped = bits.reshape(bits.shape[:-1] + (-1, m)).astype(np.int64)
    weights = 1 << np.arange(mh - 1, -1, -1)
    i_codes = grouped[..., :mh] @ weights
    q_codes = grouped[..., mh:] @ weights
    levels = 2.0 * np.arange(1 << mh) - ((1 << mh) - 1)
    scale = energy_scale(order)
    return scale * (
        levels[_gray_decode(i_codes)] + 1j * levels[_gray_decode(q_codes)]
    )


def qam_demap(symbols, order: int) -> np.ndarray:
    """Per-symbol minimum-distance hard decision back to bits (..., B)."""
    mh = _axis_bits(order)
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.ndim == 0:
        raise ConfigError("symbols must have at least one axis")
    top = (1 << mh) - 1
    scale = energy_scale(order)

    def axis_bits(values: np.ndarray) -> np.ndarray:
        idx = np.clip(np.rint((values / scale + top) / 2.0), 0, top).astype(np.int64)
        codes = idx ^ (idx >> 1)
        return ((codes[..., None] >> np.arange(mh - 1, -1, -1)) & 1).astype(np.uint8)

    i_bits = axis_bits(symbols.real)
    q_bits = axis_bits(symbols.imag)
    return np.concatenate([i_bits, q_bits], axis=-1).reshape(symbols.shape[:-1] + (-1,))
