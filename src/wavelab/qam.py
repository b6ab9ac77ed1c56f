"""Gray-mapped square QAM with hard decisions on symbol labels.

Bit convention: each symbol consumes m = log2(order) bits, MSB first, with
the first half addressing the in-phase level and the second half the
quadrature level. A symbol's label is those m bits read as one integer,
(i_code << m/2) | q_code. Levels on each axis are Gray-coded, so nearest
constellation neighbors always differ in exactly one bit, and the bit
errors of a decision are the Hamming distance between the sent and the
decided label: ``POPCOUNT[sent ^ decided]``. The alphabet is scaled to
unit average symbol energy.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError

QAM_ORDERS = (4, 16, 64)
# set bits of every label of the largest alphabet; labels are uint8
POPCOUNT = np.array([bin(label).count("1") for label in range(max(QAM_ORDERS))], np.uint8)


def _axis_bits(order: int) -> int:
    if order not in QAM_ORDERS:
        raise ConfigError(f"QAM order must be one of {QAM_ORDERS}, got {order}")
    return int(np.log2(order)) // 2


def energy_scale(order: int) -> float:
    """Per-axis level spacing that normalizes average symbol energy to 1."""
    return 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)


def qam_label(bits, order: int) -> np.ndarray:
    """Pack 0/1 bits (..., B) into symbol labels (..., B / log2(order))."""
    m = 2 * _axis_bits(order)
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] == 0 or bits.shape[-1] % m != 0:
        raise ConfigError(
            f"bit count must be a positive multiple of {m} for {order}-QAM, "
            f"got shape {bits.shape}"
        )
    return bits.reshape(bits.shape[:-1] + (-1, m)) @ (1 << np.arange(m, dtype=np.uint8)[::-1])


def qam_map(labels, order: int) -> np.ndarray:
    """Map symbol labels (...) to unit-energy Gray-coded QAM symbols."""
    mh = _axis_bits(order)
    idx = np.arange(1 << mh)
    axis = np.empty(1 << mh)
    axis[idx ^ (idx >> 1)] = 2.0 * idx - ((1 << mh) - 1)  # level i at its Gray code
    return (energy_scale(order) * (axis[:, None] + 1j * axis)).reshape(-1)[labels]


def qam_decide(symbols, order: int) -> np.ndarray:
    """Per-symbol minimum-distance hard decision, as labels (...)."""
    mh = _axis_bits(order)
    top = (1 << mh) - 1
    axes = np.ascontiguousarray(symbols, dtype=complex).view(float)  # I, Q, I, Q, ...
    idx = np.clip(np.rint((axes / energy_scale(order) + top) / 2.0), 0, top).astype(np.uint8)
    codes = idx ^ (idx >> 1)
    return ((codes[..., 0::2] << mh) | codes[..., 1::2]).reshape(np.shape(symbols))
