"""Multi-waveform FDMA: different waveforms on disjoint blocks of one DFT grid.

Each block precodes its own data (z_i = Q_i c_i); the concatenated
frequency-domain vector is synthesized with a single size-N inverse DFT.
Because the blocks occupy disjoint bins, they stay orthogonal over any
channel that is diagonal in frequency, and each receiver only needs the
size-N DFT plus its own Q_i^{-1}. Composition and splitting act along the
last axis, so a stack of frames (..., N) is handled row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError
from .waveform import WaveformConfig, apply_inverse_precoder, apply_precoder


@dataclass(frozen=True)
class Block:
    """One contiguous sub-band carrying a single waveform."""

    config: WaveformConfig
    start: int

    @property
    def width(self) -> int:
        return self.config.N

    @property
    def stop(self) -> int:
        return self.start + self.width


@dataclass(frozen=True)
class BlockLayout:
    """Ordered, contiguous, non-overlapping blocks covering [0, N)."""

    blocks: tuple[Block, ...]
    slug = "fdma"  # not a field: names the output files of any layout

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ConfigError("layout needs at least one block")
        expected = 0
        for i, block in enumerate(self.blocks):
            if block.start != expected:
                raise ConfigError(
                    f"block {i} starts at bin {block.start}, expected {expected}; "
                    "blocks must be contiguous and non-overlapping"
                )
            expected = block.stop

    @property
    def N(self) -> int:
        return self.blocks[-1].stop

    @property
    def label(self) -> str:
        return "FDMA[" + "+".join(b.config.label for b in self.blocks) + "]"

    def describe(self) -> dict:
        return {"layout": [b.config.describe() for b in self.blocks]}

    def transmit(self, data) -> np.ndarray:
        """Data symbols (..., N), block after block, to time-domain blocks."""
        data = np.asarray(data, dtype=complex)
        return compose_fdma(self, [data[..., sl] for sl in self.slices()])

    def receive(self, r_f) -> np.ndarray:
        """Equalized frequency-domain blocks (..., N) to every block's data."""
        return np.concatenate(split_frequency(r_f, self), axis=-1)

    @classmethod
    def from_configs(cls, configs) -> "BlockLayout":
        """Lay the given waveform configs out back to back from bin 0."""
        blocks = []
        start = 0
        for cfg in configs:
            blocks.append(Block(cfg, start))
            start += cfg.N
        return cls(tuple(blocks))

    def slices(self):
        return [slice(b.start, b.stop) for b in self.blocks]


def compose_fdma(layout: BlockLayout, data_blocks) -> np.ndarray:
    """Precode each block, concatenate in frequency, and synthesize.

    ``data_blocks`` holds one data array (..., N_i) per block, all with
    the same leading shape. Returns the time-domain signal (..., N).
    """
    if len(data_blocks) != len(layout.blocks):
        raise DimensionError(
            f"got {len(data_blocks)} data blocks for {len(layout.blocks)} layout blocks"
        )
    data = [np.asarray(d, dtype=complex) for d in data_blocks]
    z = np.zeros(data[0].shape[:-1] + (layout.N,), dtype=complex)
    for block, c in zip(layout.blocks, data):
        if c.shape != z.shape[:-1] + (block.width,):
            raise DimensionError(
                f"block at bin {block.start} expects {block.width} symbols, "
                f"got shape {c.shape}"
            )
        z[..., block.start : block.stop] = apply_precoder(block.config, c)
    return np.fft.ifft(z, norm="ortho")


def split_frequency(r_f, layout: BlockLayout) -> list[np.ndarray]:
    """Slice equalized frequency-domain vectors (..., N) and undo each precoder."""
    r_f = np.asarray(r_f, dtype=complex)
    if r_f.ndim == 0 or r_f.shape[-1] != layout.N:
        raise DimensionError(
            f"expected length-{layout.N} frequency vectors, got shape {r_f.shape}"
        )
    return [
        apply_inverse_precoder(block.config, r_f[..., block.start : block.stop])
        for block in layout.blocks
    ]


def decompose_fdma(y, layout: BlockLayout, freq_gains=None) -> list[np.ndarray]:
    """Recover per-block data vectors from a received time-domain block.

    Applies the size-N DFT, optionally multiplies by per-bin equalizer
    gains, then slices and applies each block's Q_i^{-1}.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != (layout.N,):
        raise DimensionError(
            f"expected a length-{layout.N} time vector, got shape {y.shape}"
        )
    r_f = np.fft.fft(y, norm="ortho")
    if freq_gains is not None:
        gains = np.asarray(freq_gains, dtype=complex)
        if gains.shape != (layout.N,):
            raise DimensionError(
                f"equalizer gains must have length {layout.N}, got shape {gains.shape}"
            )
        r_f = gains * r_f
    return split_frequency(r_f, layout)
