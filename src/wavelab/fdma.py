"""Multi-waveform FDMA: different waveforms on disjoint blocks of one DFT grid.

``BlockLayout(configs)`` lays the waveforms out back to back from bin 0,
and is a target like a waveform; ``blocks`` holds each waveform's bins as a
``slice(start, stop)``. ``precode`` writes each block's precoded data
z_i = Q_i c_i into its bins (one size-N inverse DFT of the result is the
time-domain block); ``receive`` applies each Q_i^{-1} to its block's bins,
and ``demod_power`` each block's |Q_i^{-1}|^2 to its bins' noise gains.
The blocks stay orthogonal over any channel that is diagonal in frequency.
Layout data is the blocks' data back to back, and all three methods act along
the last axis of frames (..., N).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError
from .waveform import WaveformConfig, _as_vector


@dataclass(frozen=True)
class BlockLayout:
    """Waveform blocks laid out back to back from bin 0, covering [0, N)."""

    configs: tuple[WaveformConfig, ...]
    blocks: tuple[slice, ...] = field(init=False)  # each config's bins, derived
    slug = "fdma"  # not a field: names the output files of any layout

    def __post_init__(self):
        configs = tuple(self.configs)
        if not configs:
            raise ConfigError("layout needs at least one block")
        bounds = list(itertools.accumulate((c.N for c in configs), initial=0))
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "blocks", tuple(map(slice, bounds, bounds[1:])))

    @property
    def N(self) -> int:
        return self.blocks[-1].stop

    @property
    def label(self) -> str:
        return "FDMA[" + "+".join(c.label for c in self.configs) + "]"

    def describe(self) -> dict:
        return {"layout": [c.describe() for c in self.configs]}

    def precode(self, data) -> np.ndarray:
        """Data symbols (..., N), block after block, to frequency-domain blocks."""
        c = _as_vector(data, self.N)
        z = np.empty_like(c)
        for wf, sl in zip(self.configs, self.blocks):
            z[..., sl] = wf.precode(c[..., sl])
        return z

    def receive(self, r_f) -> np.ndarray:
        """Equalized frequency-domain blocks (..., N) to every block's data."""
        v = _as_vector(r_f, self.N)
        return np.concatenate(
            [wf.receive(v[..., sl]) for wf, sl in zip(self.configs, self.blocks)], axis=-1
        )

    def demod_power(self, gains) -> np.ndarray:
        """Noise gains (..., N) to each block's demodulated noise power on its bins."""
        g = _as_vector(gains, self.N, float)
        return np.concatenate(
            [wf.demod_power(g[..., sl]) for wf, sl in zip(self.configs, self.blocks)], axis=-1
        )
