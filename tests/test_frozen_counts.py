"""Frozen error counts of tiny engine runs.

Each case pins the literal per-point ``errors`` and ``skipped_frames`` of a
small ``run_ber`` config, an L sweep among them, so a refactor of the engine, the
targets or the channel layer that moves a single decision shows here. The
literals were recorded before the precode/equalize split and must not be
re-recorded to make a change pass. ``dispersive_zf_refused``, which
reaches the banded path's zero-forcing guard, was recorded before
``channel.equalize`` split into its per-bin and banded path functions.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import wavelab as wl

N = 16


@dataclass(frozen=True)
class NullingChannel:
    """Two taps at delays 0 and 1; about half of the frames draw gains
    [1, -1], whose response has an exact null at bin 0, and the rest draw
    [1, 0.5] with ``max_doppler`` on the second tap. A nonzero
    ``max_doppler`` thus sends each chunk through the banded path, whose
    null frames stay singular. Offers the channel surface the engine reads."""

    max_doppler: float = 0.0

    @property
    def delays(self):
        return np.arange(2)

    def describe(self):
        return {"nulling": {"max_doppler": self.max_doppler}}

    def draw(self, rngs):
        nulls = [bool(rng.integers(2)) for rng in rngs]
        gains = np.array([[1.0, -1.0 if null else 0.5] for null in nulls], dtype=complex)
        return gains, np.array([[0.0, 0.0 if null else self.max_doppler] for null in nulls])


def waveforms(n=N):
    return (
        wl.WaveformConfig.ofdm(n),
        wl.WaveformConfig.otfs(4, n // 4),
        wl.WaveformConfig.afdm(n, -4.0, 0.1),
    )


def sim(channel, noise="white", n=N, **overrides):
    base = dict(
        channel=channel,
        profile=wl.make_profile(noise, n),
        targets=waveforms(n),
        snr_db=(5.0, 15.0),
        bits_per_point=10_000,
        seed=3,
    )
    base.update(overrides)
    return wl.SimConfig(**base)


FIXED_TAPS = wl.ChannelSpec(
    delays=[0, 1, 3],
    gains=[0.8 + 0.1j, 0.4 - 0.2j, -0.2 + 0.3j],
    dopplers=[0.0, 0.2, 0.0],
)

CASES = {
    "quasi_static_mmse": lambda: sim(wl.ChannelGenerator(4)),
    "quasi_static_zf_refused": lambda: sim(NullingChannel(), equalizer="zf"),
    "dispersive_mmse": lambda: sim(wl.ChannelGenerator(4, 0.3), noise="impulse"),
    "dispersive_zf": lambda: sim(wl.ChannelGenerator(4, 0.3), equalizer="zf"),
    "dispersive_zf_refused": lambda: sim(NullingChannel(0.2), equalizer="zf"),
    "fdma_layout": lambda: sim(
        wl.ChannelGenerator(4),
        targets=(wl.BlockLayout(
            [wl.WaveformConfig.ofdm(8), wl.WaveformConfig.afdm(8, -4.0, 0.1),
             wl.WaveformConfig.otfs(2, 4)]
        ),),
        profile=wl.make_profile("white", 24),
    ),
    "fixed_taps_doppler": lambda: sim(FIXED_TAPS, snr_db=(10.0, 20.0)),
}

# per case: for each target, (errors, skipped_frames) at each SNR point
FROZEN = {
    "dispersive_mmse": [[(1704, 0), (428, 0)], [(2270, 0), (614, 0)], [(2197, 0), (592, 0)]],
    "dispersive_zf": [[(2499, 0), (753, 0)], [(3035, 0), (1146, 0)], [(3027, 0), (1116, 0)]],
    "dispersive_zf_refused": [
        [(775, 84), (81, 78)], [(867, 84), (50, 78)], [(895, 84), (48, 78)]
    ],
    "fdma_layout": [[(2392, 0), (519, 0)]],
    "fixed_taps_doppler": [[(1095, 0), (150, 0)], [(1300, 0), (124, 0)], [(1266, 0), (97, 0)]],
    "quasi_static_mmse": [[(2244, 0), (566, 0)], [(2437, 0), (583, 0)], [(2432, 0), (560, 0)]],
    "quasi_static_zf_refused": [
        [(766, 84), (80, 78)], [(855, 84), (57, 78)], [(907, 84), (52, 78)]
    ],
}
# sweep_l at 15 dB over L = 1, 2, 4, 8, 16: (errors, skipped_frames) per L
FROZEN_SWEEP_L = [(607, 0), (664, 0), (619, 0), (605, 0), (525, 0)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_ber_counts_are_frozen(name):
    curves = wl.run_ber(CASES[name]())
    got = [[(p.errors, p.skipped_frames) for p in c.points] for c in curves]
    assert got == FROZEN[name]


def test_fixed_taps_fingerprint_is_frozen():
    # describe() writes a fixed channel's taps as Python ints and floats
    assert wl.config_fingerprint(CASES["fixed_taps_doppler"]()) == "2b30e9e8945c41e7"


def test_sweep_l_counts_are_frozen():
    cfg = sim(wl.ChannelGenerator(4), snr_db=(15.0,))
    swept = replace(cfg, targets=tuple(wl.WaveformConfig.otfs(N // l, l)
                                       for l in [1, 2, 4, 8, 16]))
    sweep = [c.points[0] for c in wl.run_ber(swept)]
    assert [(p.errors, p.skipped_frames) for p in sweep] == FROZEN_SWEEP_L

