"""The library's refusal contract: one table, ``CASES``, of ``(id, call, error
type, whole message)`` rows. Each call raises exactly that type, whose ``str`` is
the whole message, and a ``WavelabError`` but for the ``TypeError`` that
``make_profile`` documents for a keyword of another profile kind. A new refusal is
a new row; the CLI's are ``tests/test_cli.py::TestStrictConfigReader.CASES``."""

from functools import partial

import numpy as np
import pytest

import wavelab as wl
from wavelab.exceptions import ConfigError, DimensionError, WavelabError
from wavelab.waveform import afdm_inverse_column

ABOVE = float(np.nextafter(wl.channel.MAX_DOPPLER, np.inf))
DOPPLER_OVER = f"is over {wl.channel.MAX_DOPPLER!r} in magnitude, where 2*pi*doppler overflows"
GAIN_CAP = ("equalized profile 'gain_cap' must be >= 2.2250738585072014e-308, where "
            "1/gain_cap stays finite, got ")
NOISE_KINDS = "['white', 'impulse', 'interferer', 'equalized']"

# 48 bins: OFDM, AFDM and two OTFS grids of 12 each
LAYOUT = wl.BlockLayout([wl.WaveformConfig.ofdm(12), wl.WaveformConfig.afdm(12, -4.0, 0.1),
                         wl.WaveformConfig.otfs(4, 3), wl.WaveformConfig.otfs(3, 4)])
AFDM16 = wl.WaveformConfig.afdm(16, 0.5)
SIM = dict(channel=wl.ChannelGenerator(num_taps=8), profile=wl.make_profile("white", 120),
           targets=(wl.WaveformConfig.ofdm(120),), snr_db=(25.0,), bits_per_point=10_000,
           seed=7)


def sim_config(**overrides):
    return wl.SimConfig(**{**SIM, **overrides})


def equalize(delays, gains, dopplers, rho=0.1, equalizer="mmse"):
    """``wl.equalize`` of one noiseless frame of one target on a block of 8 bins."""
    z, w_f = np.ones((1, 1, 8), dtype=complex), np.zeros((1, 8), dtype=complex)
    return wl.equalize(np.array(delays), np.array([gains]), np.array([dopplers]), z, w_f, rho,
                       equalizer)


def equalize_refusals(doppler, path):
    """``wl.equalize``'s rows on one path: per bin without Doppler, banded with it."""
    return [
        (f"equalize-unknown-equalizer-{path}",
         partial(equalize, [0], [1.0], [doppler], equalizer="ZF"), ConfigError,
         "equalizer must be one of ('mmse', 'zf')"),
        # the per-bin scatter has no bin N, and the banded rolls would wrap it onto delay 0
        (f"equalize-delay-beyond-block-{path}",
         partial(equalize, [0, 8], [1.0, 0.5], [0.0, doppler]), ConfigError,
         "channel tap 'delay': tap delay 8 does not fit in a block of 8 samples"),
        # rho = -1.25 meets |h_f|^2 at a bin of this channel, where G_f would blow up
        *[(f"equalize-rho-{rho}-{path}",
           partial(equalize, [0, 1], [1.0, 0.5], [0.0, doppler], rho=rho), ConfigError,
           f"noise-to-signal ratio must be >= 0, got {rho}") for rho in (-1.25, np.nan)],
    ]


CASES = [
    # analysis
    ("decimation-expansion", lambda: wl.verify_decimation_identity(4096, 1, 4096),
     DimensionError, "expanded transform size 16777216 exceeds the 1048576 guard"),
    ("decimation-zero-denominator", lambda: wl.verify_decimation_identity(8, 1, 0),
     DimensionError, "block size and denominator must be >= 1, got 8 and 0"),
    ("row-sparsity-zero-tol", lambda: wl.row_sparsity(np.ones(4), tol=0.0), ConfigError,
     "sparsity tolerance must be > 0, got 0.0"),
    # channel
    ("spec-no-taps", lambda: wl.ChannelSpec([], [], []), ConfigError,
     "channel spec needs at least one tap"),
    ("spec-unequal-lengths", lambda: wl.ChannelSpec([0, 1], [1, 1], [0.0]), ConfigError,
     "channel spec: delays, gains and dopplers must be 1-D and of one length, got shapes "
     "[(2,), (2,), (1,)]"),
    ("spec-negative-delay", lambda: wl.ChannelSpec([0, -1], [1, 1], [0, 0]), ConfigError,
     "tap delay must be >= 0, got -1"),
    ("spec-huge-negative-delay", lambda: wl.ChannelSpec([-10**30, 0], [1, 1], [0, 0]),
     ConfigError, f"tap delay must be >= 0, got {-10**30}"),
    ("spec-doppler-above", lambda: wl.ChannelSpec([0, 1], [1, 1], [0.0, -ABOVE]), ConfigError,
     f"channel tap: 'doppler' = {-ABOVE!r} {DOPPLER_OVER}"),
    ("spec-doppler-nan", lambda: wl.ChannelSpec([0, 1], [1, 1], [np.nan, 0.0]), ConfigError,
     f"channel tap: 'doppler' = nan {DOPPLER_OVER}"),
    # it stays a Python int in the array, for SimConfig's block check to name
    ("delay-past-int64",
     lambda: wl.channel.check_delays(wl.ChannelSpec([10**30], [1.0], [0.0]).delays, 8),
     ConfigError, f"channel tap 'delay': tap delay {10**30} does not fit in a block of 8 samples"),
    # the parse refuses num_taps: 0 first, so only the library reaches this
    ("generator-no-taps", lambda: wl.ChannelGenerator(num_taps=0), ConfigError,
     "channel needs at least one tap, got 0"),
    *equalize_refusals(0.0, "per-bin"),
    *equalize_refusals(0.2, "banded"),
    # fdma
    ("layout-empty", lambda: wl.BlockLayout(()), ConfigError, "layout needs at least one block"),
    # a stack whose last axis is not the layout's N, short or long
    *[(f"layout-{method}-{width}", partial(getattr(LAYOUT, method), np.zeros((3, width), complex)),
       DimensionError, f"expected length-48 vectors, got shape (3, {width})")
      for method in ("precode", "receive") for width in (12, 47, 49)],
    ("layout-demod-power-past-last-block", lambda: LAYOUT.demod_power(np.ones(49)),
     DimensionError, "expected length-48 vectors, got shape (49,)"),
    ("layout-demod-power-negative-gain", lambda: LAYOUT.demod_power(np.r_[np.ones(47), -1.0]),
     ConfigError, "noise gains must be nonnegative"),
    # noise
    *[(f"gain-cap-{gain_cap!r}", partial(wl.make_profile, "equalized", 16, gain_cap=gain_cap),
       ConfigError, f"{GAIN_CAP}{gain_cap!r}") for gain_cap in (5e-324, 1e-308, 0.0, -0.0, -1e308)],
    ("impulse-spikes", lambda: wl.make_profile("impulse", 8, spikes=9), ConfigError,
     "impulse profile 'spikes' must be in [1, 8], got 9"),
    ("interferer-width", lambda: wl.make_profile("interferer", 8, width=9), ConfigError,
     "interferer profile 'width' must be in [1, 8], got 9"),
    ("interferer-power-fraction", lambda: wl.make_profile("interferer", 8, power_fraction=1.5),
     ConfigError, "interferer profile 'power_fraction' must be in [0.0, 1], got 1.5"),
    ("profile-kind-n8", lambda: wl.make_profile("pink", 8), ConfigError,
     f"noise: 'kind' = 'pink' is not one of {NOISE_KINDS}"),
    ("profile-kind-n4", lambda: wl.make_profile("pink", 4), ConfigError,
     f"noise: 'kind' = 'pink' is not one of {NOISE_KINDS}"),
    # used to be ignored: a white profile
    ("keyword-of-another-kind", lambda: wl.make_profile("white", 8, spikes=3), TypeError,
     "_white() got an unexpected keyword argument 'spikes'"),
    ("profile-length", lambda: wl.make_profile("white", 0), ConfigError,
     "profile length must be >= 1, got 0"),
    ("gains-negative", lambda: wl.NoiseProfile(np.array([2.0, -1.0, 1.0]), "white"),
     ConfigError, "noise gains must be nonnegative"),
    ("gains-unnormalized", lambda: wl.NoiseProfile(np.array([5.0, 1.0]), "white"), ConfigError,
     "noise gains must be trace-normalized to N=2, got 6"),
    ("gains-not-1d", lambda: wl.NoiseProfile(np.ones((2, 2)), "white"), DimensionError,
     "gains must be a nonempty 1-D vector, got (2, 2)"),
    ("sigma-w", lambda: wl.sample_noise(wl.make_profile("white", 4), -1.0, []), ConfigError,
     "sigma_w must be >= 0, got -1.0"),
    ("whitening-empty", lambda: wl.whitening_std([]), DimensionError,
     "expected a nonempty 1-D vector, got shape (0,)"),
    # qam
    *[(f"{func.__name__}-order", partial(func, np.zeros(6, dtype=np.uint8), 32), ConfigError,
       "QAM order must be one of (4, 16, 64), got 32")
      for func in (wl.qam_label, wl.qam_map, wl.qam_decide)],
    ("qam-ragged-bits", lambda: wl.qam_label(np.zeros(7, dtype=np.uint8), 16), ConfigError,
     "bit count must be a positive multiple of 4 for 16-QAM, got shape (7,)"),
    ("qam-no-bits", lambda: wl.qam_label(np.zeros(0, dtype=np.uint8), 16), ConfigError,
     "bit count must be a positive multiple of 4 for 16-QAM, got shape (0,)"),
    # sim: SimConfig's own checks, whether or not the parse refuses the value first
    ("sim-no-targets", lambda: sim_config(targets=()), ConfigError, "need at least one target"),
    ("sim-no-snr", lambda: sim_config(snr_db=()), ConfigError, "need at least one SNR point"),
    ("sim-snr-nan", lambda: sim_config(snr_db=(20.0, np.nan)), ConfigError,
     "SNR points must be finite, got [20.0, nan]"),
    ("sim-seed", lambda: sim_config(seed=-1), ConfigError, "seed must be a nonnegative integer"),
    ("sim-bits-0", lambda: sim_config(bits_per_point=0), ConfigError,
     "'bits_per_point' must be >= 10000, got 0"),
    ("sim-bits-9999", lambda: sim_config(bits_per_point=9_999), ConfigError,
     "'bits_per_point' must be >= 10000, got 9999"),
    ("sim-qam-order", lambda: sim_config(qam_order=32), ConfigError,
     "'qam_order' must be one of (4, 16, 64), got 32"),
    ("sim-profile-length", lambda: sim_config(profile=wl.make_profile("white", 64)),
     ConfigError, "noise profile length 64 does not match N=120"),
    ("sim-mixed-sizes",
     lambda: sim_config(targets=(wl.WaveformConfig.ofdm(120), wl.WaveformConfig.ofdm(60))),
     ConfigError, "every target must have one grid size 'n', got 120 and 60"),
    # waveform
    ("otfs-k", lambda: wl.WaveformConfig("otfs", 12, K=0, L=12), ConfigError,
     "OTFS requires positive grid dimensions K and L"),
    ("otfs-grid-size", lambda: wl.WaveformConfig("otfs", 16, K=3, L=4), ConfigError,
     "waveform: 'n' = 16 is not the OTFS grid size k*l = 12"),
    ("waveform-n", lambda: wl.WaveformConfig.ofdm(0), ConfigError,
     "subcarrier count must be >= 1, got 0"),
    ("waveform-kind", lambda: wl.WaveformConfig("dft-s-ofdm", 16), ConfigError,
     "waveform: 'kind' = 'dft-s-ofdm' is not one of ['ofdm', 'otfs', 'afdm']"),
    ("column-length", lambda: afdm_inverse_column(0, 0.5), DimensionError,
     "column length must be >= 1, got 0"),
    ("precode-length", lambda: wl.WaveformConfig.ofdm(8).precode(np.ones(7, complex)),
     DimensionError, "expected length-8 vectors, got shape (7,)"),
    ("demod-power-negative-gain", lambda: AFDM16.demod_power(np.r_[-1.0, np.ones(15)]),
     ConfigError, "noise gains must be nonnegative"),
    ("demod-power-short", lambda: AFDM16.demod_power(np.ones(15)), DimensionError,
     "expected length-16 vectors, got shape (15,)"),
    ("demod-power-short-rows", lambda: AFDM16.demod_power(np.ones((16, 15))), DimensionError,
     "expected length-16 vectors, got shape (16, 15)"),
    ("demod-power-scalar", lambda: AFDM16.demod_power(1.0), DimensionError,
     "expected length-16 vectors, got shape ()"),
    # one negative gain in any row
    ("demod-power-negative-gain-in-a-row",
     lambda: AFDM16.demod_power(np.r_[np.ones(31), -1.0].reshape(2, 16)), ConfigError,
     "noise gains must be nonnegative"),
]


@pytest.mark.parametrize("call,error,message", [row[1:] for row in CASES],
                         ids=[row[0] for row in CASES])
def test_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert isinstance(info.value, WavelabError) or error is TypeError
