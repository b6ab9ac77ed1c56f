"""wavelab: a multicarrier waveform laboratory.

OFDM, OTFS, and AFDM in a unified precoded-OFDM form, doubly dispersive
channels with ZF/MMSE equalization, diagonal frequency-domain colored
noise, demodulation-matrix sparsity and whitening analysis, and a seeded
Monte-Carlo BER engine with a file-driven CLI.
"""

__version__ = "0.1.0"

from .analysis import (
    RationalChirp,
    SparsityReport,
    rational_chirp_decompose,
    rect_window_spectrum,
    row_sparsity,
    verify_decimation_identity,
)
from .channel import (
    ChannelGenerator,
    ChannelSpec,
    ChannelTap,
    apply_channel,
    build_channel,
    equalize,
    frequency_response,
)
from .exceptions import ConfigError, DimensionError, EqualizationError, WavelabError
from .fdma import Block, BlockLayout
from .noise import NoiseProfile, make_profile, sample_noise, whitening_std
from .qam import QAM_ORDERS, qam_demap, qam_map
from .sim import (
    BerCurve,
    BerPoint,
    SimConfig,
    config_fingerprint,
    frame_rng,
    run_ber,
    sweep_l,
    sweep_q,
)
from .waveform import (
    AFDM,
    OFDM,
    OTFS,
    WaveformConfig,
    afdm_inverse_column,
    chirp_diagonal,
)
