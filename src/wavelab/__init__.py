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
    chirp_spectrum,
    rational_chirp_decompose,
    rect_window_spectrum,
    row_sparsity,
    sparsity_profile,
    verify_decimation_identity,
)
from .channel import (
    ChannelGenerator,
    ChannelSpec,
    ChannelTap,
    IDENTITY_CHANNEL,
    apply_channel,
    build_channel,
    equalize,
    frequency_response,
    mmse_equalizer,
    to_frequency,
    zf_equalizer,
)
from .exceptions import ConfigError, DimensionError, EqualizationError, WavelabError
from .fdma import Block, BlockLayout
from .noise import (
    NoiseProfile,
    demod_noise_variance,
    make_profile,
    sample_noise,
    whitening_std,
)
from .qam import QAM_ORDERS, qam_alphabet, qam_demap, qam_map
from .sim import (
    BerCurve,
    BerPoint,
    ParamSweep,
    SimConfig,
    config_fingerprint,
    frame_rng,
    run_ber,
    run_frame,
    sweep_l,
    sweep_q,
)
from .waveform import (
    AFDM,
    OFDM,
    OTFS,
    PrecoderMatrix,
    WaveformConfig,
    afdm_inverse_column,
    build_precoder,
    chirp_diagonal,
    dft_matrix,
    otfs_inverse_entry,
    otfs_inverse_matrix,
)
