"""wavelab: a multicarrier waveform laboratory.

OFDM, OTFS, and AFDM in a unified precoded-OFDM form, doubly dispersive
channels with ZF/MMSE equalization, diagonal frequency-domain colored
noise, demodulation-matrix sparsity and whitening analysis, and a seeded
Monte-Carlo BER engine with a file-driven CLI. The namespace is lazy
(PEP 562): ``import wavelab`` loads no submodule; a name loads its own.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in {
        "analysis": "rect_window_spectrum row_sparsity verify_decimation_identity",
        "channel": "ChannelGenerator ChannelSpec equalize",
        "exceptions": "ConfigError DimensionError EqualizationError WavelabError",
        "fdma": "BlockLayout",
        "noise": "NoiseProfile make_profile sample_noise whitening_std",
        "qam": "QAM_ORDERS qam_decide qam_label qam_map",
        "sim": "BerCurve BerPoint SimConfig config_fingerprint frame_rng run_ber",
        "waveform": "AFDM OFDM OTFS WaveformConfig afdm_inverse_column chirp_diagonal chirp_phase",
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_SOURCES.values(), "cli", "configio"}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
