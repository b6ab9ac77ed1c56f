"""Exception types shared across the package."""


class WavelabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WavelabError, ValueError):
    """Invalid waveform, channel, noise, layout, or simulation configuration."""


class DimensionError(WavelabError, ValueError):
    """Vector or matrix size does not match the expected dimensions."""


class EqualizationError(WavelabError, RuntimeError):
    """Zero-forcing refused every frame of an SNR point as too ill-conditioned."""
