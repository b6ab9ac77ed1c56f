"""Exception types shared across the package, the size guard the parse and
the analysis share, :func:`shown`, which quotes a refused value in a message,
and :func:`kind_entry`, the one lookup of a config's ``kind`` in its table."""

import reprlib

# Largest array length a config may ask for: a grid size N, a tap count or
# a size-bN transform of the decimation identity. The parse refuses more,
# naming the key, before any array is allocated.
MAX_EXPANDED_SIZE = 1 << 20


class WavelabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WavelabError, ValueError):
    """Invalid waveform, channel, noise, layout, or simulation configuration."""


class DimensionError(WavelabError, ValueError):
    """Vector or matrix size does not match the expected dimensions."""


class EqualizationError(WavelabError, RuntimeError):
    """Zero-forcing refused every frame of an SNR point as too ill-conditioned."""


# A refused value is shown whole up to about 1000 characters, and past them
# within reprlib's limits (3 levels, 6 items a list): a YAML alias lets a file
# of a few hundred bytes hold a value whose repr runs to gigabytes.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 3


def shown(value) -> str:
    """``repr(value)``, or a shortened repr when that would pass 1000 characters; an
    integer past about 3,000 digits (a computed size, which Python may refuse to
    convert past 4,300) by its bit length."""
    if isinstance(value, int) and value.bit_length() > 10_000:
        return f"an integer of {value.bit_length()} bits"
    return repr(value) if _room(value, 1000) >= 0 else _SHORT.repr(value)


def _room(value, room: int) -> int:
    """``room`` less about the length of ``repr(value)``; it stops walking below 0."""
    if not isinstance(value, (list, tuple, dict)):
        return room - len(repr(value))
    for item in value.items() if isinstance(value, dict) else value:
        if room < 0:
            break
        room = _room(item, room - 2)  # and its separator
    return room


def kind_entry(table: dict, kind, section: str):
    """``table[kind]``, or a ConfigError naming ``section``'s 'kind' key and the table's kinds."""
    if kind not in table:
        raise ConfigError(f"{section}: 'kind' = {shown(kind)} is not one of {list(table)}")
    return table[kind]
