"""YAML config parsing for the command-line experiments.

Configs are plain nested key/value documents. Every parser validates keys
eagerly and reads every value through :func:`read`, which checks its type
strictly; each refusal is a ConfigError naming the key, which the CLI
maps to exit code 2. Sizes pass :func:`check_size`, so a huge one is refused
before any array is allocated. The CLI merges each file over its built-in
defaults, so :func:`parse_sim` requires every top-level key it reads.
"""

from __future__ import annotations

import math

import yaml

from .analysis import MAX_EXPANDED_SIZE
from .channel import ChannelGenerator, ChannelSpec, ChannelTap
from .exceptions import ConfigError
from .fdma import BlockLayout
from .noise import NoiseProfile, make_profile
from .sim import SimConfig
from .waveform import AFDM, OFDM, OTFS, WaveformConfig


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return doc


_REQUIRED = object()


def read(section: dict, key: str, kind, default=_REQUIRED, context: str = "config",
         minimum=None):
    """``section[key]`` checked as ``kind``, or ``default`` when absent.

    ``kind`` is int (ints and integral floats), float (finite numbers; for
    both, booleans and strings are refused, and so are values below
    ``minimum``), str, dict, list, or ``[kind]`` for a nonempty list of
    such items. Each refusal is a ConfigError naming the key.
    """
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{context}: missing required key {key!r}")
        return default
    value, name = section[key], f"{context}: {key!r}"
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
        return [read({key: item}, key, kind[0], context=context, minimum=minimum)
                for item in value]
    if kind not in (int, float):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        return value
    # the chained comparison refuses NaN and infinities without converting ints
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -math.inf < value < math.inf):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return kind(value)


def check_keys(section: dict, allowed: set, context: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def check_size(size: int, key: str, context: str) -> int:
    """``size``, refused above MAX_EXPANDED_SIZE before any array of that size exists."""
    if size > MAX_EXPANDED_SIZE:
        raise ConfigError(f"{context}: {key!r} gives size {size}, "
                          f"over the {MAX_EXPANDED_SIZE} guard")
    return size


def parse_waveform(section: dict, default_n: int | None = None) -> WaveformConfig:
    check_keys(section, {"kind", "n", "k", "l", "q", "alpha"}, "waveform")
    kind = read(section, "kind", str, context="waveform").lower()
    n = read(section, "n", int, default_n or 0, "waveform")
    if kind == OFDM:
        wf = WaveformConfig.ofdm(n)
    elif kind == OTFS:
        k = read(section, "k", int, None, "waveform")
        l = read(section, "l", int, None, "waveform")
        if l is None and k is None:
            raise ConfigError("OTFS waveform needs k and/or l")
        if l is None or k is None:
            name, given = ("k", k) if l is None else ("l", l)
            if given < 1 or n % given:
                raise ConfigError(f"OTFS {name}={given} does not divide n={n}")
            k, l = (given, n // given) if l is None else (n // given, given)
        wf = WaveformConfig.otfs(k, l)
    elif kind == AFDM:
        q = read(section, "q", float, context="AFDM waveform")
        wf = WaveformConfig.afdm(n, q, read(section, "alpha", float, 0.0, "waveform"))
    else:
        raise ConfigError(f"unknown waveform kind {kind!r}")
    check_size(wf.N, "n", "waveform")
    return wf


def parse_channel(section: dict) -> ChannelGenerator | ChannelSpec:
    if "taps" in section:
        check_keys(section, {"taps"}, "channel")
        taps = []
        for entry in read(section, "taps", [dict], context="channel"):
            check_keys(entry, {"delay", "gain_re", "gain_im", "doppler"}, "channel tap")
            taps.append(
                ChannelTap(
                    delay=read(entry, "delay", int, context="channel tap"),
                    gain=complex(
                        read(entry, "gain_re", float, 0.0, "channel tap"),
                        read(entry, "gain_im", float, 0.0, "channel tap"),
                    ),
                    doppler=read(entry, "doppler", float, 0.0, "channel tap"),
                )
            )
        return ChannelSpec(taps=tuple(taps))
    check_keys(section, {"num_taps", "max_doppler"}, "channel")
    num_taps = read(section, "num_taps", int, context="channel")
    return ChannelGenerator(
        num_taps=check_size(num_taps, "num_taps", "channel"),
        max_doppler=read(section, "max_doppler", float, 0.0, "channel"),
    )


# the keyword arguments of make_profile a noise section may set, by type
_PROFILE_KEYS = {
    "spikes": int, "spike_offset": int, "width": int, "start": int,
    "power_fraction": float, "num_taps": int, "gain_cap": float, "seed": int,
}


def parse_profile(section: dict, n: int) -> NoiseProfile:
    check_keys(section, set(_PROFILE_KEYS) | {"kind", "n"}, "noise")
    if read(section, "n", int, n, "noise") != n:
        raise ConfigError(
            f"noise profile length {section['n']} does not match the grid size {n}"
        )
    kind = read(section, "kind", str, context="noise").lower()
    kwargs = {
        key: read(section, key, typ, context="noise")
        for key, typ in _PROFILE_KEYS.items() if key in section
    }
    check_size(kwargs.get("num_taps", 1), "num_taps", "noise")
    return make_profile(kind, n, **kwargs)


def parse_layout(entries, default_block_n: int = 12) -> BlockLayout:
    configs = [parse_waveform(entry, default_n=default_block_n) for entry in entries]
    return BlockLayout.from_configs(configs)


_SIM_KEYS = {
    "n", "waveforms", "layout", "channel", "noise", "qam_order",
    "snr_db", "bits_per_point", "seed", "equalizer", "subcarrier_spacing_hz",
}


def parse_sim(doc: dict, extra_keys: set = frozenset()) -> SimConfig:
    check_keys(doc, _SIM_KEYS | set(extra_keys), "config")
    n = read(doc, "n", int)
    waveforms: tuple[WaveformConfig, ...] = ()
    layout = None
    if "layout" in doc:
        layout = parse_layout(read(doc, "layout", [dict]))
    else:
        waveforms = tuple(parse_waveform(e, default_n=n) for e in read(doc, "waveforms", [dict]))
    target_n = layout.N if layout is not None else n
    # a single SNR point may be given as a scalar
    snr = read(doc, "snr_db", object)
    snr_db = read({"snr_db": snr if isinstance(snr, list) else [snr]}, "snr_db", [float])
    # checked but unused: the discrete-time model is dimensionless
    read(doc, "subcarrier_spacing_hz", float, None)
    return SimConfig(
        channel=parse_channel(read(doc, "channel", dict)),
        profile=parse_profile(read(doc, "noise", dict), target_n),
        waveforms=waveforms,
        layout=layout,
        qam_order=read(doc, "qam_order", int),
        snr_db=tuple(snr_db),
        bits_per_point=read(doc, "bits_per_point", int),
        seed=read(doc, "seed", int),
        equalizer=read(doc, "equalizer", str).lower(),
    )
