"""YAML config parsing for the command-line experiments.

Configs are plain nested key/value documents. Every parser validates keys
eagerly and raises ConfigError with a readable message, which the CLI
maps to exit code 2.
"""

from __future__ import annotations

import yaml

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


def merge_config(defaults: dict, overrides: dict) -> dict:
    """Shallow-per-section merge: override sections replace default ones."""
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return section[key]


def check_keys(section: dict, allowed: set, context: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def parse_waveform(section: dict, default_n: int | None = None) -> WaveformConfig:
    if not isinstance(section, dict):
        raise ConfigError(f"waveform entry must be a mapping, got {section!r}")
    check_keys(section, {"kind", "n", "k", "l", "q", "alpha"}, "waveform")
    kind = str(_require(section, "kind", "waveform")).lower()
    n = int(section.get("n", default_n or 0))
    if kind == OFDM:
        return WaveformConfig.ofdm(n)
    if kind == OTFS:
        k = section.get("k")
        l = section.get("l")
        if l is None and k is None:
            raise ConfigError("OTFS waveform needs k and/or l")
        if l is None or k is None:
            name, given = ("k", int(k)) if l is None else ("l", int(l))
            if given < 1 or n % given:
                raise ConfigError(f"OTFS {name}={given} does not divide n={n}")
            k, l = (given, n // given) if l is None else (n // given, given)
        return WaveformConfig.otfs(int(k), int(l))
    if kind == AFDM:
        q = float(_require(section, "q", "AFDM waveform"))
        return WaveformConfig.afdm(n, q, float(section.get("alpha", 0.0)))
    raise ConfigError(f"unknown waveform kind {kind!r}")


def waveform_to_dict(cfg: WaveformConfig) -> dict:
    doc = {"kind": cfg.kind, "n": cfg.N}
    if cfg.kind == OTFS:
        doc.update(k=cfg.K, l=cfg.L)
    if cfg.kind == AFDM:
        doc.update(q=cfg.q, alpha=cfg.alpha)
    return doc


def parse_channel(section: dict) -> ChannelGenerator | ChannelSpec:
    if not isinstance(section, dict):
        raise ConfigError("channel section must be a mapping")
    if "taps" in section:
        check_keys(section, {"taps"}, "channel")
        taps = []
        for entry in section["taps"]:
            check_keys(entry, {"delay", "gain_re", "gain_im", "doppler"}, "channel tap")
            taps.append(
                ChannelTap(
                    delay=int(_require(entry, "delay", "channel tap")),
                    gain=complex(
                        float(entry.get("gain_re", 0.0)),
                        float(entry.get("gain_im", 0.0)),
                    ),
                    doppler=float(entry.get("doppler", 0.0)),
                )
            )
        return ChannelSpec(taps=tuple(taps))
    check_keys(section, {"num_taps", "max_doppler"}, "channel")
    return ChannelGenerator(
        num_taps=int(_require(section, "num_taps", "channel")),
        max_doppler=float(section.get("max_doppler", 0.0)),
    )


def channel_to_dict(channel) -> dict:
    if isinstance(channel, ChannelGenerator):
        return {"num_taps": channel.num_taps, "max_doppler": channel.max_doppler}
    return {
        "taps": [
            {
                "delay": t.delay,
                "gain_re": t.gain.real,
                "gain_im": t.gain.imag,
                "doppler": t.doppler,
            }
            for t in channel.taps
        ]
    }


_PROFILE_KEYS = {
    "kind", "spikes", "spike_offset", "width", "start",
    "power_fraction", "num_taps", "gain_cap", "seed",
}


def parse_profile(section: dict, n: int) -> NoiseProfile:
    if not isinstance(section, dict):
        raise ConfigError("noise section must be a mapping")
    check_keys(section, _PROFILE_KEYS | {"n"}, "noise")
    if "n" in section and int(section["n"]) != n:
        raise ConfigError(
            f"noise profile length {section['n']} does not match the grid size {n}"
        )
    kind = str(_require(section, "kind", "noise")).lower()
    kwargs = {key: section[key] for key in _PROFILE_KEYS - {"kind"} if key in section}
    return make_profile(kind, n, **kwargs)


def profile_to_dict(profile: NoiseProfile) -> dict:
    return {"kind": profile.kind, **profile.params}


def parse_layout(entries, default_block_n: int = 12) -> BlockLayout:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("layout must be a nonempty list of waveform blocks")
    configs = [parse_waveform(entry, default_n=default_block_n) for entry in entries]
    return BlockLayout.from_configs(configs)


_SIM_KEYS = {
    "n", "waveforms", "layout", "channel", "noise", "qam_order",
    "snr_db", "bits_per_point", "seed", "equalizer", "subcarrier_spacing_hz",
}


def parse_sim(doc: dict, extra_keys: set = frozenset()) -> SimConfig:
    check_keys(doc, _SIM_KEYS | set(extra_keys), "config")
    n = int(_require(doc, "n", "config"))
    waveforms: tuple[WaveformConfig, ...] = ()
    layout = None
    if "layout" in doc:
        layout = parse_layout(doc["layout"])
    else:
        entries = _require(doc, "waveforms", "config")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("waveforms must be a nonempty list")
        waveforms = tuple(parse_waveform(e, default_n=n) for e in entries)
    target_n = layout.N if layout is not None else n
    snr = doc.get("snr_db", [25.0])
    if not isinstance(snr, list):
        snr = [snr]
    return SimConfig(
        channel=parse_channel(_require(doc, "channel", "config")),
        profile=parse_profile(doc.get("noise", {"kind": "white"}), target_n),
        waveforms=waveforms,
        layout=layout,
        qam_order=int(doc.get("qam_order", 16)),
        snr_db=tuple(float(s) for s in snr),
        bits_per_point=int(doc.get("bits_per_point", 200_000)),
        seed=int(doc.get("seed", 0)),
        equalizer=str(doc.get("equalizer", "mmse")).lower(),
        subcarrier_spacing_hz=float(doc.get("subcarrier_spacing_hz", 30_000.0)),
    )


def sim_to_dict(cfg: SimConfig) -> dict:
    doc = {
        "n": cfg.n,
        "channel": channel_to_dict(cfg.channel),
        "noise": profile_to_dict(cfg.profile),
        "qam_order": cfg.qam_order,
        "snr_db": list(cfg.snr_db),
        "bits_per_point": cfg.bits_per_point,
        "seed": cfg.seed,
        "equalizer": cfg.equalizer,
        "subcarrier_spacing_hz": cfg.subcarrier_spacing_hz,
    }
    if cfg.layout is not None:
        doc["layout"] = [waveform_to_dict(b.config) for b in cfg.layout.blocks]
    else:
        doc["waveforms"] = [waveform_to_dict(w) for w in cfg.waveforms]
    return doc
