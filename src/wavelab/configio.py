"""YAML config parsing for the command-line experiments.

Configs are plain nested key/value documents; the parsers turn them into
the objects a run takes, a sweep's waveforms included. Each validates its
section's keys eagerly (a waveform or noise section takes only its kind's
keys, from ``waveform.KINDS`` or ``noise.PROFILES``; ``cli.main`` checks the
top-level ones) and reads every value through :func:`read`, which checks its
type strictly; each refusal is a ConfigError naming the key, which the CLI
maps to exit code 2. A rule the objects' constructors check on every path
(one grid size, a tap delay inside the block, an OTFS ``n`` of k*l) is left
to them, and their messages name the key as well. :func:`check_size` refuses
a huge size before any array is allocated, and :func:`check_headroom` a power
over the bins past half the largest float, the CLI's too. Each parser imports
its section's module when it runs. The CLI merges each file over its built-in
defaults, so :func:`parse_sim` requires every top-level key it reads.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .exceptions import MAX_EXPANDED_SIZE, ConfigError, kind_entry, shown

if TYPE_CHECKING:  # each parser imports its section's module when it runs
    from .channel import ChannelGenerator, ChannelSpec
    from .fdma import BlockLayout
    from .noise import NoiseProfile
    from .sim import SimConfig
    from .waveform import WaveformConfig

# Half the largest float: a power over N bins (noise, jamming, a fixed channel)
# is refused above it (check_headroom), so the rounding of sums and FFTs cannot overflow.
HEADROOM = sys.float_info.max / 2


def load_config_file(path: str) -> dict:
    import yaml
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    # not YAML, not UTF-8 (a ValueError), or past what YAML builds: a date, digits, depth
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
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
            raise ConfigError(f"{name} must be a nonempty list, got {shown(value)}")
        return [read({key: item}, key, kind[0], context=context, minimum=minimum)
                for item in value]
    if kind not in (int, float):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be a {kind.__name__}, got {shown(value)}")
        return value
    # converting no int: NaN, infinities, and at a float key an int float() cannot take
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -math.inf < value < math.inf
            or kind is float and abs(value) > sys.float_info.max):
        import re  # YAML 1.1 reads 1e-9 as a string: its floats have a dot and a signed exponent
        m = isinstance(value, str) and re.fullmatch(r"([-+]?(?:\d+\.?\d*|\.\d+))[eE]([-+]?)(\d+)", value)
        got = (f"the string {shown(value)}; in YAML the float is {m[1]}{'.0' * ('.' not in m[1])}"
               f"e{m[2] or '+'}{m[3]}" if m and math.isfinite(float(value)) else shown(value))
        raise ConfigError(f"{name} must be a finite number, got {got}")
    if kind is int and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {shown(value)}")
    return kind(value)


def check_keys(section: dict, allowed: set, context: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def check_size(size: int, key: str, context: str) -> int:
    """``size``, refused above MAX_EXPANDED_SIZE before any array of that size exists."""
    if size > MAX_EXPANDED_SIZE:
        raise ConfigError(f"{context}: {key!r} gives size {shown(size)}, "
                          f"over the {MAX_EXPANDED_SIZE} guard")
    return size


def check_headroom(value: float, n: int, name: str, amplitude: bool = False) -> None:
    """Refuse a power over ``n`` bins past HEADROOM: ``value``, or n * value**2 if an amplitude."""
    limit = math.sqrt(HEADROOM / n) if amplitude else HEADROOM / n
    if not value <= limit:  # inf as well
        raise ConfigError(f"{name} = {shown(value)} is over {limit!r}, where its power over "
                          f"n = {n} bins passes half the largest float")


def parse_waveform(section: dict, default_n: int | None = None) -> WaveformConfig:
    """One waveform, ``n`` defaulting to ``default_n``; an OTFS k*l grid needs no ``n``."""
    from .waveform import KINDS, WaveformConfig
    kind = read(section, "kind", str, context="waveform").lower()
    check_keys(section, {*kind_entry(KINDS, kind, "waveform"), "kind", "n"}, f"{kind} waveform")
    n = read(section, "n", int, default_n, "waveform", minimum=1)
    if n is not None:
        check_size(n, "n", "waveform")  # before an AFDM waveform's chirp check divides by it
    elif not (kind == "otfs" and "k" in section and "l" in section):
        raise ConfigError("waveform: missing required key 'n'")
    if kind == "ofdm":
        wf = WaveformConfig.ofdm(n)
    elif kind == "otfs":
        k = read(section, "k", int, None, "waveform", minimum=1)
        l = read(section, "l", int, None, "waveform", minimum=1)
        if l is None and k is None:
            raise ConfigError("OTFS waveform: missing required key 'k' and/or 'l'")
        if l is None or k is None:
            name, given = ("k", k) if l is None else ("l", l)
            if n % given:
                raise ConfigError(f"waveform {name!r}: OTFS {name}={shown(given)} does not "
                                  f"divide n={n}")
            k, l = (given, n // given) if l is None else (n // given, given)
        wf = WaveformConfig(kind, n, K=k, L=l) if "n" in section else WaveformConfig.otfs(k, l)
    else:
        q = read(section, "q", float, context="AFDM waveform")
        wf = WaveformConfig.afdm(n, q, read(section, "alpha", float, 0.0, "waveform"))
    check_size(wf.N, "n", "waveform")  # an OTFS grid k*l as well
    return wf


def parse_channel(section: dict, n: int) -> ChannelGenerator | ChannelSpec:
    from .channel import ChannelGenerator, ChannelSpec
    if "taps" in section:
        check_keys(section, {"taps"}, "channel")
        taps = []  # per tap: delay, gain, doppler
        for entry in read(section, "taps", [dict], context="channel"):
            check_keys(entry, {"delay", "gain_re", "gain_im", "doppler"}, "channel tap")
            taps.append((
                read(entry, "delay", int, context="channel tap", minimum=0),
                complex(read(entry, "gain_re", float, 0.0, "channel tap"),
                        read(entry, "gain_im", float, 0.0, "channel tap")),
                read(entry, "doppler", float, 0.0, "channel tap"),
            ))
        spec = ChannelSpec(*zip(*taps))
        # every |h_f| <= sum_p |h_p| = total: the power over the bins is <= n * total**2
        total = sum(math.hypot(gain.real, gain.imag) for _, gain, _ in taps)  # abs() may raise
        check_headroom(total, n, "channel tap: total |gain| of 'gain_re'/'gain_im'", amplitude=True)
        return spec
    check_keys(section, {"num_taps", "max_doppler"}, "channel")
    num_taps = read(section, "num_taps", int, context="channel", minimum=1)
    if num_taps > n:  # delays 0 .. num_taps - 1; n itself passed check_size
        raise ConfigError(f"channel: 'num_taps' = {shown(num_taps)} taps do not fit in a "
                          f"block of {n} samples")
    return ChannelGenerator(
        num_taps=num_taps,
        max_doppler=read(section, "max_doppler", float, 0.0, "channel"),
    )


def parse_profile(section: dict, n: int) -> NoiseProfile:
    from .noise import PROFILES, make_profile
    kind = read(section, "kind", str, context="noise").lower()
    keys = kind_entry(PROFILES, kind, "noise")[1]
    check_keys(section, set(keys) | {"kind", "n"}, f"{kind} noise")
    if read(section, "n", int, n, "noise") != n:
        raise ConfigError(f"noise: 'n' = {shown(section['n'])} does not match the grid size {n}")
    kwargs = {key: read(section, key, typ, context="noise")
              for key, typ in keys.items() if key in section}
    return make_profile(kind, n, **kwargs)  # which refuses more taps than n


def parse_layout(entries) -> BlockLayout:
    from .fdma import BlockLayout
    layout = BlockLayout([parse_waveform(entry, default_n=12) for entry in entries])
    check_size(layout.N, "layout", "config")  # each block passed alone; their sum too
    return layout


def parse_sim(doc: dict) -> SimConfig:
    """The BER experiment of ``doc``; a ``layout`` key runs one FDMA target
    over a quasi-static channel only. Its caller checks the top-level keys."""
    from .sim import SimConfig
    # a layout's blocks take their own sizes, so it reads n but never uses it
    n = read(doc, "n", int, minimum=None if "layout" in doc else 1)
    if "layout" in doc:
        targets = (parse_layout(read(doc, "layout", [dict])),)
    else:
        targets = tuple(parse_waveform(e, default_n=n) for e in read(doc, "waveforms", [dict]))
    # a single SNR point may be given as a scalar
    snr = read(doc, "snr_db", object)
    snr_db = read({"snr_db": snr if isinstance(snr, list) else [snr]}, "snr_db", [float])
    # checked but unused: the discrete-time model is dimensionless
    read(doc, "subcarrier_spacing_hz", float, None)
    section = read(doc, "channel", dict)
    channel = parse_channel(section, targets[0].N)
    if "layout" in doc and channel.max_doppler != 0.0:
        key = "doppler" if "taps" in section else "max_doppler"
        raise ConfigError(f"channel: {key!r} must be 0: FDMA layouts support quasi-static "
                          f"channels only; Doppler breaks block independence")
    return SimConfig(
        channel=channel,
        profile=parse_profile(read(doc, "noise", dict), targets[0].N),
        targets=targets,
        qam_order=read(doc, "qam_order", int),
        snr_db=tuple(snr_db),
        bits_per_point=read(doc, "bits_per_point", int),
        seed=read(doc, "seed", int),
        equalizer=read(doc, "equalizer", str).lower(),
    )
