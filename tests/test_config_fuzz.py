"""Seeded YAML fuzzer for the CLI contract: any config exits 0, 2 or 3.

Each case takes a small valid config of one subcommand, replaces the value
at one key (or list item) with a value from a fixed pool of wrong shapes
and types, writes it as YAML and runs ``main`` in-process. An exception
escaping ``main`` fails the test, as would a traceback at the command line.
A case refused with exit 2 must be refused by its ``--dry-run`` as well.
Values too large to run are tried by ``--dry-run`` alone, which must exit 0
or 2 without allocating them, and write at most ``MAX_STDERR`` bytes of
stderr. Float extremes are tried for real on a channel section's float keys
and at the paths of ``EXTREME_KEYS`` (the AFDM rates, the noise and jammer
powers, ``gain_cap`` and ``power_fraction``, an SNR, the subcarrier spacing,
the tolerances and thresholds, and ``verify-appendix``'s ``a_values``),
where no output may hold a NaN or an infinity.
"""

import copy
import json
import math
import re
import warnings

import numpy as np
import pytest
import yaml

from wavelab.cli import main

SEED = 2024
CASES_PER_CONFIG = 48

POOL = [-3, 0, math.nan, True, "abc", [], [[1, 2]], {"x": 1}]

# sizes and budgets no real run could finish, integers just past int64 (a noise
# offset there overflowed numpy) and past the largest float (float() raised at a
# float key): tried at every key by --dry-run alone
DRY_RUN_POOL = [10**18, 2**63, -2**63 - 1, 10**4000 - 1, -(10**4000 - 1)]
# a refusal quotes a value whole only up to about 1,000 characters
MAX_STDERR = 1200

# float extremes: tried for real at every float key of a channel section and at
# the paths of EXTREME_KEYS
EXTREME_POOL = [1e308, -1e308, 1e300, 5e-324, -0.0]
# nan and inf as repr writes them to a CSV, NaN and Infinity as json does
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

_BER = {
    "n": 12,
    "waveforms": [{"kind": "ofdm"}, {"kind": "otfs", "l": 3},
                  {"kind": "afdm", "q": -4.0, "alpha": 0.1}],
    "channel": {"num_taps": 4, "max_doppler": 0.1},
    "noise": {"kind": "impulse", "spikes": 2},
    "qam_order": 4,
    "snr_db": [10.0, 20.0],
    "bits_per_point": 10_000,
    "seed": 1,
    "equalizer": "mmse",
    "subcarrier_spacing_hz": 30_000.0,
}

_SWEEP = {
    "n": 12,
    "waveforms": [{"kind": "ofdm"}],
    "channel": {"taps": [{"delay": 0, "gain_re": 1.0, "gain_im": 0.0, "doppler": 0.0},
                         {"delay": 2, "gain_re": 0.3, "gain_im": 0.1, "doppler": 0.0}]},
    "noise": {"kind": "equalized", "num_taps": 4, "gain_cap": 100.0, "seed": 7},
    "qam_order": 16,
    "snr_db": [20.0],
    "bits_per_point": 10_000,
    "seed": 1,
    "equalizer": "zf",
}

CONFIGS = {
    "analyze-noise": {
        "n": 16,
        "waveforms": [{"kind": "ofdm"}, {"kind": "otfs", "k": 4},
                      {"kind": "afdm", "q": -4.0, "alpha": 0.1}],
        "profiles": [{"kind": "impulse", "spikes": 2, "spike_offset": 1},
                     {"kind": "interferer", "width": 3, "start": 2, "power_fraction": 0.8},
                     {"kind": "white"}],
        "sigma_w": 1.0,
        "seed": 0,
    },
    "sparsity": {
        "tol": 1e-9,
        "entries": [{"kind": "ofdm", "n": 16}, {"kind": "otfs", "n": 16, "l": 4},
                    {"kind": "afdm", "n": 16, "q": 0.5}],
        "seed": 0,
    },
    "ber": _BER,
    "sweep-l": {**_SWEEP, "l_values": [1, 3, 12]},
    "sweep-q": {**_SWEEP, "q_values": [-4.0, 2.0], "alpha": 0.1},
    "fdma-demo": {
        "layout": [{"kind": "ofdm", "n": 12}, {"kind": "afdm", "n": 12, "q": -4.0, "alpha": 0.1},
                   {"kind": "otfs", "k": 4, "l": 3}],
        "jammed_block": 1,
        "jam_power": 40.0,
        "seed": 0,
    },
    "verify-appendix": {
        "n_values": [8],
        "a_values": [1, 3],
        "b_values": [1, 2],
        "decimation_tol": 1e-9,
        "dirichlet_cases": [[8, 1], [4, 2]],
        "dirichlet_tol": 1e-10,
        "density_q": [0.5],
        "density_n": [12],
        "density_threshold": 0.9,
        "sparsity_tol": 1e-9,
        "seed": 0,
    },
}


def _paths(node, prefix=()):
    """Every key path and list index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _with_value(config, path, value):
    doc = copy.deepcopy(config)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return doc


def _cases(subcommand):
    config = CONFIGS[subcommand]
    paths = list(_paths(config))
    rng = np.random.default_rng([SEED, list(CONFIGS).index(subcommand)])
    picks = rng.choice(len(paths) * len(POOL), size=CASES_PER_CONFIG, replace=False)
    return [(paths[i // len(POOL)], POOL[i % len(POOL)]) for i in picks.tolist()]


@pytest.mark.parametrize("subcommand", list(CONFIGS))
def test_every_case_exits_0_2_or_3(tmp_path, subcommand):
    base = tmp_path / "base.yaml"
    base.write_text(yaml.safe_dump(CONFIGS[subcommand]))
    argv = [subcommand, "--threads", "1", "--config", str(base)]
    assert main(argv + ["--out", str(tmp_path / "base")]) == 0
    for i, (path, value) in enumerate(_cases(subcommand)):
        config = tmp_path / f"case{i}.yaml"
        config.write_text(yaml.safe_dump(_with_value(CONFIGS[subcommand], path, value)))
        argv = [subcommand, "--threads", "1", "--config", str(config),
                "--out", str(tmp_path / f"out{i}")]
        try:
            code = main(argv)
        except Exception as exc:  # report which case broke the contract
            pytest.fail(f"{subcommand} {path}={value!r} raised {exc!r}")
        assert code in (0, 2, 3), f"{subcommand} {path}={value!r} exited {code}"
        if code == 2:
            dry = main(argv[:-1] + [str(tmp_path / f"dry{i}"), "--dry-run"])
            assert dry == 2, f"{subcommand} {path}={value!r}: the dry run exited {dry}"


@pytest.mark.parametrize("subcommand", list(CONFIGS))
def test_huge_values_dry_run_exits_0_or_2(tmp_path, capsys, subcommand):
    for i, path in enumerate(_paths(CONFIGS[subcommand])):
        for j, value in enumerate(DRY_RUN_POOL):
            config = tmp_path / f"case{i}.yaml"
            config.write_text(yaml.safe_dump(_with_value(CONFIGS[subcommand], path, value)))
            argv = [subcommand, "--dry-run", "--config", str(config), "--out", str(tmp_path)]
            case = f"{subcommand} {path}=DRY_RUN_POOL[{j}]"  # a repr may run to 4,000 digits
            try:
                code = main(argv)
            except Exception as exc:  # e.g. numpy's _ArrayMemoryError
                pytest.fail(f"{case} raised {type(exc).__name__}")
            err = capsys.readouterr().err
            assert code in (0, 2), f"{case} exited {code}"
            assert len(err.encode()) <= MAX_STDERR, f"{case}: {len(err.encode())} bytes on stderr"


def _non_finite(out):
    """The CSV and JSON files under ``out`` that hold a NaN or an infinity."""
    paths = sorted(out.glob("*.csv")) + sorted(out.glob("*.json"))
    return [path.name for path in paths if NON_FINITE.search(path.read_text())]


def _run_extremes(tmp_path, subcommand, cases):
    """Run each (config, path) case with each EXTREME_POOL value at ``path``, for real
    and as a dry run: exit 0, 2 or 3 with no exception or RuntimeWarning, a refusal
    refused by the dry run as well, and no NaN or infinity in any output."""
    for i, ((config, path), value) in enumerate(
            (case, value) for case in cases for value in EXTREME_POOL):
        doc = tmp_path / f"case{i}.yaml"
        doc.write_text(yaml.safe_dump(_with_value(config, path, value)))
        argv = [subcommand, "--threads", "1", "--config", str(doc)]
        out = tmp_path / f"out{i}"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv + ["--out", str(out)])
                dry = main(argv + ["--out", str(tmp_path / f"dry{i}"), "--dry-run"])
        except Exception as exc:  # a RuntimeWarning as well
            pytest.fail(f"{subcommand} {path}={value!r} raised {exc!r}")
        assert code in (0, 2, 3), f"{subcommand} {path}={value!r} exited {code}"
        assert dry == (2 if code == 2 else 0), f"{subcommand} {path}={value!r}: dry run {dry}"
        assert not _non_finite(out), f"{subcommand} {path}={value!r}: {_non_finite(out)}"


@pytest.mark.parametrize("subcommand", ["ber", "sweep-l", "sweep-q"])
def test_channel_extremes_run_within_the_contract(tmp_path, subcommand):
    # the generator's max_doppler, then the first fixed tap's float keys
    generator = {**CONFIGS[subcommand], "channel": {"num_taps": 4, "max_doppler": 0.1}}
    tap_list = {**CONFIGS[subcommand], "channel": _SWEEP["channel"]}
    cases = [(generator, ("channel", "max_doppler"))]
    cases += [(tap_list, ("channel", "taps", 0, key)) for key in ("doppler", "gain_re", "gain_im")]
    _run_extremes(tmp_path, subcommand, cases)


# per subcommand, the paths of the float keys outside a channel section (and of
# verify-appendix's integer a_values) EXTREME_POOL is tried at
EXTREME_KEYS = {
    "analyze-noise": [("waveforms", 2, "q"), ("waveforms", 2, "alpha"), ("sigma_w",),
                      ("profiles", 1, "power_fraction")],
    "sparsity": [("entries", 2, "q"), ("entries", 2, "alpha"), ("tol",)],
    "ber": [("waveforms", 2, "q"), ("waveforms", 2, "alpha"), ("snr_db", 0),
            ("subcarrier_spacing_hz",)],
    "sweep-q": [("q_values", 0), ("alpha",), ("noise", "gain_cap")],
    "fdma-demo": [("jam_power",)],
    "verify-appendix": [("density_q", 0), ("sparsity_tol",), ("decimation_tol",),
                        ("dirichlet_tol",), ("density_threshold",), ("a_values", 0)],
}


@pytest.mark.parametrize("subcommand", list(EXTREME_KEYS))
def test_rate_and_tolerance_extremes_run_within_the_contract(tmp_path, subcommand):
    _run_extremes(tmp_path, subcommand,
                  [(CONFIGS[subcommand], path) for path in EXTREME_KEYS[subcommand]])


@pytest.mark.parametrize("subcommand", list(CONFIGS))
def test_dry_run_lists_the_outputs(tmp_path, capsys, subcommand):
    config = tmp_path / "base.yaml"
    config.write_text(yaml.safe_dump(CONFIGS[subcommand]))
    argv = [subcommand, "--threads", "1", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv + ["--dry-run"]) == 0
    planned = [line.removeprefix("output: ") for line in capsys.readouterr().out.splitlines()
               if line.startswith("output: ")]
    assert main(argv) == 0
    assert planned == json.loads((tmp_path / "o" / "manifest.json").read_text())["outputs"]


def _aliased(depth, width=10):
    """``depth`` nested lists of ``width`` references each to the level below, which
    YAML writes with one anchor a level: a few hundred bytes whose whole repr
    holds width**depth leaves."""
    node = [0]
    for _ in range(depth):
        node = [node] * width
    return node


@pytest.mark.parametrize("subcommand", list(CONFIGS))
def test_aliased_values_are_refused_briefly(tmp_path, capsys, subcommand):
    # at each key path in turn, 6 levels of 10 aliases (a repr of 5.8 MB): exit 2,
    # and a message that shows the value cut short
    value = _aliased(6)
    for i, path in enumerate(_paths(CONFIGS[subcommand])):
        config = tmp_path / f"case{i}.yaml"
        config.write_text(yaml.safe_dump(_with_value(CONFIGS[subcommand], path, value)))
        assert config.stat().st_size < 2000
        argv = [subcommand, "--dry-run", "--config", str(config), "--out", str(tmp_path)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, f"{subcommand} {path}: exited {code}"
        assert len(err) < 4096, f"{subcommand} {path}: {len(err)} characters on stderr"
