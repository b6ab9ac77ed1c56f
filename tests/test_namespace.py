"""The lazy ``wavelab`` namespace: every public name, served on first access."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavelab as wl

# submodule -> the public names the package serves from it
EXPORTS = {
    "analysis": ["rect_window_spectrum", "row_sparsity", "verify_decimation_identity"],
    "channel": ["ChannelGenerator", "ChannelSpec", "equalize"],
    "exceptions": ["ConfigError", "DimensionError", "EqualizationError", "WavelabError"],
    "fdma": ["BlockLayout"],
    "noise": ["NoiseProfile", "make_profile", "sample_noise", "whitening_std"],
    "qam": ["QAM_ORDERS", "qam_decide", "qam_label", "qam_map"],
    "sim": ["BerCurve", "BerPoint", "SimConfig", "config_fingerprint", "frame_rng",
            "run_ber"],
    "waveform": ["AFDM", "OFDM", "OTFS", "WaveformConfig", "afdm_inverse_column",
                 "chirp_diagonal", "chirp_phase"],
}
SUBMODULES = [*EXPORTS, "cli", "configio"]


def test_all_lists_every_public_name():
    assert sorted(wl.__all__) == sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(module):
    source = importlib.import_module(f"wavelab.{module}")
    for name in EXPORTS[module]:
        assert getattr(wl, name) is getattr(source, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_are_attributes(module):
    assert getattr(wl, module) is importlib.import_module(f"wavelab.{module}")


def test_dir_lists_the_public_names_and_submodules():
    listed = set(dir(wl))
    assert set(wl.__all__) <= listed
    assert set(SUBMODULES) <= listed
    assert "__version__" in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wl.no_such_name  # noqa: B018
    assert not hasattr(wl, "no_such_name")
    with pytest.raises(ImportError):
        from wavelab import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wavelab import *", namespace)
    assert set(wl.__all__) <= set(namespace)
    assert namespace["run_ber"] is wl.sim.run_ber


def test_fresh_import_loads_no_submodule():
    script = (
        "import json, sys\n"
        "import wavelab as wl\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('wavelab.'))\n"
        "before = loaded()\n"
        "wl.whitening_std\n"
        "print(json.dumps([before, loaded(), wl.__version__]))\n"
    )
    src = str(Path(wl.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after, version = json.loads(proc.stdout)
    assert before == []
    # a name loads its own submodule and what that imports, nothing else
    assert after == ["wavelab.exceptions", "wavelab.noise"]
    assert version == wl.__version__
