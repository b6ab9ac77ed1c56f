"""Every shipped output at full budget, pinned by the SHA-256 of its bytes.

Runs the seven ``configs/*.yaml``, default ``sparsity`` and default
``verify-appendix`` through ``cli.main`` and compares every output except
``manifest.json`` with ``shipped_outputs.json``. The table was recorded once,
from commit 631cf65, and is never re-recorded to make a change pass: a change
that means to move an output names each digest that moves, and why.

- ``exact``: BER and sweep tables and ``curves.json`` hold integer counts and
  values computed from them, so their digests hold on every platform.
- ``fft``: the analysis and ``fdma-demo`` outputs hold floats that come out of
  FFTs, which numpy 1.x's pocketfft may round differently, so their digests
  hold only on the numpy major version the table was recorded with.
- ``values``: on every version, each ``summary.csv``, the ``fdma-demo`` tables
  and both JSON documents are compared number by number at
  ``bench/checks.py``'s 1e-9 relative tolerance, with its floor for rounding
  noise (1e-12 of the largest magnitude) taken over the whole file.
"""

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wavelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = json.loads((Path(__file__).parent / "shipped_outputs.json").read_text())
# digests compared on this numpy: the FFT-bound ones only on the recorded major version
PINNED = {**TABLE["exact"],
          **(TABLE["fft"] if np.__version__.split(".")[0] == str(TABLE["numpy_major"]) else {})}
REL_TOL, ABS_FLOOR = 1e-9, 1e-12

INVOCATIONS = {
    "fdma_demo": ["fdma-demo", "--config", "configs/fdma_demo.yaml"],
    "fig3_ber": ["ber", "--config", "configs/fig3_ber.yaml"],
    "fig4a_sweep_l": ["sweep-l", "--config", "configs/fig4a_sweep_l.yaml"],
    "fig4b_sweep_q": ["sweep-q", "--config", "configs/fig4b_sweep_q.yaml"],
    "fig5_dispersive": ["ber", "--config", "configs/fig5_dispersive.yaml"],
    "table1_noise": ["analyze-noise", "--config", "configs/table1_noise.yaml"],
    "wideband_noise": ["analyze-noise", "--config", "configs/wideband_noise.yaml"],
    "sparsity": ["sparsity"],
    "verify_appendix": ["verify-appendix"],
}


def parsed(name: str, text: str):
    return json.loads(text) if name.endswith(".json") else list(csv.reader(io.StringIO(text)))


def leaves(doc) -> list:
    """The scalars of a parsed JSON document or CSV (rows of strings), in order, with
    each key kept and each string that reads as a number read as a float."""
    if isinstance(doc, dict):
        return [x for key in sorted(doc) for x in (key, *leaves(doc[key]))]
    if isinstance(doc, list):
        return [x for item in doc for x in leaves(item)]
    if isinstance(doc, str):
        try:
            return [float(doc)]
        except ValueError:
            return [doc]
    return [doc]


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def same_values(doc, ref) -> bool:
    got, want = leaves(doc), leaves(ref)
    floor = ABS_FLOOR * max((abs(x) for x in want if is_number(x) and math.isfinite(x)),
                            default=0.0)
    return len(got) == len(want) and all(
        abs(g - w) <= REL_TOL * abs(w) + floor if is_number(g) and is_number(w) else g == w
        for g, w in zip(got, want))


def test_every_shipped_config_runs():
    shipped = {p.relative_to(ROOT).as_posix() for p in ROOT.glob("configs/*.yaml")}
    assert shipped == {argv[2] for argv in INVOCATIONS.values() if len(argv) > 1}


@pytest.mark.parametrize("run", sorted(INVOCATIONS))
def test_outputs_match_the_recorded_table(tmp_path, capsys, run):
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in INVOCATIONS[run]]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    outputs = {f"{run}/{p.name}": p for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert set(outputs) == {name for name in (*TABLE["exact"], *TABLE["fft"])
                            if name.startswith(f"{run}/")}
    moved = [name for name, path in sorted(outputs.items())
             if name in PINNED and hashlib.sha256(path.read_bytes()).hexdigest() != PINNED[name]
             or name in TABLE["values"]
             and not same_values(parsed(name, path.read_text()), TABLE["values"][name])]
    assert not moved, f"outputs differ from the recorded table: {moved}"


def test_values_allow_rounding_but_not_a_moved_value():
    ref = TABLE["values"]["table1_noise/summary.csv"]
    rounded = [[f"{float(c) * (1 + 1e-12)!r}" if c[0].isdigit() else c for c in row]
               for row in ref]
    moved = [row[:] for row in ref]
    moved[1][3] = repr(float(moved[1][3]) * (1 + 1e-6))
    assert same_values(rounded, ref)
    assert not same_values(moved, ref)
    assert not same_values(ref[:-1], ref)
