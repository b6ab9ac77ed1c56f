"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil

import pytest

import checks
import layertrace
import run

QUASI_STATIC_PATH = (
    "channel.realize_random_channel",
    "noise.sample_noise",
    "qam.qam_map",
    "waveform.modulate",
    "channel.apply_channel",
    "channel.frequency_response",
    "waveform.apply_inverse_precoder",
    "qam.qam_demap",
)


def _ber_reference(tmp_path):
    inv = run.WORKLOADS["ber_quasi_static"][0]
    out = tmp_path / "out"
    shutil.copytree(run.REFERENCE_DIR / inv.name, out)
    return inv, out


def _check(inv, out):
    return checks.check_outputs(out, run.REFERENCE_DIR / inv.name, inv.budget(), ref_seed=True)


def test_reference_outputs_pass(tmp_path):
    inv, out = _ber_reference(tmp_path)
    result = _check(inv, out)
    assert result.problems == []
    assert result.identical_csvs == 4
    assert result.frames_skipped == 0


def test_checker_flags_errors_beyond_three_sigma(tmp_path):
    inv, out = _ber_reference(tmp_path)
    path = out / "ber_ofdm.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    bits, errors = int(row[header.index("bits")]), int(row[header.index("errors")])
    p = errors / bits
    moved = errors + math.ceil(3.5 * math.sqrt(bits * p * (1 - p)))
    row[header.index("errors")] = str(moved)
    row[header.index("ber")] = repr(moved / bits)
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")

    result = _check(inv, out)
    assert len(result.problems) == 1
    assert "outside" in result.problems[0]
    assert result.identical_csvs == 3


def test_checker_flags_bits_short_of_whole_frames(tmp_path):
    inv, out = _ber_reference(tmp_path)
    path = out / "ber_ofdm.csv"
    path.write_text(path.read_text().replace(",40320,", ",40319,", 1))
    assert any("whole frames" in p for p in _check(inv, out).problems)


def test_checker_flags_nonzero_exit(tmp_path, monkeypatch):
    bad = run.Invocation("bad", "ber", "no_such_config.yaml", ber=True)
    monkeypatch.setitem(run.WORKLOADS, "bad", (bad,))
    rep = run.run_repetition("bad", run.REFERENCE_SEED, tmp_path, traced=False)
    assert rep.attempted == 1
    assert rep.failed == 1
    assert "exit 2" in rep.problems[0]


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(150 * 2**20)  # raises this process's peak RSS
    args = ["ber", "--threads", "1", "--out", str(tmp_path / "out"), "--dry-run"]
    child = run.run_child(args, tmp_path / "logs")
    assert child.ok, child.stderr
    assert 10 < child.rss_mb < 100
    del ballast


def test_checker_flags_analysis_value_drift(tmp_path):
    ref = run.REFERENCE_DIR / "analyze_noise" / "summary.csv"
    text = ref.read_text()
    assert checks.check_value_table("summary.csv", text, text) == []
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-7))
    drifted = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert checks.check_value_table("summary.csv", drifted, text)


TINY = {
    "waveforms": (
        "n: 12\n"
        "waveforms:\n  - kind: ofdm\n  - kind: otfs\n    l: 3\n"
        "  - kind: afdm\n    q: -4.0\n    alpha: 0.1\n",
        3,
    ),
    "fdma": (
        "n: 24\n"
        "layout:\n  - kind: ofdm\n    n: 12\n  - kind: otfs\n    k: 4\n    l: 3\n",
        1,
    ),
}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_calls_per_frame_on_tiny_config(tmp_path, kind):
    targets_yaml, targets = TINY[kind]
    config = tmp_path / "tiny.yaml"
    config.write_text(
        targets_yaml
        + "channel:\n  num_taps: 4\nnoise:\n  kind: white\nqam_order: 16\n"
        "snr_db: [10.0, 20.0]\nbits_per_point: 10000\nseed: 3\n"
    )
    spans = tmp_path / "spans.json"
    args = ["ber", "--config", str(config), "--threads", "1", "--out", str(tmp_path / "out")]
    child = run.run_child(args, tmp_path / "logs", spans_path=spans)
    assert child.ok, child.stderr

    trace = json.loads(spans.read_text())
    metrics = layertrace.layer_metrics(layertrace.merge_totals([layertrace.totals(trace)]))
    n = 24 if kind == "fdma" else 12
    frames_per_point = math.ceil(10000 / (4 * n))
    assert metrics["sim.frames"] == 2 * frames_per_point
    assert metrics["sim.draws_per_frame"] == targets
    path = QUASI_STATIC_PATH
    if kind == "fdma":
        # the layout composes and splits in fdma, one waveform call per block
        path = ("channel.realize_random_channel", "noise.sample_noise", "qam.qam_map",
                "fdma.compose_fdma", "channel.apply_channel",
                "channel.frequency_response", "fdma.split_frequency", "qam.qam_demap")
    for name in path:
        assert metrics[f"{name}.calls_per_frame"] == targets, name
    assert metrics["channel.build_channel.calls_per_frame"] == 0

    root = [s for s in trace["spans"] if s[3] == -1]
    assert [s[0] for s in root] == ["cli.main"]
    assert metrics["trace.self_s"] == pytest.approx(root[0][2] - root[0][1], rel=1e-9)
