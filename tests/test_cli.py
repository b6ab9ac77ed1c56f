"""Tests for the command-line interface: configs, outputs, exit codes."""

import csv
import gc
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import wavelab as wl
from wavelab import cli
from wavelab.cli import main

from oracles import DENSE_SIZE_LIMIT


def run_cli(*argv):
    return main(list(argv))


def write_yaml(path: Path, doc: dict) -> str:
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def numbers_in_csvs(out: Path) -> list:
    """Every cell of every CSV in ``out`` that reads as a float."""
    numbers = []
    for path in sorted(out.glob("*.csv")):
        for row in read_csv(path)[1]:
            for cell in row:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    pass
    return numbers


# Half the largest float: the noise power a run may spread over its bins
HEADROOM = sys.float_info.max / 2


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    assert run_cli("analyze-noise", "--out", str(out)) == 0
    return out


class TestAnalyzeNoise:

    def test_emits_nine_curves_and_summary(self, out_dir):
        curves = sorted(p.name for p in out_dir.glob("variance_*.csv"))
        assert len(curves) == 9
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "manifest.json").exists()

    def test_manifest_records_versions(self, out_dir):
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert platform.python_version().startswith(manifest["python"])
        assert manifest["numpy"] == np.__version__

    def test_manifest_records_the_blas_library(self, out_dir, tmp_path, monkeypatch):
        blas = json.loads((out_dir / "manifest.json").read_text())["blas"]
        if tuple(map(int, np.__version__.split(".")[:2])) >= (1, 26):
            assert blas == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
            assert isinstance(blas, str) and blas
        else:
            assert blas is None
        # numpy before 1.26 has a show_config without a mode argument: null
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert run_cli("verify-appendix", "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["blas"] is None

    def test_summary_ordering_per_profile(self, out_dir):
        header, rows = read_csv(out_dir / "summary.csv")
        idx = {name: header.index(name) for name in ("waveform", "profile", "std")}
        by_profile = {}
        for row in rows:
            by_profile.setdefault(row[idx["profile"]], {})[row[idx["waveform"]]] = float(
                row[idx["std"]]
            )
        for profile, stds in by_profile.items():
            afdm = next(v for k, v in stds.items() if k.startswith("AFDM"))
            otfs = next(v for k, v in stds.items() if k.startswith("OTFS"))
            ofdm = stds["OFDM"]
            assert afdm < otfs < ofdm, profile

    def test_summary_recomputable_from_curves(self, out_dir):
        header, rows = read_csv(out_dir / "summary.csv")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == manifest["outputs"]
        slug_to_label = {
            wf.slug: wf.label
            for wf in (
                wl.WaveformConfig.ofdm(64),
                wl.WaveformConfig.otfs(8, 8),
                wl.WaveformConfig.afdm(64, -4.0, 0.1),
            )
        }
        summary = {(row[0], row[1]): (float(row[2]), float(row[3])) for row in rows}
        checked = 0
        for curve_file in out_dir.glob("variance_*.csv"):
            _, curve_rows = read_csv(curve_file)
            variances = np.array([float(r[1]) for r in curve_rows])
            slug, profile = curve_file.stem.replace("variance_", "").rsplit("_", 1)
            mean, std = summary[(slug_to_label[slug], profile)]
            assert abs(std - wl.whitening_std(variances)) < 1e-12
            assert abs(mean - variances.mean()) < 1e-12
            checked += 1
        assert checked == 9

    def test_white_profile_is_already_white(self, tmp_path):
        config = write_yaml(
            tmp_path / "cfg.yaml",
            {"n": 32, "profiles": [{"kind": "white"}]},
        )
        out = tmp_path / "out"
        assert run_cli("analyze-noise", "--config", config, "--out", str(out)) == 0
        _, rows = read_csv(out / "summary.csv")
        assert len(rows) == 3
        assert all(float(row[3]) < 1e-9 for row in rows)

    def test_wideband_beyond_dense_limit(self, tmp_path):
        n, sigma_w = 8192, 1.5
        assert n > DENSE_SIZE_LIMIT
        profiles = {"impulse": {}, "interferer": {"power_fraction": 1.0}}
        config = write_yaml(tmp_path / "cfg.yaml", {
            "n": n, "sigma_w": sigma_w,
            "profiles": [{"kind": kind, **kw} for kind, kw in profiles.items()],
            "waveforms": [{"kind": "ofdm"}, {"kind": "otfs", "l": 64},
                          {"kind": "afdm", "q": 1 / 3, "alpha": 0.3}],
        })
        out = tmp_path / "out"
        assert run_cli("analyze-noise", "--config", config, "--out", str(out)) == 0
        _, rows = read_csv(out / "summary.csv")
        assert len(rows) == 6
        for row in rows:
            # Q^{-1} is unitary, so the mean variance is sigma_w^2 mean(gamma)
            gains = wl.make_profile(row[1], n, **profiles[row[1]]).gains
            assert float(row[2]) == pytest.approx(sigma_w**2 * gains.mean(), rel=1e-12)

    # sigma_w**2 * n bounds every variance and their sum: refused past the headroom
    SIGMA_BOUND = math.sqrt(HEADROOM / 64)

    @pytest.mark.parametrize("sigma_w,code", [
        (1.0e150, 0), (SIGMA_BOUND, 0), (float(np.nextafter(SIGMA_BOUND, np.inf)), 2),
    ], ids=["1e150", "bound", "above-bound"])
    def test_sigma_w_bound(self, tmp_path, capsys, sigma_w, code):
        # 1.0e150 used to write std = inf with exit 0
        config = write_yaml(tmp_path / "cfg.yaml", {"sigma_w": sigma_w})
        out = tmp_path / "o"
        assert run_cli("analyze-noise", "--config", config, "--out", str(out)) == code
        if code:
            assert "'sigma_w'" in capsys.readouterr().err
            assert not out.exists()
        else:
            numbers = numbers_in_csvs(out)
            assert len(numbers) > 9 * 64 and all(map(math.isfinite, numbers))


class TestSparsity:
    def test_reports_otfs_row_count(self, tmp_path):
        config = write_yaml(
            tmp_path / "cfg.yaml",
            {"entries": [{"kind": "otfs", "n": 64, "k": 8, "l": 8}]},
        )
        out = tmp_path / "out"
        assert run_cli("sparsity", "--config", config, "--out", str(out)) == 0
        doc = json.loads((out / "sparsity.json").read_text())
        (report,) = doc["reports"]
        assert report["nonzeros_per_row_min"] == 8
        assert report["nonzeros_per_row_max"] == 8
        assert report["density"] == pytest.approx(8 / 64)

    def test_wideband_beyond_dense_limit(self, tmp_path):
        entries = [{"kind": "ofdm", "n": 8192}, {"kind": "otfs", "n": 8192, "l": 64},
                   {"kind": "afdm", "n": 8192, "q": -4.0}]
        config = write_yaml(tmp_path / "cfg.yaml", {"entries": entries})
        out = tmp_path / "out"
        assert run_cli("sparsity", "--config", config, "--out", str(out)) == 0
        doc = json.loads((out / "sparsity.json").read_text())
        # one per row, K = N/L per row, and the N/|q| comb of an integer rate
        assert [r["nonzeros_per_row_max"] for r in doc["reports"]] == [1, 128, 2048]
        assert all(len(r["row_counts"]) == 8192 for r in doc["reports"])


class TestBer:
    def small_config(self, tmp_path, seed=5):
        return write_yaml(
            tmp_path / "ber.yaml",
            {
                "n": 60,
                "waveforms": [{"kind": "ofdm"}, {"kind": "afdm", "q": -4.0, "alpha": 0.1}],
                "channel": {"num_taps": 4},
                "noise": {"kind": "white"},
                "snr_db": [10.0, 20.0],
                "bits_per_point": 10_000,
                "seed": seed,
            },
        )

    def test_runs_and_emits_curves(self, tmp_path):
        config = self.small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("ber", "--config", config, "--out", str(out)) == 0
        header, rows = read_csv(out / "ber_ofdm.csv")
        assert header == ["snr_db", "bits", "errors", "ber", "stderr"]
        assert len(rows) == 2
        for row in rows:
            assert int(row[1]) >= 10_000
            assert float(row[3]) == int(row[2]) / int(row[1])

    def test_seed_flag_overrides_config(self, tmp_path):
        config = self.small_config(tmp_path, seed=5)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("ber", "--config", config, "--out", str(out_a), "--seed", "9") == 0
        assert run_cli("ber", "--config", config, "--out", str(out_b)) == 0
        bytes_a = (out_a / "ber_ofdm.csv").read_bytes()
        bytes_b = (out_b / "ber_ofdm.csv").read_bytes()
        assert bytes_a != bytes_b
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_manifest_records_no_thread_count(self, tmp_path):
        # chunks run serially whatever --threads says, so the manifest does not claim one
        config = self.small_config(tmp_path)
        out = tmp_path / "o"
        assert run_cli("ber", "--config", config, "--out", str(out), "--threads", "4") == 0
        assert "threads" not in json.loads((out / "manifest.json").read_text())

    def test_mmse_null_bins_at_underflowed_noise_power(self, tmp_path, capsys):
        # h_f = [2, 0, 2, 0]; at 4000 dB the noise power underflows to 0, and a null
        # bin's MMSE gain once read 0/0 = NaN, decided as whatever NaN casts to. Its
        # gain is now 0, so the run warns of nothing and counts what it does at 400 dB
        errors = []
        for snr_db in (400.0, 4000.0):
            config = write_yaml(tmp_path / "null.yaml", {
                "n": 4,
                "waveforms": [{"kind": "ofdm"}],
                "channel": {"taps": [{"delay": 0, "gain_re": 1}, {"delay": 2, "gain_re": 1}]},
                "snr_db": [snr_db],
                "bits_per_point": 10_000,
            })
            out = tmp_path / f"snr{snr_db:g}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli("ber", "--config", config, "--out", str(out)) == 0
            assert not capsys.readouterr().err
            header, rows = read_csv(out / "ber_ofdm.csv")
            errors.append(int(rows[0][header.index("errors")]))
        assert errors[1] == errors[0]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_refused(self, tmp_path, capsys, threads):
        # both used to exit 0 and run serially
        config = self.small_config(tmp_path)
        out = tmp_path / "o"
        assert run_cli("ber", "--config", config, "--out", str(out), "--threads", threads) == 2
        assert "--threads must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_lowest_snr_whose_noise_power_fits_runs(self, tmp_path):
        # sigma_w**2 overflows below about -3082.5 dB, which the parse refuses
        config = write_yaml(tmp_path / "low.yaml", {
            "n": 12, "waveforms": [{"kind": "ofdm"}], "channel": {"num_taps": 2},
            "snr_db": [-3000.0], "bits_per_point": 10_000,
        })
        assert run_cli("ber", "--config", config, "--out", str(tmp_path / "o")) == 0

    def test_manifest_records_frames_and_skips(self, tmp_path):
        config = self.small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("ber", "--config", config, "--out", str(out)) == 0
        points = json.loads((out / "manifest.json").read_text())["points"]
        # 2 waveforms x 2 SNR points, 42 frames of 240 bits each
        assert [(p["label"], p["snr_db"]) for p in points] == [
            ("OFDM", 10.0), ("OFDM", 20.0), ("AFDM (q=-4)", 10.0), ("AFDM (q=-4)", 20.0)
        ]
        assert all(p["frames"] == 42 and p["skipped_frames"] == 0 for p in points)

    def test_zf_refuses_a_channel_with_no_power(self, tmp_path, capsys):
        # used to exit 0 with BER 0.49 from NaN bins, and two RuntimeWarnings
        config = write_yaml(
            tmp_path / "zero.yaml",
            {
                "n": 16,
                "waveforms": [{"kind": "ofdm"}],
                "channel": {"taps": [{"delay": 0, "gain_re": 0.0}]},
                "equalizer": "zf",
                "bits_per_point": 10_000,
            },
        )
        out = tmp_path / "o"
        assert run_cli("ber", "--config", config, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "numerical failure: all 157 frames at 0.0 dB were skipped" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("equalizer, snr_db", [("zf", 20.0), ("mmse", 200.0)])
    def test_singular_banded_solve_exits_3(self, tmp_path, capsys, equalizer, snr_db):
        # cond(H) = 0.99e12 passes the ZF guard, but the banded solve of H^H H + rho I
        # meets an exact zero pivot: numpy's LinAlgError used to end the run (exit 1)
        config = write_yaml(tmp_path / "singular.yaml", {
            "n": 8, "waveforms": [{"kind": "ofdm"}], "equalizer": equalizer,
            "snr_db": [snr_db], "bits_per_point": 10_000,
            "channel": {"taps": [{"delay": 0, "gain_re": 1.0},
                                 {"delay": 1, "gain_re": 0.6788007455315704,
                                  "gain_im": -0.7343225094342021, "doppler": 0.3}]},
        })
        assert run_cli("ber", "--config", config, "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: all 313 frames at {snr_db} dB were skipped" in err
        assert "Traceback" not in err

    def test_zf_refuses_a_spectral_null_quietly(self, tmp_path, capsys):
        # gains 3 and -3 null bin 0; max|h_f| / tiny used to overflow with a
        # RuntimeWarning on stderr before the guard refused the frame
        config = write_yaml(tmp_path / "null.yaml", {
            "n": 12, "waveforms": [{"kind": "ofdm"}], "equalizer": "zf", "bits_per_point": 10_000,
            "channel": {"taps": [{"delay": 0, "gain_re": 3.0}, {"delay": 1, "gain_re": -3.0}]},
        })
        assert run_cli("ber", "--config", config, "--out", str(tmp_path / "o")) == 3
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_negative_zero_max_doppler_runs_as_zero(self, tmp_path):
        # -0.0 passed the max_doppler >= 0 check and then ended in numpy's
        # "high - low < 0" traceback (exit 1) while its dry run exited 0
        bodies = []
        for doppler in (-0.0, 0.0):
            config = write_yaml(tmp_path / "ber.yaml", {
                "n": 12, "waveforms": [{"kind": "ofdm"}], "bits_per_point": 10_000,
                "channel": {"num_taps": 4, "max_doppler": doppler},
            })
            out = tmp_path / repr(doppler)
            assert run_cli("ber", "--config", config, "--out", str(out)) == 0
            bodies.append((out / "ber_ofdm.csv").read_text())
        assert bodies[0] == bodies[1]

    # 2*pi*doppler, the start of every Doppler phase, stays finite up to this
    DOPPLER_BOUND = sys.float_info.max / (2 * math.pi)
    # over n = 12 bins, n * (sum |gain|)**2 bounds a fixed channel's power
    GAIN_BOUND = math.sqrt(HEADROOM / 12)
    TAP = {"delay": 0, "gain_re": 1.0}
    SWEPT = {"sweep-l": {"l_values": [1, 3]}, "sweep-q": {"q_values": [-4.0, 2.0]}}

    @pytest.mark.parametrize("subcommand,channel,key,code", [
        ("ber", {"num_taps": 4, "max_doppler": DOPPLER_BOUND}, None, 0),
        ("ber", {"num_taps": 4, "max_doppler": float(np.nextafter(DOPPLER_BOUND, np.inf))},
         "max_doppler", 2),
        ("sweep-l", {"taps": [TAP, {"delay": 2, "gain_re": 0.3, "doppler": -DOPPLER_BOUND}]},
         None, 0),
        ("sweep-l", {"taps": [TAP, {"delay": 2, "gain_re": 0.3,
                                    "doppler": float(np.nextafter(-DOPPLER_BOUND, -np.inf))}]},
         "doppler", 2),
        ("sweep-q", {"taps": [{"delay": 0, "gain_re": GAIN_BOUND}]}, None, 0),
        ("ber", {"taps": [{"delay": 1, "gain_im": -GAIN_BOUND, "doppler": 0.3}]}, None, 0),
        ("sweep-q", {"taps": [{"delay": 0, "gain_re": float(np.nextafter(GAIN_BOUND, np.inf))}]},
         "gain_re", 2),
        ("sweep-q", {"taps": [{"delay": 0, "gain_re": GAIN_BOUND / 2},
                              {"delay": 1, "gain_im": GAIN_BOUND / 2 * 1.000001}]}, "gain_im", 2),
    ], ids=["max-doppler-bound", "max-doppler-above", "doppler-bound", "doppler-below",
            "gain-bound", "gain-bound-banded", "gain-above", "gain-sum-above"])
    @pytest.mark.parametrize("equalizer", ["mmse", "zf"])
    def test_channel_bounds(self, tmp_path, capsys, subcommand, channel, key, code, equalizer):
        # at 1.0e+308 the Doppler keys ended in a traceback (exit 1) and a gain in
        # NaN casts with exit 0; at each bound every number stays finite
        config = write_yaml(tmp_path / "cfg.yaml", {
            "n": 12, "waveforms": [{"kind": "ofdm"}, {"kind": "afdm", "q": -4.0, "alpha": 0.1}],
            "snr_db": [20.0], "bits_per_point": 10_000, "equalizer": equalizer,
            "channel": channel, **self.SWEPT.get(subcommand, {}),
        })
        out = tmp_path / "o"
        assert run_cli(subcommand, "--config", config, "--out", str(out)) == code
        if code:
            assert repr(key) in capsys.readouterr().err
            assert not out.exists()
        else:
            numbers = numbers_in_csvs(out)
            assert numbers and all(map(math.isfinite, numbers))

    # what a layout run's unread 'waveforms' key may hold: a list that holds itself,
    # a set, which JSON cannot write, and four levels of ten aliases (10,000 leaves)
    UNREAD_WAVEFORMS = {
        "recursive": "waveforms: &a [*a]",
        "set": "waveforms: !!set {a, b}",
        "aliases": "waveforms:\n- &a [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n" + "".join(
            f"- &{name} [{', '.join([f'*{prev}'] * 10)}]\n" for prev, name in zip("abc", "bcd")),
    }

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]], ids=["real", "dry-run"])
    @pytest.mark.parametrize("waveforms", list(UNREAD_WAVEFORMS.values()),
                             ids=list(UNREAD_WAVEFORMS))
    def test_layout_run_drops_its_unread_waveforms(self, tmp_path, capsys, waveforms, flags):
        config = tmp_path / "layout.yaml"
        config.write_text("n: 12\nlayout: [{kind: ofdm, n: 12}]\nchannel: {num_taps: 2}\n"
                          f"snr_db: [10.0]\nbits_per_point: 10000\n{waveforms}\n")
        out = tmp_path / "o"
        assert run_cli("ber", "--config", str(config), "--out", str(out), *flags) == 0
        echo = capsys.readouterr().out
        assert len(echo) < 4096
        if flags:
            assert '"waveforms"' not in echo and '"layout"' in echo
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            assert "waveforms" not in manifest["config"] and "layout" in manifest["config"]

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        config = self.small_config(tmp_path)
        out = tmp_path / "dry"
        assert run_cli("ber", "--config", config, "--out", str(out), "--dry-run") == 0
        assert not out.exists()
        assert "config OK" in capsys.readouterr().out


class TestSweeps:
    def test_sweep_l_csv(self, tmp_path):
        config = write_yaml(
            tmp_path / "sl.yaml",
            {
                "n": 12,
                "l_values": [1, 3, 12],
                "waveforms": [{"kind": "ofdm"}],
                "channel": {"num_taps": 4},
                "snr_db": [20.0],
                "bits_per_point": 10_000,
                "seed": 2,
            },
        )
        out = tmp_path / "out"
        assert run_cli("sweep-l", "--config", config, "--out", str(out)) == 0
        header, rows = read_csv(out / "sweep_l.csv")
        assert header[0] == "l"
        assert [float(r[0]) for r in rows] == [1.0, 3.0, 12.0]
        points = json.loads((out / "manifest.json").read_text())["points"]
        assert [p["label"] for p in points] == ["OTFS (L=1)", "OTFS (L=3)", "OTFS (L=12)"]
        assert all(p["frames"] == 209 and p["skipped_frames"] == 0 for p in points)

    def test_sweep_q_csv(self, tmp_path):
        config = write_yaml(
            tmp_path / "sq.yaml",
            {
                "n": 12,
                "q_values": [-4.0, 2.0],
                "alpha": 0.1,
                "waveforms": [{"kind": "ofdm"}],
                "channel": {"num_taps": 4},
                "snr_db": [20.0],
                "bits_per_point": 10_000,
                "seed": 2,
            },
        )
        out = tmp_path / "out"
        assert run_cli("sweep-q", "--config", config, "--out", str(out)) == 0
        header, rows = read_csv(out / "sweep_q.csv")
        assert header[0] == "q"
        assert len(rows) == 2


def fdma_rows_block_by_block(layout, seed, jammed, jam_power):
    """The four fdma-demo tables, each block precoded alone and the jammer's gains
    laid over the whole layout, then sliced per block."""
    rng = np.random.default_rng(seed)
    widths = [b.stop - b.start for b in layout.blocks]
    data = [(rng.standard_normal(w) + 1j * rng.standard_normal(w)) / np.sqrt(2) for w in widths]
    x = np.fft.ifft(layout.precode(np.concatenate(data)), norm="ortho")
    recovered = layout.receive(np.fft.fft(x, norm="ortho"))
    flat = np.ones(layout.N)
    jammed_gains = flat.copy()
    jammed_gains[layout.blocks[jammed]] += jam_power
    tables = {"roundtrip.csv": [], "leakage.csv": [], "jammer_variance.csv": [],
              "block_whitening.csv": []}
    for i, (wf, sl) in enumerate(zip(layout.configs, layout.blocks)):
        error = float(np.max(np.abs(recovered[sl] - data[i])))
        tables["roundtrip.csv"].append([i, wf.label, error])
        alone = [np.zeros(w, complex) for w in widths]
        alone[i] = data[i]
        x = np.fft.ifft(layout.precode(np.concatenate(alone)), norm="ortho")
        spectrum = np.abs(np.fft.fft(x, norm="ortho")) ** 2
        inside, total = spectrum[sl].sum(), spectrum.sum()
        tables["leakage.csv"].append([i, wf.label, float((total - inside) / total)])
        pairs = zip(wf.demod_power(flat[sl]).tolist(), wf.demod_power(jammed_gains[sl]).tolist())
        tables["jammer_variance.csv"] += [[i, wf.label, m, *pair] for m, pair in enumerate(pairs)]
        local = flat[sl].copy()
        local[wf.N // 2] += jam_power
        whitening = wl.whitening_std(wf.demod_power(local))
        tables["block_whitening.csv"].append([i, wf.label, whitening])
    return tables


class TestFdmaDemo:
    def test_outputs_and_containment(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("fdma-demo", "--out", str(out)) == 0
        _, roundtrip = read_csv(out / "roundtrip.csv")
        assert all(float(row[2]) < 1e-10 for row in roundtrip)
        _, leakage = read_csv(out / "leakage.csv")
        assert all(float(row[2]) < 1e-12 for row in leakage)
        _, variances = read_csv(out / "jammer_variance.csv")
        for row in variances:
            block, clean, jammed = int(row[0]), float(row[3]), float(row[4])
            if block != 1:
                assert clean == jammed
            # jammed block rows must show strictly raised variance
        jammed_rows = [row for row in variances if int(row[0]) == 1]
        assert all(float(r[4]) > float(r[3]) for r in jammed_rows)

    def test_block_whitening_favors_afdm(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("fdma-demo", "--out", str(out)) == 0
        _, rows = read_csv(out / "block_whitening.csv")
        stds = {row[1]: float(row[2]) for row in rows}
        afdm = next(v for k, v in stds.items() if k.startswith("AFDM"))
        assert afdm < stds["OFDM"]

    # an AFDM block as wide as its layout: without the headroom's factor 2, the
    # FFT of its jammed gains overflowed at the bound's value
    WIDE_AFDM = [{"kind": "afdm", "n": 37, "q": 6.453259314418068}]

    @pytest.mark.parametrize("layout,jammed,jam_power,code", [
        (None, 1, 1.0e200, 0),
        (None, 1, HEADROOM / 36, 0),
        (None, 1, float(np.nextafter(HEADROOM / 36, np.inf)), 2),
        (WIDE_AFDM, 0, HEADROOM / 37, 0),
        (WIDE_AFDM, 0, float(np.nextafter(HEADROOM / 37, np.inf)), 2),
    ], ids=["1e200", "bound", "above-bound", "wide-afdm-bound", "wide-afdm-above-bound"])
    def test_jam_power_bound(self, tmp_path, capsys, layout, jammed, jam_power, code):
        # no block's demod_power sums more than N * (1 + jam_power), N the layout's
        # size; 1.0e200 used to write whitening_std = inf with exit 0
        doc = {"jam_power": jam_power, "jammed_block": jammed}
        if layout:
            doc["layout"] = layout
        config = write_yaml(tmp_path / "cfg.yaml", doc)
        out = tmp_path / "o"
        assert run_cli("fdma-demo", "--config", config, "--out", str(out)) == code
        if code:
            assert "'jam_power'" in capsys.readouterr().err
            assert not out.exists()
        else:
            numbers = numbers_in_csvs(out)
            assert numbers and all(map(math.isfinite, numbers))

    # OTFS first, a block of another width, the jammer on the last block
    OTFS_FIRST = {
        "layout": [{"kind": "otfs", "k": 4, "l": 3}, {"kind": "ofdm", "n": 12},
                   {"kind": "afdm", "n": 16, "q": -4.0, "alpha": 0.1},
                   {"kind": "afdm", "n": 12, "q": 0.5}],
        "jammed_block": 3,
        "jam_power": 1.0e3,
        "seed": 5,
    }

    @pytest.mark.parametrize("doc", [{}, OTFS_FIRST], ids=["default", "otfs-first"])
    def test_tables_equal_blocks_precoded_alone(self, tmp_path, doc):
        from wavelab.configio import parse_layout

        config = {**cli.DEFAULT_FDMA, **doc}
        out = tmp_path / "o"
        argv = ["--config", write_yaml(tmp_path / "cfg.yaml", doc)] if doc else []
        assert run_cli("fdma-demo", *argv, "--out", str(out)) == 0
        expected = fdma_rows_block_by_block(parse_layout(config["layout"]), config["seed"],
                                            config["jammed_block"], config["jam_power"])
        for name, rows in expected.items():
            # write_csv writes each float as its repr, so the strings match exactly
            assert read_csv(out / name)[1] == [[str(v) for v in row] for row in rows], name


class TestConfigSerialization:
    # each parser against a literal YAML-shaped document
    def test_channel_round_trip(self):
        from wavelab.configio import parse_channel

        spec = wl.ChannelSpec([0, 3], [0.6 - 0.2j, 0.1 + 0.4j], [0.0, 0.25])
        doc = {
            "taps": [
                {"delay": 0, "gain_re": 0.6, "gain_im": -0.2, "doppler": 0.0},
                {"delay": 3, "gain_re": 0.1, "gain_im": 0.4, "doppler": 0.25},
            ]
        }
        assert parse_channel(doc, 12).describe() == spec.describe()
        gen = wl.ChannelGenerator(num_taps=8, max_doppler=0.3)
        assert parse_channel({"num_taps": 8, "max_doppler": 0.3}, 12) == gen

    def test_waveform_round_trip(self):
        from wavelab.configio import parse_waveform

        for doc, cfg in (
            ({"kind": "ofdm", "n": 12}, wl.WaveformConfig.ofdm(12)),
            ({"kind": "otfs", "n": 12, "k": 4, "l": 3}, wl.WaveformConfig.otfs(4, 3)),
            ({"kind": "otfs", "k": 4, "l": 3}, wl.WaveformConfig.otfs(4, 3)),
            (
                {"kind": "afdm", "n": 12, "q": -4.0, "alpha": 0.1},
                wl.WaveformConfig.afdm(12, -4.0, 0.1),
            ),
        ):
            assert parse_waveform(doc) == cfg

    def test_profile_round_trip(self):
        from wavelab.configio import parse_profile

        prof = wl.make_profile("impulse", 64, spikes=3, spike_offset=1)
        doc = {"kind": "impulse", "n": 64, "spikes": 3, "spike_offset": 1, "power_fraction": 0.9}
        again = parse_profile(doc, 64)
        assert np.array_equal(prof.gains, again.gains)

    def test_sim_round_trip(self):
        from wavelab.configio import parse_sim

        cfg = wl.SimConfig(
            channel=wl.ChannelGenerator(num_taps=8),
            profile=wl.make_profile("interferer", 120),
            targets=(wl.WaveformConfig.otfs(12, 10),),
            snr_db=(10.0, 20.0),
            bits_per_point=10_000,
            seed=3,
        )
        again = parse_sim(
            {
                "n": 120,
                "channel": {"num_taps": 8, "max_doppler": 0.0},
                "noise": {"kind": "interferer", "n": 120, "width": 16, "start": 0,
                          "power_fraction": 0.9},
                "qam_order": 16,
                "snr_db": [10.0, 20.0],
                "bits_per_point": 10_000,
                "seed": 3,
                "equalizer": "mmse",
                "subcarrier_spacing_hz": 30_000.0,
                "waveforms": [{"kind": "otfs", "n": 120, "k": 12, "l": 10}],
            }
        )
        assert again.targets == cfg.targets
        assert again.channel == cfg.channel
        assert np.array_equal(again.profile.gains, cfg.profile.gains)
        assert wl.config_fingerprint(again) == wl.config_fingerprint(cfg)

    def test_explicit_tap_list_channel(self, tmp_path):
        # a fixed identity channel expressed as a tap list in the config
        config = write_yaml(
            tmp_path / "taps.yaml",
            {
                "n": 32,
                "waveforms": [{"kind": "ofdm"}],
                "channel": {"taps": [{"delay": 0, "gain_re": 1.0}]},
                "snr_db": [300.0],
                "bits_per_point": 10_000,
                "seed": 0,
            },
        )
        out = tmp_path / "out"
        assert run_cli("ber", "--config", config, "--out", str(out)) == 0
        _, rows = read_csv(out / "ber_ofdm.csv")
        assert int(rows[0][2]) == 0  # noiseless identity channel: no errors


class TestOutputNames:
    # both q values format to the slug afdm_qm4_a0: a row of TestStrictConfigReader.CASES
    BER_CLASH = ("n: 12\nchannel: {num_taps: 2}\nsnr_db: [20.0]\nbits_per_point: 10000\n"
                 "waveforms: [{kind: afdm, q: -4.0000001}, {kind: afdm, q: -4.0000002}]")

    def test_ber_clash_refused_before_the_run(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_ber ran on a config with clashing names")

        monkeypatch.setattr(wl.sim, "run_ber", never)
        config = tmp_path / "cfg.yaml"
        config.write_text(self.BER_CLASH + "\n")
        out = tmp_path / "o"
        assert run_cli("ber", "--config", str(config), "--out", str(out)) == 2
        assert not out.exists()  # no CSV, no manifest, not even the directory


class TestOutputDirectory:
    # each used to end in a FileExistsError or NotADirectoryError traceback, ber's
    # only after its whole simulation
    @pytest.mark.parametrize("subcommand,under", [("sparsity", ""), ("analyze-noise", "x")])
    def test_out_at_a_file_refused(self, tmp_path, capsys, subcommand, under):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / under if under else blocker
        assert run_cli(subcommand, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"wavelab {subcommand}: cannot write output" in err and str(out) in err

    def test_ber_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_ber ran with an output directory it cannot make")

        monkeypatch.setattr(wl.sim, "run_ber", never)
        out = tmp_path / "file"
        out.write_text("")
        assert run_cli("ber", "--out", str(out)) == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]], ids=["real", "dry-run"])
    def test_empty_out_refused(self, tmp_path, capsys, monkeypatch, flags):
        # used to exit 0 and write to wavelab_out/sparsity
        monkeypatch.chdir(tmp_path)
        assert run_cli("sparsity", "--out", "", *flags) == 2
        assert capsys.readouterr().err == (
            "wavelab sparsity: config error: --out must name a directory, got ''\n")
        assert not (tmp_path / "wavelab_out").exists()


# ``main(argv[2:])`` in a new interpreter, which exits with main's code and writes a
# report of its process to the file argv[1]; with no argv[2:] it only imports
# wavelab.cli, and then numpy, to report what numpy alone loads
PROBE = f"THREAD_VARS = {cli.THREAD_VARS!r}\n" + """\
import gc, json, os, sys
before = set(sys.modules)
none_before = sorted(name for name, m in sys.modules.items() if m is None)
seen = []
class Watch:  # the thread counts numpy loads under
    def find_spec(name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({var: os.environ.get(var) for var in THREAD_VARS})
sys.meta_path.insert(0, Watch)
from wavelab.cli import main
report = {"numpy_on_import": "numpy" in sys.modules, "frozen_before": gc.get_freeze_count()}
try:
    code = main(sys.argv[2:]) if sys.argv[2:] else 0
except SystemExit as exc:  # --version and --help
    code = exc.code
report.update(
    code=code, loaded=sorted(set(sys.modules) - before), frozen_after=gc.get_freeze_count(),
    numpy="numpy" in sys.modules, seen=seen[0] if seen else None,
    after={var: os.environ.get(var) for var in THREAD_VARS},
    libyaml="yaml._yaml" in sys.modules, ctypes="_ctypes" in sys.modules,
    none_before=none_before, none=sorted(name for name, m in sys.modules.items() if m is None))
if not sys.argv[2:]:
    import numpy
    report["numpy_loads"] = sorted(set(sys.modules) - before - set(report["loaded"]))
with open(sys.argv[1], "w") as fh:
    json.dump(report, fh)
sys.exit(code)
"""


def launch(report: Path, argv: list, stdout=subprocess.PIPE, **env) -> dict:
    """PROBE's report of ``main(argv)``, with its stderr, from an interpreter that
    exited 0. Its environment has none of THREAD_VARS (tier-1's conftest sets them)
    but those of ``env``, where a None value removes the variable."""
    env = {**{name: value for name, value in os.environ.items() if name not in cli.THREAD_VARS},
           "PYTHONPATH": str(Path(wl.__file__).resolve().parent.parent), **env}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(report), *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          env={name: value for name, value in env.items() if value is not None})
    assert proc.returncode == 0, proc.stderr
    return {**json.loads(report.read_text()), "stderr": proc.stderr}


@pytest.fixture(scope="session")
def fresh(tmp_path_factory):
    """``fresh(subcommand, text, flags, **env)``: :func:`launch`'s report of ``main``
    with ``text`` (if not None) as its config and ``flags``, or of ``main(flags)``
    with no subcommand. Each invocation runs once a session; the report's ``dir``
    holds its config (cfg.yaml) and its output directory (o)."""
    reports = {}

    def run(subcommand=None, text=None, flags=(), **env):
        key = (subcommand, text, tuple(flags), tuple(sorted(env.items())))
        if key not in reports:
            tmp = tmp_path_factory.mktemp("fresh")
            argv = [subcommand, "--out", str(tmp / "o"), *flags] if subcommand else [*flags]
            if text is not None:
                (tmp / "cfg.yaml").write_text(text + "\n")
                argv += ["--config", str(tmp / "cfg.yaml")]
            reports[key] = {**launch(tmp / "report.json", argv, **env), "dir": tmp}
        return reports[key]

    return run


class TestClosedStdout:
    """A reader that leaves before the plan is printed, as ``| head -c 0`` does:
    the plan is dropped, and the run still exits 0 without a traceback."""

    WIDEBAND = str(Path(wl.__file__).resolve().parents[2] / "configs" / "wideband_noise.yaml")

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["ber"], ["sparsity"], ["analyze-noise", "--config",
                                                                 WIDEBAND]],
                             ids=["ber", "sparsity", "analyze-noise-wideband"])
    def test_dry_run_exits_0(self, tmp_path, argv, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes
        try:
            stderr = launch(tmp_path / "report.json",
                            [*argv, "--dry-run", "--out", str(tmp_path / "o")], stdout=write_end,
                            PYTHONUNBUFFERED=None if buffered else "1")["stderr"]
        finally:
            os.close(write_end)
        assert "Traceback" not in stderr and "Exception ignored" not in stderr


class TestVerifyAppendix:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("verify-appendix", "--out", str(out)) == 0
        doc = json.loads((out / "verify_appendix.json").read_text())
        assert doc["failures"] == 0
        assert all(rec["ok"] for rec in doc["decimation_identity"])
        assert doc["sparse_special_case"]["support"] == [0, 4]

    def test_unattainable_tolerance_exits_3(self, tmp_path):
        config = write_yaml(
            tmp_path / "strict.yaml", {"decimation_tol": 1e-30}
        )
        out = tmp_path / "out"
        assert run_cli("verify-appendix", "--config", config, "--out", str(out)) == 3
        doc = json.loads((out / "verify_appendix.json").read_text())
        assert doc["failures"] > 0

    @pytest.mark.parametrize("n,b", [(1, 1), (8, 1), (16, 3)])
    def test_rate_refused_where_a_phase_overflows(self, tmp_path, n, b):
        # a = b*m + 1 is prime to b, so the identity takes a and b as they are
        def accepted(m):
            config = {**cli.DEFAULT_VERIFY, "n_values": [n], "a_values": [b * m + 1],
                      "b_values": [b]}
            run = cli.Run("verify-appendix", str(tmp_path), config)
            try:
                cli.cmd_verify_appendix(config, run)
            except wl.ConfigError as exc:
                assert "'a_values'" in str(exc)
                return False
            return True

        lo, hi = 0, 1 << 1030  # accepted, refused
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        largest, smallest_refused = b * lo + 1, b * hi + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isfinite(wl.verify_decimation_identity(n, largest, b))
            assert np.isfinite(wl.afdm_inverse_column(n, largest / b)).all()
        try:  # the next a up overflows a phase: exact, not merely safe
            with np.errstate(all="ignore"):
                finite = (math.isfinite(wl.verify_decimation_identity(n, smallest_refused, b))
                          and np.isfinite(wl.afdm_inverse_column(n, smallest_refused / b)).all())
        except OverflowError:
            finite = False
        assert not finite


class TestStrictConfigReader:
    # the CLI's exit-2 contract, one row per refusal: (subcommand, YAML text over
    # its defaults, the quoted key or message its error must hold; {config} stands
    # for the file's path). test_refused_with_exit_2 runs each row as ``refused``
    # says, on a real run and on a dry run
    CASES = [
        # each of these used to end in a traceback (exit 1)
        ("ber", "channel: {taps: 5}", "'taps'"),
        ("ber", "snr_db: [abc]", "'snr_db'"),
        ("ber", "bits_per_point: 1.0e4", "'bits_per_point'"),  # a string to PyYAML
        ("analyze-noise", "profiles: 5", "'profiles'"),
        ("sparsity", "entries: 5", "'entries'"),
        ("verify-appendix", "n_values: 8", "'n_values'"),
        ("sweep-l", "l_values: 4", "'l_values'"),
        ("ber", "channel: {taps: [5]}", "'taps'"),
        ("verify-appendix", "dirichlet_cases: [[8]]", "'dirichlet_cases'"),
        # each of these passed the type checks and ended in a traceback
        ("verify-appendix", "b_values: [0]", "'b_values'"),
        ("verify-appendix", "dirichlet_cases: [[0, 0]]", "'dirichlet_cases'"),
        # each of these used to be truncated or coerced, and ran with exit 0
        ("ber", "n: 12.7\nwaveforms: [{kind: ofdm}]", "'n'"),
        ("ber", "waveforms: [{kind: otfs, l: 2.5}]", "'l'"),
        ("fdma-demo", "jammed_block: 1.5", "'jammed_block'"),
        ("ber", "seed: true", "'seed'"),
        # ran with exit 0 and wrote negative noise variances
        ("fdma-demo", "jam_power: -100", "'jam_power'"),
        # each of these ran no target and ended in a traceback
        ("sweep-l", "l_values: []", "'l_values' must be a nonempty list"),
        ("sweep-q", "q_values: []", "'q_values' must be a nonempty list"),
        # each of these seeded numpy with a negative seed: a traceback
        ("fdma-demo", "seed: -3", "'seed'"),
        ("sweep-l", "noise: {kind: equalized, seed: -3}", "'seed'"),
        # ran with exit 0 and wrote the variances of sigma_w = 2
        ("analyze-noise", "sigma_w: -2.0", "'sigma_w'"),
        # never read, so each of these ran with exit 0 and went into the manifest
        ("analyze-noise", "seed: abc", "'seed'"),
        ("sparsity", "seed: 1.5", "'seed'"),
        ("verify-appendix", "seed: -5", "'seed'"),
        ("analyze-noise", "seed: -5", "'seed'"),
        ("sparsity", "seed: abc", "'seed'"),
        ("verify-appendix", "seed: 1.5", "'seed'"),
        # each of these failed every check it bounds and exited 3
        ("verify-appendix", "decimation_tol: 0.0", "'decimation_tol'"),
        ("verify-appendix", "dirichlet_tol: -1.0", "'dirichlet_tol'"),
        ("verify-appendix", "density_threshold: 1.5", "'density_threshold'"),
        # each of these checked nothing and exited 0
        ("verify-appendix", "density_threshold: -1.0", "'density_threshold'"),
        ("verify-appendix", "n_values: []", "'n_values'"),
        ("verify-appendix", "a_values: []", "'a_values'"),
        ("verify-appendix", "b_values: []", "'b_values'"),
        ("verify-appendix", "dirichlet_cases: []", "'dirichlet_cases'"),
        ("verify-appendix", "density_q: []", "'density_q'"),
        ("verify-appendix", "density_n: []", "'density_n'"),
        ("analyze-noise", "profiles: []", "'profiles'"),
        ("sparsity", "entries: []", "'entries'"),
        # each of these was refused only by the work, with no key named
        ("verify-appendix", "sparsity_tol: -1.0", "'sparsity_tol'"),
        ("sparsity", "tol: 0.0", "'tol'"),
        ("analyze-noise", "waveforms: [{kind: ofdm, n: 8}]", "'n'"),
        ("verify-appendix", "n_values: [2000000]", "'n_values'"),
        # each of these allocated an array of that size: a traceback (exit 1)
        ("ber", "n: 1000000000000000000", "'n'"),
        ("ber", "channel: {num_taps: 1000000000000000000}", "'num_taps'"),
        ("ber", "noise: {kind: equalized, num_taps: 1000000000000000000}", "'num_taps'"),
        ("analyze-noise", "n: 1000000000000000000", "'n'"),
        ("sparsity", "entries: [{kind: otfs, k: 1000000000, l: 1000000000}]", "'n'"),
        ("verify-appendix", "dirichlet_cases: [[1000000000000000000, 1]]", "'dirichlet_cases'"),
        ("verify-appendix", "density_n: [1000000000000000000]", "'density_n'"),
        # each of these ran with exit 0 and ignored a key of another noise kind
        ("ber", "noise: {kind: white, spikes: 3}", "'spikes'"),
        ("ber", "noise: {kind: interferer, spikes: 3}", "'spikes'"),
        ("analyze-noise", "profiles: [{kind: equalized, width: 3}]", "'width'"),
        # built N = 9, and blamed the noise length or reported n = 9
        ("ber", "n: 12\nwaveforms: [{kind: otfs, n: 12, k: 3, l: 3}]", "'n'"),
        ("sparsity", "entries: [{kind: otfs, n: 12, k: 3, l: 3}]", "'n'"),
        # each of these read a missing n as 0 and was refused with no key named
        ("sparsity", "entries: [{kind: ofdm}]", "'n'"),
        ("sparsity", "entries: [{kind: afdm, q: 0.5}]", "'n'"),
        ("sparsity", "entries: [{kind: otfs, l: 3}]", "'n'"),
        # each of these reached the waveform as its size and was refused with no key named
        ("analyze-noise", "n: 0", "'n'"),
        ("ber", "n: 0\nwaveforms: [{kind: ofdm}]", "'n'"),
        ("ber", "n: -12\nwaveforms: [{kind: otfs, l: 3}]", "'n'"),
        ("sweep-l", "n: 0", "'n'"),
        # each of these squared into a float overflow: a traceback (exit 1)
        ("ber", "snr_db: [20.0, -4000.0]", "'snr_db'"),
        ("sweep-q", "snr_db: -4000.0", "'snr_db'"),
        ("analyze-noise", "sigma_w: 1.0e+200", "'sigma_w'"),
        # each of these ended in a traceback (exit 1) or wrote BER from NaN with exit 0
        ("ber", "channel: {num_taps: 4, max_doppler: 1.0e+308}", "'max_doppler'"),
        ("sweep-l", "equalizer: zf\nchannel: {taps: [{delay: 0, doppler: 1.0e+308}]}",
         "'doppler'"),
        ("sweep-q", "channel: {taps: [{delay: 0, gain_re: 1.0e+308}]}", "'gain_re'"),
        # each of these passed the overflow guard and wrote inf or nan with exit 0
        ("analyze-noise", "sigma_w: 1.3e+154", "'sigma_w'"),
        ("fdma-demo", "jam_power: 1.0e+308", "'jam_power'"),
        # each of these overflowed a chirp phase, the trace normalization or a threshold:
        # NaN written with exit 0, a failed identity (exit 3), or a RuntimeWarning first
        ("analyze-noise", "waveforms: [{kind: afdm, q: 1.0e+308, alpha: 0.1}]", "'q'"),
        ("ber", "waveforms: [{kind: afdm, q: -4.0, alpha: -1.0e+308}]", "'alpha'"),
        ("sweep-q", "q_values: [1.0e+308]", "'q'"),
        ("verify-appendix", "density_q: [1.0e+308]", "'q'"),
        ("verify-appendix", "sparsity_tol: 1.0e+308", "'sparsity_tol'"),
        ("analyze-noise", "profiles: [{kind: equalized, gain_cap: 5.0e-324}]", "'gain_cap'"),
        ("analyze-noise", "profiles: [{kind: equalized, gain_cap: -1.0e+308}]", "'gain_cap'"),
        # an a too large for a float: a traceback (exit 1); a phase that overflows:
        # RuntimeWarnings, then failed identities (exit 3)
        ("verify-appendix", f"a_values: [{10**310}]", "'a_values'"),
        ("verify-appendix", "a_values: [1.0e+308]", "'a_values'"),
        ("verify-appendix", "a_values: [3, -1.0e+308]", "'a_values'"),
        # each of these cropped the channel to its first n taps and ran with exit 0
        ("analyze-noise", "n: 2\nwaveforms: [{kind: ofdm}]", "'num_taps'"),
        ("ber", "noise: {kind: equalized, num_taps: 121}", "'num_taps'"),
        # each of these ran with exit 0 and ignored a key of another waveform kind
        ("ber", "waveforms: [{kind: ofdm, q: 3.0, l: 4}]", "'q'"),
        ("ber", "waveforms: [{kind: otfs, l: 4, alpha: 0.1}]", "'alpha'"),
        ("sparsity", "entries: [{kind: afdm, n: 8, q: 0.5, k: 2}]", "'k'"),
        ("fdma-demo", "layout: [{kind: ofdm, n: 4, l: 2}, {kind: otfs, k: 2, l: 2}]", "'l'"),
        # each of these was refused with exit 2 without naming its key
        ("ber", "equalizer: foo", "'equalizer'"),
        ("ber", "qam_order: 3", "'qam_order'"),
        ("ber", "bits_per_point: 5", "'bits_per_point'"),
        ("ber", "waveforms: [{kind: otfs}]", "'k'"),
        ("ber", "n: 5\nwaveforms: [{kind: otfs, k: -1, l: -5}]", "'k'"),
        ("ber", "noise: {kind: white, n: 7}", "'n'"),
        ("ber", "channel: {num_taps: 0}", "'num_taps'"),
        ("ber", "n: 8\nwaveforms: [{kind: ofdm}]\n"
                "noise: {kind: impulse, spikes: 8, power_fraction: 0.0}", "'power_fraction'"),
        ("ber", "noise: {kind: impulse, spikes: 0}", "'spikes'"),
        ("ber", "noise: {kind: interferer, width: 0}", "'width'"),
        ("ber", "noise: {kind: interferer, power_fraction: 1.5}", "'power_fraction'"),
        # overflowed the trace normalization: a RuntimeWarning, then refused with no key named
        ("ber", "n: 8\nwaveforms: [{kind: ofdm}]\n"
                "noise: {kind: interferer, width: 8, power_fraction: 1.0e-310}",
         "'power_fraction'"),
        # each of these was refused by the library with exit 2 and no key named
        ("ber", "waveforms: [{kind: ofdm, n: 8}, {kind: ofdm, n: 12}]", "'n'"),
        ("ber", "channel: {taps: [{delay: 500}]}", "'delay'"),
        ("ber", "channel: {taps: [{delay: -1}]}", "'delay'"),
        ("ber", "waveforms: [{kind: otfs, l: 7}]", "'l'"),
        ("ber", "channel: {num_taps: 121}", "'num_taps'"),
        # each of these was refused with exit 2 and no key named
        *((sweep, "snr_db: [10.0, 20.0]", "'snr_db' = [10.0, 20.0]: parameter sweeps need a "
           "template with exactly one SNR point") for sweep in ("sweep-l", "sweep-q")),
        ("sweep-q", "q_values: [0.0, 1.0]", "'q_values' holds 0: q=0 degenerates to OFDM"),
        ("sweep-q", "q_values: [1.0, 0.0]", "'q_values' holds 0: q=0 degenerates to OFDM"),
        ("fdma-demo", "jammed_block: 3", "'jammed_block'"),
        ("ber", "waveforms: [{kind: foo}]", "'kind'"),
        ("ber", "noise: {kind: foo}", "'kind'"),
        ("ber", "layout: [{kind: ofdm, n: 12}]\nchannel: {num_taps: 2, max_doppler: 0.1}",
         "'max_doppler' must be 0: FDMA layouts support quasi-static channels only"),
        ("ber", "layout: [{kind: ofdm, n: 12}]\n"
                "channel: {taps: [{delay: 0, gain_re: 1.0, doppler: 0.1}]}",
         "'doppler' must be 0: FDMA layouts support quasi-static channels only"),
        # an OTFS n that is not k*l, a float past the largest, a 4,000-digit integer
        ("ber", "waveforms: [{kind: otfs, n: 12, k: 3, l: 3}]", "'n'"),
        pytest.param("ber", "snr_db: [" + "9" * 400 + "]", "'snr_db'", id="ber-snr_db-400-nines"),
        pytest.param("ber", "qam_order: " + "9" * 4000, "'qam_order'",
                     id="ber-qam_order-4000-nines"),
        # strings to PyYAML, whose floats need a dot and a signed exponent
        ("sparsity", "tol: 1e-9", "'tol'"),
        ("ber", "snr_db: [2e5]", "'snr_db'"),
        ("analyze-noise", "sigma_w: 1.0e5", "'sigma_w'"),
        # a key no subcommand reads, and a sweep's layout: a sweep runs waveforms only
        *((name, "bogus: 1", "unknown keys ['bogus']") for name in (
            "analyze-noise", "sparsity", "ber", "sweep-l", "sweep-q", "fdma-demo",
            "verify-appendix")),
        ("sweep-l", "layout: [{kind: ofdm, n: 6}, {kind: ofdm, n: 6}]\nl_values: [1, 3]",
         "unknown keys ['layout']"),
        ("sweep-q", "layout: [{kind: ofdm, n: 6}, {kind: ofdm, n: 6}]\nq_values: [-4.0, 2.0]",
         "unknown keys ['layout']"),
        ("ber", "- n: 12\n- seed: 3", "config file {config} must contain a mapping at top level"),
        ("ber", "waveforms: [unclosed", "cannot parse config file {config}: "),
        # each of these used to end in a ValueError or RecursionError traceback (exit 1):
        # a timestamp past the calendar, digits past Python's limit, nesting past recursion
        *(pytest.param(name, text, "cannot parse config file {config}: ", marks=marks,
                       id=f"{name}-{kind}-unbuildable")
          for name in ("ber", "analyze-noise") for kind, text, marks in (
              ("date", "seed: 2020-13-45", ()),
              ("digits", "n: " + "9" * 5000, pytest.mark.skipif(
                  not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")),
              ("nesting", "n: " + "[" * 500, ()))),
        # the size guard used to print the refused size whole: 4,077 bytes of stderr
        *(pytest.param(name, "n: " + "9" * 4000, "'n' gives size an integer of 13288 bits",
                       id=f"{name}-n-4000-nines") for name in ("ber", "analyze-noise")),
        # a product of two 3,000-digit values has 6,000 digits, which Python may refuse
        # to convert to a string: its refusal used to end in a ValueError traceback
        pytest.param("ber", "waveforms: [{kind: otfs, k: K, l: K}]".replace("K", "9" * 3000),
                     "'n' gives size an integer of 19932 bits", id="ber-otfs-6000-digits"),
        pytest.param("verify-appendix", "dirichlet_cases: [[K, K]]".replace("K", "9" * 3000),
                     "'dirichlet_cases' gives size an integer of 19932 bits",
                     id="verify-appendix-dirichlet-6000-digits"),
        # each block passes the size guard alone; their sum used to pass unchecked
        *((name, "layout: [{kind: ofdm, n: 1048576}, {kind: ofdm, n: 1048576}]", "'layout'")
          for name in ("fdma-demo", "ber")),
        # a bit budget of 0 and an SNR of NaN
        ("ber", "bits_per_point: 0", "'bits_per_point' must be >= 10000, got 0"),
        ("ber", "snr_db: [.nan]", "'snr_db' must be a finite number, got nan"),
        # k=7 at n=120 used to become a 7x17 grid of 119 subcarriers
        ("ber", "waveforms: [{kind: otfs, k: 7}]", "'k': OTFS k=7 does not divide n=120"),
        ("sparsity", "entries: [{kind: otfs, n: 120, l: 7}]",
         "'l': OTFS l=7 does not divide n=120"),
        ("sweep-l", "l_values: [1, 7]", "'l': OTFS l=7 does not divide n=120"),
        # each used to exit 0 after one output silently overwrote another; every name
        # is claimed before the first write
        ("ber", TestOutputNames.BER_CLASH,
         "two outputs of this config would both be written to ber_afdm_qm4_a0.csv"),
        ("analyze-noise", "n: 16\nprofiles: [{kind: impulse}, {kind: impulse, spikes: 2}]",
         "two outputs of this config would both be written to variance_ofdm_impulse.csv"),
    ]

    @staticmethod
    def refused(tmp_path, capsys, subcommand, text, fragment, *flags, config=None):
        """``subcommand`` with ``text`` as its config file, or with ``--config config``,
        exits 2 with one brief config error that holds ``fragment`` and no traceback,
        and makes no output directory; returns its stderr."""
        if config is None:
            config = tmp_path / "bad.yaml"
            config.write_text(text + "\n")
        out = tmp_path / "o"
        assert run_cli(subcommand, "--config", str(config), "--out", str(out), *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"wavelab {subcommand}: config error: ")
        assert fragment.replace("{config}", str(config)) in err
        assert "Traceback" not in err and len(err.encode()) < 2048
        assert not out.exists()
        return err

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]], ids=["real", "dry-run"])
    @pytest.mark.parametrize("subcommand,text,fragment", CASES)
    def test_refused_with_exit_2(self, tmp_path, capsys, subcommand, text, fragment, flags):
        # a dry run used to check only the seed and print "config OK"
        self.refused(tmp_path, capsys, subcommand, text, fragment, *flags)

    @pytest.mark.parametrize("number,form", [("1e-9", "1.0e-9"), ("2e5", "2.0e+5"),
                                             ("1.0e5", "1.0e+5"), ("5.e3", "5.e+3"),
                                             ("5.E3", "5.e+3")])
    def test_exponent_string_refused_with_its_yaml_float(self, tmp_path, capsys, number, form):
        # the refusal used to read "must be a finite number, got '1e-9'" alone
        err = self.refused(tmp_path, capsys, "sparsity", f"tol: {number}", "'tol'")
        assert f"got the string '{number}'; in YAML the float is {form}\n" in err
        assert yaml.safe_load(form) == float(number)

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]], ids=["real", "dry-run"])
    @pytest.mark.parametrize("name,content,fragment", [
        ("nope.yaml", None, "cannot read config file {config}: "),
        # used to run the defaults with exit 0
        ("", None, "cannot read config file {config}: "),
        # used to end in a UnicodeDecodeError traceback (exit 1)
        ("bad.yaml", b"\xff\xfe", "cannot parse config file {config}: "),
    ], ids=["missing", "empty-path", "not-utf8"])
    def test_config_file_refused(self, tmp_path, capsys, name, content, fragment, flags):
        config = tmp_path / name if name else ""
        if content is not None:
            config.write_bytes(content)
        self.refused(tmp_path, capsys, "ber", None, fragment, *flags, config=config)

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_empty_config_runs_the_defaults(self, tmp_path, capsys, dry_run):
        config = tmp_path / "empty.yaml"
        config.write_text("")
        flags = ["--dry-run"] if dry_run else []
        runs = []
        for name, given in (("empty", ["--config", str(config)]), ("none", [])):
            out = tmp_path / name
            assert run_cli("ber", *given, "--out", str(out), *flags) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            written = {} if dry_run else {
                path.name: path.read_bytes() for path in out.iterdir() if path.suffix == ".csv"}
            runs.append((printed, written))
        assert runs[0] == runs[1]
        assert dry_run or runs[0][1]

    def test_integral_floats_and_ints_accepted(self):
        from wavelab.configio import read

        doc = {"n": 12.0, "q": 3, "values": [1, 2.0]}
        assert read(doc, "n", int) == 12 and isinstance(read(doc, "n", int), int)
        assert read(doc, "q", float) == 3.0 and isinstance(read(doc, "q", float), float)
        assert read(doc, "values", [int]) == [1, 2]
        assert read(doc, "absent", int, 7) == 7


class TestParser:
    SUBCOMMANDS = ["analyze-noise", "sparsity", "ber", "sweep-l", "sweep-q", "fdma-demo",
                   "verify-appendix"]
    SHARED = ["--config", "c.yaml", "--seed", "7", "--out", "d", "--threads", "3", "--dry-run"]

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_each_subcommand_parses_the_shared_options(self, subcommand):
        expected = dict(subcommand=subcommand, config="c.yaml", seed=7, out="d", threads=3,
                        dry_run=True)
        parser = cli.build_parser()
        assert vars(parser.parse_args([subcommand, *self.SHARED])) == expected
        assert vars(parser.parse_args([*self.SHARED, subcommand])) == expected  # either order
        defaults = dict(subcommand=subcommand, config=None, seed=None, out=None, threads=1,
                        dry_run=False)
        assert vars(parser.parse_args([subcommand])) == defaults

    def test_one_parser_is_built(self, monkeypatch):
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser()
        assert len(built) == 1

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert all(name in text for name in self.SUBCOMMANDS)

    @pytest.mark.parametrize("argv", [["bogus"], [], ["--dry-run"]],
                             ids=["unknown", "missing", "options-only"])
    def test_unknown_or_missing_subcommand_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err if argv == ["bogus"] else "required" in err


@pytest.mark.parametrize("dry_run", [False, True])
def test_library_error_exits_2(tmp_path, monkeypatch, capsys, dry_run):
    # a WavelabError that is neither a ConfigError nor an EqualizationError
    def handler(config, run):
        raise wl.DimensionError("gains shape (3,) does not match N=4")

    monkeypatch.setitem(cli._SUBCOMMANDS, "sparsity", (handler, cli.DEFAULT_SPARSITY, set()))
    out = tmp_path / "o"
    assert run_cli("sparsity", "--out", str(out), *(["--dry-run"] if dry_run else [])) == 2
    assert "wavelab sparsity: error: gains shape (3,)" in capsys.readouterr().err
    assert not out.exists()


class TestStartup:
    """A process loads only what its run uses: rare-path modules are imported
    in the functions that need them, and each subcommand's handler imports
    the modules its run uses (see README, Conventions). ``main`` freezes the
    heap once the handler has parsed, once per process, and keeps OpenSSL's
    ``_hashlib`` (when builtin hashes stand in), libyaml and ``_ctypes`` out of
    the imports it makes. Each fresh run's properties are read from one
    :func:`fresh` report."""

    # a thread pool (with logging), which no run starts, and rational arithmetic:
    # verify-appendix reduces its rates a/b with math.gcd
    RARE = {"concurrent.futures", "logging", "fractions", "decimal"}
    BER = ("n: 12\nwaveforms: [{kind: ofdm}]\nchannel: {num_taps: 2}\nsnr_db: [10.0]\n"
           "bits_per_point: 10000")
    BER_ENGINE = {"wavelab.sim", "wavelab.channel", "wavelab.fdma", "wavelab.qam"}
    LAYOUT = "layout: [{kind: ofdm, n: 12}, {kind: otfs, k: 4, l: 3}]"
    NOISE = "n: 16\nprofiles: [{kind: impulse}]"
    EQUALIZED, SEEDED = "profiles: [{kind: equalized}]", "profiles: [{kind: equalized, seed: 3}]"
    RANDOM = {"numpy.random", "hashlib"}  # the generator, and hashlib, which it loads
    RUNS = {  # id: subcommand, config text (None: no --config), flags, loads, never loads
        "ber": ("ber", BER, [], {"wavelab.sim", "wavelab.qam"},
                {"wavelab.analysis", "wavelab.fdma"}),
        "ber-dry-run": ("ber", "n: 12\nwaveforms: [{kind: ofdm}]", ["--dry-run"],
                        {"wavelab.sim"}, {"wavelab.analysis", "hashlib"}),
        "ber-layout": ("ber", LAYOUT + "\nchannel: {num_taps: 2}\nsnr_db: [10.0]\n"
                       "bits_per_point: 10000", [], {"wavelab.sim", "wavelab.fdma"},
                       {"wavelab.analysis"}),
        "sweep-l-dry-run": ("sweep-l", "l_values: [1, 2]\nn: 12", ["--dry-run"],
                            {"wavelab.sim"}, {"wavelab.analysis"}),
        "sweep-q-dry-run": ("sweep-q", "q_values: [1.0, 2.0]\nn: 12", ["--dry-run"],
                            {"wavelab.sim"}, {"wavelab.analysis"}),
        "fdma-demo": ("fdma-demo", LAYOUT, [], {"wavelab.fdma", "wavelab.noise"},
                      {"wavelab.analysis", "wavelab.sim", "wavelab.qam"}),
        "analyze-noise": ("analyze-noise", NOISE, [], {"wavelab.noise", "yaml"},
                          BER_ENGINE | {"wavelab.analysis"}),
        "analyze-noise-dry-run": ("analyze-noise", NOISE, ["--dry-run"],
                                  {"wavelab.noise", "yaml"},
                                  BER_ENGINE | {"wavelab.analysis", "hashlib"}),
        # the default profiles' "equalized" channel is a constant: no generator to load
        "equalized": ("analyze-noise", EQUALIZED, [], set(), RANDOM),
        "equalized-dry-run": ("analyze-noise", EQUALIZED, ["--dry-run"], set(), RANDOM),
        # another seed draws its channel, and the same run loads the generator
        "equalized-seed": ("analyze-noise", SEEDED, [], {"numpy.random"}, set()),
        "equalized-seed-dry-run": ("analyze-noise", SEEDED, ["--dry-run"], {"numpy.random"},
                                   set()),
        "sparsity": ("sparsity", "entries: [{kind: afdm, n: 16, q: 0.5}]", [],
                     {"wavelab.analysis", "yaml"}, BER_ENGINE | {"hashlib"}),
        "verify-appendix": ("verify-appendix", None, [], {"wavelab.analysis"},
                            BER_ENGINE | {"yaml", "hashlib"}),
        "verify-appendix-config": ("verify-appendix", "n_values: [8]", [],
                                   {"wavelab.analysis", "yaml"}, BER_ENGINE),
        "verify-appendix-b-values": ("verify-appendix", "n_values: [8]\nb_values: [1, 3]", [],
                                     {"wavelab.analysis", "yaml"}, BER_ENGINE | {"hashlib"}),
    }
    SETUPS = {"import": (None, None, []), "version": (None, None, ["--version"]),
              "help": (None, None, ["--help"])}  # id: as RUNS, with no subcommand
    UNPINNED = {var: None for var in cli.THREAD_VARS}

    @pytest.mark.parametrize("name", RUNS)
    def test_rare_modules_stay_unloaded(self, fresh, name):
        assert not self.RARE & set(fresh(*self.RUNS[name][:3])["loaded"])

    @pytest.mark.parametrize("name", RUNS)
    def test_each_subcommand_loads_only_what_it_runs(self, fresh, name):
        loads, never_loads = self.RUNS[name][3:]
        loaded = set(fresh(*self.RUNS[name][:3])["loaded"])
        assert loads <= loaded
        # numpy 1.x imports numpy.random, and with it hashlib, with numpy itself
        assert not never_loads & (loaded - set(fresh()["numpy_loads"]))

    @pytest.mark.parametrize("name", RUNS)
    def test_no_run_loads_libyaml(self, fresh, name):
        report = fresh(*self.RUNS[name][:3])
        assert not report["libyaml"]
        assert not report["ctypes"]  # nor, through numpy's guarded import, libffi

    @pytest.mark.parametrize("name", [*RUNS, *SETUPS])
    def test_main_leaves_no_none_entry(self, fresh, name):
        report = fresh(*{**self.RUNS, **self.SETUPS}[name][:3])
        assert report["none"] == report["none_before"]

    @pytest.mark.parametrize("name", RUNS)
    def test_main_freezes_the_import_heap(self, fresh, name):
        report = fresh(*self.RUNS[name][:3])
        assert report["frozen_before"] == 0 and report["frozen_after"] > 0

    @pytest.mark.parametrize("name", ["ber", "fdma-demo"])
    def test_random_generator_loads_without_openssl(self, fresh, name):
        if "numpy.random" in fresh()["numpy_loads"]:
            pytest.skip("numpy 1.x imports numpy.random, and with it _hashlib, with numpy")
        if not all(map(importlib.util.find_spec, cli._BUILTIN_HASHES)):
            pytest.skip("this Python lacks a builtin hash, so hashlib keeps OpenSSL")
        loaded = fresh(*self.RUNS[name][:3])["loaded"]
        # neither loaded nor left behind as main's None entry
        assert "numpy.random" in loaded and "_hashlib" not in loaded

    def test_digest_of_a_fresh_ber_run(self, fresh, tmp_path):
        # the fresh process hashes with hashlib's builtin SHA-256 (on numpy 2), this
        # one with the backend it loaded first
        run = fresh(*self.RUNS["ber"][:3])["dir"]
        summary = json.loads((run / "o" / "curves.json").read_text())
        assert summary["config_digest"] == "c38ede28bf872eec"
        cfg = cli.parse_sim({**cli.DEFAULT_BER, **yaml.safe_load(self.BER)})
        assert wl.config_fingerprint(cfg) == summary["config_digest"]
        # its numpy loaded without _ctypes, this one's with it: the tables are the same bytes
        assert main(["ber", "--config", str(run / "cfg.yaml"), "--out",
                     str(tmp_path / "here")]) == 0
        fresh_csv, here = ({path.name: path.read_bytes() for path in out.glob("*.csv")}
                           for out in (run / "o", tmp_path / "here"))
        assert fresh_csv and fresh_csv == here

    @pytest.mark.parametrize("name", SETUPS)
    def test_cli_import_loads_no_numpy(self, fresh, name):
        report = fresh(*self.SETUPS[name])
        assert not report["numpy_on_import"] and not report["numpy"]
        assert report["after"] == self.UNPINNED

    def test_run_loads_numpy_on_one_blas_thread(self, fresh):
        report = fresh(*self.RUNS["ber"][:3])
        assert not report["numpy_on_import"]
        assert report["seen"] == {var: "1" for var in cli.THREAD_VARS}
        assert report["after"] == self.UNPINNED  # removed once main returns
        manifest = json.loads((report["dir"] / "o" / "manifest.json").read_text())
        assert manifest["blas_threads"] == {var: "1" for var in cli.THREAD_VARS}

    def test_user_thread_count_kept(self, fresh):
        report = fresh(*self.RUNS["ber"][:3], OPENBLAS_NUM_THREADS="2")
        user = {**self.UNPINNED, "OPENBLAS_NUM_THREADS": "2"}
        assert report["seen"] == report["after"] == user
        assert report["none"] == report["none_before"]
        manifest = json.loads((report["dir"] / "o" / "manifest.json").read_text())
        assert manifest["blas_threads"] == user

    def entry_during_main(self, monkeypatch, tmp_path, name="_hashlib"):
        """``sys.modules``' ``name`` entry (``"absent"`` if none) while ``main`` parses a
        dry ``ber`` run, which loads neither numpy.random, hashlib nor (with no config) yaml."""
        seen, parse = [], cli.parse_sim

        def parse_sim(config):
            seen.append(sys.modules.get(name, "absent"))
            return parse(config)

        monkeypatch.setattr(cli, "parse_sim", parse_sim)
        assert main(["ber", "--out", str(tmp_path / "o"), "--dry-run"]) == 0
        return seen[0]

    def test_main_hides_openssl_while_it_runs(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
        monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
        monkeypatch.setattr(cli, "_BUILTIN_HASHES", ("json",))  # found wherever this runs
        assert self.entry_during_main(monkeypatch, tmp_path) is None
        assert "_hashlib" not in sys.modules

    def test_nothing_hidden_without_a_builtin_hash(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
        monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
        monkeypatch.setattr(cli, "_BUILTIN_HASHES", (*cli._BUILTIN_HASHES, "_no_such_hash"))
        assert self.entry_during_main(monkeypatch, tmp_path) == "absent"
        assert "_hashlib" not in sys.modules

    @pytest.mark.parametrize("name", ["_hashlib", "numpy.random"])
    def test_nothing_hidden_once_loaded(self, tmp_path, monkeypatch, name):
        loaded = object()  # stands for the module
        other = "numpy.random" if name == "_hashlib" else "_hashlib"
        monkeypatch.delitem(sys.modules, other, raising=False)
        monkeypatch.setitem(sys.modules, name, loaded)
        monkeypatch.setattr(cli, "_BUILTIN_HASHES", ("json",))
        entry = self.entry_during_main(monkeypatch, tmp_path)
        assert entry is (loaded if name == "_hashlib" else "absent")
        assert sys.modules[name] is loaded

    def test_main_hides_libyaml_while_it_runs(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, "yaml", raising=False)
        monkeypatch.delitem(sys.modules, "yaml._yaml", raising=False)
        assert self.entry_during_main(monkeypatch, tmp_path, "yaml._yaml") is None
        assert "yaml._yaml" not in sys.modules

    @pytest.mark.parametrize("name", ["yaml._yaml", "yaml"])
    def test_libyaml_not_hidden_once_yaml_loaded(self, tmp_path, monkeypatch, name):
        loaded = object()  # stands for the module
        other = "yaml" if name == "yaml._yaml" else "yaml._yaml"
        monkeypatch.delitem(sys.modules, other, raising=False)
        monkeypatch.setitem(sys.modules, name, loaded)
        entry = self.entry_during_main(monkeypatch, tmp_path, "yaml._yaml")
        assert entry is (loaded if name == "yaml._yaml" else "absent")
        assert sys.modules[name] is loaded

    def ctypes_entry(self, monkeypatch, **loaded):
        """``sys.modules``' ``_ctypes`` entry (``"absent"`` if none) as ``_hide_uncalled``
        leaves it when, of numpy and _ctypes, only the keys of ``loaded`` are loaded (as
        its values). Not through ``main``: with numpy out of ``sys.modules`` an import
        would load a second numpy, so the entries it set go before any import runs."""
        with monkeypatch.context() as patch:
            for name in ("numpy", "_ctypes"):
                if name in loaded:
                    patch.setitem(sys.modules, name, loaded[name])
                else:
                    patch.delitem(sys.modules, name, raising=False)
            hidden = cli._hide_uncalled()
            entry = sys.modules.get("_ctypes", "absent")
            for name in hidden:
                del sys.modules[name]
        return entry

    def test_ctypes_hidden_while_numpy_unloaded(self, monkeypatch):
        assert self.ctypes_entry(monkeypatch) is None
        assert "numpy" in sys.modules and sys.modules.get("_ctypes", 0) is not None

    @pytest.mark.parametrize("name", ["_ctypes", "numpy"])
    def test_ctypes_not_hidden_once_loaded(self, monkeypatch, name):
        loaded = object()  # stands for the module
        entry = self.ctypes_entry(monkeypatch, **{name: loaded})
        assert entry is (loaded if name == "_ctypes" else "absent")

    def test_main_freezes_once_per_process(self, tmp_path):
        argv = ["ber", "--out", str(tmp_path / "o"), "--dry-run"]
        assert main(argv) == 0
        frozen = gc.get_freeze_count()
        young = [[] for _ in range(1000)]  # noqa: F841 (tracked objects a second freeze would take)
        assert main(argv) == 0
        # without a freeze the permanent generation only shrinks, as its objects die
        assert 0 < gc.get_freeze_count() <= frozen
