"""Tests for the command-line interface: configs, outputs, exit codes."""

import csv
import json
import os
import platform
import subprocess
import sys
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

    def test_zero_bit_budget_is_config_error(self, tmp_path):
        config = write_yaml(
            tmp_path / "bad.yaml",
            {
                "n": 60,
                "waveforms": [{"kind": "ofdm"}],
                "channel": {"num_taps": 4},
                "bits_per_point": 0,
            },
        )
        assert run_cli("ber", "--config", config, "--out", str(tmp_path / "o")) == 2

    def test_missing_config_file(self, tmp_path):
        missing = str(tmp_path / "nope.yaml")
        assert run_cli("ber", "--config", missing, "--out", str(tmp_path / "o")) == 2

    def test_invalid_yaml(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("waveforms: [unclosed\n")
        assert run_cli("ber", "--config", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_unknown_key_rejected(self, tmp_path):
        config = write_yaml(
            tmp_path / "typo.yaml",
            {
                "n": 60,
                "waveformz": [{"kind": "ofdm"}],
                "channel": {"num_taps": 4},
            },
        )
        assert run_cli("ber", "--config", config, "--out", str(tmp_path / "o")) == 2

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

    def test_byte_identical_across_threads(self, tmp_path):
        config = self.small_config(tmp_path)
        out_a = tmp_path / "t1"
        out_b = tmp_path / "t4"
        assert run_cli("ber", "--config", config, "--out", str(out_a), "--threads", "1") == 0
        assert run_cli("ber", "--config", config, "--out", str(out_b), "--threads", "4") == 0
        for name in ("ber_ofdm.csv", "ber_afdm_qm4_a0p1.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_refused(self, tmp_path, capsys, threads):
        # both used to exit 0 and run serially
        config = self.small_config(tmp_path)
        out = tmp_path / "o"
        assert run_cli("ber", "--config", config, "--out", str(out), "--threads", threads) == 2
        assert "--threads must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_snr_is_config_error(self, tmp_path):
        config = tmp_path / "nan.yaml"
        config.write_text(
            "n: 60\nwaveforms: [{kind: ofdm}]\nchannel: {num_taps: 4}\n"
            "snr_db: [.nan]\nbits_per_point: 10000\n"
        )
        out = tmp_path / "o"
        assert run_cli("ber", "--config", str(config), "--out", str(out)) == 2
        assert not out.exists()

    def test_otfs_grid_must_divide_n(self, tmp_path, capsys):
        # k=7 at n=120 used to become a 7x17 grid of 119 subcarriers
        config = write_yaml(
            tmp_path / "grid.yaml",
            {
                "n": 120,
                "waveforms": [{"kind": "otfs", "k": 7}],
                "channel": {"num_taps": 4},
                "bits_per_point": 10_000,
            },
        )
        out = tmp_path / "o"
        assert run_cli("ber", "--config", config, "--out", str(out)) == 2
        assert "k=7 does not divide n=120" in capsys.readouterr().err
        entries = write_yaml(
            tmp_path / "sparsity.yaml", {"entries": [{"kind": "otfs", "n": 120, "l": 7}]}
        )
        assert run_cli("sparsity", "--config", entries, "--out", str(out)) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("subcommand,swept", [("sweep-l", {"l_values": [1, 3]}),
                                                  ("sweep-q", {"q_values": [-4.0, 2.0]})])
    def test_layout_refused(self, tmp_path, capsys, subcommand, swept, dry_run):
        # used to exit 0 and sweep the swept waveform on the layout's grid
        config = write_yaml(tmp_path / "layout.yaml", {
            "layout": [{"kind": "ofdm", "n": 6}, {"kind": "ofdm", "n": 6}],
            "bits_per_point": 10_000, "channel": {"num_taps": 2}, **swept,
        })
        out = tmp_path / "o"
        argv = [subcommand, "--config", config, "--out", str(out)]
        assert run_cli(*argv, *(["--dry-run"] if dry_run else [])) == 2
        assert "either waveforms or a block layout" in capsys.readouterr().err
        assert not out.exists()


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


class TestConfigSerialization:
    # each parser against a literal YAML-shaped document
    def test_channel_round_trip(self):
        from wavelab.configio import parse_channel

        spec = wl.ChannelSpec(
            taps=(
                wl.ChannelTap(0, 0.6 - 0.2j, 0.0),
                wl.ChannelTap(3, 0.1 + 0.4j, 0.25),
            )
        )
        doc = {
            "taps": [
                {"delay": 0, "gain_re": 0.6, "gain_im": -0.2, "doppler": 0.0},
                {"delay": 3, "gain_re": 0.1, "gain_im": 0.4, "doppler": 0.25},
            ]
        }
        assert parse_channel(doc) == spec
        gen = wl.ChannelGenerator(num_taps=8, max_doppler=0.3)
        assert parse_channel({"num_taps": 8, "max_doppler": 0.3}) == gen

    def test_waveform_round_trip(self):
        from wavelab.configio import parse_waveform

        for doc, cfg in (
            ({"kind": "ofdm", "n": 12}, wl.WaveformConfig.ofdm(12)),
            ({"kind": "otfs", "n": 12, "k": 4, "l": 3}, wl.WaveformConfig.otfs(4, 3)),
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
            waveforms=(wl.WaveformConfig.otfs(12, 10),),
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
        assert again.waveforms == cfg.waveforms
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
    # each used to exit 0 after one output silently overwrote another
    CASES = [
        # both q values format to the slug afdm_qm4_a0
        ("ber", "n: 12\nchannel: {num_taps: 2}\nsnr_db: [20.0]\nbits_per_point: 10000\n"
         "waveforms: [{kind: afdm, q: -4.0000001}, {kind: afdm, q: -4.0000002}]",
         "ber_afdm_qm4_a0.csv"),
        ("analyze-noise", "n: 16\nprofiles: [{kind: impulse}, {kind: impulse, spikes: 2}]",
         "variance_ofdm_impulse.csv"),
    ]

    @pytest.mark.parametrize("subcommand,text,name", CASES)
    def test_repeated_output_name_refused(self, tmp_path, capsys, subcommand, text, name):
        config = tmp_path / "cfg.yaml"
        config.write_text(text + "\n")
        out = tmp_path / "o"
        assert run_cli(subcommand, "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err
        assert not out.exists()  # every name is claimed before the first write

    def test_ber_clash_refused_before_the_run(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_ber ran on a config with clashing names")

        monkeypatch.setattr(cli, "run_ber", never)
        _, text, _ = self.CASES[0]
        config = tmp_path / "cfg.yaml"
        config.write_text(text + "\n")
        out = tmp_path / "o"
        assert run_cli("ber", "--config", str(config), "--out", str(out)) == 2
        assert not out.exists()  # no CSV, no manifest, not even the directory


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


class TestStrictConfigReader:
    # YAML text over the subcommand's defaults; each value is refused with
    # exit 2 and an error naming its key
    CASES = [
        # each of these used to end in a traceback (exit 1)
        ("ber", "channel: {taps: 5}", "taps"),
        ("ber", "snr_db: [abc]", "snr_db"),
        ("ber", "bits_per_point: 1.0e4", "bits_per_point"),  # a string to PyYAML
        ("analyze-noise", "profiles: 5", "profiles"),
        ("sparsity", "entries: 5", "entries"),
        ("verify-appendix", "n_values: 8", "n_values"),
        ("sweep-l", "l_values: 4", "l_values"),
        ("ber", "channel: {taps: [5]}", "taps"),
        ("verify-appendix", "dirichlet_cases: [[8]]", "dirichlet_cases"),
        # each of these passed the type checks and ended in a traceback
        ("verify-appendix", "b_values: [0]", "b_values"),
        ("verify-appendix", "dirichlet_cases: [[0, 0]]", "dirichlet_cases"),
        # each of these used to be truncated or coerced, and ran with exit 0
        ("ber", "n: 12.7\nwaveforms: [{kind: ofdm}]", "n"),
        ("ber", "waveforms: [{kind: otfs, l: 2.5}]", "l"),
        ("fdma-demo", "jammed_block: 1.5", "jammed_block"),
        ("ber", "seed: true", "seed"),
        # ran with exit 0 and wrote negative noise variances
        ("fdma-demo", "jam_power: -100", "jam_power"),
        # each of these ran no target and ended in a traceback
        ("sweep-l", "l_values: []", "l_values"),
        ("sweep-q", "q_values: []", "q_values"),
        # each of these seeded numpy with a negative seed: a traceback
        ("fdma-demo", "seed: -3", "seed"),
        ("sweep-l", "noise: {kind: equalized, seed: -3}", "seed"),
        # ran with exit 0 and wrote the variances of sigma_w = 2
        ("analyze-noise", "sigma_w: -2.0", "sigma_w"),
        # never read, so each of these ran with exit 0 and went into the manifest
        ("analyze-noise", "seed: abc", "seed"),
        ("sparsity", "seed: 1.5", "seed"),
        ("verify-appendix", "seed: -5", "seed"),
        ("analyze-noise", "seed: -5", "seed"),
        ("sparsity", "seed: abc", "seed"),
        ("verify-appendix", "seed: 1.5", "seed"),
        # each of these failed every check it bounds and exited 3
        ("verify-appendix", "decimation_tol: 0.0", "decimation_tol"),
        ("verify-appendix", "dirichlet_tol: -1.0", "dirichlet_tol"),
        ("verify-appendix", "density_threshold: 1.5", "density_threshold"),
        # each of these checked nothing and exited 0
        ("verify-appendix", "density_threshold: -1.0", "density_threshold"),
        ("verify-appendix", "n_values: []", "n_values"),
        ("verify-appendix", "a_values: []", "a_values"),
        ("verify-appendix", "b_values: []", "b_values"),
        ("verify-appendix", "dirichlet_cases: []", "dirichlet_cases"),
        ("verify-appendix", "density_q: []", "density_q"),
        ("verify-appendix", "density_n: []", "density_n"),
        ("analyze-noise", "profiles: []", "profiles"),
        ("sparsity", "entries: []", "entries"),
        # each of these was refused only by the work, with no key named
        ("verify-appendix", "sparsity_tol: -1.0", "sparsity_tol"),
        ("sparsity", "tol: 0.0", "tol"),
        ("analyze-noise", "waveforms: [{kind: ofdm, n: 8}]", "n"),
        ("verify-appendix", "n_values: [2000000]", "n_values"),
        # each of these allocated an array of that size: a traceback (exit 1)
        ("ber", "n: 1000000000000000000", "n"),
        ("ber", "channel: {num_taps: 1000000000000000000}", "num_taps"),
        ("ber", "noise: {kind: equalized, num_taps: 1000000000000000000}", "num_taps"),
        ("analyze-noise", "n: 1000000000000000000", "n"),
        ("sparsity", "entries: [{kind: otfs, k: 1000000000, l: 1000000000}]", "n"),
        ("verify-appendix", "dirichlet_cases: [[1000000000000000000, 1]]", "dirichlet_cases"),
        ("verify-appendix", "density_n: [1000000000000000000]", "density_n"),
    ]

    @staticmethod
    def refused(tmp_path, capsys, subcommand, text, key, *flags):
        config = tmp_path / "bad.yaml"
        config.write_text(text + "\n")
        out = tmp_path / "o"
        assert run_cli(subcommand, "--config", str(config), "--out", str(out), *flags) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,text,key", CASES)
    def test_refused_with_exit_2(self, tmp_path, capsys, subcommand, text, key):
        self.refused(tmp_path, capsys, subcommand, text, key)

    @pytest.mark.parametrize("subcommand,text,key", CASES)
    def test_dry_run_refused_with_exit_2(self, tmp_path, capsys, subcommand, text, key):
        # a dry run used to check only the seed and print "config OK"
        self.refused(tmp_path, capsys, subcommand, text, key, "--dry-run")

    def test_integral_floats_and_ints_accepted(self):
        from wavelab.configio import read

        doc = {"n": 12.0, "q": 3, "values": [1, 2.0]}
        assert read(doc, "n", int) == 12 and isinstance(read(doc, "n", int), int)
        assert read(doc, "q", float) == 3.0 and isinstance(read(doc, "q", float), float)
        assert read(doc, "values", [int]) == [1, 2]
        assert read(doc, "absent", int, 7) == 7


class TestStartup:
    """A process loads only what its run uses: rare-path modules are imported
    in the functions that need them (see README, Conventions)."""

    # the thread pool (with logging) and the rational arithmetic of verify-appendix
    RARE = {"concurrent.futures", "logging", "fractions", "decimal"}
    SCRIPT = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from wavelab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    CASES = [  # subcommand, config text, flags, whether the run may load hashlib
        ("ber", "n: 12\nwaveforms: [{kind: ofdm}]\nchannel: {num_taps: 2}\n"
         "snr_db: [10.0]\nbits_per_point: 10000", [], True),  # numpy.random loads it
        ("ber", "n: 12\nwaveforms: [{kind: ofdm}]", ["--dry-run"], False),
        ("analyze-noise", "n: 16\nprofiles: [{kind: impulse}]", ["--dry-run"], False),
        ("sparsity", "entries: [{kind: afdm, n: 16, q: 0.5}]", [], False),
    ]

    @pytest.mark.parametrize("subcommand,text,flags,may_load_hashlib", CASES,
                             ids=["ber", "ber-dry-run", "analyze-noise-dry-run", "sparsity"])
    def test_rare_modules_stay_unloaded(self, tmp_path, subcommand, text, flags,
                                        may_load_hashlib):
        config = tmp_path / "cfg.yaml"
        config.write_text(text + "\n")
        argv = [subcommand, "--config", str(config), "--out", str(tmp_path / "o"), *flags]
        src = str(Path(wl.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        assert not self.RARE & set(loaded)
        assert may_load_hashlib or "hashlib" not in loaded
