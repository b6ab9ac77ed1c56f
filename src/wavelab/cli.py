"""Command-line entry point for reproducible experiments.

Subcommands: analyze-noise, sparsity, ber, sweep-l, sweep-q, fdma-demo,
verify-appendix. Each reads an optional YAML config whose top-level keys
replace those of its ``DEFAULT_*`` dict, the one place its defaults live.
Its handler parses the whole config and claims every output name, refusing
two of one name, then returns its work, which writes CSV/JSON artifacts
and a manifest.json into the output directory; ``--dry-run`` lists the
names instead. Exits 0 on success, 2 on configuration errors (dry runs
too), 3 on numerical failure. Re-running with the same config and seed
produces byte-identical CSV bodies at any thread count.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    MAX_EXPANDED_SIZE,
    rational_chirp_decompose,
    rect_window_spectrum,
    row_sparsity,
    verify_decimation_identity,
)
from .configio import (
    check_keys,
    check_size,
    load_config_file,
    parse_layout,
    parse_profile,
    parse_sim,
    parse_waveform,
    read,
)
from .exceptions import ConfigError, EqualizationError, WavelabError
from .noise import whitening_std
from .sim import config_fingerprint, run_ber, sweep_l, sweep_q
from .waveform import afdm_inverse_column

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# built-in default configs (desk-scale analogues of the headline experiments)

DEFAULT_ANALYZE = {
    "n": 64,
    "waveforms": [
        {"kind": "ofdm"},
        {"kind": "otfs", "l": 8},
        {"kind": "afdm", "q": -4.0, "alpha": 0.1},
    ],
    "profiles": [{"kind": "impulse"}, {"kind": "interferer"}, {"kind": "equalized"}],
    "sigma_w": 1.0,
    "seed": 0,
}

DEFAULT_SPARSITY = {
    "tol": 1e-9,
    "entries": [
        {"kind": "ofdm", "n": 64},
        {"kind": "otfs", "n": 64, "l": 8},
        {"kind": "afdm", "n": 64, "q": -4.0},
        {"kind": "afdm", "n": 64, "q": 0.5},
    ],
    "seed": 0,
}

DEFAULT_BER = {
    "n": 120,
    "waveforms": [
        {"kind": "ofdm"},
        {"kind": "otfs", "l": 10},
        {"kind": "otfs", "l": 20},
        {"kind": "afdm", "q": -4.0, "alpha": 0.1},
    ],
    "channel": {"num_taps": 8, "max_doppler": 0.0},
    "noise": {"kind": "white"},
    "qam_order": 16,
    "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
    "bits_per_point": 200_000,
    "seed": 1,
    "equalizer": "mmse",
}

DEFAULT_SWEEP_L = {
    **DEFAULT_BER,
    "l_values": [1, 2, 4, 6, 10, 20, 40, 120],
    "waveforms": [{"kind": "ofdm"}],
    "snr_db": [25.0],
}

DEFAULT_SWEEP_Q = {
    **DEFAULT_BER,
    "q_values": [-8, -6, -4, -2, -1, 1, 2, 4, 6, 8],
    "alpha": 0.1,
    "waveforms": [{"kind": "ofdm"}],
    "snr_db": [25.0],
}

DEFAULT_FDMA = {
    "layout": [
        {"kind": "ofdm", "n": 12},
        {"kind": "afdm", "n": 12, "q": -4.0, "alpha": 0.1},
        {"kind": "otfs", "k": 4, "l": 3},
    ],
    "jammed_block": 1,
    "jam_power": 40.0,
    "seed": 0,
}

DEFAULT_VERIFY = {
    "n_values": [8, 12, 16],
    "a_values": [1, 3],
    "b_values": [1, 2, 4],
    "decimation_tol": 1e-9,
    "dirichlet_cases": [[8, 1], [4, 2], [8, 2], [12, 3]],
    "dirichlet_tol": 1e-10,
    "density_q": [0.5, 0.3333333333333333],
    "density_n": [12, 64],
    "density_threshold": 0.9,
    "sparsity_tol": 1e-9,
    "seed": 0,
}


# ---------------------------------------------------------------------------
# output helpers


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows of Python scalars; floats are written as their repr."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Run:
    """Collects output files for the manifest of one CLI invocation."""

    def __init__(self, subcommand: str, out_dir: str, config: dict, args):
        self.subcommand = subcommand
        self.out = Path(out_dir)
        self.config = config
        self.threads = args.threads
        self.started = time.perf_counter()
        self.outputs: list[str] = []
        self.points: list[dict] = []

    def path(self, name: str) -> Path:
        if name in self.outputs:
            raise ConfigError(f"two outputs of this config would both be written to {name}")
        self.outputs.append(name)
        return self.out / name

    def finish(self) -> None:
        manifest = {
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.config.get("seed", 0),
            "version": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "threads": self.threads,
            "duration_s": time.perf_counter() - self.started,
            "outputs": sorted(self.outputs),
        }
        if self.points:
            manifest["points"] = self.points
        write_json(self.out / "manifest.json", manifest)


def _ber_rows(points):
    return [[p.snr_db, p.bits, p.errors, p.ber, p.stderr] for p in points]


def _curves(run: Run, cfg) -> list:
    curves = run_ber(cfg, threads=run.threads)
    # per-point frames and skips go to the manifest: the CSV layout is fixed
    run.points = [{"label": c.label, **asdict(p)} for c in curves for p in c.points]
    return curves


def _tolerance(config: dict, key: str) -> float:
    """A check's tolerance: refused unless > 0, since no error passes a bound of 0."""
    tol = read(config, key, float)
    if tol <= 0:
        raise ConfigError(f"config: {key!r} must be > 0, got {tol!r}")
    return tol


# ---------------------------------------------------------------------------
# subcommands: each parses its config, claims its outputs and returns its work


def cmd_analyze_noise(config: dict, run: Run) -> Callable[[], int]:
    check_keys(config, set(DEFAULT_ANALYZE), "analyze-noise")
    n = read(config, "n", int)
    waveforms = [parse_waveform(w, default_n=n) for w in read(config, "waveforms", [dict])]
    if any(wf.N != n for wf in waveforms):
        raise ConfigError(f"config: every waveform must have the grid size 'n' = {n}")
    profiles = [parse_profile(p, n) for p in read(config, "profiles", [dict])]
    sigma_w = read(config, "sigma_w", float, minimum=0)
    curves = [(profile, wf, run.path(f"variance_{wf.slug}_{profile.kind}.csv"))
              for profile in profiles for wf in waveforms]
    summary_path = run.path("summary.csv")

    def work() -> int:
        summary = []
        for profile, wf, path in curves:
            v = sigma_w**2 * wf.demod_power(profile.gains)
            write_csv(path, ["subcarrier", "variance"], zip(range(n), v.tolist()))
            summary.append([wf.label, profile.kind, float(v.mean()), whitening_std(v)])
        write_csv(summary_path, ["waveform", "profile", "mean", "std"], summary)
        return EXIT_OK

    return work


def cmd_sparsity(config: dict, run: Run) -> Callable[[], int]:
    check_keys(config, set(DEFAULT_SPARSITY), "sparsity")
    tol = _tolerance(config, "tol")
    waveforms = [parse_waveform(entry) for entry in read(config, "entries", [dict])]
    path = run.path("sparsity.json")

    def work() -> int:
        records = []
        for wf in waveforms:
            report = row_sparsity(wf.row_magnitudes(), tol=tol, label=wf.label)
            records.append({
                "label": report.label,
                "n": wf.N,
                "tol": report.tol,
                "density": report.density,
                "nonzeros_per_row_min": int(report.row_counts.min()),
                "nonzeros_per_row_max": int(report.row_counts.max()),
                "row_counts": report.row_counts.tolist(),
            })
        write_json(path, {"reports": records})
        return EXIT_OK

    return work


def cmd_ber(config: dict, run: Run) -> Callable[[], int]:
    cfg = parse_sim(config)
    paths = [run.path(f"ber_{target.slug}.csv") for target in cfg.targets()]
    summary = run.path("curves.json")

    def work() -> int:
        curves = _curves(run, cfg)
        for path, curve in zip(paths, curves):
            write_csv(path, ["snr_db", "bits", "errors", "ber", "stderr"],
                      _ber_rows(curve.points))
        write_json(summary, {"config_digest": config_fingerprint(cfg),
                             "labels": [c.label for c in curves]})
        return EXIT_OK

    return work


def _sweep_table(run: Run, column: str, cfg, values) -> Callable[[], int]:
    """Work of a sweep: ``cfg`` runs one waveform per swept value at one SNR point."""
    path = run.path(f"sweep_{column}.csv")

    def work() -> int:
        points = [curve.points[0] for curve in _curves(run, cfg)]
        write_csv(path, [column, "snr_db", "bits", "errors", "ber", "stderr"],
                  [[value, *row] for value, row in zip(values, _ber_rows(points))])
        return EXIT_OK

    return work


def cmd_sweep_l(config: dict, run: Run) -> Callable[[], int]:
    cfg = sweep_l(parse_sim(config, extra_keys={"l_values"}), read(config, "l_values", [int]))
    return _sweep_table(run, "l", cfg, [float(wf.L) for wf in cfg.waveforms])


def cmd_sweep_q(config: dict, run: Run) -> Callable[[], int]:
    cfg = sweep_q(parse_sim(config, extra_keys={"q_values", "alpha"}),
                  read(config, "q_values", [float]), alpha=read(config, "alpha", float))
    return _sweep_table(run, "q", cfg, [wf.q for wf in cfg.waveforms])


def cmd_fdma_demo(config: dict, run: Run) -> Callable[[], int]:
    check_keys(config, set(DEFAULT_FDMA), "fdma-demo")
    layout = parse_layout(read(config, "layout", [dict]))
    n = layout.N
    seed = read(config, "seed", int, minimum=0)
    jammed = read(config, "jammed_block", int)
    if not 0 <= jammed < len(layout.blocks):
        raise ConfigError(f"jammed_block {jammed} out of range")
    jam_power = read(config, "jam_power", float, minimum=0)
    roundtrip_path = run.path("roundtrip.csv")
    leakage_path = run.path("leakage.csv")
    variance_path = run.path("jammer_variance.csv")
    whitening_path = run.path("block_whitening.csv")

    def work() -> int:
        rng = np.random.default_rng(seed)
        # noiseless roundtrip over an identity channel
        data = [
            (rng.standard_normal(b.width) + 1j * rng.standard_normal(b.width)) / np.sqrt(2)
            for b in layout.blocks
        ]
        x = np.fft.ifft(layout.precode(np.concatenate(data)), norm="ortho")
        recovered = layout.receive(np.fft.fft(x, norm="ortho"))
        roundtrip = [
            [i, b.config.label, float(np.max(np.abs(recovered[b.start : b.stop] - data[i])))]
            for i, b in enumerate(layout.blocks)
        ]
        write_csv(roundtrip_path, ["block", "waveform", "max_error"], roundtrip)

        # spectral containment of each block alone
        leakage_rows = []
        for i, block in enumerate(layout.blocks):
            alone = [np.zeros(b.width, complex) for b in layout.blocks]
            alone[i] = data[i]
            x = np.fft.ifft(layout.precode(np.concatenate(alone)), norm="ortho")
            spectrum = np.abs(np.fft.fft(x, norm="ortho")) ** 2
            inside = spectrum[block.start : block.stop].sum()
            total = spectrum.sum()
            leakage_rows.append([i, block.config.label, float((total - inside) / total)])
        write_csv(leakage_path, ["block", "waveform", "out_of_block_energy_fraction"],
                  leakage_rows)

        # analytic demodulated noise variance with a jammer confined to one block
        flat = np.ones(n)
        jammed_gains = flat.copy()
        block_j = layout.blocks[jammed]
        jammed_gains[block_j.start : block_j.stop] += jam_power
        variance_rows = []
        whitening_rows = []
        for i, block in enumerate(layout.blocks):
            sl = slice(block.start, block.stop)
            v_clean = block.config.demod_power(flat[sl])
            v_jam = block.config.demod_power(jammed_gains[sl])
            for m, pair in enumerate(zip(v_clean.tolist(), v_jam.tolist())):
                variance_rows.append([i, block.config.label, m, *pair])
            # the same impulse shape dropped into this block, whitened by its Q_inv
            local = flat[sl].copy()
            local[block.width // 2] += jam_power
            whitening_rows.append(
                [i, block.config.label, whitening_std(block.config.demod_power(local))]
            )
        write_csv(variance_path,
                  ["block", "waveform", "subcarrier", "variance_clean", "variance_jammed"],
                  variance_rows)
        write_csv(whitening_path, ["block", "waveform", "whitening_std"], whitening_rows)
        return EXIT_OK

    return work


def cmd_verify_appendix(config: dict, run: Run) -> Callable[[], int]:
    check_keys(config, set(DEFAULT_VERIFY), "verify-appendix")
    decimation_tol = _tolerance(config, "decimation_tol")
    n_values = read(config, "n_values", [int], minimum=1)
    a_values = read(config, "a_values", [int])
    b_values = read(config, "b_values", [int], minimum=1)
    chirps = [(n, a, b, rational_chirp_decompose(a / b, tol=1e-12))
              for n, a, b in itertools.product(n_values, a_values, b_values)]
    for n, a, b, chirp in chirps:
        if chirp.b * n > MAX_EXPANDED_SIZE:
            raise ConfigError(f"config: 'n_values' item {n} with a/b = {a}/{b} needs a "
                              f"size-{chirp.b * n} transform, over the {MAX_EXPANDED_SIZE} guard")
    dirichlet_tol = _tolerance(config, "dirichlet_tol")
    dirichlet_cases = read(config, "dirichlet_cases", [[int]], minimum=1)
    for case in dirichlet_cases:
        if len(case) != 2:
            raise ConfigError(f"config: 'dirichlet_cases' items must be [n, b], got {case!r}")
        check_size(case[0] * case[1], "dirichlet_cases", "config")
    threshold = read(config, "density_threshold", float)
    if not 0 < threshold < 1:  # a density is at most 1
        raise ConfigError(f"config: 'density_threshold' must be in (0, 1), got {threshold!r}")
    sparsity_tol = _tolerance(config, "sparsity_tol")
    density_q = read(config, "density_q", [float])
    density_n = [check_size(n, "density_n", "config")
                 for n in read(config, "density_n", [int], minimum=1)]
    density_waveforms = [
        (n, q, parse_waveform({"kind": "afdm", "n": n, "q": q}))
        for n in density_n for q in density_q
    ]
    path = run.path("verify_appendix.json")

    def work() -> int:
        decimation = []
        for n, a, b, chirp in chirps:
            err = verify_decimation_identity(n, chirp)
            decimation.append({"n": n, "a": a, "b": b, "max_error": err,
                               "ok": err < decimation_tol})

        dirichlet = []
        for n, b in dirichlet_cases:
            k = np.arange(b * n)
            direct = np.fft.fft((k < n).astype(float), norm="ortho")
            closed = np.array([rect_window_spectrum(n, b, u) for u in range(b * n)])
            err = float(np.max(np.abs(direct - closed)))
            dirichlet.append({"n": n, "b": b, "max_error": err, "ok": err < dirichlet_tol})

        densities = []
        for n, q, wf in density_waveforms:
            density = row_sparsity(wf.row_magnitudes(), tol=sparsity_tol).density
            densities.append({"n": n, "q": q, "density": density, "ok": density > threshold})

        # integer-rate special case: the Gauss-sum column collapses to an even comb
        column = afdm_inverse_column(8, 4.0)
        support = np.flatnonzero(np.abs(column) > sparsity_tol * np.abs(column).max())
        sparse_ok = support.tolist() == [0, 4]
        failures = sum(not r["ok"] for r in decimation + dirichlet + densities) + (not sparse_ok)

        write_json(path, {
            "decimation_identity": decimation,
            "dirichlet_closed_form": dirichlet,
            "rational_chirp_density": densities,
            "sparse_special_case": {"n": 8, "q": 4.0, "support": support.tolist(),
                                    "ok": sparse_ok},
            "failures": failures,
        })
        if failures:
            print(f"verify-appendix: {failures} identity check(s) failed", file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK

    return work


# ---------------------------------------------------------------------------
# argument parsing and dispatch

_SUBCOMMANDS = {
    "analyze-noise": (cmd_analyze_noise, DEFAULT_ANALYZE),
    "sparsity": (cmd_sparsity, DEFAULT_SPARSITY),
    "ber": (cmd_ber, DEFAULT_BER),
    "sweep-l": (cmd_sweep_l, DEFAULT_SWEEP_L),
    "sweep-q": (cmd_sweep_q, DEFAULT_SWEEP_Q),
    "fdma-demo": (cmd_fdma_demo, DEFAULT_FDMA),
    "verify-appendix": (cmd_verify_appendix, DEFAULT_VERIFY),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="Multicarrier waveform experiments: whitening analysis, "
        "sparsity reports, and Monte-Carlo BER sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"wavelab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", metavar="PATH", help="YAML config file")
        cmd.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
        cmd.add_argument("--out", metavar="DIR", default=None, help="output directory")
        cmd.add_argument("--threads", type=int, default=1, metavar="N",
                         help="worker threads for frame simulation")
        cmd.add_argument("--dry-run", action="store_true",
                         help="validate the config and print the plan without running")
    return parser


def _resolve_config(args, defaults: dict) -> dict:
    overrides = load_config_file(args.config) if args.config else {}
    config = {**defaults, **overrides}
    if args.seed is not None:
        config["seed"] = args.seed
    read(config, "seed", int, minimum=0)  # checked, not rewritten: the manifest echoes it
    if args.threads < 1:
        raise ConfigError("--threads must be a positive integer")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, defaults = _SUBCOMMANDS[args.subcommand]
    out_dir = args.out or f"wavelab_out/{args.subcommand}"
    try:
        config = _resolve_config(args, defaults)
        run = Run(args.subcommand, out_dir, config, args)
        work = handler(config, run)
        if args.dry_run:
            print(f"wavelab {args.subcommand}: config OK; would write to {out_dir}")
            print(json.dumps(config, indent=2, sort_keys=True, default=str))
            for name in sorted(run.outputs):
                print(f"output: {name}")
            return EXIT_OK
        code = work()
        run.finish()
        return code
    except ConfigError as exc:
        print(f"wavelab {args.subcommand}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EqualizationError as exc:
        print(f"wavelab {args.subcommand}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WavelabError as exc:
        print(f"wavelab {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
