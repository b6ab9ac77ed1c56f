"""Command-line entry point for reproducible experiments.

Subcommands: analyze-noise, sparsity, ber, sweep-l, sweep-q, fdma-demo,
verify-appendix. Each reads an optional YAML config whose top-level keys
replace those of its ``DEFAULT_*`` dict, the one place its defaults live;
``main`` refuses a key that is neither there nor in its ``_SUBCOMMANDS`` row.
Its handler parses the whole config and claims every output name, refusing
two of one name, then returns its work, which writes CSV/JSON artifacts
and a manifest.json into the output directory that ``main`` makes before
it; ``--dry-run`` lists the names instead. Exits 0 on success, 2 on
configuration errors (dry runs too) and on an output directory that cannot
be made or written, 3 on numerical failure. Re-running with the same config
and seed produces byte-identical CSV bodies at any thread count. Each handler
imports the modules its run uses: the analyses never load the BER engine,
nor a BER run ``analysis``. Once it has parsed, ``main`` freezes the heap
once per process (``gc.freeze``), so no later collection, those at
interpreter exit included, walks it again. While it runs, ``main`` hides
from imports the native modules no run calls, OpenSSL's ``_hashlib`` (when
hashlib's builtin hashes stand in for it), PyYAML's ``yaml._yaml`` and
``_ctypes``, so a run never maps libcrypto, libyaml or libffi; numpy imports
ctypes under a guard, and a numpy first loaded during ``main`` has no
``ndarray.ctypes.data_as``. ``import wavelab.cli`` loads no numpy,
so ``main`` also sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 when none is set and numpy is not loaded yet: its BLAS
then starts one thread, not one per CPU, which is faster for a run's small
solves. Setting any one of them keeps a multi-threaded BLAS. Once ``main``
returns, the environment and ``sys.modules`` hold none of these entries.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .configio import (
    check_headroom,
    check_keys,
    check_size,
    load_config_file,
    parse_layout,
    parse_profile,
    parse_sim,
    parse_waveform,
    read,
)
from .exceptions import ConfigError, EqualizationError, WavelabError, shown

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the thread counts a BLAS reads once, when numpy loads it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Run:
    """Collects output files for the manifest of one CLI invocation."""

    def __init__(self, subcommand: str, out_dir: str, config: dict):
        self.subcommand = subcommand
        self.out = Path(out_dir)
        self.config = config
        self.started = time.perf_counter()
        self.outputs: list[str] = []
        self.points: list[dict] = []

    def path(self, name: str) -> Path:
        if name in self.outputs:
            raise ConfigError(f"two outputs of this config would both be written to {name}")
        self.outputs.append(name)
        return self.out / name

    def finish(self) -> None:
        import numpy as np
        try:  # numpy < 1.26 takes no mode
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            blas = None
        manifest = {
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.config.get("seed", 0),
            "version": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
            "duration_s": time.perf_counter() - self.started,
            "outputs": sorted(self.outputs),
        }
        if self.points:
            manifest["points"] = self.points
        write_json(self.out / "manifest.json", manifest)


def _ber_rows(points):
    return [[p.snr_db, p.bits, p.errors, p.ber, p.stderr] for p in points]


def _curves(run: Run, cfg) -> list:
    from .sim import run_ber
    curves = run_ber(cfg)
    # per-point frames and skips go to the manifest: the CSV layout is fixed
    run.points = [{"label": c.label, **asdict(p)} for c in curves for p in c.points]
    return curves


def _tolerance(config: dict, key: str) -> float:
    """A check's tolerance: refused unless > 0, since no error passes a bound of 0."""
    tol = read(config, key, float)
    if tol <= 0:
        raise ConfigError(f"config: {key!r} must be > 0, got {shown(tol)}")
    return tol


# ---------------------------------------------------------------------------
# subcommands: each parses its config, claims its outputs and returns its work


def cmd_analyze_noise(config: dict, run: Run) -> Callable[[], int]:
    from .noise import whitening_std
    n = read(config, "n", int, minimum=1)
    waveforms = [parse_waveform(w, default_n=n) for w in read(config, "waveforms", [dict])]
    if any(wf.N != n for wf in waveforms):
        raise ConfigError(f"config: every waveform must have the grid size 'n' = {n}")
    profiles = [parse_profile(p, n) for p in read(config, "profiles", [dict])]
    sigma_w = read(config, "sigma_w", float, minimum=0)  # the variances' sum <= n * sigma_w**2
    check_headroom(sigma_w, n, "config: 'sigma_w'", amplitude=True)
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
    from .analysis import row_sparsity
    tol = _tolerance(config, "tol")
    waveforms = [parse_waveform(entry) for entry in read(config, "entries", [dict])]
    path = run.path("sparsity.json")

    def work() -> int:
        records = []
        for wf in waveforms:
            k = row_sparsity(wf.row_magnitudes(), tol=tol)  # every row has k nonzeros
            records.append({
                "label": wf.label,
                "n": wf.N,
                "tol": tol,
                "density": k / wf.N,
                "nonzeros_per_row_min": k,
                "nonzeros_per_row_max": k,
                "row_counts": [k] * wf.N,
            })
        write_json(path, {"reports": records})
        return EXIT_OK

    return work


def cmd_ber(config: dict, run: Run) -> Callable[[], int]:
    from .sim import config_fingerprint
    cfg = parse_sim(config)
    if "layout" in config:  # the defaults' waveforms, or the file's, which it never reads:
        del config["waveforms"]  # neither the echo nor the manifest shows them
    paths = [run.path(f"ber_{target.slug}.csv") for target in cfg.targets]
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


def _sweep_table(run: Run, column: str, config: dict, sections) -> Callable[[], int]:
    """Work of a sweep: ``config`` at its one SNR point, on one waveform per section."""
    cfg = parse_sim(config)
    if len(cfg.snr_db) != 1:
        raise ConfigError(f"config: 'snr_db' = {shown(list(cfg.snr_db))}: parameter sweeps "
                          f"need a template with exactly one SNR point")
    cfg = replace(cfg, targets=tuple(parse_waveform(s, default_n=cfg.n) for s in sections))
    path = run.path(f"sweep_{column}.csv")

    def work() -> int:
        points = [curve.points[0] for curve in _curves(run, cfg)]
        write_csv(path, [column, "snr_db", "bits", "errors", "ber", "stderr"],
                  [[float(s[column]), *row] for s, row in zip(sections, _ber_rows(points))])
        return EXIT_OK

    return work


def cmd_sweep_l(config: dict, run: Run) -> Callable[[], int]:
    sections = [dict(kind="otfs", l=l) for l in read(config, "l_values", [int])]
    return _sweep_table(run, "l", config, sections)


def cmd_sweep_q(config: dict, run: Run) -> Callable[[], int]:
    q_values, alpha = read(config, "q_values", [float]), read(config, "alpha", float)
    if 0.0 in q_values:
        raise ConfigError("config: 'q_values' holds 0: q=0 degenerates to OFDM; sweep values "
                          "must be nonzero")
    return _sweep_table(run, "q", config, [dict(kind="afdm", q=q, alpha=alpha) for q in q_values])


def cmd_fdma_demo(config: dict, run: Run) -> Callable[[], int]:
    from .noise import whitening_std
    layout = parse_layout(read(config, "layout", [dict]))
    n = layout.N
    seed = read(config, "seed", int, minimum=0)
    jammed = read(config, "jammed_block", int)
    if not 0 <= jammed < len(layout.blocks):
        raise ConfigError(f"config: 'jammed_block' = {shown(jammed)} is not a block index "
                          f"in [0, {len(layout.blocks)})")
    jam_power = read(config, "jam_power", float, minimum=0)
    check_headroom(jam_power, n, "config: 'jam_power'")  # demod_power sums <= n * (1 + jam_power)
    roundtrip_path = run.path("roundtrip.csv")
    leakage_path = run.path("leakage.csv")
    variance_path = run.path("jammer_variance.csv")
    whitening_path = run.path("block_whitening.csv")

    def work() -> int:
        import numpy as np
        rng = np.random.default_rng(seed)
        data = [(rng.standard_normal(wf.N) + 1j * rng.standard_normal(wf.N)) / np.sqrt(2)
                for wf in layout.configs]
        z = layout.precode(np.concatenate(data))
        # noiseless roundtrip over an identity channel
        recovered = layout.receive(np.fft.fft(np.fft.ifft(z, norm="ortho"), norm="ortho"))
        roundtrip, leakage, variance, whitening = [], [], [], []
        for i, (wf, sl) in enumerate(zip(layout.configs, layout.blocks)):
            roundtrip.append([i, wf.label, float(np.max(np.abs(recovered[sl] - data[i])))])
            # spectral containment of this block alone: a block of zeros precodes to
            # zeros, so that is z on this block's bins and zeros elsewhere
            alone = np.zeros_like(z)
            alone[sl] = z[sl]
            spectrum = np.abs(np.fft.fft(np.fft.ifft(alone, norm="ortho"), norm="ortho")) ** 2
            total = spectrum.sum()
            leakage.append([i, wf.label, float((total - spectrum[sl].sum()) / total)])
            # analytic demodulated noise variance with a jammer confined to one block
            v_clean = wf.demod_power(np.ones(wf.N))
            v_jam = wf.demod_power(np.ones(wf.N) + jam_power) if i == jammed else v_clean
            variance += [[i, wf.label, m, *pair]
                         for m, pair in enumerate(zip(v_clean.tolist(), v_jam.tolist()))]
            # the same impulse shape dropped into this block, whitened by its Q_inv
            local = np.ones(wf.N)
            local[wf.N // 2] += jam_power
            whitening.append([i, wf.label, whitening_std(wf.demod_power(local))])
        write_csv(roundtrip_path, ["block", "waveform", "max_error"], roundtrip)
        write_csv(leakage_path, ["block", "waveform", "out_of_block_energy_fraction"], leakage)
        write_csv(variance_path,
                  ["block", "waveform", "subcarrier", "variance_clean", "variance_jammed"],
                  variance)
        write_csv(whitening_path, ["block", "waveform", "whitening_std"], whitening)
        return EXIT_OK

    return work


def cmd_verify_appendix(config: dict, run: Run) -> Callable[[], int]:
    import numpy as np

    from .analysis import rect_window_spectrum, row_sparsity, verify_decimation_identity
    from .waveform import afdm_inverse_column, chirp_phase
    decimation_tol = _tolerance(config, "decimation_tol")
    n_values = read(config, "n_values", [int], minimum=1)
    a_values = read(config, "a_values", [int])
    b_values = read(config, "b_values", [int], minimum=1)
    rates = []
    for n, a, b in itertools.product(n_values, a_values, b_values):
        g = math.gcd(a, b)  # the rate a/b in lowest terms, exactly
        check_size(b // g * n, "n_values", "config")  # the size-bn transform of a/b
        try:  # the largest phase of the identity's sequence and of its column, k = n - 1;
            # an a too large for a float raises
            finite = (math.isfinite(chirp_phase(b // g * n, a // g, n - 1))
                      and math.isfinite(chirp_phase(n, (a // g) / (b // g), n - 1)))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"config: 'a_values' item {shown(a)} with b = {shown(b)} and "
                              f"n = {n} makes the chirp phase pi*(a/b)*k**2/n overflow for k < n")
        rates.append((n, a, b, g))
    dirichlet_tol = _tolerance(config, "dirichlet_tol")
    dirichlet_cases = read(config, "dirichlet_cases", [[int]], minimum=1)
    for case in dirichlet_cases:
        if len(case) != 2:
            raise ConfigError(f"config: 'dirichlet_cases' items must be [n, b], "
                              f"got {shown(case)}")
        check_size(case[0] * case[1], "dirichlet_cases", "config")
    threshold = read(config, "density_threshold", float)
    if not 0 < threshold < 1:  # a density is at most 1
        raise ConfigError(f"config: 'density_threshold' must be in (0, 1), "
                          f"got {shown(threshold)}")
    sparsity_tol = _tolerance(config, "sparsity_tol")
    # integer-rate special case: the Gauss-sum column collapses to an even comb
    column = afdm_inverse_column(8, 4.0)
    peak = float(np.abs(column).max())
    if not sparsity_tol * peak < math.inf:
        raise ConfigError(f"config: 'sparsity_tol' = {sparsity_tol!r} times the comb's "
                          f"largest magnitude {peak!r} is not finite")
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
        for n, a, b, g in rates:
            err = verify_decimation_identity(n, a // g, b // g)
            decimation.append({"n": n, "a": a, "b": b, "max_error": err,
                               "ok": err < decimation_tol})

        dirichlet = []
        for n, b in dirichlet_cases:
            direct = np.fft.fft((np.arange(b * n) < n).astype(float), norm="ortho")
            err = float(np.max(np.abs(direct - rect_window_spectrum(n, b))))
            dirichlet.append({"n": n, "b": b, "max_error": err, "ok": err < dirichlet_tol})

        densities = []
        for n, q, wf in density_waveforms:
            density = row_sparsity(wf.row_magnitudes(), tol=sparsity_tol) / n
            densities.append({"n": n, "q": q, "density": density, "ok": density > threshold})

        support = np.flatnonzero(np.abs(column) > sparsity_tol * peak)
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

# name -> (handler, defaults, the top-level keys it also takes without a default)
_SUBCOMMANDS = {
    "analyze-noise": (cmd_analyze_noise, DEFAULT_ANALYZE, set()),
    "sparsity": (cmd_sparsity, DEFAULT_SPARSITY, set()),
    "ber": (cmd_ber, DEFAULT_BER, {"layout", "subcarrier_spacing_hz"}),
    "sweep-l": (cmd_sweep_l, DEFAULT_SWEEP_L, {"subcarrier_spacing_hz"}),
    "sweep-q": (cmd_sweep_q, DEFAULT_SWEEP_Q, {"subcarrier_spacing_hz"}),
    "fdma-demo": (cmd_fdma_demo, DEFAULT_FDMA, set()),
    "verify-appendix": (cmd_verify_appendix, DEFAULT_VERIFY, set()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="Multicarrier waveform experiments: whitening analysis, "
        "sparsity reports, and Monte-Carlo BER sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"wavelab {__version__}")
    parser.add_argument("subcommand", choices=list(_SUBCOMMANDS), help="the experiment to run")
    parser.add_argument("--config", metavar="PATH", help="YAML config file")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility: chunks run serially, so N has no effect")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and print the plan without running")
    return parser


def _resolve_config(args, defaults: dict) -> dict:
    overrides = load_config_file(args.config) if args.config is not None else {}
    config = {**defaults, **overrides}
    if args.seed is not None:
        config["seed"] = args.seed
    read(config, "seed", int, minimum=0)  # checked, not rewritten: the manifest echoes it
    if args.threads < 1:
        raise ConfigError("--threads must be a positive integer")
    if args.out == "":
        raise ConfigError("--out must name a directory, got ''")
    return config


@functools.cache  # once per process: tests call main many times
def _freeze_heap() -> None:
    gc.freeze()


def _pin_blas() -> tuple:
    """Set every THREAD_VARS to "1" until ``main`` returns, so that numpy's BLAS, the
    first time it loads, starts one thread, not one per CPU: a run's small solves
    are faster on one. Only when none is set (a user's own setting wins) and numpy
    is not loaded yet; returns the names it set."""
    if "numpy" in sys.modules or any(name in os.environ for name in THREAD_VARS):
        return ()
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    return THREAD_VARS


# the modules hashlib falls back to when it cannot import OpenSSL's _hashlib
_BUILTIN_HASHES = ("_md5", "_sha1",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")),
                   "_sha3", "_blake2")

# native module no run calls -> the module whose first import would load it:
# OpenSSL's _hashlib, through numpy.random's secrets -> hmac/hashlib chain,
# PyYAML's libyaml binding (safe_load is pure Python) and _ctypes with libffi,
# which numpy imports under a guard and calls only from ndarray.ctypes and
# numpy.ctypeslib: a numpy first loaded during main lacks those
_UNCALLED = {"_hashlib": "numpy.random", "yaml._yaml": "yaml", "_ctypes": "numpy"}


def _hide_uncalled() -> list:
    """Make each ``import`` of an _UNCALLED module fail until ``main`` returns, so
    that its loader goes without it (a pure-Python path, or numpy's ctypes = None)
    and never maps the library (libcrypto, libyaml, libffi). Only while neither
    the module nor its loader is loaded yet, and _hashlib only when hashlib would
    find every builtin hash; returns the names it hid."""
    from importlib.util import find_spec
    hidden = [name for name, loader in _UNCALLED.items()
              if name not in sys.modules and loader not in sys.modules]
    if "_hashlib" in hidden and not all(find_spec(name) for name in _BUILTIN_HASHES):
        hidden.remove("_hashlib")  # hashlib would log each missing hash and lack some
    sys.modules.update(dict.fromkeys(hidden))
    return hidden


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, defaults, optional = _SUBCOMMANDS[args.subcommand]
    out_dir = f"wavelab_out/{args.subcommand}" if args.out is None else args.out
    pinned, hidden = _pin_blas(), _hide_uncalled()
    try:
        config = _resolve_config(args, defaults)
        check_keys(config, set(defaults) | optional, "config")
        run = Run(args.subcommand, out_dir, config)
        work = handler(config, run)
        _freeze_heap()  # after the parse, so the handler's imports are frozen too
        if args.dry_run:
            try:
                print(f"wavelab {args.subcommand}: config OK; would write to {out_dir}")
                print(json.dumps(config, indent=2, sort_keys=True, default=str))
                for name in sorted(run.outputs):
                    print(f"output: {name}")
                sys.stdout.flush()
            except BrokenPipeError:  # the reader left: the exit-time flush must not raise again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
        run.out.mkdir(parents=True, exist_ok=True)
        code = work()
        run.finish()
        return code
    except OSError as exc:  # the output directory, or a file in it
        print(f"wavelab {args.subcommand}: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"wavelab {args.subcommand}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EqualizationError as exc:
        print(f"wavelab {args.subcommand}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WavelabError as exc:
        print(f"wavelab {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        for name in pinned:
            os.environ.pop(name, None)
        for name in hidden:
            if sys.modules.get(name, 0) is None:
                del sys.modules[name]


if __name__ == "__main__":
    sys.exit(main())
