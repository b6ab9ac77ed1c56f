"""wavelab benchmark: end-to-end and per-layer numbers for four workloads.

Run from the root of a wavelab checkout:

    python3 bench/run.py --workload ber_quasi_static --seed 1 --seconds 20 --trace 0

The benchmark drives the ``wavelab`` CLI from outside, as a user would:
each invocation is a fresh process (``child.py``) that imports the
checkout's ``src/`` and calls ``wavelab.cli.main`` as the installed
``wavelab`` command does, with ``--threads 1`` and BLAS pinned to one
thread in the child's environment only. The benchmark and its children
run on one CPU. It repeats a workload's invocations until ``--seconds``
have passed, checks every output (see ``checks.py``) and prints one JSON
object as its last line of output: ``{"correct", "attempted", "failed",
"metrics"}``.

Times are normalized by a speed probe. On a shared machine each CPU
switches, within seconds, between full speed and about 1.6 times slower,
so raw medians of the same code moved by up to 1.5x between runs. While a
timed child runs, a thread of the benchmark runs a fixed kernel of small
numpy calls driven from Python, the mix of the workload (see
``WORKLOAD_KERNELS``), on the same CPU; the scheduler interleaves the two,
so the kernel's rate is the speed the child got. A child's time is its
CPU time (it runs one thread, so this is its run time on an idle CPU)
times the kernel's rate over its reference rate: seconds at full speed
on the machine that set the constant. Time spent blocked (I/O,
sleeping) is not counted. Raw wall times, which include the probe's
share of the CPU, are printed and kept in ``result.json``.

``--trace 0`` reports the end-to-end metrics, from untraced runs:

- ``wall_s``: median over repetitions of the normalized time of the
  workload's timed CLI invocations, process start included;
- ``setup_s``: median normalized time of a fresh ``--dry-run`` of the
  same invocations (interpreter start, imports, YAML load), measured once
  per invocation before every repetition;
- ``peak_rss_mb``: median over repetitions of the largest peak resident
  set of one invocation's own process (its ``VmHWM``, see ``child.py``).

``failed_ops`` (failed / attempted invocations, dry runs included) is the
``failed`` and ``attempted`` pair of the result, and ``mc_bits_per_s``
(Monte-Carlo bits decided per second of ``wall_s``) is printed with the
other figures on the lines before the result.

``--trace 1`` alternates untraced repetitions with traced ones (see
``layertrace.py``) and reports the per-layer metrics: medians over the
traced repetitions, with span times (CPU time) normalized the same way,
plus ``trace.overhead`` (traced over untraced median time, minus 1),
``mc_bits_per_s`` from the untraced repetitions, and
``cli.identical_outputs`` (CSV files byte-identical to the reference).

Every run also writes ``.bench_out/<workload>/result.json`` with the
machine record, the samples and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layertrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_DIR = BENCH / "workloads"
REFERENCE_DIR = BENCH / "reference"

REFERENCE_SEED = 1
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPETITIONS = 3
INVOCATION_TIMEOUT_S = 120.0
TAIL_SAMPLES = 10

PROBE_BATCH = 20


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload; ``name`` keys its reference outputs."""

    name: str
    subcommand: str
    config: str | None = None
    ber: bool = False

    def argv(self, seed: int, out_dir: Path, dry_run: bool = False) -> list:
        args = [self.subcommand, "--seed", str(seed), "--threads", str(THREADS),
                "--out", str(out_dir)]
        if self.config:
            args += ["--config", str(WORKLOAD_DIR / self.config)]
        return args + (["--dry-run"] if dry_run else [])

    def budget(self):
        if not self.ber:
            return None
        import yaml  # a wavelab dependency; only BER budgets need it

        with open(WORKLOAD_DIR / self.config, encoding="utf-8") as fh:
            return checks.BerBudget.from_config(yaml.safe_load(fh))


WORKLOADS = {
    "ber_quasi_static": (
        Invocation("ber_quasi_static", "ber", "ber_quasi_static.yaml", ber=True),
    ),
    "ber_dispersive": (
        Invocation("ber_dispersive", "ber", "ber_dispersive.yaml", ber=True),
    ),
    "ber_sweeps": (
        Invocation("sweep_l", "sweep-l", "sweep_l.yaml", ber=True),
        Invocation("sweep_q", "sweep-q", "sweep_q.yaml", ber=True),
        Invocation("fdma_ber", "ber", "fdma_ber.yaml", ber=True),
    ),
    "whitening_analysis": (
        Invocation("analyze_noise", "analyze-noise", "analyze_noise.yaml"),
        Invocation("sparsity", "sparsity", "sparsity.yaml"),
        Invocation("verify_appendix", "verify-appendix"),
    ),
}


# ---------------------------------------------------------------------------
# the speed probe


def frame_steps(rng: np.random.Generator, count: int) -> None:
    """A fixed miniature BER frame, repeated: draw 8 taps and 480 bits, map
    to 4-QAM, synthesize, apply the taps one ``np.roll`` at a time, equalize
    per bin and count bit errors at N=120."""
    for _ in range(count):
        taps = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / 4
        bits = rng.integers(0, 2, 480, dtype=np.uint8)
        symbols = (2.0 * bits[0::4] - 1) + 1j * (2.0 * bits[1::4] - 1)
        x = np.fft.ifft(symbols, norm="ortho")
        y = np.zeros(120, complex)
        for delay, tap in enumerate(taps):
            y += tap * np.roll(x, delay)
        h = np.fft.fft(np.concatenate([taps, np.zeros(112)]))
        r = np.fft.fft(y, norm="ortho") * h.conj() / (np.abs(h) ** 2 + 0.1)
        np.count_nonzero((r.real > 0) != (bits[0::4] > 0))


def vector_steps(rng: np.random.Generator, count: int) -> None:
    """FFTs and elementwise numpy calls on one fixed length-120 vector."""
    x = np.exp(0.1j * np.arange(120))
    for _ in range(count):
        y = np.fft.ifft(np.fft.fft(x, norm="ortho") * x, norm="ortho")
        np.abs(y) ** 2 + y.real
        np.roll(x, 3)


@dataclass(frozen=True)
class Kernel:
    """A probe kernel and its rate, in steps per CPU second, at full speed
    beside a child on a 2-vCPU KVM guest (Intel Xeon, family 6 model 207)."""

    name: str
    steps: Callable[[np.random.Generator, int], None]
    reference_rate: float


# Per-workload choice, measured on the machine above with each kernel
# beside the same invocations: the frame kernel halved the sample spread
# of the quasi-static BER run (3.5 % vs 6.6 %); the vector kernel, more
# of whose time is in SIMD loops, did better beside the dense solve (5.6 %
# vs 8.1 %) and tied on the analysis run. A kernel with a dense product,
# closer still to the analysis mix, ran AVX-512 code that slowed the
# child beside it by a third.
FRAME_KERNEL = Kernel("frame", frame_steps, 7200.0)
VECTOR_KERNEL = Kernel("vector", vector_steps, 35000.0)
WORKLOAD_KERNELS = {
    "ber_quasi_static": FRAME_KERNEL,
    "ber_dispersive": VECTOR_KERNEL,
    "ber_sweeps": FRAME_KERNEL,
    "whitening_analysis": VECTOR_KERNEL,
}


class SpeedProbe(threading.Thread):
    """Runs the reference kernel beside a child on the same CPU.

    The scheduler interleaves the two every few milliseconds, so the
    kernel's rate (steps per second of its own CPU time) is the speed
    the CPU gave the child over the same interval.
    """

    def __init__(self, kernel: Kernel):
        super().__init__(daemon=True)
        self.kernel = kernel
        self.halt = threading.Event()
        self.steps = 0
        self.cpu_s = 0.0

    def run(self):
        rng = np.random.default_rng(0)
        start = time.thread_time()
        while not self.halt.is_set():
            self.kernel.steps(rng, PROBE_BATCH)
            self.steps += PROBE_BATCH
        self.cpu_s = time.thread_time() - start

    def finish(self) -> float:
        """Stop; the factor that scales the child's CPU time to seconds at
        the reference speed."""
        self.halt.set()
        self.join()
        rate = self.steps / self.cpu_s if self.cpu_s else self.kernel.reference_rate
        return rate / self.kernel.reference_rate


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float  # 0 when the child recorded none
    stderr: str
    scale: float = 1.0

    @property
    def run_s(self) -> float:
        """CPU seconds at the reference speed (with a probe; else raw)."""
        return self.cpu_s * self.scale

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback" not in self.stderr and self.rss_mb > 0


def run_child(args: list, log_dir: Path, kernel: Kernel | None = None,
              spans_path: Path | None = None) -> ChildResult:
    """Run one wavelab CLI invocation (traced with ``spans_path``) to
    completion: its wall and CPU time, its own peak RSS and, with a probe
    ``kernel``, the speed the CPU gave it."""
    log_dir.mkdir(parents=True, exist_ok=True)
    peak_path = log_dir / "peak_rss_kb.txt"
    peak_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(peak_path),
            str(spans_path) if spans_path else "-", *args]
    speed = SpeedProbe(kernel) if kernel else None
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        if speed:
            speed.start()
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            scale = speed.finish() if speed else 1.0
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (log_dir / "stderr.txt").read_text(errors="replace")
    peak_kb = peak_path.read_text().strip() if peak_path.is_file() else ""
    return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       int(peak_kb) / 1024.0 if peak_kb.isdigit() else 0.0, stderr, scale)


# ---------------------------------------------------------------------------
# one repetition of a workload


@dataclass
class Repetition:
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    rss_mb: float = 0.0
    bits: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    identical_csvs: int = 0
    frames_attempted: int = 0
    frames_skipped: int = 0
    bytes_written: int = 0
    traces: list = field(default_factory=list)


def output_bits(out_dir: Path) -> int:
    total = 0
    for path in out_dir.glob("*.csv"):
        rows = path.read_text().splitlines()
        column = rows[0].split(",").index("bits")
        total += sum(int(row.split(",")[column]) for row in rows[1:])
    return total


def run_repetition(workload: str, seed: int, work_dir: Path, traced: bool,
                   probe: bool = False) -> Repetition:
    """Run and check each invocation of ``workload`` once."""
    rep = Repetition()
    kernel = WORKLOAD_KERNELS[workload] if probe else None
    for inv in WORKLOADS[workload]:
        out_dir = work_dir / inv.name
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path = work_dir / f"{inv.name}.spans.json" if traced else None
        child = run_child(inv.argv(seed, out_dir), work_dir / "logs" / inv.name, kernel,
                          spans_path)
        rep.attempted += 1
        rep.wall_s += child.run_s
        rep.raw_wall_s += child.wall_s
        rep.rss_mb = max(rep.rss_mb, child.rss_mb)
        if not child.ok:
            rep.failed += 1
            rep.problems.append(f"{inv.name}: exit {child.code}: {child.stderr.strip()[-300:]}")
            continue
        result = checks.check_outputs(out_dir, REFERENCE_DIR / inv.name, inv.budget(),
                                      seed == REFERENCE_SEED)
        rep.failed += bool(result.problems)
        rep.problems += [f"{inv.name}: {p}" for p in result.problems]
        rep.identical_csvs += result.identical_csvs
        rep.frames_attempted += result.frames_attempted
        rep.frames_skipped += result.frames_skipped
        if inv.ber:
            rep.bits += output_bits(out_dir)
        rep.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir()
                                 if p.name != "manifest.json")
        if traced:
            spans = json.loads(spans_path.read_text())
            rep.traces.append(layertrace.totals(spans, child.scale))
    return rep


def dry_runs(workload: str, seed: int, work_dir: Path, probe: bool = False) -> list:
    """One ``--dry-run`` per invocation of ``workload``."""
    kernel = WORKLOAD_KERNELS[workload] if probe else None
    return [
        run_child(inv.argv(seed, work_dir / "dry" / inv.name, dry_run=True),
                  work_dir / "logs" / f"{inv.name}.dry", kernel)
        for inv in WORKLOADS[workload]
    ]


# ---------------------------------------------------------------------------
# statistics and records


def summary(samples: list) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    doc = {"median": statistics.median(ordered), "n": len(ordered)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(ordered) - int(len(ordered) * pct / 100.0) >= TAIL_SAMPLES:
            doc[f"p{pct:g}"] = statistics.quantiles(ordered, n=1000)[int(pct * 10) - 1]
            break
    return doc


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record(workload: str, seed: int, cpu_index: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    cache_root = f"/sys/devices/system/cpu/cpu{cpu_index}/cache"
    for index in sorted(os.listdir(cache_root)) if os.path.isdir(cache_root) else []:
        level = _read(f"{cache_root}/{index}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{cache_root}/{index}/size")
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned_cpu": cpu_index,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {var: str(THREADS) for var in THREAD_VARS},
        "threads": THREADS,
        "seed": seed,
        "probe": {"kernel": WORKLOAD_KERNELS[workload].name, "batch": PROBE_BATCH,
                  "reference_rate": WORKLOAD_KERNELS[workload].reference_rate},
    }


# ---------------------------------------------------------------------------
# the two kinds of run


@dataclass
class RunRecord:
    reps: list
    dry: list
    samples: dict
    metrics: dict
    printed: dict


def measure(workload: str, seed: int, seconds: float, work_dir: Path) -> RunRecord:
    """Untraced run: the end-to-end metrics."""
    dry_runs(workload, seed, work_dir)  # untimed: compiles bytecode, fills caches
    reps, dry = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPETITIONS or time.perf_counter() < deadline:
        dry += dry_runs(workload, seed, work_dir, probe=True)
        reps.append(run_repetition(workload, seed, work_dir, traced=False, probe=True))
    samples = {
        "wall_s": [r.wall_s for r in reps],
        "setup_s": [d.run_s for d in dry],
        "peak_rss_mb": [r.rss_mb for r in reps],
        "raw_wall_s": [r.raw_wall_s for r in reps],
        "raw_setup_s": [d.wall_s for d in dry],
        "speed": [d.scale for d in dry],
    }
    metrics = {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
    }
    bits = statistics.median(r.bits for r in reps)
    printed = {"mc_bits_per_s": (bits / metrics["wall_s"][0], "bit/s")} if bits else {}
    return RunRecord(reps, dry, samples, metrics, printed)


def trace(workload: str, seed: int, seconds: float, work_dir: Path) -> RunRecord:
    """Traced run: the per-layer metrics, from spans; end-to-end numbers
    only for the overhead and the bit rate."""
    run_repetition(workload, seed, work_dir, traced=False)  # untimed warm-up
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPETITIONS or time.perf_counter() < deadline:
        plain.append(run_repetition(workload, seed, work_dir, traced=False, probe=True))
        traced.append(run_repetition(workload, seed, work_dir, traced=True, probe=True))
    per_rep = [layertrace.layer_metrics(layertrace.merge_totals(r.traces)) for r in traced]
    metrics = {name: (statistics.median(m[name] for m in per_rep), unit)
               for name, unit in LAYER_UNITS.items()}
    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    bits = statistics.median(r.bits for r in plain)
    frames = statistics.median(r.frames_attempted for r in traced)
    skipped = statistics.median(r.frames_skipped for r in traced)
    metrics.update({
        "sim.skipped_frame_ratio": (skipped / frames if frames else 0.0, "ratio"),
        "cli.bytes_written": (statistics.median(r.bytes_written for r in traced), "B"),
        "cli.identical_outputs": (statistics.median(r.identical_csvs for r in traced), "count"),
        "trace.overhead": (traced_wall / plain_wall - 1.0, "ratio"),
        "mc_bits_per_s": (bits / plain_wall, "bit/s"),
    })
    coverage = statistics.median(m["trace.self_s"] / r.wall_s for m, r in zip(per_rep, traced))
    samples = {
        "plain_wall_s": [r.wall_s for r in plain],
        "traced_wall_s": [r.wall_s for r in traced],
    }
    printed = {"trace.self_share_of_run": (coverage, "ratio")}
    return RunRecord(plain + traced, [], samples, metrics, printed)


LAYER_UNITS = {
    "sim.frames": "count",
    "sim.self_us_per_frame": "us",
    "sim.draws_per_frame": "count",
    **{f"{name}.us_per_frame": "us" for name in layertrace.FRAME_STAGES},
    **{f"{name}.self_us_per_frame": "us" for name in layertrace.FRAME_LAYERS},
    **{f"{name}.calls_per_frame": "count" for name in layertrace.FRAME_LAYERS},
    **{f"{name}.self_ms": "ms" for name in layertrace.LAYERS},
    "waveform.build_precoder.calls": "count",
}


def pin_to_one_cpu() -> int:
    """Keep the speed probe and the children on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "wavelab" / "cli.py").is_file():
        print(f"bench: no wavelab sources under {SRC}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    record = (trace if args.trace else measure)(args.workload, args.seed, args.seconds, work_dir)

    attempted = sum(r.attempted for r in record.reps) + len(record.dry)
    problems = [p for r in record.reps for p in r.problems]
    problems += [f"dry run: exit {d.code}: {d.stderr.strip()[-300:]}"
                 for d in record.dry if not d.ok]
    failed = sum(r.failed for r in record.reps) + sum(1 for d in record.dry if not d.ok)

    machine = machine_record(args.workload, args.seed, cpu)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(record.reps)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, samples in record.samples.items():
        stats = summary(samples)
        tail = "".join(f", {k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"  {name:<14} median {stats['median']:.6g}{tail}  (n={stats['n']})")
    for name, (value, unit) in {**record.metrics, **record.printed}.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    print(f"  {'failed_ops':<46} {failed}/{attempted}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record.metrics.items()},
    }
    (work_dir / "result.json").write_text(json.dumps(
        {**result, "machine": machine, "samples": record.samples, "problems": problems},
        indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
