"""Output checks for the benchmark's wavelab CLI invocations.

Every check returns a list of problems; an empty list means the output
passed. At the reference seed, outputs are compared with the files under
``bench/reference/<invocation>/``, recorded by ``record_reference.py``:

- BER tables (``ber_*.csv``, ``sweep_*.csv``): the ``bits`` column must
  match exactly and each ``errors`` value must lie within a binomial
  3-sigma band of the reference count.
- Analysis tables and JSON: every number within 1e-9 relative of the
  reference (plus an absolute floor of 1e-12 times the largest reference
  magnitude in the same column, for values that are rounding noise).
- ``verify_appendix.json`` must report ``failures == 0``.

At any seed, each BER row must account for its bit budget: ``bits``
equals frames x bits-per-frame minus whole skipped frames, errors do not
exceed bits, ``ber == errors / bits`` and 0 <= BER <= 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
SIGMA_BAND = 3.0
BER_COLUMNS = ("bits", "errors", "ber", "stderr")


@dataclass(frozen=True)
class BerBudget:
    """Bit budget of one BER invocation: every row of every table is one
    SNR point (or swept parameter value) of ``frames`` frames."""

    bits_per_frame: int
    frames: int

    @classmethod
    def from_config(cls, config: dict) -> "BerBudget":
        bits_per_frame = int(config["n"]) * int(math.log2(int(config["qam_order"])))
        return cls(bits_per_frame, math.ceil(int(config["bits_per_point"]) / bits_per_frame))


@dataclass
class CheckResult:
    problems: list
    identical_csvs: int = 0
    frames_attempted: int = 0
    frames_skipped: int = 0


def _read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(value: float, ref: float, floor: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + floor


def check_ber_table(name: str, text: str, ref_text: str, budget: BerBudget,
                    ref_seed: bool) -> CheckResult:
    """Check one BER table; ``ref_text`` supplies its key columns and, at
    the reference seed, the reference counts."""
    result = CheckResult([])
    header, rows = _read_csv(text)
    ref_header, ref_rows = _read_csv(ref_text)
    if header != ref_header:
        result.problems.append(f"{name}: header {header} != {ref_header}")
        return result
    if len(rows) != len(ref_rows):
        result.problems.append(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
        return result
    col = {c: header.index(c) for c in BER_COLUMNS}
    keys = [i for i, c in enumerate(header) if c not in BER_COLUMNS]
    full = budget.frames * budget.bits_per_frame
    for row, ref in zip(rows, ref_rows):
        where = f"{name} row {','.join(row[i] for i in keys)}"
        if [row[i] for i in keys] != [ref[i] for i in keys]:
            result.problems.append(f"{where}: key columns differ from the reference")
            continue
        bits, errors = int(row[col["bits"]]), int(row[col["errors"]])
        ber = float(row[col["ber"]])
        short = full - bits
        if bits <= 0 or short < 0 or short % budget.bits_per_frame:
            result.problems.append(f"{where}: bits {bits} is not whole frames of {full}")
            continue
        result.frames_attempted += budget.frames
        result.frames_skipped += short // budget.bits_per_frame
        if not 0 <= errors <= bits:
            result.problems.append(f"{where}: errors {errors} outside [0, {bits}]")
        if not (0.0 <= ber <= 1.0 and math.isclose(ber, errors / bits, rel_tol=1e-12)):
            result.problems.append(f"{where}: ber {ber} != errors/bits")
        if not ref_seed:
            continue
        ref_bits, ref_errors = int(ref[col["bits"]]), int(ref[col["errors"]])
        if bits != ref_bits:
            result.problems.append(f"{where}: bits {bits} != reference {ref_bits}")
            continue
        # binomial sd at the reference rate; one error floors it when the
        # reference counted none
        p = max(ref_errors, 1) / ref_bits
        band = SIGMA_BAND * math.sqrt(ref_bits * p * (1.0 - p))
        if abs(errors - ref_errors) > band:
            result.problems.append(
                f"{where}: errors {errors} outside {ref_errors} +/- {band:.1f}"
            )
    return result


def check_value_table(name: str, text: str, ref_text: str) -> list:
    """Compare an analysis CSV cell by cell: numbers within tolerance,
    everything else exactly."""
    header, rows = _read_csv(text)
    ref_header, ref_rows = _read_csv(ref_text)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: shape or header differs from the reference"]
    floors = []
    for j in range(len(header)):
        column = [_number(r[j]) for r in ref_rows]
        finite = [abs(v) for v in column if v is not None and math.isfinite(v)]
        floors.append(ABS_FLOOR * max(finite, default=0.0))
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, (cell, ref_cell) in enumerate(zip(row, ref)):
            value, ref_value = _number(cell), _number(ref_cell)
            ok = (cell == ref_cell if ref_value is None or value is None
                  else _close(value, ref_value, floors[j]))
            if not ok:
                problems.append(f"{name} row {i} column {header[j]}: {cell} != {ref_cell}")
    return problems[:10]


def check_json_values(name: str, doc, ref, path: str = "") -> list:
    """Compare JSON documents: numbers within REL_TOL, all else exactly."""
    where = f"{name}{path}"
    if isinstance(ref, dict):
        if not isinstance(doc, dict) or set(doc) != set(ref):
            return [f"{where}: keys differ from the reference"]
        return [p for k in sorted(ref) for p in check_json_values(name, doc[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(doc, list) or len(doc) != len(ref):
            return [f"{where}: list length differs from the reference"]
        return [p for i, (d, r) in enumerate(zip(doc, ref))
                for p in check_json_values(name, d, r, f"{path}[{i}]")][:10]
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        ok = isinstance(doc, (int, float)) and not isinstance(doc, bool) and _close(doc, ref, 0.0)
        return [] if ok else [f"{where}: {doc} != {ref}"]
    return [] if doc == ref else [f"{where}: {doc!r} != {ref!r}"]


def check_appendix(doc: dict) -> list:
    problems = [] if doc.get("failures") == 0 else [
        f"verify_appendix.json: failures = {doc.get('failures')}"
    ]
    checks = [*doc.get("decimation_identity", []), *doc.get("dirichlet_closed_form", []),
              *doc.get("rational_chirp_density", []), doc.get("sparse_special_case", {})]
    if not checks or not all(c.get("ok") is True for c in checks):
        problems.append("verify_appendix.json: an identity check is not ok")
    return problems


def check_outputs(out_dir: Path, ref_dir: Path, budget: BerBudget | None,
                  ref_seed: bool) -> CheckResult:
    """Check every output an invocation must write against its reference.

    ``budget`` is set for BER invocations. ``identical_csvs`` counts CSV
    files whose bytes equal the reference's (compared at any seed; BER
    tables only match at the reference seed).
    """
    appendix = out_dir / "verify_appendix.json"
    if appendix.is_file():
        return CheckResult(check_appendix(json.loads(appendix.read_text())))
    if not ref_dir.is_dir():
        return CheckResult([f"no reference outputs in {ref_dir.name}"])
    result = CheckResult([])
    for ref_path in sorted(ref_dir.iterdir()):
        out_path = out_dir / ref_path.name
        if not out_path.is_file():
            result.problems.append(f"{ref_path.name} missing")
            continue
        text, ref_text = out_path.read_text(), ref_path.read_text()
        if ref_path.suffix == ".json":
            result.problems += check_json_values(ref_path.name, json.loads(text),
                                                 json.loads(ref_text))
            continue
        result.identical_csvs += text == ref_text
        if budget is None:
            result.problems += check_value_table(ref_path.name, text, ref_text)
            continue
        table = check_ber_table(ref_path.name, text, ref_text, budget, ref_seed)
        result.problems += table.problems
        result.frames_attempted += table.frames_attempted
        result.frames_skipped += table.frames_skipped
    return result
