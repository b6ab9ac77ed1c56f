"""Record the reference outputs that the benchmark checks against.

    python3 bench/record_reference.py

Runs every invocation of every workload once, untraced, at the reference
seed and copies its result tables (``*.csv`` and ``sparsity.json``) to
``bench/reference/<invocation>/``. ``verify-appendix`` needs no
reference: its check is ``failures == 0``. Record again only for a change
that is meant to alter results, and say so where the change is reviewed.
"""

from __future__ import annotations

import shutil
import sys

import run

PATTERNS = ("*.csv", "sparsity.json")


def main() -> int:
    work_dir = run.OUT / "reference"
    shutil.rmtree(work_dir, ignore_errors=True)
    for workload, invocations in run.WORKLOADS.items():
        for inv in invocations:
            if inv.subcommand == "verify-appendix":
                continue
            out_dir = work_dir / inv.name
            child = run.run_child(inv.argv(run.REFERENCE_SEED, out_dir),
                                  work_dir / "logs" / inv.name)
            if not child.ok:
                print(f"{workload}/{inv.name}: exit {child.code}\n{child.stderr}", file=sys.stderr)
                return 1
            ref_dir = run.REFERENCE_DIR / inv.name
            shutil.rmtree(ref_dir, ignore_errors=True)
            ref_dir.mkdir(parents=True)
            for pattern in PATTERNS:
                for path in sorted(out_dir.glob(pattern)):
                    shutil.copyfile(path, ref_dir / path.name)
            print(f"{workload}/{inv.name}: {sorted(p.name for p in ref_dir.iterdir())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
