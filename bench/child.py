"""Entry point of every wavelab process the benchmark starts.

    python bench/child.py PEAK_FILE SPANS_FILE <wavelab CLI arguments...>

Calls ``wavelab.cli.main`` with the CLI arguments, as the installed
``wavelab`` command does, and exits with its code. With ``SPANS_FILE``
other than ``-``, the layer calls are traced first (see ``layertrace.py``)
and the spans are written there.

At exit the process writes its own peak resident set (``VmHWM``, in kB)
to ``PEAK_FILE``. The ``ru_maxrss`` that ``wait4`` returns cannot be
used: at ``exec`` Linux folds the peak of the address space being left,
which for a forked or vforked child is the benchmark's own, into the
child's ``ru_maxrss``.
"""

import atexit
import sys


def record_peak_rss(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next((line.split()[1] for line in fh if line.startswith("VmHWM:")), "")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(peak)


def main(argv) -> int:
    peak_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    atexit.register(record_peak_rss, peak_path)
    if spans_path == "-":
        from wavelab.cli import main as cli_main

        return cli_main(cli_args)

    import layertrace

    tracer = layertrace.Tracer()
    traced_main = tracer.instrument()
    try:
        return traced_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
