"""Every shipped config parses: ``--dry-run`` of its subcommand exits 0."""

from pathlib import Path

import pytest

from wavelab.cli import main

ROOT = Path(__file__).resolve().parent.parent

# each shipped config, by the subcommand that runs it
SUBCOMMANDS = {
    "configs/fdma_demo.yaml": "fdma-demo",
    "configs/fig3_ber.yaml": "ber",
    "configs/fig4a_sweep_l.yaml": "sweep-l",
    "configs/fig4b_sweep_q.yaml": "sweep-q",
    "configs/fig5_dispersive.yaml": "ber",
    "configs/table1_noise.yaml": "analyze-noise",
    "configs/wideband_noise.yaml": "analyze-noise",
    "bench/workloads/analyze_noise.yaml": "analyze-noise",
    "bench/workloads/ber_dispersive.yaml": "ber",
    "bench/workloads/ber_quasi_static.yaml": "ber",
    "bench/workloads/fdma_ber.yaml": "ber",
    "bench/workloads/sparsity.yaml": "sparsity",
    "bench/workloads/sweep_l.yaml": "sweep-l",
    "bench/workloads/sweep_q.yaml": "sweep-q",
}


def test_every_shipped_config_is_listed():
    shipped = {path.relative_to(ROOT).as_posix()
               for pattern in ("configs/*.yaml", "bench/workloads/*.yaml")
               for path in ROOT.glob(pattern)}
    assert shipped == set(SUBCOMMANDS)


@pytest.mark.parametrize("path", sorted(SUBCOMMANDS))
def test_dry_run_exits_0(tmp_path, capsys, path):
    out = tmp_path / "out"
    argv = [SUBCOMMANDS[path], "--config", str(ROOT / path), "--out", str(out), "--dry-run"]
    assert main(argv) == 0, capsys.readouterr().err
    assert not out.exists()
