"""Rewrite every golden CSV in tests/data from its config through ``cli.main``.

    PYTHONPATH=src python tests/regen_goldens.py

Goldens pin the CLI's output bytes.  Regenerate them only for a change that
moves those bytes on purpose, then review the diff under tests/data.  The
tables below are the ones ``test_cli`` compares against, so the script and
the tests cannot disagree on which config produces which golden.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile

from polarchan import cli

DATA = pathlib.Path(__file__).parent / "data"

#: (mode, config, golden): the CSV that ``polarchan <mode> --config <config>`` writes
GOLDEN_CASES = [
    ("sweep", "cfg_sweep.cfg", "golden_sweep.csv"),
    ("simulate", "cfg_simulate_lyot.cfg", "golden_simulate_lyot.csv"),
    ("simulate", "cfg_simulate_two_crystal.cfg", "golden_simulate_two_crystal.csv"),
    ("simulate", "cfg_simulate_rotated.cfg", "golden_simulate_rotated.csv"),
    ("tomo", "cfg_tomo.cfg", "golden_tomo.csv"),
    ("feasibility", "cfg_feasibility.cfg", "golden_feasibility.csv"),
    ("region", "cfg_region.cfg", "golden_region.csv"),
]

#: (config, golden): the count table a tomo run writes through ``counts_out``
COUNTS_CASE = ("cfg_tomo.cfg", "golden_counts_seed42.csv")


def counts_config(counts_path) -> str:
    """The counts golden's config text, writing its count table to ``counts_path``."""
    return (DATA / COUNTS_CASE[0]).read_text() + f"counts_out = {counts_path}\n"


def main() -> int:
    os.environ.pop(cli.ENV_SEED, None)
    for mode, cfg_name, golden_name in GOLDEN_CASES:
        if cli.main([mode, "--config", str(DATA / cfg_name), "--out", str(DATA / golden_name)]):
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "counts.cfg"
        cfg.write_text(counts_config(DATA / COUNTS_CASE[1]))
        if cli.main(["tomo", "--config", str(cfg), "--out", os.devnull]):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
