"""Byte-identity pins for the single-host platform's CLI outputs.

Captured before the keep-alive policy stack and the sandbox trace log
were folded away, so the warm pool (keep-alive windows, evictions,
hybrid histogram decisions) and the platform wiring must reproduce
these outputs exactly.

The ablations, overhead and figure3 rows were captured before the P2SM
refresh learned to share one reserved-queue walk across tied sandboxes;
they carry refresh-entry, precompute and merge-thread counters, so any
drift in what a refresh rebuilds shows up here.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parents[1] / "resilience" / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["experiment", "pool_study", "--fast", "--seed", "0"],
         "pool_fast_seed0.txt"),
        (["experiment", "pool_study", "--fast", "--seed", "0", "--json"],
         "pool_fast_seed0.json"),
        (["check", "figure3", "--fast"], "check_figure3_fast.txt"),
        (["demo"], "demo.txt"),
        (["experiment", "ablations", "--fast", "--json"], "ablations_fast.json"),
        (["experiment", "overhead", "--fast", "--json"], "overhead_fast.json"),
        (["experiment", "figure3", "--fast", "--json"], "figure3_fast.json"),
    ],
)
def test_cli_output_matches_golden(capsys, argv, golden):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
