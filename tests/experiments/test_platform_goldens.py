"""Byte-identity pins for the single-host platform's CLI outputs.

Captured before the keep-alive policy stack and the sandbox trace log
were folded away, so the warm pool (keep-alive windows, evictions,
hybrid histogram decisions) and the platform wiring must reproduce
these outputs exactly.
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
    ],
)
def test_cli_output_matches_golden(capsys, argv, golden):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
