"""Byte-exact CLI output for every subcommand, in every output format.

Each case runs `polylab.cli.main(argv)` and compares stdout with a file
under `tests/golden/`.  The files were written from the CLI's output and
are never regenerated by the suite: a refactor of the CLI must leave them
byte-identical.
"""

from pathlib import Path

import pytest

from polylab import cli

GOLDEN = Path(__file__).with_name("golden")

_FORMATTED = {
    "count": ["count", "--n", "10", "--l", "14", "--d", "4"],
    "identity": ["identity", "--n", "3", "--d", "3", "--x", "0.8813735870195430", "--lmax", "60"],
    "geometry": ["geometry", "--K", "8"],
    "geometry_m2": ["geometry", "--K", "8", "--m", "2"],
    "analyze": ["analyze", "--grid-step", "1e-3"],
    "analyze_lopt": ["analyze", "--grid-step", "1e-3", "--lopt", "1.24"],
    "overlap": ["overlap", "--l", "4", "--k", "2", "--x", "0.5"],
    "overlap_mc": ["overlap", "--l", "3", "--k", "1", "--x", "1.0", "--mc-trials", "10000", "--seed", "5"],
    "simulate": ["simulate", "--n", "6", "--trials", "4", "--seed", "1"],
}
CASES = {
    **{f"{name}.{fmt}": argv + ["--format", fmt] for name, argv in _FORMATTED.items() for fmt in ("json", "csv")},
    "verify_fast.txt": ["verify", "--fast"],
    "verify.txt": ["verify"],
    **{f"help_{sub}.txt": [sub, "--help"] for sub in ("count", "identity", "geometry", "analyze",
                                                      "overlap", "simulate", "verify")},
    "help.txt": ["--help"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text at the terminal width
    try:
        code = cli.main(CASES[name])
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
