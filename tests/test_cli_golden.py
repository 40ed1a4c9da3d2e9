"""Byte-for-byte comparison of CLI output against committed golden files.

The configs need no LAPACK eigensolve (closed forms, B_x = 0 diagonal
spectra and gate networks), so their output does not depend on the BLAS
build or its thread count. Regenerate a golden file with, e.g.,
``PYTHONPATH=src python -m isingcrit.cli lz --znu 1 > tests/golden/cli/lz_znu1.csv``
only when an output change is intended.
"""

from pathlib import Path

import pytest

from isingcrit.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"

GOLDEN_CONFIGS = {
    "lz_znu1.csv": ["lz", "--znu", "1"],
    "lz_znu2.csv": ["lz", "--znu", "2"],
    "phase_diagram_n7.csv": ["phase-diagram", "--n", "7", "--bx", "0"],
    "phase_diagram_n8.csv": ["phase-diagram", "--n", "8", "--bx", "0"],
    "spectrum_n8_bx0.csv": ["spectrum", "--n", "8", "--bx", "0", "--bz-step", "0.05"],
    "readout_amplitude_n3.csv": [
        "echo-scan", "--n", "3", "--value-kind", "readout_amplitude",
        "--initial-state", "approx_ground", "--epsilon", "0.2",
        "--tau", "3.141592653589793", "--readout-qubit", "2",
    ],
    "readout_amplitude_n4.csv": [
        "echo-scan", "--n", "4", "--value-kind", "readout_amplitude",
        "--initial-state", "approx_ground", "--epsilon", "0.5",
        "--tau", "1.5707963267948966",
    ],
}


def test_golden_dir_holds_exactly_the_configs():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN_CONFIGS)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_cli_output_matches_golden(name, capsys):
    assert main(GOLDEN_CONFIGS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
