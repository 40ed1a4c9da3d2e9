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


@pytest.mark.parametrize("name", ["readout_amplitude_n3.csv", "readout_amplitude_n4.csv"])
def test_protocol_readout_matches_the_readout_golden(name, capsys):
    # the protocol command prepares each point once and hands that state to the
    # readout; its b_z and amplitude columns and its minima are the readout scan's
    argv = GOLDEN_CONFIGS[name]
    protocol = ["protocol"] + [a for a in argv[1:] if a not in
                               ("--value-kind", "readout_amplitude", "--initial-state", "approx_ground")]
    assert main(protocol) == 0
    out = capsys.readouterr().out.splitlines()
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8").splitlines()
    rows = out[out.index("b_z,amplitude,l_value,fidelity_prepared_vs_exact") + 1:]
    golden_rows = golden[golden.index("b_z,value") + 1:]
    assert [",".join(r.split(",")[:2]) for r in rows if not r.startswith("#")] == [
        r for r in golden_rows if not r.startswith("#")]
    assert [r for r in rows if r.startswith("# minim")] == [
        r for r in golden_rows if r.startswith("# minim")]
