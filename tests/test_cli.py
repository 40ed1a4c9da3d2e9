import argparse
import json

import numpy as np
import pytest

from isingcrit import cli, dynamics, gates, network
from isingcrit.cli import main
from isingcrit.hamiltonian import ChainParams, closed_form_energy, default_b_z_grid
from isingcrit.states import fidelity


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    return code, path


def test_spectrum_csv_matches_closed_form(tmp_path):
    code, path = run_cli(
        ["spectrum", "--n", "7", "--bx", "0", "--bz-min", "-3", "--bz-max", "3",
         "--bz-step", "0.25", "--format", "csv"],
        tmp_path,
    )
    assert code == 0
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("command = spectrum" in ln for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "b_z,e0,e1,gap,closed_form_energy"
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    for row in rows:
        bz, e0 = float(row[0]), float(row[1])
        assert e0 == pytest.approx(closed_form_energy(ChainParams(7, bz, 0.0)), abs=1e-10)
        assert float(row[4]) == pytest.approx(e0, abs=1e-10)


def test_spectrum_even_chain_kinks_at_crossovers(tmp_path):
    # the ground-energy column is piecewise linear with slope changes at the
    # four crossover fields (the kinks of the zero-transverse-field diagram)
    code, path = run_cli(
        ["spectrum", "--n", "8", "--bx", "0", "--bz-min", "-3", "--bz-max", "3",
         "--bz-step", "0.25"],
        tmp_path,
    )
    assert code == 0
    rows = [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]
    e0 = {float(r[0]): float(r[1]) for r in rows}
    slope = lambda a, b: (e0[b] - e0[a]) / (b - a)
    assert slope(-3.0, -2.25) == pytest.approx(8.0, abs=1e-10)
    assert slope(-1.75, -1.25) == pytest.approx(2.0, abs=1e-10)
    assert slope(-0.75, 0.75) == pytest.approx(0.0, abs=1e-10)
    assert slope(1.25, 1.75) == pytest.approx(-2.0, abs=1e-10)
    assert slope(2.25, 3.0) == pytest.approx(-8.0, abs=1e-10)


def test_spectrum_single_site_gap(tmp_path):
    code, path = run_cli(
        ["spectrum", "--n", "1", "--bx", "1", "--bz-min", "-0.5", "--bz-max", "0.5",
         "--bz-step", "0.5"],
        tmp_path,
    )
    assert code == 0
    rows = [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]
    mid = rows[1]
    assert float(mid[0]) == 0.0
    assert float(mid[3]) == pytest.approx(2.0, abs=1e-12)


def test_echo_scan_flat_at_zero_epsilon(tmp_path):
    code, path = run_cli(
        ["echo-scan", "--n", "3", "--epsilon", "0", "--bz-step", "0.5", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert set(doc) == {"schema_version", "config", "columns", "rows", "minima"}
    assert doc["minima"] == []
    assert all(row[1] == pytest.approx(1.0) for row in doc["rows"])


def test_echo_scan_embeds_config(tmp_path):
    code, path = run_cli(
        ["echo-scan", "--n", "4", "--epsilon", "0.1", "--tau", "1.0", "--bz-step", "0.5",
         "--format", "json"],
        tmp_path,
    )
    doc = json.loads(path.read_text())
    assert doc["config"]["command"] == "echo-scan"
    assert doc["config"]["n"] == 4
    assert doc["config"]["bz_step"] == 0.5


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "3"],
    ["echo-scan", "--n", "3", "--epsilon", "0.2"],
    ["lz", "--znu", "2"],
    ["protocol", "--n", "3"],
    ["phase-diagram", "--n", "5", "--bx", "0"],
])
def test_csv_header_and_json_config_list_the_parser_options_in_order(argv, capsys):
    # the parsed options are the config: both formats list every option of the
    # subcommand, in the parser's order, with the same values
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = ["command"] + [a.dest for a in sub.choices[argv[0]]._actions if a.dest != "help"]
    argv = argv + ["--bz-step", "0.5"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = [ln[2:].split(" = ", 1) for ln in lines[1:] if ln.startswith("# ") and " = " in ln]
    assert main(argv + ["--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert [k for k, _ in header] == list(config) == options
    assert config["command"] == argv[0] and config["output_format"] == "json"
    assert dict(header)["output_format"] == "csv"
    for k, v in header:
        if k != "output_format":
            assert v == cli._fmt(config[k]), k


def test_byte_identical_reruns(tmp_path):
    args = ["echo-scan", "--n", "3", "--epsilon", "0.2", "--bz-step", "0.25",
            "--format", "json"]
    _, path = run_cli(args, tmp_path, "a.json")
    first = path.read_bytes()
    _, path = run_cli(args, tmp_path, "a.json")
    assert path.read_bytes() == first


def test_lz_columns_and_symmetry(tmp_path):
    code, path = run_cli(
        ["lz", "--delta-min", "0.1", "--epsilon", "0.1", "--tau", "0.5",
         "--bz-min", "-2", "--bz-max", "2", "--bz-step", "0.1", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["columns"] == ["lambda", "gap", "matrix_element_sq", "gaussian_echo",
                              "two_level_echo"]
    rows = np.array(doc["rows"])
    # every column is an even function of lambda
    assert np.allclose(rows[:, 1:], rows[::-1, 1:], atol=1e-12)
    mid = rows[len(rows) // 2]
    assert mid[0] == 0.0
    assert mid[3] == pytest.approx(np.exp(-(0.1**2) * 0.5**2), abs=1e-9)


def test_lz_generalized_exponent(tmp_path):
    code, path = run_cli(
        ["lz", "--delta-min", "0.1", "--znu", "2", "--bz-min", "-1", "--bz-max", "1",
         "--bz-step", "0.5", "--format", "json"],
        tmp_path,
    )
    doc = json.loads(path.read_text())
    for lam, gap, me, _, _ in doc["rows"]:
        assert me == pytest.approx(0.01 / (0.01 + abs(lam) ** 4), abs=1e-9)
        assert gap == pytest.approx(2 * np.sqrt(abs(lam) ** 4 + 0.01), abs=1e-9)


def test_protocol_minima_near_crossovers(tmp_path):
    code, path = run_cli(
        ["protocol", "--n", "4", "--epsilon", "0.5", "--tau", str(np.pi / 2),
         "--bz-step", "0.05", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["columns"] == ["b_z", "amplitude", "l_value", "fidelity_prepared_vs_exact"]
    minima = sorted(m[0] for m in doc["minima"])
    assert len(minima) == 4
    for found, expected in zip(minima, (-2.0, -1.0, 1.0, 2.0)):
        assert abs(found - expected) <= 0.15
    for _, amplitude, l_value, _ in doc["rows"]:
        assert amplitude <= l_value + 1e-12


def test_protocol_rejects_unsupported_size(tmp_path, capsys):
    code, path = run_cli(["protocol", "--n", "5"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == "error: preparation networks exist for N = 3 and N = 4 only\n"
    assert not path.exists()


@pytest.mark.parametrize("n", ["0", "5", "20"])
def test_protocol_solves_nothing_before_its_first_point_passes_its_checks(n, monkeypatch, capsys):
    # the fidelity column's ground states are solved at its first read, after the first
    # point's network checks: an unsupported size reports the network error, with no solve
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    assert main(["protocol", "--n", n]) == 1
    assert capsys.readouterr().err == "error: preparation networks exist for N = 3 and N = 4 only\n"
    assert eighs == []


def test_protocol_rejects_a_non_positive_transverse_field(tmp_path, capsys):
    # every preparation interval reads mixing_angle, the odd middle one included
    args = ["protocol", "--n", "3", "--bz-min", "-0.5", "--bz-max", "0.5", "--bz-step", "0.25"]
    for bx in ("-0.2", "0"):
        code, path = run_cli(args + ["--bx", bx], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == "error: mixing angle requires b_x > 0\n"
        assert not path.exists()


def test_phase_diagram_energy_table(tmp_path):
    code, path = run_cli(
        ["phase-diagram", "--n", "8", "--bx", "0", "--bz-step", "0.5", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["columns"][0] == "b_z"
    assert doc["columns"][-1] == "e_min"
    for row in doc["rows"]:
        bz, e_min = row[0], row[-1]
        assert e_min == pytest.approx(closed_form_energy(ChainParams(8, bz, 0.0)), abs=1e-9)


def test_phase_diagram_has_no_register_cap(tmp_path):
    # closed-form energies only, no 2^N vector: N = 16 runs past the state cap
    code, path = run_cli(["phase-diagram", "--n", "16", "--bx", "0", "--bz-step", "0.5"], tmp_path)
    assert code == 0
    assert "b_z,e_phase_1,e_phase_2,e_phase_3,e_phase_4,e_phase_5,e_min" in path.read_text()


@pytest.mark.parametrize("bz, prep_gates", [(-3.0, 3), (-1.0, 7)])
def test_protocol_runs_its_preparation_once_per_point(bz, prep_gates, monkeypatch, tmp_path):
    # U0 once (its state also feeds the fidelity column), the echo step, U0^dagger:
    # an N = 4 outer-interval point applies 3 + 1 + 3 gates, a middle-interval one 7 + 1 + 7;
    # the kernel reads the echo step, which acts on the whole register, with no slot table
    applied = []
    apply = gates._apply
    monkeypatch.setattr(
        gates, "_apply",
        lambda *args: applied.append("GlobalZEvolution" if args[1] is None else "placed") or apply(*args),
    )
    argv = ["protocol", "--n", "4", "--bz-min", str(bz), "--bz-max", str(bz + 0.1), "--bz-step", "0.05"]
    code, _ = run_cli(argv, tmp_path)
    assert code == 0
    assert len(applied) == 3 * (2 * prep_gates + 1)
    assert applied.count("GlobalZEvolution") == 3


def test_protocol_validates_as_many_gates_on_any_grid(monkeypatch, tmp_path):
    # each preparation interval's gates are validated once, not once per point, so a grid
    # ten times finer validates no more Gate objects
    validated = []
    post_init = gates.Gate.__post_init__
    monkeypatch.setattr(gates.Gate, "__post_init__", lambda g: validated.append(g.kind) or post_init(g))
    counts = []
    for step in ("0.05", "0.005"):
        network._compiled.cache_clear()
        validated.clear()
        code, _ = run_cli(["protocol", "--n", "4", "--bz-step", step], tmp_path)
        assert code == 0
        counts.append(len(validated))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("stack_bytes", [None, 8 * 10 * 10 * 50])
def test_protocol_solves_each_field_magnitude_once_in_stacked_eighs(stack_bytes, monkeypatch, capsys):
    # the fidelity column's 1201 fields are 601 distinct |b_z|, each one even-sector solve
    # (10 wide at N = 4), stacked up to the byte budget into each eigh (81 blocks: 8 eighs);
    # a budget of 50 blocks per stack prints the same bytes
    argv = ["protocol", "--n", "4", "--bz-step", "0.005"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    if stack_bytes is not None:
        monkeypatch.setattr(dynamics, "_STACK_BYTES", stack_bytes)
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    assert main(argv) == 0
    assert capsys.readouterr().out == default
    chunk = dynamics._STACK_BYTES // (8 * 10 * 10)
    assert all(shape[1:] == (10, 10) for shape in eighs)
    assert sum(shape[0] for shape in eighs) == 601
    assert len(eighs) == -(-601 // chunk) == (8 if stack_bytes is None else 13)


@pytest.mark.parametrize("n, eps, tau", [(3, "0.2", repr(np.pi)), (4, "0.5", repr(np.pi / 2))])
@pytest.mark.parametrize("bx", ["0.05", "0.1", "0.15"])
def test_protocol_fidelity_column_is_the_per_point_fidelity(n, eps, tau, bx, capsys):
    # each printed fidelity is that of the point's prepared state with its own exact
    # ground state, solved alone, as printed strings: no golden file that depends on
    # the LAPACK build
    argv = ["protocol", "--n", str(n), "--bx", bx, "--epsilon", eps, "--tau", tau, "--bz-step", "0.005"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split(",") for ln in lines[lines.index("b_z,amplitude,l_value,fidelity_prepared_vs_exact") + 1:]
            if not ln.startswith("#")]
    grid = default_b_z_grid(-3.0, 3.0, 0.005)
    assert len(rows) == grid.size == 1201
    for row, bz in zip(rows, grid):
        prepared, _ = network.protocol_point(n, bz, float(bx), float(eps), float(tau), 1)
        expected = fidelity(prepared, dynamics.ground_state(ChainParams(n, bz, float(bx))))
        assert row[0] == cli._fmt(bz) and row[3] == cli._fmt(expected), row


def test_phase_diagram_requires_zero_transverse_field(tmp_path):
    code, _ = run_cli(["phase-diagram", "--n", "4", "--bx", "0.1"], tmp_path)
    assert code == 1


def test_bad_grid_is_config_error(tmp_path, capsys):
    # the library's own checks, printed by `main` as configuration errors
    for args, message in [
        (["spectrum", "--n", "3", "--bz-min", "2", "--bz-max", "-2"],
         "grid requires step > 0 and hi > lo, got lo=2.0, hi=-2.0, step=0.02"),
        (["spectrum", "--n", "3", "--bz-step", "-0.1"],
         "grid requires step > 0 and hi > lo, got lo=-3.0, hi=3.0, step=-0.1"),
        (["lz", "--delta-min", "-1"], "delta_min must be positive"),
    ]:
        code, path = run_cli(args, tmp_path)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["spectrum", "--bz-max", "inf"], "--bz-max"),
        (["echo-scan", "--n", "3", "--tau", "inf"], "--tau"),
        (["echo-scan", "--n", "3", "--epsilon", "nan"], "--epsilon"),
        (["spectrum", "--bz-min=-inf"], "--bz-min"),
        (["spectrum", "--bz-step", "nan"], "--bz-step"),
        (["spectrum", "--bx", "1e400"], "--bx"),
        (["lz", "--znu", "nan"], "--znu"),
        (["lz", "--delta-min", "inf"], "--delta-min"),
    ],
)
def test_non_finite_numbers_are_config_errors(args, flag, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err
    assert "Traceback" not in err


def test_unknown_flag_is_config_error():
    assert main(["spectrum", "--frequency", "12"]) == 1


def test_unwritable_output_is_io_error(tmp_path):
    code = main(["spectrum", "--n", "3", "--bz-step", "1.0",
                 "--out", str(tmp_path / "missing" / "out.csv")])
    assert code == 2


def test_stdout_when_no_out(capsys):
    assert main(["spectrum", "--n", "2", "--bz-step", "1.0"]) == 0
    captured = capsys.readouterr()
    assert "b_z,e0,e1,gap" in captured.out


def test_protocol_rejects_a_short_grid_before_any_run(monkeypatch, capsys):
    runs = []
    run = cli.protocol_point
    monkeypatch.setattr(cli, "protocol_point", lambda *args: runs.append(args) or run(*args))
    argv = ["protocol", "--n", "3", "--bz-min", "0", "--bz-max", "0.006", "--bz-step", "0.005"]
    assert main(argv) == 1
    assert "at least 3 grid points" in capsys.readouterr().err
    assert runs == []


@pytest.mark.parametrize("n", [5, 8])
def test_spectrum_rows_are_bit_identical_on_any_number_of_solve_threads(n, monkeypatch):
    args = cli.build_parser().parse_args(["spectrum", "--n", str(n), "--bx", "0.1", "--bz-step", "0.05"])
    config = cli._config_from_args(args)
    rows = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(dynamics, "_solve_threads", lambda b_x: threads)
        rows.append(np.array(cli._cmd_spectrum(config)[1]))
    assert rows[0].shape == (121, 4)
    assert np.array_equal(rows[1], rows[0]) and np.array_equal(rows[2], rows[0])


@pytest.mark.parametrize("bx, solves, eighs", [("0.1", 61, 122), ("0", 121, 0)])
def test_spectrum_solves_each_field_magnitude_once(bx, solves, eighs, tmp_path, monkeypatch):
    # at B_x != 0 a field at b_z < 0 reads the levels of |b_z|, which the spin flip leaves
    # as they are: 121 grid fields are 61 solves, two sector eighs each, and the rows at
    # +-b_z print the same levels; at B_x = 0 each field is a sort of its own diagonal
    solved, eigh_calls = [], []
    levels_for, eigh = dynamics.levels_for, np.linalg.eigh
    monkeypatch.setattr(dynamics, "levels_for", lambda p: solved.append(p) or levels_for(p))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(a.shape) or eigh(a))
    code, path = run_cli(["spectrum", "--n", "8", "--bx", bx, "--bz-step", "0.05"], tmp_path)
    assert code == 0
    assert (len(solved), len(set(solved)), len(eigh_calls)) == (solves, solves, eighs)
    rows = [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]
    assert [r[0] for r in rows] == [cli._fmt(float(b)) for b in np.round(np.arange(-60, 61) * 0.05, 12)]
    for row, mirrored in zip(rows, rows[::-1]):
        assert row[1:4] == mirrored[1:4], row[0]
