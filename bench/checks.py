"""Output checks for the benchmark's sweeps.

Every sweep's ``--out`` file is parsed and tested against invariants the
command must satisfy whatever the field, then compared with a stored
digest of the seed commit's output (``reference.json``, one entry per
sweep and ``--bx`` value; regenerate with ``make_reference.py``). The
checks use no code of the package under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

VALUE_TOL = 1e-9
REF_TOL = 1e-8
# acceptance criteria 3 and 8 place detected minima within 0.15 of a crossover
MINIMA_TOL = 0.15
SAMPLE_ROWS = 32


def parse_csv(text: str):
    """(columns, rows, minima) of a CSV sweep written by the CLI."""
    columns, rows, minima = None, [], []
    for line in text.splitlines():
        if line.startswith("# minimum,"):
            minima.append([float(x) for x in line.split(",")[1:]])
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    if columns is None:
        raise ValueError("no header line")
    return columns, rows, minima


def crossover_points(n: int) -> list[float]:
    return [-2.0, 0.0, 2.0] if n % 2 else [-2.0, -1.0, 1.0, 2.0]


def closed_form_energy(n: int, bz: float) -> float:
    """Ground energy at B_x = 0: minimum over the phase patterns' energies."""
    if n % 2:
        candidates = (n * bz + (n - 1), bz - (n - 1), -bz - (n - 1), -n * bz + (n - 1))
    else:
        candidates = (n * bz + (n - 1), 2 * bz - (n - 3), -(n - 1.0),
                      -2 * bz - (n - 3), -n * bz + (n - 1))
    return min(candidates)


def _near(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol


def _minima_problems(n: int, minima) -> list[str]:
    if not minima:
        return ["no minimum detected"]
    crossings = crossover_points(n)
    return [f"minimum at b_z={b:.6g} is not within {MINIMA_TOL} of {crossings}"
            for b, _ in minima if min(abs(b - c) for c in crossings) > MINIMA_TOL]


def _echo(sweep, rows, minima):
    bad = [r[0] for r in rows if not -VALUE_TOL <= r[1] <= 1 + VALUE_TOL]
    return ([f"L outside [0, 1] at b_z={bad[0]}"] if bad else []) + _minima_problems(sweep.n, minima)


def _expansion(sweep, rows, minima):
    bad = [r[0] for r in rows if not (math.isfinite(r[1]) and r[1] <= 1 + VALUE_TOL)]
    return ([f"expansion value above 1 at b_z={bad[0]}"] if bad else []) + _minima_problems(
        sweep.n, minima)


def _readout(sweep, rows, minima):
    bad = [r[0] for r in rows if not abs(r[1]) <= 1 + VALUE_TOL]
    return ([f"|A| > 1 at b_z={bad[0]}"] if bad else []) + _minima_problems(sweep.n, minima)


def _protocol(sweep, rows, minima):
    problems = []
    for bz, amplitude, l_value, fid in rows:
        if amplitude > l_value + VALUE_TOL:
            problems.append(f"A > L at b_z={bz}")
        if not -VALUE_TOL <= l_value <= 1 + VALUE_TOL or not -VALUE_TOL <= fid <= 1 + VALUE_TOL:
            problems.append(f"L or fidelity outside [0, 1] at b_z={bz}")
    return problems[:3] + _minima_problems(sweep.n, minima)


def _spectrum_zero_field(sweep, rows, minima):
    problems = []
    for bz, e0, e1, gap, closed in rows:
        exact = closed_form_energy(sweep.n, bz)
        if not (_near(e0, exact) and _near(closed, exact)):
            problems.append(f"e0={e0} closed_form_energy={closed}, expected {exact} at b_z={bz}")
        if e1 < e0 - VALUE_TOL or not _near(gap, e1 - e0):
            problems.append(f"e1 < e0 or gap != e1 - e0 at b_z={bz}")
    return problems[:3]


def _phase_diagram(sweep, rows, minima):
    problems = []
    for row in rows:
        bz, phases, e_min = row[0], row[1:-1], row[-1]
        if not (_near(e_min, min(phases)) and _near(e_min, closed_form_energy(sweep.n, bz))):
            problems.append(f"e_min={e_min} is not the closed-form ground energy at b_z={bz}")
    return problems[:3]


CHECKS = {
    "echo": _echo,
    "expansion": _expansion,
    "readout": _readout,
    "protocol": _protocol,
    "spectrum_zero_field": _spectrum_zero_field,
    "phase_diagram": _phase_diagram,
}


def digest(columns, rows, minima) -> dict:
    """Compact fingerprint of a sweep: sampled rows, column sums and minima."""
    stride = max(1, len(rows) // SAMPLE_ROWS)
    return {
        "columns": columns,
        "rows": len(rows),
        "stride": stride,
        "sample": rows[::stride],
        "sums": [math.fsum(col) for col in zip(*rows)],
        "minima": minima,
    }


def _reference_problems(expected: dict, actual: dict) -> list[str]:
    if expected["columns"] != actual["columns"] or expected["rows"] != actual["rows"]:
        return [f"columns/rows {actual['columns']}/{actual['rows']} differ from the reference"]
    if len(expected["minima"]) != len(actual["minima"]):
        return [f"{len(actual['minima'])} minima, reference has {len(expected['minima'])}"]
    pairs = [(expected["sample"], actual["sample"], REF_TOL),
             (expected["minima"], actual["minima"], REF_TOL),
             ([expected["sums"]], [actual["sums"]], REF_TOL * actual["rows"])]
    for exp_rows, act_rows, tol in pairs:
        for exp_row, act_row in zip(exp_rows, act_rows):
            worst = max(abs(a - b) for a, b in zip(exp_row, act_row))
            if worst > tol:
                return [f"differs from the reference by {worst:.3g} (tolerance {tol:.1g})"]
    return []


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(sweep, text: str, reference: dict) -> list[str]:
    """Problems found in one sweep's output; empty when it is correct."""
    try:
        columns, rows, minima = parse_csv(text)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    if len(rows) != sweep.points:
        return [f"{len(rows)} rows, expected {sweep.points}"]
    problems = CHECKS[sweep.check](sweep, rows, minima)
    if sweep.key not in reference:
        return problems + [f"no reference for {sweep.key}"]
    return problems + _reference_problems(reference[sweep.key], digest(columns, rows, minima))
