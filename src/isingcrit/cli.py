"""Command-line interface: parameter sweeps emitted as CSV or JSON.

Commands: spectrum, echo-scan, lz, protocol, phase-diagram. Output is fully
deterministic (floats printed at 12 significant digits, config embedded in
every file), so identical configs produce byte-identical files. Exit codes:
0 success, 1 configuration error, 2 I/O error.

The sweeps over B_x != 0 fields solve through the executor of the field
planner of `dynamics`, which solves each |b_z| once, stacked up to N = 6 and
one field per call beyond: `spectrum` gets its rows from one plan
(`dynamics.plan`), which hands each field's levels to the row it builds,
`echo-scan` its spectra (`criticality.echo_scan`), and
`protocol` its fidelity column's ground states from `dynamics.ground_states`,
which builds them as arrays, a block of rows at a time, at its first read,
after the first point's checks.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import dynamics
from .criticality import (
    EXACT_GROUND,
    INITIAL_STATE_SOURCES,
    VALUE_KINDS,
    echo_scan,
    find_minima,
    require_minima_grid,
)
from .hamiltonian import ChainParams, closed_form_energy, default_b_z_grid, phase_labels
from .network import protocol_point
from .perturbation import (
    LandauZenerParams,
    lz_echo_gaussian,
    lz_gap,
    lz_matrix_element_sq,
    two_level_formula,
)
from .states import fidelity

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _grid(config: argparse.Namespace) -> np.ndarray:
    return default_b_z_grid(config.bz_min, config.bz_max, config.bz_step)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _emit(config: argparse.Namespace, columns, rows, minima) -> str:
    if config.output_format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": vars(config),
            "columns": list(columns),
            "rows": [[_round12(v) for v in row] for row in rows],
            "minima": [[_round12(b), _round12(v)] for b, v in minima],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# schema_version = {SCHEMA_VERSION}"]
    for k, v in vars(config).items():
        lines.append(f"# {k} = {_fmt(v)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if minima:
        lines.append("# minima: b_z,value")
        for b, v in minima:
            lines.append(f"# minimum,{_fmt(b)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def _cmd_spectrum(config: argparse.Namespace):
    grid = _grid(config)
    with_closed = config.bx == 0.0 and config.n >= 3
    columns = ["b_z", "e0", "e1", "gap"] + (["closed_form_energy"] if with_closed else [])
    fields = [ChainParams(config.n, bz, config.bx) for bz in grid]

    def row(i, w):
        p = fields[i]
        return [p.b_z, w[0], w[1], w[1] - w[0]] + ([closed_form_energy(p)] if with_closed else [])
    return columns, dynamics.plan([(p,) for p in fields], dynamics.LEVELS, row), []


def _cmd_echo_scan(config: argparse.Namespace):
    scan = echo_scan(
        config.n,
        config.bx,
        config.epsilon,
        config.tau,
        _grid(config),
        value_kind=config.value_kind,
        initial_state_source=config.initial_state,
        readout_qubit=config.readout_qubit,
    )
    rows = [[b, v] for b, v in scan.grid]
    return ["b_z", "value"], rows, list(scan.minima)


def _cmd_lz(config: argparse.Namespace):
    grid = _grid(config)
    columns = ["lambda", "gap", "matrix_element_sq", "gaussian_echo", "two_level_echo"]
    rows = []
    for lam in grid:
        p = LandauZenerParams(config.delta_min, lam, config.znu, config.epsilon, config.tau)
        gap = lz_gap(p)
        me = lz_matrix_element_sq(p)
        two_level = two_level_formula(me, gap, config.epsilon, config.tau)
        rows.append([lam, gap, me, lz_echo_gaussian(p), two_level])
    return columns, rows, []


def _cmd_protocol(config: argparse.Namespace):
    grid = _grid(config)
    require_minima_grid(grid)  # before the first protocol run
    columns = ["b_z", "amplitude", "l_value", "fidelity_prepared_vs_exact"]
    # each |b_z| solved once, in stacked eighs, at the first read: after the first point's checks
    exact = dynamics.ground_states(config.n, config.bx, grid)
    rows = []
    for bz in grid:
        # U0 runs once: the readout and the fidelity share its state
        prepared, res = protocol_point(config.n, bz, config.bx, config.epsilon, config.tau, config.readout_qubit)
        rows.append([bz, res.amplitude, res.l_value, fidelity(prepared, next(exact))])
    minima = find_minima([r[0] for r in rows], [r[1] for r in rows])
    return columns, rows, minima


def _cmd_phase_diagram(config: argparse.Namespace):
    if config.bx != 0.0:
        raise ConfigError("phase-diagram uses the closed forms; --bx must be 0")
    labels = phase_labels(config.n)
    grid = _grid(config)
    columns = ["b_z"] + [f"e_phase_{lab.k}" for lab in labels] + ["e_min"]
    rows = []
    for bz in grid:
        energies = [lab.energy(bz) for lab in labels]
        rows.append([bz] + energies + [min(energies)])
    return columns, rows, []


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "echo-scan": _cmd_echo_scan,
    "lz": _cmd_lz,
    "protocol": _cmd_protocol,
    "phase-diagram": _cmd_phase_diagram,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern of a negative number, which it reads as a value, not a flag,
        # widened to exponent form: the config headers print -0.00001 as -1e-05
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # config errors exit 1, not argparse's default 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isingcrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} sweep")
        p.add_argument("--n", type=int, default=3, help="chain length")
        p.add_argument("--bz-min", type=float, default=-3.0,
                       help="sweep start (the lambda grid for lz)")
        p.add_argument("--bz-max", type=float, default=3.0)
        p.add_argument("--bz-step", type=float, default=0.02)
        p.add_argument("--bx", type=float, default=0.1, help="transverse field")
        p.add_argument("--epsilon", type=float, default=0.1, help="perturbation strength")
        p.add_argument("--tau", type=float, default=float(np.pi), help="evolution time")
        p.add_argument("--value-kind", default="exact_echo", choices=VALUE_KINDS)
        p.add_argument("--initial-state", default=EXACT_GROUND, choices=INITIAL_STATE_SOURCES)
        p.add_argument("--znu", type=float, default=1.0, help="gap-closing exponent (lz)")
        p.add_argument("--delta-min", type=float, default=0.1, help="minimum gap (lz)")
        p.add_argument("--readout-qubit", type=int, default=1)
        p.add_argument("--format", dest="output_format", default="csv", choices=("csv", "json"))
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed options, in the parser's order, as the run's config once every float is finite."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
    return args


def run(config: argparse.Namespace) -> str:
    columns, rows, minima = _COMMANDS[config.command](config)
    return _emit(config, columns, rows, minima)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config_from_args(args)
        text = run(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if config.out is None:
            sys.stdout.write(text)
        else:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
