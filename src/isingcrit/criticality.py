"""Critical-point detection: approximate ground-state preparation, fixed-time
echo scans over the longitudinal field, and minima extraction.

`ground_state_approx` prepares the ansatz cos(phi)|m> - sin(phi)|n> of
`hamiltonian.mixing_angle` on the interval holding b_z, the state the N = 3
networks of `network` prepare bit for bit.

An echo scan reads each field's reflection-even spectrum through
`dynamics.plan` (EVEN): the exact ground state and the ansatz (its kets
palindromes or mirror pairs) both lie in that sector. The planner solves each
|b_z| once, by its executor rule (stacked up to N = 6, else one field per call,
possibly ahead on other threads), gives a field at b_z < 0 the spin-flip mirror
of that solve, and visits the points grouped by the pair of |fields| they read,
chain by chain, so at most two solves are held at once. The scan hands it the
echo of a point's spectra as a function of the point's index and gets back the
values in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, network
from .hamiltonian import ChainParams, chain_parity, interval_index, mixing_angle, phase_state
from .perturbation import echo_perturbative, echo_two_level
from .states import PureState

EXACT_ECHO = "exact_echo"
PERTURBATIVE_ECHO = "perturbative_echo"
TWO_LEVEL_ECHO = "two_level_echo"
READOUT_AMPLITUDE = "readout_amplitude"
VALUE_KINDS = (EXACT_ECHO, PERTURBATIVE_ECHO, TWO_LEVEL_ECHO, READOUT_AMPLITUDE)

EXACT_GROUND = "exact_ground"
APPROX_GROUND = "approx_ground"
INITIAL_STATE_SOURCES = (EXACT_GROUND, APPROX_GROUND)

DEFAULT_PROMINENCE = 1e-3


@dataclass(frozen=True)
class EchoScan:
    """Grid of (b_z, value) samples at fixed time plus detected minima."""

    n_qubits: int
    b_x: float
    tau: float
    epsilon: float
    value_kind: str
    initial_state_source: str
    grid: tuple[tuple[float, float], ...]
    minima: tuple[tuple[float, float], ...]

    def __post_init__(self):
        _require_increasing([p[0] for p in self.grid])

    @property
    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.grid])


def _require_increasing(b_z) -> None:
    if any(b2 <= b1 for b1, b2 in zip(b_z, b_z[1:])):
        raise ValueError("scan grid must be strictly increasing in b_z")


def require_minima_grid(b_z) -> None:
    if len(b_z) < 3:
        raise ValueError("minima detection requires at least 3 grid points")


def ground_state_approx(n_qubits: int, b_z: float, b_x: float) -> PureState:
    """cos(phi)|m> - sin(phi)|n> on the interval holding b_z; N >= 3 (`phase_state`
    raises UnsupportedChainError otherwise) and b_x > 0 (`mixing_angle`)."""
    parity = chain_parity(n_qubits)
    angle = mixing_angle(parity, interval_index(parity, b_z), b_z, b_x)
    a = phase_state(n_qubits, angle.m).amplitudes
    b = phase_state(n_qubits, angle.n).amplitudes
    return PureState(math.cos(angle.phi) * a - math.sin(angle.phi) * b, n_qubits)


def _parabolic_vertex(x0, y0, x1, y1, x2, y2):
    num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    xv = x1 - 0.5 * num / den
    yv = (
        y0 * (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
        + y1 * (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
        + y2 * (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1))
    )
    return xv, yv


def find_minima(
    b_z_values, values, prominence: float = DEFAULT_PROMINENCE
) -> list[tuple[float, float]]:
    """Interior local minima of a 1-D scan, parabolic-refined.

    A candidate is a grid point (or the leftmost point of a flat run) strictly
    below both neighbouring runs. Candidates whose prominence — depth below
    the lower of the two enclosing walls — is under ``prominence`` are
    dropped; the default suppresses the shallow oscillatory ripples the
    fixed-time echo develops away from the critical points. Endpoints are
    never reported; flat-run minima are reported unrefined.
    """
    xs = np.asarray(b_z_values, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.size != ys.size:
        raise ValueError("grid and value arrays differ in length")
    require_minima_grid(xs)

    # runs of equal consecutive values
    starts = [0]
    for i in range(1, ys.size):
        if ys[i] != ys[starts[-1]]:
            starts.append(i)
    runs = [(s, (starts[k + 1] - 1) if k + 1 < len(starts) else ys.size - 1)
            for k, s in enumerate(starts)]

    out: list[tuple[float, float]] = []
    for k, (i, j) in enumerate(runs):
        if k == 0 or k == len(runs) - 1:
            continue
        y = ys[i]
        if ys[i - 1] <= y or ys[j + 1] <= y:
            continue
        # prominence: highest wall before reaching lower ground on each side
        left = ys[:i]
        below = np.nonzero(left < y)[0]
        wall_l = np.max(left[below[-1] + 1 :]) if below.size else np.max(left)
        right = ys[j + 1 :]
        below = np.nonzero(right < y)[0]
        wall_r = np.max(right[: below[0]]) if below.size else np.max(right)
        if min(wall_l, wall_r) - y < prominence:
            continue
        if i == j:
            out.append(_parabolic_vertex(xs[i - 1], ys[i - 1], xs[i], y, xs[i + 1], ys[i + 1]))
        else:
            out.append((float(xs[i]), float(y)))
    return out


def echo_scan(
    n_qubits: int,
    b_x: float,
    epsilon: float,
    tau: float,
    b_z_grid,
    value_kind: str = EXACT_ECHO,
    initial_state_source: str = EXACT_GROUND,
    readout_qubit: int = 1,
) -> EchoScan:
    """Evaluate one echo variant over a b_z grid and locate its minima.

    perturbative_echo and two_level_echo are expansions around the exact
    ground state and require initial_state_source="exact_ground";
    readout_amplitude runs the full measurement protocol (gate network,
    compiled echo step, one-qubit readout) and requires
    initial_state_source="approx_ground" with N in {3, 4}.

    The grid must be strictly increasing with at least 3 points, checked
    before any work, and an exact echo of the approximate ground state builds
    its first ansatz, which checks N and b_x, before its first solve. The echo
    kinds read even-sector spectra, two per point for the exact echo (the
    field, then b_z - epsilon) and one for the expansions, from one
    `dynamics.plan`, which solves each |b_z| once, mirrors it for b_z < 0,
    holds it until its last read and returns each point's echo in grid order,
    bit for bit the per-point solvers' on any executor.
    readout_amplitude runs serially.
    """
    if value_kind not in VALUE_KINDS:
        raise ValueError(f"unknown value_kind {value_kind!r}")
    if initial_state_source not in INITIAL_STATE_SOURCES:
        raise ValueError(f"unknown initial_state_source {initial_state_source!r}")
    if value_kind in (PERTURBATIVE_ECHO, TWO_LEVEL_ECHO) and initial_state_source != EXACT_GROUND:
        raise ValueError(f"{value_kind} is defined for the exact ground state only")
    if value_kind == READOUT_AMPLITUDE and initial_state_source != APPROX_GROUND:
        raise ValueError("readout_amplitude prepares the approximate ground state; "
                         'pass initial_state_source="approx_ground"')
    grid = np.asarray(b_z_grid, dtype=float)
    _require_increasing(grid)  # before the first solve
    require_minima_grid(grid)

    if value_kind == READOUT_AMPLITUDE:
        values = [network.protocol_point(n_qubits, bz, b_x, epsilon, tau, readout_qubit)[1].amplitude
                  for bz in grid]
    else:
        points = [ChainParams(n_qubits, bz, b_x) for bz in grid]
        reads = [(p, p.perturbed(epsilon)) if value_kind == EXACT_ECHO else (p,) for p in points]
        if value_kind != EXACT_ECHO:
            v_even = dynamics.even_field_perturbation(n_qubits)
            expand = echo_perturbative if value_kind == PERTURBATIVE_ECHO else echo_two_level

            def value(i, spec):
                return expand(spec, v_even, epsilon, tau)
        elif initial_state_source == EXACT_GROUND:
            def value(i, spec, perturbed):
                return dynamics.ground_echo(spec, perturbed, tau)
        else:
            ground_state_approx(n_qubits, grid[0], b_x)  # a bad chain fails before the first solve

            def value(i, spec, perturbed):
                approx = dynamics.even_amplitudes(ground_state_approx(n_qubits, grid[i], b_x))
                return dynamics.echo_from_spectra(spec, perturbed, approx, tau)
        # every read is even-sector (both initial states are)
        values = dynamics.plan(reads, dynamics.EVEN, value)

    minima = find_minima(grid, values)
    return EchoScan(
        n_qubits=n_qubits,
        b_x=b_x,
        tau=tau,
        epsilon=epsilon,
        value_kind=value_kind,
        initial_state_source=initial_state_source,
        grid=tuple((float(b), float(v)) for b, v in zip(grid, values)),
        minima=tuple(minima),
    )
