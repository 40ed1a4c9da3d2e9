"""Critical-point detection: approximate ground-state preparation, fixed-time
echo scans over the longitudinal field, and minima extraction.

The longitudinal axis is split into preparation intervals with a dedicated
two-phase ansatz cos(phi)|m> - sin(phi)|n> on each. The table INTERVALS holds
them: [-3,-1], (-1,1), [1,3] for odd chains and [-3,-1.44], (-1.44,0],
(0,1.44), [1.44,3] for even chains (the 1.44 split point is adopted as a
fixed constant). The table ANSATZ holds each interval's (m, n, b_c, c), read by
the ansatz states and the gate networks alike: with d = b_c - |B_z|,
tan(phi) = [d + sqrt(d^2 + c B_x^2)] / (sqrt(c) B_x). Inside the odd middle
interval (no ANSATZ row) the chain uses the alternating pattern for b_z < 0,
its mirror for b_z > 0 and their equal (minus-sign) superposition at exactly
b_z = 0 — note the rule is discontinuous there, so scan grids should contain
0.0 exactly rather than a rounding-dust neighbour.

An echo scan reads each field's spectrum through `dynamics.solve_ahead`,
which solves each field once, possibly ahead on another thread, and holds
it until its last read.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .hamiltonian import ChainParams, UnsupportedChainError, phase_state
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

EVEN_SPLIT = 1.44
DEFAULT_PROMINENCE = 1e-3


@dataclass(frozen=True)
class MixingAngle:
    """Rotation angle of the two-phase ansatz cos(phi)|m> - sin(phi)|n>."""

    phi: float
    m: int
    n: int


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
    def b_z_values(self) -> np.ndarray:
        return np.array([p[0] for p in self.grid])

    @property
    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.grid])


def _require_increasing(b_z) -> None:
    if any(b2 <= b1 for b1, b2 in zip(b_z, b_z[1:])):
        raise ValueError("scan grid must be strictly increasing in b_z")


def require_minima_grid(b_z) -> None:
    if len(b_z) < 3:
        raise ValueError("minima detection requires at least 3 grid points")


INTERVALS = {
    "odd": ((-3.0, -1.0), (-1.0, 1.0), (1.0, 3.0)),
    "even": ((-3.0, -EVEN_SPLIT), (-EVEN_SPLIT, 0.0), (0.0, EVEN_SPLIT), (EVEN_SPLIT, 3.0)),
}


def intervals(parity: str) -> tuple[tuple[float, float], ...]:
    if parity not in INTERVALS:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return INTERVALS[parity]


def interval_boundaries(parity: str) -> tuple[float, ...]:
    """Interior points where the preparation rule switches branch."""
    return tuple(hi for _, hi in intervals(parity)[:-1])


def interval_index(parity: str, b_z: float) -> int:
    """Index into intervals(parity) of the interval containing b_z.

    The outer intervals absorb fields beyond the table. A boundary at or
    below 0 belongs to the interval on its left, a positive one to the
    interval on its right.
    """
    return sum(b_z > b if b <= 0 else b_z >= b for b in interval_boundaries(parity))


# (m, n, b_c, c) per interval of INTERVALS; see the module docstring
ANSATZ = {
    "odd": ((1, 2, 2.0, 1.0), None, (4, 3, 2.0, 1.0)),
    "even": ((1, 2, 2.0, 2.0), (2, 3, 1.0, 1.0), (4, 3, 1.0, 1.0), (5, 4, 2.0, 2.0)),
}


def _mixing_angle(row, b_z: float, b_x: float) -> MixingAngle:
    """The ansatz angle of one ANSATZ row at (b_z, b_x)."""
    if b_x <= 0:
        raise ValueError("mixing angle requires b_x > 0")
    m, n, b_c, c = row
    d = b_c - abs(b_z)
    phi = math.atan((d + math.sqrt(d * d + c * b_x * b_x)) / (math.sqrt(c) * b_x))
    return MixingAngle(phi, m, n)


def mixing_angle_odd(b_z: float, b_x: float) -> MixingAngle:
    """Ansatz angle near |B_z| = 2 for odd chains, pairing phases (1,2) on the
    negative side and (4,3) on the positive side."""
    if b_z == 0:
        raise ValueError("no crossover branch at b_z = 0; use the middle-interval rule")
    return _mixing_angle(ANSATZ["odd"][0 if b_z < 0 else 2], b_z, b_x)


def mixing_angle_even(b_z: float, b_x: float) -> MixingAngle:
    """Ansatz angle for even chains; the branch switches at |B_z| = EVEN_SPLIT.

    Near +-2 the phases pair as (1,2) / (5,4); near +-1 as (2,3) / (4,3).
    """
    return _mixing_angle(ANSATZ["even"][interval_index("even", b_z)], b_z, b_x)


def _two_phase_state(n_qubits: int, angle: MixingAngle) -> PureState:
    a = phase_state(n_qubits, angle.m).amplitudes
    b = phase_state(n_qubits, angle.n).amplitudes
    return PureState(math.cos(angle.phi) * a - math.sin(angle.phi) * b, n_qubits)


def ground_state_approx_odd(n_qubits: int, b_z: float, b_x: float) -> PureState:
    """Two-phase ansatz for an odd chain (see module docstring for intervals)."""
    if n_qubits % 2 == 0:
        raise UnsupportedChainError("ground_state_approx_odd requires odd N")
    if b_x <= 0:
        raise ValueError("approximate preparation requires b_x > 0")
    if ANSATZ["odd"][interval_index("odd", b_z)] is not None:
        return _two_phase_state(n_qubits, mixing_angle_odd(b_z, b_x))
    if b_z < 0:
        return phase_state(n_qubits, 2)
    if b_z > 0:
        return phase_state(n_qubits, 3)
    amps = (phase_state(n_qubits, 2).amplitudes - phase_state(n_qubits, 3).amplitudes)
    return PureState(amps / math.sqrt(2.0), n_qubits)


def ground_state_approx_even(n_qubits: int, b_z: float, b_x: float) -> PureState:
    """Two-phase ansatz for an even chain (N >= 4)."""
    if n_qubits % 2 or n_qubits < 4:
        raise UnsupportedChainError("ground_state_approx_even requires even N >= 4")
    if b_x <= 0:
        raise ValueError("approximate preparation requires b_x > 0")
    return _two_phase_state(n_qubits, mixing_angle_even(b_z, b_x))


def ground_state_approx(n_qubits: int, b_z: float, b_x: float) -> PureState:
    if n_qubits % 2:
        return ground_state_approx_odd(n_qubits, b_z, b_x)
    return ground_state_approx_even(n_qubits, b_z, b_x)


def default_b_z_grid(lo: float = -3.0, hi: float = 3.0, step: float = 0.02) -> np.ndarray:
    """Dust-free grid lo, lo+step, ... up to hi (values rounded to 12 decimals).

    The last point is hi when step divides hi - lo up to float dust, and
    never lies past it.
    """
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0 or hi <= lo:
        raise ValueError("grid requires step > 0 and hi > lo")
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return np.round(lo + np.arange(count) * step, 12)


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
    before any work. The echo kinds read their spectra, two per point for the
    exact echo (the field, then b_z - epsilon) and one for the expansions, from
    `dynamics.solve_ahead`, which solves each field once, up to W + 1 ahead on
    W threads, and holds it until its last read; the values are bit for bit
    the serial ones. readout_amplitude runs serially.
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

    values = np.empty(grid.size)
    if value_kind == READOUT_AMPLITUDE:
        from .network import preparation_network, run_protocol  # deferred: cyclic module pair

        for i, bz in enumerate(grid):
            net = preparation_network(n_qubits, bz, b_x)
            values[i] = run_protocol(net, epsilon, tau, readout_qubit).amplitude
    else:
        exact_ground = initial_state_source == EXACT_GROUND  # a reflection-even state
        solve = dynamics.even_spectral_for if exact_ground else dynamics.spectral_for
        points = [ChainParams(n_qubits, bz, b_x) for bz in grid]
        # no name holds a point's spectra past the point: a loop variable would keep
        # them alive while the next point's fields are solved
        if value_kind == EXACT_ECHO:
            reads = [q for p in points for q in (p, p.perturbed(epsilon))]
            with closing(dynamics.solve_ahead(solve, reads)) as spectra:
                for i, bz in enumerate(grid):
                    if exact_ground:
                        values[i] = dynamics.ground_echo(next(spectra), next(spectra), tau)
                    else:
                        values[i] = dynamics.echo_from_spectra(
                            next(spectra), next(spectra), ground_state_approx(n_qubits, bz, b_x), tau)
        else:
            v_even = dynamics.even_field_perturbation(n_qubits)
            expand = echo_perturbative if value_kind == PERTURBATIVE_ECHO else echo_two_level
            with closing(dynamics.solve_ahead(solve, points)) as spectra:
                for i in range(grid.size):
                    values[i] = expand(next(spectra), v_even, epsilon, tau)

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
