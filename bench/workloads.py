"""The CLI sweeps each workload runs.

A workload is a fixed list of ``isingcrit`` command lines. The seed only
picks each sweep's transverse field ``--bx`` from the paper's small-field
range; seed 0 is the default configuration, ``--bx 0.1`` everywhere. The
cost of a sweep does not depend on ``--bx``, so every seed does the same
work on different inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

BX_CHOICES = ("0.05", "0.075", "0.1", "0.125", "0.15")
DEFAULT_BX = "0.1"
DEFAULT_SEED = 0

PI = repr(math.pi)
HALF_PI = repr(math.pi / 2)


@dataclass(frozen=True)
class Sweep:
    """One ``isingcrit`` invocation (without ``--out``) and how to check it."""

    name: str
    argv: tuple[str, ...]
    check: str
    n: int
    bx: str
    points: int

    @property
    def key(self) -> str:
        """Reference key: the sweep and the only input the seed varies."""
        return f"{self.name}@{self.bx}"


def _grid_points(lo: float, hi: float, step: float) -> int:
    return int(round((hi - lo) / step)) + 1


def _sweep(name, command, check, n, bx, step, *extra) -> Sweep:
    argv = (command, "--n", str(n), "--bx", bx, "--bz-min", "-3", "--bz-max", "3",
            "--bz-step", repr(step)) + tuple(extra)
    return Sweep(name, argv, check, n, bx, _grid_points(-3.0, 3.0, step))


def echo_scan(draw) -> list[Sweep]:
    """Exact echo at N=7 and N=8 (the acceptance configs), and the two
    expansions at N=7 on the N=7 field: eigensolve and spectral cache."""
    bx7, bx8 = draw(), draw()
    echo = ("--epsilon", "0.1", "--tau", PI)
    return [
        _sweep("exact_n7", "echo-scan", "echo", 7, bx7, 0.02, *echo),
        _sweep("exact_n8", "echo-scan", "echo", 8, bx8, 0.02, *echo),
        _sweep("perturbative_n7", "echo-scan", "expansion", 7, bx7, 0.02, *echo,
               "--value-kind", "perturbative_echo"),
        _sweep("two_level_n7", "echo-scan", "expansion", 7, bx7, 0.02, *echo,
               "--value-kind", "two_level_echo"),
    ]


def zero_field(draw) -> list[Sweep]:
    """B_x = 0: Hamiltonian build and the diagonal solver path, memory-bound."""
    return [
        _sweep("spectrum_n10", "spectrum", "spectrum_zero_field", 10, "0", 0.05),
        _sweep("phase_diagram_n12", "phase-diagram", "phase_diagram", 12, "0", 0.02),
    ]


def protocol(draw) -> list[Sweep]:
    """Gate networks at N=3 and N=4 on a fine grid: gates, network, states."""
    n4 = ("--epsilon", "0.5", "--tau", HALF_PI)
    return [
        _sweep("protocol_n3", "protocol", "protocol", 3, draw(), 0.005,
               "--epsilon", "0.2", "--tau", PI),
        _sweep("protocol_n4", "protocol", "protocol", 4, draw(), 0.005, *n4),
        _sweep("readout_n4", "echo-scan", "readout", 4, draw(), 0.005, *n4,
               "--value-kind", "readout_amplitude", "--initial-state", "approx_ground"),
    ]


WORKLOADS = {"echo-scan": echo_scan, "zero-field": zero_field, "protocol": protocol}


def sweeps_for_seed(workload: str, seed: int) -> list[Sweep]:
    """The workload's sweeps, with each ``--bx`` drawn from the seed."""
    if seed == DEFAULT_SEED:
        return WORKLOADS[workload](lambda: DEFAULT_BX)
    rng = random.Random(seed)
    return WORKLOADS[workload](lambda: rng.choice(BX_CHOICES))
