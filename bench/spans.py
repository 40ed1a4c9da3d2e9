"""Per-layer tracing from outside the package.

Each layer's public functions are wrapped where their caller looks them up
(a module attribute), so the package itself is not edited. A wrapper records
a span: its calls and its self time, which is the span's duration minus the
duration of the spans it contains. The tracer's own bookkeeping falls into
the enclosing span's self time; ``trace.overhead_s`` reports how much the
wrappers add to a pass.

Names that a later version of the package no longer has are skipped, and
their metrics read 0.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute looked up by the caller, span name)
SPANS = (
    ("isingcrit.dynamics", "build_hamiltonian", "hamiltonian.build"),
    ("isingcrit.dynamics", "diagonalize", "dynamics.diagonalize"),
    ("isingcrit.dynamics", "spectral_for", "dynamics.spectral_for"),
    ("isingcrit.dynamics", "evolve", "dynamics.evolve"),
    ("isingcrit.dynamics", "loschmidt_echo_exact", "dynamics.echo"),
    ("isingcrit.criticality", "echo_perturbative", "perturbation.echo"),
    ("isingcrit.criticality", "echo_two_level", "perturbation.echo"),
    ("isingcrit.criticality", "ground_state_approx", "criticality.ansatz"),
    ("isingcrit.network", "interval_for", "criticality.ansatz"),
    ("isingcrit.network", "outer_mixing_phi_odd", "criticality.ansatz"),
    ("isingcrit.network", "outer_mixing_phi_even", "criticality.ansatz"),
    ("isingcrit.network", "inner_mixing_phi_even", "criticality.ansatz"),
    ("isingcrit.criticality", "find_minima", "criticality.find_minima"),
    ("isingcrit.cli", "find_minima", "criticality.find_minima"),
    ("isingcrit.cli", "echo_scan", "criticality.echo_scan"),
    ("isingcrit.network", "preparation_network", "network.prepare"),
    ("isingcrit.cli", "preparation_network", "network.prepare"),
    ("isingcrit.network", "run_protocol", "network.run_protocol"),
    ("isingcrit.cli", "run_protocol", "network.run_protocol"),
    ("isingcrit.network", "apply_gates", "gates.apply"),
    ("isingcrit.network", "dephase", "states.dephase"),
)
ROOT_SPAN = "cli"
# figures that must repeat exactly from pass to pass and seed to seed
COUNT_SUFFIXES = (".calls", "dense_calls", ".gates", ".hits", ".misses")


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values() if hasattr(v, "nbytes"))


def _gate_count(args, kwargs) -> int:
    gates = args[1] if len(args) > 1 else kwargs.get("gates", ())
    return len(gates) if hasattr(gates, "__len__") else 0


class Tracer:
    """Span calls and self times, and the counts taken at span exits."""

    def __init__(self):
        self.stack: list[list[float]] = []  # time covered by children, per open span
        self.figures: Counter = Counter()

    def wrap(self, name: str, fn):
        stack, figures = self.stack, self.figures

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                figures[f"{name}.calls"] += 1
                figures[f"{name}.s"] += duration - children[0]
            if name == "dynamics.spectral_for":
                figures["decomposition_bytes"] += _array_bytes(result)
            elif name == "gates.apply":
                figures["gates.apply.gates"] += _gate_count(args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced name for its wrapper; restore them on exit."""
        import numpy.linalg

        figures, eigh = self.figures, numpy.linalg.eigh

        def counted_eigh(*args, **kwargs):  # counted, not a span: eigh time stays in diagonalize
            figures["dynamics.diagonalize.dense_calls"] += 1
            return eigh(*args, **kwargs)

        patched = [(numpy.linalg, "eigh", counted_eigh)]
        for module_name, attr, span in SPANS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                patched.append((module, attr, self.wrap(span, getattr(module, attr))))
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patched]
        try:
            for module, attr, wrapper in patched:
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def take(self) -> Counter:
        """Figures gathered since the last take, as additive raw values."""
        taken = Counter(self.figures)
        self.figures.clear()
        return taken


def layer_metrics(raw: Counter) -> Counter:
    """Per-layer metrics of one pass from its summed raw figures; absent ones read 0."""
    metrics = Counter(raw)
    for span in {span for _, _, span in SPANS} | {ROOT_SPAN}:
        metrics[f"{span}.self_s"] = raw[f"{span}.s"]
    calls = raw["dynamics.spectral_for.calls"]
    if calls:
        metrics["dynamics.spectral_for.hit_ratio"] = raw["dynamics.spectral_for.hits"] / calls
        metrics["dynamics.decomposition.bytes"] = raw["decomposition_bytes"] / calls
    return metrics


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)
