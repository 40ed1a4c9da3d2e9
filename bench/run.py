"""Benchmark for isingcrit: CLI sweeps end to end, and a traced run for per-layer figures.

Run from the root of a checkout:

    python3 bench/run.py --workload echo-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

A run imports the package from the checkout's ``src/`` and drives
``isingcrit.cli.main([..., "--out", file])`` in-process: a closed loop with
one client, one sweep at a time. It repeats whole passes over the
workload's sweep list until ``--seconds`` have passed, and at least
MIN_PASSES times. Each sweep starts with the spectral cache cleared, as a
fresh CLI process would, and its output file is checked (see checks.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (spans.py). The last line of stdout is the JSON result. ``--workload all``
runs every workload both ways, each in a fresh process, and prints a
summary; its last line is the format of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from checks import check_output, load_reference
from spans import ROOT_SPAN, Tracer, is_count, layer_metrics
from workloads import WORKLOADS, sweeps_for_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

# One BLAS thread on both sides of every comparison: on a 2-core machine the
# default thread count makes small eigensolves up to 50x slower and noisy.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
PASS_BUDGET_S = 140.0  # no new pass once this much has run, so a run ends within 180 s
SETUP_PROBES = 9
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import isingcrit; "
    "isingcrit.spectral_for(isingcrit.ChainParams(3, 0.5, 0.1)); print('ready', flush=True)"
)


class Pass:
    """Figures of one pass over the sweep list."""

    def __init__(self):
        self.seconds = 0.0
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, bytes] = {}
        self.raw: Counter = Counter()
        self.per_sweep: dict[str, Counter] = {}


class Runner:
    def __init__(self, sweeps, work: Path, reference: dict):
        from isingcrit import cli, dynamics

        self.cli = cli
        self.spectral_for = dynamics.spectral_for  # the lru_cache object, never a wrapper
        self.sweeps = sweeps
        self.work = work
        self.reference = reference

    def _cache_counts(self, raw: Counter) -> tuple[int, int]:
        cache_info = getattr(self.spectral_for, "cache_info", None)
        if cache_info is None:  # no cache: every lookup that diagonalizes is a miss
            misses = raw["dynamics.diagonalize.calls"]
            return raw["dynamics.spectral_for.calls"] - misses, misses
        info = cache_info()
        return info.hits, info.misses

    def run_pass(self, tracer: Tracer | None = None, expected: dict | None = None) -> Pass:
        """Run every sweep once; compare outputs with ``expected`` when given."""
        p = Pass()
        main = tracer.wrap(ROOT_SPAN, self.cli.main) if tracer else self.cli.main
        for sweep in self.sweeps:
            clear = getattr(self.spectral_for, "cache_clear", None)
            if clear is not None:
                clear()
            out = self.work / f"{sweep.name}.csv"
            out.unlink(missing_ok=True)
            start = perf_counter()
            try:
                code = main([*sweep.argv, "--out", str(out)])
            except Exception:
                traceback.print_exc()
                code = None
            p.seconds += perf_counter() - start
            p.attempted += 1
            problems = self._check(sweep, code, out, p, expected)
            if problems:
                p.failed += 1
                print(f"FAIL {sweep.name}: " + "; ".join(problems), file=sys.stderr)
            else:
                p.points += sweep.points
            if tracer is not None:
                raw = tracer.take()
                raw["dynamics.spectral_for.hits"], raw["dynamics.spectral_for.misses"] = (
                    self._cache_counts(raw))
                p.per_sweep[sweep.name] = raw
                p.raw.update(raw)
        return p

    def _check(self, sweep, code, out: Path, p: Pass, expected) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        data = out.read_bytes()
        p.outputs[sweep.name] = data
        if expected is not None and expected.get(sweep.name) != data:
            return ["traced output differs from the untraced output"]
        return check_output(sweep, data.decode("utf-8"), self.reference)


def repeat(seconds: float, step) -> list:
    """Results of ``step()`` called until ``seconds`` have passed, at least MIN_PASSES times."""
    results = []
    start = perf_counter()
    while True:
        begin = perf_counter()
        results.append(step())
        now = perf_counter()
        if len(results) >= MIN_PASSES and now - start >= seconds:
            return results
        if now - start + (now - begin) > PASS_BUDGET_S:
            return results


def probe_setup() -> float:
    """Seconds from starting a process to a finished first spectral_for call."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], stdout=subprocess.PIPE,
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
    }


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def emit(values: dict, units: dict, correct: bool, attempted: int, failed: int) -> None:
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<36} {values[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<36} {failed / attempted:>16.6g} ratio ({failed} of {attempted} sweeps failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end(runner: Runner, units: dict, seconds: float, setup: list[float]) -> None:
    passes = repeat(seconds, runner.run_pass)
    times = [p.seconds for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes: {len(passes)}, pass times (s): {', '.join(f'{t:.3f}' for t in times)}")
    print(f"setup probes (s): {', '.join(f'{t:.3f}' for t in setup)}")
    values = {
        "setup_s": statistics.median(setup),
        "sweep_s": statistics.median(times),
        "points_per_s": statistics.median(p.points / p.seconds for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"end-to-end (sweep_s and points_per_s: median of {len(passes)} passes, "
          f"{passes[0].points} points per pass; setup_s: median of {len(setup)} probes):")
    emit(values, units, failed == 0, attempted, failed)


def traced(runner: Runner, workload: str, units: dict, seconds: float) -> None:
    tracer = Tracer()

    def untraced_then_traced():
        plain = runner.run_pass()
        with tracer.installed():
            return plain, runner.run_pass(tracer, expected=plain.outputs)

    pairs = repeat(seconds, untraced_then_traced)
    plain = [p for p, _ in pairs]
    passes = [t for _, t in pairs]
    per_pass = [layer_metrics(p.raw) for p in passes]
    values = {name: per_pass[0][name] if is_count(name)
              else statistics.median(m[name] for m in per_pass) for name in units}
    plain_s = statistics.median(p.seconds for p in plain)
    values["trace.overhead_s"] = statistics.median(p.seconds for p in passes) - plain_s
    print(f"{len(pairs)} untraced and {len(pairs)} traced passes, alternating; "
          "time metrics are medians over the traced passes, counts are those of one pass")
    for name, raw in passes[0].per_sweep.items():
        print(f"  {name}: spectral_for calls={raw['dynamics.spectral_for.calls']} "
              f"hits={raw['dynamics.spectral_for.hits']} "
              f"misses={raw['dynamics.spectral_for.misses']} "
              f"dense_calls={raw['dynamics.diagonalize.dense_calls']} "
              f"gates={raw['gates.apply.gates']}")
    print(f"tracing overhead: {values['trace.overhead_s']:.3f} s on a median untraced pass of "
          f"{plain_s:.3f} s ({100 * values['trace.overhead_s'] / plain_s:.1f}%)")
    counts = [{k: v for k, v in m.items() if is_count(k)} for m in per_pass]
    print("counts repeat across traced passes: "
          + ("yes" if all(c == counts[0] for c in counts) else "NO"))
    _compare_with_baseline(workload, values)
    attempted = sum(p.attempted for p in plain + passes)
    failed = sum(p.failed for p in plain + passes)
    emit(values, units, failed == 0, attempted, failed)


def _compare_with_baseline(workload: str, values: dict) -> None:
    if not BASELINE.is_file():
        return
    with open(BASELINE, encoding="utf-8") as fh:
        base = json.load(fh)["workloads"][workload]["per_layer"]["metrics"]
    moved = [f"{k} {base[k]['value']:g} -> {values[k]:g}"
             for k in sorted(base) if is_count(k) and base[k]["value"] != values.get(k)]
    print("counts vs the seed-commit baseline: " + ("equal" if not moved else "; ".join(moved)))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "isingcrit" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/isingcrit; run from a checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    units = metric_specs()
    sweeps = sweeps_for_seed(workload, seed)
    reference = load_reference()
    setup = [] if trace else [probe_setup() for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    print("machine " + json.dumps(machine_facts()))
    print(f"workload {workload} seed {seed}: "
          + ", ".join(f"{s.name} (--bx {s.bx}, {s.points} points)" for s in sweeps))
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(sweeps, work, reference)
        if trace:
            traced(runner, workload, units["per_layer"], seconds)
        else:
            end_to_end(runner, units["end_to_end"], seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh process, then a summary."""
    summary = {"seed": seed, "seconds": seconds, "machine": None, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        entry = summary["workloads"][workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            print(f"== {workload} --trace {trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            entry[key] = json.loads(lines[-1])
            summary["machine"] = json.loads(lines[0].split(" ", 1)[1])
            status |= not entry[key]["correct"]
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
