"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 7b encode claims that the dense-diagonalization oracle
contradicts; those tests assert the stated values anyway and fail with the
measured numbers in the message. Everything else passes at the stated
tolerances.

- Criterion 4 (N=8 two-level minima within 0.02 of the exact ones): the
  offsets are 0.027, 0.031, 0.038 and 0.018. The full second-order sum puts
  every N=8 minimum within 0.005 of the exact one, so the offset comes from
  the single-mode truncation: near B_z = -1 the lowest coupled cluster
  (gap ~0.086, |V_0a|^2 ~0.020) is kept while its avoided-crossing partner
  (gap ~0.201, |V_0a|^2 ~0.975) carries 98 % of the second-order loss, and
  near B_z = +-2 the split multiphase manifold couples through four
  comparable modes.
- Criterion 7b (compiled echo step state fidelity >= 0.98): the step
  exp(-i tau eps sum sigma_z) is the first-order term of
  exp(i(H + eps V) tau) exp(-i H tau); it drops the [H_x, V] remainder, so
  the infidelity grows like eps^2 and three of the four settings sit at
  0.956-0.971.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from isingcrit.criticality import (
    default_b_z_grid,
    echo_scan,
    find_minima,
    ground_state_approx,
    interval_boundaries,
)
from isingcrit.dynamics import (
    diagonalize,
    ground_state,
    loschmidt_echo_exact,
    spectral_for,
)
from isingcrit.gates import global_z_phases
from isingcrit.hamiltonian import (
    ChainParams,
    build_hamiltonian,
    closed_form_energy,
    crossover_points,
    multiphase_family,
)
from isingcrit.network import preparation_network, run_protocol
from isingcrit.perturbation import (
    LandauZenerParams,
    echo_perturbative,
    lz_echo_gaussian,
    lz_gap,
    lz_hamiltonian,
    lz_matrix_element_sq,
)
from isingcrit.states import fidelity


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {tag}: {detail}"


# --------------------------------------------------------------------------
# long-chain benchmark scans shared by criteria 3 and 4


@pytest.fixture(scope="module")
def benchmark_scans():
    t0 = time.monotonic()
    scans = {}
    for n in (7, 8):
        scans[n, "coarse"] = echo_scan(n, 0.1, 0.1, np.pi, default_b_z_grid(step=0.02))
        scans[n, "fine"] = echo_scan(n, 0.1, 0.1, np.pi, default_b_z_grid(step=0.005))
    scans["elapsed"] = time.monotonic() - t0
    return scans


def test_criterion_1_closed_form_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(3, 11):
        for bz in np.linspace(-3.0, 3.0, 601):
            params = ChainParams(n, float(bz), 0.0)
            e0 = diagonalize(build_hamiltonian(params)).ground_energy
            worst = max(worst, abs(e0 - closed_form_energy(params)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report("1 closed-form energies", ok,
            f"max |E0 - closed form| = {worst:.2e}, runtime {elapsed:.1f}s")


def _multiphase_ground_count(n: int) -> int:
    """Ground-manifold dimension at B_z = +-2, B_x = 0, counted without a solver.

    From the uniform state, flipping one interior spin changes the bond
    energy by -4 and the field energy by +4 (free), flipping an end spin
    costs +2 and flipping two adjacent spins costs +4. The ground kets are
    exactly those whose flipped spins are interior and pairwise
    non-adjacent: a Fibonacci number F_N.
    """
    return sum(
        1
        for b in range(2**n)
        if not b & 1 and not b >> (n - 1) and not b & (b >> 1)
    )


def test_criterion_2_multiphase_degeneracy_counts():
    # (N+1)/2 and N/2 count the staggered-front family, not the manifold:
    # the family must be that large, independent, and inside the measured
    # ground eigenspace, whose dimension must be the flip count F_N
    rows = []
    ok = True
    for n in (3, 5, 7, 4, 6, 8):
        expected = _multiphase_ground_count(n)
        family_size = (n + 1) // 2 if n % 2 else n // 2
        for bc in (-2.0, 2.0):
            spec = diagonalize(build_hamiltonian(ChainParams(n, bc, 0.0)))
            w = spec.eigenvalues
            measured = int(np.sum(w <= w[0] + 1e-8))
            family = np.column_stack([s.amplitudes for s in multiphase_family(n, bc)])
            rank = int(np.linalg.matrix_rank(family.conj().T @ family))
            ground = spec.eigenvectors[:, :measured]
            leak = float(np.max(np.abs(ground @ (ground.conj().T @ family) - family)))
            ok = (ok and measured == expected and family.shape[1] == family_size
                  and rank == family_size and leak <= 1e-12)
            rows.append(
                f"N={n} Bc={bc:+.0f}: degeneracy {measured} (expected {expected}), "
                f"family {family.shape[1]} of rank {rank} (expected {family_size}), "
                f"outside ground space {leak:.1e}"
            )
    _report("2 degeneracy counts", ok, "; ".join(rows))


def test_criterion_3_long_chain_echo_minima(benchmark_scans):
    details = []
    ok = True
    for n, expected_count in ((7, 3), (8, 4)):
        crossings = crossover_points(n)
        coarse = benchmark_scans[n, "coarse"].minima
        fine = benchmark_scans[n, "fine"].minima
        ok = ok and len(coarse) == expected_count and len(fine) == expected_count
        for minima in (coarse, fine):
            for b, _ in minima:
                nearest = min(crossings, key=lambda c: abs(c - b))
                ok = ok and abs(b - nearest) <= 0.15
        # the coarse estimates hold up against the fine-grid oracle
        for (bc, _), (bf, _) in zip(coarse, fine):
            ok = ok and abs(bc - bf) <= 0.02
        details.append(
            f"N={n}: coarse {[f'{b:.3f}' for b, _ in coarse]}, "
            f"fine {[f'{b:.3f}' for b, _ in fine]}"
        )
    elapsed = benchmark_scans["elapsed"]
    ok = ok and elapsed < 300.0
    _report("3 long-chain echo minima", ok, "; ".join(details) + f"; scans took {elapsed:.0f}s")


def test_criterion_4_two_level_minima_agreement(benchmark_scans):
    details = []
    ok = True
    for n in (7, 8):
        exact = benchmark_scans[n, "coarse"]
        two_level = echo_scan(
            n, 0.1, 0.1, np.pi, default_b_z_grid(step=0.02), value_kind="two_level_echo"
        )
        pairs_ok = len(two_level.minima) == len(exact.minima)
        offsets = []
        if pairs_ok:
            for (bt, _), (be, _) in zip(two_level.minima, exact.minima):
                offsets.append(abs(bt - be))
            pairs_ok = all(off <= 0.02 for off in offsets)
        ok = ok and pairs_ok
        max_dev = float(np.max(np.abs(two_level.values - exact.values)))
        details.append(
            (f"N={n}: offsets {[f'{o:.4f}' for o in offsets]}"
             if offsets else f"N={n}: minima counts differ")
            + f", max curve deviation {max_dev:.3f}"
        )
    _report("4 two-level minima within one grid step", ok, "; ".join(details))


def test_criterion_5_perturbative_order():
    rng = np.random.default_rng(4)
    ratios = []
    while len(ratios) < 50:
        d = int(rng.integers(4, 17))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2
        h /= np.linalg.norm(h, 2)
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        v = (b + b.conj().T) / 2
        v /= np.linalg.norm(v, 2)
        w, vecs = np.linalg.eigh(h)
        if w[1] - w[0] < 1e-3:
            continue
        psi = vecs[:, 0]
        spec = diagonalize(h)
        errs = []
        for eps in (1e-2, 5e-3):
            amp = np.vdot(psi, expm(1j * h) @ (expm(-1j * (h + eps * v)) @ psi))
            errs.append(abs(abs(amp) ** 2 - echo_perturbative(spec, v, eps, 1.0)))
        ratios.append(errs[0] / errs[1])
    ratios = np.array(ratios)
    ok = bool(np.all(ratios >= 6.0) and np.median(ratios) >= 7.0)
    _report("5 cubic error shrinkage", ok,
            f"50 systems, min ratio {ratios.min():.2f}, median {np.median(ratios):.2f}")


def test_criterion_6_two_level_model_identities():
    dmin, eps = 0.1, 0.1
    lams = np.linspace(-2.0, 2.0, 1001)
    sz = np.diag([1.0, -1.0]).astype(complex)
    worst_gap = worst_me = 0.0
    for lam in lams:
        p = LandauZenerParams(dmin, float(lam))
        spec = diagonalize(lz_hamiltonian(p))
        gap_num = spec.eigenvalues[1] - spec.eigenvalues[0]
        me_num = abs(spec.eigenvectors[:, 1].conj() @ (sz @ spec.eigenvectors[:, 0])) ** 2
        worst_gap = max(worst_gap, abs(gap_num - lz_gap(p)))
        worst_me = max(worst_me, abs(me_num - lz_matrix_element_sq(p)))
    t = 0.1 / lz_gap(LandauZenerParams(dmin, 2.0))
    worst_gauss = 0.0
    for lam in lams:
        p = LandauZenerParams(dmin, float(lam), 1.0, eps, t)
        delta, me = lz_gap(p), lz_matrix_element_sq(p)
        two_level = 1 - 2 * (me / delta**2) * eps**2 * (1 - np.cos(delta * t))
        worst_gauss = max(worst_gauss, abs(lz_echo_gaussian(p) - two_level))
    ok = worst_gap <= 1e-12 and worst_me <= 1e-12 and worst_gauss <= 1e-4
    _report("6 avoided-crossing identities", ok,
            f"gap dev {worst_gap:.1e}, element dev {worst_me:.1e}, "
            f"gaussian vs two-level {worst_gauss:.1e} at gap*t <= 0.1")


PROTOCOL_SETTINGS = (
    (3, np.pi, (0.2, 0.125)),
    (4, np.pi / 2, (0.5, 0.4)),
)


def test_criterion_7a_preparation_fidelity():
    details = []
    ok = True
    for n, _, _ in PROTOCOL_SETTINGS:
        parity = "odd" if n % 2 else "even"
        bounds = interval_boundaries(parity)
        worst = 1.0
        for bz in default_b_z_grid(step=0.02):
            if min(abs(bz - b) for b in bounds) < 0.05:
                continue
            f = fidelity(ground_state_approx(n, bz, 0.1), ground_state(ChainParams(n, bz, 0.1)))
            worst = min(worst, f)
        ok = ok and worst >= 0.98
        details.append(f"N={n}: min fidelity {worst:.4f}")
    _report("7a prepared-state fidelity >= 0.98", ok, "; ".join(details))


def test_criterion_7b_single_step_echo_fidelity():
    details = []
    ok = True
    for n, tau, epsilons in PROTOCOL_SETTINGS:
        for eps in epsilons:
            worst = 1.0
            for bz in default_b_z_grid(step=0.02):
                params = ChainParams(n, bz, 0.1)
                psi = ground_state_approx(n, bz, 0.1).amplitudes
                s0, s1 = spectral_for(params), spectral_for(params.perturbed(eps))
                fwd = (s0.eigenvectors * np.exp(-1j * s0.eigenvalues * tau)) @ (
                    s0.eigenvectors.conj().T @ psi
                )
                back = (s1.eigenvectors * np.exp(1j * s1.eigenvalues * tau)) @ (
                    s1.eigenvectors.conj().T @ fwd
                )
                overlap = np.vdot(psi, global_z_phases(n, tau * eps).conj() * back)
                worst = min(worst, abs(overlap) ** 2)
            ok = ok and worst >= 0.98
            details.append(f"N={n} eps={eps}: min {worst:.4f}")
    _report("7b compiled-step fidelity >= 0.98", ok, "; ".join(details))


def test_criterion_8_protocol_readout_minima():
    details = []
    ok = True
    for n, tau, epsilons in PROTOCOL_SETTINGS:
        readout = 2 if n == 3 else 1
        crossings = crossover_points(n)
        grid = default_b_z_grid(step=0.02)
        scans = {}
        for eps in epsilons:
            amplitudes, l_values = [], []
            for bz in grid:
                res = run_protocol(preparation_network(n, bz, 0.1), eps, tau, readout)
                amplitudes.append(res.amplitude)
                l_values.append(res.l_value)
                ok = ok and res.amplitude <= res.l_value + 1e-12
            scans[eps] = np.array(amplitudes)
            minima = find_minima(grid, amplitudes)
            for c in crossings:
                nearest = min(minima, key=lambda m: abs(m[0] - c))
                ok = ok and abs(nearest[0] - c) <= 0.15
            details.append(f"N={n} eps={eps}: minima {[f'{b:.2f}' for b, _ in minima]}")
        # the stronger perturbation digs deeper at the detected minima
        big, small = max(epsilons), min(epsilons)
        for b, _ in find_minima(grid, scans[big]):
            i = int(np.argmin(np.abs(grid - b)))
            ok = ok and scans[big][i] < scans[small][i]
    _report("8 readout-amplitude minima", ok, "; ".join(details))


def test_criterion_9_field_reversal_symmetry():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        bz = float(rng.uniform(-3, 3))
        bx = float(rng.uniform(0.01, 0.5))
        eps = float(rng.uniform(-0.3, 0.3))
        t = float(rng.uniform(0.0, 2 * np.pi))
        left = loschmidt_echo_exact(ChainParams(n, bz, bx), eps, t)
        right = loschmidt_echo_exact(ChainParams(n, -bz, bx), -eps, t)
        worst = max(worst, abs(left - right))
    ok = worst <= 1e-9
    _report("9 field-reversal symmetry", ok, f"100 tuples, max deviation {worst:.2e}")
