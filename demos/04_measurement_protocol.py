"""End-to-end measurement protocol on the compiled 3- and 4-spin networks.

For each field value the preparation network rotates |0...0> into the
two-phase ansatz, a single diagonal echo step stands in for the composed
forward/backward evolution, the inverse network maps back and one qubit is
read out from the populations |psi|^2 (the diagonal of the dephased state).
The readout amplitude A = P_s - P_n dips at the critical fields, sitting
strictly below the echo population it tracks.
"""

import numpy as np

from isingcrit import (
    ChainParams,
    crossover_points,
    default_b_z_grid,
    find_minima,
    ground_state,
    fidelity,
    preparation_network,
    protocol_point,
    protocol_vs_exact,
    serialize_network,
)

B_X = 0.1


def show_networks(n, b_z_examples):
    print(f"\n--- preparation networks, N={n} ---")
    for bz in b_z_examples:
        net = preparation_network(n, bz, B_X)
        print(serialize_network(net))


def scan(n, epsilon, tau, readout_qubit):
    grid = default_b_z_grid(step=0.02)
    amplitudes = []
    worst_fid = 1.0
    for bz in grid:
        # U0 once: the readout and the fidelity share its state
        prepared, readout = protocol_point(n, bz, B_X, epsilon, tau, readout_qubit)
        amplitudes.append(readout.amplitude)
        worst_fid = min(worst_fid, fidelity(prepared, ground_state(ChainParams(n, bz, B_X))))
    minima = find_minima(grid, amplitudes)
    print(f"N={n}, epsilon={epsilon}, tau={tau:.4f}, readout on qubit {readout_qubit}:")
    print("  amplitude minima:",
          ", ".join(f"B_z={b:+.3f} A={v:.3f}" for b, v in minima))
    print(f"  expected critical fields: {crossover_points(n)}")
    print(f"  worst prepared-state fidelity over the sweep: {worst_fid:.4f}")


if __name__ == "__main__":
    show_networks(3, (-2.0, 0.0, 2.0))
    show_networks(4, (-2.0, -1.0))

    print("--- readout scans ---")
    for eps in (0.2, 0.125):
        scan(3, eps, np.pi, readout_qubit=2)
    for eps in (0.5, 0.4):
        scan(4, eps, np.pi / 2, readout_qubit=1)

    print("\n--- protocol vs exact echo (approximation chain quality) ---")
    for n, eps, tau, interval in (
        (3, 0.2, np.pi, (-3.0, -1.0)),
        (4, 0.5, np.pi / 2, (-3.0, -1.44)),
    ):
        gap = protocol_vs_exact(n, B_X, eps, tau, interval)
        print(f"  N={n} interval {interval}: max |protocol - exact| = {gap:.4f}")
