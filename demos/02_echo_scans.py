"""Fixed-time echo scans over the longitudinal field.

Reproduces the desk-scale picture for 7- and 8-spin chains: sweeping B_z
with a small transverse field, the squared overlap between forward
evolution under H and backward evolution under the field-shifted H dips at
the crossover fields. The full second-order expansion and the single-mode
truncation are compared against the exact curve.
"""

import numpy as np

from isingcrit import crossover_points, default_b_z_grid, echo_scan

B_X, EPSILON, TAU = 0.1, 0.1, np.pi


def sparkline(values, width=60):
    idx = np.linspace(0, len(values) - 1, width).astype(int)
    chars = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(chars[round((hi - values[i]) / span * (len(chars) - 1))] for i in idx)


def run_chain(n):
    grid = default_b_z_grid(step=0.02)
    exact = echo_scan(n, B_X, EPSILON, TAU, grid)
    pert = echo_scan(n, B_X, EPSILON, TAU, grid, value_kind="perturbative_echo")
    two = echo_scan(n, B_X, EPSILON, TAU, grid, value_kind="two_level_echo")

    print(f"\nN={n}, B_x={B_X}, epsilon={EPSILON}, tau=pi "
          f"(dips mark the critical fields {crossover_points(n)})")
    print(f"  exact echo     {sparkline(exact.values)}")
    print(f"  full 2nd order {sparkline(pert.values)}")
    print(f"  single mode    {sparkline(two.values)}")
    print("  detected minima (exact):",
          ", ".join(f"B_z={b:+.3f} L={v:.3f}" for b, v in exact.minima))
    print(f"  max |exact - 2nd order|   = {np.max(np.abs(exact.values - pert.values)):.4f}")
    print(f"  max |exact - single mode| = {np.max(np.abs(exact.values - two.values)):.4f}")


if __name__ == "__main__":
    for n in (7, 8):
        run_chain(n)
