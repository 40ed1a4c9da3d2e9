"""Loschmidt-echo detection of quantum critical points in finite
antiferromagnetic Ising chains under tilted magnetic fields.

The package computes the fixed-time echo exactly (dense spectral methods),
through second-order expansions and a two-level toy model, and through the
gate-network measurement protocol whose one-qubit readout amplitude dips at
the critical fields.
"""

from .criticality import EchoScan, echo_scan, find_minima, ground_state_approx, protocol_vs_exact
from .dynamics import (
    SpectralDecomposition,
    diagonalize,
    gap,
    ground_energy,
    ground_state,
    ground_states,
    loschmidt_echo_exact,
    spectral_for,
)
from .gates import Gate, apply_gates
from .hamiltonian import (
    ChainParams,
    ChainSizeError,
    MixingAngle,
    PhaseLabel,
    UnsupportedChainError,
    build_hamiltonian,
    closed_form_energy,
    closed_form_ground,
    crossover_points,
    default_b_z_grid,
    global_field_perturbation,
    mixing_angle,
    multiphase_family,
    phase_labels,
    phase_state,
)
from .network import (
    GateNetwork,
    ReadoutResult,
    parse_network,
    preparation_network,
    protocol_network,
    protocol_point,
    run_protocol,
    serialize_network,
)
from .perturbation import (
    DegenerateGapError,
    LandauZenerParams,
    echo_perturbative,
    echo_two_level,
    lz_echo_gaussian,
    lz_gap,
    lz_hamiltonian,
    lz_matrix_element_sq,
)
from .states import (
    HermitianOperator,
    PureState,
    basis_state,
    fidelity,
    superposition,
)

__version__ = "0.1.0"
