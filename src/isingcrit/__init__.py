"""Loschmidt-echo detection of quantum critical points in finite
antiferromagnetic Ising chains under tilted magnetic fields.

The package computes the fixed-time echo exactly (dense spectral methods),
through second-order expansions and a two-level toy model, and through the
gate-network measurement protocol whose one-qubit readout amplitude dips at
the critical fields.
"""

from .criticality import (
    EchoScan,
    MixingAngle,
    default_b_z_grid,
    echo_scan,
    find_minima,
    ground_state_approx,
    ground_state_approx_even,
    ground_state_approx_odd,
    mixing_angle_even,
    mixing_angle_odd,
)
from .dynamics import (
    SpectralDecomposition,
    diagonalize,
    gap,
    ground_energy,
    ground_state,
    loschmidt_echo_exact,
    propagate,
    spectral_for,
)
from .gates import Gate, apply_gate, apply_gates
from .hamiltonian import (
    ChainParams,
    ChainSizeError,
    PhaseLabel,
    UnsupportedChainError,
    build_hamiltonian,
    closed_form_energy,
    closed_form_ground,
    crossover_points,
    global_field_perturbation,
    multiphase_family,
    phase_labels,
    phase_state,
)
from .network import (
    GateNetwork,
    ReadoutResult,
    build_preparation_network,
    cancel_swap_pairs,
    parse_network,
    preparation_network,
    protocol_network,
    protocol_vs_exact,
    run_protocol,
    serialize_network,
)
from .perturbation import (
    DegenerateGapError,
    LandauZenerParams,
    echo_amplitude_expansion,
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
    pauli_string_apply,
    superposition,
)

__version__ = "0.1.0"
