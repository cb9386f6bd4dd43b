"""Single-fault test generation and diagnosis for quantum circuits.

The package computes, for each gate of a circuit, an input state that
best separates the healthy circuit from a faulty variant, the matching
two-outcome optimal measurement, and the table of outcome distributions
used to diagnose which gate (if any) is broken from sampled shots.
"""

from qatpg._version import __version__
from qatpg.linalg import (
    CMatrix,
    CVector,
    ConvergenceError,
    EigenPair,
    adjoint,
    eig_unitary,
    inner,
    is_unitary,
    matmul,
    tensor,
)
from qatpg.circuit import (
    Circuit,
    CircuitParseError,
    GateKind,
    PlacedGate,
    RotationConvention,
    apply,
    apply_adjoint,
    embed,
    gate_matrix,
    parse_circuit,
    serialize_circuit,
    split,
    unitary,
)
from qatpg.faults import FaultModel, FaultSpec, fault_operator, faulty_variant
from qatpg.separator import (
    PhaseClass,
    SeparatorSolution,
    circuit_separator,
    gate_separator,
    solve_opt,
)
from qatpg.helstrom import (
    HelstromTest,
    OutcomeTriplet,
    UndetectableFault,
    build_test,
    error_probability,
    outcome_probs,
    table_cells,
)
from qatpg.diagnosis import (
    ADAPTIVE,
    AmbiguousDiagnosis,
    CampaignConfig,
    DiagnosisResult,
    DiagnosticTable,
    build_table,
    classify,
    plan_shots,
    run_campaign,
    sample_outcome,
)

__all__ = [
    "ADAPTIVE",
    "AmbiguousDiagnosis",
    "CMatrix",
    "CVector",
    "CampaignConfig",
    "Circuit",
    "CircuitParseError",
    "ConvergenceError",
    "DiagnosisResult",
    "DiagnosticTable",
    "EigenPair",
    "FaultModel",
    "FaultSpec",
    "GateKind",
    "HelstromTest",
    "OutcomeTriplet",
    "PhaseClass",
    "PlacedGate",
    "RotationConvention",
    "SeparatorSolution",
    "UndetectableFault",
    "adjoint",
    "apply",
    "apply_adjoint",
    "build_table",
    "build_test",
    "circuit_separator",
    "classify",
    "eig_unitary",
    "embed",
    "error_probability",
    "fault_operator",
    "faulty_variant",
    "gate_matrix",
    "gate_separator",
    "inner",
    "is_unitary",
    "matmul",
    "outcome_probs",
    "parse_circuit",
    "plan_shots",
    "run_campaign",
    "sample_outcome",
    "serialize_circuit",
    "solve_opt",
    "split",
    "table_cells",
    "tensor",
    "unitary",
]
