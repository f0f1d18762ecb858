"""Leggett-Garg test harness with adroitness (clumsiness) verification.

Builds the six-protocol program for a 5-qubit device with a fixed-target
CNOT topology, emulates the device compiler's peephole behavior and the
countermeasures that pin circuits against it, samples shots under a
configurable noise model, and reduces everything to the two result tables
with a two-part violation verdict. Closed-form, superoperator and
brute-force oracles cross-check every number.
"""
from .analytics import (
    AdroitnessReport,
    CorrelatorEstimate,
    LGReport,
    ProgramReport,
    ValueWithError,
    Verdict,
    adroitness,
    analyze,
    correlator,
    lg_quantity,
    no_signaling_check,
    verdict,
)
from .circuit import (
    Circuit,
    DeviceConstraints,
    Gate,
    QasmError,
    Violation,
    canonical_schedule,
    compile_circuit,
    from_qasm,
    insert_countermeasures,
    pass_collapse_hh,
    pass_hoist,
    to_qasm,
    validate,
)
from .noise import IDEAL, PLAUSIBLE_NOISE, NoiseModel, apply_noise, invasive_o2
from .oracle import (
    ThetaSweep,
    brute_force_correlators,
    circuit_unitary,
    closed_form_lg,
    superoperator_correlators,
    theta_sweep,
    violation_boundary,
)
from .protocols import (
    DEVICE_THETA,
    ExperimentPlan,
    ProtocolCircuit,
    ProtocolId,
    ProtocolRun,
    build_protocol,
    outcomes,
    run_plan,
)
from .qsim import DensityMatrix, InvariantError, ValidationError

__version__ = "0.1.0"
