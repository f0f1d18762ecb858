"""Protocol construction, role binding, outcome mapping, plan execution."""
from math import cos, pi, sqrt

import numpy as np
import pytest

from lgadroit.circuit import DeviceConstraints, compile_circuit, validate
from lgadroit.noise import IDEAL, NoiseModel
from lgadroit.oracle import brute_force_distribution, marginal_distribution
from lgadroit.protocols import (
    PROTOCOL_POSITIONS,
    ExperimentPlan,
    ProtocolId,
    build_protocol,
    outcomes,
    position_gates,
    run_plan,
    shot_seed,
)
from lgadroit.qsim import ValidationError

THETA = -3 * pi / 4


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_protocol_a_is_init_plus_padding():
    pc = build_protocol(ProtocolId.A)
    wire = pc.circuit.wire(2)
    assert [g.kind for g in wire[:6]] == ["X", "H", "Sdg", "H", "T", "H"]
    assert all(g.kind == "Id" for g in wire[6:])
    assert pc.circuit.measured == (2,)
    assert pc.roles == {"O3": 2}


def test_protocol_f_uses_all_qubits_and_legal_cnots():
    pc = build_protocol(ProtocolId.F)
    assert pc.circuit.measured == (0, 1, 2, 3, 4)
    cnots = [g for g in pc.circuit.gates if g.kind == "CNOT"]
    assert len(cnots) == 4
    assert all(g.qubits[1] == 2 for g in cnots)
    assert pc.roles["O2"] == 1  # O2 on Q1, the long-relaxation ancilla


def test_ancilla_measurement_counts():
    expected = {"A": 0, "B": 1, "C": 1, "D": 1, "E": 1, "F": 4}
    for pid, n_anc in expected.items():
        pc = build_protocol(pid)
        assert len(pc.circuit.measured) == n_anc + 1
        assert 2 in pc.circuit.measured  # O3 is always Q2's terminal read


def test_all_protocols_validate_and_are_compile_fixpoints():
    for mode, constraints in (("device", DeviceConstraints.ibm5q()),
                              ("ideal", DeviceConstraints.ideal())):
        for pid in ProtocolId:
            pc = build_protocol(pid, THETA, mode)
            assert validate(pc.circuit, constraints) == []
            assert compile_circuit(pc.circuit) == pc.circuit


def test_protocols_share_one_slot_width():
    widths = {build_protocol(pid).circuit.n_slots for pid in ProtocolId}
    assert len(widths) == 1


def test_subset_of_f_position_by_position():
    for mode in ("device", "ideal"):
        f = build_protocol(ProtocolId.F, THETA, mode)
        for pid in "BCDE":
            p = build_protocol(pid, THETA, mode)
            for pos in p.position_windows:
                assert position_gates(p, pos) == position_gates(f, pos)
            spans = list(p.position_windows.values())
            rest = [g for g in p.circuit.gates
                    if not any(s0 <= g.slot < s1 for s0, s1 in spans)]
            assert all(g.kind in ("Id", "T", "Tdg") for g in rest)


def test_device_mode_rejects_other_angles():
    with pytest.raises(ValidationError):
        build_protocol(ProtocolId.A, theta=0.3, mode="device")
    build_protocol(ProtocolId.A, theta=0.3, mode="ideal")  # fine


def test_unprotected_protocol_changes_under_compile():
    raw = build_protocol(ProtocolId.B, countermeasures=False)
    assert compile_circuit(raw.circuit) != raw.circuit
    protected = build_protocol(ProtocolId.B)
    assert compile_circuit(protected.circuit) == protected.circuit


# ---------------------------------------------------------------------------
# Outcome mapping
# ---------------------------------------------------------------------------

def test_o3_plus_one_on_bit_one():
    pc = build_protocol(ProtocolId.A)
    out = outcomes({"00100": 3, "00000": 1}, pc.roles)
    assert out == {(1,): 3, (-1,): 1}


def test_f_pairs_q1_and_q2():
    roles = build_protocol(ProtocolId.F).roles
    out = outcomes({"01100": 2}, roles)  # Q1=1, Q2=1, ancillas 0
    # order: O2, M_int1, M_int2, M_int3, O3
    assert out == {(1, -1, -1, -1, 1): 2}


def test_all_ones_string_in_f():
    roles = build_protocol(ProtocolId.F).roles
    assert outcomes({"11111": 1}, roles) == {(1, 1, 1, 1, 1): 1}


def test_missing_role_bit_rejected():
    pc = build_protocol(ProtocolId.A)
    with pytest.raises(ValidationError):
        outcomes({"00": 1}, pc.roles)


# ---------------------------------------------------------------------------
# Deferred-measurement soundness
# ---------------------------------------------------------------------------

def test_b_marginal_equals_a_distribution_for_z_diagonal_state():
    # at theta=0 the initialized state is |1>, z-diagonal
    a = brute_force_distribution(build_protocol(ProtocolId.A, 0.0, "ideal"))
    b = brute_force_distribution(build_protocol(ProtocolId.B, 0.0, "ideal"))
    assert np.allclose(marginal_distribution(a, 2), marginal_distribution(b, 2), atol=1e-10)


def test_b_marginal_equals_a_distribution_at_device_angle():
    a = brute_force_distribution(build_protocol(ProtocolId.A))
    b = brute_force_distribution(build_protocol(ProtocolId.B))
    assert np.allclose(marginal_distribution(a, 2), marginal_distribution(b, 2), atol=1e-10)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValidationError):
        ExperimentPlan(shots=0)
    with pytest.raises(ValidationError):
        ExperimentPlan(repetitions=1)
    for seed in (-1, 2 ** 32, 2 ** 32 + 11):  # 2**32 + 11 would alias seed 11
        with pytest.raises(ValidationError):
            ExperimentPlan(base_seed=seed)
    ExperimentPlan(base_seed=2 ** 32 - 1)


def test_run_plan_is_deterministic():
    plan = ExperimentPlan(shots=512, repetitions=2, base_seed=5)
    r1 = run_plan(plan)
    r2 = run_plan(plan)
    for pid in ProtocolId:
        assert r1[pid].tables == r2[pid].tables


def test_seed_derivation_distinct_per_protocol_and_rep():
    seeds = {shot_seed(9, pid, rep) for pid in ProtocolId for rep in range(10)}
    assert len(seeds) == 60


def test_o3_frequency_matches_prediction_at_device_angle():
    plan = ExperimentPlan(repetitions=2)
    run = run_plan(plan)[ProtocolId.A]
    total = ones = 0
    for table in run.tables:
        for bits, n in table.items():
            total += n
            if bits[2] == "1":
                ones += n
    p = (1 + cos(THETA)) / 2  # 0.1464
    sigma = sqrt(p * (1 - p) / total)
    assert abs(ones / total - p) < 5 * sigma


def test_o3_deterministic_at_theta_zero():
    plan = ExperimentPlan(theta=0.0, gateset_mode="ideal", repetitions=2, shots=2048)
    run = run_plan(plan)[ProtocolId.A]
    assert all(set(t) == {"00100"} for t in run.tables)


@pytest.mark.parametrize("theta", [0.9 * pi, -0.4, 2.0])
def test_sampled_c_a_tracks_cos_theta_in_ideal_mode(theta):
    from lgadroit.analytics import correlator

    plan = ExperimentPlan(theta=theta, gateset_mode="ideal", repetitions=4, base_seed=8)
    run = run_plan(plan)[ProtocolId.A]
    c_a = correlator(run.tables, run.protocol.roles, ("O1", "O3"))
    sigma = max(c_a.stderr, sqrt(1 / (plan.shots * plan.repetitions)))
    assert abs(c_a.mean - cos(theta)) < 5 * sigma


def test_run_plan_with_kick_only_hits_b_and_f():
    model = NoiseModel(kick=("O2", 1.0))
    runs = run_plan(ExperimentPlan(shots=256, repetitions=2, noise=model))
    base = run_plan(ExperimentPlan(shots=256, repetitions=2, noise=IDEAL))
    for pid in (ProtocolId.A, ProtocolId.C, ProtocolId.D, ProtocolId.E):
        assert runs[pid].tables == base[pid].tables
    assert runs[ProtocolId.B].tables != base[ProtocolId.B].tables
