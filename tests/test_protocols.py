"""Protocol construction, role binding, outcome mapping, plan execution."""
import hashlib
from dataclasses import replace
from itertools import combinations
from math import cos, pi, sqrt

import numpy as np
import pytest

from lgadroit import protocols
from lgadroit.analytics import correlator
from lgadroit.circuit import compile_circuit, validate
from lgadroit.noise import IDEAL, NoiseModel
from lgadroit.oracle import brute_force_distribution
from lgadroit.protocols import (
    POSITION_ANCILLA,
    POSITION_SYMBOL,
    SYSTEM_QUBIT,
    ExperimentPlan,
    ProtocolId,
    build_protocol,
    compile_program,
    run_plan,
    shot_seeds,
)
from lgadroit.qsim import InvariantError, ValidationError, sample_counts

THETA = -3 * pi / 4


def block_windows(pc, mode):
    """Measurement position -> its [start, end) columns in ``pc``.

    O1 is all that protocol A lays out without countermeasures; an
    intermediate block is symmetric about its CNOT and ends at its kick anchor.
    """
    o1 = build_protocol(ProtocolId.A, THETA, mode, countermeasures=False).circuit
    windows = {1: (0, max(g.slot for g in o1.gates) + 1)}
    for pos, symbol in POSITION_SYMBOL.items():
        if symbol in pc.kick_anchors:
            end = pc.kick_anchors[symbol][1]
            cx = next(g.slot for g in pc.circuit.gates
                      if g.kind == "CNOT" and g.qubits[0] == POSITION_ANCILLA[pos])
            windows[pos] = (2 * cx - end, end + 1)
    return windows


def position_gates(pc, position, windows):
    """Gates of one measurement position: its slot window on its own qubits."""
    s0, s1 = windows[position]
    qubits = {SYSTEM_QUBIT} if position == 1 else {SYSTEM_QUBIT, POSITION_ANCILLA[position]}
    return {g for g in pc.circuit.gates if s0 <= g.slot < s1 and set(g.qubits) <= qubits}


def shot_product_mean(counts, roles, pair):
    """One table's mean product of a pair of reads: its correlator over two copies."""
    return correlator([counts, counts], roles, pair).mean


def marginal(probs, qubit):
    """(P(bit=0), P(bit=1)) for one qubit of a joint distribution."""
    bit = (np.arange(probs.size) >> qubit) & 1
    return probs[bit == 0].sum(), probs[bit == 1].sum()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_protocol_a_is_init_plus_padding():
    pc = build_protocol(ProtocolId.A)
    wire = [g for g in pc.circuit.gates if SYSTEM_QUBIT in g.qubits]
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
    for mode in ("device", "ideal"):
        program = compile_program(THETA, mode)
        assert list(program) == list(ProtocolId)
        for pid, pc in program.items():
            assert pc == build_protocol(pid, THETA, mode)
            assert compile_circuit(pc.circuit) == pc.circuit
            if mode == "device":
                assert validate(pc.circuit) == []


def test_protocols_share_one_slot_width():
    widths = {build_protocol(pid).circuit.n_slots for pid in ProtocolId}
    assert len(widths) == 1


def test_subset_of_f_position_by_position():
    for mode in ("device", "ideal"):
        f = build_protocol(ProtocolId.F, THETA, mode)
        f_windows = block_windows(f, mode)
        assert list(f_windows) == [1, 2, 3, 4, 5]
        for pid in "BCDE":
            p = build_protocol(pid, THETA, mode)
            windows = block_windows(p, mode)
            assert len(windows) == 2
            for pos in windows:
                assert windows[pos] == f_windows[pos]
                assert position_gates(p, pos, windows) == position_gates(f, pos, f_windows)
            spans = list(windows.values())
            rest = [g for g in p.circuit.gates
                    if not any(s0 <= g.slot < s1 for s0, s1 in spans)]
            assert all(g.kind in ("Id", "T", "Tdg") for g in rest)


# sha256 of the six protocols' gates, slots, reads, roles and kick anchors in
# both modes, with and without countermeasures
CIRCUITS_SHA256 = "00f41db5da5911bee555bfe6851d688bb5a7447c2912f676b41a639a4e57f6c7"


def test_protocol_circuits_golden():
    # the report goldens cannot see a misplaced countermeasure: idle damping
    # commutes with T, Tdg and Id, so swapping them leaves every report unchanged
    h = hashlib.sha256()
    for mode, theta in (("device", THETA), ("ideal", 0.4)):
        for countermeasures in (True, False):
            for pid in ProtocolId:
                pc = build_protocol(pid, theta, mode, countermeasures=countermeasures)
                c = pc.circuit
                gates = sorted((g.kind, g.qubits, g.slot, g.param) for g in c.gates)
                h.update(repr((pid.value, mode, countermeasures, c.n_slots, c.measured, gates,
                               sorted(pc.roles.items()), sorted(pc.kick_anchors.items()))).encode())
    assert h.hexdigest() == CIRCUITS_SHA256


def test_device_mode_rejects_other_angles():
    with pytest.raises(ValidationError):
        build_protocol(ProtocolId.A, theta=0.3, mode="device")
    with pytest.raises(ValidationError):
        build_protocol(ProtocolId.A, theta=float("nan"), mode="device")
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
    # three shots read +1, one reads -1
    assert shot_product_mean({"00100": 3, "00000": 1}, pc.roles, ("O1", "O3")) == 0.5


def test_f_pairs_q1_and_q2():
    roles = build_protocol(ProtocolId.F).roles
    counts = {"01100": 2}  # Q1=1, Q2=1, ancillas 0
    assert shot_product_mean(counts, roles, ("O2", "O3")) == 1.0
    assert shot_product_mean(counts, roles, ("O1", "M_int1")) == -1.0


def test_all_ones_string_in_f():
    roles = build_protocol(ProtocolId.F).roles
    for pair in combinations(["O1", *roles], 2):
        assert shot_product_mean({"11111": 1}, roles, pair) == 1.0, pair


def test_missing_role_bit_rejected():
    pc = build_protocol(ProtocolId.A)
    with pytest.raises(ValidationError):
        shot_product_mean({"00": 1}, pc.roles, ("O1", "O3"))


# ---------------------------------------------------------------------------
# Deferred-measurement soundness
# ---------------------------------------------------------------------------

def test_b_marginal_equals_a_distribution_for_z_diagonal_state():
    # at theta=0 the initialized state is |1>, z-diagonal
    a = brute_force_distribution(build_protocol(ProtocolId.A, 0.0, "ideal"))
    b = brute_force_distribution(build_protocol(ProtocolId.B, 0.0, "ideal"))
    assert np.allclose(marginal(a, 2), marginal(b, 2), atol=1e-10)


def test_b_marginal_equals_a_distribution_at_device_angle():
    a = brute_force_distribution(build_protocol(ProtocolId.A))
    b = brute_force_distribution(build_protocol(ProtocolId.B))
    assert np.allclose(marginal(a, 2), marginal(b, 2), atol=1e-10)


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
    seeds = {s for pid in ProtocolId for s in shot_seeds(9, pid, 10)}
    assert len(seeds) == 60
    assert shot_seeds(9, ProtocolId.C, 10)[:4] == shot_seeds(9, ProtocolId.C, 4)


def test_run_plan_samples_each_protocol_in_one_call(monkeypatch):
    plan = ExperimentPlan(shots=64, repetitions=5, base_seed=3)
    expected = run_plan(plan)
    calls = []

    def counting(probs, n_qubits, r, seeds):
        calls.append(list(seeds))
        return sample_counts(probs, n_qubits, r, seeds)

    monkeypatch.setattr(protocols, "sample_counts", counting)
    runs = run_plan(plan)
    assert calls == [shot_seeds(3, pid, 5) for pid in ProtocolId]
    assert all(runs[pid].tables == expected[pid].tables for pid in ProtocolId)


def test_run_plan_rejects_a_build_the_compiler_changes(monkeypatch):
    real = protocols.build_protocol
    monkeypatch.setattr(protocols, "build_protocol",
                        lambda pid, theta, mode: real(pid, theta, mode, countermeasures=False))
    with pytest.raises(InvariantError, match="^protocol A is not a compile fixpoint$"):
        run_plan(ExperimentPlan(shots=64, repetitions=2))


def test_run_plan_rejects_a_build_that_breaks_a_device_rule(monkeypatch):
    real = protocols.build_protocol

    def cnots_target_q1(pid, theta, mode):
        pc = real(pid, theta, mode)
        gates = tuple(replace(g, qubits=(SYSTEM_QUBIT, 1)) if g.qubits == (1, SYSTEM_QUBIT) else g
                      for g in pc.circuit.gates)
        return replace(pc, circuit=replace(pc.circuit, gates=gates))

    monkeypatch.setattr(protocols, "build_protocol", cnots_target_q1)
    with pytest.raises(InvariantError) as err:
        run_plan(ExperimentPlan(shots=64, repetitions=2))
    assert str(err.value) == ("protocol B is not device-legal: "
                              "cnot_target: CNOT at slot 9 targets q1, only q2 allowed")


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
