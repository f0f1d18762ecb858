"""Grid model, device validation, compiler passes, countermeasures."""
import numpy as np
import pytest

from conftest import random_device_circuit
from lgadroit.circuit import (
    Circuit,
    DeviceConstraints,
    Gate,
    compile_circuit,
    insert_countermeasures,
    pass_collapse_hh,
    pass_hoist,
    validate,
)
from lgadroit.oracle import circuit_unitary
from lgadroit.qsim import ValidationError, matrices_equal_up_to_phase


def circ(n_qubits, n_slots, gates, measured=()):
    return Circuit(n_qubits, n_slots, tuple(gates), tuple(measured))


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def test_cell_collision_rejected():
    with pytest.raises(ValidationError):
        circ(2, 2, [Gate("H", (0,), 0), Gate("X", (0,), 0)])


def test_cnot_occupies_both_cells():
    with pytest.raises(ValidationError):
        circ(3, 2, [Gate("CNOT", (0, 2), 0), Gate("H", (2,), 0)])


def test_gate_operand_arity_enforced():
    with pytest.raises(ValidationError):
        Gate("CNOT", (1, 1), 0)
    with pytest.raises(ValidationError):
        Gate("H", (0, 1), 0)
    with pytest.raises(ValidationError):  # the evolution engine trusts a Circuit's operands
        circ(2, 1, [Gate("X", (2,), 0)])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_flags_cnot_target():
    c = circ(5, 1, [Gate("CNOT", (2, 1), 0)])
    rules = [v.rule for v in validate(c, DeviceConstraints.ibm5q())]
    assert rules == ["cnot_target"]


def test_validate_flags_double_measurement():
    c = circ(5, 1, [], measured=(2, 2))
    rules = [v.rule for v in validate(c, DeviceConstraints.ibm5q())]
    assert rules == ["max_measurements"]


def test_validate_empty_circuit_clean():
    assert validate(circ(5, 0, []), DeviceConstraints.ibm5q()) == []


def test_validate_flags_rotation_gates_on_device():
    c = circ(5, 1, [Gate("R", (2,), 0, param=0.5)])
    assert [v.rule for v in validate(c, DeviceConstraints.ibm5q())] == ["gate_kind"]
    assert validate(c, DeviceConstraints.ideal()) == []


# ---------------------------------------------------------------------------
# pass_collapse_hh
# ---------------------------------------------------------------------------

def test_adjacent_hh_collapses():
    c = circ(2, 2, [Gate("H", (1,), 0), Gate("H", (1,), 1)])
    assert pass_collapse_hh(c).gates == ()


def test_hh_with_t_tdg_between_survives():
    gates = [Gate("H", (1,), 0), Gate("T", (1,), 1), Gate("Tdg", (1,), 2), Gate("H", (1,), 3)]
    c = circ(2, 4, gates)
    assert pass_collapse_hh(c) == c


def test_lone_h_survives():
    c = circ(1, 3, [Gate("H", (0,), 1)])
    assert pass_collapse_hh(c) == c


def test_hh_separated_by_empty_cells_collapses():
    c = circ(1, 9, [Gate("H", (0,), 1), Gate("H", (0,), 7)])
    assert pass_collapse_hh(c).gates == ()


def test_four_h_collapse_pairwise():
    c = circ(1, 4, [Gate("H", (0,), s) for s in range(4)])
    assert pass_collapse_hh(c).gates == ()


def test_nested_hh_collapses_to_fixpoint():
    # H [H H] H: inner pair first, then the outer pair becomes adjacent
    c = circ(1, 6, [Gate("H", (0,), 0), Gate("H", (0,), 2),
                    Gate("H", (0,), 3), Gate("H", (0,), 5)])
    assert pass_collapse_hh(c).gates == ()


def test_cnot_cell_blocks_collapse():
    gates = [Gate("H", (0,), 0), Gate("CNOT", (0, 1), 1), Gate("H", (0,), 2)]
    c = circ(2, 3, gates)
    assert pass_collapse_hh(c) == c


# ---------------------------------------------------------------------------
# pass_hoist
# ---------------------------------------------------------------------------

def test_trailing_gate_hoists_to_measurement():
    c = circ(2, 10, [Gate("H", (1,), 1)], measured=(1,))
    out = pass_hoist(c)
    assert out.gates == (Gate("H", (1,), 9),)


def test_id_padding_blocks_hoist():
    gates = [Gate("H", (1,), 1)] + [Gate("Id", (1,), s) for s in range(2, 9)]
    c = circ(2, 10, gates, measured=(1,))
    out = pass_hoist(c)
    assert out.gate_at(1, 1) is not None and out.gate_at(1, 1).kind == "H"


def test_gate_adjacent_to_measurement_stays():
    c = circ(2, 10, [Gate("H", (1,), 9)], measured=(1,))
    assert pass_hoist(c) == c


def test_unmeasured_qubit_not_hoisted():
    c = circ(2, 10, [Gate("H", (1,), 1)], measured=())
    assert pass_hoist(c) == c


def test_hoist_skips_trailing_cnot_and_id():
    c = circ(3, 10, [Gate("CNOT", (0, 1), 1), Gate("Id", (2,), 3)], measured=(0, 1, 2))
    assert pass_hoist(c) == c


# ---------------------------------------------------------------------------
# insert_countermeasures
# ---------------------------------------------------------------------------

def _hh_gap_circuit():
    return circ(2, 6, [Gate("H", (1,), 1), Gate("H", (1,), 4)], measured=(1,))


def test_protect_inserts_t_tdg():
    out = insert_countermeasures(_hh_gap_circuit(), [(1, (1, 4))], [])
    assert [g.kind for g in out.wire(1)] == ["H", "T", "Tdg", "H"]


def test_protected_pair_survives_compile():
    out = insert_countermeasures(_hh_gap_circuit(), [(1, (1, 4))], [(1, (5, 6))])
    assert compile_circuit(out) == out


def test_protect_rejects_missing_site():
    with pytest.raises(ValidationError):
        insert_countermeasures(_hh_gap_circuit(), [(1, (0, 3))], [])


def test_protect_rejects_full_interior():
    base = circ(2, 4, [Gate("H", (1,), 0), Gate("X", (1,), 1),
                       Gate("Y", (1,), 2), Gate("H", (1,), 3)])
    with pytest.raises(ValidationError):
        insert_countermeasures(base, [(1, (0, 3))], [])


def test_pin_fills_window_with_id():
    c = circ(2, 6, [Gate("H", (0,), 0)], measured=(0,))
    out = insert_countermeasures(c, [], [(0, (1, 6))])
    assert [g.kind for g in out.wire(0)] == ["H"] + ["Id"] * 5
    assert compile_circuit(out) == out


def test_pin_rejects_full_window():
    c = circ(2, 3, [Gate("X", (0,), s) for s in range(3)])
    with pytest.raises(ValidationError):
        insert_countermeasures(c, [], [(0, (0, 3))])


def test_no_sites_no_windows_is_identity():
    c = _hh_gap_circuit()
    assert insert_countermeasures(c, [], []) == c


def test_countermeasures_preserve_unitary():
    c = circ(3, 6, [Gate("H", (1,), 1), Gate("H", (1,), 4), Gate("X", (0,), 0)])
    out = insert_countermeasures(c, [(1, (1, 4))], [(2, (0, 6))])
    assert matrices_equal_up_to_phase(circuit_unitary(out), circuit_unitary(c), atol=1e-12)


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def test_compile_collapses_and_hoists():
    gates = [Gate("H", (0,), 0), Gate("H", (0,), 1), Gate("X", (1,), 0)]
    c = circ(2, 6, gates, measured=(0, 1))
    out = compile_circuit(c)
    assert out.gates == (Gate("X", (1,), 5),)


def test_compile_idempotent_on_random_circuits():
    rng = np.random.default_rng(20)
    for _ in range(300):
        c = random_device_circuit(rng)
        once = compile_circuit(c)
        assert compile_circuit(once) == once


def test_compile_preserves_unitary_on_random_3q_circuits():
    rng = np.random.default_rng(21)
    for _ in range(60):
        c = random_device_circuit(rng, n_qubits=3, cnot_target=None)
        u_before = circuit_unitary(c)
        u_after = circuit_unitary(compile_circuit(c))
        assert matrices_equal_up_to_phase(u_after, u_before, atol=1e-12)
