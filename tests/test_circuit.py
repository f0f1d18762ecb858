"""Grid model, device validation, compiler passes, countermeasures."""
from dataclasses import replace
from math import pi

import numpy as np
import pytest

from conftest import cell_map, random_device_circuit
from lgadroit.circuit import (
    TIMING_KINDS,
    Circuit,
    Gate,
    compile_circuit,
    pass_collapse_hh,
    pass_hoist,
    validate,
)
from lgadroit.oracle import circuit_unitary
from lgadroit.protocols import SYSTEM_QUBIT, ProtocolId, build_protocol
from lgadroit.qsim import ValidationError, matrices_equal_up_to_phase


def circ(n_qubits, n_slots, gates, measured=()):
    return Circuit(n_qubits, n_slots, tuple(gates), tuple(measured))


def wire_kinds(c, q):
    """Kinds of the gates on qubit ``q`` in slot order."""
    return [g.kind for g in c.gates if q in g.qubits]


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
    assert validate(c) == ["cnot_target: CNOT at slot 0 targets q1, only q2 allowed"]


def test_validate_flags_double_measurement():
    # one read per qubit is a rule of the grid, so no Circuit can break it
    with pytest.raises(ValidationError, match="q2 is measured more than once"):
        circ(5, 1, [], measured=(2, 0, 2))


def test_validate_empty_circuit_clean():
    assert validate(circ(5, 0, [])) == []


def test_validate_flags_rotation_gates_on_device():
    c = circ(5, 1, [Gate("R", (2,), 0, param=0.5)])
    assert validate(c) == ["gate_kind: R at slot 0 is not in the gate set"]


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


def test_collapse_idempotent_on_random_circuits():
    # one sweep must reach the fixpoint the passes alternate towards
    rng = np.random.default_rng(22)
    for _ in range(300):
        once = pass_collapse_hh(random_device_circuit(rng))
        assert pass_collapse_hh(once) == once


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
    assert cell_map(out)[(1, 1)].kind == "H"


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
# countermeasures, as protocols.build_protocol places them
# ---------------------------------------------------------------------------

MODES = (("device", -3 * pi / 4), ("ideal", 0.4))


def test_protect_inserts_t_tdg():
    # device mode: a gap between two present blocks holds T, Tdg; any other gap Id, Id
    o1 = ["X", "H", "Sdg", "H", "T", "H"]
    z = ["H", "CNOT", "H"]
    theta = ["H", "Tdg", "H", "S", "CNOT", "Sdg", "H", "T", "H"]
    spacer = ["T", "Tdg"]
    f = build_protocol(ProtocolId.F).circuit
    assert wire_kinds(f, SYSTEM_QUBIT) == o1 + spacer + z + spacer + theta + spacer + z \
        + spacer + theta
    b = build_protocol(ProtocolId.B).circuit
    assert wire_kinds(b, SYSTEM_QUBIT) == o1 + spacer + z + ["Id"] * (2 + 9 + 2 + 3 + 2 + 9)
    e = build_protocol(ProtocolId.E).circuit
    assert wire_kinds(e, SYSTEM_QUBIT) == o1 + ["Id"] * (2 + 3 + 2 + 9 + 2 + 3 + 2) + theta


def test_protected_pair_survives_compile():
    # B's first gap: without its T, Tdg the HH pair across it collapses
    b = build_protocol(ProtocolId.B).circuit
    assert compile_circuit(b) == b
    cx = next(g.slot for g in b.gates if g.kind == "CNOT")
    gap = {(SYSTEM_QUBIT, cx - 3), (SYSTEM_QUBIT, cx - 2)}  # the two cells before the block's H
    assert [cell_map(b)[cell].kind for cell in sorted(gap)] == ["T", "Tdg"]
    bare = replace(b, gates=tuple(g for g in b.gates if (g.qubits[0], g.slot) not in gap))
    assert compile_circuit(bare) != bare


def test_pin_fills_window_with_id():
    # every Q2 cell is taken; each ancilla is H, CNOT, H, then Id to the last column
    for mode, theta in MODES:
        for pid in ProtocolId:
            c = build_protocol(pid, theta, mode).circuit
            cells = cell_map(c)
            assert all((SYSTEM_QUBIT, s) in cells for s in range(c.n_slots))
            for anc in set(c.measured) - {SYSTEM_QUBIT}:
                wire = [g for g in c.gates if anc in g.qubits]
                assert [g.kind for g in wire[:3]] == ["H", "CNOT", "H"]
                assert [g.slot for g in wire[3:]] == list(range(wire[2].slot + 1, c.n_slots))
                assert all(g.kind == "Id" for g in wire[3:])


def test_no_sites_no_windows_is_identity():
    # without countermeasures a build is the same circuit less its timing gates
    for mode, theta in MODES:
        for pid in ProtocolId:
            full = build_protocol(pid, theta, mode).circuit
            bare = build_protocol(pid, theta, mode, countermeasures=False).circuit
            assert (bare.n_slots, bare.measured) == (full.n_slots, full.measured)
            assert set(bare.gates) <= set(full.gates)
            assert {g.kind for g in set(full.gates) - set(bare.gates)} <= set(TIMING_KINDS)


def test_countermeasures_preserve_unitary():
    for mode, theta in MODES:
        for pid in ProtocolId:
            full = build_protocol(pid, theta, mode).circuit
            bare = build_protocol(pid, theta, mode, countermeasures=False).circuit
            assert full != bare
            assert matrices_equal_up_to_phase(circuit_unitary(full), circuit_unitary(bare),
                                              atol=1e-12)


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
