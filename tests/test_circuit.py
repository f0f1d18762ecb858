"""Grid model, device validation, compiler passes, countermeasures."""
from collections import namedtuple
from dataclasses import replace
from math import pi

import numpy as np
import pytest

from conftest import canonical_schedule, cell_map, random_device_circuit, read_qasm
from lgadroit.circuit import (
    TIMING_KINDS,
    Circuit,
    Gate,
    compile_circuit,
    pass_collapse_hh,
    pass_hoist,
    to_qasm,
    validate,
)
from lgadroit.noise import NoiseModel, apply_noise
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


@pytest.mark.parametrize("kind, slot, param, match", [
    ("Q", 0, None, "unknown gate kind 'Q'"),
    ("H", -1, None, "slot must be >= 0"),
    ("R", 0, None, "R gate needs an angle parameter"),
    ("H", 0, 0.5, "H gate takes no parameter"),
])
def test_gate_rejects_bad_fields(kind, slot, param, match):
    with pytest.raises(ValidationError, match=match):
        Gate(kind, (0,), slot, param)


@pytest.mark.parametrize("n_qubits, n_slots, gates, measured, match", [
    (0, 1, [], [], "n_qubits must be 1..5, got 0"),
    (6, 1, [], [], "n_qubits must be 1..5, got 6"),
    (2, -1, [], [], "n_slots must be >= 0, got -1"),
    (2, 1, [Gate("H", (0,), 1)], [], "lies past n_slots=1"),
    (2, 1, [], [2], "measured qubit 2 out of range"),
])
def test_circuit_rejects_bad_grids(n_qubits, n_slots, gates, measured, match):
    with pytest.raises(ValidationError, match=match):
        circ(n_qubits, n_slots, gates, measured)


# a float, a string or a bool as a grid position; the evolution indexes lists with them
NOT_INTEGERS = [1.5, 1.0, "1", True, np.True_, np.float64(1.0)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_gate_rejects_a_qubit_that_is_not_an_integer(value):
    with pytest.raises(ValidationError, match="a qubit must be an integer"):
        Gate("X", (value,), 0)
    with pytest.raises(ValidationError, match="a qubit must be an integer"):
        Gate("CNOT", (0, value), 0)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_gate_rejects_a_slot_that_is_not_an_integer(value):
    with pytest.raises(ValidationError, match="slot must be an integer"):
        Gate("X", (0,), value)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_circuit_rejects_a_width_that_is_not_an_integer(value):
    with pytest.raises(ValidationError, match="n_qubits must be an integer"):
        circ(value, 1, [])


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_circuit_rejects_a_slot_count_that_is_not_an_integer(value):
    with pytest.raises(ValidationError, match="n_slots must be an integer"):
        circ(2, value, [])


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_circuit_rejects_a_measured_qubit_that_is_not_an_integer(value):
    with pytest.raises(ValidationError, match="a measured qubit must be an integer"):
        circ(2, 1, [], [0, value])


@pytest.mark.parametrize("gates", [(Gate("H", (0,), 0), "X"), 5], ids=["str_entry", "int"])
def test_circuit_rejects_gates_that_are_not_a_sequence_of_gates(gates):
    # the sort by (slot, qubit, kind) raised AttributeError on the str and TypeError on the int
    with pytest.raises(ValidationError, match="gates must be a sequence of Gates"):
        Circuit(2, 1, gates, ())


def test_circuit_rejects_an_entry_with_the_attributes_of_a_gate():
    # the sort reads slot, qubits and kind off anything; none of Gate's checks ran on it
    lookalike = namedtuple("G", "slot qubits kind")(0, (0,), "X")
    with pytest.raises(ValidationError, match="gates must be a sequence of Gates"):
        Circuit(2, 1, (lookalike,), ())


def test_gate_rejects_an_ndarray_kind():
    # "in ALL_KINDS" compares with ==, and a one-element array's comparison is truthy
    with pytest.raises(ValidationError, match="unknown gate kind"):
        Gate(np.array(["X"]), (0,), 0)


def test_grid_positions_accept_numpy_integers():
    as_numpy = circ(np.int64(2), np.uint8(2), [Gate("H", (np.int32(0),), np.int64(0)),
                                              Gate("CNOT", (np.int64(0), np.uint16(1)), 1)],
                    [np.int64(1), 0])
    as_python = circ(2, 2, [Gate("H", (0,), 0), Gate("CNOT", (0, 1), 1)], [0, 1])
    assert as_numpy == as_python
    model = NoiseModel(p1=0.01, p2=0.05, gamma_idle=0.002)
    assert np.array_equal(apply_noise([as_numpy], model).outcome_distribution(),
                          apply_noise([as_python], model).outcome_distribution())


def test_kick_anchors_are_read_only_compared_and_not_hashed():
    anchors = {"K": (1, 0)}
    c = circ(2, 1, [Gate("H", (0,), 0)])
    kicked = replace(c, kick_anchors=anchors)
    anchors["K"] = (0, 0)  # the circuit keeps its own copy
    assert kicked.kick_anchors == {"K": (1, 0)} and c.kick_anchors == {}
    with pytest.raises(TypeError):
        kicked.kick_anchors["K"] = (0, 0)
    assert kicked != c and hash(kicked) == hash(c)
    assert kicked == replace(c, kick_anchors={"K": [np.int64(1), 0]})


def test_compile_keeps_kick_anchors_and_qasm_drops_them():
    # unprotected, B loses gates to both passes; its anchor rides along
    raw = build_protocol(ProtocolId.B, countermeasures=False)
    assert raw.kick_anchors == {"O2": (2, 10)}
    for compiled in (pass_collapse_hh(raw), pass_hoist(raw), compile_circuit(raw)):
        assert compiled != raw and compiled.kick_anchors == raw.kick_anchors
    assert canonical_schedule(raw).kick_anchors == read_qasm(to_qasm(raw)).kick_anchors == {}


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


def test_hh_with_id_between_collapses():
    # Id does not shield an HH pair; the Id cells themselves stay
    gates = [Gate("H", (1,), 0), Gate("Id", (1,), 1), Gate("Id", (1,), 2), Gate("H", (1,), 3)]
    c = circ(2, 4, gates)
    assert pass_collapse_hh(c).gates == (Gate("Id", (1,), 1), Gate("Id", (1,), 2))


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
    # device mode: the gap before each present block holds T, Tdg; any other gap Id, Id
    o1 = ["X", "H", "Sdg", "H", "T", "H"]
    z = ["H", "CNOT", "H"]
    theta = ["H", "Tdg", "H", "S", "CNOT", "Sdg", "H", "T", "H"]
    spacer = ["T", "Tdg"]
    f = build_protocol(ProtocolId.F)
    assert wire_kinds(f, SYSTEM_QUBIT) == o1 + spacer + z + spacer + theta + spacer + z \
        + spacer + theta
    b = build_protocol(ProtocolId.B)
    assert wire_kinds(b, SYSTEM_QUBIT) == o1 + spacer + z + ["Id"] * (2 + 9 + 2 + 3 + 2 + 9)
    e = build_protocol(ProtocolId.E)
    assert wire_kinds(e, SYSTEM_QUBIT) == o1 + ["Id"] * (2 + 3 + 2 + 9 + 2 + 3) + spacer + theta


def test_protected_pair_survives_compile():
    # B's first gap: without its T, Tdg the HH pair across it collapses
    b = build_protocol(ProtocolId.B)
    assert compile_circuit(b) == b
    cx = next(g.slot for g in b.gates if g.kind == "CNOT")
    gap = {(SYSTEM_QUBIT, cx - 3), (SYSTEM_QUBIT, cx - 2)}  # the two cells before the block's H
    assert [cell_map(b)[cell].kind for cell in sorted(gap)] == ["T", "Tdg"]
    bare = replace(b, gates=tuple(g for g in b.gates if (g.qubits[0], g.slot) not in gap))
    assert compile_circuit(bare) != bare


def test_every_spacer_pair_is_needed():
    # with Id, Id in place of any one T, Tdg spacer of a device protocol an
    # HH pair collapses across the gap, so the build is no compile fixpoint
    pairs = 0
    for pid in ProtocolId:
        c = build_protocol(pid)
        wire = [g for g in c.gates if SYSTEM_QUBIT in g.qubits]
        for t, tdg in zip(wire, wire[1:]):
            if (t.kind, tdg.kind, tdg.slot - t.slot) != ("T", "Tdg", 1):
                continue
            pairs += 1
            spaced = tuple(replace(g, kind="Id") if g in (t, tdg) else g for g in c.gates)
            bare = replace(c, gates=spaced)
            assert compile_circuit(bare) != bare, (pid, t.slot)
    assert pairs == 8  # one before each present block: B, C, D and E one each, F four


def test_pin_fills_window_with_id():
    # every Q2 cell is taken; each ancilla is H, CNOT, H, then Id to the last column
    for mode, theta in MODES:
        for pid in ProtocolId:
            c = build_protocol(pid, theta, mode)
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
            full = build_protocol(pid, theta, mode)
            bare = build_protocol(pid, theta, mode, countermeasures=False)
            assert (bare.n_slots, bare.measured) == (full.n_slots, full.measured)
            assert set(bare.gates) <= set(full.gates)
            assert {g.kind for g in set(full.gates) - set(bare.gates)} <= set(TIMING_KINDS)


def test_countermeasures_preserve_unitary():
    for mode, theta in MODES:
        for pid in ProtocolId:
            full = build_protocol(pid, theta, mode)
            bare = build_protocol(pid, theta, mode, countermeasures=False)
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


def loop_to_fixpoint(c):
    """The compiler emulation as HH collapse and hoisting alternated until nothing moves,
    each pass written wire by wire."""
    while True:
        gates = list(c.gates)
        for q in range(c.n_qubits):
            pending = None
            for g in [g for g in c.gates if q in g.qubits and g.kind != "Id"]:
                if g.kind == "H" and pending is not None:
                    gates.remove(pending)
                    gates.remove(g)
                    pending = None
                else:
                    pending = g if g.kind == "H" else None
        for q in c.measured:
            wire = sorted((g for g in gates if q in g.qubits), key=lambda g: g.slot)
            if wire and wire[-1].kind not in ("CNOT", "Id") and wire[-1].slot < c.n_slots - 1:
                gates[gates.index(wire[-1])] = replace(wire[-1], slot=c.n_slots - 1)
        nxt = replace(c, gates=tuple(gates))
        if nxt == c:
            return c
        c = nxt


@pytest.mark.parametrize("n_qubits", range(1, 6))
def test_compile_is_the_loop_fixpoint_on_random_circuits(n_qubits):
    # every CNOT target or none; one qubit has no CNOT
    targets = [None, *range(n_qubits)] if n_qubits > 1 else [None]
    rng = np.random.default_rng(30 + n_qubits)
    for i in range(400):
        c = random_device_circuit(rng, n_qubits, targets[i % len(targets)])
        assert compile_circuit(c) == loop_to_fixpoint(c)


def test_compile_preserves_unitary_on_random_3q_circuits():
    rng = np.random.default_rng(21)
    for _ in range(60):
        c = random_device_circuit(rng, n_qubits=3, cnot_target=None)
        u_before = circuit_unitary(c)
        u_after = circuit_unitary(compile_circuit(c))
        assert matrices_equal_up_to_phase(u_after, u_before, atol=1e-12)
