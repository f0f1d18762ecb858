"""Time-slotted circuit grid, device rules, compiler emulation, QASM export.

A circuit is a grid of cells (qubit, slot) with at most one gate per cell;
a CNOT occupies the same slot on both operands. Measurements are terminal:
measured qubits are read once in the z basis after the last slot. A kick
anchor, the cell where a read's block ends, is checked like a gate's cell.
``noise.apply_noise`` turns a program's circuits, each one's gates in slot
order, into superoperator steps.

The compiler emulation reproduces the two documented behaviors of the
target device's compiler: adjacent-HH collapse and hoisting of trailing
single-qubit gates toward the measurement. HH collapse looks through Id,
hoisting stops at it. The protocol builder pins its circuits against both
with T,Tdg spacers and Id padding.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from .qsim import GATE_MATRICES, ValidationError, _choice, _integer, _real

KINDS_1Q = tuple(GATE_MATRICES)  # the device's single-qubit gates
KIND_CNOT = "CNOT"
ROTATION_KINDS = ("R", "Rdg")  # exact theta rotations, ideal gateset only
TIMING_KINDS = ("Id", "T", "Tdg")  # timing delays, not pulses
ALL_KINDS = KINDS_1Q + (KIND_CNOT,) + ROTATION_KINDS

DEVICE_CNOT_TARGET = 2


@dataclass(frozen=True)
class Gate:
    """One gate on the grid. ``qubits`` is (q,) or (control, target) for CNOT."""

    kind: str
    qubits: tuple[int, ...]
    slot: int
    param: float | None = None

    def __post_init__(self):
        _choice(self.kind, ALL_KINDS, "gate kind")
        try:
            qubits = tuple(self.qubits)
        except TypeError:
            raise ValidationError(f"qubits must be a sequence, got {self.qubits!r}") from None
        object.__setattr__(self, "qubits", qubits)
        for q in qubits:
            _integer(q, "a qubit")
        if self.kind == KIND_CNOT:
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ValidationError("CNOT needs exactly 2 distinct operands")
        elif len(qubits) != 1:
            raise ValidationError(f"{self.kind} needs exactly 1 operand, got {qubits}")
        if _integer(self.slot, "slot") < 0:
            raise ValidationError(f"slot must be >= 0, got {self.slot}")
        if self.kind in ROTATION_KINDS:
            if self.param is None:
                raise ValidationError(f"{self.kind} gate needs an angle parameter")
            object.__setattr__(self, "param", _real(self.param, "angle"))
        elif self.param is not None:
            raise ValidationError(f"{self.kind} gate takes no parameter")


def _sort_key(g: Gate):
    return (g.slot, g.qubits[0], g.kind)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    n_slots: int
    gates: tuple[Gate, ...]
    measured: tuple[int, ...]
    # measurement symbol -> (qubit, its block's last column), stored read-only
    kick_anchors: Mapping[str, tuple[int, int]] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integer(self.n_qubits, "n_qubits"))
        object.__setattr__(self, "n_slots", _integer(self.n_slots, "n_slots"))
        try:
            gates = tuple(sorted(self.gates, key=_sort_key))
            measured = tuple(sorted(_integer(q, "a measured qubit") for q in self.measured))
        except (AttributeError, TypeError):  # not iterable, or an entry that is not a Gate
            raise ValidationError(f"gates must be a sequence of Gates and measured one of "
                                  f"qubits, got {self.gates!r} and {self.measured!r}") from None
        object.__setattr__(self, "measured", measured)
        if not 1 <= self.n_qubits <= 5:
            raise ValidationError(f"n_qubits must be 1..5, got {self.n_qubits}")
        if self.n_slots < 0:
            raise ValidationError(f"n_slots must be >= 0, got {self.n_slots}")
        object.__setattr__(self, "gates", gates)
        cells: set[tuple[int, int]] = set()
        for g in gates:
            if not isinstance(g, Gate):  # the sort reads any object with Gate's attributes
                raise ValidationError(f"gates must be a sequence of Gates, got an entry {g!r}")
            if g.slot >= self.n_slots:
                raise ValidationError(f"gate {g} lies past n_slots={self.n_slots}")
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValidationError(f"gate {g} touches qubit {q} out of range")
                if (q, g.slot) in cells:
                    raise ValidationError(f"cell (q{q}, slot {g.slot}) is occupied twice")
                cells.add((q, g.slot))
        for i, q in enumerate(self.measured):
            if not 0 <= q < self.n_qubits:
                raise ValidationError(f"measured qubit {q} out of range")
            if q in self.measured[:i]:  # measurements are terminal: one read per qubit
                raise ValidationError(f"q{q} is measured more than once")
        try:
            anchors = {symbol: (q, col) for symbol, (q, col) in dict(self.kick_anchors).items()}
        except (TypeError, ValueError):  # not a mapping, or an anchor that is not a pair
            raise ValidationError(f"kick_anchors must map symbols to (qubit, column) pairs, "
                                  f"got {self.kick_anchors!r}") from None
        for symbol, anchor in anchors.items():
            q, col = (_integer(v, "a kick anchor's qubit and column") for v in anchor)
            if not (0 <= q < self.n_qubits and 0 <= col < self.n_slots):
                raise ValidationError(f"kick anchor {anchor} of {symbol!r} is outside "
                                      "the circuit grid")
            anchors[symbol] = (q, col)
        object.__setattr__(self, "kick_anchors", MappingProxyType(anchors))


def validate(c: Circuit) -> list[str]:
    """Device rules as "rule: message" strings; an empty list means the circuit is device-legal.

    The device offers the gates of ``KINDS_1Q`` and CNOTs that target Q2.
    """
    out: list[str] = []
    for g in c.gates:
        if g.kind not in KINDS_1Q and g.kind != KIND_CNOT:
            out.append(f"gate_kind: {g.kind} at slot {g.slot} is not in the gate set")
        if g.kind == KIND_CNOT and g.qubits[1] != DEVICE_CNOT_TARGET:
            out.append(f"cnot_target: CNOT at slot {g.slot} targets q{g.qubits[1]}, "
                       f"only q{DEVICE_CNOT_TARGET} allowed")
    return out


# ---------------------------------------------------------------------------
# Compiler-emulation passes
# ---------------------------------------------------------------------------

def pass_collapse_hh(c: Circuit) -> Circuit:
    """Remove H pairs on the same qubit separated only by empty cells and Id.

    How the device's compiler treats Id is not documented, so the emulation
    takes the stricter rule: Id does not keep two H gates apart (it still
    stops hoisting). One sweep reaches the
    fixpoint: only paired H gates are removed, so the gate that keeps two
    remaining H gates apart always stays.
    """
    pending: dict[int, Gate] = {}  # qubit -> its unpaired H, while nothing but Id follows it
    removed: set[Gate] = set()
    for g in c.gates:  # in slot order
        if g.kind == "Id":
            continue
        if g.kind != "H":
            for q in g.qubits:
                pending.pop(q, None)
        elif (h := pending.pop(g.qubits[0], None)) is not None:
            removed.update((h, g))
        else:
            pending[g.qubits[0]] = g
    return replace(c, gates=tuple(g for g in c.gates if g not in removed)) if removed else c


def pass_hoist(c: Circuit) -> Circuit:
    """Move each trailing single-qubit gate next to its qubit's measurement.

    A gate qualifies when it is followed only by empty cells on its wire.
    Id gates hold their cell and are never moved, which is what makes Id
    padding pin timing.
    """
    last = {q: g for g in c.gates for q in g.qubits}  # gates in slot order: each wire's last
    target = c.n_slots - 1
    hoisted = {g: replace(g, slot=target) for q in c.measured if (g := last.get(q)) is not None
               and g.kind not in (KIND_CNOT, "Id") and g.slot < target}
    return replace(c, gates=tuple(hoisted.get(g, g) for g in c.gates)) if hoisted else c


def compile_circuit(c: Circuit) -> Circuit:
    """HH collapse, then hoisting: one round of each is the emulation's fixpoint.

    Collapse is its own fixpoint. Hoisting moves only a wire's last gate, so each
    wire keeps its gate order and no new H pair forms; a hoisted gate stays last.
    """
    return pass_hoist(pass_collapse_hh(c))


# ---------------------------------------------------------------------------
# QASM export
# ---------------------------------------------------------------------------
#
# to_qasm writes the OpenQASM 2.0 header, one qreg q[N] and one creg c[N], each gate
# in slot order as "x|y|z|h|s|sdg|t|tdg|id q[i];" or "cx q[i],q[j];", then one
# "measure q[i] -> c[i];" per measured qubit. Slots are not encoded.

_QASM_NAMES = {k: k.lower() for k in KINDS_1Q}  # a CNOT is written cx


def to_qasm(c: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{c.n_qubits}];", f"creg c[{c.n_qubits}];"]
    for g in c.gates:
        if g.kind in ROTATION_KINDS:
            raise ValidationError(f"{g.kind} is not in the QASM subset (device gates only)")
        if g.kind == KIND_CNOT:
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
        else:
            lines.append(f"{_QASM_NAMES[g.kind]} q[{g.qubits[0]}];")
    for q in c.measured:
        lines.append(f"measure q[{q}] -> c[{q}];")
    return "\n".join(lines) + "\n"
