"""Time-slotted circuit grid, device rules, compiler emulation, QASM subset.

A circuit is a grid of cells (qubit, slot) with at most one gate per cell;
a CNOT occupies the same slot on both operands. Measurements are terminal:
measured qubits are read once in the z basis after the last slot.

The compiler emulation reproduces the two documented behaviors of the
target device's compiler: adjacent-HH collapse and hoisting of trailing
single-qubit gates toward the measurement. The protocol builder pins its
circuits against both with T,Tdg spacers and Id padding.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .qsim import ValidationError

KINDS_1Q = ("X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg", "Id")
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
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if self.kind == KIND_CNOT:
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ValidationError("CNOT needs exactly 2 distinct operands")
        elif len(qubits) != 1:
            raise ValidationError(f"{self.kind} needs exactly 1 operand, got {qubits}")
        if self.slot < 0:
            raise ValidationError(f"slot must be >= 0, got {self.slot}")
        if self.kind in ROTATION_KINDS and self.param is None:
            raise ValidationError(f"{self.kind} gate needs an angle parameter")
        if self.kind not in ROTATION_KINDS and self.param is not None:
            raise ValidationError(f"{self.kind} gate takes no parameter")


def _sort_key(g: Gate):
    return (g.slot, g.qubits[0], g.kind)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    n_slots: int
    gates: tuple[Gate, ...]
    measured: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n_qubits <= 5:
            raise ValidationError(f"n_qubits must be 1..5, got {self.n_qubits}")
        if self.n_slots < 0:
            raise ValidationError(f"n_slots must be >= 0, got {self.n_slots}")
        gates = tuple(sorted(self.gates, key=_sort_key))
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "measured", tuple(sorted(self.measured)))
        cells: set[tuple[int, int]] = set()
        for g in gates:
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
    """Remove H pairs on the same qubit separated only by empty cells.

    One sweep reaches the fixpoint: only paired H gates are removed, so the
    gate that keeps two remaining H gates apart always stays.
    """
    removed: set[Gate] = set()
    for q in range(c.n_qubits):
        pending: Gate | None = None
        for g in c.gates:  # in slot order
            if q not in g.qubits:
                continue
            if g.kind == "H" and pending is not None:
                removed.update((pending, g))
                pending = None
            else:
                pending = g if g.kind == "H" else None
    return replace(c, gates=tuple(g for g in c.gates if g not in removed)) if removed else c


def pass_hoist(c: Circuit) -> Circuit:
    """Move each trailing single-qubit gate next to its qubit's measurement.

    A gate qualifies when it is followed only by empty cells on its wire.
    Id gates hold their cell and are never moved, which is what makes Id
    padding pin timing.
    """
    gates = list(c.gates)
    changed = False
    for q in c.measured:
        wire = sorted((g for g in gates if q in g.qubits), key=lambda g: g.slot)
        if not wire:
            continue
        last = wire[-1]
        if last.kind in (KIND_CNOT, "Id"):
            continue
        target = c.n_slots - 1
        if last.slot >= target:
            continue
        gates.remove(last)
        gates.append(replace(last, slot=target))
        changed = True
    return replace(c, gates=tuple(gates)) if changed else c


def compile_circuit(c: Circuit) -> Circuit:
    """Alternate HH collapse and hoisting to a fixpoint.

    Terminates: collapse strictly reduces the gate count and hoisting
    strictly increases the total of occupied slots, both bounded.
    """
    while True:
        nxt = pass_hoist(pass_collapse_hh(c))
        if nxt == c:
            return c
        c = nxt


# ---------------------------------------------------------------------------
# QASM subset
# ---------------------------------------------------------------------------
#
# Grammar (one statement per line, LF newlines, // comments):
#   OPENQASM 2.0;
#   include "qelib1.inc";          (optional on input)
#   qreg q[N];                     (single register, 1 <= N <= 5)
#   creg c[N];                     (optional on input)
#   x|y|z|h|s|sdg|t|tdg|id q[i];
#   cx q[i],q[j];
#   measure q[i] -> c[i];
#
# Slots are not encoded; parsing gives each statement its own slot and
# re-schedules the gates as early as possible (``canonical_schedule``).

_QASM_NAMES = {
    "X": "x", "Y": "y", "Z": "z", "H": "h", "S": "s", "Sdg": "sdg",
    "T": "t", "Tdg": "tdg", "Id": "id", KIND_CNOT: "cx",
}
_KIND_BY_NAME = {v: k for k, v in _QASM_NAMES.items()}

_RE_1Q = re.compile(r"^(x|y|z|h|s|sdg|t|tdg|id)\s+q\[(\d+)\]\s*;$")
_RE_CX = re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;$")
_RE_MEASURE = re.compile(r"^measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]\s*;$")
_RE_QREG = re.compile(r"^qreg\s+q\[(\d+)\]\s*;$")
_RE_CREG = re.compile(r"^creg\s+c\[(\d+)\]\s*;$")


class QasmError(ValidationError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


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


def from_qasm(text: str) -> Circuit:
    n_qubits: int | None = None
    done: set[int] = set()
    gates: list[Gate] = []
    measured: list[int] = []
    saw_header = False

    def check_q(lineno: int, q: int) -> None:
        if n_qubits is None:
            raise QasmError(lineno, "qreg declaration must come before gates")
        if q >= n_qubits:
            raise QasmError(lineno, f"q[{q}] out of range for qreg q[{n_qubits}]")
        if q in done:
            raise QasmError(lineno, f"gate after measurement of q[{q}]")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line == "OPENQASM 2.0;":
            saw_header = True
            continue
        if line.startswith("include"):
            continue
        if m := _RE_QREG.match(line):
            if n_qubits is not None:
                raise QasmError(lineno, "only one qreg is supported")
            n_qubits = int(m.group(1))
            if not 1 <= n_qubits <= 5:
                raise QasmError(lineno, f"qreg size {n_qubits} outside 1..5")
            continue
        if _RE_CREG.match(line):
            continue
        if m := _RE_1Q.match(line):
            q = int(m.group(2))
            check_q(lineno, q)
            gates.append(Gate(_KIND_BY_NAME[m.group(1)], (q,), len(gates)))
            continue
        if m := _RE_CX.match(line):
            ctl, tgt = int(m.group(1)), int(m.group(2))
            check_q(lineno, ctl)
            check_q(lineno, tgt)
            if ctl == tgt:
                raise QasmError(lineno, "cx operands must differ")
            gates.append(Gate(KIND_CNOT, (ctl, tgt), len(gates)))
            continue
        if m := _RE_MEASURE.match(line):
            q = int(m.group(1))
            check_q(lineno, q)
            measured.append(q)
            done.add(q)
            continue
        raise QasmError(lineno, f"unsupported statement: {line.split()[0]!r}")

    if not saw_header:
        raise QasmError(1, 'missing "OPENQASM 2.0;" header')
    if n_qubits is None:
        raise QasmError(1, "missing qreg declaration")
    return canonical_schedule(Circuit(n_qubits, len(gates), tuple(gates), tuple(measured)))


def canonical_schedule(c: Circuit) -> Circuit:
    """Reschedule every gate as early as possible.

    Preserves per-qubit gate order and CNOT slot alignment; two circuits
    have the same gate order iff their canonical schedules are equal.
    """
    next_slot = [0] * c.n_qubits
    gates: list[Gate] = []
    for g in c.gates:
        s = max(next_slot[q] for q in g.qubits)
        gates.append(replace(g, slot=s))
        for q in g.qubits:
            next_slot[q] = s + 1
    return Circuit(c.n_qubits, max(next_slot, default=0), tuple(gates), c.measured)
