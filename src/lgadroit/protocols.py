"""The six-protocol program: circuit builders, role maps, ``bit_value``, plan execution.

The program measures a single system qubit (Q2) at up to six positions,
alternating theta- and z-basis reads:

    position 1   theta   O1, realized as initialization (X then R on Q2)
    position 2   z       intermediate, ancilla Q1 ("O2")
    position 3   theta   intermediate, ancilla Q0
    position 4   z       intermediate, ancilla Q4
    position 5   theta   intermediate, ancilla Q3
    position 6   z       O3, terminal read of Q2

Protocol A runs positions 1 and 6 only; B, C, D, E add exactly one of the
four intermediates; F runs all six. Every intermediate read is deferred:
the basis information is copied onto an ancilla with an H-conjugated CNOT
(the device only offers CNOTs targeting Q2) and the ancilla is read
terminally. All six protocols share one slot layout, so B-E are
position-faithful subsets of F and every protocol has the same duration.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from enum import Enum
from math import pi

from . import noise as noise_mod
from .circuit import (
    Circuit,
    DeviceConstraints,
    Gate,
    compile_circuit,
    insert_countermeasures,
    validate,
)
from .qsim import InvariantError, ValidationError, sample_counts

SYSTEM_QUBIT = 2
DEVICE_THETA = -3 * pi / 4


class ProtocolId(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"


PROTOCOL_POSITIONS: dict[ProtocolId, tuple[int, ...]] = {
    ProtocolId.A: (),
    ProtocolId.B: (2,),
    ProtocolId.C: (3,),
    ProtocolId.D: (4,),
    ProtocolId.E: (5,),
    ProtocolId.F: (2, 3, 4, 5),
}

POSITION_BASIS = {2: "z", 3: "theta", 4: "z", 5: "theta"}
POSITION_ANCILLA = {2: 1, 3: 0, 4: 4, 5: 3}
POSITION_SYMBOL = {2: "O2", 3: "M_int1", 4: "M_int2", 5: "M_int3"}

# Eq.-style decompositions in time order: R = H T H Sdg H as a matrix
# product applies H first, so the wire reads H, Sdg, H, T, H.
R_TIME_SEQ = ("H", "Sdg", "H", "T", "H")
RDG_TIME_SEQ = ("H", "Tdg", "H", "S", "H")
# theta-measurement block on Q2 with the HH pairs adjacent to the copy
# CNOT already collapsed (Rdg's trailing H against the pre-CNOT H, and the
# post-CNOT H against R's leading H).
THETA_PRE = ("H", "Tdg", "H", "S")
THETA_POST = ("Sdg", "H", "T", "H")


@dataclass(frozen=True)
class _Layout:
    width: int
    o1_end: int  # last O1 column
    gaps: dict[int, tuple[int, int]]  # position -> 2-cell gap before its block
    windows: dict[int, tuple[int, int]]  # position -> [start, end) block columns


def _layout(mode: str) -> _Layout:
    if mode == "device":
        o1_width, theta_width, gap = 6, 9, 2
    elif mode == "ideal":
        o1_width, theta_width, gap = 2, 5, 0
    else:
        raise ValidationError(f"unknown gateset mode {mode!r}")
    gaps: dict[int, tuple[int, int]] = {}
    windows: dict[int, tuple[int, int]] = {}
    col = o1_width
    for pos in (2, 3, 4, 5):
        if gap:
            gaps[pos] = (col, col + gap - 1)
            col += gap
        width = 3 if POSITION_BASIS[pos] == "z" else theta_width
        windows[pos] = (col, col + width)
        col += width
    return _Layout(col, o1_width - 1, gaps, windows)


@dataclass(frozen=True)
class ProtocolCircuit:
    protocol: ProtocolId
    circuit: Circuit
    roles: dict[str, int]  # measurement symbol -> measured qubit
    position_windows: dict[int, tuple[int, int]]
    kick_anchors: dict[str, tuple[int, int]]  # symbol -> (qubit, block's last column)


def build_protocol(
    protocol: ProtocolId | str,
    theta: float = DEVICE_THETA,
    mode: str = "device",
    countermeasures: bool = True,
) -> ProtocolCircuit:
    """Construct one protocol circuit on the shared 5-qubit slot layout.

    In device mode only theta = -3pi/4 is supported (the only angle whose
    rotation decomposes into the allowed gate set); ideal mode accepts any
    theta and uses exact R/Rdg rotation gates.
    """
    protocol = ProtocolId(protocol)
    lay = _layout(mode)
    device = mode == "device"
    if device and abs(theta - DEVICE_THETA) > 1e-9:
        raise ValidationError(f"device mode supports only theta = -3pi/4, got {theta}")

    gates: list[Gate] = []
    q = SYSTEM_QUBIT

    if device:
        for col, kind in enumerate(("X",) + R_TIME_SEQ):
            gates.append(Gate(kind, (q,), col))
    else:
        gates.append(Gate("X", (q,), 0))
        gates.append(Gate("R", (q,), 1, param=theta))

    positions = PROTOCOL_POSITIONS[protocol]
    roles = {"O3": q}
    kick_anchors: dict[str, tuple[int, int]] = {}
    protect: list[tuple[int, tuple[int, int]]] = []
    ancilla_pins: list[tuple[int, tuple[int, int]]] = []
    prev_end = lay.o1_end  # column of the last placed Q2 gate so far

    for pos in (2, 3, 4, 5):
        if pos not in positions:
            continue
        anc = POSITION_ANCILLA[pos]
        start, end = lay.windows[pos]
        if POSITION_BASIS[pos] == "z":
            cx_col = start + 1
            for col in (start, start + 2):
                gates.append(Gate("H", (q,), col))
                gates.append(Gate("H", (anc,), col))
        elif device:
            cx_col = start + 4
            for off, kind in enumerate(THETA_PRE):
                gates.append(Gate(kind, (q,), start + off))
            for off, kind in enumerate(THETA_POST):
                gates.append(Gate(kind, (q,), cx_col + 1 + off))
            gates.append(Gate("H", (anc,), cx_col - 1))
            gates.append(Gate("H", (anc,), cx_col + 1))
        else:
            cx_col = start + 2
            gates.append(Gate("Rdg", (q,), start, param=theta))
            gates.append(Gate("R", (q,), start + 4, param=theta))
            for col in (start + 1, start + 3):
                gates.append(Gate("H", (q,), col))
                gates.append(Gate("H", (anc,), col))
        gates.append(Gate("CNOT", (anc, q), cx_col))
        # a 2-cell gap directly after the previous Q2 gate leaves an
        # adjacent HH pair across it; mark it for T,Tdg protection
        if device and prev_end == lay.gaps[pos][0] - 1:
            protect.append((q, (prev_end, start)))
        prev_end = end - 1
        ancilla_pins.append((anc, (cx_col + 2, lay.width)))
        roles[POSITION_SYMBOL[pos]] = anc
        # the kick belongs after the complete measurement block; inside the
        # H-conjugation sandwich it would turn into a harmless z rotation
        kick_anchors[POSITION_SYMBOL[pos]] = (q, end - 1)

    measured = (q,) + tuple(POSITION_ANCILLA[p] for p in positions)
    raw = Circuit(5, lay.width, tuple(gates), measured)

    # pin Q2's remaining empty cells (everything after O1 that is neither a
    # block gate nor a reserved protect interior) so nothing can hoist and
    # all six protocols share one duration
    reserved = {(qq, s) for qq, (s1, s2) in protect for s in range(s1 + 1, s2)}
    pins = []
    run_start = None
    for s in range(lay.o1_end + 1, lay.width):
        if raw.empty(q, s) and (q, s) not in reserved:
            if run_start is None:
                run_start = s
        elif run_start is not None:
            pins.append((q, (run_start, s)))
            run_start = None
    if run_start is not None:
        pins.append((q, (run_start, lay.width)))
    pins.extend(ancilla_pins)

    circuit = insert_countermeasures(raw, protect, pins) if countermeasures else raw
    return ProtocolCircuit(
        protocol=protocol,
        circuit=circuit,
        roles=roles,
        position_windows={1: (0, lay.o1_end + 1), **{p: lay.windows[p] for p in positions}},
        kick_anchors=kick_anchors,
    )


# ---------------------------------------------------------------------------
# Outcome mapping
# ---------------------------------------------------------------------------

def bit_value(outcome: str, qubit: int) -> int:
    """Operational value of one read: bit 1 -> +1, bit 0 -> -1."""
    if qubit >= len(outcome):
        raise ValidationError(f"outcome string {outcome!r} has no bit for qubit {qubit}")
    return 1 if outcome[qubit] == "1" else -1


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    theta: float = DEVICE_THETA
    shots: int = 8192
    repetitions: int = 10
    base_seed: int = 11
    noise: noise_mod.NoiseModel = noise_mod.IDEAL
    gateset_mode: str = "device"

    def __post_init__(self):
        if not 1 <= self.shots <= 2**63 - 1:
            # numpy's multinomial takes the shot count as a C int64
            raise ValidationError(f"shots must be in [1, 2**63), got {self.shots}")
        if self.repetitions < 2:
            raise ValidationError("repetitions must be >= 2 (standard error needs >= 2)")
        if not 0 <= self.base_seed <= 0xFFFFFFFF:
            # shot_seeds keeps 32 bits: a wider seed would alias a narrower one
            raise ValidationError(f"seed must be in [0, 2**32), got {self.base_seed}")
        if self.gateset_mode not in ("device", "ideal"):
            raise ValidationError(f"unknown gateset mode {self.gateset_mode!r}")


@dataclass(frozen=True)
class ProtocolRun:
    protocol: ProtocolCircuit
    tables: tuple[dict[str, int], ...]  # one counts map per repetition


def shot_seeds(base_seed: int, protocol: ProtocolId, reps: int) -> list[int]:
    """Deterministic seeds of a protocol's repetitions 0..reps-1 (crc32, not salted hash)."""
    tag = protocol.value
    return [(base_seed ^ zlib.crc32(f"{tag}:{rep}".encode())) & 0xFFFFFFFF for rep in range(reps)]


def run_plan(plan: ExperimentPlan) -> dict[ProtocolId, ProtocolRun]:
    """Build, check, simulate and sample every protocol of the program.

    Deterministic: the sampling seed for each table is derived from
    (base_seed, protocol, repetition), so results do not depend on
    execution order and the fan-out may be parallelized freely. One
    ``sample_counts`` call draws all of a protocol's tables.
    """
    device = plan.gateset_mode == "device"
    constraints = DeviceConstraints() if device else DeviceConstraints.ideal()
    runs: dict[ProtocolId, ProtocolRun] = {}
    for protocol in ProtocolId:
        pc = build_protocol(protocol, plan.theta, plan.gateset_mode)
        bad = validate(pc.circuit, constraints)
        if bad:
            raise InvariantError(f"protocol {protocol.value} is not device-legal: {bad[0]}")
        if compile_circuit(pc.circuit) != pc.circuit:
            raise InvariantError(f"protocol {protocol.value} is not a compile fixpoint")
        model = plan.noise
        if model.kick is not None and model.kick[0] not in pc.kick_anchors:
            model = replace(model, kick=None)  # measurement absent from this protocol
        # looked up on the module, so that a replaced noise.apply_noise is the one called
        probs = noise_mod.apply_noise(pc.circuit, model, pc.kick_anchors).outcome_distribution()
        tables = sample_counts(probs, pc.circuit.n_qubits, plan.shots,
                               shot_seeds(plan.base_seed, protocol, plan.repetitions))
        runs[protocol] = ProtocolRun(pc, tables)
    return runs
