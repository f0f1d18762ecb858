"""The six-protocol program: builders, role maps, the checked compile stage, the run config.

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
``build_protocol`` lays out each circuit in one pass over Q2's columns and
places the countermeasures against the device's compiler (T,Tdg spacers
and Id padding) as it goes. ``compile_program`` builds all six and checks
them; the run and the QASM export both take their circuits from it.
"""
from __future__ import annotations

import sys
import zlib
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from math import pi
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import noise as noise_mod
from .circuit import ROTATION_KINDS, Circuit, Gate, compile_circuit, validate
from .qsim import InvariantError, ValidationError, sample_counts

SYSTEM_QUBIT = 2
DEVICE_THETA = -3 * pi / 4
GATESET_MODES = ("device", "ideal")
OUTPUT_FORMATS = ("table", "json", "csv")


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

# measurement symbol -> measured qubit of each protocol, the same in both modes
ROLES: Mapping[ProtocolId, Mapping[str, int]] = MappingProxyType({
    pid: MappingProxyType({"O3": SYSTEM_QUBIT,
                           **{POSITION_SYMBOL[p]: POSITION_ANCILLA[p] for p in positions}})
    for pid, positions in PROTOCOL_POSITIONS.items()
})

# Eq.-style decompositions in time order: R = H T H Sdg H as a matrix
# product applies H first, so the wire reads H, Sdg, H, T, H.
R_TIME_SEQ = ("H", "Sdg", "H", "T", "H")
# theta-measurement block on Q2 with the HH pairs adjacent to the copy
# CNOT already collapsed (Rdg's trailing H against the pre-CNOT H, and the
# post-CNOT H against R's leading H).
THETA_PRE = ("H", "Tdg", "H", "S")
THETA_POST = ("Sdg", "H", "T", "H")


@dataclass(frozen=True)
class ProtocolCircuit:
    circuit: Circuit
    kick_anchors: Mapping[str, tuple[int, int]]  # symbol -> (qubit, block's last column)

    def __post_init__(self):
        # a read-only copy: compile_program shares one ProtocolCircuit between runs
        object.__setattr__(self, "kick_anchors", MappingProxyType(dict(self.kick_anchors)))


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

    Q2's columns are O1, then for each position 2..5 a 2-cell gap (device
    mode only) and the position's block, or as many free cells if the
    protocol skips it. A block is (pre, CNOT, post) on Q2; its ancilla
    reads H, CNOT, H around the same column. Every block, O1 included,
    starts and ends with H on Q2 in device mode. With ``countermeasures``
    the gap before each present block holds T, Tdg, so the HH pair across
    it cannot collapse, not even with only Id between the two blocks; every
    other free Q2 cell after O1 and every ancilla cell from two columns
    after its CNOT holds Id, so nothing can hoist. T Tdg = Id = identity:
    the unitary does not change.
    """
    protocol = ProtocolId(protocol)
    if mode not in GATESET_MODES:
        raise ValidationError(f"unknown gateset mode {mode!r}")
    device = mode == "device"
    if device and not abs(theta - DEVICE_THETA) <= 1e-9:  # false for nan
        raise ValidationError(f"device mode supports only theta = -3pi/4, got {theta}")
    if device:
        o1, theta_block, gap = ("X",) + R_TIME_SEQ, (THETA_PRE, THETA_POST), 2
    else:
        o1, theta_block, gap = ("X", "R"), (("Rdg", "H"), ("H", "R")), 0

    q = SYSTEM_QUBIT
    gates: list[Gate] = []

    def on_q2(kinds: tuple[str, ...], start: int) -> int:
        """Place ``kinds`` on Q2 from column ``start``; return the next free column."""
        for col, kind in enumerate(kinds, start):
            gates.append(Gate(kind, (q,), col, theta if kind in ROTATION_KINDS else None))
        return start + len(kinds)

    positions = PROTOCOL_POSITIONS[protocol]
    kick_anchors: dict[str, tuple[int, int]] = {}
    free: list[int] = []  # Q2 columns after O1 that no gate takes
    cnots: list[tuple[int, int]] = []  # (ancilla, CNOT column)
    col = on_q2(o1, 0)

    for pos in (2, 3, 4, 5):
        present = pos in positions
        if gap and countermeasures and present:
            on_q2(("T", "Tdg"), col)
        else:
            free.extend(range(col, col + gap))
        col += gap
        pre, post = (("H",), ("H",)) if POSITION_BASIS[pos] == "z" else theta_block
        if present:
            anc = POSITION_ANCILLA[pos]
            cx = on_q2(pre, col)
            gates += [Gate("H", (anc,), cx - 1), Gate("CNOT", (anc, q), cx),
                      Gate("H", (anc,), cx + 1)]
            col = on_q2(post, cx + 1)
            cnots.append((anc, cx))
            # the kick belongs after the complete measurement block; inside the
            # H-conjugation sandwich it would turn into a harmless z rotation
            kick_anchors[POSITION_SYMBOL[pos]] = (q, col - 1)
        else:
            width = len(pre) + 1 + len(post)
            free.extend(range(col, col + width))
            col += width

    if countermeasures:
        gates += [Gate("Id", (q,), s) for s in free]
        gates += [Gate("Id", (anc,), s) for anc, cx in cnots for s in range(cx + 2, col)]
    measured = (q,) + tuple(POSITION_ANCILLA[p] for p in positions)
    return ProtocolCircuit(Circuit(5, col, tuple(gates), measured), kick_anchors)


# A noise scan compiles one (theta, mode) again and again; a theta sweep
# compiles each theta once, so the bound stays small.
@lru_cache(maxsize=4)
def compile_program(theta: float, mode: str) -> Mapping[ProtocolId, ProtocolCircuit]:
    """Build the six protocols and check each one as the device would receive it.

    In device mode every circuit must obey the device rules (``validate``);
    in every mode it must be a fixpoint of the compiler emulation, so that
    the device runs the circuit as designed. A failed check is the
    builder's fault and raises ``InvariantError``.

    Circuits depend on nothing but (theta, mode), so the result is cached
    on them and shared by every caller: the mapping, each
    ``ProtocolCircuit`` and its ``kick_anchors`` are read-only. A failed
    check is not cached.
    """
    program: dict[ProtocolId, ProtocolCircuit] = {}
    for protocol in ProtocolId:
        pc = build_protocol(protocol, theta, mode)
        if mode == "device" and (bad := validate(pc.circuit)):
            raise InvariantError(f"protocol {protocol.value} is not device-legal: {bad[0]}")
        if compile_circuit(pc.circuit) != pc.circuit:
            raise InvariantError(f"protocol {protocol.value} is not a compile fixpoint")
        program[protocol] = pc
    return MappingProxyType(program)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One run's configuration, keyed like the JSON config document, checked once.

    Defaults reproduce the reference setup. Every check raises
    ``ValidationError``. The real-valued keys are coerced to float, so a
    document's 1 echoes as 1.0, like ``--theta 1``; ``mode=None`` resolves
    to device at theta = -3pi/4 and to ideal elsewhere.
    """

    theta: float = DEVICE_THETA
    shots: int = 8192
    repetitions: int = 10
    seed: int = 11
    mode: str | None = None
    p1: float = 0.0
    p2: float = 0.0
    eps_ro: float = 0.0
    gamma_idle: float = 0.0
    kick: float = 0.0  # clumsiness kick angle on the position-2 measurement O2
    format: str = "table"
    out: str | None = None

    def __post_init__(self):
        for key in ("shots", "repetitions", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{key} must be an integer, got {value!r}")
        for key in ("theta", "p1", "p2", "eps_ro", "gamma_idle", "kick"):
            value = getattr(self, key)
            # the comparison is false for nan and inf, and exact for huge ints
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise ValidationError(f"{key} must be a finite number, got {value!r}")
            object.__setattr__(self, key, float(value))
        for key, allowed in (("format", OUTPUT_FORMATS), ("mode", GATESET_MODES + (None,))):
            value = getattr(self, key)
            if value not in allowed:
                raise ValidationError(f"{key} must be one of {allowed}, got {value!r}")
        if self.out is not None and (not isinstance(self.out, str) or "\0" in self.out):
            raise ValidationError(f"out must be a path string or null, got {self.out!r}")
        if not 1 <= self.shots <= 2**63 - 1:
            # numpy's multinomial takes the shot count as a C int64
            raise ValidationError(f"shots must be in [1, 2**63), got {self.shots}")
        if self.repetitions < 2:
            raise ValidationError("repetitions must be >= 2 (standard error needs >= 2)")
        if not 0 <= self.seed <= 0xFFFFFFFF:
            # shot_seeds keeps 32 bits: a wider seed would alias a narrower one
            raise ValidationError(f"seed must be in [0, 2**32), got {self.seed}")
        on_device_theta = abs(self.theta - DEVICE_THETA) <= 1e-9
        if self.mode is None:
            object.__setattr__(self, "mode", "device" if on_device_theta else "ideal")
        elif self.mode == "device" and not on_device_theta:
            raise ValidationError("device mode supports only theta = -3pi/4; use --mode ideal")
        self.noise_model()  # NoiseModel checks the rates and the kick angle

    def noise_model(self) -> noise_mod.NoiseModel:
        model = noise_mod.NoiseModel(p1=self.p1, p2=self.p2, eps_ro=self.eps_ro,
                                     gamma_idle=self.gamma_idle)
        return noise_mod.invasive_o2(model, self.kick) if self.kick != 0.0 else model


def shot_seeds(seed: int, protocol: ProtocolId, reps: int) -> list[int]:
    """Deterministic seeds of a protocol's repetitions 0..reps-1 (crc32, not salted hash)."""
    tag = protocol.value
    return [(seed ^ zlib.crc32(f"{tag}:{rep}".encode())) & 0xFFFFFFFF for rep in range(reps)]


def run_plan(cfg: RunConfig) -> dict[ProtocolId, np.ndarray]:
    """Compile, simulate and sample every protocol of the program.

    Each protocol maps to its read-only (reps, 2**5) int64 count array, a
    row of the stack ``sample_counts`` returns; ``ROLES`` names the qubit of
    each read.

    Deterministic: the sampling seed for each table is derived from
    (seed, protocol, repetition), so results do not depend on
    execution order and the fan-out may be parallelized freely. All six
    protocols are evolved first; then one ``sample_counts`` call draws all
    of a program's tables.
    """
    noise = cfg.noise_model()
    program = compile_program(cfg.theta, cfg.mode)
    probs = []
    for pc in program.values():
        model = noise
        if model.kick is not None and model.kick[0] not in pc.kick_anchors:
            model = replace(model, kick=None)  # O2 is absent from this protocol
        # looked up on the module, so that a replaced noise.apply_noise is the one called
        probs.append(noise_mod.apply_noise(pc.circuit, model, pc.kick_anchors)
                     .outcome_distribution())
    tables = sample_counts(np.array(probs), program[ProtocolId.A].circuit.n_qubits, cfg.shots,
                           [shot_seeds(cfg.seed, protocol, cfg.repetitions)
                            for protocol in program])
    return dict(zip(program, tables))
