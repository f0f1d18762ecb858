"""Imperfection channels and the deliberate "clumsy" invasiveness kick.

Four knobs degrade ideal statistics toward hardware-like numbers:
depolarizing error per real single-qubit pulse (p1) and per CNOT (p2),
a readout bit flip per measured qubit (eps_ro), and amplitude damping per
occupied idle cell (gamma_idle). Id, T and Tdg are timing delays rather
than pulses, so they attract idle damping only, never gate error. Empty
grid cells carry no noise at all. The channels are textbook closed forms
(Nielsen & Chuang, 2000, sec. 8.3): depolarizing, rho -> (1 - p) rho +
p Tr(rho) I/d on a pulse's d = 2 or a CNOT's d = 4 levels, and amplitude
damping, rho00 += gamma rho11, rho11 *= 1 - gamma, coherences *= sqrt(1 - gamma).

The kick is a unitary x-rotation (``qsim.x_rotation``) of the system qubit
attached to a named intermediate measurement: clumsy, but
macrorealistically innocent-looking, so the adroitness harness has to
catch it rather than a decoherence model.
It is applied directly after the measurement's block (copy CNOT and its
basis change); applied inside it, specific kick angles would be exactly
invisible to the epsilon tests.

``apply_noise`` compiles a program's circuits in one pass into steps, each
a (circuit index, qubits, superop) triple with a row-major superoperator:
one 16x16 step per CNOT and one 4x4 step per wire run between CNOTs, in
slot order. Each channel and each distinct gate fused with it are built
once per call (``_channels``, ``_fused``); a gate's is multiplied onto its
wire's running product, later gates on the left, and the kick joins that
product the same way. A rate of 0 is the identity channel; a noiseless Id
is skipped. A run prefix is keyed on its parent prefix and its
last gate, so each prefix the circuits share is multiplied once; nothing
outlives the call. A CNOT emits its operands' products as steps before its
own, and the products left at the end follow by qubit.
``NoisySimulation.final_density`` folds the steps over raw matrices with
``qsim.apply_channel`` and checks the final stack once, with
``qsim.check_density``; ``outcome_distribution`` zeroes round-off,
marginalizes each row onto its circuit's measured set with ``np.bincount``
and then flips the readout.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import Sequence

import numpy as np

from .circuit import KIND_CNOT, TIMING_KINDS, Circuit
from .qsim import (
    ATOL_ALGEBRA,
    ValidationError,
    _real,
    apply_channel,
    check_density,
    gate_matrix,
    superoperator,
    x_rotation,
)


@dataclass(frozen=True)
class NoiseModel:
    p1: float = 0.0
    p2: float = 0.0
    eps_ro: float = 0.0
    gamma_idle: float = 0.0
    # every circuit holding the read is kicked alike: B and F see the same O2 invasion
    kick: tuple[str, float] | None = None  # (measurement symbol, kappa)

    def __post_init__(self):
        for name in ("p1", "p2", "eps_ro", "gamma_idle"):
            v = _real(getattr(self, name), name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v!r}")
            object.__setattr__(self, name, v)
        if self.kick is not None:
            kick = self.kick
            if not (isinstance(kick, tuple) and len(kick) == 2 and isinstance(kick[0], str)):
                raise ValidationError(f"kick must be a (measurement symbol, angle) pair, "
                                      f"got {kick!r}")
            angle = _real(kick[1], "kick angle")
            if not -pi <= angle <= pi:
                raise ValidationError(f"kick angle must be in [-pi, pi], got {angle}")
            object.__setattr__(self, "kick", (kick[0], angle))


IDEAL = NoiseModel()

# Documented plausibility configuration: moves the ideal prediction row
# (-0.707, -0.707, 0.25) toward hardware-like values with the measured LG
# within 0.1 of -0.21. No claim of a physical fit.
PLAUSIBLE_NOISE = NoiseModel(p1=0.002, p2=0.05, eps_ro=0.01, gamma_idle=0.002)


# ---------------------------------------------------------------------------
# Channel-augmented simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoisySimulation:
    """A program compiled to (circuit index, qubits, superop) steps, one per CNOT and wire run."""

    circuits: tuple[Circuit, ...]
    model: NoiseModel
    steps: tuple[tuple[int, tuple[int, ...], np.ndarray], ...]

    def final_density(self) -> np.ndarray:
        """Fold each circuit's steps over |0..0><0..0|; the stack is checked once, here."""
        d = 1 << self.circuits[0].n_qubits
        ground = np.zeros((d, d), dtype=complex)
        ground[0, 0] = 1.0
        rho = [ground] * len(self.circuits)  # shared: apply_channel never writes its input
        for i, qubits, superop in self.steps:
            rho[i] = apply_channel(rho[i], superop, qubits)
        return check_density(np.stack(rho))

    def outcome_distribution(self) -> np.ndarray:
        """Each circuit's joint outcome probabilities, with readout flips folded in.

        Unmeasured qubits report 0, i.e. each row is marginalized onto its
        circuit's measured set; the flips follow qubit by qubit.
        """
        probs = np.real(np.diagonal(self.final_density(), axis1=1, axis2=2)).clip(min=0.0)
        # round-off (<= ATOL_ALGEBRA) becomes exactly 0: multinomial draws once per
        # non-zero entry, so residues would tie sampled tables to the evolution order
        probs[probs <= ATOL_ALGEBRA] = 0.0
        idx = np.arange(probs.shape[1])
        eps = self.model.eps_ro
        rows = []
        for row, circuit in zip(probs, self.circuits):
            row = np.bincount(idx & sum(1 << q for q in circuit.measured), weights=row,
                              minlength=row.size)
            if eps > 0.0:  # skipping the identity flips saves an ideal program 60-80 µs
                for q in circuit.measured:
                    row = (1 - eps) * row + eps * row[idx ^ (1 << q)]
            rows.append(row)
        return np.array(rows)


def _channels(model: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pulse, CNOT and idle channels' superoperators in ``qsim.superoperator``'s row-major
    convention; depolarizing is (1 - p) I + (p/d) vec(I) vec(I)^T. A rate of 0 is the
    identity channel, exactly."""
    def depolarizing(p: float, d: int) -> np.ndarray:
        flat = np.eye(d, dtype=complex).reshape(-1)
        return (1 - p) * np.eye(d * d, dtype=complex) + (p / d) * np.outer(flat, flat)

    gamma = model.gamma_idle
    s = sqrt(1 - gamma)
    idle = np.diag(np.array([1, s, s, 1 - gamma], dtype=complex))
    idle[0, 3] = gamma  # the population damped out of |1> lands in |0>
    return depolarizing(model.p1, 2), depolarizing(model.p2, 4), idle


def _fused(kind: str, param: float | None, pulse: np.ndarray, cnot: np.ndarray,
           idle: np.ndarray) -> np.ndarray:
    """Superoperator of a gate followed by its own channel.

    The channels are ``_channels``' triple; a rate of 0 is the identity
    channel. A timing delay (Id, T, Tdg) is not a pulse: full algebraic
    action, no gate error, idle damping instead. ``apply_noise`` skips a
    noiseless Id, builds each other gate's once per call and shares the
    array between every step and product that uses it, so it is read-only.
    """
    channel = cnot if kind == KIND_CNOT else idle if kind in TIMING_KINDS else pulse
    # ndarray.dot: the bits of @, faster on small products
    superop = channel.dot(superoperator([gate_matrix(kind, param)]))
    superop.setflags(write=False)
    return superop


def apply_noise(program: Sequence[Circuit], model: NoiseModel) -> NoisySimulation:
    """Compile a program's circuits into CNOT steps and, between them, one step per wire run.

    ``program`` holds one or more circuits of one qubit count; a single
    circuit is a one-entry program. The steps run circuit by circuit.
    Within a circuit, a CNOT's step follows its operands' runs, and the last
    runs follow by qubit. The kick applies to every circuit whose
    ``kick_anchors`` hold its symbol and joins the anchor's wire run before
    the first gate past the anchor's column, or at its end. A kick that no
    circuit holds is rejected. Steps with equal gates share one read-only
    array, within the call only.
    """
    circuits = tuple(program)
    if len({circuit.n_qubits for circuit in circuits}) != 1:
        raise ValidationError("a program needs one or more circuits of one qubit count")
    channels = _channels(model)  # each built once, shared by every gate that takes it
    # (kind, param) -> fused superoperator, the kick's under kind None
    table: dict[tuple[str | None, float | None], np.ndarray] = {}
    if model.kick is not None:
        symbol, kappa = model.kick
        if not any(symbol in circuit.kick_anchors for circuit in circuits):
            raise ValidationError(f"kick names measurement {symbol!r} absent from every circuit")
        table[None, kappa] = superoperator([x_rotation(kappa)])
        table[None, kappa].setflags(write=False)

    def fused(kind: str | None, param: float | None) -> np.ndarray:
        if (kind, param) not in table:
            table[kind, param] = _fused(kind, param, *channels)
        return table[kind, param]

    # (parent prefix, kind, param) -> prefix, an index into products: every
    # wire-run prefix of the program is multiplied once, later gates on the left
    prefixes: dict[tuple[int, str | None, float | None], int] = {}
    products: list[np.ndarray] = []
    quiet_idle = model.gamma_idle == 0.0  # read once: a test per gate slowed noisy tagging 2%
    steps: list[tuple[int, tuple[int, ...], np.ndarray]] = []
    for i, circuit in enumerate(circuits):
        ops = [(g.kind, g.param, g.qubits) for g in circuit.gates]
        if model.kick is not None and symbol in circuit.kick_anchors:
            q, col = circuit.kick_anchors[symbol]
            at = next((j for j, g in enumerate(circuit.gates) if g.slot > col), len(ops))
            ops.insert(at, (None, kappa, (q,)))
        runs = [-1] * circuit.n_qubits  # each wire's prefix since its last CNOT; -1 is none
        for kind, param, qubits in ops:
            if len(qubits) == 2:  # a CNOT
                steps.extend((i, (q,), products[runs[q]]) for q in qubits if runs[q] >= 0)
                steps.append((i, qubits, fused(kind, param)))
                for q in qubits:
                    runs[q] = -1
                continue
            # skipped, not multiplied as an identity: ideal-mode tagging 0.27 ms, not 0.51
            if quiet_idle and kind == "Id":
                continue
            q, = qubits
            key = (runs[q], kind, param)
            if key not in prefixes:
                superop = fused(kind, param)
                # ndarray.dot: the bits of @ on a 4x4 complex product, in about
                # two thirds of the time
                product = superop if runs[q] < 0 else superop.dot(products[runs[q]])
                product.setflags(write=False)  # shared by every run it starts
                products.append(product)
                prefixes[key] = len(products) - 1
            runs[q] = prefixes[key]
        steps.extend((i, (q,), products[p]) for q, p in enumerate(runs) if p >= 0)
    return NoisySimulation(circuits, model, tuple(steps))
