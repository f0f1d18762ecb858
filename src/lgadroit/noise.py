"""Imperfection channels and the deliberate "clumsy" invasiveness kick.

Four knobs degrade ideal statistics toward hardware-like numbers:
depolarizing error per real single-qubit pulse (p1) and per CNOT (p2),
a readout bit flip per measured qubit (eps_ro), and amplitude damping per
occupied idle cell (gamma_idle). Id, T and Tdg are timing delays rather
than pulses, so they attract idle damping only, never gate error. Empty
grid cells carry no noise at all.

The kick is a unitary x-rotation of the system qubit attached to a named
intermediate measurement: clumsy, but macrorealistically innocent-looking,
so the adroitness harness has to catch it rather than a decoherence model.
It is applied directly after the measurement's block (copy CNOT and its
basis change); applied inside it, specific kick angles would be exactly
invisible to the epsilon tests.

``apply_noise`` compiles a circuit into one superoperator step per gate,
the gate fused with its own channel (4x4 on one qubit, 16x16 on a CNOT),
plus the kick. ``NoisySimulation.final_density`` folds the steps over a
raw matrix with ``qsim.apply_channel`` and checks the density-matrix
invariants once, on the final state; readout flips are folded into the
outcome distribution.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import pi

import numpy as np

from .circuit import KIND_CNOT, TIMING_KINDS, Circuit
from .qsim import (
    DensityMatrix,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ID2,
    ValidationError,
    apply_channel,
    gate_matrix,
    superoperator,
)


@dataclass(frozen=True)
class NoiseModel:
    p1: float = 0.0
    p2: float = 0.0
    eps_ro: float = 0.0
    gamma_idle: float = 0.0
    kick: tuple[str, float] | None = None  # (measurement symbol, kappa)

    def __post_init__(self):
        for name in ("p1", "p2", "eps_ro", "gamma_idle"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.kick is not None:
            symbol, kappa = self.kick
            if not -pi <= kappa <= pi:
                raise ValidationError(f"kick angle must be in [-pi, pi], got {kappa}")
            object.__setattr__(self, "kick", (str(symbol), float(kappa)))

    @property
    def quiet(self) -> bool:
        return self.p1 == self.p2 == self.eps_ro == self.gamma_idle == 0.0 and self.kick is None


IDEAL = NoiseModel()

# Documented plausibility configuration: moves the ideal prediction row
# (-0.707, -0.707, 0.25) toward hardware-like values with the measured LG
# within 0.1 of -0.21. No claim of a physical fit.
PLAUSIBLE_NOISE = NoiseModel(p1=0.002, p2=0.05, eps_ro=0.01, gamma_idle=0.002)


def invasive_o2(model: NoiseModel, kappa: float) -> NoiseModel:
    """Attach a clumsiness kick to the position-2 intermediate measurement.

    The kick rides along wherever that measurement occurs, so protocols B
    and F see the identical invasion.
    """
    return replace(model, kick=("O2", float(kappa)))


def x_rotation(kappa: float) -> np.ndarray:
    """exp(-i kappa sigma_x / 2)."""
    c, s = np.cos(kappa / 2), np.sin(kappa / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


# ---------------------------------------------------------------------------
# Kraus sets
# ---------------------------------------------------------------------------

def depolarizing_1q(p: float) -> list[np.ndarray]:
    return [
        np.sqrt(1 - 3 * p / 4) * ID2,
        np.sqrt(p / 4) * PAULI_X,
        np.sqrt(p / 4) * PAULI_Y,
        np.sqrt(p / 4) * PAULI_Z,
    ]


def depolarizing_2q_factors(p: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two-qubit depolarizing as weighted Pauli-pair Kraus factors."""
    paulis = [ID2, PAULI_X, PAULI_Y, PAULI_Z]
    out = []
    for i, a in enumerate(paulis):
        for j, b in enumerate(paulis):
            w = 1 - 15 * p / 16 if i == j == 0 else p / 16
            out.append((np.sqrt(w) * a, b))
    return out


def amplitude_damping(gamma: float) -> list[np.ndarray]:
    return [
        np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
    ]


# ---------------------------------------------------------------------------
# Channel-augmented simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    """One contraction: a gate fused with its own noise channel, or the kick."""

    slot: int
    label: str
    qubits: tuple[int, ...]
    superop: np.ndarray  # row-major, 4x4 on one qubit, 16x16 on two


@dataclass(frozen=True)
class NoisySimulation:
    """A circuit compiled to one superoperator step per gate (and the kick)."""

    circuit: Circuit
    model: NoiseModel
    steps: tuple[Step, ...]

    def final_density(self) -> DensityMatrix:
        """Fold the steps over |0..0><0..0|; the invariants are checked once, here."""
        n = self.circuit.n_qubits
        rho = np.zeros((1 << n, 1 << n), dtype=complex)
        rho[0, 0] = 1.0
        for step in self.steps:
            rho = apply_channel(rho, step.superop, step.qubits, n)
        return DensityMatrix(n, rho)

    def outcome_distribution(self) -> np.ndarray:
        """Joint outcome probabilities with readout flips folded in.

        Unmeasured qubits report 0, i.e. the distribution is marginalized
        onto the measured set.
        """
        probs = self.final_density().diagonal_probabilities()
        n = self.circuit.n_qubits
        measured = set(self.circuit.measured)
        for q in range(n):
            if q not in measured:
                probs = _project_bit_to_zero(probs, q)
        if self.model.eps_ro > 0.0:
            for q in sorted(measured):
                probs = _readout_flip(probs, q, self.model.eps_ro)
        return probs


def _project_bit_to_zero(probs: np.ndarray, q: int) -> np.ndarray:
    idx = np.arange(probs.size)
    out = np.zeros_like(probs)
    np.add.at(out, idx & ~(1 << q), probs)
    return out


def _readout_flip(probs: np.ndarray, q: int, eps: float) -> np.ndarray:
    idx = np.arange(probs.size)
    return (1 - eps) * probs + eps * probs[idx ^ (1 << q)]


def apply_noise(
    circuit: Circuit,
    model: NoiseModel,
    kick_anchors: dict[str, tuple[int, int]] | None = None,
) -> NoisySimulation:
    """Compile a circuit into fused gate-plus-channel superoperator steps.

    ``kick_anchors`` maps measurement symbols to (qubit, the block's last column);
    a kick naming a measurement absent from the circuit is rejected.
    """
    anchors = kick_anchors or {}
    kick_at: tuple[int, int] | None = None
    if model.kick is not None:
        symbol, kappa = model.kick
        if symbol not in anchors:
            raise ValidationError(f"kick names measurement {symbol!r} absent from the circuit")
        kick_at = anchors[symbol]

    @cache
    def fused(kind: str, param: float | None) -> tuple[str, np.ndarray] | None:
        """(label, superop) of a gate followed by its own channel; None for a noiseless Id."""
        superop = superoperator([gate_matrix(kind, param)])
        if kind == KIND_CNOT and model.p2 > 0.0:
            channel = f"depolarizing(p2={model.p2})"
            kraus = [np.kron(fa, fb) for fa, fb in depolarizing_2q_factors(model.p2)]
        elif kind in TIMING_KINDS and model.gamma_idle > 0.0:
            # timing delay, not a pulse: full algebraic action, no gate
            # error, idle damping instead
            channel = f"idle-damping(gamma={model.gamma_idle})"
            kraus = amplitude_damping(model.gamma_idle)
        elif kind not in TIMING_KINDS and kind != KIND_CNOT and model.p1 > 0.0:
            channel = f"depolarizing(p1={model.p1})"
            kraus = depolarizing_1q(model.p1)
        else:
            return None if kind == "Id" else (kind, superop)
        return f"{kind}+{channel}", superoperator(kraus) @ superop

    steps: list[Step] = []
    for g in circuit.gates:  # slot order; gates sharing a slot act on disjoint qubits
        compiled = fused(g.kind, g.param)
        if compiled is not None:
            steps.append(Step(g.slot, compiled[0], g.qubits, compiled[1]))
    if kick_at is not None:
        q, slot = kick_at
        # after every gate of its slot: the last step of the measurement block
        at = sum(1 for step in steps if step.slot <= slot)
        steps.insert(at, Step(slot, f"kick(kappa={kappa})", (q,),
                              superoperator([x_rotation(kappa)])))

    return NoisySimulation(circuit, model, tuple(steps))


def circuit_distribution(
    circuit: Circuit,
    model: NoiseModel,
    kick_anchors: dict[str, tuple[int, int]] | None = None,
) -> np.ndarray:
    return apply_noise(circuit, model, kick_anchors).outcome_distribution()
