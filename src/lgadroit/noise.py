"""Imperfection channels and the deliberate "clumsy" invasiveness kick.

Four knobs degrade ideal statistics toward hardware-like numbers:
depolarizing error per real single-qubit pulse (p1) and per CNOT (p2),
a readout bit flip per measured qubit (eps_ro), and amplitude damping per
occupied idle cell (gamma_idle). Id, T and Tdg are timing delays rather
than pulses, so they attract idle damping only, never gate error. Empty
grid cells carry no noise at all.

The kick is a unitary x-rotation (``qsim.x_rotation``) of the system qubit
attached to a named intermediate measurement: clumsy, but
macrorealistically innocent-looking, so the adroitness harness has to
catch it rather than a decoherence model.
It is applied directly after the measurement's block (copy CNOT and its
basis change); applied inside it, specific kick angles would be exactly
invisible to the epsilon tests.

``apply_noise`` compiles a circuit into steps, each a (qubits, superop)
pair with a row-major superoperator: one 16x16 step per CNOT and one 4x4
step per wire run between CNOTs, in one pass over the gates in slot order.
Each gate is fused with its own channel (``_fused``, cached on the gate
and the noise rates, so the protocols of a program share every gate they
have in common) and multiplied onto its wire's running product, later
gates on the left; the kick joins that product the same way. A CNOT
emits its operands' products as steps before its own, and the products
left at the end follow by qubit. ``NoisySimulation.final_density`` folds
the steps over a raw matrix with ``qsim.apply_channel`` and checks it
once, on the final state, with ``qsim.check_density``;
``outcome_distribution`` zeroes round-off, marginalizes onto the measured
set in one ``np.bincount`` and then flips the readout.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import pi
from typing import Mapping

import numpy as np

from .circuit import KIND_CNOT, TIMING_KINDS, Circuit
from .qsim import (
    ATOL_ALGEBRA,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ID2,
    ValidationError,
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
class NoisySimulation:
    """A circuit compiled to one (qubits, superop) step per CNOT and per wire run."""

    circuit: Circuit
    model: NoiseModel
    steps: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    def final_density(self) -> np.ndarray:
        """Fold the steps over |0..0><0..0|; the invariants are checked once, here."""
        n = self.circuit.n_qubits
        rho = np.zeros((1 << n, 1 << n), dtype=complex)
        rho[0, 0] = 1.0
        for qubits, superop in self.steps:
            rho = apply_channel(rho, superop, qubits)
        return check_density(rho)

    def outcome_distribution(self) -> np.ndarray:
        """Joint outcome probabilities with readout flips folded in.

        Unmeasured qubits report 0, i.e. the distribution is marginalized
        onto the measured set; the flips follow qubit by qubit.
        """
        probs = np.real(np.diag(self.final_density())).clip(min=0.0)
        # round-off (<= ATOL_ALGEBRA) becomes exactly 0: multinomial draws once per
        # non-zero entry, so residues would tie sampled tables to the evolution order
        probs[probs <= ATOL_ALGEBRA] = 0.0
        idx = np.arange(probs.size)
        mask = sum(1 << q for q in self.circuit.measured)
        probs = np.bincount(idx & mask, weights=probs, minlength=probs.size)
        eps = self.model.eps_ro
        if eps > 0.0:
            for q in self.circuit.measured:
                probs = (1 - eps) * probs + eps * probs[idx ^ (1 << q)]
        return probs


# Keyed on what enters a gate's superoperator (not eps_ro, not the kick), so a
# program's six protocols share them. A program uses at most 8 keys;
# the bound keeps a scan over many noise points from holding every point's.
@lru_cache(maxsize=32)
def _fused(kind: str, param: float | None, p1: float, p2: float,
           gamma_idle: float) -> np.ndarray | None:
    """Superoperator of a gate followed by its own channel; None for a noiseless Id.

    Every use of the same gate and channel shares the array, so it is
    read-only.
    """
    superop = superoperator([gate_matrix(kind, param)])
    if kind == KIND_CNOT and p2 > 0.0:
        # each factor pair a (x) b, as np.kron would give it, in one call
        a, b = map(np.array, zip(*depolarizing_2q_factors(p2)))
        kraus = np.einsum("mij,mkl->mikjl", a, b).reshape(16, 4, 4)
    elif kind in TIMING_KINDS and gamma_idle > 0.0:
        # timing delay, not a pulse: full algebraic action, no gate
        # error, idle damping instead
        kraus = amplitude_damping(gamma_idle)
    elif kind not in TIMING_KINDS and kind != KIND_CNOT and p1 > 0.0:
        kraus = depolarizing_1q(p1)
    elif kind == "Id":
        return None
    else:
        kraus = None
    if kraus is not None:
        superop = superoperator(kraus) @ superop
    superop.setflags(write=False)
    return superop


def apply_noise(
    circuit: Circuit,
    model: NoiseModel,
    kick_anchors: Mapping[str, tuple[int, int]],
) -> NoisySimulation:
    """Compile a circuit into CNOT steps and, between them, one step per wire run.

    A CNOT's step follows its operands' runs; the last runs follow by qubit.
    ``kick_anchors`` maps measurement symbols to (qubit, the block's last
    column); a kick naming a measurement absent from the circuit, or whose
    anchor lies outside the circuit's grid, is rejected. The kick joins its
    wire's run before the first gate past that column, or at its end.
    """
    rates = (model.p1, model.p2, model.gamma_idle)
    ops = [(g.qubits, _fused(g.kind, g.param, *rates)) for g in circuit.gates]
    if model.kick is not None:
        symbol, kappa = model.kick
        if symbol not in kick_anchors:
            raise ValidationError(f"kick names measurement {symbol!r} absent from the circuit")
        q, col = kick_anchors[symbol]
        if not (0 <= q < circuit.n_qubits and 0 <= col < circuit.n_slots):
            raise ValidationError(f"kick anchor {(q, col)} of {symbol!r} is outside "
                                  "the circuit grid")
        at = next((i for i, g in enumerate(circuit.gates) if g.slot > col), len(ops))
        ops.insert(at, ((q,), superoperator([x_rotation(kappa)])))
    steps: list[tuple[tuple[int, ...], np.ndarray]] = []
    # each wire's product of superoperators since its last CNOT
    runs: list[np.ndarray | None] = [None] * circuit.n_qubits
    for qubits, superop in ops:
        if len(qubits) == 2:  # a CNOT
            steps.extend(((q,), runs[q]) for q in qubits if runs[q] is not None)
            steps.append((qubits, superop))
            for q in qubits:
                runs[q] = None
        elif superop is not None:
            q, = qubits
            # ndarray.dot: the bits of @ on a 4x4 complex product, in about two thirds of the time
            runs[q] = superop if runs[q] is None else superop.dot(runs[q])
    steps.extend(((q,), product) for q, product in enumerate(runs) if product is not None)
    return NoisySimulation(circuit, model, tuple(steps))
