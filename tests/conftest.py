"""Shared test helpers: random circuits and small matrix utilities, and a fresh compile cache."""
from math import cos, sin

import numpy as np
import pytest

from lgadroit import protocols
from lgadroit.circuit import Circuit, Gate

KINDS_RANDOM = ["X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg", "Id"]


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    """Every test compiles from an empty cache, so a replaced builder is the one called."""
    protocols.compile_program.cache_clear()
    yield
    protocols.compile_program.cache_clear()


def exp_pauli(angle: float, pauli: np.ndarray) -> np.ndarray:
    """exp(-i angle pauli) for a 2x2 Pauli (pauli^2 = I)."""
    return cos(angle) * np.eye(2, dtype=complex) - 1j * sin(angle) * pauli


def cell_map(c: Circuit) -> dict[tuple[int, int], Gate]:
    """(qubit, slot) -> the gate in that cell; a CNOT fills both of its cells."""
    return {(q, g.slot): g for g in c.gates for q in g.qubits}


def random_device_circuit(rng: np.random.Generator, n_qubits: int = 5,
                          cnot_target: int | None = 2) -> Circuit:
    """A random grid circuit; device-legal when cnot_target is 2 on 5 qubits."""
    n_slots = int(rng.integers(3, 12))
    free = {(q, s) for q in range(n_qubits) for s in range(n_slots)}
    gates = []
    for _ in range(int(rng.integers(2, n_qubits * n_slots // 2 + 3))):
        if cnot_target is not None and rng.random() < 0.2:
            target = cnot_target
            controls = [q for q in range(n_qubits) if q != target]
            control = int(rng.choice(controls))
            slots = [s for s in range(n_slots) if (control, s) in free and (target, s) in free]
            if not slots:
                continue
            s = int(rng.choice(slots))
            gates.append(Gate("CNOT", (control, target), s))
            free -= {(control, s), (target, s)}
        else:
            if not free:
                break
            q, s = sorted(free)[int(rng.integers(len(free)))]
            gates.append(Gate(str(rng.choice(KINDS_RANDOM)), (q,), s))
            free.discard((q, s))
    measured = tuple(int(q) for q in range(n_qubits) if rng.random() < 0.5)
    return Circuit(n_qubits, n_slots, tuple(gates), measured)


def kraus_completeness_defect(kraus: list[np.ndarray]) -> float:
    """Max-abs deviation of sum_k K^dag K from the identity."""
    acc = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))
