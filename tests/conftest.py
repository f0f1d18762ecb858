"""Shared test helpers: random circuits, small matrix utilities, shot-table
conversions and the dict-table references, and a fresh compile cache."""
from math import cos, prod, sin, sqrt

import numpy as np
import pytest

from lgadroit import protocols
from lgadroit.circuit import Circuit, Gate
from lgadroit.qsim import InvariantError, ValidationError

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


# ---------------------------------------------------------------------------
# Shot tables: count arrays and the outcome-string maps they replaced
# ---------------------------------------------------------------------------

def outcome_string(index: int, n_qubits: int) -> str:
    """Outcome string for a basis index, qubit 0 first, built apart from ``cli._outcome_names``."""
    return "".join("1" if (index >> q) & 1 else "0" for q in range(n_qubits))


def count_array(tables: list[dict[str, int]]) -> np.ndarray:
    """Outcome-string count maps (qubit 0 first) as one (reps, 2**n) int64 count array."""
    n = len(next(iter(tables[0])))
    out = np.zeros((len(tables), 1 << n), dtype=np.int64)
    for row, table in zip(out, tables):
        for outcome, count in table.items():
            row[int(outcome[::-1], 2)] = count
    return out


def count_map(row) -> dict[str, int]:
    """One count-array row as an outcome-string map: drawn outcomes only, basis-index order."""
    n = len(row).bit_length() - 1
    return {outcome_string(i, n): int(c) for i, c in enumerate(row) if c}


def reference_sample_counts(probs, n_qubits, r, seed):
    """The single-seed sampler as it stood before its per-call overhead was cut."""
    if r < 1:
        raise ValidationError(f"shot count must be >= 1, got {r}")
    probs = np.asarray(probs, dtype=float).clip(min=0.0)
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise InvariantError(f"probabilities sum to {total!r}, not 1")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(r, probs / total)
    return {
        outcome_string(i, n_qubits): int(c) for i, c in enumerate(draws) if c > 0
    }


def _reference_table_mean(counts, qubits, signs):
    """One outcome-string table's mean product; ``signs`` keeps each outcome's +-1 product."""
    total = sum(counts.values())
    if total == 0:
        raise ValidationError("empty shot table")
    acc = 0
    for outcome, count in counts.items():
        if outcome not in signs:
            for q in qubits:
                if q >= len(outcome):
                    raise ValidationError(f"outcome string {outcome!r} has no bit for qubit {q}")
            signs[outcome] = prod(1 if outcome[q] == "1" else -1 for q in qubits)
        acc += signs[outcome] * count
    return acc / total


def reference_correlator(tables, roles, pair):
    """The correlator over outcome-string count maps, as it stood before count arrays."""
    if len(tables) < 2:
        raise ValidationError("need >= 2 repetitions for a standard error")
    if missing := [symbol for symbol in pair if symbol != "O1" and symbol not in roles]:
        raise ValidationError(f"no role {missing[0]!r} in this protocol")
    qubits, signs = [roles[symbol] for symbol in pair if symbol != "O1"], {}
    values = [_reference_table_mean(t, qubits, signs) for t in tables]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return {"mean": mean, "stderr": sqrt(var / n), "n_reps": n}
