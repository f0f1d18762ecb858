"""Shared test helpers: random circuits, a reader of exported QASM, small matrix
utilities, the textbook Kraus sets of the noise channels, shot-table conversions
and the dict-table references, the exact summary of a program's distributions,
Python 3.12's compensated float sum, and a fresh compile cache."""
import re
from dataclasses import replace
from functools import reduce
from itertools import product
from math import cos, isfinite, prod, sin, sqrt
from operator import add

import numpy as np
import pytest

from lgadroit import protocols
from lgadroit.circuit import _QASM_NAMES, KIND_CNOT, KINDS_1Q, Circuit, Gate
from lgadroit.protocols import ROLES, ProtocolId
from lgadroit.qsim import (ATOL_ALGEBRA, ID2, PAULI_X, PAULI_Y, PAULI_Z, InvariantError,
                           ValidationError)

KINDS_RANDOM = list(KINDS_1Q)


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    """Every test compiles from an empty cache, so a replaced builder is the one called."""
    protocols._compile.cache_clear()
    yield
    protocols._compile.cache_clear()


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


def read_qasm(text: str) -> Circuit:
    """The circuit ``to_qasm`` wrote, canonically scheduled (the text holds no slots).

    Only ``to_qasm``'s own line forms are read: its four header lines with
    one register size, gate lines in slot order, then ``measure q[i] -> c[i];``
    lines. Any other line, or a gate after a measurement, fails the test
    (``pytest.fail``, naming the line); the circuit model's own rules then
    raise ``ValidationError``.
    """
    if not isinstance(text, str):
        pytest.fail(f"QASM text must be a str, got {type(text).__name__}")
    kind_by_name = {name: kind for kind, name in _QASM_NAMES.items()}
    one_qubit = rf"({'|'.join(kind_by_name)}) q\[(\d+)\];"
    header = re.match(r'OPENQASM 2\.0;\ninclude "qelib1\.inc";\nqreg q\[(\d+)\];\ncreg c\[\1\];\n',
                      text, re.ASCII)
    if not header:
        pytest.fail(f"not the header to_qasm writes: {text!r:.80}")
    lines = text[header.end():].split("\n")
    if lines.pop() != "":
        pytest.fail("to_qasm ends its last line with LF")
    gates: list[Gate] = []
    measured: list[int] = []
    for lineno, line in enumerate(lines, start=5):
        if m := re.fullmatch(r"measure q\[(\d+)\] -> c\[\1\];", line, re.ASCII):
            measured.append(int(m[1]))
            continue
        if measured:
            pytest.fail(f"line {lineno}: a gate after a measurement: {line!r}")
        if m := re.fullmatch(one_qubit, line, re.ASCII):
            gates.append(Gate(kind_by_name[m[1]], (int(m[2]),), len(gates)))
        elif m := re.fullmatch(r"cx q\[(\d+)\],q\[(\d+)\];", line, re.ASCII):
            gates.append(Gate(KIND_CNOT, (int(m[1]), int(m[2])), len(gates)))
        else:
            pytest.fail(f"line {lineno}: not a line to_qasm writes: {line!r}")
    return canonical_schedule(Circuit(int(header[1]), len(gates), tuple(gates),
                                      tuple(measured)))


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = ATOL_ALGEBRA) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    k = np.argmax(np.abs(b))
    bk = b.reshape(-1)[k]
    if abs(bk) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a.reshape(-1)[k] / bk
    if abs(abs(phase) - 1.0) > 1e-9:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def depolarizing_kraus(p: float, k: int) -> list[tuple[np.ndarray, ...]]:
    """The textbook Kraus set of k-qubit depolarizing, each operator as its k Pauli factors,
    the most significant local qubit's first. The first factor carries the weight:
    1 - (4^k - 1) p / 4^k for the identity string and p / 4^k for each other."""
    out = []
    for i, paulis in enumerate(product([ID2, PAULI_X, PAULI_Y, PAULI_Z], repeat=k)):
        w = 1 - (4 ** k - 1) * p / 4 ** k if i == 0 else p / 4 ** k
        out.append((sqrt(w) * paulis[0], *paulis[1:]))
    return out


def damping_kraus(gamma: float) -> list[np.ndarray]:
    """The textbook Kraus set of amplitude damping."""
    return [np.array([[1, 0], [0, sqrt(1 - gamma)]], dtype=complex),
            np.array([[0, sqrt(gamma)], [0, 0]], dtype=complex)]


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
    # left to right, as the report adds them on every Python
    mean = reduce(add, values, 0.0) / n
    var = reduce(add, ((v - mean) ** 2 for v in values), 0.0) / (n - 1)
    return {"mean": mean, "stderr": sqrt(var / n), "n_reps": n}


# ---------------------------------------------------------------------------
# Exact summary: the report's quantities on exact outcome distributions
# ---------------------------------------------------------------------------

# report key -> (protocol, read pair), as analytics.analyze names the correlators
CORRELATORS = {
    **{x: (ProtocolId(x.upper()), ("O1", "O3")) for x in "abcde"},
    "f_o1o2": (ProtocolId.F, ("O1", "O2")),
    "f_o2o3": (ProtocolId.F, ("O2", "O3")),
    "f_o1o3": (ProtocolId.F, ("O1", "O3")),
}


def exact_summary(distributions) -> dict[str, float]:
    """The report's quantities, exactly, from a program's (6, 2**n) outcome distributions
    in ``ProtocolId`` order, such as ``apply_noise(...).outcome_distribution()``.

    Returns the eight correlators by ``analytics.correlator``'s sign rule (a
    read's bit 1 is +1, bit 0 is -1, O1 the constant +1), ``lg``,
    ``eps_b``..``eps_e``, ``eps_total`` and the ``margin`` |LG| - eps_total:
    with LG < 0, the verdict is established where the margin is >= 0. Sums
    run left to right, in the report's order.
    """
    by_protocol = dict(zip(ProtocolId, distributions))
    out = {}
    for key, (pid, pair) in CORRELATORS.items():
        dist = by_protocol[pid]
        index, sign = np.arange(dist.size), np.ones(dist.size)
        for symbol in pair:
            if symbol != "O1":
                sign *= 2.0 * ((index >> ROLES[pid][symbol]) & 1) - 1.0
        out[key] = float(np.dot(dist, sign))
    out["lg"] = out["a"] + out["f_o1o2"] + out["f_o2o3"] + 1.0
    total = 0.0
    for x in "bcde":
        out[f"eps_{x}"] = abs(out[x] - out["a"])
        total += out[f"eps_{x}"]
    out["eps_total"] = total
    out["margin"] = abs(out["lg"]) - total
    return out


def compensated_sum(values):
    """Python 3.12's ``sum`` of floats: Neumaier's compensated sum, as CPython writes it."""
    hi, lo = 0.0, 0.0
    for x in values:
        t = hi + x
        lo += (hi - t) + x if abs(hi) >= abs(x) else (x - t) + hi
        hi = t
    return hi + lo if lo and isfinite(lo) else hi
