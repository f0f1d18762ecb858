"""Exact simulation primitives for up to five qubits.

Gate matrices, the checked ``DensityMatrix`` state, the one evolution
primitive (``apply_channel``: a row-major superoperator on k qubits of a
2^n x 2^n matrix) and seeded multinomial shot sampling. All operations are
pure functions: inputs are never mutated, identical inputs give identical
outputs, so everything here is safe to call concurrently.

Conventions, pinned for the whole package:

* little-endian indexing: qubit 0 is the least significant bit of a basis
  index, so index(b4 b3 b2 b1 b0) = sum(b_q << q)
* outcome strings list qubit 0 first: "10000" means qubit 0 read 1
* operational measurement values: bit 1 -> +1, bit 0 -> -1, so the
  operational expectation of a z read is -<sigma_z>
* global phases are never significant; compare gates with
  ``matrices_equal_up_to_phase``
* tolerances: 1e-12 for algebraic identities, 1e-10 for channel and
  positivity checks
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt, pi

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_CHANNEL = 1e-10


class ValidationError(ValueError):
    """Bad input handed to an operation (wrong shape, non-unitary, out of range)."""


class InvariantError(RuntimeError):
    """An internal physics invariant (norm, trace, hermiticity, positivity) broke."""


# ---------------------------------------------------------------------------
# Gate matrices
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / sqrt(2.0)

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

GATE_MATRICES: dict[str, np.ndarray] = {
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * pi / 4)]], dtype=complex),
    "Tdg": np.array([[1, 0], [0, np.exp(-1j * pi / 4)]], dtype=complex),
    "Id": ID2,
}


def sigma_theta(theta: float) -> np.ndarray:
    """sin(theta) sigma_y + cos(theta) sigma_z."""
    return sin(theta) * PAULI_Y + cos(theta) * PAULI_Z


def rotation_to_theta_basis(theta: float) -> np.ndarray:
    """R(theta) = exp(+i theta sigma_x / 2), satisfying R sigma_z R^dag = sigma_theta.

    R maps |0>, |1> to the +1 and -1 eigenstates of sigma_theta; at
    theta = -3pi/4 it matches the device decomposition H T H S^dag H up to
    a phase and a trailing diagonal, which cannot change any measurement.
    """
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


# control is the more significant local qubit: operands ordered (control, target)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(kind: str, param: float | None = None) -> np.ndarray:
    if kind == "CNOT":
        return CNOT_MATRIX
    if kind in ("R", "Rdg"):
        if param is None:
            raise ValidationError(f"{kind} gate needs an angle parameter")
        m = rotation_to_theta_basis(param)
        return m if kind == "R" else m.conj().T
    try:
        return GATE_MATRICES[kind]
    except KeyError:
        raise ValidationError(f"unknown gate kind {kind!r}") from None


def is_unitary(m: np.ndarray, atol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return (
        m.ndim == 2
        and m.shape[0] == m.shape[1]
        and np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=atol)
    )


# ---------------------------------------------------------------------------
# Index helpers
# ---------------------------------------------------------------------------

def index_to_string(index: int, n_qubits: int) -> str:
    """Outcome string for a basis index, qubit 0 first."""
    return "".join("1" if (index >> q) & 1 else "0" for q in range(n_qubits))


def string_to_index(bits: str) -> int:
    return sum(1 << q for q, b in enumerate(bits) if b == "1")


def _axis(q: int, n: int) -> int:
    # rho.reshape([2] * 2n) puts the most significant row qubit on axis 0
    return n - 1 - q


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit-trace, positive semidefinite 2^n x 2^n matrix."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= 5:
            raise ValidationError(f"n_qubits must be 1..5, got {self.n_qubits}")
        m = np.asarray(self.matrix, dtype=complex)
        d = 1 << self.n_qubits
        if m.shape != (d, d):
            raise ValidationError(f"matrix must have shape ({d}, {d}), got {m.shape}")
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > ATOL_ALGEBRA:
            raise InvariantError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ATOL_ALGEBRA:
            raise InvariantError(f"density matrix trace drifted to {tr!r}")
        if float(np.linalg.eigvalsh(m)[0]) < -ATOL_CHANNEL:
            raise InvariantError("density matrix has a negative eigenvalue")

    @classmethod
    def ground(cls, n_qubits: int) -> "DensityMatrix":
        d = 1 << n_qubits
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = 1.0
        return cls(n_qubits, m)

    def diagonal_probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).clip(min=0.0)


def sample_counts(probs: np.ndarray, n_qubits: int, r: int, seed: int) -> dict[str, int]:
    """Multinomial sample of ``r`` shots from a probability vector.

    Deterministic for a fixed seed; the returned counts sum to ``r``.
    """
    if r < 1:
        raise ValidationError(f"shot count must be >= 1, got {r}")
    probs = np.asarray(probs, dtype=float).clip(min=0.0)
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise InvariantError(f"probabilities sum to {total!r}, not 1")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(r, probs / total)
    return {
        index_to_string(i, n_qubits): int(c) for i, c in enumerate(draws) if c > 0
    }


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


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    """Row-major superoperator sum_k K (x) K* of a Kraus set.

    It maps the row-major flattening of rho to that of sum_k K rho K^dag;
    composing channels is a matrix product, later channel on the left.
    """
    k = np.asarray(kraus, dtype=complex)
    d = k.shape[-1]
    # (K (x) K*)[(i, k), (j, l)] = K[i, j] K*[k, l], summed over the set
    return np.einsum("mij,mkl->ikjl", k, k.conj()).reshape(d * d, d * d)


def apply_channel(rho: np.ndarray, superop: np.ndarray, qubits: tuple[int, ...],
                  n: int) -> np.ndarray:
    """Apply a k-qubit superoperator to ``qubits`` of an n-qubit 2^n x 2^n matrix.

    ``qubits[0]`` is the most significant bit of the superoperator's local
    index, as in ``np.kron(on_qubits0, on_qubits1)``. The caller supplies
    valid, distinct qubits; no invariant of the result is checked here.
    """
    k = len(qubits)
    axes = [_axis(q, n) for q in qubits] + [n + _axis(q, n) for q in qubits]
    t = np.moveaxis(rho.reshape([2] * (2 * n)), axes, range(2 * k))
    shape = t.shape
    t = (superop @ t.reshape(1 << (2 * k), -1)).reshape(shape)
    return np.moveaxis(t, range(2 * k), axes).reshape(rho.shape)


def kraus_completeness_defect(kraus: list[np.ndarray]) -> float:
    """Max-abs deviation of sum_k K^dag K from the identity."""
    acc = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))
