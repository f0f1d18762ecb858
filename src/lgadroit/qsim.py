"""Exact simulation primitives for up to five qubits.

Gate matrices, the checked ``DensityMatrix`` state, the one evolution
primitive (``apply_channel``: a row-major superoperator on k qubits of a
2^n x 2^n matrix) and seeded multinomial sampling: one checked vector, one
shot table per seed. All operations are pure: inputs are never mutated and
identical inputs give identical outputs, so all are safe to call concurrently.

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
from functools import cache
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


# ---------------------------------------------------------------------------
# Index helpers
# ---------------------------------------------------------------------------

def index_to_string(index: int, n_qubits: int) -> str:
    """Outcome string for a basis index, qubit 0 first."""
    return "".join("1" if (index >> q) & 1 else "0" for q in range(n_qubits))


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
        # "not defect <= tol": a nan defect fails the check instead of passing it
        if not np.max(np.abs(m - m.conj().T)) <= ATOL_ALGEBRA:
            raise InvariantError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= ATOL_ALGEBRA:
            raise InvariantError(f"density matrix trace drifted to {tr!r}")
        try:  # positive semidefinite within ATOL_CHANNEL: lambda_min >= -ATOL_CHANNEL
            np.linalg.cholesky(m + ATOL_CHANNEL * np.eye(d))
        except np.linalg.LinAlgError:
            raise InvariantError("density matrix has a negative eigenvalue") from None

    def diagonal_probabilities(self) -> np.ndarray:
        # round-off (<= ATOL_ALGEBRA) becomes exactly 0: multinomial draws once per
        # non-zero entry, so residues would tie sampled tables to the evolution order
        probs = np.real(np.diag(self.matrix)).clip(min=0.0)
        probs[probs <= ATOL_ALGEBRA] = 0.0
        return probs


@cache
def _outcome_names(n_qubits: int) -> tuple[str, ...]:
    return tuple(index_to_string(i, n_qubits) for i in range(1 << n_qubits))


def sample_counts(probs: np.ndarray, n_qubits: int, r: int,
                  seeds: list[int]) -> tuple[dict[str, int], ...]:
    """Multinomial samples of ``r`` shots from a probability vector, one per seed.

    ``probs`` is a vector of one probability per basis index, 2^n_qubits
    of them; any other length or shape is rejected, even with no seeds. The
    vector is checked and normalized once, then each seed draws one table,
    deterministically: its counts sum to ``r`` and list only the outcomes
    drawn, in basis-index order.
    """
    if r < 1:
        raise ValidationError(f"shot count must be >= 1, got {r}")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (1 << n_qubits,):
        raise ValidationError(
            f"{n_qubits} qubits need a vector of {1 << n_qubits} probabilities, "
            f"got shape {probs.shape}")
    probs = probs.clip(min=0.0)
    total = float(probs.sum())
    # np.isclose(total, 1.0, atol=1e-9) with its default rtol=1e-5; false for nan and +-inf
    if not abs(total - 1.0) <= 1e-9 + 1e-5:
        raise InvariantError(f"probabilities sum to {total!r}, not 1")
    pvals, names = probs / total, _outcome_names(n_qubits)
    draws = (np.random.default_rng(seed).multinomial(r, pvals).tolist() for seed in seeds)
    return tuple({names[i]: c for i, c in enumerate(d) if c} for d in draws)


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
