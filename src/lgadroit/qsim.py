"""Exact simulation primitives for up to five qubits.

Gate matrices (the theta rotations and the kick are ``x_rotation``), the
density-matrix check (``check_density``), the one evolution primitive
(``apply_channel``: a row-major superoperator on k qubits of a 2^n x 2^n
matrix) and seeded multinomial sampling: one checked vector, or a
stack of them, and one shot table (a row of counts) per seed. A table is
exactly ``np.random.default_rng(seed).multinomial(r, p)``: the generators'
starting states are computed for all seeds in one vectorized pass and
loaded in turn into one generator per call. All operations are pure:
inputs are never mutated and identical inputs give identical outputs, so
all are safe to call concurrently.

Conventions, pinned for the whole package:

* little-endian indexing: qubit 0 is the least significant bit of a basis
  index, so index(b4 b3 b2 b1 b0) = sum(b_q << q)
* operational measurement values: bit 1 -> +1, bit 0 -> -1, so the
  operational expectation of a z read is -<sigma_z>
* global phases are never significant; compare gates with
  ``matrices_equal_up_to_phase``
* tolerances: 1e-12 for algebraic identities, 1e-10 for channel and
  positivity checks
"""
from __future__ import annotations

from functools import lru_cache
from math import cos, sin, sqrt, pi
from typing import Iterator

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


def x_rotation(kappa: float) -> np.ndarray:
    """exp(-i kappa sigma_x / 2); the R gate is x_rotation(-theta) and Rdg x_rotation(theta).

    R sigma_z R^dag = sigma_theta: R maps |0>, |1> to the +1 and -1
    eigenstates of sigma_theta; at theta = -3pi/4 it matches the device
    decomposition H T H S^dag H up to a phase and a trailing diagonal.
    """
    c, s = np.cos(kappa / 2), np.sin(kappa / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


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
        return x_rotation(-param if kind == "R" else param)
    try:
        return GATE_MATRICES[kind]
    except KeyError:
        raise ValidationError(f"unknown gate kind {kind!r}") from None


def _axis(q: int, n: int) -> int:
    # rho.reshape([2] * 2n) puts the most significant row qubit on axis 0
    return n - 1 - q


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def check_density(rho: np.ndarray) -> np.ndarray:
    """``rho``, checked to be Hermitian, unit-trace and positive semidefinite."""
    # "not defect <= tol": a nan defect fails the check instead of passing it
    if not np.max(np.abs(rho - rho.conj().T)) <= ATOL_ALGEBRA:
        raise InvariantError("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= ATOL_ALGEBRA:
        raise InvariantError(f"density matrix trace drifted to {tr!r}")
    try:  # positive semidefinite within ATOL_CHANNEL: lambda_min >= -ATOL_CHANNEL
        np.linalg.cholesky(rho + ATOL_CHANNEL * np.eye(len(rho)))
    except np.linalg.LinAlgError:
        raise InvariantError("density matrix has a negative eigenvalue") from None
    return rho


# NumPy's seeding of PCG64 from a seed in [0, 2^32), for many seeds at once.
# SeedSequence(seed) hashes the seed into a pool of four uint32 words
# (O'Neill's seed_seq), generate_state(4, uint64) hashes the pool into eight
# words, and PCG64's setseq_128 seeding turns those into (state, inc). NumPy
# keeps all three fixed (NEP 19), so every stream is default_rng(seed)'s.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hash_chain(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) constants of ``n`` successive seed_seq hash calls.

    Each call xors its word with the running constant, advances the
    constant by ``mult`` and multiplies the word by the new value, so the
    constants never depend on the data.
    """
    pairs = []
    for _ in range(n):
        pairs.append((init, init * mult & _M32))
        init = pairs[-1][1]
    return pairs


def _columns(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiplier constants as read-only uint32 columns."""
    xor, mult = np.array(pairs, dtype=np.uint32).T.reshape(2, -1, 1)
    xor.flags.writeable = mult.flags.writeable = False
    return xor, mult


_MIX_HASH = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_FILL = _columns(_MIX_HASH[:4])  # the seed into pool word 0, zeros into words 1-3
# round ``src`` hashes pool word src into each other word, in word order
_ROUNDS = tuple(([d for d in range(4) if d != src], _columns(_MIX_HASH[4 + 3 * src:7 + 3 * src]))
                for src in range(4))
_STATE = _columns(_hash_chain(0x8B51F9DD, 0x58F38DED, 8))  # word i hashes pool word i % 4


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # uint32 arrays and scalars only: the products wrap modulo 2^32, silently
    words = (words ^ xor) * mult
    return words ^ (words >> _SHIFT)


def _setseq_128(words: np.ndarray) -> tuple[int, int]:
    """PCG64's (state, inc) from generate_state's four uint64 words."""
    seed_hi, seed_lo, inc_hi, inc_lo = words.tolist()
    inc = (inc_hi << 65 | inc_lo << 1 | 1) & _M128
    return (((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc) & _M128, inc


def _pcg64_states(seeds: np.ndarray) -> Iterator[tuple[int, int]]:
    """PCG64's starting (state, inc) for each seed of a uint32 vector, in order.

    Each pair equals ``np.random.PCG64(seed).state``'s. The hashing runs on
    all seeds at once, before this returns; the 128-bit seeding step runs on
    Python ints, one seed at a time, as the caller takes the pairs.
    """
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds
    pool = _hash(pool, *_FILL)
    for src, (others, constants) in enumerate(_ROUNDS):
        mixed = pool[others] * _MIX_L - _hash(pool[src], *constants) * _MIX_R
        pool[others] = mixed ^ (mixed >> _SHIFT)
    # generate_state's uint32 words, read as little-endian uint64 pairs as numpy does
    words = np.ascontiguousarray(_hash(np.tile(pool, (2, 1)), *_STATE).T, dtype="<u4")
    return map(_setseq_128, words.view("<u8"))


def sample_counts(probs: np.ndarray, n_qubits: int, r: int,
                  seeds: list[int] | list[list[int]]) -> np.ndarray:
    """Multinomial samples of ``r`` shots from probability vectors, one table per seed.

    ``probs`` is one vector of 2^n_qubits probabilities with a list of
    seeds, or a (k, 2^n_qubits) stack of them with k lists of seeds of
    equal length; any other shape is rejected, even with no seeds. ``r``
    is an integer in [1, 2^63) and a seed one in [0, 2^32). Each vector is
    checked and normalized once, then each of its seeds draws one table,
    exactly as ``np.random.default_rng(seed).multinomial(r, p)`` draws it.
    The result is a read-only int64 array of shape ``probs.shape[:-1] +
    (reps, 2^n_qubits)``: a seed's count per basis index, summing to ``r``.
    """
    # multinomial takes r as a C int64; a float or a bool would draw another count
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 1 <= r <= 2**63 - 1:
        raise ValidationError(f"shot count must be an integer in [1, 2**63), got {r!r}")
    probs = np.asarray(probs, dtype=float)
    width = 1 << n_qubits
    if probs.ndim not in (1, 2) or probs.shape[-1] != width:
        raise ValidationError(
            f"{n_qubits} qubits need vectors of {width} probabilities, "
            f"got shape {probs.shape}")
    try:
        seeds = np.asarray(seeds)
    except ValueError:  # lists of unequal length
        raise ValidationError("every vector needs a list of seeds of the same length") from None
    if seeds.ndim != probs.ndim or seeds.shape[:-1] != probs.shape[:-1]:
        raise ValidationError(
            f"probabilities of shape {probs.shape} need one list of seeds per vector, "
            f"got seeds of shape {seeds.shape}")
    if seeds.size and (seeds.dtype.kind not in "iu" or seeds.min() < 0 or seeds.max() > _M32):
        raise ValidationError("seeds must be integers in [0, 2**32)")
    pvals = []
    for p in probs.reshape(-1, width):
        p = p.clip(min=0.0)
        total = float(p.sum())
        # np.isclose(total, 1.0, atol=1e-9) with its default rtol=1e-5; false for nan and +-inf
        if not abs(total - 1.0) <= 1e-9 + 1e-5:
            raise InvariantError(f"probabilities sum to {total!r}, not 1")
        pvals.append(p / total)
    # hashed before the tables exist, so the hash's temporaries never coexist with them
    starts = _pcg64_states(seeds.astype(np.uint32).reshape(-1))
    tables = np.empty(seeds.shape + (width,), dtype=np.int64)
    # one generator per call, never shared: its state is replaced before each draw
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for rows, p in zip(tables.reshape(len(pvals), seeds.shape[-1], width), pvals):
        for row, (state, inc) in zip(rows, starts):
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            row[:] = generator.multinomial(r, p)
    tables.flags.writeable = False
    return tables


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


# every 1- and 2-qubit tuple on five qubits is 25 keys
@lru_cache(maxsize=64)
def _permutations(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis orders that move the row and column axes of ``qubits`` to the front, and back.

    The front order is ``np.moveaxis``'s: the moved axes in the order given,
    then the others in their own order.
    """
    front = [_axis(q, n) for q in qubits] + [n + _axis(q, n) for q in qubits]
    order = tuple(front + [a for a in range(2 * n) if a not in front])
    return order, tuple(order.index(a) for a in range(2 * n))


def apply_channel(rho: np.ndarray, superop: np.ndarray, qubits: tuple[int, ...],
                  n: int) -> np.ndarray:
    """Apply a k-qubit superoperator to ``qubits`` of an n-qubit 2^n x 2^n matrix.

    ``qubits[0]`` is the most significant bit of the superoperator's local
    index, as in ``np.kron(on_qubits0, on_qubits1)``. The caller supplies
    valid, distinct qubits; no invariant of the result is checked here.
    """
    order, inverse = _permutations(qubits, n)
    shape = [2] * (2 * n)
    t = rho.reshape(shape).transpose(order).reshape(1 << (2 * len(qubits)), -1)
    return (superop @ t).reshape(shape).transpose(inverse).reshape(rho.shape)
