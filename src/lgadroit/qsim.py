"""Exact simulation primitives for up to five qubits.

Gate matrices (the theta rotations and the kick are ``x_rotation``), the
density-matrix check (``check_density``), the one evolution primitive
(``apply_channel``: a row-major superoperator on k qubits of a 2^n x 2^n
matrix, one gather, product and gather back through flat indices cached
per qubits and size) and seeded multinomial sampling (``sample_counts``: a
stack of checked vectors, one shot table per vector and seed). A table is
exactly ``np.random.default_rng(seed).multinomial(r, p)``: a call hashes
all of its seeds in one vectorized pass, and each table's PCG64 seeds from
its words in numpy's C code. Sizes are read from the arrays.
All operations are pure: inputs are never mutated and identical inputs
give identical outputs, so all are safe to call concurrently.

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
from math import cos, isfinite, sin, sqrt, pi
from numbers import Real

import numpy as np
from numpy.random.bit_generator import ISeedSequence

ATOL_ALGEBRA = 1e-12
ATOL_CHANNEL = 1e-10


class ValidationError(ValueError):
    """Bad input handed to an operation (wrong shape, non-unitary, out of range)."""


def _integer(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, but not a bool or ``np.bool_``."""
    if type(value) is int:  # most calls, about 400 per compiled program, and never a bool
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float: a finite real number, numpy's and ``Fraction`` included, not a bool."""
    try:
        if not isinstance(value, bool) and isinstance(value, Real) and isfinite(value):
            return float(value)
    except OverflowError:  # isfinite reads an int or a Fraction as a float, if it can
        pass
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _choice(value, allowed: tuple[str, ...], what: str) -> str:
    """``value``, a str in ``allowed``: never an ndarray, which ``in`` compares entry by entry."""
    if isinstance(value, str) and value in allowed:
        return value
    raise ValidationError(f"unknown {what} {value!r}, expected one of {', '.join(allowed)}")


class InvariantError(RuntimeError):
    """An internal invariant broke: a density matrix's hermiticity, trace or positivity,
    a sampled vector's probability sum, or a built protocol's device and compiler checks."""


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


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def check_density(rho: np.ndarray) -> np.ndarray:
    """``rho``, a matrix or a stack, checked Hermitian, unit-trace and positive semidefinite."""
    # "not defect <= tol": a nan defect fails the check instead of passing it
    if not np.max(np.abs(rho - np.swapaxes(rho.conj(), -1, -2))) <= ATOL_ALGEBRA:
        raise InvariantError("density matrix is not Hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    if not np.max(np.abs(tr - 1.0)) <= ATOL_ALGEBRA:
        raise InvariantError(f"density matrix trace drifted to {tr}")
    try:  # positive semidefinite within ATOL_CHANNEL: lambda_min >= -ATOL_CHANNEL
        np.linalg.cholesky(rho + ATOL_CHANNEL * np.eye(rho.shape[-1]))
    except np.linalg.LinAlgError:
        raise InvariantError("density matrix has a negative eigenvalue") from None
    return rho


# NumPy's seeding of PCG64 from a seed in [0, 2^32), for many seeds at once.
# SeedSequence(seed) hashes the seed into a pool of four uint32 words
# (O'Neill's seed_seq) and generate_state(4, uint64) hashes the pool into
# eight words; PCG64 seeds itself from those. NumPy keeps both fixed
# (NEP 19), so every stream is default_rng(seed)'s.
_M32 = 0xFFFFFFFF
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


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Each uint32 seed's ``SeedSequence(seed).generate_state(4, np.uint64)`` row, all at once."""
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds
    pool = _hash(pool, *_FILL)
    for src, (others, constants) in enumerate(_ROUNDS):
        mixed = pool[others] * _MIX_L - _hash(pool[src], *constants) * _MIX_R
        pool[others] = mixed ^ (mixed >> _SHIFT)
    # generate_state's uint32 words, read as little-endian uint64 pairs as numpy does
    words = np.ascontiguousarray(_hash(np.tile(pool, (2, 1)), *_STATE).T, dtype="<u4")
    return words.view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """The rows of ``_seed_words`` as one seed sequence: each ``generate_state`` call hands
    out the next row, so each ``np.random.PCG64`` built on it seeds from its table's row."""

    def __init__(self, words: np.ndarray):
        self.words = words
        self.used = 0

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 reads four uint64 words through a raw pointer; it passes np.uint64 itself
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise InvariantError(f"PCG64 takes 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        if self.used == len(self.words):  # a numpy that asks twice per PCG64 would shift rows
            raise InvariantError(f"all {self.used} rows of seed words are handed out")
        self.used += 1
        return self.words[self.used - 1]


def sample_counts(probs: np.ndarray, r: int, seeds: list[list[int]] | np.ndarray) -> np.ndarray:
    """Multinomial samples of ``r`` shots from a stack of probability vectors, one table per seed.

    ``probs`` is a (k, m) stack of probability vectors, ``seeds`` k lists of
    seeds of equal length or a (k, reps) integer array; any other shape is
    rejected, even with no seeds. ``r`` is an integer in [1, 2^63) and a
    seed one in [0, 2^32). Each vector is checked and normalized once, then
    each of its seeds draws one table, exactly as
    ``np.random.default_rng(seed).multinomial(r, p)`` draws it. The result
    is a read-only (k, reps, m) int64 array of r shots' counts per basis index.
    """
    # multinomial takes r as a C int64; a float or a bool would draw another count
    r = _integer(r, "shot count")
    if not 1 <= r <= 2**63 - 1:
        raise ValidationError(f"shot count must be an integer in [1, 2**63), got {r!r}")
    try:
        probs = np.asarray(probs, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or entries that are not real numbers
        raise ValidationError("probabilities must be a (k, m) stack of real numbers") from None
    try:
        seeds = np.asarray(seeds)
    except ValueError:  # lists of unequal length
        raise ValidationError("every vector needs a list of seeds of the same length") from None
    if probs.ndim != 2 or seeds.ndim != 2 or len(seeds) != len(probs):
        raise ValidationError(f"a (k, m) stack of probabilities needs k lists of seeds, "
                              f"got shapes {probs.shape} and {seeds.shape}")
    if seeds.size and (seeds.dtype.kind not in "iu" or seeds.min() < 0 or seeds.max() > _M32):
        raise ValidationError("seeds must be integers in [0, 2**32)")
    pvals = []
    for p in probs:
        p = p.clip(min=0.0)
        total = float(p.sum())
        # np.isclose(total, 1.0, atol=1e-9) with its default rtol=1e-5; false for nan and +-inf
        if not abs(total - 1.0) <= 1e-9 + 1e-5:
            raise InvariantError(f"probabilities sum to {total!r}, not 1")
        pvals.append(p / total)
    # hashed before the tables exist, so the hash's temporaries never coexist with them
    source = _SeedWords(_seed_words(seeds.astype(np.uint32).reshape(-1)))
    tables = np.empty(seeds.shape + probs.shape[1:], dtype=np.int64)
    for rows, p in zip(tables, pvals):
        for row in rows:
            row[:] = np.random.Generator(np.random.PCG64(source)).multinomial(r, p)
    if source.used != len(source.words):
        raise InvariantError(f"{source.used} of {len(source.words)} rows of seed words used")
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


# every 1- and 2-qubit tuple on five qubits is 25 keys, 16 KB of indices each
@lru_cache(maxsize=64)
def _flat_index(qubits: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices into a 2^n x 2^n matrix: a (4^k, 4^(n-k)) gather, whose row i
    holds in ``np.moveaxis``'s order the entries whose row and column bits on ``qubits`` spell
    local index i, and the (2^n, 2^n) inverse permutation, which gathers them back.
    """
    # the matrix as 2n bit axes, rows then columns, puts each most significant bit first
    rows = [n - 1 - q for q in qubits]
    order = rows + [n + a for a in rows]
    order += [a for a in range(2 * n) if a not in order]
    bits = np.arange(4**n, dtype=np.intp).reshape([2] * (2 * n))
    gather = bits.transpose(order).reshape(4 ** len(qubits), -1)
    inverse = bits.transpose([order.index(a) for a in range(2 * n)]).reshape(1 << n, -1)
    gather.flags.writeable = inverse.flags.writeable = False
    return gather, inverse


def apply_channel(rho: np.ndarray, superop: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a k-qubit superoperator to ``qubits`` of a 2^n x 2^n matrix: one gather through
    a cached flat index, one product, and one gather back into a new matrix.

    ``qubits[0]`` is the most significant bit of the superoperator's local
    index, as in ``np.kron(on_qubits0, on_qubits1)``. The caller supplies
    valid, distinct qubits; no invariant of the result is checked here.
    """
    gather, inverse = _flat_index(qubits, len(rho).bit_length() - 1)
    # ndarray.dot: the bits of @ on these small complex products, faster
    return superop.dot(rho.ravel()[gather]).ravel()[inverse]
