"""Simulation-core tests: gates, the superoperator engine, channels, sampling."""
import warnings
from itertools import permutations
from math import cos, inf, nan, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (count_map, kraus_completeness_defect, matrices_equal_up_to_phase,
                      reference_sample_counts)
from lgadroit.cli import _outcome_names
from lgadroit.circuit import Gate
from lgadroit.qsim import (
    GATE_MATRICES,
    PAULI_Z,
    InvariantError,
    ValidationError,
    _SeedWords,
    _flat_index,
    _seed_words,
    apply_channel,
    check_density,
    gate_matrix,
    sample_counts,
    sigma_theta,
    superoperator,
    x_rotation,
)

THETA = -3 * pi / 4


def evolve(n, ops, rho=None):
    """Fold (matrix, qubits) unitaries through the engine, from |0..0> by default."""
    rho = basis_state("0" * n) if rho is None else rho
    for m, qubits in ops:
        rho = apply_channel(rho, superoperator([m]), qubits)
    return check_density(rho)


def probabilities(rho):
    """The diagonal of a density matrix as a real vector."""
    return np.real(np.diag(rho))


def basis_state(bits):
    """|bits> as a density matrix, qubit 0 first."""
    d = 1 << len(bits)
    i = int(bits[::-1], 2)  # qubit 0 is the least significant bit
    rho = np.zeros((d, d), dtype=complex)
    rho[i, i] = 1.0
    return rho


def dephasing(theta):
    """Unrecorded sigma_theta measurement: projector Kraus pair (I +- sigma_theta)/2."""
    s = sigma_theta(theta)
    return [(np.eye(2) + s) / 2, (np.eye(2) - s) / 2]


CNOT = gate_matrix("CNOT")


# ---------------------------------------------------------------------------
# Gates through the engine
# ---------------------------------------------------------------------------

def test_x_flips_zero_to_one():
    out = evolve(1, [(GATE_MATRICES["X"], (0,))])
    np.testing.assert_allclose(out, basis_state("1"), atol=1e-12)


def test_h_squared_is_identity():
    h = GATE_MATRICES["H"]
    out = evolve(1, [(h, (0,)), (h, (0,))])
    np.testing.assert_allclose(out, basis_state("0"), atol=1e-12)


def test_eq9_sequence_prepares_minus_eigenstate_of_sigma_theta():
    # H T H Sdg H applied to |1> lands on the -1 eigenstate of sigma_theta
    # (frozen oracle: its projector (I - sigma_theta)/2)
    ops = [(GATE_MATRICES[kind], (0,)) for kind in ("H", "Sdg", "H", "T", "H")]
    out = evolve(1, ops, basis_state("1"))
    np.testing.assert_allclose(out, (np.eye(2) - sigma_theta(THETA)) / 2, atol=1e-12)


def test_cnot_flips_target_on_set_control():
    out = evolve(2, [(CNOT, (0, 1))], basis_state("10"))  # Q0=1, Q1=0
    np.testing.assert_allclose(out, basis_state("11"), atol=1e-12)


def test_cnot_makes_bell_state_with_mixed_target():
    out = evolve(2, [(GATE_MATRICES["H"], (0,)), (CNOT, (0, 1))])
    np.testing.assert_allclose(probabilities(out), [0.5, 0, 0, 0.5], atol=1e-12)
    assert abs(out[0, 3] - 0.5) < 1e-12  # coherent, not a classical mixture


def test_cnot_rejects_equal_operands():
    # the engine trusts its operands; a Gate refuses equal ones on construction
    with pytest.raises(ValidationError):
        Gate("CNOT", (1, 1), 0)


def test_h_conjugation_swaps_cnot_roles():
    # (H x H) CNOT(c=0,t=1) (H x H) == CNOT(c=1,t=0) as 4x4 matrices
    h = GATE_MATRICES["H"]
    hh = np.kron(h, h)

    def cnot_matrix(control, target):
        m = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            j = i ^ (((i >> control) & 1) << target)
            m[j, i] = 1
        return m

    np.testing.assert_allclose(hh @ cnot_matrix(0, 1) @ hh, cnot_matrix(1, 0), atol=1e-12)
    # the engine's CNOT puts its control on the more significant local bit
    np.testing.assert_allclose(CNOT, cnot_matrix(1, 0), atol=1e-12)


def test_norm_preserved_along_random_walk():
    rng = np.random.default_rng(3)
    rho = basis_state("000")
    kinds = list(GATE_MATRICES)
    for _ in range(200):
        if rng.random() < 0.3:
            q = int(rng.integers(3))
            t = int(rng.choice([x for x in range(3) if x != q]))
            m, qubits = CNOT, (q, t)
        else:
            m, qubits = GATE_MATRICES[str(rng.choice(kinds))], (int(rng.integers(3)),)
        rho = apply_channel(rho, superoperator([m]), qubits)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert abs(np.trace(rho @ rho) - 1) < 1e-12  # a pure state stays pure
    check_density(rho)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_ground_state_all_zero_string():
    tables = sample_counts(probabilities(check_density(basis_state("00000")))[None], 8192, [[1]])
    assert tables.shape == (1, 1, 32) and tables.dtype == np.int64
    assert count_map(tables[0, 0]) == {"00000": 8192}


def test_sampling_plus_on_q2_within_5_sigma():
    probs = probabilities(evolve(5, [(GATE_MATRICES["H"], (2,))]))
    ((counts,),) = sample_counts(probs[None], 8192, [[2]])
    ones = counts[(np.arange(32) >> 2) & 1 == 1].sum()
    sigma = sqrt(0.25 / 8192)
    assert abs(ones / 8192 - 0.5) < 5 * sigma


def test_sampling_deterministic_for_fixed_seed():
    probs = probabilities(evolve(5, [(GATE_MATRICES["H"], (0,))]))
    assert np.array_equal(sample_counts(probs[None], 8192, [[42, 43]]),
                          sample_counts(probs[None], 8192, [[42, 43]]))


def test_sampling_frequencies_converge_to_born_rule():
    rng = np.random.default_rng(5)
    ops = []
    for q in range(5):
        ops.append((GATE_MATRICES[str(rng.choice(["H", "T", "X", "S"]))], (q,)))
        t = int(rng.integers(5))
        if t != q:
            ops.append((CNOT, (q, t)))
    probs = probabilities(evolve(5, ops))
    r = 8192
    ((counts,),) = sample_counts(probs[None], r, [[6]])
    assert counts.sum() == r
    for i, p in enumerate(probs):
        got = counts[i] / r
        sigma = sqrt(max(p * (1 - p), 1e-12) / r)
        assert abs(got - p) <= 5 * sigma


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(ValidationError):
        sample_counts(np.array([[1.0, 0.0]]), 0, [[0]])


@pytest.mark.parametrize("probs, r, error", [
    (np.array([[0.5, 0.4]]), 8192, InvariantError),
    (np.array([[nan, 0.0]]), 8192, InvariantError),
    (np.array([[1.0, 0.0]]), 0, ValidationError),
])
def test_sample_counts_checks_vector_without_seeds(probs, r, error):
    with pytest.raises(error):
        sample_counts(probs, r, [[]])


def test_sample_counts_multi_seed_equals_single_seed_calls():
    probs = np.random.default_rng(3).dirichlet(np.full(32, 0.3), size=1)
    seeds = [0, 1, 7, 7, 12345, 2**32 - 1]
    tables = sample_counts(probs, 8192, [seeds])
    assert tables.shape == (1, len(seeds), 32) and np.array_equal(tables[0, 2], tables[0, 3])
    assert np.array_equal(tables, np.hstack([sample_counts(probs, 8192, [[s]]) for s in seeds]))
    assert sample_counts(probs, 8192, [[]]).shape == (1, 0, 32)


def test_sample_counts_stack_equals_one_call_per_vector():
    probs = np.random.default_rng(4).dirichlet(np.full(32, 0.3), size=3)
    seeds = [[0, 5, 2**32 - 1], [5, 6, 7], [11, 0, 12]]
    tables = sample_counts(probs, 8192, seeds)
    assert tables.shape == (3, 3, 32) and not tables.flags.writeable
    for p, row, got in zip(probs, seeds, tables):
        assert np.array_equal(got, sample_counts(p[None], 8192, [row])[0])
    assert sample_counts(probs, 8192, [[], [], []]).shape == (3, 0, 32)


@pytest.mark.parametrize("probs, seeds", [
    (np.eye(32)[:3], [[1, 2], [3, 4]]),  # three vectors, two seed lists
    (np.eye(32)[:2], [[1, 2], [3]]),  # seed lists of unequal length
    (np.eye(32)[:2], [1, 2]),  # a stack needs one list per vector
    (np.eye(32)[0], [1, 2]),  # a single vector is rejected
    (np.eye(32)[:2][None], [[[1]], [[2]]]),  # no deeper stacks
    ([[0.5, 0.5], [1.0]], [[1], [2]]),  # ragged probabilities
    ([["a", "b"]], [[1]]),  # probabilities that are not numbers
])
def test_sample_counts_rejects_mismatched_stack_shapes(probs, seeds):
    with pytest.raises(ValidationError):
        sample_counts(probs, 16, seeds)


@pytest.mark.parametrize("seeds", [[-1], [2**32], [2.5], [3, 2**32], [2**64], [True]])
def test_sample_counts_rejects_seeds_outside_32_bits(seeds):
    # -1 used to raise numpy's ValueError and 2**32 was drawn from silently
    with pytest.raises(ValidationError, match=r"\[0, 2\*\*32\)"):
        sample_counts(np.eye(32)[4:5], 16, [seeds])


@pytest.mark.parametrize("r, match", [
    (2.5, r"^shot count must be an integer, got 2\.5"),
    (True, r"^shot count must be an integer, got True"),
    (2**63, r"^shot count must be an integer in \[1, 2\*\*63\)"),
], ids=["float", "bool", "2**63"])
def test_sample_counts_rejects_a_shot_count_outside_int64(r, match):
    # multinomial would draw 2 shots for 2.5 and 1 for True, and overflow a C int64 at 2**63
    with pytest.raises(ValidationError, match=match):
        sample_counts(np.eye(32)[4:5], r, [[1]])


def test_seed_words_equal_numpy_seeding():
    seeds = [0, 1, 2**31, 2**32 - 1]
    seeds += np.random.default_rng(16).integers(0, 2**32, 10_000).tolist()
    with warnings.catch_warnings():
        # the hash wraps modulo 2^32 on purpose; a scalar-overflow warning would reach stderr
        warnings.simplefilter("error")
        words = _seed_words(np.array(seeds, dtype=np.uint32))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        source = _SeedWords(words)  # one source hands out the rows in order, as in sampling
        for seed, w in zip(seeds, words):
            assert np.array_equal(w, np.random.SeedSequence(seed).generate_state(4, np.uint64))
            assert np.random.PCG64(source).state == np.random.PCG64(seed).state
        assert source.used == len(seeds)


@pytest.mark.parametrize("n_words, dtype", [(8, np.uint64), (4, np.uint32), (2, np.uint64)])
def test_seed_words_refuse_any_request_but_four_uint64_words(n_words, dtype):
    # PCG64 reads the four words through a raw pointer; any other request is a misuse
    source = _SeedWords(_seed_words(np.array([7, 8, 9], dtype=np.uint32)))
    assert np.array_equal(source.generate_state(4, np.dtype("uint64")), source.words[0])
    with pytest.raises(InvariantError, match="PCG64 takes 4 uint64 words, not "):
        source.generate_state(n_words, dtype)
    assert np.array_equal(source.generate_state(4, np.uint64), source.words[1])


@pytest.mark.parametrize("requests, match", [
    (2, "all 4 rows of seed words are handed out"),
    (0, "0 of 4 rows of seed words used"),
], ids=["twice", "never"])
def test_sample_counts_refuses_a_numpy_that_reads_seed_words_other_than_once(
        requests, match, monkeypatch):
    # each PCG64 must take exactly one row, or every later table would draw another stream:
    # twice runs past the last row, never leaves every row unused
    real = np.random.PCG64

    def pcg64(source):
        for _ in range(requests - 1):
            source.generate_state(4, np.uint64)
        return real(source) if requests else real(0)

    monkeypatch.setattr(np.random, "PCG64", pcg64)
    with pytest.raises(InvariantError, match=match):
        sample_counts(np.eye(32)[4:6], 16, [[0, 1], [2, 3]])


def test_sample_counts_returns_read_only_tables():
    # run_plan hands the one array to analyze and to shots_csv
    tables = sample_counts(np.eye(32)[4:5], 16, [[0, 1]])
    assert not tables.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tables[0, 0, 4] = 0
    with pytest.raises(ValueError, match="read-only"):
        tables[0, 1] += 1
    assert tables[0, :, 4].tolist() == [16, 16]


def table_items(draw):
    """Each table's (outcome, count) pairs in order, or the exception type raised."""
    try:
        return [list(table.items()) for table in draw()]
    except (ValidationError, InvariantError) as exc:
        return type(exc)


def sampled_items(probs, n_qubits, r, seeds):
    """Each sampled row as the reference's outcome-string map, checked for shape first."""
    def draw():
        (tables,) = sample_counts(probs[None], r, [seeds])
        assert tables.shape == (len(seeds), 1 << n_qubits) and tables.dtype == np.int64
        return [count_map(row) for row in tables]
    return table_items(draw)


def reference_items(probs, n_qubits, r, seeds):
    return table_items(lambda: [reference_sample_counts(probs, n_qubits, r, s) for s in seeds])


@st.composite
def probability_vectors(draw):
    n = draw(st.integers(1, 5))
    weight = st.one_of(st.just(0.0), st.just(-1e-17), st.floats(0.0, 1.0))
    weights = np.array(draw(st.lists(weight, min_size=1 << n, max_size=1 << n)))
    total = weights.clip(min=0.0).sum()
    probs = weights / total if total > 0 else weights
    # straddles the accepted band |sum - 1| <= 1e-9 + 1e-5
    return n, probs * draw(st.floats(1 - 3e-5, 1 + 3e-5))


@settings(max_examples=300, derandomize=True, database=None)
@given(probability_vectors(), st.integers(1, 10**6),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
@example(vector=(2, np.array([0.1, 0.2, 0.3, 0.4])), r=1, seeds=[0, 2**32 - 1])
@example(vector=(2, np.array([0.1, 0.2, 0.3, 0.4])), r=2**62, seeds=[0, 2**32 - 1])
def test_sample_counts_matches_reference_draws(vector, r, seeds):
    n, probs = vector
    got = sampled_items(probs, n, r, seeds)
    assert got == reference_items(probs, n, r, seeds)
    if isinstance(got, list):
        assert len(got) == len(seeds)
        assert all(sum(c for _, c in table) == r for table in got)


# raw default_rng(seed).multinomial(8192, p) draws, taken on numpy 2.4.6
NUMPY_DRAWS = {
    (4, 0): [853, 1634, 2452, 3253],
    (4, 12345): [819, 1653, 2500, 3220],
    (4, 2**32 - 1): [826, 1620, 2497, 3249],
    (32, 0): [17, 36, 38, 76, 65, 82, 98, 137, 154, 145, 161, 214, 214, 205, 232, 246,
              260, 283, 317, 336, 305, 329, 346, 368, 374, 411, 438, 459, 393, 452, 455, 546],
    (32, 12345): [13, 32, 48, 63, 73, 118, 129, 118, 135, 160, 167, 197, 207, 218, 233, 246,
                  226, 241, 295, 334, 353, 347, 372, 391, 362, 396, 432, 420, 459, 459, 463, 485],
    (32, 2**32 - 1): [13, 33, 48, 60, 48, 80, 113, 123, 154, 140, 170, 180, 218, 234, 244, 274,
                      290, 277, 290, 309, 304, 325, 358, 383, 381, 403, 405, 398, 475, 477, 494,
                      491],
}


@pytest.mark.parametrize("m, seed", NUMPY_DRAWS)
def test_numpy_multinomial_canary_draws(m, seed):
    # NEP 19 fixes the bit streams, not Generator.multinomial's use of them: a numpy
    # release that draws differently fails here, before it fails every report golden
    p = np.array([0.1, 0.2, 0.3, 0.4]) if m == 4 else np.arange(1, 33) / 528
    got = np.random.default_rng(seed).multinomial(8192, p).tolist()
    assert got == NUMPY_DRAWS[m, seed], (
        f"numpy {np.__version__} draws default_rng({seed}).multinomial differently; "
        f"the report goldens hold for numpy 2.4.6")


@pytest.mark.parametrize("total, accepted", [
    (1 + 9e-6, True), (1 - 9e-6, True),
    (1 + 2e-5, False), (1 - 2e-5, False),
    (nan, False), (inf, False), (-inf, False),
])
def test_sample_counts_sum_tolerance(total, accepted):
    probs = np.array([total, 0.0, 0.0, 0.0])
    got = sampled_items(probs, 2, 100, [3])
    assert got == ([[("00", 100)]] if accepted else InvariantError)
    assert got == reference_items(probs, 2, 100, [3])


def test_outcome_string_convention_is_q0_first():
    names = dict(_outcome_names(5))
    assert names["10000"] == 1
    assert names["00100"] == 4
    # the sampler counts basis index 4 (qubit 2 set), which the shot CSV names "00100"
    (table,) = sample_counts(np.eye(32)[4:5], 1, [[0]])
    assert table.tolist() == [np.eye(32, dtype=int)[4].tolist()]


# ---------------------------------------------------------------------------
# Dephasing channels through the engine
# ---------------------------------------------------------------------------

def dephase(rho, q, theta):
    return check_density(apply_channel(rho, superoperator(dephasing(theta)), (q,)))


def test_dephase_fixes_diagonal_states():
    rho = np.diag([0.3, 0.7]).astype(complex)
    out = dephase(rho, 0, theta=0.0)
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_dephase_kills_plus_state_coherence():
    plus = evolve(1, [(GATE_MATRICES["H"], (0,))])
    out = dephase(plus, 0, theta=0.0)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_dephase_theta_fixes_its_eigenstate():
    rho_theta = (np.eye(2) - sigma_theta(THETA)) / 2
    out = dephase(rho_theta, 0, theta=THETA)
    np.testing.assert_allclose(out, rho_theta, atol=1e-12)


def test_dephase_idempotent_and_trace_preserving():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    once = dephase(rho, 1, theta=0.7)
    twice = dephase(once, 1, theta=0.7)
    np.testing.assert_allclose(once, twice, atol=1e-12)
    assert abs(np.trace(once) - 1) < 1e-12


def test_dephase_kraus_projectors_complete():
    for theta in (0.0, 0.7, THETA):
        assert kraus_completeness_defect(dephasing(theta)) < 1e-12


# ---------------------------------------------------------------------------
# Invariant enforcement
# ---------------------------------------------------------------------------

def test_density_matrix_rejects_bad_trace_and_negativity():
    with pytest.raises(InvariantError):
        check_density(np.diag([0.5, 0.6]).astype(complex))
    with pytest.raises(InvariantError):
        check_density(np.diag([1.5, -0.5]).astype(complex))


def test_density_check_takes_a_stack():
    good = np.array([np.diag([1.0, 0.0]), np.eye(2) / 2], dtype=complex)
    assert check_density(good) is good
    for bad, message in ((np.diag([0.5, 0.6]), "trace"), (np.diag([1.5, -0.5]), "negative"),
                         (np.array([[0.5, 0.1], [0.2, 0.5]]), "Hermitian")):
        with pytest.raises(InvariantError, match=message):
            check_density(np.array([good[0], bad], dtype=complex))


@pytest.mark.parametrize("matrix", [
    np.full((2, 2), nan, dtype=complex),
    np.array([[0.5, inf], [inf, 0.5]], dtype=complex),
], ids=["all_nan", "inf_off_diagonal"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
def test_density_matrix_rejects_non_finite_entries(matrix):
    # a nan defect compares false against any tolerance, and cholesky lets nan through
    with pytest.raises(InvariantError):
        check_density(matrix)


@pytest.mark.parametrize("lam_min, accepted", [(-2e-10, False), (-0.5e-10, True)])
def test_positivity_tolerance_boundary(lam_min, accepted):
    # lambda_min >= -1e-10 passes, in a random 5-qubit eigenbasis
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    lam = np.full(32, (1 - lam_min) / 31)
    lam[7] = lam_min
    m = (u * lam) @ u.conj().T
    m = (m + m.conj().T) / 2
    if accepted:
        assert check_density(m) is m
    else:
        with pytest.raises(InvariantError, match="negative eigenvalue"):
            check_density(m)


def moveaxis_apply_channel(rho, superop, qubits, n):
    """The engine's kernel as it was written with np.moveaxis, kept as a reference."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits] + [2 * n - 1 - q for q in qubits]
    t = np.moveaxis(rho.reshape([2] * (2 * n)), axes, range(2 * k))
    shape = t.shape
    t = (superop @ t.reshape(1 << (2 * k), -1)).reshape(shape)
    return np.moveaxis(t, range(2 * k), axes).reshape(rho.shape)


def every_1_and_2_qubit_tuple(n):
    return [(q,) for q in range(n)] + list(permutations(range(n), 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_apply_channel_equals_the_moveaxis_kernel_exactly(n):
    rng = np.random.default_rng(17)
    rho = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    before = rho.copy()
    for qubits in every_1_and_2_qubit_tuple(n):
        d = 4 ** len(qubits)
        superop = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = apply_channel(rho, superop, qubits)
        assert np.array_equal(got, moveaxis_apply_channel(rho, superop, qubits, n)), qubits
        # pure: a new matrix of rho's shape, rho untouched, a transposed view read alike
        assert got.shape == rho.shape and not np.shares_memory(got, rho)
        assert np.array_equal(rho, before)
        assert np.array_equal(apply_channel(rho.T, superop, qubits),
                              moveaxis_apply_channel(rho.T, superop, qubits, n)), qubits


@pytest.mark.parametrize("n", range(1, 6))
def test_flat_index_is_a_cached_read_only_permutation(n):
    for qubits in every_1_and_2_qubit_tuple(n):
        gather, inverse = _flat_index(qubits, n)
        assert _flat_index(qubits, n)[0] is gather
        assert gather.shape == (4 ** len(qubits), 4 ** (n - len(qubits)))
        assert inverse.shape == (2**n, 2**n)
        for index in (gather, inverse):
            assert index.dtype == np.intp and index.flags.c_contiguous
            assert not index.flags.writeable
            assert np.array_equal(np.sort(index, axis=None), np.arange(4**n)), qubits
        assert np.array_equal(gather.ravel()[inverse], np.arange(4**n).reshape(2**n, 2**n))


def test_apply_channel_preserves_trace():
    rho = evolve(2, [(GATE_MATRICES["H"], (0,))])
    k0 = np.array([[1, 0], [0, sqrt(0.6)]], dtype=complex)
    k1 = np.array([[0, sqrt(0.4)], [0, 0]], dtype=complex)
    out = apply_channel(rho, superoperator([k0, k1]), (0,))
    assert abs(np.trace(out) - 1) < 1e-12


def test_every_device_gate_is_unitary():
    for kind, m in [*GATE_MATRICES.items(), ("R", gate_matrix("R", THETA))]:
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-10, err_msg=kind)


def test_r_gates_are_x_rotations():
    # R = exp(+i theta sigma_x / 2), which maps sigma_z onto sigma_theta; Rdg is its adjoint
    for theta in np.linspace(-pi, pi, 1001).tolist():
        c, s = cos(theta / 2), sin(theta / 2)
        r = np.array([[c, 1j * s], [1j * s, c]])
        assert np.array_equal(gate_matrix("R", theta), r), theta
        assert np.array_equal(gate_matrix("Rdg", theta), r.conj().T), theta
        np.testing.assert_allclose(r @ PAULI_Z @ r.conj().T, sigma_theta(theta), atol=1e-12)
    assert np.array_equal(x_rotation(0.9), gate_matrix("Rdg", 0.9))


def test_matrices_equal_up_to_phase():
    h = GATE_MATRICES["H"]
    assert matrices_equal_up_to_phase(np.exp(0.3j) * h, h)
    assert not matrices_equal_up_to_phase(GATE_MATRICES["X"], h)


@pytest.mark.parametrize("a, b, equal", [
    (np.eye(2), np.eye(4), False),  # shapes differ
    (np.zeros((2, 2)), np.zeros((2, 2)), True),  # no phase to read off b
    (GATE_MATRICES["H"], np.zeros((2, 2)), False),
])
def test_matrices_equal_up_to_phase_without_a_phase(a, b, equal):
    assert matrices_equal_up_to_phase(a, b) is equal

