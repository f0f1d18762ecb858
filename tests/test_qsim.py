"""Simulation-core tests: gates, the superoperator engine, channels, sampling."""
from math import inf, nan, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import kraus_completeness_defect
from lgadroit.circuit import Gate
from lgadroit.qsim import (
    GATE_MATRICES,
    DensityMatrix,
    InvariantError,
    ValidationError,
    apply_channel,
    gate_matrix,
    index_to_string,
    matrices_equal_up_to_phase,
    rotation_to_theta_basis,
    sample_counts,
    sigma_theta,
    superoperator,
)

THETA = -3 * pi / 4


def evolve(n, ops, rho=None):
    """Fold (matrix, qubits) unitaries through the engine, from |0..0> by default."""
    rho = basis_state("0" * n) if rho is None else rho
    for m, qubits in ops:
        rho = apply_channel(rho, superoperator([m]), qubits, n)
    return DensityMatrix(n, rho)


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
    np.testing.assert_allclose(out.matrix, basis_state("1"), atol=1e-12)


def test_h_squared_is_identity():
    h = GATE_MATRICES["H"]
    out = evolve(1, [(h, (0,)), (h, (0,))])
    np.testing.assert_allclose(out.matrix, basis_state("0"), atol=1e-12)


def test_eq9_sequence_prepares_minus_eigenstate_of_sigma_theta():
    # H T H Sdg H applied to |1> lands on the -1 eigenstate of sigma_theta
    # (frozen oracle: its projector (I - sigma_theta)/2)
    ops = [(GATE_MATRICES[kind], (0,)) for kind in ("H", "Sdg", "H", "T", "H")]
    out = evolve(1, ops, basis_state("1"))
    np.testing.assert_allclose(out.matrix, (np.eye(2) - sigma_theta(THETA)) / 2, atol=1e-12)


def test_cnot_flips_target_on_set_control():
    out = evolve(2, [(CNOT, (0, 1))], basis_state("10"))  # Q0=1, Q1=0
    np.testing.assert_allclose(out.matrix, basis_state("11"), atol=1e-12)


def test_cnot_makes_bell_state_with_mixed_target():
    out = evolve(2, [(GATE_MATRICES["H"], (0,)), (CNOT, (0, 1))])
    np.testing.assert_allclose(out.diagonal_probabilities(), [0.5, 0, 0, 0.5], atol=1e-12)
    assert abs(out.matrix[0, 3] - 0.5) < 1e-12  # coherent, not a classical mixture


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
        rho = apply_channel(rho, superoperator([m]), qubits, 3)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert abs(np.trace(rho @ rho) - 1) < 1e-12  # a pure state stays pure
    DensityMatrix(3, rho)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_ground_state_all_zero_string():
    tables = sample_counts(DensityMatrix(5, basis_state("00000")).diagonal_probabilities(),
                           5, 8192, [1])
    assert tables == ({"00000": 8192},)


def test_sampling_plus_on_q2_within_5_sigma():
    probs = evolve(5, [(GATE_MATRICES["H"], (2,))]).diagonal_probabilities()
    (counts,) = sample_counts(probs, 5, 8192, [2])
    ones = sum(c for bits, c in counts.items() if bits[2] == "1")
    sigma = sqrt(0.25 / 8192)
    assert abs(ones / 8192 - 0.5) < 5 * sigma


def test_sampling_deterministic_for_fixed_seed():
    probs = evolve(5, [(GATE_MATRICES["H"], (0,))]).diagonal_probabilities()
    assert sample_counts(probs, 5, 8192, [42, 43]) == sample_counts(probs, 5, 8192, [42, 43])


def test_sampling_frequencies_converge_to_born_rule():
    rng = np.random.default_rng(5)
    ops = []
    for q in range(5):
        ops.append((GATE_MATRICES[str(rng.choice(["H", "T", "X", "S"]))], (q,)))
        t = int(rng.integers(5))
        if t != q:
            ops.append((CNOT, (q, t)))
    probs = evolve(5, ops).diagonal_probabilities()
    r = 8192
    (counts,) = sample_counts(probs, 5, r, [6])
    assert sum(counts.values()) == r
    for i, p in enumerate(probs):
        got = counts.get(index_to_string(i, 5), 0) / r
        sigma = sqrt(max(p * (1 - p), 1e-12) / r)
        assert abs(got - p) <= 5 * sigma


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(ValidationError):
        sample_counts(np.array([1.0, 0.0]), 1, 0, [0])


@pytest.mark.parametrize("shape, n_qubits", [
    ((64,), 5), ((16,), 5), ((1,), 1), ((32,), 4), ((4, 8), 5),
])
def test_sample_counts_rejects_wrong_length(shape, n_qubits):
    # a 64-vector on 5 qubits used to fold index 32 + k onto k and drop counts
    probs = np.ones(shape) / np.prod(shape)
    with pytest.raises(ValidationError):
        sample_counts(probs, n_qubits, 8192, [1])


@pytest.mark.parametrize("probs, n_qubits, r, error", [
    (np.ones(64) / 64, 5, 8192, ValidationError),
    (np.array([0.5, 0.4]), 1, 8192, InvariantError),
    (np.array([nan, 0.0]), 1, 8192, InvariantError),
    (np.array([1.0, 0.0]), 1, 0, ValidationError),
])
def test_sample_counts_checks_vector_without_seeds(probs, n_qubits, r, error):
    with pytest.raises(error):
        sample_counts(probs, n_qubits, r, [])


def test_sample_counts_multi_seed_equals_single_seed_calls():
    probs = np.random.default_rng(3).dirichlet(np.full(32, 0.3))
    seeds = [0, 1, 7, 7, 12345, 2**32 - 1]
    tables = sample_counts(probs, 5, 8192, seeds)
    assert len(tables) == len(seeds) and tables[2] == tables[3]
    assert tables == tuple(sample_counts(probs, 5, 8192, [s])[0] for s in seeds)
    assert sample_counts(probs, 5, 8192, []) == ()


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
        index_to_string(i, n_qubits): int(c) for i, c in enumerate(draws) if c > 0
    }


def table_items(draw):
    """Each table's (outcome, count) pairs in order, or the exception type raised."""
    try:
        return [list(table.items()) for table in draw()]
    except (ValidationError, InvariantError) as exc:
        return type(exc)


def sampled_items(probs, n_qubits, r, seeds):
    return table_items(lambda: sample_counts(probs, n_qubits, r, seeds))


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
def test_sample_counts_matches_reference_draws(vector, r, seeds):
    n, probs = vector
    got = sampled_items(probs, n, r, seeds)
    assert got == reference_items(probs, n, r, seeds)
    if isinstance(got, list):
        assert len(got) == len(seeds)
        assert all(sum(c for _, c in table) == r for table in got)


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
    assert index_to_string(1, 5) == "10000"
    assert index_to_string(4, 5) == "00100"
    # the sampler names basis index 4 (qubit 2 set) the same way
    assert sample_counts(np.eye(32)[4], 5, 1, [0]) == ({"00100": 1},)


# ---------------------------------------------------------------------------
# Dephasing channels through the engine
# ---------------------------------------------------------------------------

def dephase(rho, q, n, theta):
    return DensityMatrix(n, apply_channel(rho, superoperator(dephasing(theta)), (q,), n))


def test_dephase_fixes_diagonal_states():
    rho = np.diag([0.3, 0.7]).astype(complex)
    out = dephase(rho, 0, 1, theta=0.0)
    np.testing.assert_allclose(out.matrix, rho, atol=1e-12)


def test_dephase_kills_plus_state_coherence():
    plus = evolve(1, [(GATE_MATRICES["H"], (0,))]).matrix
    out = dephase(plus, 0, 1, theta=0.0)
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_dephase_theta_fixes_its_eigenstate():
    rho_theta = (np.eye(2) - sigma_theta(THETA)) / 2
    out = dephase(rho_theta, 0, 1, theta=THETA)
    np.testing.assert_allclose(out.matrix, rho_theta, atol=1e-12)


def test_dephase_idempotent_and_trace_preserving():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    once = dephase(rho, 1, 2, theta=0.7)
    twice = dephase(once.matrix, 1, 2, theta=0.7)
    np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)
    assert abs(np.trace(once.matrix) - 1) < 1e-12


def test_dephase_kraus_projectors_complete():
    for theta in (0.0, 0.7, THETA):
        assert kraus_completeness_defect(dephasing(theta)) < 1e-12


# ---------------------------------------------------------------------------
# Invariant enforcement
# ---------------------------------------------------------------------------

def test_density_matrix_rejects_bad_trace_and_negativity():
    with pytest.raises(InvariantError):
        DensityMatrix(1, np.diag([0.5, 0.6]).astype(complex))
    with pytest.raises(InvariantError):
        DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize("matrix", [
    np.full((2, 2), nan, dtype=complex),
    np.array([[0.5, inf], [inf, 0.5]], dtype=complex),
], ids=["all_nan", "inf_off_diagonal"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
def test_density_matrix_rejects_non_finite_entries(matrix):
    # a nan defect compares false against any tolerance, and cholesky lets nan through
    with pytest.raises(InvariantError):
        DensityMatrix(1, matrix)


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
        DensityMatrix(5, m)
    else:
        with pytest.raises(InvariantError):
            DensityMatrix(5, m)


def test_apply_channel_preserves_trace():
    rho = evolve(2, [(GATE_MATRICES["H"], (0,))]).matrix
    k0 = np.array([[1, 0], [0, sqrt(0.6)]], dtype=complex)
    k1 = np.array([[0, sqrt(0.4)], [0, 0]], dtype=complex)
    out = apply_channel(rho, superoperator([k0, k1]), (0,), 2)
    assert abs(np.trace(out) - 1) < 1e-12


def test_every_device_gate_is_unitary():
    for kind, m in [*GATE_MATRICES.items(), ("R", rotation_to_theta_basis(THETA))]:
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-10, err_msg=kind)


def test_matrices_equal_up_to_phase():
    h = GATE_MATRICES["H"]
    assert matrices_equal_up_to_phase(np.exp(0.3j) * h, h)
    assert not matrices_equal_up_to_phase(GATE_MATRICES["X"], h)
