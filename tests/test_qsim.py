"""Simulation-core tests: gates, the superoperator engine, channels, sampling."""
import warnings
from itertools import permutations
from math import cos, inf, nan, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import count_map, kraus_completeness_defect, reference_sample_counts
from lgadroit.cli import _outcome_names
from lgadroit.circuit import Gate
from lgadroit.qsim import (
    GATE_MATRICES,
    PAULI_Z,
    InvariantError,
    ValidationError,
    _pcg64_states,
    apply_channel,
    check_density,
    gate_matrix,
    matrices_equal_up_to_phase,
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
        rho = apply_channel(rho, superoperator([m]), qubits, n)
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
        rho = apply_channel(rho, superoperator([m]), qubits, 3)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert abs(np.trace(rho @ rho) - 1) < 1e-12  # a pure state stays pure
    check_density(rho)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_ground_state_all_zero_string():
    tables = sample_counts(probabilities(check_density(basis_state("00000"))), 5, 8192, [1])
    assert tables.shape == (1, 32) and tables.dtype == np.int64
    assert count_map(tables[0]) == {"00000": 8192}


def test_sampling_plus_on_q2_within_5_sigma():
    probs = probabilities(evolve(5, [(GATE_MATRICES["H"], (2,))]))
    (counts,) = sample_counts(probs, 5, 8192, [2])
    ones = counts[(np.arange(32) >> 2) & 1 == 1].sum()
    sigma = sqrt(0.25 / 8192)
    assert abs(ones / 8192 - 0.5) < 5 * sigma


def test_sampling_deterministic_for_fixed_seed():
    probs = probabilities(evolve(5, [(GATE_MATRICES["H"], (0,))]))
    assert np.array_equal(sample_counts(probs, 5, 8192, [42, 43]),
                          sample_counts(probs, 5, 8192, [42, 43]))


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
    (counts,) = sample_counts(probs, 5, r, [6])
    assert counts.sum() == r
    for i, p in enumerate(probs):
        got = counts[i] / r
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
    assert tables.shape == (len(seeds), 32) and np.array_equal(tables[2], tables[3])
    assert np.array_equal(tables, np.vstack([sample_counts(probs, 5, 8192, [s]) for s in seeds]))
    assert sample_counts(probs, 5, 8192, []).shape == (0, 32)


def test_sample_counts_stack_equals_one_call_per_vector():
    probs = np.random.default_rng(4).dirichlet(np.full(32, 0.3), size=3)
    seeds = [[0, 5, 2**32 - 1], [5, 6, 7], [11, 0, 12]]
    tables = sample_counts(probs, 5, 8192, seeds)
    assert tables.shape == (3, 3, 32) and not tables.flags.writeable
    for p, row, got in zip(probs, seeds, tables):
        assert np.array_equal(got, sample_counts(p, 5, 8192, row))
    assert sample_counts(probs, 5, 8192, [[], [], []]).shape == (3, 0, 32)


@pytest.mark.parametrize("probs, seeds", [
    (np.eye(32)[:3], [[1, 2], [3, 4]]),  # three vectors, two seed lists
    (np.eye(32)[:2], [[1, 2], [3]]),  # seed lists of unequal length
    (np.eye(32)[:2], [1, 2]),  # a stack needs one list per vector
    (np.eye(32)[0], [[1, 2]]),  # one vector needs one flat list
    (np.eye(32)[:2][None], [[[1]], [[2]]]),  # no deeper stacks
])
def test_sample_counts_rejects_mismatched_stack_shapes(probs, seeds):
    with pytest.raises(ValidationError):
        sample_counts(probs, 5, 16, seeds)


@pytest.mark.parametrize("seeds", [[-1], [2**32], [2.5], [3, 2**32], [2**64], [True]])
def test_sample_counts_rejects_seeds_outside_32_bits(seeds):
    # -1 used to raise numpy's ValueError and 2**32 was drawn from silently
    with pytest.raises(ValidationError, match=r"\[0, 2\*\*32\)"):
        sample_counts(np.eye(32)[4], 5, 16, seeds)


@pytest.mark.parametrize("r", [2.5, True, 2**63], ids=["float", "bool", "2**63"])
def test_sample_counts_rejects_a_shot_count_outside_int64(r):
    # multinomial would draw 2 shots for 2.5 and 1 for True, and overflow a C int64 at 2**63
    with pytest.raises(ValidationError, match=r"^shot count must be an integer in \[1, 2\*\*63\)"):
        sample_counts(np.eye(32)[4], 5, r, [1])


def test_pcg64_starting_states_equal_numpy_seeding():
    seeds = [0, 1, 2**31, 2**32 - 1]
    seeds += np.random.default_rng(16).integers(0, 2**32, 10_000).tolist()
    expected = [(state["state"], state["inc"])
                for state in (np.random.PCG64(s).state["state"] for s in seeds)]
    with warnings.catch_warnings():
        # the hash wraps modulo 2^32 on purpose; a scalar-overflow warning would reach stderr
        warnings.simplefilter("error")
        got = list(_pcg64_states(np.array(seeds, dtype=np.uint32)))
    assert got == expected


def test_sample_counts_returns_read_only_tables():
    # run_plan hands the one array to analyze and to shots_csv
    tables = sample_counts(np.eye(32)[4], 5, 16, [0, 1])
    assert not tables.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tables[0, 4] = 0
    with pytest.raises(ValueError, match="read-only"):
        tables[1] += 1
    assert tables[:, 4].tolist() == [16, 16]


def table_items(draw):
    """Each table's (outcome, count) pairs in order, or the exception type raised."""
    try:
        return [list(table.items()) for table in draw()]
    except (ValidationError, InvariantError) as exc:
        return type(exc)


def sampled_items(probs, n_qubits, r, seeds):
    """Each sampled row as the reference's outcome-string map, checked for shape first."""
    def draw():
        tables = sample_counts(probs, n_qubits, r, seeds)
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
    assert sample_counts(np.eye(32)[4], 5, 1, [0]).tolist() == [np.eye(32, dtype=int)[4].tolist()]


# ---------------------------------------------------------------------------
# Dephasing channels through the engine
# ---------------------------------------------------------------------------

def dephase(rho, q, n, theta):
    return check_density(apply_channel(rho, superoperator(dephasing(theta)), (q,), n))


def test_dephase_fixes_diagonal_states():
    rho = np.diag([0.3, 0.7]).astype(complex)
    out = dephase(rho, 0, 1, theta=0.0)
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_dephase_kills_plus_state_coherence():
    plus = evolve(1, [(GATE_MATRICES["H"], (0,))])
    out = dephase(plus, 0, 1, theta=0.0)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_dephase_theta_fixes_its_eigenstate():
    rho_theta = (np.eye(2) - sigma_theta(THETA)) / 2
    out = dephase(rho_theta, 0, 1, theta=THETA)
    np.testing.assert_allclose(out, rho_theta, atol=1e-12)


def test_dephase_idempotent_and_trace_preserving():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    once = dephase(rho, 1, 2, theta=0.7)
    twice = dephase(once, 1, 2, theta=0.7)
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


def test_apply_channel_equals_the_moveaxis_kernel_exactly():
    rng = np.random.default_rng(17)
    rho = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    tuples = [(q,) for q in range(5)] + list(permutations(range(5), 2))
    for qubits in tuples:
        d = 4 ** len(qubits)
        superop = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = apply_channel(rho, superop, qubits, 5)
        assert np.array_equal(got, moveaxis_apply_channel(rho, superop, qubits, 5)), qubits


def test_apply_channel_preserves_trace():
    rho = evolve(2, [(GATE_MATRICES["H"], (0,))])
    k0 = np.array([[1, 0], [0, sqrt(0.6)]], dtype=complex)
    k1 = np.array([[0, sqrt(0.4)], [0, 0]], dtype=complex)
    out = apply_channel(rho, superoperator([k0, k1]), (0,), 2)
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
