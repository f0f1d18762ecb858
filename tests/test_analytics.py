"""Estimation, adroitness arithmetic, the LG quantity, verdicts."""
from itertools import permutations, product
from math import inf, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import count_array, count_map, reference_correlator
from lgadroit.analytics import (
    Verdict,
    adroitness,
    adroitness_total,
    analyze,
    correlator,
    lg_quantity,
    verdict,
)
from lgadroit.protocols import ROLES, ProtocolId, RunConfig, run_plan
from lgadroit.qsim import ValidationError

SQ2 = 1 / sqrt(2)


def est(mean, stderr=0.0, n=10):
    return {"mean": mean, "stderr": stderr, "n_reps": n}


@pytest.fixture(scope="module")
def ideal_runs():
    return run_plan(RunConfig())


@pytest.fixture(scope="module")
def ideal_report(ideal_runs):
    return analyze(ideal_runs)


# ---------------------------------------------------------------------------
# correlator
# ---------------------------------------------------------------------------

def test_deterministic_tables_give_mean_one_zero_error():
    tables = count_array([{"11": 100}, {"11": 50}])
    roles = {"O2": 0, "O3": 1}
    c = correlator(tables, roles, ("O2", "O3"))
    assert c == {"mean": 1.0, "stderr": 0.0, "n_reps": 2}


def test_o1_pairs_reduce_to_single_reads():
    tables = count_array([{"10": 3, "00": 1}, {"10": 1, "00": 1}])
    roles = {"O3": 0}
    c = correlator(tables, roles, ("O1", "O3"))
    assert c["mean"] == pytest.approx((0.5 + 0.0) / 2)


def test_correlator_requires_two_repetitions():
    with pytest.raises(ValidationError):
        correlator(count_array([{"1": 1}]), {"O3": 0}, ("O1", "O3"))


def test_missing_role_rejected():
    with pytest.raises(ValidationError):
        correlator(count_array([{"00": 1}, {"00": 1}]), {"O3": 0}, ("O2", "O3"))


@pytest.mark.parametrize("tables", [
    np.ones(4, dtype=np.int64),  # one table, not a stack of them
    np.ones((2, 3), dtype=np.int64),  # width not a power of two
    np.ones((2, 1), dtype=np.int64),  # no qubit
    np.ones((2, 2, 2), dtype=np.int64),
    np.ones((2, 4)),  # float counts
    np.ones((2, 4), dtype=np.uint64),  # unsigned @ signed would promote to float
    [{"10": 1}, {"10": 1}],  # the outcome-string maps count arrays replaced
    np.array([[5, -1, 0, 0], [4, 0, 0, 0]]),  # a negative count
    np.array([[3, -3, 0, 2], [4, 0, 0, 0]]),  # negative counts in a positive total
], ids=["1d", "width3", "width1", "3d", "float", "uint64", "dicts", "negative",
        "negative_cancels"])
def test_correlator_rejects_tables_that_are_not_count_arrays(tables):
    with pytest.raises(ValidationError, match="2-D integer array"):
        correlator(tables, {"O3": 0}, ("O1", "O3"))


def test_correlator_rejects_an_empty_table():
    with pytest.raises(ValidationError, match="empty shot table"):
        correlator(count_array([{"10": 1}, {"10": 0}]), {"O3": 0}, ("O1", "O3"))


@st.composite
def count_arrays(draw):
    n = draw(st.integers(1, 5))
    cap = (2**63 - 1) >> n  # a row of 2**n counts sums to at most 2**63 - 1
    count = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, cap))
    reps = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(count, min_size=1 << n, max_size=1 << n),
                         min_size=reps, max_size=reps))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=300, derandomize=True, database=None)
@given(count_arrays(), st.data())
def test_correlator_matches_dict_reference(tables, data):
    n = tables.shape[1].bit_length() - 1
    roles = {"O2": data.draw(st.integers(0, n - 1)), "O3": data.draw(st.integers(0, n - 1))}
    pair = data.draw(st.sampled_from([("O1", "O3"), ("O2", "O3"), ("O1", "O2")]))

    def outcome(estimate):
        try:
            return estimate()
        except ValidationError as exc:
            return str(exc)

    got = outcome(lambda: correlator(tables, roles, pair))
    ref = outcome(lambda: reference_correlator([count_map(t) for t in tables], roles, pair))
    # bit-identical mean and stderr, or the same rejection (an empty table)
    assert got == ref


def test_ideal_f_correlators_near_prediction(ideal_report):
    c12 = ideal_report["correlators"]["f_o1o2"]
    c23 = ideal_report["correlators"]["f_o2o3"]
    assert abs(c12["mean"] - (-SQ2)) < 5 * max(c12["stderr"], 1e-4)
    assert abs(c23["mean"] - 0.25) < 5 * max(c23["stderr"], 1e-4)


def test_per_repetition_correlators_within_bounds(ideal_runs):
    for pid in ProtocolId:
        for table in ideal_runs[pid]:
            v = correlator(np.stack([table, table]), ROLES[pid], ("O1", "O3"))
            assert -1.0 <= v["mean"] <= 1.0


# ---------------------------------------------------------------------------
# adroitness
# ---------------------------------------------------------------------------

def test_adroitness_of_identical_estimates_is_zero():
    a = est(-0.7, 0.01)
    out = adroitness(a, a)
    assert out["value"] == 0.0


def test_adroitness_errors_add_in_quadrature():
    out = adroitness(est(-0.69, 0.02), est(-0.70, 0.01))
    assert out["value"] == pytest.approx(0.01)
    assert out["error"] == pytest.approx(sqrt(0.02**2 + 0.01**2))


def test_reference_measured_row_reproduces_totals():
    # measured adroitness row (-.69, -.71, -.68, -.67) against c_a = -.70
    c_a = est(-0.70, 0.01)
    parts = [adroitness(est(m, e), c_a)
             for m, e in ((-0.69, 0.02), (-0.71, 0.02), (-0.68, 0.01), (-0.67, 0.02))]
    total = adroitness_total(parts)
    assert abs(total["value"] - 0.08) < 0.015
    assert total["error"] == pytest.approx(0.04, abs=0.005)


def test_ideal_adroitness_near_zero(ideal_report):
    adr = ideal_report["adroitness"]
    for part in (adr["eps_b"], adr["eps_c"], adr["eps_d"], adr["eps_e"]):
        assert part["value"] < 5 * max(part["error"], 1e-4)


# ---------------------------------------------------------------------------
# lg_quantity and verdict
# ---------------------------------------------------------------------------

def test_lg_reference_measured_values():
    lg = lg_quantity(est(-0.70, 0.01), est(-0.69, 0.01), est(0.18, 0.02))
    assert lg["value"] == pytest.approx(-0.21)
    assert lg["error"] == pytest.approx(sqrt(0.01**2 + 0.01**2 + 0.02**2))


def test_lg_prediction_values():
    lg = lg_quantity(est(-SQ2), est(-SQ2), est(0.25))
    assert lg["value"] == pytest.approx(1.25 - sqrt(2), abs=1e-12)


def test_lg_maximal_correlations():
    assert lg_quantity(est(1.0), est(1.0), est(1.0))["value"] == 4.0


def test_lg_permutation_symmetric_and_affine():
    vals = (-0.3, 0.2, 0.7)
    ref = lg_quantity(*(est(v) for v in vals))["value"]
    for perm in permutations(vals):
        assert lg_quantity(*(est(v) for v in perm))["value"] == pytest.approx(ref)
    # affine in each argument: lg(x) - lg(0) is linear
    for i in range(3):
        def lg_at(x, i=i):
            args = [est(v) for v in vals]
            args[i] = est(x)
            return lg_quantity(*args)["value"]
        a, b, c = lg_at(-0.5), lg_at(0.0), lg_at(0.5)
        assert a + c == pytest.approx(2 * b)


def test_verdict_three_regimes():
    def entry(value, error):
        return {"value": value, "error": error}
    assert verdict(entry(-0.21, 0.03), entry(0.08, 0.04)) \
        is Verdict.VIOLATION_ESTABLISHED
    assert verdict(entry(0.5, 0.0), entry(0.0, 0.0)) \
        is Verdict.NO_VIOLATION
    assert verdict(entry(-0.05, 0.0), entry(0.2, 0.0)) \
        is Verdict.VIOLATION_UNRESOLVED


# ---------------------------------------------------------------------------
# no-signaling check
# ---------------------------------------------------------------------------

def _macrorealist_tables(seed, reps=6, shots=4000):
    """A classical bit read noninvasively: every read reports the same value."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(reps):
        ones = rng.binomial(shots, 0.3)
        tables.append({"11111": ones, "00000": shots - ones})
    return count_array(tables)


def test_no_signaling_zero_for_macrorealist_stub():
    roles_a = {"O3": 2}
    roles_f = {"O2": 1, "O3": 2}
    c_a = correlator(_macrorealist_tables(1), roles_a, ("O1", "O3"))
    c_f = correlator(_macrorealist_tables(1), roles_f, ("O1", "O3"))
    out = adroitness(c_f, c_a)
    assert out["value"] < 5 * max(out["error"], 1e-6)


def test_no_signaling_nonzero_for_quantum_program(ideal_report):
    # frozen oracle value: |cos^5(theta) - cos(theta)| = 0.5303 at -3pi/4
    ns = ideal_report["no_signaling"]
    assert abs(ns["value"] - 0.5303) < 0.02


# ---------------------------------------------------------------------------
# Per-shot inequality
# ---------------------------------------------------------------------------

def test_inequality_holds_for_all_eight_sign_assignments():
    for o1, o2, o3 in product((-1, 1), repeat=3):
        assert o1 * o3 + o1 * o2 + o2 * o3 + 1 >= 0


# ---------------------------------------------------------------------------
# Entry invariants
# ---------------------------------------------------------------------------

@st.composite
def valid_count_arrays(draw):
    """Count arrays ``correlator`` accepts: 2 to 64 rows, none empty, row sums below 2**63."""
    n = draw(st.integers(1, 5))
    cap = (2**63 - 1) >> n
    count = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, cap), st.just(cap))
    tables = draw(arrays(np.int64, st.tuples(st.integers(2, 64), st.just(1 << n)),
                         elements=count))
    tables[tables.sum(axis=1) == 0, 0] = 1
    return tables


@settings(max_examples=300, derandomize=True, database=None)
@given(valid_count_arrays(), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from([("O1", "O3"), ("O2", "O3"), ("O1", "O2")]))
@example(np.array([[2**63 - 1, 0], [0, 2**63 - 1]]), 0, 0, ("O1", "O3"))
@example(np.array([[1, 2**63 - 2]] * 64), 0, 0, ("O1", "O3"))
def test_correlator_entry_mean_in_range_and_stderr_finite(tables, q2, q3, pair):
    n = tables.shape[1].bit_length() - 1
    entry = correlator(tables, {"O2": q2 % n, "O3": q3 % n}, pair)
    assert abs(entry["mean"]) <= 1.0
    assert 0.0 <= entry["stderr"] < inf
    assert entry["n_reps"] == len(tables)
