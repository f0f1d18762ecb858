"""Estimation, adroitness arithmetic, the LG quantity, verdicts."""
from itertools import permutations, product
from math import sqrt

import numpy as np
import pytest

from lgadroit.analytics import (
    CorrelatorEstimate,
    Verdict,
    adroitness,
    adroitness_total,
    analyze,
    correlator,
    lg_quantity,
    verdict,
)
from lgadroit.noise import IDEAL
from lgadroit.protocols import ExperimentPlan, ProtocolId, run_plan
from lgadroit.qsim import ValidationError

SQ2 = 1 / sqrt(2)


def est(mean, stderr=0.0, n=10):
    return CorrelatorEstimate(mean, stderr, n)


@pytest.fixture(scope="module")
def ideal_runs():
    return run_plan(ExperimentPlan(noise=IDEAL))


@pytest.fixture(scope="module")
def ideal_report(ideal_runs):
    return analyze(ideal_runs)


# ---------------------------------------------------------------------------
# correlator
# ---------------------------------------------------------------------------

def test_deterministic_tables_give_mean_one_zero_error():
    tables = [{"11": 100}, {"11": 50}]
    roles = {"O2": 0, "O3": 1}
    c = correlator(tables, roles, ("O2", "O3"))
    assert c.mean == 1.0 and c.stderr == 0.0 and c.n_reps == 2


def test_o1_pairs_reduce_to_single_reads():
    tables = [{"10": 3, "00": 1}, {"10": 1, "00": 1}]
    roles = {"O3": 0}
    c = correlator(tables, roles, ("O1", "O3"))
    assert c.mean == pytest.approx((0.5 + 0.0) / 2)


def test_correlator_requires_two_repetitions():
    with pytest.raises(ValidationError):
        correlator([{"1": 1}], {"O3": 0}, ("O1", "O3"))


def test_missing_role_rejected():
    with pytest.raises(ValidationError):
        correlator([{"00": 1}, {"00": 1}], {"O3": 0}, ("O2", "O3"))


def test_ideal_f_correlators_near_prediction(ideal_report):
    c12 = ideal_report.correlators["f_o1o2"]
    c23 = ideal_report.correlators["f_o2o3"]
    assert abs(c12.mean - (-SQ2)) < 5 * max(c12.stderr, 1e-4)
    assert abs(c23.mean - 0.25) < 5 * max(c23.stderr, 1e-4)


def test_per_repetition_correlators_within_bounds(ideal_runs):
    for pid in ProtocolId:
        run = ideal_runs[pid]
        for table in run.tables:
            v = correlator([table, table], run.protocol.roles, ("O1", "O3"))
            assert -1.0 <= v.mean <= 1.0


# ---------------------------------------------------------------------------
# adroitness
# ---------------------------------------------------------------------------

def test_adroitness_of_identical_estimates_is_zero():
    a = est(-0.7, 0.01)
    out = adroitness(a, a)
    assert out.value == 0.0


def test_adroitness_errors_add_in_quadrature():
    out = adroitness(est(-0.69, 0.02), est(-0.70, 0.01))
    assert out.value == pytest.approx(0.01)
    assert out.error == pytest.approx(sqrt(0.02**2 + 0.01**2))


def test_reference_measured_row_reproduces_totals():
    # measured adroitness row (-.69, -.71, -.68, -.67) against c_a = -.70
    c_a = est(-0.70, 0.01)
    parts = [adroitness(est(m, e), c_a)
             for m, e in ((-0.69, 0.02), (-0.71, 0.02), (-0.68, 0.01), (-0.67, 0.02))]
    total = adroitness_total(parts)
    assert abs(total.value - 0.08) < 0.015
    assert total.error == pytest.approx(0.04, abs=0.005)


def test_ideal_adroitness_near_zero(ideal_report):
    adr = ideal_report.adroitness_report
    for part in (adr.eps_b, adr.eps_c, adr.eps_d, adr.eps_e):
        assert part.value < 5 * max(part.error, 1e-4)


# ---------------------------------------------------------------------------
# lg_quantity and verdict
# ---------------------------------------------------------------------------

def test_lg_reference_measured_values():
    lg = lg_quantity(est(-0.70, 0.01), est(-0.69, 0.01), est(0.18, 0.02))
    assert lg.value == pytest.approx(-0.21)
    assert lg.error == pytest.approx(sqrt(0.01**2 + 0.01**2 + 0.02**2))


def test_lg_prediction_values():
    lg = lg_quantity(est(-SQ2), est(-SQ2), est(0.25))
    assert lg.value == pytest.approx(1.25 - sqrt(2), abs=1e-12)


def test_lg_maximal_correlations():
    assert lg_quantity(est(1.0), est(1.0), est(1.0)).value == 4.0


def test_lg_permutation_symmetric_and_affine():
    vals = (-0.3, 0.2, 0.7)
    ref = lg_quantity(*(est(v) for v in vals)).value
    for perm in permutations(vals):
        assert lg_quantity(*(est(v) for v in perm)).value == pytest.approx(ref)
    # affine in each argument: lg(x) - lg(0) is linear
    for i in range(3):
        def lg_at(x, i=i):
            args = [est(v) for v in vals]
            args[i] = est(x)
            return lg_quantity(*args).value
        a, b, c = lg_at(-0.5), lg_at(0.0), lg_at(0.5)
        assert a + c == pytest.approx(2 * b)


def test_verdict_three_regimes():
    from lgadroit.analytics import ValueWithError
    assert verdict(ValueWithError(-0.21, 0.03), ValueWithError(0.08, 0.04)) \
        is Verdict.VIOLATION_ESTABLISHED
    assert verdict(ValueWithError(0.5, 0.0), ValueWithError(0.0, 0.0)) \
        is Verdict.NO_VIOLATION
    assert verdict(ValueWithError(-0.05, 0.0), ValueWithError(0.2, 0.0)) \
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
    return tables


def test_no_signaling_zero_for_macrorealist_stub():
    roles_a = {"O3": 2}
    roles_f = {"O2": 1, "O3": 2}
    c_a = correlator(_macrorealist_tables(1), roles_a, ("O1", "O3"))
    c_f = correlator(_macrorealist_tables(1), roles_f, ("O1", "O3"))
    out = adroitness(c_f, c_a)
    assert out.value < 5 * max(out.error, 1e-6)


def test_no_signaling_nonzero_for_quantum_program(ideal_report):
    # frozen oracle value: |cos^5(theta) - cos(theta)| = 0.5303 at -3pi/4
    ns = ideal_report.no_signaling
    assert abs(ns.value - 0.5303) < 0.02


# ---------------------------------------------------------------------------
# Per-shot inequality
# ---------------------------------------------------------------------------

def test_inequality_holds_for_all_eight_sign_assignments():
    for o1, o2, o3 in product((-1, 1), repeat=3):
        assert o1 * o3 + o1 * o2 + o2 * o3 + 1 >= 0


# ---------------------------------------------------------------------------
# Estimate invariants
# ---------------------------------------------------------------------------

def test_estimate_rejects_out_of_range_mean():
    with pytest.raises(ValidationError):
        CorrelatorEstimate(1.5, 0.0, 2)
    with pytest.raises(ValidationError):
        CorrelatorEstimate(0.0, float("nan"), 2)
    with pytest.raises(ValidationError):
        CorrelatorEstimate(float("nan"), 0.0, 2)
