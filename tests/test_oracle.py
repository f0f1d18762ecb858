"""Oracle cross-checks: closed form, superoperators, brute force, boundary."""
from math import cos, pi, sqrt

import numpy as np
import pytest

from lgadroit.oracle import (
    brute_force_correlators,
    brute_force_distribution,
    circuit_unitary,
    closed_form_lg,
    superoperator_correlators,
    theta_sweep,
    violation_boundary,
)
from lgadroit.protocols import ProtocolId, build_protocol
from lgadroit.qsim import sigma_theta

THETA = -3 * pi / 4
SQ2 = 1 / sqrt(2)


# ---------------------------------------------------------------------------
# Closed form and boundary
# ---------------------------------------------------------------------------

def test_closed_form_values():
    assert closed_form_lg(0.0) == pytest.approx(4.0, abs=1e-12)
    assert closed_form_lg(pi) == pytest.approx(0.0, abs=1e-12)
    assert closed_form_lg(THETA) == pytest.approx(1.25 - sqrt(2), abs=1e-12)


def test_boundary_location():
    theta_star = violation_boundary()
    assert 0.6825 <= theta_star / pi <= 0.6835


def test_boundary_brackets_a_sign_change():
    theta_star = violation_boundary()
    assert closed_form_lg(theta_star - 1e-6) * closed_form_lg(theta_star + 1e-6) < 0


def test_lg_negative_inside_violation_region():
    assert closed_form_lg(0.9 * pi) < 0


# ---------------------------------------------------------------------------
# Superoperator path
# ---------------------------------------------------------------------------

def test_superoperator_prediction_row():
    c_a, c_12, c_23 = superoperator_correlators(THETA)
    assert c_a == pytest.approx(-SQ2, abs=1e-12)
    assert c_12 == pytest.approx(-SQ2, abs=1e-12)
    assert c_23 == pytest.approx(0.25, abs=1e-12)


def test_superoperator_aligned_and_orthogonal_angles():
    assert superoperator_correlators(0.0) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert superoperator_correlators(pi / 2) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_superoperator_matches_cos_forms_without_hardcoding():
    for theta in np.linspace(-pi, pi, 17):
        c_a, c_12, c_23 = superoperator_correlators(theta)
        assert c_a == pytest.approx(cos(theta), abs=1e-12)
        assert c_23 == pytest.approx(cos(theta) ** 4, abs=1e-12)


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def test_brute_force_protocol_a():
    res = brute_force_correlators(build_protocol(ProtocolId.A))
    assert res.single("O3") == pytest.approx(-SQ2, abs=1e-12)


def test_brute_force_protocol_f_pair():
    res = brute_force_correlators(build_protocol(ProtocolId.F))
    assert res.pair("O2", "O3") == pytest.approx(0.25, abs=1e-12)
    assert res.single("O2") == pytest.approx(-SQ2, abs=1e-12)


def test_brute_force_adroitness_row():
    for pid in "BCDE":
        res = brute_force_correlators(build_protocol(pid))
        assert res.single("O3") == pytest.approx(-SQ2, abs=1e-12)


def test_marginal_o3_of_f_matches_superoperator_evolution():
    # single-qubit prediction: dephase z, theta, z, theta after initialization,
    # each an unrecorded measurement rho -> (rho + s rho s) / 2
    rho = (np.eye(2) - sigma_theta(THETA)) / 2
    for angle in (0.0, THETA, 0.0, THETA):
        s = sigma_theta(angle)
        rho = (rho + s @ rho @ s) / 2
    p1 = float(np.real(rho[1, 1]))
    dist = brute_force_distribution(build_protocol(ProtocolId.F))
    ones = (np.arange(dist.size) >> 2) & 1 == 1
    assert dist[ones].sum() == pytest.approx(p1, abs=1e-10)


def test_device_and_ideal_circuits_agree():
    for pid in ProtocolId:
        d = brute_force_distribution(build_protocol(pid, THETA, "device"))
        i = brute_force_distribution(build_protocol(pid, THETA, "ideal"))
        assert np.max(np.abs(d - i)) < 1e-12


def test_circuit_unitary_of_device_theta_block_matches_ideal():
    # the collapsed H T H Sdg H machinery computes the same channel as the
    # atomic rotations; full-circuit distributions already agree above, here
    # the unitaries of the initialization segment agree up to phase and a
    # final diagonal that no z-read can see
    dev = build_protocol(ProtocolId.A, THETA, "device").circuit
    ide = build_protocol(ProtocolId.A, THETA, "ideal").circuit
    vd = circuit_unitary(dev)[:, 0]
    vi = circuit_unitary(ide)[:, 0]
    assert abs(abs(np.vdot(vd, vi)) - 1) < 1e-12


def test_sampled_correlators_converge_to_brute_force():
    from lgadroit.analytics import correlator
    from lgadroit.protocols import ROLES, RunConfig, compile_program, run_plan

    cfg = RunConfig()
    runs, program = run_plan(cfg), compile_program(cfg.theta, cfg.mode)
    for pid in ProtocolId:
        exact = brute_force_correlators(program[pid])
        got = correlator(runs[pid], ROLES[pid], ("O1", "O3"))
        sigma = max(got["stderr"], 1e-4)
        assert abs(got["mean"] - exact.single("O3")) < 5 * sigma, pid
    exact = brute_force_correlators(program[ProtocolId.F])
    pair = correlator(runs[ProtocolId.F], ROLES[ProtocolId.F], ("O2", "O3"))
    assert abs(pair["mean"] - exact.pair("O2", "O3")) < 5 * max(pair["stderr"], 1e-4)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep():
    return theta_sweep(list(np.linspace(-pi, pi, 9)))


def test_sweep_triple_agreement(small_sweep):
    assert small_sweep.max_disagreement() < 1e-10
