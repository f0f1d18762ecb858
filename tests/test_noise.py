"""Noise channels, the clumsiness kick, and detection properties."""
from math import cos, pi

import numpy as np
import pytest

from lgadroit.noise import (
    IDEAL,
    PLAUSIBLE_NOISE,
    NoiseModel,
    amplitude_damping,
    apply_noise,
    circuit_distribution,
    depolarizing_1q,
    depolarizing_2q_factors,
    invasive_o2,
)
from lgadroit.oracle import brute_force_correlators, brute_force_distribution
from lgadroit.protocols import ProtocolId, build_protocol
from lgadroit.qsim import DensityMatrix, ValidationError, kraus_completeness_defect

THETA = -3 * pi / 4
A = build_protocol(ProtocolId.A)
B = build_protocol(ProtocolId.B)
F = build_protocol(ProtocolId.F)


def exact_c_a(model: NoiseModel) -> float:
    return brute_force_correlators(A, model).single("O3")


# ---------------------------------------------------------------------------
# Model validation and channel algebra
# ---------------------------------------------------------------------------

def test_probabilities_bounded():
    with pytest.raises(ValidationError):
        NoiseModel(p1=1.5)
    with pytest.raises(ValidationError):
        NoiseModel(eps_ro=-0.1)
    with pytest.raises(ValidationError):
        NoiseModel(kick=("O2", 4.0))


def test_kraus_sets_complete():
    for p in (0.0, 0.05, 0.3, 1.0):
        assert kraus_completeness_defect(depolarizing_1q(p)) < 1e-12
        assert kraus_completeness_defect(amplitude_damping(p)) < 1e-12
        two = [np.kron(a, b) for a, b in depolarizing_2q_factors(p)]
        assert kraus_completeness_defect(two) < 1e-12


def test_timing_gates_carry_no_gate_error():
    model = NoiseModel(p1=0.1, p2=0.1, gamma_idle=0.01)
    sim = apply_noise(A.circuit, model, A.kick_anchors)
    for step in sim.steps:
        gate = A.circuit.gate_at(step.qubits[0], step.slot)
        if gate is not None and gate.kind in ("Id", "T", "Tdg"):
            assert "depolarizing" not in step.label


# ---------------------------------------------------------------------------
# apply_noise semantics
# ---------------------------------------------------------------------------

def test_zero_model_matches_ideal_distribution():
    for pc in (A, B, F):
        noisy = circuit_distribution(pc.circuit, IDEAL, pc.kick_anchors)
        ideal = brute_force_distribution(pc)
        assert np.max(np.abs(noisy - ideal)) < 1e-12


def test_half_readout_error_flattens_correlators():
    res = brute_force_correlators(F, NoiseModel(eps_ro=0.5))
    assert abs(res.single("O3")) < 1e-12
    assert abs(res.single("O2")) < 1e-12
    assert abs(res.pair("O2", "O3")) < 1e-12


def test_readout_flip_scales_o3_by_one_minus_two_eps():
    # frozen from binary-symmetric-channel algebra: <O3> -> (1-2e) <O3>
    for eps in (0.05, 0.1, 0.25):
        got = exact_c_a(NoiseModel(eps_ro=eps))
        assert got == pytest.approx((1 - 2 * eps) * cos(THETA), abs=1e-12)


def test_kick_requires_present_measurement():
    with pytest.raises(ValidationError):
        apply_noise(A.circuit, NoiseModel(kick=("O2", 0.5)), A.kick_anchors)


def test_noisy_paths_agree_tensor_vs_kron():
    noisy = NoiseModel(p1=0.01, p2=0.03, eps_ro=0.02, gamma_idle=0.005)
    for mode, theta in (("device", THETA), ("ideal", 0.4)):
        for kappa in (None, 0.9):
            for pid in ProtocolId:
                pc = build_protocol(pid, theta, mode)
                model = noisy
                if kappa is not None and "O2" in pc.kick_anchors:
                    model = invasive_o2(noisy, kappa)
                d1 = circuit_distribution(pc.circuit, model, pc.kick_anchors)
                d2 = brute_force_distribution(pc, model)
                assert np.max(np.abs(d1 - d2)) < 1e-12, (mode, kappa, pid)


def test_invariants_checked_once_per_evolution(monkeypatch):
    # the steps fold over a raw matrix; only the final state is validated
    checks = []
    validate = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda dm: (checks.append(dm.n_qubits), validate(dm)))
    sim = apply_noise(F.circuit, invasive_o2(PLAUSIBLE_NOISE, 0.9), F.kick_anchors)
    sim.final_density()
    assert len(sim.steps) > 100 and checks == [5]


# ---------------------------------------------------------------------------
# Invasiveness kick
# ---------------------------------------------------------------------------

def test_zero_kick_is_inert():
    kicked = invasive_o2(IDEAL, 0.0)
    d0 = brute_force_distribution(B)
    d1 = brute_force_distribution(B, kicked)
    assert np.max(np.abs(d0 - d1)) < 1e-12


def test_kick_pi_half_shifts_protocol_b_strongly():
    # frozen oracle value: eps_b = |cos(theta)| (1 - cos(kappa)) = 1/sqrt(2)
    kicked = invasive_o2(IDEAL, pi / 2)
    eps_b = abs(brute_force_correlators(B, kicked).single("O3") - exact_c_a(IDEAL))
    assert eps_b == pytest.approx(abs(cos(THETA)), abs=1e-12)
    assert eps_b > 0.2


def test_kick_pi_half_breaks_the_violation_condition():
    kicked = invasive_o2(IDEAL, pi / 2)
    res_f = brute_force_correlators(F, kicked)
    lg = exact_c_a(IDEAL) + res_f.single("O2") + res_f.pair("O2", "O3") + 1
    eps_total = abs(brute_force_correlators(B, kicked).single("O3") - exact_c_a(IDEAL))
    assert lg < 0 and abs(lg) < eps_total  # condition (LG < 0 and |LG| >= eps) fails


def test_detection_completeness_on_kappa_grid():
    base = exact_c_a(IDEAL)
    for kappa in (-pi, -1.7, -pi / 2, -0.3, 0.001, 0.3, pi / 2, 1.7, pi):
        kicked = invasive_o2(IDEAL, kappa)
        eps_b = abs(brute_force_correlators(B, kicked).single("O3") - base)
        assert eps_b > 0, kappa


def test_kick_identical_in_b_and_f():
    # the position-2 block sits at the same columns in B and F
    assert B.kick_anchors["O2"] == F.kick_anchors["O2"]


# ---------------------------------------------------------------------------
# Monotonicity against the brute-force oracle
# ---------------------------------------------------------------------------

def test_c_a_magnitude_non_increasing_in_p1():
    vals = [abs(exact_c_a(NoiseModel(p1=p))) for p in (0.0, 0.02, 0.08, 0.2, 0.5)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_c_a_unaffected_by_p2():
    # protocol (a) has no CNOT, so CNOT error cannot move it
    vals = [exact_c_a(NoiseModel(p2=p)) for p in (0.0, 0.1, 0.5)]
    assert max(vals) - min(vals) < 1e-12


def test_c_a_magnitude_non_increasing_in_eps_ro():
    vals = [abs(exact_c_a(NoiseModel(eps_ro=e))) for e in (0.0, 0.1, 0.25, 0.4, 0.5)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_c_a_magnitude_grows_with_idle_damping():
    # relaxation toward |0> pushes the operational <O3> toward -1 at this
    # theta, so |c_a| increases with gamma; pinned as the true behavior
    vals = [abs(exact_c_a(NoiseModel(gamma_idle=g))) for g in (0.0, 0.005, 0.02, 0.08)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > vals[0]


def test_plausible_noise_stays_in_violation_region_exactly():
    res_a = brute_force_correlators(A, PLAUSIBLE_NOISE)
    res_f = brute_force_correlators(F, PLAUSIBLE_NOISE)
    lg = res_a.single("O3") + res_f.single("O2") + res_f.pair("O2", "O3") + 1
    assert abs(lg - (-0.21)) < 0.1
