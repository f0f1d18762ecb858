"""Noise channels, the clumsiness kick, and detection properties."""
from dataclasses import asdict, replace
from math import cos, pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import kraus_completeness_defect
from lgadroit import noise
from lgadroit.circuit import ALL_KINDS, KIND_CNOT, ROTATION_KINDS, TIMING_KINDS, Circuit, Gate
from lgadroit.noise import (
    IDEAL,
    PLAUSIBLE_NOISE,
    NoiseModel,
    _fused,
    _run_product,
    amplitude_damping,
    apply_noise,
    depolarizing_1q,
    depolarizing_2q_factors,
    invasive_o2,
)
from lgadroit.oracle import brute_force_correlators, brute_force_distribution
from lgadroit.protocols import (
    ProtocolCircuit,
    ProtocolId,
    RunConfig,
    build_protocol,
    compile_program,
    run_plan,
)
from lgadroit.qsim import (
    ATOL_ALGEBRA,
    CNOT_MATRIX,
    ValidationError,
    gate_matrix,
    sample_counts,
    superoperator,
)

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
    # Id, T and Tdg are delays: each fuses to the bare gate, then idle damping if any
    for gamma in (0.0, 0.01):
        idle = superoperator(amplitude_damping(gamma)) if gamma > 0 else np.eye(4)
        for kind in TIMING_KINDS:
            superop = _fused(kind, None, 0.1, 0.1, gamma)
            if kind == "Id" and gamma == 0:
                assert superop is None  # a noiseless Id is no step at all
            else:
                expected = idle @ superoperator([gate_matrix(kind)])
                np.testing.assert_allclose(superop, expected, atol=1e-15, err_msg=kind)


@pytest.mark.parametrize("p2", [1e-9, 0.003, 0.05, 0.1234567, 0.5, 1.0])
def test_cnot_channel_is_bit_identical_to_the_kron_construction(p2):
    kraus = [np.kron(fa, fb) for fa, fb in depolarizing_2q_factors(p2)]
    expected = superoperator(kraus) @ superoperator([CNOT_MATRIX])
    assert np.array_equal(_fused("CNOT", None, 0.0, p2, 0.0), expected)


# ---------------------------------------------------------------------------
# apply_noise semantics
# ---------------------------------------------------------------------------

def test_zero_model_matches_ideal_distribution():
    for pc in (A, B, F):
        noisy = apply_noise(pc.circuit, IDEAL, pc.kick_anchors).outcome_distribution()
        ideal = brute_force_distribution(pc)
        assert np.max(np.abs(noisy - ideal)) < 1e-12


@pytest.mark.parametrize("pid", list(ProtocolId))
def test_ideal_tables_independent_of_evolution_order(pid):
    # round-off of either path must not decide which outcomes are drawn
    # (multinomial draws one binomial per non-zero entry): the engine's
    # zeroed distribution samples exactly the oracle's, zeroed here
    for theta in np.linspace(-pi, pi, 64):
        pc = build_protocol(pid, theta, "ideal")
        probs = apply_noise(pc.circuit, IDEAL, pc.kick_anchors).outcome_distribution()
        ref = brute_force_distribution(pc)
        ref[ref <= ATOL_ALGEBRA] = 0.0
        seeds = [11, 12, 13]
        assert np.array_equal(sample_counts(probs, 5, 8192, seeds),
                              sample_counts(ref, 5, 8192, seeds)), theta


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


H_THEN_S = Circuit(1, 2, (Gate("H", (0,), 0), Gate("S", (0,), 1)), (0,))
TWO_WIRES = Circuit(2, 1, (Gate("H", (0,), 0), Gate("X", (1,), 0)), (0, 1))


@pytest.mark.parametrize("circuit, anchor", [
    (H_THEN_S, (0, 2)), (H_THEN_S, (0, 5)), (H_THEN_S, (0, -1)), (H_THEN_S, (1, 0)),
    (TWO_WIRES, (-1, 0)),
])
def test_kick_anchor_outside_the_grid_rejected_on_both_paths(circuit, anchor):
    # past the last column the engine used to kick and the oracle to drop the
    # kick; a qubit of -1 used to kick the last wire
    model = NoiseModel(kick=("K", 1.0))
    with pytest.raises(ValidationError, match="outside the circuit grid"):
        apply_noise(circuit, model, {"K": anchor})
    with pytest.raises(ValidationError, match="outside the circuit grid"):
        brute_force_distribution(ProtocolCircuit(circuit, {"K": anchor}), model)


def test_kick_anchor_on_the_last_column_agrees_with_oracle():
    model, anchors = NoiseModel(kick=("K", 1.0)), {"K": (0, 1)}
    got = apply_noise(H_THEN_S, model, anchors).outcome_distribution()
    ref = brute_force_distribution(ProtocolCircuit(H_THEN_S, anchors), model)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_noisy_paths_agree_tensor_vs_kron():
    noisy = NoiseModel(p1=0.01, p2=0.03, eps_ro=0.02, gamma_idle=0.005)
    for mode, theta in (("device", THETA), ("ideal", 0.4)):
        for kappa in (None, 0.9):
            for pid in ProtocolId:
                pc = build_protocol(pid, theta, mode)
                model = noisy
                if kappa is not None and "O2" in pc.kick_anchors:
                    model = invasive_o2(noisy, kappa)
                d1 = apply_noise(pc.circuit, model, pc.kick_anchors).outcome_distribution()
                d2 = brute_force_distribution(pc, model)
                assert np.max(np.abs(d1 - d2)) < 1e-12, (mode, kappa, pid)


rates = st.floats(0.0, 0.3)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rates, rates, rates, rates, st.none() | st.floats(-pi, pi),
       st.sampled_from([ProtocolId.B, ProtocolId.F]), st.none() | st.floats(-pi, pi))
def test_fuzzed_noise_points_match_oracle(p1, p2, eps_ro, gamma_idle, kappa, pid, theta):
    mode, theta = ("device", THETA) if theta is None else ("ideal", theta)
    pc = build_protocol(pid, theta, mode)
    model = NoiseModel(p1, p2, eps_ro, gamma_idle)
    if kappa is not None:
        model = invasive_o2(model, kappa)
    probs = apply_noise(pc.circuit, model, pc.kick_anchors).outcome_distribution()
    assert abs(probs.sum() - 1.0) < 1e-12 and probs.min() > -1e-12
    assert np.max(np.abs(probs - brute_force_distribution(pc, model))) < 1e-12


def test_noise_points_sharing_one_compiled_program_match_oracle():
    # each point changes one of kappa, gamma_idle and p1 from the one before: a run
    # product cached without it in its key would be handed on and miss the oracle
    points = [(0.002, 0.002, 0.9), (0.002, 0.002, -2.1), (0.002, 0.02, -2.1),
              (0.002, 0.0, -2.1), (0.01, 0.0, -2.1), (0.01, 0.0, None)]
    program = compile_program(THETA, "device")
    for p1, gamma_idle, kappa in points:
        model = replace(PLAUSIBLE_NOISE, p1=p1, gamma_idle=gamma_idle)
        for pid, pc in program.items():
            m = model if kappa is None or "O2" not in pc.kick_anchors else invasive_o2(model, kappa)
            got = apply_noise(pc.circuit, m, pc.kick_anchors).outcome_distribution()
            assert np.max(np.abs(got - brute_force_distribution(pc, m))) < 1e-12, (pid, m)
        assert compile_program(THETA, "device") is program


def random_noisy_case(rng: np.random.Generator):
    """A random circuit on 1-5 qubits, kick anchors on any wire and column, and a noise point.

    Gates of every kind land on any wire, measured or not; CNOTs take any
    ordered pair. Each rate is 0 or small, and half the cases carry a kick.
    """
    n, n_slots = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    gates = []
    for slot in range(n_slots):
        free = [int(q) for q in rng.permutation(n)]
        while free:
            kind = str(rng.choice(ALL_KINDS))
            if rng.random() < 0.25 or (kind == KIND_CNOT and len(free) < 2):
                free.pop()
            elif kind == KIND_CNOT:
                gates.append(Gate(kind, (free.pop(), free.pop()), slot))
            else:
                param = float(rng.uniform(-pi, pi)) if kind in ROTATION_KINDS else None
                gates.append(Gate(kind, (free.pop(),), slot, param))
    measured = tuple(q for q in range(n) if rng.random() < 0.6)
    circuit = Circuit(n, n_slots, tuple(gates), measured)
    anchors = {"K": (int(rng.integers(n)), int(rng.integers(n_slots)))}
    rates = [float(rng.choice([0.0, rng.uniform(0.001, 0.05)])) for _ in range(4)]
    kick = ("K", float(rng.uniform(-pi, pi))) if rng.random() < 0.5 else None
    return circuit, anchors, NoiseModel(*rates, kick=kick)


def test_random_circuits_match_oracle():
    # the six protocols leave much untried: unmeasured wires that carry
    # population, CNOTs on any pair, a kick on any wire at any column
    rng = np.random.default_rng(2024)
    kinds = set()
    for case in range(300):
        circuit, anchors, model = random_noisy_case(rng)
        kinds.update(g.kind for g in circuit.gates)
        got = apply_noise(circuit, model, anchors).outcome_distribution()
        ref = brute_force_distribution(ProtocolCircuit(circuit, anchors), model)
        assert np.max(np.abs(got - ref)) < 1e-12, (case, circuit, anchors, model)
    assert kinds == set(ALL_KINDS)


def test_invariants_checked_once_per_evolution(monkeypatch):
    # the steps fold over a raw matrix; only the final state is validated
    checks, check = [], noise.check_density

    def counted(rho):
        checks.append(rho.shape)
        return check(rho)

    monkeypatch.setattr(noise, "check_density", counted)
    sim = apply_noise(F.circuit, invasive_o2(PLAUSIBLE_NOISE, 0.9), F.kick_anchors)
    rho = sim.final_density()
    assert len(sim.steps) == 17 and checks == [(32, 32)] and rho.shape == (32, 32)
    sim.outcome_distribution()
    assert checks == [(32, 32)] * 2


@pytest.mark.parametrize("mode, theta", [("device", THETA), ("ideal", 0.4)])
def test_one_step_per_wire_run_between_cnots(mode, theta):
    # each CNOT splits its two wires' runs: 4 steps per CNOT, plus Q2's first run
    for base in (IDEAL, PLAUSIBLE_NOISE):
        for pid in ProtocolId:
            pc = build_protocol(pid, theta, mode)
            cnots = sum(g.kind == "CNOT" for g in pc.circuit.gates)
            kicks = [None] + ([0.9] if "O2" in pc.kick_anchors else [])
            for kappa in kicks:
                model = base if kappa is None else invasive_o2(base, kappa)
                steps = apply_noise(pc.circuit, model, pc.kick_anchors).steps
                assert (cnots, len(steps)) == {"A": (0, 1), "F": (4, 17)}.get(pid.value, (1, 5))
                width = {}  # wire -> qubit count of its last step
                for qubits, _ in steps:
                    for q in qubits:
                        assert len(qubits) == 2 or width.get(q) != 1, (pid, q)
                        width[q] = len(qubits)


def test_fused_steps_shared_across_protocols_and_read_only():
    def cnot_superops(pc, model):
        sim = apply_noise(pc.circuit, model, pc.kick_anchors)
        return {id(superop): superop for qubits, superop in sim.steps if len(qubits) == 2}

    shared = cnot_superops(B, PLAUSIBLE_NOISE)
    assert len(shared) == 1
    # readout error and the kick do not enter a gate's superoperator
    kicked = invasive_o2(replace(PLAUSIBLE_NOISE, eps_ro=0.3), 0.9)
    assert cnot_superops(F, kicked).keys() == shared.keys()
    assert cnot_superops(B, replace(PLAUSIBLE_NOISE, p2=0.06)).keys() != shared.keys()
    superop = next(iter(shared.values()))
    with pytest.raises(ValueError):
        superop[0, 0] = 0.0


@pytest.mark.parametrize("cfg, keys", [
    (RunConfig(**{**asdict(PLAUSIBLE_NOISE), "kick": 0.9}), (8, 17)),
    (RunConfig(theta=0.3), (6, 15)),
], ids=["device_plausible_kicked", "ideal"])
def test_superoperator_cache_keys_per_program(cfg, keys):
    # the maxsize comments of _fused (32) and _run_product (64) count on these
    for cache in (_fused, _run_product):
        cache.cache_clear()
    run_plan(cfg)
    assert (_fused.cache_info().currsize, _run_product.cache_info().currsize) == keys
    caches = (_fused, _run_product, compile_program)
    misses = [cache.cache_info().misses for cache in caches]
    run_plan(cfg)
    assert [cache.cache_info().misses for cache in caches] == misses


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
