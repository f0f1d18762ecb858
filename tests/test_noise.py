"""Noise channels, the clumsiness kick, and detection properties."""
from dataclasses import asdict, replace
from functools import reduce
from math import cos, pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import damping_kraus, depolarizing_kraus, exact_summary, kraus_completeness_defect
from lgadroit import noise, protocols
from lgadroit.analytics import CORRELATORS
from lgadroit.circuit import ALL_KINDS, KIND_CNOT, ROTATION_KINDS, TIMING_KINDS, Circuit, Gate
from lgadroit.noise import (
    IDEAL,
    PLAUSIBLE_NOISE,
    NoiseModel,
    _channels,
    _fused,
    apply_noise,
)
from lgadroit.oracle import brute_force_correlators, brute_force_distribution
from lgadroit.protocols import (
    ROLES,
    ProtocolId,
    RunConfig,
    build_protocol,
    compile_program,
    run_plan,
)
from lgadroit.qsim import (
    ATOL_ALGEBRA,
    ValidationError,
    gate_matrix,
    sample_counts,
    superoperator,
    x_rotation,
)

THETA = -3 * pi / 4
A = build_protocol(ProtocolId.A)
B = build_protocol(ProtocolId.B)
F = build_protocol(ProtocolId.F)


def exact_c_a(model: NoiseModel) -> float:
    return brute_force_correlators(A, model).pair("O1", "O3")


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


@pytest.mark.parametrize("fields, message", [
    ({"p1": "0.1"}, "p1 must be a finite number"),
    ({"gamma_idle": None}, "gamma_idle must be a finite number"),
    ({"p2": True}, "p2 must be a finite number"),
    ({"kick": "O2"}, "kick must be a"),
    ({"kick": ("O2",)}, "kick must be a"),
    ({"kick": ("O2", "0.5")}, "kick angle must be a finite number"),
    ({"kick": ("O2", True)}, "kick angle must be a finite number"),
    ({"kick": (2, 0.5)}, "kick must be a"),
], ids=["str_rate", "none_rate", "bool_rate", "str_kick", "one_tuple_kick", "str_angle",
        "bool_angle", "int_symbol"])
def test_model_rejects_values_of_the_wrong_type(fields, message):
    with pytest.raises(ValidationError, match=message):
        NoiseModel(**fields)


def test_kraus_sets_complete():
    # the textbook Kraus sets are channels, and _channels writes each in closed form
    for p in (0.05, 0.3, 1.0, 1e-9, 0.003, 0.1234567, 0.5):
        sets = [[reduce(np.kron, factors) for factors in depolarizing_kraus(p, k)] for k in (1, 2)]
        sets.append(damping_kraus(p))
        assert all(kraus_completeness_defect(kraus) < 1e-12 for kraus in sets), p
        channels = _channels(NoiseModel(p1=p, p2=p, gamma_idle=p))
        for name, superop, kraus in zip(("pulse", "cnot", "idle"), channels, sets):
            np.testing.assert_allclose(superop, superoperator(kraus), rtol=0, atol=1e-15,
                                       err_msg=f"{name} at {p}")


def test_timing_gates_carry_no_gate_error():
    # Id, T and Tdg are delays: each fuses to the bare gate, then idle damping if any
    for gamma in (0.0, 0.01):
        idle = superoperator(damping_kraus(gamma)) if gamma > 0 else np.eye(4)
        for kind in TIMING_KINDS:
            superop = _fused(kind, None, *_channels(NoiseModel(p1=0.1, p2=0.1, gamma_idle=gamma)))
            expected = idle @ superoperator([gate_matrix(kind)])
            np.testing.assert_allclose(superop, expected, atol=1e-15, err_msg=kind)


def test_noiseless_id_adds_no_product_and_no_step():
    # q0's run X, Id is the very product of the run X, and q1's lone Id is no step
    padded = Circuit(2, 2, (Gate("X", (0,), 0), Gate("Id", (0,), 1), Gate("Id", (1,), 1)), (0, 1))
    bare = Circuit(2, 2, (Gate("X", (0,), 0),), (0, 1))
    steps = apply_noise([padded, bare], NoiseModel(p1=0.1, p2=0.1)).steps
    assert [(i, qubits) for i, qubits, _ in steps] == [(0, (0,)), (1, (0,))]
    assert steps[0][2] is steps[1][2]


def test_a_zero_rate_is_the_exact_identity_channel():
    pulse, cnot, idle = _channels(IDEAL)
    for channel, d in ((pulse, 4), (cnot, 16), (idle, 4)):
        assert channel.shape == (d, d) and np.array_equal(channel, np.eye(d))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_gate_fused_with_quiet_channels_is_its_bare_superoperator(kind):
    param = 0.3 if kind in ROTATION_KINDS else None
    bare = superoperator([gate_matrix(kind, param)])
    assert _fused(kind, param, *_channels(IDEAL)).tobytes() == bare.tobytes()


@pytest.mark.parametrize("p2", [0.013, 0.05, 0.2])
@pytest.mark.parametrize("mode, theta", [("device", THETA), ("ideal", 0.3), ("ideal", -2.5)])
def test_cnot_channel_shrinks_each_copy_by_p2(mode, theta, p2):
    # depolarizing as (1 - p2) rho + p2 I/4 on the copy CNOT's pair: each of B..E reads
    # c_a scaled by (1 - p2), so eps_x = p2 |c_a| exactly; a (1 - p, p/15) Pauli
    # weighting would give 16 p2 / 15 |c_a|
    program = compile_program(theta, mode)
    dists = apply_noise(tuple(program.values()), NoiseModel(p2=p2)).outcome_distribution()
    c = {pid: dist @ (2 * ((np.arange(32) >> ROLES[pid]["O3"]) & 1) - 1)
         for pid, dist in zip(program, dists)}
    for pid in (ProtocolId.B, ProtocolId.C, ProtocolId.D, ProtocolId.E):
        assert abs(abs(c[pid] - c[ProtocolId.A]) - p2 * abs(c[ProtocolId.A])) < 1e-12, pid


# ---------------------------------------------------------------------------
# apply_noise semantics
# ---------------------------------------------------------------------------

def test_zero_model_matches_ideal_distribution():
    for pc in (A, B, F):
        [noisy] = apply_noise([pc], IDEAL).outcome_distribution()
        ideal = brute_force_distribution(pc)
        assert np.max(np.abs(noisy - ideal)) < 1e-12


@pytest.mark.parametrize("pid", list(ProtocolId))
def test_ideal_tables_independent_of_evolution_order(pid):
    # round-off of either path must not decide which outcomes are drawn
    # (multinomial draws one binomial per non-zero entry): the engine's
    # zeroed distribution samples exactly the oracle's, zeroed here
    for theta in np.linspace(-pi, pi, 64):
        pc = build_protocol(pid, theta, "ideal")
        [probs] = apply_noise([pc], IDEAL).outcome_distribution()
        ref = brute_force_distribution(pc)
        ref[ref <= ATOL_ALGEBRA] = 0.0
        seeds = [11, 12, 13]
        assert np.array_equal(sample_counts(probs[None], 8192, [seeds]),
                              sample_counts(ref[None], 8192, [seeds])), theta


def test_half_readout_error_flattens_correlators():
    res = brute_force_correlators(F, NoiseModel(eps_ro=0.5))
    assert abs(res.pair("O1", "O3")) < 1e-12
    assert abs(res.pair("O1", "O2")) < 1e-12
    assert abs(res.pair("O2", "O3")) < 1e-12


def test_readout_flip_scales_o3_by_one_minus_two_eps():
    # frozen from binary-symmetric-channel algebra: <O3> -> (1-2e) <O3>
    for eps in (0.05, 0.1, 0.25):
        got = exact_c_a(NoiseModel(eps_ro=eps))
        assert got == pytest.approx((1 - 2 * eps) * cos(THETA), abs=1e-12)


def test_kick_requires_present_measurement():
    program = compile_program(THETA, "device")
    for held in ([A], [program[ProtocolId(p)] for p in "ACDE"]):  # none holds O2
        with pytest.raises(ValidationError, match="absent from every circuit"):
            apply_noise(held, NoiseModel(kick=("O2", 0.5)))


H_THEN_S = Circuit(1, 2, (Gate("H", (0,), 0), Gate("S", (0,), 1)), (0,))
TWO_WIRES = Circuit(2, 1, (Gate("H", (0,), 0), Gate("X", (1,), 0)), (0, 1))


@pytest.mark.parametrize("program", [[], [H_THEN_S, TWO_WIRES]],
                         ids=["empty", "mixed_widths"])
def test_program_needs_circuits_of_one_width(program):
    with pytest.raises(ValidationError, match="one or more circuits of one qubit count"):
        apply_noise(program, IDEAL)


@pytest.mark.parametrize("circuit, anchor", [
    (H_THEN_S, (0, 2)), (H_THEN_S, (0, 5)), (H_THEN_S, (0, -1)), (H_THEN_S, (1, 0)),
    (TWO_WIRES, (-1, 0)),
])
def test_kick_anchor_outside_the_grid_rejected_by_the_circuit(circuit, anchor):
    # past the last column the engine used to kick and the oracle to drop the
    # kick; a qubit of -1 used to kick the last wire
    with pytest.raises(ValidationError, match="outside the circuit grid"):
        replace(circuit, kick_anchors={"K": anchor})


def test_kick_anchor_on_the_last_column_agrees_with_oracle():
    model, circuit = NoiseModel(kick=("K", 1.0)), replace(H_THEN_S, kick_anchors={"K": (0, 1)})
    [got] = apply_noise([circuit], model).outcome_distribution()
    ref = brute_force_distribution(circuit, model)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_noisy_paths_agree_tensor_vs_kron():
    noisy = NoiseModel(p1=0.01, p2=0.03, eps_ro=0.02, gamma_idle=0.005)
    for mode, theta in (("device", THETA), ("ideal", 0.4)):
        for kappa in (None, 0.9):
            for pid in ProtocolId:
                pc = build_protocol(pid, theta, mode)
                model = noisy
                if kappa is not None and "O2" in pc.kick_anchors:
                    model = replace(noisy, kick=("O2", kappa))
                [d1] = apply_noise([pc], model).outcome_distribution()
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
        model = replace(model, kick=("O2", kappa))
    [probs] = apply_noise([pc], model).outcome_distribution()
    assert abs(probs.sum() - 1.0) < 1e-12 and probs.min() > -1e-12
    assert np.max(np.abs(probs - brute_force_distribution(pc, model))) < 1e-12


def test_noise_points_sharing_one_compiled_program_match_oracle():
    # each point changes one of kappa, gamma_idle and p1 from the one before: a
    # product kept without it in its key would be handed on and miss the oracle.
    # The kick reaches B and F, the protocols that hold O2, and no other
    points = [(0.002, 0.002, 0.9), (0.002, 0.002, -2.1), (0.002, 0.02, -2.1),
              (0.002, 0.0, -2.1), (0.01, 0.0, -2.1), (0.01, 0.0, None)]
    program = compile_program(THETA, "device")
    for p1, gamma_idle, kappa in points:
        model = replace(PLAUSIBLE_NOISE, p1=p1, gamma_idle=gamma_idle)
        kicked = model if kappa is None else replace(model, kick=("O2", kappa))
        got = apply_noise(tuple(program.values()), kicked).outcome_distribution()
        for (pid, pc), row in zip(program.items(), got):
            m = kicked if "O2" in pc.kick_anchors else model
            assert np.max(np.abs(row - brute_force_distribution(pc, m))) < 1e-12, (pid, m)
        assert compile_program(THETA, "device") is program


def random_noisy_case(rng: np.random.Generator):
    """A random circuit on 1-5 qubits with a kick anchor on any wire and column, and a noise point.

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
    anchors = {"K": (int(rng.integers(n)), int(rng.integers(n_slots)))}
    circuit = Circuit(n, n_slots, tuple(gates), measured, anchors)
    rates = [float(rng.choice([0.0, rng.uniform(0.001, 0.05)])) for _ in range(4)]
    kick = ("K", float(rng.uniform(-pi, pi))) if rng.random() < 0.5 else None
    return circuit, NoiseModel(*rates, kick=kick)


def test_random_circuits_match_oracle():
    # the six protocols leave much untried: unmeasured wires that carry
    # population, CNOTs on any pair, a kick on any wire at any column
    rng = np.random.default_rng(2024)
    kinds = set()
    for case in range(300):
        circuit, model = random_noisy_case(rng)
        kinds.update(g.kind for g in circuit.gates)
        [got] = apply_noise([circuit], model).outcome_distribution()
        ref = brute_force_distribution(circuit, model)
        assert np.max(np.abs(got - ref)) < 1e-12, (case, circuit, model)
    assert kinds == set(ALL_KINDS)


def test_invariants_checked_once_per_evolution(monkeypatch):
    # the steps fold over raw matrices; only the final stack is validated
    checks, check = [], noise.check_density

    def counted(rho):
        checks.append(rho.shape)
        return check(rho)

    monkeypatch.setattr(noise, "check_density", counted)
    program = compile_program(THETA, "device")
    sim = apply_noise(tuple(program.values()), replace(PLAUSIBLE_NOISE, kick=("O2", 0.9)))
    rho = sim.final_density()
    assert len(sim.steps) == 38 and checks == [(6, 32, 32)] and rho.shape == (6, 32, 32)
    assert sim.outcome_distribution().shape == (6, 32)
    assert checks == [(6, 32, 32)] * 2


@pytest.mark.parametrize("mode, theta, model", [
    ("device", THETA, PLAUSIBLE_NOISE),
    ("device", THETA, replace(PLAUSIBLE_NOISE, kick=("O2", 0.9))),
    ("ideal", 0.4, IDEAL),
], ids=["device", "device_kicked", "ideal"])
def test_program_pass_equals_one_circuit_passes_bit_for_bit(mode, theta, model):
    program = list(compile_program(theta, mode).values())
    whole = apply_noise(program, model)
    distributions = whole.outcome_distribution()
    for i, pc in enumerate(program):
        m = model if "O2" in pc.kick_anchors else replace(model, kick=None)
        alone = apply_noise([pc], m)
        assert ([(qubits, superop.tobytes()) for j, qubits, superop in whole.steps if j == i]
                == [(qubits, superop.tobytes()) for _, qubits, superop in alone.steps]), i
        assert distributions[i].tobytes() == alone.outcome_distribution()[0].tobytes(), i


def test_program_pass_multiplies_each_run_prefix_once(monkeypatch):
    # the six protocols' 30 wire runs start with 110 distinct prefixes (every
    # protocol's Q2 run starts X H Sdg H T H); each is one 4x4 product
    products, built, fused = [], [], noise._fused

    class Counted(np.ndarray):
        def dot(self, other):
            products.append(other.shape)
            return np.asarray(self).dot(other)

    def counted(kind, param, *channels):
        built.append((kind, param))
        superop = fused(kind, param, *channels)
        return None if superop is None else superop.view(Counted)

    monkeypatch.setattr(noise, "_fused", counted)
    program = compile_program(THETA, "device")
    apply_noise(tuple(program.values()), PLAUSIBLE_NOISE)
    assert len(products) == 110 and set(products) == {(4, 4)}
    assert len(built) == len(set(built)) == 8
    # unshared, every gate but a run's first (all are noisy here) is one product
    wires = ["".join("|" if g.kind == KIND_CNOT else "g" for g in pc.gates if q in g.qubits)
             for pc in program.values() for q in range(pc.n_qubits)]
    assert sum(len(run) - 1 for wire in wires for run in wire.split("|") if run) == 326
    products.clear()
    for pc in program.values():  # one call per protocol shares within its circuit only
        apply_noise([pc], PLAUSIBLE_NOISE)
    assert len(products) == 246


@pytest.mark.parametrize("mode, theta", [("device", THETA), ("ideal", 0.4)])
def test_one_step_per_wire_run_between_cnots(mode, theta):
    # each CNOT splits its two wires' runs: 4 steps per CNOT, plus Q2's first run
    for base in (IDEAL, PLAUSIBLE_NOISE):
        for pid in ProtocolId:
            pc = build_protocol(pid, theta, mode)
            cnots = sum(g.kind == "CNOT" for g in pc.gates)
            kicks = [None] + ([0.9] if "O2" in pc.kick_anchors else [])
            for kappa in kicks:
                model = base if kappa is None else replace(base, kick=("O2", kappa))
                steps = apply_noise([pc], model).steps
                assert (cnots, len(steps)) == {"A": (0, 1), "F": (4, 17)}.get(pid.value, (1, 5))
                width = {}  # wire -> qubit count of its last step
                for _, qubits, _ in steps:
                    for q in qubits:
                        assert len(qubits) == 2 or width.get(q) != 1, (pid, q)
                        width[q] = len(qubits)


@pytest.mark.parametrize("pid", list(ProtocolId))
def test_wire_steps_are_products_of_their_fused_gates(pid):
    # each one-qubit step is its wire's fused gates since the last CNOT, later ones
    # on the left, with the kick before the first gate past its anchor, also where
    # the other protocols of the call share the product
    program = compile_program(THETA, "device")
    pc, index = program[pid], list(program).index(pid)
    channels = _channels(PLAUSIBLE_NOISE)
    for kappa in (None, 0.9):
        model = PLAUSIBLE_NOISE if kappa is None else replace(PLAUSIBLE_NOISE, kick=("O2", kappa))
        steps = [(qubits, superop) for i, qubits, superop
                 in apply_noise(tuple(program.values()), model).steps if i == index]
        kicked = kappa is not None and "O2" in pc.kick_anchors
        for q in range(pc.n_qubits):
            wire = [(g.slot, g) for g in pc.gates if q in g.qubits]
            if kicked and pc.kick_anchors["O2"][0] == q:
                # between the anchor's column and the next one; sort is stable
                wire.append((pc.kick_anchors["O2"][1] + 0.5, None))
                wire.sort(key=lambda entry: entry[0])
            runs = [[]]
            for _, g in wire:
                if g is None:
                    runs[-1].append(superoperator([x_rotation(kappa)]))
                elif g.kind == KIND_CNOT:
                    runs.append([])
                elif (superop := _fused(g.kind, g.param, *channels)) is not None:
                    runs[-1].append(superop)
            expected = [reduce(lambda product, superop: superop @ product, run)
                        for run in runs if run]
            got = [superop for qubits, superop in steps if qubits == (q,)]
            assert len(got) == len(expected), (pid, kappa, q)
            assert all(map(np.array_equal, got, expected)), (pid, kappa, q)
        cnots = [superop for qubits, superop in steps if len(qubits) == 2]
        assert all(np.array_equal(superop, _fused(KIND_CNOT, None, *channels)) for superop in cnots)


def test_each_channel_is_built_once_per_call(monkeypatch):
    # the pulse, idle and CNOT channels come from one _channels call, however many
    # gate kinds take each; every superoperator built from a Kraus list is a
    # one-element gate unitary or the kick
    calls, sizes = [], []
    channels, real = noise._channels, noise.superoperator
    monkeypatch.setattr(noise, "_channels", lambda m: calls.append(m) or channels(m))
    monkeypatch.setattr(noise, "superoperator", lambda k: sizes.append(len(k)) or real(k))
    program = tuple(compile_program(THETA, "device").values())
    for model in (PLAUSIBLE_NOISE, replace(PLAUSIBLE_NOISE, kick=("O2", 0.9)), IDEAL):
        calls.clear()
        sizes.clear()
        apply_noise(program, model)
        assert calls == [model] and sizes and set(sizes) == {1}, model


def test_fused_steps_shared_across_protocols_and_read_only():
    # within one call, B and F share one CNOT array and the products of their
    # common runs: Q1's two runs (H, and H Id...Id) and Q2's run up to the CNOT.
    # Readout error and the kick do not enter a gate's superoperator
    kicked = replace(PLAUSIBLE_NOISE, eps_ro=0.3, kick=("O2", 0.9))
    sim = apply_noise([B, F], kicked)
    in_f = {id(superop) for i, _, superop in sim.steps if i == 1}
    shared = [qubits for i, qubits, superop in sim.steps if i == 0 and id(superop) in in_f]
    assert shared == [(1,), (2,), (1, 2), (1,)]
    assert len({id(superop) for _, qubits, superop in sim.steps if len(qubits) == 2}) == 1
    assert all(not superop.flags.writeable for _, _, superop in sim.steps)
    # nothing is kept between calls: the next one builds its own arrays
    again = apply_noise([B, F], kicked)
    assert not {id(s) for _, _, s in sim.steps} & {id(s) for _, _, s in again.steps}
    assert all(map(np.array_equal, [s for *_, s in sim.steps], [s for *_, s in again.steps]))


@pytest.mark.parametrize("cfg, keys", [
    (RunConfig(**{**asdict(PLAUSIBLE_NOISE), "kick": 0.9}), 8),
    (RunConfig(theta=0.3), 5),  # a noiseless Id is never built
], ids=["device_plausible_kicked", "ideal"])
def test_superoperator_cache_keys_per_program(cfg, keys, monkeypatch):
    # one run_plan builds each distinct gate's superoperator once, and the next
    # run_plan builds them again: only the compiled program is cached
    built, fused = [], noise._fused
    monkeypatch.setattr(noise, "_fused", lambda *key: built.append(key[:2]) or fused(*key))
    run_plan(cfg)
    assert len(built) == len(set(built)) == keys
    misses = protocols._compile.cache_info().misses
    run_plan(cfg)
    assert len(built) == 2 * keys and protocols._compile.cache_info().misses == misses


# ---------------------------------------------------------------------------
# Invasiveness kick
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kick, expected", [
    (0.0, None),
    (-0.0, None),
    (0.9, ("O2", 0.9)),
    (np.float32(-0.5), ("O2", -0.5)),
], ids=["zero", "negative_zero", "kick", "numpy_negative"])
def test_run_config_builds_its_noise_model_field_by_field(kick, expected):
    # a zero angle is no kick at all: the model equals the unkicked one
    cfg = RunConfig(mode="device", p1=1e-3, p2=1e-2, eps_ro=0.02, gamma_idle=1e-4, kick=kick)
    model = cfg.noise_model()
    assert model == NoiseModel(1e-3, 1e-2, 0.02, 1e-4, expected)
    assert expected is None or type(model.kick[1]) is float


def test_zero_kick_is_inert():
    kicked = replace(IDEAL, kick=("O2", 0.0))
    d0 = brute_force_distribution(B)
    d1 = brute_force_distribution(B, kicked)
    assert np.max(np.abs(d0 - d1)) < 1e-12


def test_kick_pi_half_shifts_protocol_b_strongly():
    # frozen oracle value: eps_b = |cos(theta)| (1 - cos(kappa)) = 1/sqrt(2)
    kicked = replace(IDEAL, kick=("O2", pi / 2))
    eps_b = abs(brute_force_correlators(B, kicked).pair("O1", "O3") - exact_c_a(IDEAL))
    assert eps_b == pytest.approx(abs(cos(THETA)), abs=1e-12)
    assert eps_b > 0.2


def test_kick_pi_half_breaks_the_violation_condition():
    kicked = replace(IDEAL, kick=("O2", pi / 2))
    res_f = brute_force_correlators(F, kicked)
    lg = exact_c_a(IDEAL) + res_f.pair("O1", "O2") + res_f.pair("O2", "O3") + 1
    eps_total = abs(brute_force_correlators(B, kicked).pair("O1", "O3") - exact_c_a(IDEAL))
    assert lg < 0 and abs(lg) < eps_total  # condition (LG < 0 and |LG| >= eps) fails


def test_detection_completeness_on_kappa_grid():
    base = exact_c_a(IDEAL)
    for kappa in (-pi, -1.7, -pi / 2, -0.3, 0.001, 0.3, pi / 2, 1.7, pi):
        kicked = replace(IDEAL, kick=("O2", kappa))
        eps_b = abs(brute_force_correlators(B, kicked).pair("O1", "O3") - base)
        assert eps_b > 0, kappa


@pytest.mark.parametrize("base, kappa, margin", [
    (IDEAL, 0.0, 0.16421356237309),
    (IDEAL, 0.4, 0.22548459300884),  # the kick deepens LG more than it raises eps_b
    (IDEAL, pi / 2, -0.04289321881346),
    (PLAUSIBLE_NOISE, 0.0, -0.00549071732543),
    (PLAUSIBLE_NOISE, 0.4, 0.03182583740082),  # a kick turns the margin positive
    (PLAUSIBLE_NOISE, pi / 2, -0.25436338869600),
], ids=["ideal-0", "ideal-0.4", "ideal-pi/2", "plausible-0", "plausible-0.4", "plausible-pi/2"])
def test_kick_margin_on_the_device_program(base, kappa, margin):
    # |LG| - eps_total, exactly: a kick on O2 always raises eps_b, yet a small one can widen
    # the margin, so an established verdict does not by itself show that the reads were adroit
    assert_kick_margin("O2", base, kappa, margin)


@pytest.mark.parametrize("read, base, kappa, margin", [
    ("M_int1", IDEAL, 0.4, -0.13294831582898),
    ("M_int1", IDEAL, pi / 2, 0.16421356237309),
    ("M_int1", IDEAL, -pi / 2, -0.75),
    ("M_int1", PLAUSIBLE_NOISE, 0.4, -0.15292742679843),
    ("M_int1", PLAUSIBLE_NOISE, pi / 2, -0.00549071732543),
    ("M_int1", PLAUSIBLE_NOISE, -pi / 2, -0.88120989955402),
    ("M_int2", IDEAL, 0.4, 0.22548459300884),
    ("M_int2", IDEAL, pi / 2, -0.04289321881346),
    ("M_int2", IDEAL, -pi / 2, -0.54289321881346),
    ("M_int2", PLAUSIBLE_NOISE, 0.4, 0.03036036086240),
    ("M_int2", PLAUSIBLE_NOISE, pi / 2, -0.27957969993714),
    ("M_int2", PLAUSIBLE_NOISE, -pi / 2, -0.64989349094752),
    ("M_int3", IDEAL, 0.4, -0.13294831582898),
    ("M_int3", IDEAL, pi / 2, 0.16421356237309),
    ("M_int3", IDEAL, -pi / 2, -0.75),
    ("M_int3", PLAUSIBLE_NOISE, 0.4, -0.13682609893719),
    ("M_int3", PLAUSIBLE_NOISE, pi / 2, -0.00549071732543),
    ("M_int3", PLAUSIBLE_NOISE, -pi / 2, -0.91537551849718),
], ids=[f"{read}-{base}-{kappa}" for read in ("M_int1", "M_int2", "M_int3")
        for base in ("ideal", "plausible") for kappa in ("0.4", "pi/2", "-pi/2")])
def test_kick_margin_at_the_other_reads(read, base, kappa, margin):
    # the margins at +pi/2 after a theta read equal the unkicked ones: see the test below
    assert_kick_margin(read, base, kappa, margin)


def assert_kick_margin(read, base, kappa, margin):
    """The device program's exact margin under a kick of ``kappa`` at ``read``, and every
    correlator of its summary against the brute-force oracle, both within 1e-12."""
    program = compile_program(THETA, "device")
    model = replace(base, kick=(read, kappa))
    summary = exact_summary(apply_noise(tuple(program.values()), model).outcome_distribution())
    assert summary["margin"] == pytest.approx(margin, abs=1e-12)
    for key, (pid, pair) in CORRELATORS.items():
        circuit = program[pid]
        # the oracle refuses a kick on a read its circuit does not hold
        exact = brute_force_correlators(
            circuit, model if read in circuit.kick_anchors else base).pair(*pair)
        assert summary[key] == pytest.approx(exact, abs=1e-12), key


@pytest.mark.parametrize("base", [IDEAL, PLAUSIBLE_NOISE], ids=["ideal", "plausible"])
@pytest.mark.parametrize("read", ["M_int1", "M_int3"])
def test_a_quarter_kick_after_a_theta_read_is_invisible(read, base):
    # after the theta block Q2's Bloch vector lies along +-(0, sin theta, cos theta), and at
    # theta = -3pi/4 sin theta = cos theta; an x rotation by +pi/2 sends (y, z) to (-z, y),
    # which keeps z, and every later read is a z read or comes after one
    program = tuple(compile_program(THETA, "device").values())
    unkicked = apply_noise(program, base).outcome_distribution()
    quarter = apply_noise(program, replace(base, kick=(read, pi / 2))).outcome_distribution()
    assert np.abs(quarter - unkicked).max() <= 1e-15
    back = apply_noise(program, replace(base, kick=(read, -pi / 2))).outcome_distribution()
    assert np.abs(back - unkicked).max() >= 0.5


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
    lg = res_a.pair("O1", "O3") + res_f.pair("O1", "O2") + res_f.pair("O2", "O3") + 1
    assert abs(lg - (-0.21)) < 0.1
