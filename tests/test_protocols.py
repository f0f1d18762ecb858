"""Protocol construction, role binding, outcome mapping, run configuration and execution."""
import hashlib
import zlib
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import cos, pi, sqrt

import numpy as np
import pytest

from conftest import count_array
from lgadroit import protocols
from lgadroit.analytics import correlator
from lgadroit.circuit import compile_circuit, validate
from lgadroit.oracle import brute_force_correlators, brute_force_distribution
from lgadroit.protocols import (
    POSITION_ANCILLA,
    POSITION_SYMBOL,
    ROLES,
    SYSTEM_QUBIT,
    ProtocolId,
    RunConfig,
    build_protocol,
    compile_program,
    run_plan,
    shot_seeds,
)
from lgadroit.qsim import InvariantError, ValidationError, sample_counts

THETA = -3 * pi / 4


def block_windows(pc, mode):
    """Measurement position -> its [start, end) columns in ``pc``.

    O1 is all that protocol A lays out without countermeasures; an
    intermediate block is symmetric about its CNOT and ends at its kick anchor.
    """
    o1 = build_protocol(ProtocolId.A, THETA, mode, countermeasures=False)
    windows = {1: (0, max(g.slot for g in o1.gates) + 1)}
    for pos, symbol in POSITION_SYMBOL.items():
        if symbol in pc.kick_anchors:
            end = pc.kick_anchors[symbol][1]
            cx = next(g.slot for g in pc.gates
                      if g.kind == "CNOT" and g.qubits[0] == POSITION_ANCILLA[pos])
            windows[pos] = (2 * cx - end, end + 1)
    return windows


def position_gates(pc, position, windows):
    """Gates of one measurement position: its slot window on its own qubits."""
    s0, s1 = windows[position]
    qubits = {SYSTEM_QUBIT} if position == 1 else {SYSTEM_QUBIT, POSITION_ANCILLA[position]}
    return {g for g in pc.gates if s0 <= g.slot < s1 and set(g.qubits) <= qubits}


def shot_product_mean(counts, roles, pair):
    """Mean product of a pair of reads in one outcome-string table (correlator of two copies)."""
    return correlator(count_array([counts, counts]), roles, pair)["mean"]


def marginal(probs, qubit):
    """(P(bit=0), P(bit=1)) for one qubit of a joint distribution."""
    bit = (np.arange(probs.size) >> qubit) & 1
    return probs[bit == 0].sum(), probs[bit == 1].sum()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_protocol_a_is_init_plus_padding():
    pc = build_protocol(ProtocolId.A)
    wire = [g for g in pc.gates if SYSTEM_QUBIT in g.qubits]
    assert [g.kind for g in wire[:6]] == ["X", "H", "Sdg", "H", "T", "H"]
    assert all(g.kind == "Id" for g in wire[6:])
    assert pc.measured == (2,)
    assert ROLES[ProtocolId.A] == {"O3": 2}


def test_protocol_f_uses_all_qubits_and_legal_cnots():
    pc = build_protocol(ProtocolId.F)
    assert pc.measured == (0, 1, 2, 3, 4)
    cnots = [g for g in pc.gates if g.kind == "CNOT"]
    assert len(cnots) == 4
    assert all(g.qubits[1] == 2 for g in cnots)
    assert ROLES[ProtocolId.F]["O2"] == 1  # O2 on Q1, the long-relaxation ancilla


@pytest.mark.parametrize("mode, theta", [("device", THETA), ("ideal", 0.4)])
def test_roles_table_matches_every_build_and_is_read_only(mode, theta):
    for pid in ProtocolId:
        pc = build_protocol(pid, theta, mode)
        # the oracle names the reads apart from the table: F's roles on the measured qubits
        assert brute_force_correlators(pc).roles == ROLES[pid]
        assert sorted(ROLES[pid].values()) == sorted(pc.measured)
    with pytest.raises(TypeError):
        ROLES[ProtocolId.A] = {}
    with pytest.raises(TypeError):
        ROLES[ProtocolId.F]["O2"] = 0


def test_ancilla_measurement_counts():
    expected = {"A": 0, "B": 1, "C": 1, "D": 1, "E": 1, "F": 4}
    for pid, n_anc in expected.items():
        pc = build_protocol(pid)
        assert len(pc.measured) == n_anc + 1
        assert 2 in pc.measured  # O3 is always Q2's terminal read


def test_all_protocols_validate_and_are_compile_fixpoints():
    for mode in ("device", "ideal"):
        program = compile_program(THETA, mode)
        assert list(program) == list(ProtocolId)
        for pid, pc in program.items():
            assert pc == build_protocol(pid, THETA, mode)
            assert compile_circuit(pc) == pc
            if mode == "device":
                assert validate(pc) == []


def test_protocols_share_one_slot_width():
    widths = {build_protocol(pid).n_slots for pid in ProtocolId}
    assert len(widths) == 1


def test_subset_of_f_position_by_position():
    for mode in ("device", "ideal"):
        f = build_protocol(ProtocolId.F, THETA, mode)
        f_windows = block_windows(f, mode)
        assert list(f_windows) == [1, 2, 3, 4, 5]
        for pid in "BCDE":
            p = build_protocol(pid, THETA, mode)
            windows = block_windows(p, mode)
            assert len(windows) == 2
            for pos in windows:
                assert windows[pos] == f_windows[pos]
                assert position_gates(p, pos, windows) == position_gates(f, pos, f_windows)
            spans = list(windows.values())
            rest = [g for g in p.gates
                    if not any(s0 <= g.slot < s1 for s0, s1 in spans)]
            assert all(g.kind in ("Id", "T", "Tdg") for g in rest)


# sha256 of the six protocols' gates, slots, reads, roles and kick anchors in
# both modes, with and without countermeasures; re-taken once, when the
# T, Tdg spacer went into the gap before every present block (only device
# C, D and E with countermeasures changed)
CIRCUITS_SHA256 = "cbd33e56e1a8182d259add5796b2943d38b21e3079819137d05b44264b6d906f"


def test_protocol_circuits_golden():
    # the report goldens cannot see a misplaced countermeasure: idle damping
    # commutes with T, Tdg and Id, so swapping them leaves every report unchanged
    h = hashlib.sha256()
    for mode, theta in (("device", THETA), ("ideal", 0.4)):
        for countermeasures in (True, False):
            for pid in ProtocolId:
                c = build_protocol(pid, theta, mode, countermeasures=countermeasures)
                gates = sorted((g.kind, g.qubits, g.slot, g.param) for g in c.gates)
                h.update(repr((pid.value, mode, countermeasures, c.n_slots, c.measured, gates,
                               sorted(ROLES[pid].items()), sorted(c.kick_anchors.items()))).encode())
    assert h.hexdigest() == CIRCUITS_SHA256


def test_device_mode_rejects_other_angles():
    with pytest.raises(ValidationError):
        build_protocol(ProtocolId.A, theta=0.3, mode="device")
    with pytest.raises(ValidationError):
        build_protocol(ProtocolId.A, theta=float("nan"), mode="device")
    build_protocol(ProtocolId.A, theta=0.3, mode="ideal")  # fine


@pytest.mark.parametrize("protocol, mode, match", [
    ("G", "device", "unknown protocol 'G'"),
    (None, "ideal", "unknown protocol None"),
    ("A", "exact", "unknown gateset mode 'exact'"),
])
def test_build_protocol_rejects_unknown_names(protocol, mode, match):
    with pytest.raises(ValidationError, match=match):
        build_protocol(protocol, mode=mode)


def test_unprotected_protocol_changes_under_compile():
    raw = build_protocol(ProtocolId.B, countermeasures=False)
    assert compile_circuit(raw) != raw
    protected = build_protocol(ProtocolId.B)
    assert compile_circuit(protected) == protected


# ---------------------------------------------------------------------------
# Outcome mapping
# ---------------------------------------------------------------------------

def test_o3_plus_one_on_bit_one():
    # three shots read +1, one reads -1
    assert shot_product_mean({"00100": 3, "00000": 1}, ROLES[ProtocolId.A], ("O1", "O3")) == 0.5


def test_f_pairs_q1_and_q2():
    roles = ROLES[ProtocolId.F]
    counts = {"01100": 2}  # Q1=1, Q2=1, ancillas 0
    assert shot_product_mean(counts, roles, ("O2", "O3")) == 1.0
    assert shot_product_mean(counts, roles, ("O1", "M_int1")) == -1.0


def test_all_ones_string_in_f():
    roles = ROLES[ProtocolId.F]
    for pair in combinations(["O1", *roles], 2):
        assert shot_product_mean({"11111": 1}, roles, pair) == 1.0, pair


def test_missing_role_bit_rejected():
    with pytest.raises(ValidationError):
        shot_product_mean({"00": 1}, ROLES[ProtocolId.A], ("O1", "O3"))


# ---------------------------------------------------------------------------
# Deferred-measurement soundness
# ---------------------------------------------------------------------------

def test_b_marginal_equals_a_distribution_for_z_diagonal_state():
    # at theta=0 the initialized state is |1>, z-diagonal
    a = brute_force_distribution(build_protocol(ProtocolId.A, 0.0, "ideal"))
    b = brute_force_distribution(build_protocol(ProtocolId.B, 0.0, "ideal"))
    assert np.allclose(marginal(a, 2), marginal(b, 2), atol=1e-10)


def test_b_marginal_equals_a_distribution_at_device_angle():
    a = brute_force_distribution(build_protocol(ProtocolId.A))
    b = brute_force_distribution(build_protocol(ProtocolId.B))
    assert np.allclose(marginal(a, 2), marginal(b, 2), atol=1e-10)


# ---------------------------------------------------------------------------
# Run configuration and execution
# ---------------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValidationError):
        RunConfig(shots=0)
    with pytest.raises(ValidationError):
        RunConfig(repetitions=1)
    for seed in (-1, 2 ** 32, 2 ** 32 + 11):  # 2**32 + 11 would alias seed 11
        with pytest.raises(ValidationError):
            RunConfig(seed=seed)
    RunConfig(seed=2 ** 32 - 1)


@pytest.mark.parametrize("mode", ["device", "ideal"])
@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"), 10 ** 400])
def test_plan_rejects_non_finite_theta(theta, mode):
    # rejected as input, before it reaches the compile cache or the evolution
    with pytest.raises(ValidationError, match="^theta must be a finite number"):
        RunConfig(theta=theta, mode=mode)


def test_run_plan_is_deterministic():
    cfg = RunConfig(shots=512, repetitions=2, seed=5)
    r1 = run_plan(cfg)
    r2 = run_plan(cfg)
    for pid in ProtocolId:
        assert np.array_equal(r1[pid], r2[pid])


def test_run_plan_returns_one_read_only_count_array_per_protocol():
    runs = run_plan(RunConfig(shots=64, repetitions=3))
    assert list(runs) == list(ProtocolId)
    for tables in runs.values():
        assert tables.dtype == np.int64 and tables.shape == (3, 32)
        assert not tables.flags.writeable
        assert tables.sum(axis=1).tolist() == [64, 64, 64]


def test_seed_derivation_distinct_per_protocol_and_rep():
    seeds = {s for pid in ProtocolId for s in shot_seeds(9, pid, 10)}
    assert len(seeds) == 60
    assert shot_seeds(9, ProtocolId.C, 10)[:4] == shot_seeds(9, ProtocolId.C, 4)


def test_seed_derivation_is_the_crc32_of_protocol_and_rep():
    # each seed is the run's seed xor crc32("{tag}:{rep}"), however shot_seeds computes it
    for seed in (0, 11, 123456789, 2**32 - 1):
        for pid in ProtocolId:
            for reps in (0, 1, 10, 256, 1000):
                assert shot_seeds(seed, pid, reps) == [
                    (seed ^ zlib.crc32(f"{pid.value}:{rep}".encode())) & 0xFFFFFFFF
                    for rep in range(reps)]


def test_run_plan_samples_each_program_in_one_call(monkeypatch):
    cfg = RunConfig(shots=64, repetitions=5, seed=3)
    calls = []

    def counting(probs, r, seeds):
        calls.append((np.array(probs), [list(row) for row in seeds]))
        return sample_counts(probs, r, seeds)

    monkeypatch.setattr(protocols, "sample_counts", counting)
    runs = run_plan(cfg)
    ((probs, seeds),) = calls
    assert seeds == [shot_seeds(3, pid, 5) for pid in ProtocolId]
    assert probs.shape == (6, 32)
    for pid, p, row in zip(ProtocolId, probs, seeds):  # the per-protocol draws
        assert np.array_equal(runs[pid], sample_counts(p[None], 64, [row])[0])


def test_run_plan_compiles_each_theta_and_mode_once(monkeypatch):
    real, built = protocols.build_protocol, []

    def counting(pid, theta, mode):
        built.append((pid, mode))
        return real(pid, theta, mode)

    monkeypatch.setattr(protocols, "build_protocol", counting)
    noisy = RunConfig(shots=64, repetitions=2, p2=0.05)
    first, second = run_plan(RunConfig(shots=64, repetitions=2)), run_plan(noisy)
    assert built == [(pid, "device") for pid in ProtocolId]
    assert protocols._compile.cache_info().misses == 1  # the second run shared the first's
    run_plan(replace(noisy, mode="ideal"))
    assert len(built) == 12


@pytest.mark.parametrize("theta, mode", [([0.3], "ideal"), (0.3, ["ideal"]),
                                         (np.array([0.3]), "ideal"), (0.3, np.array(["ideal"]))],
                         ids=["list_theta", "list_mode", "array_theta", "array_mode"])
def test_compile_program_checks_its_inputs_before_the_cache(theta, mode):
    # the lru_cache hashed them first and raised TypeError: unhashable type
    with pytest.raises(ValidationError, match="theta must be a finite number|unknown gateset"):
        compile_program(theta, mode)


def test_compile_program_keys_its_cache_on_the_checked_theta():
    # Fraction(1, 10) != 0.1, but both build the circuits of float(theta) = 0.1
    program = compile_program(Fraction(1, 10), "ideal")
    assert compile_program(0.1, "ideal") is program
    assert protocols._compile.cache_info().misses == 1


def test_compiled_program_is_read_only():
    program = compile_program(THETA, "device")
    assert program is compile_program(THETA, "device")
    f = program[ProtocolId.F]
    with pytest.raises(TypeError):
        program[ProtocolId.A] = f
    with pytest.raises(TypeError):
        f.kick_anchors["O2"] = (2, 0)
    with pytest.raises(TypeError):
        del f.kick_anchors["O2"]
    assert f.kick_anchors == build_protocol(ProtocolId.F).kick_anchors


def test_run_plan_rejects_a_build_the_compiler_changes(monkeypatch):
    real = protocols.build_protocol
    monkeypatch.setattr(protocols, "build_protocol",
                        lambda pid, theta, mode: real(pid, theta, mode, countermeasures=False))
    with pytest.raises(InvariantError, match="^protocol A is not a compile fixpoint$"):
        run_plan(RunConfig(shots=64, repetitions=2))


def test_run_plan_rejects_a_build_that_breaks_a_device_rule(monkeypatch):
    real = protocols.build_protocol

    def cnots_target_q1(pid, theta, mode):
        c = real(pid, theta, mode)
        gates = tuple(replace(g, qubits=(SYSTEM_QUBIT, 1)) if g.qubits == (1, SYSTEM_QUBIT) else g
                      for g in c.gates)
        return replace(c, gates=gates)

    monkeypatch.setattr(protocols, "build_protocol", cnots_target_q1)
    with pytest.raises(InvariantError) as err:
        run_plan(RunConfig(shots=64, repetitions=2))
    assert str(err.value) == ("protocol B is not device-legal: "
                              "cnot_target: CNOT at slot 9 targets q1, only q2 allowed")


def test_o3_frequency_matches_prediction_at_device_angle():
    cfg = RunConfig(repetitions=2)
    tables = run_plan(cfg)[ProtocolId.A]
    total = int(tables.sum())
    ones = int(tables[:, (np.arange(32) >> 2) & 1 == 1].sum())
    p = (1 + cos(THETA)) / 2  # 0.1464
    sigma = sqrt(p * (1 - p) / total)
    assert abs(ones / total - p) < 5 * sigma


def test_o3_deterministic_at_theta_zero():
    cfg = RunConfig(theta=0.0, mode="ideal", repetitions=2, shots=2048)
    tables = run_plan(cfg)[ProtocolId.A]
    assert tables[:, 4].tolist() == [2048, 2048] and tables.sum() == 2 * 2048


@pytest.mark.parametrize("theta", [0.9 * pi, -0.4, 2.0])
def test_sampled_c_a_tracks_cos_theta_in_ideal_mode(theta):
    from lgadroit.analytics import correlator

    cfg = RunConfig(theta=theta, mode="ideal", repetitions=4, seed=8)
    c_a = correlator(run_plan(cfg)[ProtocolId.A], ROLES[ProtocolId.A], ("O1", "O3"))
    sigma = max(c_a["stderr"], sqrt(1 / (cfg.shots * cfg.repetitions)))
    assert abs(c_a["mean"] - cos(theta)) < 5 * sigma


def test_run_plan_with_kick_only_hits_b_and_f():
    runs = run_plan(RunConfig(shots=256, repetitions=2, kick=1.0))
    base = run_plan(RunConfig(shots=256, repetitions=2))
    for pid in (ProtocolId.A, ProtocolId.C, ProtocolId.D, ProtocolId.E):
        assert np.array_equal(runs[pid], base[pid])
    assert not np.array_equal(runs[ProtocolId.B], base[ProtocolId.B])

