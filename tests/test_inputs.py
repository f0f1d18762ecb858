"""One rule for integer, real and enumerated inputs, applied alike by every constructor.

An integer is a Python or numpy integer that is not a bool; a real is a
finite real number that is not a bool, numpy's and ``Fraction`` included;
a choice is a str, numpy's and a str enum member included, in its set.
Each field below is probed with values outside its rule, which must raise
``ValidationError`` from the constructor itself (never a ``TypeError``, an
``AttributeError`` or, later, an ``InvariantError``), and with foreign
scalars inside it, which must behave as their Python twins.
"""
from fractions import Fraction

import numpy as np
import pytest

from lgadroit import cli
from lgadroit.analytics import correlator
from lgadroit.circuit import Circuit, Gate
from lgadroit.noise import NoiseModel, apply_noise
from lgadroit.oracle import brute_force_distribution
from lgadroit.protocols import RunConfig, build_protocol, compile_program
from lgadroit.qsim import ValidationError, sample_counts

NAN, INF = float("nan"), float("inf")


def _shots(r):
    return sample_counts(np.eye(32)[4:5], r, [[1]])


def _o3_of_qubit(q):
    """The O3 correlator of two 3-qubit tables, O3 read on qubit ``q``."""
    return correlator(np.array([[3, 0, 0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 3, 0, 0, 0]]),
                      {"O3": q}, ("O1", "O3"))


# field -> (constructor of the field's value, the stored value or None where none is kept);
# Gate keeps a checked position as given: it compares and hashes as the int it equals
INTEGER_FIELDS = {
    "RunConfig.shots": (lambda v: RunConfig(shots=v), lambda cfg: cfg.shots),
    "RunConfig.repetitions": (lambda v: RunConfig(repetitions=v), lambda cfg: cfg.repetitions),
    "RunConfig.seed": (lambda v: RunConfig(seed=v), lambda cfg: cfg.seed),
    "Gate.qubits": (lambda v: Gate("X", (v,), 0), None),
    "Gate.slot": (lambda v: Gate("X", (0,), v), None),
    "Circuit.n_qubits": (lambda v: Circuit(v, 1, (), ()), lambda c: c.n_qubits),
    "Circuit.n_slots": (lambda v: Circuit(3, v, (), ()), lambda c: c.n_slots),
    "Circuit.measured": (lambda v: Circuit(3, 1, (), (v,)), lambda c: c.measured[0]),
    "sample_counts.r": (_shots, None),
    "correlator.roles": (_o3_of_qubit, None),
}
REAL_FIELDS = {
    **{f"RunConfig.{key}": (lambda v, key=key: RunConfig(mode="ideal", **{key: v}),
                            lambda cfg, key=key: getattr(cfg, key))
       for key in ("theta", "p1", "p2", "eps_ro", "gamma_idle", "kick")},
    **{f"NoiseModel.{key}": (lambda v, key=key: NoiseModel(**{key: v}),
                             lambda model, key=key: getattr(model, key))
       for key in ("p1", "p2", "eps_ro", "gamma_idle")},
    "NoiseModel.kick": (lambda v: NoiseModel(kick=("O2", v)), lambda model: model.kick[1]),
    "Gate.param": (lambda v: Gate("R", (0,), 0, v), lambda g: g.param),
    "build_protocol.theta": (lambda v: build_protocol("A", v, "ideal"),
                             lambda c: c.gates[1].param),
}

NOT_INTEGERS = [2.5, 2.0, np.float64(2.0), "2", None, True, np.True_, Fraction(2)]
NOT_REALS = ["0.1", True, np.True_, NAN, INF, -INF, np.float32(INF), np.float64(NAN), 10**400,
             Fraction(10**400), 0.1j]
INTEGERS = [np.int64(2), np.int32(2), np.uint8(2)]
REALS = [np.float64(0.1), np.float32(0.1), Fraction(1, 10)]


def _cases(table, values):
    return [pytest.param(build, read, v, id=f"{field}={v!r:.20}")
            for field, (build, read) in table.items() for v in values]


@pytest.mark.parametrize("build, read, value",
                         _cases(INTEGER_FIELDS, NOT_INTEGERS) + _cases(REAL_FIELDS, NOT_REALS))
def test_a_value_outside_the_rule_is_rejected_by_the_constructor(build, read, value):
    with pytest.raises(ValidationError, match=r"must be an integer, got|must be a finite number"):
        build(value)


@pytest.mark.parametrize("build, read, value",
                         _cases(INTEGER_FIELDS, INTEGERS) + _cases(REAL_FIELDS, REALS))
def test_a_foreign_scalar_is_accepted_as_its_python_twin(build, read, value):
    twin = int(value) if isinstance(value, np.integer) else float(value)
    built, expected = build(value), build(twin)
    if isinstance(built, np.ndarray):
        assert np.array_equal(built, expected)
    else:
        assert built == expected
    if read is not None:  # the constructor stores the plain Python number
        assert type(read(built)) is type(twin) and read(built) == twin


# field -> (constructor of the field's value, a value in its set)
CHOICE_FIELDS = {
    "Gate.kind": (lambda v: Gate(v, (0,), 0), "X"),
    "build_protocol.protocol": (lambda v: build_protocol(v, 0.3, "ideal"), "A"),
    "build_protocol.mode": (lambda v: build_protocol("A", 0.3, v), "ideal"),
    "compile_program.mode": (lambda v: compile_program(0.3, v), "ideal"),
    "RunConfig.mode": (lambda v: RunConfig(mode=v, theta=0.3), "ideal"),
    "RunConfig.format": (lambda v: RunConfig(format=v), "json"),
}
# a value in the set, dressed as something that is not a str; ``in`` would pass most
NOT_STRS = {"ndarray": lambda v: np.array([v]), "0-d_ndarray": np.array, "list": lambda v: [v],
            "bytes": str.encode, "int": lambda v: 1, "none": lambda v: None}


@pytest.mark.parametrize("build, value", [
    pytest.param(build, dress(v), id=f"{field}={name}")
    for field, (build, v) in CHOICE_FIELDS.items() for name, dress in NOT_STRS.items()
    if (field, name) != ("RunConfig.mode", "none")])  # None asks for the mode's default
def test_a_choice_that_is_not_a_str_is_rejected_by_the_constructor(build, value):
    with pytest.raises(ValidationError, match=r"^unknown .*, expected one of "):
        build(value)


@pytest.mark.parametrize("build, value", [
    pytest.param(build, v, id=field) for field, (build, v) in CHOICE_FIELDS.items()])
def test_a_str_subclass_in_the_set_is_accepted_as_its_python_twin(build, value):
    assert build(np.str_(value)) == build(value)


@pytest.mark.parametrize("probe", [
    lambda: Gate("X", 1, 0),
    lambda: Circuit(2, 1, (), 1),
    lambda: Circuit(2, 1, 5, ()),
    lambda: Circuit(2, 1, ("X",), ()),
    lambda: build_protocol("A", "x", "device"),
], ids=["gate_qubits", "circuit_measured", "circuit_gates", "circuit_gate_entry", "device_theta"])
def test_a_container_or_angle_of_the_wrong_type_is_a_validation_error(probe):
    with pytest.raises(ValidationError):
        probe()


def test_numpy_scalar_config_prints_the_same_json(capsys):
    python = RunConfig(shots=512, repetitions=2, seed=7, theta=0.3, format="json")
    numpy = RunConfig(shots=np.int64(512), repetitions=np.int64(2), seed=np.int64(7),
                      theta=np.float64(0.3), format=np.str_("json"), mode=np.str_("ideal"))
    outputs = []
    for cfg in (python, numpy):
        assert cli.run(cfg) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kappa", [True, "0.5", b"0.5"], ids=["bool", "str", "bytes"])
def test_the_kick_takes_the_angle_rule(kappa):
    # float() would read True as an angle of 1.0 and "0.5" or b"0.5" as 0.5
    with pytest.raises(ValidationError, match="must be a finite number, got"):
        NoiseModel(kick=("O2", kappa))


KICKED = NoiseModel(kick=("O2", 1.0))
KICK_GATES = (Gate("Id", (0,), 0), Gate("Id", (0,), 1))


def _kick_circuit(anchors):
    return Circuit(1, 2, KICK_GATES, (0,), anchors)


@pytest.mark.parametrize("anchor", [(0, 0.5), (0, 1.0), (0.0, 0), (False, 0), (0, True),
                                    (0, np.float64(1.0))],
                         ids=["column_half", "column_float", "qubit_float", "qubit_bool",
                              "column_bool", "column_numpy_float"])
def test_a_kick_anchor_that_is_not_an_integer_is_rejected(anchor):
    # a column of 0.5 kicked in the engine and never in the oracle; a qubit of 0.0 was a
    # TypeError in the engine only
    with pytest.raises(ValidationError, match="must be an integer, got"):
        _kick_circuit({"O2": anchor})


@pytest.mark.parametrize("anchors", [{"O2": (0,)}, {"O2": (0, 1, 1)}, {"O2": 1}, {"O2": None},
                                     ("O2", (0, 1))],
                         ids=["short", "long", "int", "none", "not_a_mapping"])
def test_a_kick_anchor_that_is_not_a_pair_is_rejected(anchors):
    with pytest.raises(ValidationError, match=r"must map symbols to \(qubit, column\) pairs"):
        _kick_circuit(anchors)


def test_a_numpy_integer_kick_anchor_is_accepted_as_its_python_twin():
    foreign, twin = _kick_circuit({"O2": (np.int64(0), np.int64(1))}), _kick_circuit({"O2": (0, 1)})
    assert foreign == twin and hash(foreign) == hash(twin)
    assert [type(v) for v in foreign.kick_anchors["O2"]] == [int, int]
    [kicked] = apply_noise([foreign], KICKED).outcome_distribution()
    assert np.array_equal(kicked, brute_force_distribution(twin, KICKED))
