"""QASM-subset serialization: round trips and parse errors."""
import numpy as np
import pytest

from conftest import cell_map, random_device_circuit
from lgadroit.circuit import (
    Circuit,
    Gate,
    QasmError,
    canonical_schedule,
    from_qasm,
    to_qasm,
)
from lgadroit.qsim import ValidationError


def test_empty_circuit_round_trip():
    c = Circuit(5, 0, (), ())
    text = to_qasm(c)
    assert text.splitlines()[0] == "OPENQASM 2.0;"
    assert from_qasm(text) == c


def test_round_trip_preserves_gate_order_and_measurements():
    gates = (
        Gate("X", (2,), 0), Gate("H", (1,), 0), Gate("CNOT", (1, 2), 1),
        Gate("H", (1,), 2), Gate("Id", (1,), 3), Gate("Tdg", (2,), 4),
    )
    c = Circuit(5, 5, gates, (1, 2))
    rt = from_qasm(to_qasm(c))
    assert canonical_schedule(rt) == canonical_schedule(c)
    assert rt.measured == (1, 2)


def test_round_trip_on_random_device_circuits():
    rng = np.random.default_rng(31)
    for _ in range(300):
        c = random_device_circuit(rng)
        rt = from_qasm(to_qasm(c))
        assert canonical_schedule(rt) == canonical_schedule(c)


def test_unsupported_gate_named_with_line_number():
    text = "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n"
    with pytest.raises(QasmError, match="line 3.*ccx"):
        from_qasm(text)


def test_gate_after_measure_rejected():
    text = "OPENQASM 2.0;\nqreg q[2];\nmeasure q[0] -> c[0];\nx q[0];\n"
    with pytest.raises(QasmError, match="line 4"):
        from_qasm(text)


def test_missing_header_rejected():
    with pytest.raises(QasmError):
        from_qasm("qreg q[2];\nx q[0];\n")


def test_out_of_range_qubit_rejected():
    with pytest.raises(QasmError, match="line 3"):
        from_qasm("OPENQASM 2.0;\nqreg q[2];\nx q[5];\n")


@pytest.mark.parametrize("body, match", [
    ("h q[0];\n", "line 2: qreg declaration must come before gates"),
    ("qreg q[2];\nqreg q[3];\n", "line 3: only one qreg is supported"),
    ("qreg q[6];\n", r"line 2: qreg size 6 outside 1\.\.5"),
    ("qreg q[2];\ncx q[1],q[1];\n", "line 3: cx operands must differ"),
    ("creg c[2];\n", "line 1: missing qreg declaration"),
])
def test_bad_qreg_use_rejected(body, match):
    with pytest.raises(QasmError, match=match):
        from_qasm("OPENQASM 2.0;\n" + body)


def test_comments_and_blank_lines_ignored():
    text = "OPENQASM 2.0;\n// a comment\nqreg q[2];\n\nx q[1]; // trailing\n"
    c = from_qasm(text)
    assert [g.kind for g in c.gates] == ["X"]


def test_rotation_gates_not_serializable():
    c = Circuit(5, 1, (Gate("R", (2,), 0, param=0.3),), ())
    with pytest.raises(ValidationError):
        to_qasm(c)


def test_protocol_a_serialization_shape():
    from lgadroit.protocols import ProtocolId, build_protocol

    text = to_qasm(build_protocol(ProtocolId.A))
    lines = text.splitlines()
    i = lines.index("x q[2];")
    assert lines[i + 1:i + 6] == ["h q[2];", "sdg q[2];", "h q[2];", "t q[2];", "h q[2];"]
    assert lines[-1] == "measure q[2] -> c[2];"


def test_cnot_slot_alignment_survives_round_trip():
    # staggered wires: the cx must still share one column on both operands
    gates = (Gate("H", (0,), 0), Gate("H", (0,), 1), Gate("H", (0,), 2),
             Gate("CNOT", (0, 2), 3), Gate("X", (2,), 4))
    c = Circuit(5, 5, gates, (2,))
    rt = from_qasm(to_qasm(c))
    cnot = [g for g in rt.gates if g.kind == "CNOT"][0]
    cells = cell_map(rt)
    assert cells[(0, cnot.slot)] == cnot and cells[(2, cnot.slot)] == cnot
    assert cnot.slot == 3  # three H's on the control wire schedule first


@pytest.mark.parametrize("header, statement", [
    ("creg c[2];", "measure q[0] -> c[1];"),
    ("creg c[1];", "measure q[1] -> c[5];"),
])
def test_measurement_into_another_bit_rejected(header, statement):
    text = f"OPENQASM 2.0;\nqreg q[2];\n{header}\n{statement}\n"
    with pytest.raises(QasmError, match=r"line 4: q\[\d\] must be measured into c\[\d\]"):
        from_qasm(text)


def test_second_measurement_of_a_qubit_named():
    text = "OPENQASM 2.0;\nqreg q[2];\nmeasure q[1] -> c[1];\nmeasure q[1] -> c[1];\n"
    with pytest.raises(QasmError, match=r"line 4: q\[1\] is measured more than once"):
        from_qasm(text)


@pytest.mark.parametrize("creg, bit", [(1, 1), (0, 0), (2, 3)])
def test_measurement_bit_past_the_creg_rejected(creg, bit):
    text = f"OPENQASM 2.0;\nqreg q[5];\ncreg c[{creg}];\nmeasure q[{bit}] -> c[{bit}];\n"
    with pytest.raises(QasmError, match=rf"line 4: c\[{bit}\] out of range for creg c\[{creg}\]"):
        from_qasm(text)


def test_second_creg_rejected():
    text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\ncreg c[3];\n"
    with pytest.raises(QasmError, match="line 4: only one creg"):
        from_qasm(text)


def test_creg_after_a_measurement_rejected():
    # declared after use, the creg's size would never be checked against c[1]
    text = "OPENQASM 2.0;\nqreg q[2];\nmeasure q[1] -> c[1];\ncreg c[1];\n"
    with pytest.raises(QasmError, match="line 4: creg declaration must come before measurements"):
        from_qasm(text)


@pytest.mark.parametrize("line", ["includegarbage q[0];", 'include "other.inc";',
                                  "include qelib1.inc;"])
def test_only_the_exact_include_line_is_accepted(line):
    with pytest.raises(QasmError, match="line 2: unsupported statement"):
        from_qasm(f"OPENQASM 2.0;\n{line}\nqreg q[1];\n")


@pytest.mark.parametrize("body", [
    "qreg q[\u0663];\nh q[\u0661];\nmeasure q[\u0661] -> c[\u0661];\n",
    "qreg q[\uff12];\n",
    "qreg q[2];\nh q[\u0661];\n",
    "qreg q[2];\ncx q[0],q[\uff11];\n",
    "qreg q[2];\nh\u2003q[1];\n",
    "qreg q[2];\ncx q[0],\u2003q[1];\n",
    "qreg q[2];\nmeasure q[1]\u2003-> c[1];\n",
], ids=["arabic_indic_digits", "fullwidth_qreg", "arabic_indic_qubit", "fullwidth_qubit",
        "em_space_after_name", "em_space_after_comma", "em_space_before_arrow"])
def test_numbers_are_ascii_digits_and_statement_spaces_ascii(body):
    # Python's \d and \s match any Unicode digit and space
    with pytest.raises(QasmError, match="line [23]: unsupported statement"):
        from_qasm("OPENQASM 2.0;\n" + body)


@pytest.mark.parametrize("text, match", [
    ("OPENQASM 2.0;\nqreg q[2];\nh q[1];\x0bx q[0];\n", "line 3: unsupported statement"),
    ("OPENQASM 2.0;\nqreg q[2];\x85bogus;\n", "line 2: unsupported statement"),
], ids=["vertical_tab", "next_line"])
def test_a_line_ends_at_lf_and_nowhere_else(text, match):
    # str.splitlines also breaks at \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029
    with pytest.raises(QasmError, match=match):
        from_qasm(text)


def test_a_crlf_file_parses_as_its_lf_twin():
    text = "OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[1],q[0];\nmeasure q[0] -> c[0];\n"
    assert from_qasm(text.replace("\n", "\r\n")) == from_qasm(text)


@pytest.mark.parametrize("text, match", [
    ("qreg q[1];\nh q[0];\nOPENQASM 2.0;\n", "line 1: the first statement must be the"),
    ("OPENQASM 2.0;\nqreg q[1];\nOPENQASM 2.0;\n", "line 3: repeated"),
    ('// lead\n\ninclude "qelib1.inc";\nOPENQASM 2.0;\nqreg q[1];\n',
     "line 3: the first statement must be the"),
], ids=["header_last", "header_twice", "include_first"])
def test_the_version_header_comes_first_and_once(text, match):
    # OpenQASM 2.0 requires the version statement before any other
    with pytest.raises(QasmError, match=match):
        from_qasm(text)


def test_a_rejected_statement_is_named_whole():
    # named by its first word, this line read as "unsupported statement: 'h'"
    with pytest.raises(QasmError) as exc:
        from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[1];\x0bx q[0];\n")
    assert str(exc.value) == r"line 3: unsupported statement: 'h q[1];\x0bx q[0];'"


@pytest.mark.parametrize("text", [b"OPENQASM 2.0;\nqreg q[1];\n", 5], ids=["bytes", "int"])
def test_text_that_is_not_a_str_is_rejected(text):
    # bytes raised TypeError from the line split, an int AttributeError
    with pytest.raises(ValidationError, match="QASM text must be a str, got"):
        from_qasm(text)
