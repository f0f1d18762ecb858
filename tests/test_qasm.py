"""QASM export: round trips through the test-side reader, what the writer refuses, and
that the reader takes no line the writer does not write, so a round trip cannot pass
on text the writer should not have written."""
import numpy as np
import pytest

from conftest import canonical_schedule, cell_map, random_device_circuit, read_qasm
from lgadroit.circuit import Circuit, Gate, to_qasm
from lgadroit.qsim import ValidationError


def test_empty_circuit_round_trip():
    c = Circuit(5, 0, (), ())
    text = to_qasm(c)
    assert text.splitlines()[0] == "OPENQASM 2.0;"
    assert read_qasm(text) == c


def test_round_trip_preserves_gate_order_and_measurements():
    gates = (
        Gate("X", (2,), 0), Gate("H", (1,), 0), Gate("CNOT", (1, 2), 1),
        Gate("H", (1,), 2), Gate("Id", (1,), 3), Gate("Tdg", (2,), 4),
    )
    c = Circuit(5, 5, gates, (1, 2))
    rt = read_qasm(to_qasm(c))
    assert canonical_schedule(rt) == canonical_schedule(c)
    assert rt.measured == (1, 2)


def test_round_trip_on_random_device_circuits():
    rng = np.random.default_rng(31)
    for _ in range(300):
        c = random_device_circuit(rng)
        rt = read_qasm(to_qasm(c))
        assert canonical_schedule(rt) == canonical_schedule(c)


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
    rt = read_qasm(to_qasm(c))
    cnot = [g for g in rt.gates if g.kind == "CNOT"][0]
    cells = cell_map(rt)
    assert cells[(0, cnot.slot)] == cnot and cells[(2, cnot.slot)] == cnot
    assert cnot.slot == 3  # three H's on the control wire schedule first


HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
REFUSED = pytest.fail.Exception


def header(n: int) -> str:
    return f"{HEAD}qreg q[{n}];\ncreg c[{n}];\n"


def test_unsupported_gate_named_with_line_number():
    with pytest.raises(REFUSED, match=r"line 5: .*ccx"):
        read_qasm(header(3) + "ccx q[0],q[1],q[2];\n")


def test_gate_after_measure_rejected():
    with pytest.raises(REFUSED, match="line 6: a gate after a measurement"):
        read_qasm(header(2) + "measure q[0] -> c[0];\nx q[0];\n")


def test_missing_header_rejected():
    with pytest.raises(REFUSED, match="not the header to_qasm writes"):
        read_qasm("qreg q[2];\nx q[0];\n")


def test_out_of_range_qubit_rejected():
    with pytest.raises(ValidationError, match="touches qubit 5 out of range"):
        read_qasm(header(2) + "x q[5];\n")


@pytest.mark.parametrize("text, error, match", [
    (HEAD + "h q[0];\n", REFUSED, "not the header to_qasm writes"),
    (header(2) + "qreg q[3];\n", REFUSED, "line 5: not a line to_qasm writes"),
    (header(6), ValidationError, "n_qubits must be 1..5, got 6"),
    (header(2) + "cx q[1],q[1];\n", ValidationError, "CNOT needs exactly 2 distinct operands"),
    (HEAD + "creg c[2];\n", REFUSED, "not the header to_qasm writes"),
])
def test_bad_qreg_use_rejected(text, error, match):
    with pytest.raises(error, match=match):
        read_qasm(text)


@pytest.mark.parametrize("body", ["// a comment\nx q[1];\n", "\nx q[1];\n", "x q[1]; // trailing\n"],
                         ids=["comment", "blank", "trailing_comment"])
def test_comments_and_blank_lines_rejected(body):
    with pytest.raises(REFUSED, match="line 5: not a line to_qasm writes"):
        read_qasm(header(2) + body)


@pytest.mark.parametrize("statement", ["measure q[0] -> c[1];", "measure q[1] -> c[5];"])
def test_measurement_into_another_bit_rejected(statement):
    with pytest.raises(REFUSED, match="line 5: not a line to_qasm writes"):
        read_qasm(f"{header(2)}{statement}\n")


def test_second_measurement_of_a_qubit_named():
    text = header(2) + "measure q[1] -> c[1];\nmeasure q[1] -> c[1];\n"
    with pytest.raises(ValidationError, match="q1 is measured more than once"):
        read_qasm(text)


@pytest.mark.parametrize("creg, bit", [(1, 1), (0, 0), (2, 3)])
def test_measurement_bit_past_the_creg_rejected(creg, bit):
    # to_qasm writes one register size, so a creg smaller than the qreg is not its header
    text = f"{HEAD}qreg q[5];\ncreg c[{creg}];\nmeasure q[{bit}] -> c[{bit}];\n"
    with pytest.raises(REFUSED, match="not the header to_qasm writes"):
        read_qasm(text)


def test_second_creg_rejected():
    with pytest.raises(REFUSED, match="line 5: not a line to_qasm writes: 'creg c"):
        read_qasm(header(2) + "creg c[3];\n")


def test_creg_after_a_measurement_rejected():
    text = f"{HEAD}qreg q[2];\nmeasure q[1] -> c[1];\ncreg c[2];\n"
    with pytest.raises(REFUSED, match="not the header to_qasm writes"):
        read_qasm(text)


@pytest.mark.parametrize("line", ["includegarbage q[0];", 'include "other.inc";',
                                  "include qelib1.inc;"])
def test_only_the_exact_include_line_is_accepted(line):
    with pytest.raises(REFUSED, match="not the header to_qasm writes"):
        read_qasm(f"OPENQASM 2.0;\n{line}\nqreg q[1];\ncreg c[1];\n")


@pytest.mark.parametrize("text", [
    HEAD + "qreg q[\u0663];\ncreg c[\u0663];\nh q[\u0661];\nmeasure q[\u0661] -> c[\u0661];\n",
    HEAD + "qreg q[\uff12];\ncreg c[\uff12];\n",
    header(2) + "h q[\u0661];\n",
    header(2) + "cx q[0],q[\uff11];\n",
    header(2) + "h\u2003q[1];\n",
    header(2) + "cx q[0],\u2003q[1];\n",
    header(2) + "measure q[1]\u2003-> c[1];\n",
], ids=["arabic_indic_digits", "fullwidth_qreg", "arabic_indic_qubit", "fullwidth_qubit",
        "em_space_after_name", "em_space_after_comma", "em_space_before_arrow"])
def test_numbers_are_ascii_digits_and_statement_spaces_ascii(text):
    # Python's \d and \s match any Unicode digit and space
    with pytest.raises(REFUSED, match="not the header to_qasm writes|line 5: not a line"):
        read_qasm(text)


@pytest.mark.parametrize("text, match", [
    (header(2) + "h q[1];\x0bx q[0];\n", "line 5: not a line to_qasm writes"),
    (f"{HEAD}qreg q[2];\x85creg c[2];\n", "not the header to_qasm writes"),
], ids=["vertical_tab", "next_line"])
def test_a_line_ends_at_lf_and_nowhere_else(text, match):
    # str.splitlines also breaks at \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029
    with pytest.raises(REFUSED, match=match):
        read_qasm(text)


def test_a_crlf_copy_of_an_export_is_rejected():
    c = Circuit(2, 2, (Gate("H", (1,), 0), Gate("CNOT", (1, 0), 1)), (0,))
    text = to_qasm(c)
    assert "\r" not in text and canonical_schedule(read_qasm(text)) == canonical_schedule(c)
    with pytest.raises(REFUSED, match="not the header to_qasm writes"):
        read_qasm(text.replace("\n", "\r\n"))


@pytest.mark.parametrize("text, match", [
    ("qreg q[1];\nh q[0];\nOPENQASM 2.0;\n", "not the header to_qasm writes"),
    (header(1) + "OPENQASM 2.0;\n", "line 5: not a line to_qasm writes"),
    ('// lead\n\ninclude "qelib1.inc";\nOPENQASM 2.0;\nqreg q[1];\n',
     "not the header to_qasm writes"),
], ids=["header_last", "header_twice", "include_first"])
def test_the_version_header_comes_first_and_once(text, match):
    # OpenQASM 2.0 requires the version statement before any other
    with pytest.raises(REFUSED, match=match):
        read_qasm(text)


def test_a_rejected_statement_is_named_whole():
    with pytest.raises(REFUSED) as exc:
        read_qasm(header(2) + "h q[1];\x0bx q[0];\n")
    assert str(exc.value) == r"line 5: not a line to_qasm writes: 'h q[1];\x0bx q[0];'"


@pytest.mark.parametrize("text", [b"OPENQASM 2.0;\nqreg q[1];\n", 5], ids=["bytes", "int"])
def test_text_that_is_not_a_str_is_rejected(text):
    # unchecked, both would raise TypeError from the header match
    with pytest.raises(REFUSED, match="QASM text must be a str, got"):
        read_qasm(text)
