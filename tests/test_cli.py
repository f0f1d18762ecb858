"""CLI behavior: tables, reports, exports, exit codes."""
import hashlib
import json
from dataclasses import fields
from math import pi

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import canonical_schedule, compensated_sum, read_qasm
from lgadroit import analytics, cli, protocols
from lgadroit.protocols import ProtocolId, build_protocol

FAST = ["--shots", "512", "--reps", "3"]


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_default_tables_and_exit_zero(capsys):
    code, out, _ = run_cli(FAST, capsys)
    assert code == 0
    assert "The Leggett-Garg Quantity" in out
    assert "Adroitness Test Results" in out
    assert "Measured" in out and "Quantum Prediction" in out
    assert "verdict: violation_established" in out


def test_prediction_row_matches_reference_table(capsys):
    _, out, _ = run_cli(FAST, capsys)
    lines = out.splitlines()
    lg_idx = lines.index("The Leggett-Garg Quantity")
    pred = [line for line in lines[lg_idx:lg_idx + 4] if line.startswith("Quantum Prediction")][0]
    assert pred.split()[-4:] == ["-0.71", "-0.71", "0.25", "-0.16"]


def test_theta_zero_auto_ideal_no_violation(capsys):
    code, out, _ = run_cli(FAST + ["--theta", "0"], capsys)
    assert code == 0
    assert "verdict: no_violation" in out


def test_json_format_parses_back_exactly(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(FAST + ["--format", "json", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes() == out.encode()
    doc = json.loads(out)
    lg = doc["correlators"]["a"]["mean"] + doc["correlators"]["f_o1o2"]["mean"] \
        + doc["correlators"]["f_o2o3"]["mean"] + 1.0
    assert doc["leggett_garg"]["value"] == lg  # exact, no rounding in the document
    assert doc["predictions"]["c_23"] == 0.25


def test_report_documents_byte_identical(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(FAST + ["--out", str(p1)], capsys)
    run_cli(FAST + ["--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_unwritable_out_exits_two_with_empty_stdout(fmt, capsys, tmp_path):
    # a caller that reads stdout must not mistake a failed run for a report
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(FAST + ["--format", fmt, "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}")


PLAUSIBLE_FLAGS = ["--p1", "0.002", "--p2", "0.05", "--eps-ro", "0.01", "--gamma", "0.002"]


GOLDENS = [
    pytest.param("json", [], "167948cb5e8111efa733dbc19d2de03df226c7ced262d50fc302d9338631cfda",
                 id="default"),
    pytest.param("json", PLAUSIBLE_FLAGS,
                 "f33ae0b483cb50c059b0d985f38ad895c15561a6036ecbe3be41bd62876f3e25",
                 id="plausible_noise"),
    pytest.param("json", PLAUSIBLE_FLAGS + ["--kick", "0.9"],
                 "5d934edd3bcc0bd7572ce2f7dd3cc4afe43b0ed231125d5edb9325311aa5c92a",
                 id="plausible_noise_kick"),
    # every count of all 6 x 256 ideal-mode tables
    pytest.param("csv", ["--theta", "0.3", "--reps", "256"],
                 "fb1fd1fce3ad32e8257e0b8cfa630cd31692f9f2f42ea038d380f7692c758eda",
                 id="ideal_reps256_csv"),
    pytest.param("table", [], "64047fcdb20a29db147f68cbd4d91b08593dc919eeeef13800f23c80caa501ef",
                 id="default_table"),
    pytest.param("table", PLAUSIBLE_FLAGS + ["--kick", "0.9"],
                 "ef833a79f6098b796c7876ee8e6dee449c3c317705c739eeded167bac95421d5",
                 id="plausible_noise_kick_table"),
    # r = 2**53 + 1: a table's mean is correctly rounded only by integer division
    pytest.param("json", ["--theta", "0.3", "--mode", "ideal", "--shots", "9007199254740993",
                          "--reps", "3"],
                 "1bd5850dd887ba9070db1dc621629f98f7f8d944ccb50c38a20d0444cec62854",
                 id="ideal_huge_shots"),
    # p1 and gamma at 0 beside p2 and eps_ro that are not: a quiet channel is the identity
    pytest.param("json", ["--p2", "0.05", "--eps-ro", "0.01"],
                 "ea53b3114b842fe8429a92895f94d289e813f1c6943b45f93fe7842bdb6174b6",
                 id="some_rates_zero"),
]


@pytest.mark.parametrize("fmt, flags, digest", GOLDENS)
def test_golden_json_report(fmt, flags, digest, capsys):
    # the noisy json digests pinned from the per-step Kraus engine the fused
    # superoperator engine replaced, the table digests from the report types
    # before their copied fields were dropped; "default" and
    # "ideal_reps256_csv" re-taken once, when round-off probabilities
    # (<= 1e-12) were first zeroed before sampling
    code, out, _ = run_cli(["--format", fmt] + flags, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the goldens whose bytes a compensated float sum in analytics moved
@pytest.mark.parametrize("fmt, flags, digest", [
    golden for golden in GOLDENS if golden.id in ("default", "plausible_noise",
                                                  "plausible_noise_kick")])
def test_golden_json_report_under_a_compensated_sum(fmt, flags, digest, capsys, monkeypatch):
    # Python 3.12's sum compensates float additions; the report adds left to right on
    # every supported Python, so its bytes hold when analytics sees 3.12's sum
    monkeypatch.setattr(analytics, "sum", compensated_sum, raising=False)
    test_golden_json_report(fmt, flags, digest, capsys)


def test_csv_shot_dump(capsys):
    code, out, _ = run_cli(FAST + ["--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "protocol,repetition,outcome,count"
    assert any(line.startswith("A,0,") for line in lines)
    a0 = sum(int(line.split(",")[3]) for line in lines if line.startswith("A,0,"))
    assert a0 == 512


def test_config_document_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 256, "repetitions": 2, "seed": 3}))
    code, out, _ = run_cli(["--config", str(cfg), "--format", "json", "--reps", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["shots"] == 256
    assert doc["config"]["repetitions"] == 4  # flag wins


def test_run_config_gives_the_bytes_of_the_flags(capsys):
    # the bench calls cli.run with a RunConfig built from the config keys
    cfg = {"theta": 0.7, "mode": "ideal", "shots": 256, "repetitions": 3, "seed": 5,
           "p1": 0.002, "p2": 0.05, "eps_ro": 0.01, "gamma_idle": 0.002, "kick": 0.9}
    assert cli.run(cli.RunConfig(format="json", **cfg)) == 0
    direct = capsys.readouterr().out
    flags = ["--theta", "0.7", "--mode", "ideal", "--shots", "256", "--reps", "3",
             "--seed", "5", "--p1", "0.002", "--p2", "0.05", "--eps-ro", "0.01",
             "--gamma", "0.002", "--kick", "0.9", "--format", "json"]
    code, out, _ = run_cli(flags, capsys)
    assert code == 0
    assert out.encode() == direct.encode()
    assert json.loads(out)["config"]["noise"]["kick_kappa"] == 0.9


def test_parser_flags_are_the_run_config_keys():
    # a flag and the config document cannot drift apart
    dests = {a.dest for a in cli._build_parser()._actions} - {"help"}
    assert dests - {"config", "export", "assert_violation"} == \
        {f.name for f in fields(cli.RunConfig)}


def test_config_document_numbers_echo_like_flags(capsys, tmp_path):
    # identical configurations give identical bytes, however a number is spelled
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1, "p1": 0, "p2": 0, "eps_ro": 0,
                               "gamma_idle": 0, "kick": 0}))
    common = ["--format", "json", "--shots", "64", "--reps", "2"]
    flags = ["--theta", "1", "--p1", "0", "--p2", "0", "--eps-ro", "0", "--gamma", "0",
             "--kick", "0"]
    code_doc, from_doc, _ = run_cli(common + ["--config", str(cfg)], capsys)
    code_flags, from_flags, _ = run_cli(common + flags, capsys)
    assert code_doc == code_flags == 0
    assert from_doc.encode() == from_flags.encode()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_assert_violation_pass_and_fail(capsys):
    code, _, _ = run_cli(FAST + ["--assert-violation"], capsys)
    assert code == 0
    code, _, _ = run_cli(FAST + ["--theta", "0", "--assert-violation"], capsys)
    assert code == 1


def test_assert_violation_fails_under_flat_readout(capsys):
    code, out, _ = run_cli(FAST + ["--eps-ro", "0.5", "--assert-violation"], capsys)
    assert code == 1
    assert "verdict: no_violation" in out


@pytest.mark.parametrize("flags, expected", [
    ([], "violation_established"),
    (["--kick", "1.5708"], "violation_unresolved"),
    (["--theta", "0"], "no_violation"),
], ids=["default", "kicked", "theta_zero"])
def test_table_json_and_exit_code_agree(flags, expected, capsys):
    # one run's outputs are renderings of one document
    _, out, _ = run_cli(FAST + flags + ["--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["verdict"] == expected
    code, table, _ = run_cli(FAST + flags, capsys)
    assert code == 0
    lines = table.splitlines()
    ns, lg = doc["no_signaling"], doc["leggett_garg"]
    assert lines[-2:] == [
        f"no-signaling check |<O1O3>_f - <O1O3>_a| = {ns['value']:.4f} ± {ns['error']:.4f}",
        f"verdict: {doc['verdict']}",
    ]
    measured = next(line.split("  ") for line in lines if line.lstrip().startswith("Measured"))
    assert measured[-1].strip() == f"{lg['value']:.2f} ± {lg['error']:.2f}"
    code, _, _ = run_cli(FAST + flags + ["--assert-violation"], capsys)
    assert (code == 0) == (doc["verdict"] == "violation_established")
    assert code in (0, 1)


def test_kicked_run_not_established(capsys):
    code, _, _ = run_cli(FAST + ["--kick", str(pi / 2), "--assert-violation"], capsys)
    assert code == 1


@pytest.mark.parametrize("args", [["--shots", "abc"], ["--mode", "foo"], ["--format", "xml"],
                                  ["--bogus"], ["--shots"], ["stray"], ["--s", "4"], ["--s=4"],
                                  ["--rep", "3"]],
                         ids=["bad_int", "bad_mode", "bad_format", "unknown_flag", "bare_flag",
                              "positional", "ambiguous_prefix", "ambiguous_prefix_joined",
                              "unique_prefix"])
def test_a_bad_flag_is_one_error_line(args, capsys):
    # argparse's own error path printed a usage block before its error line; flags are
    # spelled in full, so a prefix, ambiguous or not, is an unrecognized argument
    code, out, err = run_cli(FAST + args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, value, allowed", [
    ("mode", "foo", protocols.GATESET_MODES),
    ("format", "xml", protocols.OUTPUT_FORMATS),
], ids=["mode", "format"])
def test_a_flag_and_a_config_document_refuse_a_choice_alike(key, value, allowed, capsys,
                                                            tmp_path):
    # RunConfig decides what a choice may be, for a flag as for a document
    doc = tmp_path / "config.json"
    doc.write_text(json.dumps({key: value}))
    by_flag = run_cli(FAST + [f"--{key}", value], capsys)
    by_document = run_cli(FAST + ["--config", str(doc)], capsys)
    assert by_flag == by_document == (
        2, "", f"error: unknown {key} {value!r}, expected one of {', '.join(allowed)}\n")


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: lgadroit") and "--assert-violation" in out


def test_invalid_config_exits_two(capsys, tmp_path):
    code, _, err = run_cli(["--mode", "device", "--theta", "0.5"], capsys)
    assert code == 2 and "theta" in err
    code, _, err = run_cli(["--p1", "2.0"], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["--config", str(bad)], capsys)
    assert code == 2
    good = tmp_path / "unknown.json"
    good.write_text(json.dumps({"bogus_key": 1}))
    code, _, err = run_cli(["--config", str(good)], capsys)
    assert code == 2 and "bogus_key" in err
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b'\xff\xfe{"shots": 5}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for path in (not_utf8, deep):
        code, _, err = run_cli(["--config", str(path)], capsys)
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


@pytest.mark.parametrize("doc, flags", [
    ({"shots": "10"}, []),
    ({"shots": 10.7}, []),
    ({"shots": 1e30}, []),
    ({"repetitions": 2.5}, []),
    ({"seed": True}, []),
    ({"theta": None}, []),
    ({"p2": "0.1"}, []),
    ({"format": "xml"}, []),
    ({"mode": "null"}, []),
    ({"out": 5}, []),
    ({"out": "report\0.json"}, []),  # open() raises ValueError, not OSError
    ({}, ["--theta", "inf"]),
    ({}, ["--kick", "nan"]),
    ({}, ["--seed", "4294967307"]),  # 2**32 + 11: would alias seed 11
    ({}, ["--seed", "-1"]),
    ({}, ["--shots", "10000000000000000000"]),  # beyond numpy's int64 shot count
])
def test_config_values_type_checked(doc, flags, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 512, "repetitions": 3, **doc}))
    code, _, err = run_cli(["--config", str(cfg)] + flags, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# Valid values keep every run small. A document has at most one bad value,
# out of range or of the wrong type, so that many documents run.
_huge = 10**400
_VALID = {
    "shots": st.integers(1, 64),
    "repetitions": st.integers(2, 3),
    "seed": st.integers(0, 2**32 - 1),
    "theta": st.floats(-pi, pi) | st.just(-3 * pi / 4),
    "kick": st.floats(-pi, pi),
    "mode": st.sampled_from(["device", "ideal", None]),
    "format": st.sampled_from(["table", "json", "csv"]),
    **{key: st.floats(0.0, 0.3) for key in ("p1", "p2", "eps_ro", "gamma_idle")},
}
_OUT_OF_RANGE = {
    "shots": st.integers(-_huge, 0) | st.integers(2**63, _huge),
    "repetitions": st.integers(-_huge, 1),
    "seed": st.integers(-_huge, -1) | st.integers(2**32, _huge),
    "mode": st.just("null"),
    "format": st.just("xml"),
    "out": st.just("report\0.json"),
    "bogus": st.just(1),  # an unknown key
    **{key: st.integers(10**309, _huge) | st.floats(1.01, 1e300)
       for key in ("theta", "kick", "p1", "p2", "eps_ro", "gamma_idle")},
}
_WRONG_TYPE = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.lists(st.lists(st.integers(), max_size=2), max_size=2),
)


@st.composite
def config_documents(draw, out_path):
    valid = {**_VALID, "out": st.just(out_path)}
    keys = draw(st.lists(st.sampled_from(list(valid)), unique=True))
    bad = draw(st.sampled_from([None, "bogus", "document", *keys]))
    if bad == "document":  # not an object at all
        return draw(_WRONG_TYPE)
    doc = {"shots": 16, "repetitions": 2}  # small unless the document says otherwise
    doc.update((key, draw(valid[key])) for key in keys if key != bad)
    if bad == "out":  # a wrong-typed string would be a valid path
        doc[bad] = draw(_OUT_OF_RANGE[bad] | _WRONG_TYPE.filter(lambda v: not isinstance(v, str)))
    elif bad is not None:
        doc[bad] = draw(_OUT_OF_RANGE[bad] | _WRONG_TYPE)
    return doc


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_config_documents_exit_zero_or_two(data, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data.draw(config_documents(str(tmp_path / "report.json")))))
    code, _, err = run_cli(["--config", str(cfg), "--format", "json"], capsys)
    assert code in (0, 2), err
    assert "Traceback" not in err and "internal error" not in err, err


def test_internal_invariant_failure_exits_three(capsys, monkeypatch):
    from lgadroit.qsim import InvariantError

    def boom(plan):
        raise InvariantError("synthetic")

    monkeypatch.setattr(cli, "run_plan", boom)
    code, _, err = run_cli(FAST, capsys)
    assert code == 3 and "synthetic" in err


def test_prediction_row_invariant_failure_exits_three(capsys, monkeypatch):
    from lgadroit import oracle
    from lgadroit.qsim import PAULI_Z

    monkeypatch.setattr(oracle, "sigma_theta", lambda theta: 1j * PAULI_Z)
    code, out, err = run_cli(FAST, capsys)
    assert code == 3 and out == ""
    assert err.startswith("internal invariant failure: trace formula left an imaginary part")


def test_unexpected_exception_exits_three_without_traceback(capsys, monkeypatch):
    def boom(plan):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(cli, "run_plan", boom)
    code, _, err = run_cli(FAST, capsys)
    assert code == 3
    assert err == "internal error: RuntimeError: synthetic\n"


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_round_trips(capsys, tmp_path):
    path = tmp_path / "a.qasm"
    code, _, _ = run_cli(["--export", "A", "--out", str(path)], capsys)
    assert code == 0
    parsed = read_qasm(path.read_text())
    built = build_protocol(ProtocolId.A)
    assert canonical_schedule(parsed) == canonical_schedule(built)


def test_export_f_has_four_cx(capsys, tmp_path):
    path = tmp_path / "f.qasm"
    code, _, _ = run_cli(["--export", "F", "--out", str(path)], capsys)
    assert code == 0
    assert path.read_text().count("cx ") == 4


def test_export_bad_id_usage_error(capsys, tmp_path):
    code, _, err = run_cli(["--export", "Q", "--out", str(tmp_path / "x.qasm")], capsys)
    assert code == 2 and "unknown protocol" in err


def test_export_needs_out_path(capsys):
    code, _, err = run_cli(["--export", "A"], capsys)
    assert code == 2


@pytest.mark.parametrize("flags", [["--shots", "0"], ["--reps", "1"], ["--p1", "2.0"],
                                   ["--kick", "4.0"]], ids=["shots", "reps", "p1", "kick"])
def test_export_checks_the_whole_config(flags, capsys, tmp_path):
    # the same config that a run rejects
    path = tmp_path / "f.qasm"
    code, out, err = run_cli(["--export", "F", "--out", str(path), *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not path.exists()


def test_export_with_assert_violation_is_rejected(capsys, tmp_path):
    # an export computes no verdict, so its exit 0 would assert one unseen
    path = tmp_path / "a.qasm"
    code, out, err = run_cli(["--export", "A", "--out", str(path), "--assert-violation"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not path.exists()


def test_export_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(["--export", "A", "--out", str(tmp_path / "nope" / "x.qasm")], capsys)
    assert code == 2


def test_export_rejects_a_build_the_compiler_changes(capsys, tmp_path, monkeypatch):
    real = protocols.build_protocol
    monkeypatch.setattr(protocols, "build_protocol",
                        lambda pid, theta, mode: real(pid, theta, mode, countermeasures=False))
    path = tmp_path / "a.qasm"
    code, out, err = run_cli(["--export", "A", "--out", str(path)], capsys)
    assert code == 3 and out == ""
    assert err == "internal invariant failure: protocol A is not a compile fixpoint\n"
    assert not path.exists()


@pytest.mark.parametrize("flags", [[], ["--mode", "ideal"]], ids=["theta_only", "ideal"])
def test_failed_export_leaves_out_file_untouched(capsys, tmp_path, flags):
    path = tmp_path / "f.qasm"
    path.write_text("previous\n")
    code, _, err = run_cli(["--export", "F", "--theta", "0", *flags, "--out", str(path)], capsys)
    assert code == 2 and "R is not in the QASM subset" in err
    assert path.read_text() == "previous\n"
