"""CLI behavior: tables, reports, exports, exit codes."""
import hashlib
import json
from math import pi, sqrt

import pytest

from lgadroit import cli
from lgadroit.circuit import canonical_schedule, from_qasm
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
    doc = json.loads(out)
    assert doc == json.loads(out_path.read_text())
    lg = doc["correlators"]["a"]["mean"] + doc["correlators"]["f_o1o2"]["mean"] \
        + doc["correlators"]["f_o2o3"]["mean"] + 1.0
    assert doc["leggett_garg"]["value"] == lg  # exact, no rounding in the document
    assert doc["predictions"]["c_23"] == 0.25


def test_report_documents_byte_identical(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(FAST + ["--out", str(p1)], capsys)
    run_cli(FAST + ["--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


PLAUSIBLE_FLAGS = ["--p1", "0.002", "--p2", "0.05", "--eps-ro", "0.01", "--gamma", "0.002"]


@pytest.mark.parametrize("flags, digest", [
    ([], "5c4c8f0c36159425b379bb7bc6709db22447819df72042da7b8a304393221a56"),
    (PLAUSIBLE_FLAGS, "f33ae0b483cb50c059b0d985f38ad895c15561a6036ecbe3be41bd62876f3e25"),
    (PLAUSIBLE_FLAGS + ["--kick", "0.9"],
     "5d934edd3bcc0bd7572ce2f7dd3cc4afe43b0ed231125d5edb9325311aa5c92a"),
], ids=["default", "plausible_noise", "plausible_noise_kick"])
def test_golden_json_report(flags, digest, capsys):
    # pinned from the per-step Kraus engine the fused superoperator engine replaced
    code, out, _ = run_cli(["--format", "json"] + flags, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_kicked_run_not_established(capsys):
    code, _, _ = run_cli(FAST + ["--kick", str(pi / 2), "--assert-violation"], capsys)
    assert code == 1


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
    ({}, ["--theta", "inf"]),
    ({}, ["--kick", "nan"]),
    ({}, ["--seed", "4294967307"]),  # 2**32 + 11: would alias seed 11
    ({}, ["--seed", "-1"]),
])
def test_config_values_type_checked(doc, flags, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shots": 512, "repetitions": 3, **doc}))
    code, _, err = run_cli(["--config", str(cfg)] + flags, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_internal_invariant_failure_exits_three(capsys, monkeypatch):
    from lgadroit.qsim import InvariantError

    def boom(plan):
        raise InvariantError("synthetic")

    monkeypatch.setattr(cli, "run_plan", boom)
    code, _, err = run_cli(FAST, capsys)
    assert code == 3 and "synthetic" in err


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_round_trips(capsys, tmp_path):
    path = tmp_path / "a.qasm"
    code, _, _ = run_cli(["--export", "A", "--out", str(path)], capsys)
    assert code == 0
    parsed = from_qasm(path.read_text())
    built = build_protocol(ProtocolId.A).circuit
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


def test_export_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(["--export", "A", "--out", str(tmp_path / "nope" / "x.qasm")], capsys)
    assert code == 2
