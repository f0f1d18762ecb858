"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time
from dataclasses import replace
from math import pi, sqrt

import numpy as np

from conftest import canonical_schedule, exp_pauli, random_device_circuit, read_qasm
from lgadroit import cli
from lgadroit.analytics import Verdict, analyze
from lgadroit.circuit import compile_circuit, to_qasm
from lgadroit.noise import IDEAL, PLAUSIBLE_NOISE
from lgadroit.oracle import (
    brute_force_correlators,
    closed_form_lg,
    theta_sweep,
    violation_boundary,
)
from lgadroit.protocols import ROLES, ProtocolId, RunConfig, build_protocol, run_plan
from lgadroit.qsim import GATE_MATRICES as G
from lgadroit.qsim import PAULI_X, PAULI_Z, matrices_equal_up_to_phase, sigma_theta

THETA = -3 * pi / 4
SQ2 = 1 / sqrt(2)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_closed_form_and_prediction_row(capsys):
    lg = closed_form_lg(THETA)
    ok = abs(lg - (1.25 - sqrt(2))) < 1e-12
    cli.main(["--shots", "512", "--reps", "2"])
    out = capsys.readouterr().out
    pred = [line for line in out.splitlines() if line.startswith("Quantum Prediction")]
    row_ok = pred and pred[0].split()[-4:] == ["-0.71", "-0.71", "0.25", "-0.16"]
    with capsys.disabled():
        _report(1, ok and bool(row_ok),
                f"closed form {lg:.12f}, prediction row {pred[0].split()[-4:] if pred else None}")


def test_criterion_2_violation_boundary(capsys):
    theta_star = violation_boundary()
    ok = 0.6825 <= theta_star / pi <= 0.6835
    with capsys.disabled():
        _report(2, ok, f"boundary at {theta_star / pi:.6f} pi")


def test_criterion_3_triple_agreement_64_thetas(capsys):
    t0 = time.perf_counter()
    sweep = theta_sweep(list(np.linspace(-pi, pi, 64)))
    worst = sweep.max_disagreement()
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(3, worst < 1e-10 and elapsed < 10.0,
                f"max disagreement {worst:.2e} over 64 thetas in {elapsed:.2f}s")


def test_criterion_4_end_to_end_sampled_program(capsys):
    t0 = time.perf_counter()
    report = analyze(run_plan(RunConfig()))
    lg = report["leggett_garg"]["value"]
    eps_total = report["adroitness"]["eps_total"]["value"]
    established = report["verdict"] == Verdict.VIOLATION_ESTABLISHED
    rates = {key: getattr(PLAUSIBLE_NOISE, key) for key in ("p1", "p2", "eps_ro", "gamma_idle")}
    noisy = analyze(run_plan(RunConfig(**rates)))
    lg_noisy = noisy["leggett_garg"]["value"]
    elapsed = time.perf_counter() - t0
    ok = (abs(lg - (-0.1642)) <= 0.03 and eps_total <= 0.02 and established
          and abs(lg_noisy - (-0.21)) <= 0.1 and elapsed < 60.0)
    with capsys.disabled():
        _report(4, ok, f"LG {lg:+.4f} (target -0.1642 +- 0.03), eps_total {eps_total:.4f}"
                       f" <= 0.02, verdict established; noisy LG {lg_noisy:+.4f}"
                       f" within 0.1 of -0.21; {elapsed:.1f}s")


def test_criterion_5_gate_identities(capsys):
    h, t, s, sdg = G["H"], G["T"], G["S"], G["Sdg"]
    ux = exp_pauli(3 * pi / 8, PAULI_X)  # exp(-i 3pi sigma_x / 8)
    uz = exp_pauli(3 * pi / 8, PAULI_Z)
    checks = [
        np.allclose(h @ uz @ h, ux, atol=1e-12),
        matrices_equal_up_to_phase(h @ t @ s @ h, ux, atol=1e-12),
        np.allclose(np.exp(-3j * pi / 8) * (h @ t @ s @ h), ux, atol=1e-12),
        np.allclose(np.exp(1j * pi / 4) * (h @ sdg) @ (h @ sdg), s @ h, atol=1e-12),
        np.allclose(np.exp(-1j * pi / 8) * (h @ t @ h @ sdg @ h @ sdg), ux, atol=1e-12),
        np.allclose((h @ t @ h @ sdg @ h) @ PAULI_Z @ (h @ t @ h @ sdg @ h).conj().T,
                    sigma_theta(THETA), atol=1e-12),
    ]
    with capsys.disabled():
        _report(5, all(checks), f"{sum(checks)}/6 identity checks hold at 1e-12")


def test_criterion_6_compiler_emulation(capsys):
    raw = build_protocol(ProtocolId.B, countermeasures=False)
    collapse_moves = compile_circuit(raw) != raw
    fixpoints = all(
        compile_circuit(build_protocol(pid)) == build_protocol(pid)
        for pid in ProtocolId
    )
    rng = np.random.default_rng(101)
    idempotent = True
    for _ in range(1000):
        c = random_device_circuit(rng)
        once = compile_circuit(c)
        if compile_circuit(once) != once:
            idempotent = False
            break
    with capsys.disabled():
        _report(6, collapse_moves and fixpoints and idempotent,
                f"unprotected circuit rewritten: {collapse_moves}, protocol fixpoints:"
                f" {fixpoints}, idempotent on 1000 random circuits: {idempotent}")


def test_criterion_7_clumsiness_detection(capsys):
    a = brute_force_correlators(build_protocol(ProtocolId.A))
    kicked = replace(IDEAL, kick=("O2", pi / 2))
    b = brute_force_correlators(build_protocol(ProtocolId.B), kicked)
    f = brute_force_correlators(build_protocol(ProtocolId.F), kicked)
    eps_b = abs(b.single("O3") - a.single("O3"))
    lg = a.single("O3") + f.single("O2") + f.pair("O2", "O3") + 1
    eps_total = eps_b  # the other intermediates are unkicked and exact
    not_established = not (lg < 0 and abs(lg) >= eps_total)
    b0 = brute_force_correlators(build_protocol(ProtocolId.B), replace(IDEAL, kick=("O2", 0.0)))
    zero_kick = abs(b0.single("O3") - a.single("O3"))
    ok = eps_b > 0.2 and not_established and zero_kick < 1e-12
    with capsys.disabled():
        _report(7, ok, f"eps_b {eps_b:.4f} > 0.2, kicked LG {lg:+.4f} vs eps_total"
                       f" {eps_total:.4f} (not established), zero-kick residue {zero_kick:.1e}")


def test_criterion_8_per_shot_inequality(capsys):
    runs = run_plan(RunConfig())
    tables = runs[ProtocolId.F]
    roles = ROLES[ProtocolId.F]
    worst = min(
        (1 * o3) + (1 * o2) + o2 * o3 + 1
        for table in tables
        for index in np.flatnonzero(table)  # every basis index drawn at least once
        for o2, o3 in [(1 if (index >> roles["O2"]) & 1 else -1,
                        1 if (index >> roles["O3"]) & 1 else -1)]
    )
    shots = int(tables.sum())
    with capsys.disabled():
        _report(8, worst >= 0, f"min per-shot LG sum {worst} over {shots} shots")


def test_criterion_9_qasm_round_trip(capsys):
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(1000):
        c = random_device_circuit(rng)
        rt = read_qasm(to_qasm(c))
        if canonical_schedule(rt) != canonical_schedule(c) or rt.measured != c.measured:
            ok = False
            break
    with capsys.disabled():
        _report(9, ok, "1000 random device-legal circuits round-trip order-preserving")
