"""Mutation runner: one-line faults put into a copy of the package, the suite run on each.

Each mutant replaces one exact snippet in one file of ``src/lgadroit``. It is
killed when ``pytest -x -q`` fails on the mutated copy and survives when the
suite passes. Every mutant runs in its own temporary copy of ``src/`` and
``tests/``; the working tree is never touched. Standard library only. Pytest
does not collect this file (its name does not start with ``test_``), and it
is no part of the Tier-1 run: each mutant runs the suite once, about 5-50 s.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only these
    python tests/mutants.py --list

Exit status: 0 when every mutant run is killed, 1 when one survives, 2 when
a name is unknown or a snippet no longer occurs exactly once in its file.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file in src/lgadroit, snippet, its replacement)
MUTANTS = {
    # the README's rule is |LG| >= eps_total: the tie establishes the violation
    "verdict_tie_strict": (
        "analytics.py",
        'if abs(lg["value"]) >= eps_total["value"]:',
        'if abs(lg["value"]) > eps_total["value"]:'),
    # the other common weighting of depolarizing, (1 - p) on the identity and
    # p / (d^2 - 1) on each other Pauli string, is p d^2 / (d^2 - 1) in the closed
    # form: still a channel
    "depolarizing_reweighted": (
        "noise.py",
        "return (1 - p) * np.eye(d * d, dtype=complex)",
        "p = p * d * d / (d * d - 1)\n        return (1 - p) * np.eye(d * d, dtype=complex)"),
    "oracle_depolarizing_reweighted": (
        "oracle.py",
        "return (1 - p) * rho + p * np.where(",
        "p = p * 4 ** len(qubits) / (4 ** len(qubits) - 1)\n"
        "    return (1 - p) * rho + p * np.where("),
    # damping's coherences shrink like sqrt(1 - gamma), its population like 1 - gamma
    "damping_without_sqrt": (
        "noise.py",
        "s = sqrt(1 - gamma)",
        "s = 1 - gamma"),
    "oracle_damping_without_sqrt": (
        "oracle.py",
        "s = sqrt(1 - gamma)",
        "s = 1 - gamma"),
    "no_signaling_against_b": (
        "analytics.py",
        'adroitness(correlators["f_o1o3"], correlators["a"])',
        'adroitness(correlators["f_o1o3"], correlators["b"])'),
    "readout_flip_wrong_qubit": (
        "noise.py",
        "eps * row[idx ^ (1 << q)]",
        "eps * row[idx ^ (1 << (q + 1) % circuit.n_qubits)]"),
    # the kick joins the run before the anchor column's gates, not after them
    "kick_one_column_early": (
        "noise.py",
        "if g.slot > col), len(ops))",
        "if g.slot >= col), len(ops))"),
    # the noiseless-Id skip taken under idle damping too
    "id_without_idle_damping": (
        "noise.py",
        'if quiet_idle and kind == "Id":',
        'if kind == "Id":'),
    # only exact zeros stay zero: multinomial residues tie tables to the step order
    "round_off_zeroing_removed": (
        "noise.py",
        "probs[probs <= ATOL_ALGEBRA] = 0.0",
        "probs[probs <= 0 * ATOL_ALGEBRA] = 0.0"),
    # the oracle's per-gate channel choice files the H pulse with the timing delays
    "oracle_h_takes_idle_damping": (
        "oracle.py",
        "if g.kind in TIMING_KINDS",
        'if g.kind in (*TIMING_KINDS, "H")'),
    # a row wrapped once differs from its float sum by about 2^64, under this bound
    "row_sum_check_too_loose": (
        "analytics.py",
        "- totals) > 2.0 ** 62).any():",
        "- totals) > 2.0 ** 66).any():"),
    "stderr_without_bessel": (
        "analytics.py",
        "var = _sum((v - mean) ** 2 for v in values) / (n - 1)",
        "var = _sum((v - mean) ** 2 for v in values) / n"),
    # a kick anchor past the last column: the engine kicked after every gate, the oracle never
    "kick_anchor_past_the_grid": (
        "circuit.py",
        "0 <= col < self.n_slots",
        "0 <= col"),
    # the QASM name table derived without Id: protocols pad with Id, so export
    # would lose it
    "qasm_names_without_id": (
        "circuit.py",
        "{k: k.lower() for k in KINDS_1Q}",
        '{k: k.lower() for k in KINDS_1Q if k != "Id"}'),
    # hoisting first leaves a gate under an HH pair that collapse then removes
    "hoist_before_collapse": (
        "circuit.py",
        "return pass_hoist(pass_collapse_hh(c))",
        "return pass_collapse_hh(pass_hoist(c))"),
    # a CNOT would no longer keep two H gates on its wire apart
    "collapse_through_cnot": (
        "circuit.py",
        'if g.kind == "Id":',
        'if g.kind in ("Id", KIND_CNOT):'),
    # the evolution kernel's flat index with each column bit ahead of its row bit:
    # still a permutation and its inverse, so both gathers stay in bounds
    "gather_columns_first": (
        "qsim.py",
        "order = rows + [n + a for a in rows]",
        "order = [n + a for a in rows] + rows"),
    # child processes would inherit the pin
    "blas_pin_never_removed": (
        "__init__.py",
        'del os.environ["OPENBLAS_NUM_THREADS"]',
        "pass"),
    # OpenBLAS obeys OMP_NUM_THREADS too; the pin would override the user's choice
    "blas_pin_ignores_omp": (
        "__init__.py",
        '{"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}',
        '{"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS"}'),
    # the seed source hands its first row out twice: every later table draws the stream
    # of the table before it, and the last row goes unread while the count still matches
    "seed_row_handed_out_twice": (
        "qsim.py",
        "return self.words[self.used - 1]",
        "return self.words[max(self.used - 2, 0)]"),
    # each mixing round reads the constants one hash call early: still a valid uint32 hash,
    # but not numpy's seeding, so every table draws another stream
    "seed_mix_rounds_shifted": (
        "qsim.py",
        "slice(4 + 3 * src, 7 + 3 * src)",
        "slice(3 + 3 * src, 6 + 3 * src)"),
    # True would be qubit 1, slot 1 or a shot count of 1
    "integer_accepts_bool": (
        "qsim.py",
        "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
        "if not isinstance(value, (int, np.integer)):"),
    # nan and inf would reach the compile cache and the evolution
    "real_accepts_non_finite": (
        "qsim.py",
        "isinstance(value, Real) and isfinite(value):",
        "isinstance(value, Real):"),
}


def run(name: str) -> tuple[str, str]:
    """One mutant on a fresh copy of src/ and tests/: 'killed', 'survived' or 'stale',
    and the suite's first failure line."""
    module, snippet, replacement = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="lgadroit-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        path = work / "src" / "lgadroit" / module
        source = path.read_text(encoding="utf-8")
        if source.count(snippet) != 1:
            return "stale", ""
        path.write_text(source.replace(snippet, replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    failed = next((line for line in done.stdout.splitlines()
                   if line.startswith(("FAILED", "ERROR"))), "")
    return ("survived" if done.returncode == 0 else "killed"), failed


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(MUTANTS))
        return 0
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    outcomes = {}
    for name in names:
        start = time.perf_counter()
        outcomes[name], failed = run(name)
        print(f"{outcomes[name]:8} {time.perf_counter() - start:6.1f} s  {name}  {failed}",
              flush=True)
    if "stale" in outcomes.values():
        return 2
    return 1 if "survived" in outcomes.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
