"""Command-line entry point: run the program, print the tables, emit reports.

Configuration comes from an optional JSON document plus flag overrides;
defaults reproduce the reference setup (theta = -3pi/4, r = 8192 shots,
10 repetitions, no noise). Exit codes: 0 done, 1 assert-violation failed,
2 invalid configuration, 3 internal invariant failure or any other
unexpected error: one line on stderr, no traceback, either
``internal invariant failure: <message>`` or
``internal error: <Type>: <message>``.

Outcome strings exist only in the shot CSV, and list qubit 0 first:
"10000" means qubit 0 read 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import analytics, oracle
from .circuit import to_qasm
from .protocols import (
    GATESET_MODES,
    OUTPUT_FORMATS,
    ProtocolId,
    RunConfig,
    compile_program,
    run_plan,
)
from .qsim import InvariantError, ValidationError, _choice


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lgadroit",
        description="Run the six-protocol Leggett-Garg program with adroitness checks.",
        exit_on_error=False,  # a bad flag takes main's one-line error path, without usage
        allow_abbrev=False,  # an ambiguous prefix would call error(), which prints usage
    )
    p.add_argument("--config", metavar="FILE", help="JSON config document; flags override it")
    p.add_argument("--theta", type=float, help="measurement angle in radians (default -3pi/4)")
    p.add_argument("--shots", type=int, help="shots per repetition (default 8192)")
    p.add_argument("--reps", type=int, dest="repetitions", help="repetitions (default 10)")
    p.add_argument("--seed", type=int, help="base seed (default 11)")
    p.add_argument("--mode", choices=GATESET_MODES, help="gate set (default: auto)")
    p.add_argument("--p1", type=float, help="depolarizing probability per 1-qubit pulse")
    p.add_argument("--p2", type=float, help="depolarizing probability per CNOT")
    p.add_argument("--eps-ro", type=float, dest="eps_ro", help="readout bit-flip probability")
    p.add_argument("--gamma", type=float, dest="gamma_idle",
                   help="amplitude damping per occupied idle slot")
    p.add_argument("--kick", type=float,
                   help="clumsiness kick angle on the position-2 measurement (radians)")
    p.add_argument("--format", choices=OUTPUT_FORMATS, help="stdout format")
    p.add_argument("--out", metavar="PATH", help="write the JSON report (or QASM for --export)")
    p.add_argument("--export", metavar="PROTOCOL", help="export one compiled protocol as QASM")
    p.add_argument("--assert-violation", action="store_true",
                   help="exit 0 iff the verdict is violation_established, else 1")
    return p


def load_config(ns: argparse.Namespace) -> RunConfig:
    """The config document with the flags given over it, checked as one ``RunConfig``."""
    keys = [f.name for f in fields(RunConfig)]
    values = {}
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise ValidationError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("config document must be a JSON object")
        for key in doc:
            if key not in keys:
                raise ValidationError(f"unknown config key {key!r}")
        values.update(doc)
    values.update((key, getattr(ns, key)) for key in keys if getattr(ns, key) is not None)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# Report document
# ---------------------------------------------------------------------------

def build_report_document(cfg: RunConfig, results: dict) -> dict:
    """The report document: ``analytics.analyze``'s sections plus config and predictions."""
    ca, c12, c23 = oracle.superoperator_correlators(cfg.theta)
    return {
        "config": {
            "theta": cfg.theta,
            "shots": cfg.shots,
            "repetitions": cfg.repetitions,
            "seed": cfg.seed,
            "mode": cfg.mode,
            "noise": {"p1": cfg.p1, "p2": cfg.p2, "eps_ro": cfg.eps_ro,
                      "gamma_idle": cfg.gamma_idle, "kick_kappa": cfg.kick},
        },
        **results,
        "predictions": {"c_a": ca, "c_12": c12, "c_23": c23,
                        "lg": ca + c12 + c23 + 1.0, "eps_total": 0.0},
    }


def report_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _outcome_names(n_qubits: int) -> list[tuple[str, int]]:
    """(outcome string, basis index) of every outcome, in string order."""
    return sorted((format(i, f"0{n_qubits}b")[::-1], i) for i in range(1 << n_qubits))


def shots_csv(runs) -> str:
    """One line per drawn outcome of each table, in string order; zero counts skipped."""
    lines = ["protocol,repetition,outcome,count"]
    for pid in ProtocolId:
        tables = runs[pid]
        names = _outcome_names(tables.shape[1].bit_length() - 1)
        for rep, counts in enumerate(tables.tolist()):
            lines.extend(f"{pid.value},{rep},{outcome},{counts[i]}"
                         for outcome, i in names if counts[i])
    return "\n".join(lines) + "\n"


def _cell(value: float, error: float | None = None) -> str:
    if error is None:
        return f"{value:.2f}"
    return f"{value:.2f} ± {error:.2f}"


def format_tables(doc: dict) -> str:
    """The table output of a report document, rounded like the reference layout.

    Both result tables to 2 decimals, each prediction from ``predictions``
    (every adroitness correlator <O1 O3>_b..e is predicted to equal c_a),
    then the no-signaling and verdict lines.
    """
    c, pred = doc["correlators"], doc["predictions"]
    lg, total, ns = doc["leggett_garg"], doc["adroitness"]["eps_total"], doc["no_signaling"]
    rows1 = [
        ["", "<O1O3>_a", "<O1O2>_f", "<O2O3>_f", "LG"],
        ["Measured", *(_cell(c[k]["mean"], c[k]["stderr"]) for k in ("a", "f_o1o2", "f_o2o3")),
         _cell(lg["value"], lg["error"])],
        ["Quantum Prediction", *(_cell(pred[k]) for k in ("c_a", "c_12", "c_23", "lg"))],
    ]
    rows2 = [
        ["", "<O1O3>_b", "<O1O3>_c", "<O1O3>_d", "<O1O3>_e", "eps_total"],
        ["Measured", *(_cell(c[x]["mean"], c[x]["stderr"]) for x in "bcde"),
         _cell(total["value"], total["error"])],
        ["Quantum Prediction", *(_cell(pred["c_a"]) for _ in "bcde"), _cell(pred["eps_total"])],
    ]

    def table(title: str, rows: list[list[str]]) -> str:
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = [title]
        for r in rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip())
        return "\n".join(lines)

    return "\n\n".join([
        table("The Leggett-Garg Quantity", rows1),
        table("Adroitness Test Results", rows2),
        f"no-signaling check |<O1O3>_f - <O1O3>_a| = {ns['value']:.4f} ± {ns['error']:.4f}\n"
        f"verdict: {doc['verdict']}\n",
    ])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _export(cfg: RunConfig, protocol: str) -> None:
    pid = ProtocolId(_choice(protocol.upper(), tuple(ProtocolId), "protocol"))
    if cfg.out is None:
        raise ValidationError("--export needs --out PATH")
    # compiled and checked before the file is opened: a failed check, or a
    # circuit QASM cannot hold, leaves it untouched
    _write(cfg.out, to_qasm(compile_program(cfg.theta, cfg.mode)[pid]))


def run(cfg: RunConfig, assert_violation: bool = False) -> int:
    runs = run_plan(cfg)
    doc = build_report_document(cfg, analytics.analyze(runs))

    # serialized once: the --out file and a JSON stdout are the same bytes
    text = report_json(doc) if cfg.out is not None or cfg.format == "json" else None
    if cfg.out is not None:  # before stdout: exit 2 must not follow a printed report
        _write(cfg.out, text)

    if cfg.format == "table":
        sys.stdout.write(format_tables(doc))
    elif cfg.format == "json":
        sys.stdout.write(text)
    else:
        sys.stdout.write(shots_csv(runs))

    if assert_violation:
        return 0 if doc["verdict"] == analytics.Verdict.VIOLATION_ESTABLISHED else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        # Python 3.11 still exits on an unrecognized argument, so those come back as leftovers
        ns, leftovers = _build_parser().parse_known_args(argv)
        if leftovers:
            raise ValidationError(f"unrecognized arguments: {' '.join(leftovers)}")
        cfg = load_config(ns)
        if ns.export is not None:
            if ns.assert_violation:  # an export computes no verdict to assert
                raise ValidationError("--export and --assert-violation cannot be combined")
            _export(cfg, ns.export)
            return 0
        return run(cfg, assert_violation=ns.assert_violation)
    except (ValidationError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a traceback exiting 1 would read as "violation unmet"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
