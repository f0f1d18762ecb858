"""Command-line entry point: run the program, print the tables, emit reports.

Configuration comes from an optional JSON document plus flag overrides;
defaults reproduce the reference setup (theta = -3pi/4, r = 8192 shots,
10 repetitions, no noise). Exit codes: 0 done, 1 assert-violation failed,
2 invalid configuration, 3 internal invariant failure or any other
unexpected error (one line on stderr, no traceback).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from . import analytics, noise, oracle
from .circuit import to_qasm
from .protocols import DEVICE_THETA, ExperimentPlan, ProtocolId, compile_program, run_plan
from .qsim import InvariantError, ValidationError


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    theta: float = DEVICE_THETA
    shots: int = 8192
    repetitions: int = 10
    seed: int = 11
    mode: str | None = None  # None -> device at -3pi/4, ideal elsewhere
    p1: float = 0.0
    p2: float = 0.0
    eps_ro: float = 0.0
    gamma_idle: float = 0.0
    kick: float = 0.0
    format: str = "table"
    out: str | None = None

    def resolved_mode(self) -> str:
        on_device_theta = abs(self.theta - DEVICE_THETA) <= 1e-9
        if self.mode is None:
            return "device" if on_device_theta else "ideal"
        if self.mode == "device" and not on_device_theta:
            raise ConfigError("device mode supports only theta = -3pi/4; use --mode ideal")
        return self.mode

    def noise_model(self) -> noise.NoiseModel:
        model = noise.NoiseModel(p1=self.p1, p2=self.p2, eps_ro=self.eps_ro,
                                 gamma_idle=self.gamma_idle)
        if self.kick != 0.0:
            model = noise.invasive_o2(model, self.kick)
        return model

    def plan(self) -> ExperimentPlan:
        return ExperimentPlan(theta=self.theta, shots=self.shots,
                              repetitions=self.repetitions, base_seed=self.seed,
                              noise=self.noise_model(), gateset_mode=self.resolved_mode())


_JSON_KEYS = {f.name for f in fields(RunConfig)}
_INT_KEYS = ("shots", "repetitions", "seed")
_REAL_KEYS = ("theta", "p1", "p2", "eps_ro", "gamma_idle", "kick")
_CHOICES = {"format": ("table", "json", "csv"), "mode": ("device", "ideal", None)}


def _check_types(cfg: RunConfig) -> None:
    """Reject values of the wrong type before any of them reaches the program."""
    for key in _INT_KEYS:
        value = getattr(cfg, key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    for key in _REAL_KEYS:
        value = getattr(cfg, key)
        # the comparison is false for nan and inf, and exact for huge ints
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
    for key, allowed in _CHOICES.items():
        value = getattr(cfg, key)
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
    if cfg.out is not None and (not isinstance(cfg.out, str) or "\0" in cfg.out):
        raise ConfigError(f"out must be a path string or null, got {cfg.out!r}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lgadroit",
        description="Run the six-protocol Leggett-Garg program with adroitness checks.",
    )
    p.add_argument("--config", metavar="FILE", help="JSON config document; flags override it")
    p.add_argument("--theta", type=float, help="measurement angle in radians (default -3pi/4)")
    p.add_argument("--shots", type=int, help="shots per repetition (default 8192)")
    p.add_argument("--reps", type=int, dest="repetitions", help="repetitions (default 10)")
    p.add_argument("--seed", type=int, help="base seed (default 11)")
    p.add_argument("--mode", choices=("device", "ideal"), help="gate set (default: auto)")
    p.add_argument("--p1", type=float, help="depolarizing probability per 1-qubit pulse")
    p.add_argument("--p2", type=float, help="depolarizing probability per CNOT")
    p.add_argument("--eps-ro", type=float, dest="eps_ro", help="readout bit-flip probability")
    p.add_argument("--gamma", type=float, dest="gamma_idle",
                   help="amplitude damping per occupied idle slot")
    p.add_argument("--kick", type=float,
                   help="clumsiness kick angle on the position-2 measurement (radians)")
    p.add_argument("--format", choices=_CHOICES["format"], help="stdout format")
    p.add_argument("--out", metavar="PATH", help="write the JSON report (or QASM for --export)")
    p.add_argument("--export", metavar="PROTOCOL", help="export one compiled protocol as QASM")
    p.add_argument("--assert-violation", action="store_true",
                   help="exit 0 iff the verdict is violation_established, else 1")
    return p


def load_config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise ConfigError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in doc.items():
            if key not in _JSON_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        value = getattr(ns, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    _check_types(cfg)
    for key in _REAL_KEYS:  # a document's 1 echoes as 1.0, like --theta 1
        setattr(cfg, key, float(getattr(cfg, key)))
    return cfg


# ---------------------------------------------------------------------------
# Report document
# ---------------------------------------------------------------------------

def _est(e: analytics.CorrelatorEstimate) -> dict:
    return {"mean": e.mean, "stderr": e.stderr, "n_reps": e.n_reps}


def _val(v: analytics.ValueWithError) -> dict:
    return {"value": v.value, "error": v.error}


def build_report_document(cfg: RunConfig, report: analytics.ProgramReport) -> dict:
    ca, c12, c23 = oracle.superoperator_correlators(cfg.theta)
    adr = report.adroitness_report
    return {
        "config": {
            "theta": cfg.theta,
            "shots": cfg.shots,
            "repetitions": cfg.repetitions,
            "seed": cfg.seed,
            "mode": cfg.resolved_mode(),
            "noise": {"p1": cfg.p1, "p2": cfg.p2, "eps_ro": cfg.eps_ro,
                      "gamma_idle": cfg.gamma_idle, "kick_kappa": cfg.kick},
        },
        "correlators": {k: _est(v) for k, v in report.correlators.items()},
        "leggett_garg": _val(report.lg_report.lg),
        "adroitness": {
            "eps_b": _val(adr.eps_b), "eps_c": _val(adr.eps_c),
            "eps_d": _val(adr.eps_d), "eps_e": _val(adr.eps_e),
            "eps_total": _val(adr.eps_total),
        },
        "no_signaling": _val(report.no_signaling),
        "predictions": {"c_a": ca, "c_12": c12, "c_23": c23,
                        "lg": ca + c12 + c23 + 1.0, "eps_total": 0.0},
        "verdict": report.lg_report.verdict.value,
    }


def report_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def shots_csv(runs) -> str:
    lines = ["protocol,repetition,outcome,count"]
    for pid in ProtocolId:
        run = runs[pid]
        for rep, table in enumerate(run.tables):
            for outcome in sorted(table):
                lines.append(f"{pid.value},{rep},{outcome},{table[outcome]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _export(cfg: RunConfig, protocol: str, path: str | None) -> int:
    try:
        pid = ProtocolId(protocol.upper())
    except ValueError:
        print(f"error: unknown protocol {protocol!r} (expected A-F)", file=sys.stderr)
        return 2
    if path is None:
        print("error: --export needs --out PATH", file=sys.stderr)
        return 2
    # compiled and checked before the file is opened: a failed check, or a
    # circuit QASM cannot hold, leaves it untouched
    text = to_qasm(compile_program(cfg.theta, cfg.resolved_mode())[pid].circuit)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def run(cfg: RunConfig, assert_violation: bool = False) -> int:
    runs = run_plan(cfg.plan())
    report = analytics.analyze(runs)
    doc = build_report_document(cfg, report)

    if cfg.out is not None:  # before stdout: exit 2 must not follow a printed report
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(report_json(doc))
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2

    if cfg.format == "table":
        predictions = tuple(doc["predictions"][k] for k in ("c_a", "c_12", "c_23", "lg"))
        print(analytics.format_tables(report, predictions))
        ns = report.no_signaling
        print(f"no-signaling check |<O1O3>_f - <O1O3>_a| = {ns.value:.4f} ± {ns.error:.4f}")
        print(f"verdict: {report.lg_report.verdict.value}")
    elif cfg.format == "json":
        sys.stdout.write(report_json(doc))
    else:
        sys.stdout.write(shots_csv(runs))

    if assert_violation:
        return 0 if report.lg_report.verdict is analytics.Verdict.VIOLATION_ESTABLISHED else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        cfg = load_config(ns)
        if ns.export is not None:
            return _export(cfg, ns.export, cfg.out)
        return run(cfg, assert_violation=ns.assert_violation)
    except (ConfigError, ValidationError) as exc:
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
