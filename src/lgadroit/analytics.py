"""Correlator estimates, adroitness bounds, the LG quantity and the verdict.

Estimation follows the program's repetition structure: each repetition's
shot table yields one correlator value, and the report carries the
cross-repetition mean with the sample standard error (std/sqrt(n_reps)).
Initialization contributes the constant +1 to every correlator involving
O1, so <O1 O3> reduces to <O3> and <O1 O2>_f to <O2>_f.

Errors on derived quantities propagate in quadrature and are reported
alongside; the verdict itself is decided on central values.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod, sqrt
from typing import Mapping, Sequence

from .protocols import ProtocolId, ProtocolRun, bit_value
from .qsim import ValidationError


class Verdict(str, Enum):
    VIOLATION_ESTABLISHED = "violation_established"
    VIOLATION_UNRESOLVED = "violation_unresolved"
    NO_VIOLATION = "no_violation"


@dataclass(frozen=True)
class CorrelatorEstimate:
    mean: float
    stderr: float
    n_reps: int

    def __post_init__(self):
        if not abs(self.mean) <= 1.0 + 1e-12:  # false for nan
            raise ValidationError(f"correlator mean {self.mean} outside [-1, 1]")
        if not self.stderr >= 0.0:
            raise ValidationError(f"stderr must be finite and >= 0, got {self.stderr}")


@dataclass(frozen=True)
class ValueWithError:
    value: float
    error: float


def _pair_qubits(roles: Mapping[str, int], pair: tuple[str, str]) -> list[int]:
    """Qubits read by a pair; "O1" is the initialization read, the constant +1."""
    if missing := [symbol for symbol in pair if symbol != "O1" and symbol not in roles]:
        raise ValidationError(f"no role {missing[0]!r} in this protocol")
    return [roles[symbol] for symbol in pair if symbol != "O1"]


def _table_mean(counts: Mapping[str, int], qubits: list[int], signs: dict[str, int]) -> float:
    """One table's mean product; ``signs`` keeps each outcome's +-1 product."""
    total = sum(counts.values())
    if total == 0:
        raise ValidationError("empty shot table")
    acc = 0
    for outcome, count in counts.items():
        if outcome not in signs:
            signs[outcome] = prod(bit_value(outcome, q) for q in qubits)
        acc += signs[outcome] * count
    return acc / total


def correlator(tables: Sequence[Mapping[str, int]], roles: Mapping[str, int],
               pair: tuple[str, str]) -> CorrelatorEstimate:
    """Cross-repetition mean and sample standard error of one correlator."""
    if len(tables) < 2:
        raise ValidationError("need >= 2 repetitions for a standard error")
    qubits, signs = _pair_qubits(roles, pair), {}
    values = [_table_mean(t, qubits, signs) for t in tables]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return CorrelatorEstimate(mean, sqrt(var / n), n)


def adroitness(est_x: CorrelatorEstimate, est_a: CorrelatorEstimate) -> ValueWithError:
    """|<O1 O3>_x - <O1 O3>_a| with quadrature error."""
    return ValueWithError(abs(est_x.mean - est_a.mean),
                          sqrt(est_x.stderr ** 2 + est_a.stderr ** 2))


def adroitness_total(parts: Sequence[ValueWithError]) -> ValueWithError:
    return ValueWithError(sum(p.value for p in parts),
                          sqrt(sum(p.error ** 2 for p in parts)))


def lg_quantity(c_a: CorrelatorEstimate, c_12: CorrelatorEstimate,
                c_23: CorrelatorEstimate) -> ValueWithError:
    """<O1 O3>_a + <O1 O2>_f + <O2 O3>_f + 1, error in quadrature."""
    return ValueWithError(c_a.mean + c_12.mean + c_23.mean + 1.0,
                          sqrt(c_a.stderr ** 2 + c_12.stderr ** 2 + c_23.stderr ** 2))


def verdict(lg: ValueWithError, eps_total: ValueWithError) -> Verdict:
    """Two-part decision on central values: negative and outside the adroitness budget."""
    if lg.value >= 0.0:
        return Verdict.NO_VIOLATION
    if abs(lg.value) >= eps_total.value:
        return Verdict.VIOLATION_ESTABLISHED
    return Verdict.VIOLATION_UNRESOLVED


@dataclass(frozen=True)
class AdroitnessReport:
    eps_b: ValueWithError
    eps_c: ValueWithError
    eps_d: ValueWithError
    eps_e: ValueWithError

    @property
    def eps_total(self) -> ValueWithError:
        return adroitness_total([self.eps_b, self.eps_c, self.eps_d, self.eps_e])


@dataclass(frozen=True)
class LGReport:
    lg: ValueWithError
    verdict: Verdict


@dataclass(frozen=True)
class ProgramReport:
    correlators: dict[str, CorrelatorEstimate]  # a..e, f_o1o2, f_o2o3, f_o1o3
    lg_report: LGReport
    adroitness_report: AdroitnessReport
    no_signaling: ValueWithError


def analyze(runs: Mapping[ProtocolId, ProtocolRun]) -> ProgramReport:
    """Turn a full program's shot tables into the two result tables."""
    def corr(pid: ProtocolId, pair: tuple[str, str]) -> CorrelatorEstimate:
        run = runs[pid]
        return correlator(run.tables, run.protocol.roles, pair)

    correlators = {
        "a": corr(ProtocolId.A, ("O1", "O3")),
        "b": corr(ProtocolId.B, ("O1", "O3")),
        "c": corr(ProtocolId.C, ("O1", "O3")),
        "d": corr(ProtocolId.D, ("O1", "O3")),
        "e": corr(ProtocolId.E, ("O1", "O3")),
        "f_o1o2": corr(ProtocolId.F, ("O1", "O2")),
        "f_o2o3": corr(ProtocolId.F, ("O2", "O3")),
        "f_o1o3": corr(ProtocolId.F, ("O1", "O3")),
    }
    adr = AdroitnessReport(*(adroitness(correlators[x], correlators["a"]) for x in "bcde"))
    lg = lg_quantity(correlators["a"], correlators["f_o1o2"], correlators["f_o2o3"])
    return ProgramReport(
        correlators=correlators,
        lg_report=LGReport(lg, verdict(lg, adr.eps_total)),
        adroitness_report=adr,
        # |<O1 O3>_f - <O1 O3>_a|: diagnostic only, not part of the verdict
        no_signaling=adroitness(correlators["f_o1o3"], correlators["a"]),
    )


# ---------------------------------------------------------------------------
# Fig.-6-shaped human tables
# ---------------------------------------------------------------------------

def _cell(value: float, error: float | None = None) -> str:
    if error is None:
        return f"{value:.2f}"
    return f"{value:.2f} ± {error:.2f}"


def format_tables(report: ProgramReport,
                  predictions: tuple[float, float, float, float]) -> str:
    """The two result tables, rounded to 2 decimals like the reference layout.

    ``predictions`` is the quantum (c_a, c_12, c_23, lg) row; every
    adroitness correlator <O1 O3>_b..e is predicted to equal c_a.
    """
    c = report.correlators
    lg = report.lg_report
    rows1 = [
        ["", "<O1O3>_a", "<O1O2>_f", "<O2O3>_f", "LG"],
        ["Measured",
         _cell(c["a"].mean, c["a"].stderr), _cell(c["f_o1o2"].mean, c["f_o1o2"].stderr),
         _cell(c["f_o2o3"].mean, c["f_o2o3"].stderr), _cell(lg.lg.value, lg.lg.error)],
        ["Quantum Prediction", *(_cell(v) for v in predictions)],
    ]
    adr = report.adroitness_report
    rows2 = [
        ["", "<O1O3>_b", "<O1O3>_c", "<O1O3>_d", "<O1O3>_e", "eps_total"],
        ["Measured",
         _cell(c["b"].mean, c["b"].stderr), _cell(c["c"].mean, c["c"].stderr),
         _cell(c["d"].mean, c["d"].stderr), _cell(c["e"].mean, c["e"].stderr),
         _cell(adr.eps_total.value, adr.eps_total.error)],
        ["Quantum Prediction", *(_cell(predictions[0]) for _ in "bcde"), _cell(0.0)],
    ]

    def table(title: str, rows: list[list[str]]) -> str:
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = [title]
        for r in rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip())
        return "\n".join(lines)

    return (table("The Leggett-Garg Quantity", rows1) + "\n\n"
            + table("Adroitness Test Results", rows2) + "\n")
