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

from enum import Enum
from math import sqrt
from typing import Mapping, Sequence

import numpy as np

from .protocols import ROLES, ProtocolId
from .qsim import ValidationError


class Verdict(str, Enum):
    VIOLATION_ESTABLISHED = "violation_established"
    VIOLATION_UNRESOLVED = "violation_unresolved"
    NO_VIOLATION = "no_violation"


def correlator(tables: np.ndarray, roles: Mapping[str, int],
               pair: tuple[str, str]) -> dict:
    """A correlator's report entry: cross-repetition ``mean``, its ``stderr``, ``n_reps``.

    ``tables`` is a (reps, 2^n) signed-integer array of non-negative counts,
    rows summing to at most 2^63 - 1. A table's value is its signed count
    over its shot count, divided as Python ints: correctly rounded at any
    shot count, so it and the mean lie in [-1, 1].
    """
    tables = np.asarray(tables)
    width = tables.shape[1] if tables.ndim == 2 else 0
    if tables.dtype.kind != "i" or width < 2 or width & (width - 1) or (tables < 0).any():
        raise ValidationError(f"shot tables must be a 2-D integer array of non-negative "
                              f"counts, shape (reps, 2**n), got {tables.dtype} {tables.shape}")
    if len(tables) < 2:
        raise ValidationError("need >= 2 repetitions for a standard error")
    index, sign = np.arange(width), np.ones(width, dtype=np.int64)
    for symbol in pair:
        if symbol == "O1":  # the initialization read, the constant +1
            continue
        if symbol not in roles:
            raise ValidationError(f"no role {symbol!r} in this protocol")
        if not 0 <= (q := roles[symbol]) < width.bit_length() - 1:
            raise ValidationError(f"a table of width {width} has no bit for qubit {q}")
        sign *= 2 * ((index >> q) & 1) - 1  # bit 1 -> +1, bit 0 -> -1
    totals = tables.sum(axis=1).tolist()
    if 0 in totals:
        raise ValidationError("empty shot table")
    values = [v / t for v, t in zip((tables @ sign).tolist(), totals)]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return {"mean": mean, "stderr": sqrt(var / n), "n_reps": n}


def adroitness(est_x: Mapping, est_a: Mapping) -> dict:
    """|<O1 O3>_x - <O1 O3>_a| as a report ``{value, error}`` entry, error in quadrature."""
    return {"value": abs(est_x["mean"] - est_a["mean"]),
            "error": sqrt(est_x["stderr"] ** 2 + est_a["stderr"] ** 2)}


def adroitness_total(parts: Sequence[Mapping]) -> dict:
    """The sum of ``{value, error}`` entries, errors in quadrature."""
    return {"value": sum(p["value"] for p in parts),
            "error": sqrt(sum(p["error"] ** 2 for p in parts))}


def lg_quantity(c_a: Mapping, c_12: Mapping, c_23: Mapping) -> dict:
    """<O1 O3>_a + <O1 O2>_f + <O2 O3>_f + 1 as a ``{value, error}`` entry, error in quadrature."""
    return {"value": c_a["mean"] + c_12["mean"] + c_23["mean"] + 1.0,
            "error": sqrt(c_a["stderr"] ** 2 + c_12["stderr"] ** 2 + c_23["stderr"] ** 2)}


def verdict(lg: Mapping, eps_total: Mapping) -> Verdict:
    """Two-part decision on central values: negative and outside the adroitness budget."""
    if lg["value"] >= 0.0:
        return Verdict.NO_VIOLATION
    if abs(lg["value"]) >= eps_total["value"]:
        return Verdict.VIOLATION_ESTABLISHED
    return Verdict.VIOLATION_UNRESOLVED


def analyze(runs: Mapping[ProtocolId, np.ndarray]) -> dict:
    """Turn a full program's count arrays into the report document's result sections.

    The sections are ``correlators`` (a..e, f_o1o2, f_o2o3, f_o1o3),
    ``leggett_garg``, ``adroitness`` (eps_b..eps_e, eps_total),
    ``no_signaling`` and ``verdict``, as plain JSON values.
    """
    def corr(pid: ProtocolId, pair: tuple[str, str]) -> dict:
        return correlator(runs[pid], ROLES[pid], pair)

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
    eps = {f"eps_{x}": adroitness(correlators[x], correlators["a"]) for x in "bcde"}
    eps["eps_total"] = adroitness_total(list(eps.values()))
    lg = lg_quantity(correlators["a"], correlators["f_o1o2"], correlators["f_o2o3"])
    return {
        "correlators": correlators,
        "leggett_garg": lg,
        "adroitness": eps,
        # |<O1 O3>_f - <O1 O3>_a|: diagnostic only, not part of the verdict
        "no_signaling": adroitness(correlators["f_o1o3"], correlators["a"]),
        "verdict": verdict(lg, eps["eps_total"]).value,
    }


# ---------------------------------------------------------------------------
# Fig.-6-shaped human tables
# ---------------------------------------------------------------------------

def _cell(value: float, error: float | None = None) -> str:
    if error is None:
        return f"{value:.2f}"
    return f"{value:.2f} ± {error:.2f}"


def format_tables(doc: Mapping) -> str:
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
