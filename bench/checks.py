"""Off-the-clock checks of one program's JSON report.

A report passes when it echoes the configuration it was given and, where
the oracle is asked, every sampled correlator lies within ``sigmas(m)``
binomial standard errors of the brute-force oracle's exact value for the
same theta, gate set and noise model, where m is the number of
correlators the run checks.
"""
from __future__ import annotations

import json
from dataclasses import replace
from math import sqrt
from statistics import NormalDist

from lgadroit.cli import RunConfig
from lgadroit.noise import NoiseModel
from lgadroit.oracle import brute_force_correlators
from lgadroit.protocols import ProtocolId, build_protocol

# A correct run is flagged with probability below this, whatever its size.
FALSE_ALARM = 1e-6
NOISE_KEYS = ("p1", "p2", "eps_ro", "gamma_idle")
# report key -> (protocol, correlator pair)
CORRELATORS = {
    "a": ("A", ("O1", "O3")), "b": ("B", ("O1", "O3")), "c": ("C", ("O1", "O3")),
    "d": ("D", ("O1", "O3")), "e": ("E", ("O1", "O3")),
    "f_o1o2": ("F", ("O1", "O2")), "f_o2o3": ("F", ("O2", "O3")),
    "f_o1o3": ("F", ("O1", "O3")),
}


def sigmas(checks: int) -> float:
    """Standard errors allowed per correlator when a run checks ``checks`` of them.

    At least 5. A fixed 5 would flag a correct cli_cold run (about 600
    correlators) once in about 2,900 runs, as sampling alone puts one
    correlator in about 1.7 million beyond 5 standard errors. The bound
    splits FALSE_ALARM over the run's checks (Bonferroni): 5.3 for 8
    correlators, 6.0 for 600, 6.5 for 16,000.
    """
    return max(5.0, NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2 * max(checks, 1))))


def _exact(theta: float, mode: str, noise: tuple, kick: float) -> dict[str, float]:
    model = NoiseModel(*noise, kick=("O2", kick) if kick else None)
    exact = {}
    for pid in ProtocolId:
        pc = build_protocol(pid, theta, mode)
        m = model if model.kick is None or "O2" in pc.kick_anchors else replace(model, kick=None)
        res = brute_force_correlators(pc, m)
        for key, (protocol, pair) in CORRELATORS.items():
            if protocol == pid.value:
                exact[key] = res.pair(*pair)
    return exact


class Oracle:
    """Exact correlators per distinct configuration, computed once each."""

    def __init__(self):
        self._cache: dict[tuple, dict[str, float]] = {}

    def correlators(self, rc: RunConfig, mode: str) -> dict[str, float]:
        key = (rc.theta, mode, tuple(getattr(rc, k) for k in NOISE_KEYS), rc.kick)
        if key not in self._cache:
            self._cache[key] = _exact(*key)
        return self._cache[key]


def check_report(cfg: dict, report: bytes, oracle: Oracle | None,
                 allowed: float) -> list[str]:
    """Problems found in one report; an empty list means it passed.

    ``allowed`` is the number of standard errors a sampled correlator may
    lie from its exact value.
    """
    rc = RunConfig(format="json", **cfg)
    mode = cfg.get("mode", "device")
    try:
        doc = json.loads(report)
        echo, corr = doc["config"], doc["correlators"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    expected = {"theta": rc.theta, "shots": rc.shots, "repetitions": rc.repetitions,
                "seed": rc.seed, "mode": mode,
                "noise": {**{k: getattr(rc, k) for k in NOISE_KEYS}, "kick_kappa": rc.kick}}
    problems = [f"config echo {echo!r} != {expected!r}"] if echo != expected else []
    if set(corr) != set(CORRELATORS):
        return problems + [f"correlators {sorted(corr)} != {sorted(CORRELATORS)}"]
    if oracle is None:
        return problems
    n = rc.shots * rc.repetitions
    for key, exact in oracle.correlators(rc, mode).items():
        mean = corr[key]["mean"]
        stderr = sqrt(max(1.0 - exact * exact, 0.0) / n)
        if not abs(mean - exact) <= allowed * stderr + 1e-9:
            problems.append(f"{key}: sampled {mean} vs exact {exact} "
                            f"({abs(mean - exact) / max(stderr, 1e-300):.1f} stderr)")
    return problems
