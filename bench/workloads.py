"""Seeded inputs for the three benchmark workloads.

Each workload is a list of program configurations, given as ``RunConfig``
field values. The same seed always gives the same list. The module uses
the standard library only, so the inputs do not move when the program's
own defaults change.

Run as a script, it is the set-up probe: ``python3 bench/workloads.py
WORKLOAD SEED [--smoke]`` imports ``lgadroit.cli`` and generates the
inputs in a fresh interpreter, and prints as JSON the time of the numpy
import the program makes, of the rest of the lgadroit import and of the
input generation.
"""
from __future__ import annotations

import math
import random

DEVICE_THETA = -3 * math.pi / 4
# PLAUSIBLE_NOISE of the seed harness, copied so the scan stays put even
# if the program's documented noise point changes.
BASE_NOISE = {"p1": 0.002, "p2": 0.05, "eps_ro": 0.01, "gamma_idle": 0.002}
N_INPUTS = 2048  # more programs than any run completes

WORKLOADS = ("noisy_scan", "many_reps", "cli_cold")


def _noisy_scan(i: int, rng: random.Random, smoke: bool) -> dict:
    cfg = {"theta": DEVICE_THETA, "mode": "device", "shots": 256 if smoke else 8192,
           "repetitions": 2 if smoke else 10, "seed": rng.randrange(2 ** 31)}
    for name, value in BASE_NOISE.items():
        cfg[name] = value * rng.uniform(0.5, 1.5)
    # every second point asks whether an O2 kick of this size is detected
    cfg["kick"] = rng.uniform(-math.pi, math.pi) if i % 2 else 0.0
    return cfg


def _many_reps(i: int, rng: random.Random, smoke: bool) -> dict:
    return {"theta": rng.uniform(-math.pi, math.pi), "mode": "ideal",
            "shots": 256 if smoke else 8192, "repetitions": 8 if smoke else 256,
            "seed": rng.randrange(2 ** 31)}


def _cli_cold(i: int, rng: random.Random, smoke: bool) -> dict:
    # the default configuration; only the seed flag varies
    cfg = {"seed": rng.randrange(2 ** 31)}
    if smoke:
        cfg.update(shots=256, repetitions=2)
    return cfg


_GENERATORS = {"noisy_scan": _noisy_scan, "many_reps": _many_reps, "cli_cold": _cli_cold}


def generate(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The program configurations of one workload, in run order."""
    make = _GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(i, rng, smoke) for i in range(N_INPUTS)]


def cli_args(cfg: dict) -> list[str]:
    """Command-line flags for a cli_cold configuration."""
    args = ["--format", "json", "--seed", str(cfg["seed"])]
    if "shots" in cfg:
        args += ["--shots", str(cfg["shots"]), "--reps", str(cfg["repetitions"])]
    return args


def timed_import() -> tuple[float, float, float, float]:
    """Import ``lgadroit.cli`` as ``python -m lgadroit.cli`` would.

    Returns the ``perf_counter`` stamps (start, numpy start, numpy end,
    end). numpy is not imported here: its stamps bracket the first import
    statement, wherever the program makes it, that loads numpy. If none
    does, both numpy stamps equal the start.
    """
    import builtins
    import sys
    from time import perf_counter

    real_import = builtins.__import__
    numpy_stamps = []

    def import_(name, globals=None, locals=None, fromlist=(), level=0):
        if level or name.partition(".")[0] != "numpy" or "numpy" in sys.modules:
            return real_import(name, globals, locals, fromlist, level)
        numpy_stamps.append(perf_counter())
        try:
            return real_import(name, globals, locals, fromlist, level)
        finally:
            numpy_stamps.append(perf_counter())

    start = perf_counter()
    builtins.__import__ = import_
    try:
        import lgadroit.cli  # noqa: F401
    finally:
        builtins.__import__ = real_import
    end = perf_counter()
    numpy_start, numpy_end = numpy_stamps or (start, start)
    return start, numpy_start, numpy_end, end


def _probe(workload: str, seed: int, smoke: bool) -> dict:
    from time import perf_counter

    start, numpy_start, numpy_end, imported = timed_import()
    generate(workload, seed, smoke)
    numpy_s = numpy_end - numpy_start
    return {"numpy_import_s": numpy_s, "lgadroit_import_s": imported - start - numpy_s,
            "inputs_s": perf_counter() - imported}


if __name__ == "__main__":
    import json
    import sys

    name, seed_arg = sys.argv[1], sys.argv[2]
    print(json.dumps(_probe(name, int(seed_arg), "--smoke" in sys.argv[3:])))
