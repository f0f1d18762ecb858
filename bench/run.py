"""The lgadroit benchmark: one closed-loop workload, timed or traced.

    python3 bench/run.py --workload {noisy_scan,many_reps,cli_cold} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from the root of a source checkout: it runs the program from
``src/``. One caller runs one program at a time, each program a full
``lgadroit.cli.run`` with its JSON report captured (``cli_cold``: a fresh
``python -m lgadroit.cli`` per program). Inputs come from ``--seed`` only.

With ``--trace 0`` it times programs for ``--seconds`` and prints the
end-to-end metrics. With ``--trace 1`` it runs a few programs in rounds,
alternately untraced and traced, and prints the per-layer metrics. Every
report is checked off the clock (see ``checks.py``). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. ``--smoke`` shrinks every size and keeps the code path.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS, PROGRAM, SETUP_SPANS, SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# child interpreters import the program from this checkout's src/
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

SETUP_PROBES = 15  # fresh interpreters per run; setup_s is their median
TRACED_PROGRAMS = 4  # programs per traced round
DIGEST_PROGRAMS = 16  # leading reports hashed into the run's digest
# the brute-force oracle costs about 0.3 s per noisy program, so noisy_scan
# checks a seeded subset; the other workloads check every program
ORACLE_SUBSET = {"noisy_scan": 8}
CHILD_TIMEOUT = 120.0

END_TO_END_UNITS = {"program_s.p90": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
COUNT_METRICS = ("noise.steps", "noise.kraus_steps", "noise.kraus_elements", "qsim.tables",
                 "protocols.builds", "circuit.gates")


@dataclass
class Result:
    seconds: float
    report: bytes | None  # None when the program did not complete
    error: str | None = None
    rss_mb: float | None = None


def run_in_process(cfg: dict, tracer: Tracer | None = None, program: int = 0) -> Result:
    from lgadroit import cli

    rc = cli.RunConfig(format="json", **cfg)
    buf = io.StringIO()
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    with traced, contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            code = tracer.run_program(program, cli.run, rc) if tracer else cli.run(rc)
        except Exception as exc:  # a failed program is counted, the run goes on
            return Result(perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - t0
    if code != 0:
        return Result(seconds, None, f"exit code {code}")
    return Result(seconds, buf.getvalue().encode())


@dataclass
class Child:
    status: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float  # user + system seconds of the child and its threads
    rss_mb: float


def spawn(cmd: list[str]) -> Child:
    """Run ``cmd`` from the checkout root to its end and reap it with os.wait4."""
    # files, not pipes, so that a chatty child cannot block before it is reaped
    with open(OUT / "child.out", "w+b") as out, open(OUT / "child.err", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        wall = perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read().decode(errors="replace"), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_cold(cfg: dict, tracer: Tracer | None = None, program: int = 0) -> Result:
    """One program in a fresh interpreter, timed from spawn to exit."""
    args = workloads.cli_args(cfg)
    if tracer:
        child = spawn([sys.executable, str(BENCH / "cold_child.py"), *args])
        lines = [ln for ln in child.stderr.splitlines() if ln.startswith("TRACE ")]
        if lines:
            tracer.absorb(json.loads(lines[-1][len("TRACE "):]), program)
    else:
        child = spawn([sys.executable, "-m", "lgadroit.cli", *args])
    if child.status != 0:
        return Result(child.wall_s, None,
                      f"exit code {child.status}: {child.stderr.strip()[-300:]}")
    return Result(child.wall_s, child.stdout, rss_mb=child.rss_mb)


class SetupProbes:
    """Set-up time in fresh interpreters: import lgadroit, generate the inputs.

    A probe's set-up time is the CPU time of its interpreter, numpy's BLAS
    worker threads included. Its wall time follows the shared host's fast
    and slow states more closely. The probes are spread over the run
    instead of bunched at its start.
    """

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed)]
        self.cmd += ["--smoke"] if smoke else []
        self.wanted = 2 if smoke else SETUP_PROBES
        self.samples: list[dict] = []
        self.seconds = 0.0  # wall time spent probing, kept off the run's clock
        self._probe()  # the first one may still be compiling bytecode
        self.samples.clear()
        self.seconds = 0.0

    def _probe(self) -> None:
        child = spawn(self.cmd)
        if child.status != 0:
            sys.exit(f"set-up probe failed: {child.stderr.strip()[-500:]}")
        self.samples.append({"setup_s": child.cpu_s, **json.loads(child.stdout)})
        self.seconds += child.wall_s

    def due(self, progress: float) -> None:
        """Probe if fewer than ``progress`` (0 to 1) of the wanted probes ran."""
        if len(self.samples) < self.wanted and len(self.samples) <= progress * self.wanted:
            self._probe()

    def medians(self) -> dict[str, float]:
        while len(self.samples) < self.wanted:
            self._probe()
        return {k: statistics.median(s[k] for s in self.samples) for k in self.samples[0]}


def tail_percentile(times: list[float]) -> tuple[float, int]:
    """p90, or with fewer than 100 samples the highest percentile with 10 beyond it.

    Returns the value and its 1-based rank in sorted order.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(min(ceil(0.9 * n), n - 10), ceil(n / 2), 1)
    return ordered[rank - 1], rank


def check_all(workload: str, seed: int, inputs: list[dict], results: list[Result]) -> list[str]:
    """One line per program whose report failed a check."""
    from checks import CORRELATORS, Oracle, check_report, sigmas

    oracle = Oracle()
    subset = ORACLE_SUBSET.get(workload)
    if subset is None or subset >= len(results):
        asked = set(range(len(results)))
    else:
        asked = set(random.Random(f"check:{seed}").sample(range(len(results)), subset))
    allowed = sigmas(len(asked) * len(CORRELATORS))
    failures = []
    for i, (cfg, res) in enumerate(zip(inputs, results)):
        problems = [res.error] if res.report is None else \
            check_report(cfg, res.report, oracle if i in asked else None, allowed)
        if problems:
            failures.append(f"program {i}: {'; '.join(problems)}")
    return failures


def digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for res in results[:DIGEST_PROGRAMS]:
        h.update(res.report or b"<failed>")
        h.update(b"\0")
    return h.hexdigest()


def timed_run(args, inputs, run, setup) -> tuple[dict, list[str], int]:
    """Programs back to back for ``--seconds``; returns metrics, failures, attempts."""
    warm = run(inputs[0])  # untimed: fills caches, and its report must repeat
    results: list[Result] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start - setup.seconds
        if elapsed >= args.seconds or len(results) == len(inputs):
            break
        setup.due(elapsed / args.seconds)
        results.append(run(inputs[len(results)]))
    if args.workload == "cli_cold":
        rss = statistics.median(r.rss_mb or 0.0 for r in results)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_all(args.workload, args.seed, inputs, results)
    if warm.report != results[0].report:
        failures.append("program 0 (warm-up): report differs from the timed run's")
    attempted = len(results) + 1
    times = [r.seconds for r in results]
    p90, rank = tail_percentile(times)
    # the median and the rate are printed, not gated: see README.md
    print(f"{args.workload} seed {args.seed}: {len(results)} programs in {elapsed:.2f} s; "
          f"program_s.p50 {statistics.median(times):.4f} s; "
          f"programs_per_s {len(results) / elapsed:.3f}; "
          f"program_s.p90 is rank {rank} of {len(results)}")
    print(f"report digest sha256:{digest(results)} over the first "
          f"{min(DIGEST_PROGRAMS, len(results))} programs")
    metrics = {
        "program_s.p90": p90,
        "setup_s": setup.medians()["setup_s"],
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - len(failures) / attempted,
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            failures, attempted)


def traced_run(args, inputs, run, setup) -> tuple[dict, list[str], int]:
    """A few programs in rounds, untraced and traced in alternating order."""
    programs = inputs[:2 if args.smoke else TRACED_PROGRAMS]
    baseline = [run(cfg) for cfg in programs]  # untimed warm-up and reference reports
    failures = check_all(args.workload, args.seed, programs, baseline)
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    pass_counts: list[Counter] = []
    executed = traced_programs = rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start - setup.seconds < args.seconds:
        setup.due((perf_counter() - start - setup.seconds) / args.seconds)
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            before = Counter(tracer.counts)
            for i, cfg in enumerate(programs):
                res = run(cfg, tracer, traced_programs) if traced else run(cfg)
                seconds[traced] += res.seconds
                executed += 1
                traced_programs += traced
                if res.report != baseline[i].report:
                    failures.append(f"program {i} ({'traced' if traced else 'untraced'}, "
                                    f"round {rounds}): report differs from its first run "
                                    f"{res.error or ''}")
            if traced:
                pass_counts.append(tracer.counts - before)
        rounds += 1
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(tracer.export()))

    problems = []
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append(f"work counts differ between rounds: {pass_counts}")
    # a layer that cannot be traced would read 0, which looks like a gain
    problems += [f"entry point not found, so not traced: {m}" for m in tracer.missing]
    self_s = tracer.self_times()
    program_s = sum(t1 - t0 for name, t0, t1, *_ in tracer.spans if name == PROGRAM)
    counts = {k: v / len(programs) for k, v in pass_counts[0].items()}
    metrics = {f"{name}_s": self_s[name] / traced_programs for name in SPAN_NAMES}
    if args.workload != "cli_cold":  # in-process programs import nothing: use the probes
        probed = setup.medians()
        for name in SETUP_SPANS:
            metrics[f"{name}_s"] = probed[name.split(".")[1] + "_s"]
    metrics["noise.evolve_share"] = self_s["noise.evolve"] / program_s
    metrics["qsim.sample_share"] = self_s["qsim.sample"] / program_s
    metrics.update({k: counts.get(k, 0.0) for k in COUNT_METRICS})
    metrics["qsim.outcomes_per_table"] = (counts.get("qsim.outcomes", 0.0)
                                          / max(counts.get("qsim.tables", 0.0), 1.0))
    metrics["tracing_overhead_frac"] = seconds[True] / seconds[False] - 1.0
    metrics.update({f"{name}.errors": float(tracer.errors[name]) for name, *_ in LAYERS})

    top = sorted(((s / program_s, n) for n, s in self_s.items()), reverse=True)[:4]
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(programs)} programs, "
          f"{traced_programs} traced; largest self-time shares: "
          + ", ".join(f"{n} {s:.3f}" for s, n in top)
          + f"; tracing overhead {metrics['tracing_overhead_frac']:.3f}")
    print(f"report digest sha256:{digest(baseline)} over {len(baseline)} programs")
    units = {k: "s" for k in metrics if k.endswith("_s")}
    units.update({k: "frac" for k in metrics if k.endswith(("_share", "_frac"))})
    return ({k: {"value": v, "unit": units.get(k, "count")} for k, v in metrics.items()},
            failures + problems, executed + len(baseline))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = p.parse_args()
    if not (SRC / "lgadroit" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'lgadroit'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup = SetupProbes(args.workload, args.seed, args.smoke)
    import numpy

    print(f"machine: {platform.machine()}, {len(os.sched_getaffinity(0))} cpus, "
          f"Python {platform.python_version()}, numpy {numpy.__version__}")
    inputs = workloads.generate(args.workload, args.seed, args.smoke)
    run = run_cold if args.workload == "cli_cold" else run_in_process
    metrics, failures, attempted = (traced_run if args.trace else timed_run)(
        args, inputs, run, setup)
    for line in failures[:20]:
        print(f"FAILED {line}")
    if len(failures) > 20:
        print(f"FAILED ... and {len(failures) - 20} more")
    failed = sum(f.startswith("program ") for f in failures)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
