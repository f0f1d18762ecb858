"""In-memory span tracer that wraps lgadroit's layer entry points from outside.

The tracer replaces each entry point in the namespace where the program
looks it up (``protocols.sample_counts``, not ``qsim.sample_counts``), so
the program's own code stays untouched. A span is a list
``[name, start, end, parent index, program id]``. Spans stay in memory
until the run ends. Counts of work are taken at the same boundaries.

A layer's self time is its span's duration minus the time its child spans
cover. The program is single-threaded, so child spans never overlap and
the covered time is the sum of their durations.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _count_validate(args, result):
    return {"circuit.gates": len(args[0].gates)}


def _count_tag(args, result):
    return {"noise.steps": len(result.steps)}


def _count_sample(args, result):
    return {"qsim.tables": 1, "qsim.outcomes": len(result)}


def _count_channel(args, result):
    return {"noise.kraus_steps": 1, "noise.kraus_elements": len(args[1])}


# (span name, module, attribute path as the caller resolves it, counter)
LAYERS = (
    ("protocols.build", "lgadroit.protocols", "build_protocol",
     lambda args, result: {"protocols.builds": 1}),
    ("circuit.validate", "lgadroit.protocols", "validate", _count_validate),
    ("circuit.compile", "lgadroit.protocols", "compile_circuit", None),
    ("noise.tag", "lgadroit.noise", "apply_noise", _count_tag),
    ("noise.readout", "lgadroit.noise", "NoisySimulation.outcome_distribution", None),
    ("noise.evolve", "lgadroit.noise", "NoisySimulation.final_density", None),
    ("qsim.sample", "lgadroit.protocols", "sample_counts", _count_sample),
    ("analytics.analyze", "lgadroit.analytics", "analyze", None),
    ("cli.report", "lgadroit.cli", "build_report_document", None),
    ("oracle.predict", "lgadroit.oracle", "superoperator_correlators", None),
    ("cli.format", "lgadroit.cli", "report_json", None),
)
# counted, but too fine-grained (one call per Kraus step) to get a span
COUNTED = (("lgadroit.noise", "apply_channel", _count_channel),)
# import spans, recorded around the imports of a fresh interpreter
SETUP_SPANS = ("setup.numpy_import", "setup.lgadroit_import")
SPAN_NAMES = tuple(name for name, *_ in LAYERS) + SETUP_SPANS
PROGRAM = "program"


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.missing: list[str] = []  # entry points the program no longer has
        self.program = -1
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter() if start is None else start, 0.0,
                           parent, self.program])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index][2] = perf_counter() if end is None else end
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span, as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.program])

    def run_program(self, program: int, fn, *args):
        """Call ``fn(*args)`` as one program: a root span with its own id."""
        self.program = program
        root = self.open(PROGRAM)
        try:
            return fn(*args)
        finally:
            self.close(root)

    def wrap(self, name: str | None, fn, count=None):
        """``fn`` recording a span called ``name`` (none if None) and its counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name) if name else -1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name:
                    self.errors[name] += 1
                raise
            finally:
                if name:
                    self.close(index)
            if count is not None:
                self.counts.update(count(args, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point found for as long as the block runs."""
        saved = []
        targets = [(name, module, path, count) for name, module, path, count in LAYERS]
        targets += [(None, module, path, count) for module, path, count in COUNTED]
        try:
            for name, module, path, count in targets:
                try:
                    owner, attr = _resolve(module, path)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    if f"{module}.{path}" not in self.missing:
                        self.missing.append(f"{module}.{path}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "errors": dict(self.errors), "missing": self.missing}

    def absorb(self, doc: dict, program: int) -> None:
        """Add another process's exported spans under a new program id."""
        offset = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               program])
        self.counts.update(doc["counts"])
        self.errors.update(doc["errors"])
        self.missing.extend(m for m in doc["missing"] if m not in self.missing)

    def self_times(self) -> Counter:
        """Total self time per span name."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out
