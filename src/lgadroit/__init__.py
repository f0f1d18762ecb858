"""Leggett-Garg test harness with adroitness (clumsiness) verification.

Builds the six-protocol program for a 5-qubit device with a fixed-target
CNOT topology, emulates the device compiler's peephole behavior and the
countermeasures that pin circuits against it, samples shots under a
configurable noise model, and reduces everything to the two result tables
with a two-part violation verdict. Closed-form, superoperator and
brute-force oracles cross-check every number.

The package exports only ``__version__``; import names from their modules
(``lgadroit.cli``, ``lgadroit.protocols``, ``lgadroit.analytics``, ...).

Every matrix here is 32x32 or smaller, and OpenBLAS runs products that
small on the calling thread, so its worker pool only burns CPU. When
numpy is not loaded yet and none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` is set, the package loads
numpy with ``OPENBLAS_NUM_THREADS=1`` and then removes the variable again:
OpenBLAS reads it only while it loads, so child processes inherit nothing.
Set any of the three, or import numpy first, to keep numpy's own pool.
"""
import os
import sys

if "numpy" not in sys.modules and not (
        {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # a plain statement, so an import hook sees numpy load here
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys

__version__ = "0.1.0"
