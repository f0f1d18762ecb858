"""Leggett-Garg test harness with adroitness (clumsiness) verification.

Builds the six-protocol program for a 5-qubit device with a fixed-target
CNOT topology, emulates the device compiler's peephole behavior and the
countermeasures that pin circuits against it, samples shots under a
configurable noise model, and reduces everything to the two result tables
with a two-part violation verdict. Closed-form, superoperator and
brute-force oracles cross-check every number.

The package exports only ``__version__``; import names from their modules
(``lgadroit.cli``, ``lgadroit.protocols``, ``lgadroit.analytics``, ...).
"""

__version__ = "0.1.0"
