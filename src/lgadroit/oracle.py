"""Independent ground truth for the six-protocol program.

Three evaluation paths that must agree:

* the closed form LG(theta) = 2 cos(theta) + cos^4(theta) + 1
* 2x2 density-matrix arithmetic with the dephasing superoperators
* brute-force evaluation of the constructed circuits

The brute-force path deliberately avoids the sampler's evolution code: it
builds full 2^n x 2^n column operators by Kronecker products and
enumerates the exact joint outcome distribution, sharing nothing with the
tensor-contraction simulator beyond the gate-matrix definitions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import acos, cos

import numpy as np

from .circuit import KIND_CNOT, Circuit
from .noise import NoiseModel, amplitude_damping, depolarizing_1q, depolarizing_2q_factors
from .protocols import ROLES, ProtocolCircuit, ProtocolId, build_protocol
from .qsim import ID2, PAULI_Z, ValidationError, gate_matrix, sigma_theta, x_rotation


def closed_form_lg(theta: float) -> float:
    """LG(theta) = 2 cos(theta) + cos^4(theta) + 1."""
    c = cos(theta)
    return 2 * c + c ** 4 + 1


def violation_boundary() -> float:
    """The angle in (pi/2, pi) where LG(theta) crosses zero.

    Solves 2c + c^4 + 1 = 0 for c = cos(theta) by bisection on [-0.75, 0],
    where the polynomial is strictly increasing (derivative 2 + 4c^3 > 0)
    and changes sign.
    """
    def g(c: float) -> float:
        return 2 * c + c ** 4 + 1

    lo, hi = -0.75, 0.0
    if not g(lo) < 0 < g(hi):
        raise AssertionError("bisection bracket lost")
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return acos((lo + hi) / 2)


def superoperator_correlators(theta: float) -> tuple[float, float, float]:
    """(c_a, c_12, c_23) from the dephasing-superoperator trace formulas.

    Evaluated with the operational observables (+1 on the |1>-type
    eigenstate, i.e. minus the Pauli) on the initialized state, the -1
    eigenstate of sigma_theta.
    """
    s_th = sigma_theta(theta)
    o_z, o_th = -PAULI_Z, -s_th
    rho = (ID2 - s_th) / 2

    def deph(m: np.ndarray, axis: np.ndarray) -> np.ndarray:
        return (m + axis @ m @ axis) / 2

    def anti(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b + b @ a

    def half_trace(m: np.ndarray) -> float:
        val = complex(np.trace(o_z @ m)) / 2
        assert abs(val.imag) < 1e-12
        return val.real

    c_a = half_trace(anti(o_th, rho))
    c_12 = half_trace(anti(o_th, rho))
    after = deph(deph(deph(anti(o_z, deph(rho, s_th)), s_th), PAULI_Z), s_th)
    c_23 = half_trace(after)
    return c_a, c_12, c_23


# ---------------------------------------------------------------------------
# Brute-force circuit evaluation
# ---------------------------------------------------------------------------

def _embed_1q(m: np.ndarray, q: int, n: int) -> np.ndarray:
    return reduce(np.kron, [m if i == q else ID2 for i in reversed(range(n))])


def _full_cnot(control: int, target: int, n: int) -> np.ndarray:
    d = 1 << n
    idx = np.arange(d)
    perm = idx ^ (((idx >> control) & 1) << target)
    mat = np.zeros((d, d), dtype=complex)
    mat[idx, perm] = 1.0
    return mat


def _column_unitary(c: Circuit, slot: int) -> np.ndarray:
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        if g.slot != slot:
            continue
        if g.kind == KIND_CNOT:
            u = _full_cnot(g.qubits[0], g.qubits[1], c.n_qubits) @ u
        else:
            u = _embed_1q(gate_matrix(g.kind, g.param), g.qubits[0], c.n_qubits) @ u
    return u


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole grid (terminal measurements excluded)."""
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for slot in range(c.n_slots):
        u = _column_unitary(c, slot) @ u
    return u


def _marginalize_to_measured(probs: np.ndarray, measured: set[int], n: int) -> np.ndarray:
    out = np.zeros_like(probs)
    for i, p in enumerate(probs):
        j = i
        for q in range(n):
            if q not in measured:
                j &= ~(1 << q)
        out[j] += p
    return out


def _readout_flip(probs: np.ndarray, q: int, eps: float) -> np.ndarray:
    out = np.empty_like(probs)
    for i in range(probs.size):
        out[i] = (1 - eps) * probs[i] + eps * probs[i ^ (1 << q)]
    return out


@dataclass(frozen=True)
class ExactResult:
    """Exact joint outcome distribution of one protocol with role access."""

    distribution: np.ndarray
    roles: dict[str, int]

    def _values(self, symbol: str) -> np.ndarray:
        if symbol == "O1":
            return np.ones(self.distribution.size)
        if symbol not in self.roles:
            raise ValidationError(f"no role {symbol!r} in this protocol")
        q = self.roles[symbol]
        idx = np.arange(self.distribution.size)
        return 2.0 * ((idx >> q) & 1) - 1.0

    def single(self, symbol: str) -> float:
        return float(np.dot(self.distribution, self._values(symbol)))

    def pair(self, a: str, b: str) -> float:
        return float(np.dot(self.distribution, self._values(a) * self._values(b)))


def brute_force_distribution(pc: ProtocolCircuit, model: NoiseModel | None = None) -> np.ndarray:
    """Exact outcome distribution by dense full-space evolution."""
    c = pc.circuit
    if c.n_qubits > 5:
        raise ValidationError("brute force supports at most 5 qubits")
    model = model or NoiseModel()
    n, d = c.n_qubits, 1 << c.n_qubits

    kick_at: tuple[int, int] | None = None
    if model.kick is not None:
        symbol, kappa = model.kick
        if symbol not in pc.kick_anchors:
            raise ValidationError(f"kick names measurement {symbol!r} absent from the circuit")
        kick_at = pc.kick_anchors[symbol]
        if not (0 <= kick_at[0] < n and 0 <= kick_at[1] < c.n_slots):
            raise ValidationError(f"kick anchor {kick_at} of {symbol!r} is outside "
                                  "the circuit grid")

    mixed = model.p1 > 0 or model.p2 > 0 or model.gamma_idle > 0
    if mixed:
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
    else:
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0

    def kraus_apply(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in kraus)

    for slot in range(c.n_slots):
        u = _column_unitary(c, slot)
        if mixed:
            rho = u @ rho @ u.conj().T
            for g in c.gates:
                if g.slot != slot:
                    continue
                if g.kind == KIND_CNOT and model.p2 > 0:
                    qa, qb = g.qubits
                    kraus = [_embed_1q(a, qa, n) @ _embed_1q(b, qb, n)
                             for a, b in depolarizing_2q_factors(model.p2)]
                    rho = kraus_apply(rho, kraus)
                elif g.kind in ("Id", "T", "Tdg"):
                    if model.gamma_idle > 0:
                        kraus = [_embed_1q(k, g.qubits[0], n)
                                 for k in amplitude_damping(model.gamma_idle)]
                        rho = kraus_apply(rho, kraus)
                elif g.kind != KIND_CNOT and model.p1 > 0:
                    kraus = [_embed_1q(k, g.qubits[0], n) for k in depolarizing_1q(model.p1)]
                    rho = kraus_apply(rho, kraus)
        else:
            psi = u @ psi
        if kick_at is not None and kick_at[1] == slot:
            ku = _embed_1q(x_rotation(model.kick[1]), kick_at[0], n)
            if mixed:
                rho = ku @ rho @ ku.conj().T
            else:
                psi = ku @ psi

    probs = np.real(np.diag(rho)).clip(min=0.0) if mixed else np.abs(psi) ** 2
    probs = _marginalize_to_measured(probs, set(c.measured), n)
    if model.eps_ro > 0:
        for q in sorted(set(c.measured)):
            probs = _readout_flip(probs, q, model.eps_ro)
    return probs


def brute_force_correlators(pc: ProtocolCircuit, model: NoiseModel | None = None) -> ExactResult:
    # every protocol reads a subset of F's qubits, each under F's symbol
    roles = {symbol: q for symbol, q in ROLES[ProtocolId.F].items() if q in pc.circuit.measured}
    return ExactResult(brute_force_distribution(pc, model), roles)


# ---------------------------------------------------------------------------
# Theta sweep
# ---------------------------------------------------------------------------

PATHS = ("closed_form", "superoperator", "brute_force")


@dataclass(frozen=True)
class ThetaSweep:
    # records[path] has one (c_a, c_12, c_23, lg) row per theta
    records: dict[str, tuple[tuple[float, float, float, float], ...]]

    def max_disagreement(self) -> float:
        worst = 0.0
        base = self.records["closed_form"]
        for path in PATHS[1:]:
            for row, ref in zip(self.records[path], base):
                worst = max(worst, max(abs(a - b) for a, b in zip(row, ref)))
        return worst


def theta_sweep(thetas: list[float]) -> ThetaSweep:
    """Evaluate every path at every theta (ideal gate set)."""
    closed, superop, brute = [], [], []
    for theta in thetas:
        c = cos(theta)
        closed.append((c, c, c ** 4, closed_form_lg(theta)))
        ca, c12, c23 = superoperator_correlators(theta)
        superop.append((ca, c12, c23, ca + c12 + c23 + 1))
        res_a = brute_force_correlators(build_protocol(ProtocolId.A, theta, "ideal"))
        res_f = brute_force_correlators(build_protocol(ProtocolId.F, theta, "ideal"))
        ca = res_a.single("O3")
        c12 = res_f.single("O2")
        c23 = res_f.pair("O2", "O3")
        brute.append((ca, c12, c23, ca + c12 + c23 + 1))
    return ThetaSweep({
        "closed_form": tuple(closed),
        "superoperator": tuple(superop),
        "brute_force": tuple(brute),
    })
