"""Independent ground truth for the six-protocol program.

Three evaluation paths that must agree:

* the closed form LG(theta) = 2 cos(theta) + cos^4(theta) + 1
* 2x2 density-matrix arithmetic with the dephasing superoperators
* brute-force evaluation of the constructed circuits

The brute-force path deliberately avoids the sampler's evolution code: it
is one density-matrix evolution over full 2^n x 2^n column operators built
by Kronecker products, quiet models included, and it enumerates the exact
joint outcome distribution. Each gate's noise enters at one place, its
class's channel in closed form on the full matrix (``_depolarize``,
``_damp``). It shares with the engine only the gate matrices and ``ROLES``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import acos, cos, sqrt

import numpy as np

from .circuit import KIND_CNOT, TIMING_KINDS, Circuit, Gate
from .noise import NoiseModel
from .protocols import ROLES, ProtocolId, build_protocol
from .qsim import (ID2, PAULI_Z, InvariantError, ValidationError, gate_matrix, sigma_theta,
                   x_rotation)


def closed_form_lg(theta: float) -> float:
    """LG(theta) = 2 cos(theta) + cos^4(theta) + 1."""
    c = cos(theta)
    return 2 * c + c ** 4 + 1


def violation_boundary() -> float:
    """The angle in (pi/2, pi) where LG(theta) crosses zero.

    c^4 + 2c + 1 = (c + 1)(c^3 - c^2 + c + 1), and c = cos(theta) is the
    cubic's one real root. With c = 1/3 + t the cubic is t^3 + 2t/3 + 34/27,
    whose root by Cardano is t = u - w with w^3 = (17 + sqrt(297))/27 and
    uw = 2/9; u = 2/(9w) avoids the cancellation in u^3 = (sqrt(297) - 17)/27.
    """
    w = ((17 + sqrt(297)) / 27) ** (1 / 3)
    return acos(1 / 3 + 2 / (9 * w) - w)


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
        if not abs(val.imag) < 1e-12:  # false for nan too
            raise InvariantError(f"trace formula left an imaginary part {val.imag!r}")
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


def _depolarize(rho: np.ndarray, qubits: tuple[int, ...], p: float) -> np.ndarray:
    """(1 - p) rho + p (Tr_Q rho) (x) I/2^k on the k qubits Q of a full 2^n x 2^n matrix."""
    mask, idx = sum(1 << q for q in qubits), np.arange(len(rho))
    rest = idx & ~mask
    # (Tr_Q rho)[rest i, rest j], summed over each setting a of Q's bits; I keeps them equal
    traced = sum(rho[np.ix_(rest | a, rest | a)] for a in range(mask + 1) if a & mask == a)
    same = (idx[:, None] ^ idx) & mask == 0
    return (1 - p) * rho + p * np.where(same, traced, 0.0) / 2 ** len(qubits)


def _damp(rho: np.ndarray, q: int, gamma: float) -> np.ndarray:
    """Damp qubit q: rho00 += gamma rho11, rho11 *= 1 - gamma, coherences *= sqrt(1 - gamma)."""
    bit = (np.arange(len(rho)) >> q) & 1
    s = sqrt(1 - gamma)
    out = rho * np.array([[1.0, s], [s, 1 - gamma]])[bit[:, None], bit]
    zero = np.flatnonzero(bit == 0)
    out[np.ix_(zero, zero)] += gamma * rho[np.ix_(zero | 1 << q, zero | 1 << q)]
    return out


def _marginalize_to_measured(probs: np.ndarray, measured: tuple[int, ...], n: int) -> np.ndarray:
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

    def pair(self, a: str, b: str) -> float:
        return float(np.dot(self.distribution, self._values(a) * self._values(b)))


def brute_force_distribution(c: Circuit, model: NoiseModel | None = None) -> np.ndarray:
    """Exact outcome distribution by one dense full-space density-matrix evolution.

    Each slot applies its column unitary, then each of its gates' own
    channel, then the kick if its anchor column ends there.
    """
    model = model or NoiseModel()
    n, d = c.n_qubits, 1 << c.n_qubits

    kick_at: tuple[int, int] | None = None
    if model.kick is not None:
        symbol, kappa = model.kick
        if symbol not in c.kick_anchors:
            raise ValidationError(f"kick names measurement {symbol!r} absent from the circuit")
        kick_at = c.kick_anchors[symbol]

    def noisy(rho: np.ndarray, g: Gate) -> np.ndarray:
        """``rho`` after the gate's class channel; ``rho`` itself when its rate is 0."""
        if g.kind in TIMING_KINDS:
            return _damp(rho, g.qubits[0], model.gamma_idle) if model.gamma_idle > 0 else rho
        p = model.p2 if g.kind == KIND_CNOT else model.p1
        return _depolarize(rho, g.qubits, p) if p > 0 else rho

    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    for slot in range(c.n_slots):
        u = _column_unitary(c, slot)
        rho = u @ rho @ u.conj().T
        for g in c.gates:
            if g.slot == slot:
                rho = noisy(rho, g)
        if kick_at is not None and kick_at[1] == slot:
            k = _embed_1q(x_rotation(kappa), kick_at[0], n)
            rho = k @ rho @ k.conj().T

    probs = _marginalize_to_measured(np.real(np.diag(rho)).clip(min=0.0), c.measured, n)
    if model.eps_ro > 0:
        for q in c.measured:
            probs = _readout_flip(probs, q, model.eps_ro)
    return probs


def brute_force_correlators(c: Circuit, model: NoiseModel | None = None) -> ExactResult:
    # every protocol reads a subset of F's qubits, each under F's symbol
    roles = {symbol: q for symbol, q in ROLES[ProtocolId.F].items() if q in c.measured}
    return ExactResult(brute_force_distribution(c, model), roles)


# ---------------------------------------------------------------------------
# Theta sweep
# ---------------------------------------------------------------------------

def theta_sweep(thetas: list[float]) -> float:
    """The largest gap between the closed form and the superoperator or brute-force path,
    over every (c_a, c_12, c_23, lg) entry at every theta (ideal gate set)."""
    gaps = []
    for theta in thetas:
        c = cos(theta)
        closed = (c, c, c ** 4, closed_form_lg(theta))
        ca, c12, c23 = superoperator_correlators(theta)
        superop = (ca, c12, c23, ca + c12 + c23 + 1)
        res_a = brute_force_correlators(build_protocol(ProtocolId.A, theta, "ideal"))
        res_f = brute_force_correlators(build_protocol(ProtocolId.F, theta, "ideal"))
        ca = res_a.pair("O1", "O3")
        c12 = res_f.pair("O1", "O2")
        c23 = res_f.pair("O2", "O3")
        brute = (ca, c12, c23, ca + c12 + c23 + 1)
        gaps += [abs(a - b) for row in (superop, brute) for a, b in zip(row, closed)]
    return float(np.max(gaps, initial=0.0))  # a nan gap reads nan, as Python's max would not
