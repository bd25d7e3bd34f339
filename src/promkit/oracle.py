"""Exact reference calculations on dynamic circuits.

Enumerates every (true outcome, applied feedforward) trajectory of a dynamic
circuit into a tensor T[b, s, v] = <O_b> weight of the branch where the
mid-circuit measurements truly collapsed to s while the feedforward tables
were driven with lookup value v.  From it, all shot-level quantities follow
exactly:

* ideal (noiseless) expectation: trace over the diagonal s == v,
* expectation under a syndrome channel q with a fixed mitigation mask f:
  sum_{s,t} q[s ^ t] T[b, s, t ^ f], which is the XOR convolution of q with
  D[w] = sum_s T[b, s, s ^ w] at f, so one convolution gives every mask,
* the mitigated estimator's mean: sum_f alpha[f] of the above, which the
  weights make equal to the ideal value (the identity the acceptance suite
  checks to 1e-9).

One walk of the trajectory tree serves any number of observables, so the
observables of every terminal setting of a circuit go into one call.
Everything here is float64/complex128 and deliberately independent of the
shot engine's sampling machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .bits import SizeCapError, binary_convolve
from .circuits import DynamicCircuit, Observable
from .mitigation import MitigationWeights

MAX_N = 12
MAX_M = 6


@dataclass
class TrajectoryTensor:
    tensor: np.ndarray           # (B, 2**m, 2**m) real
    branch_probs: np.ndarray     # (2**m,) true-outcome probabilities (no errors)
    names: list[str]
    n: int
    m: int

    def ideal(self, b: int = 0) -> float:
        """Noiseless expectation: every lookup equals the true outcome."""
        return float(np.trace(self.tensor[b]))

    def per_mask(self, b: int, q) -> np.ndarray:
        """Expectation under syndrome channel q for every fixed mask f."""
        q = np.asarray(q, dtype=np.float64)
        k = self.tensor.shape[1]
        if q.size != k:
            raise ValueError("q length must be 2**m")
        idx = np.arange(k)
        diagonals = self.tensor[b][idx[:, None], idx[:, None] ^ idx].sum(axis=0)
        return binary_convolve(diagonals, q)

    def masked(self, b: int, f: int, q) -> float:
        """Expectation under syndrome channel q with fixed mask f."""
        return float(self.per_mask(b, q)[f])

    def mitigated(self, b: int, q, weights) -> float:
        """Mean of the mask-sampled estimator: sum_f alpha[f] * masked(b, f, q)."""
        alpha = weights.alpha() if isinstance(weights, MitigationWeights) else np.asarray(weights)
        if alpha.size != self.tensor.shape[1]:
            raise ValueError("alpha length must be 2**m")
        return float(alpha @ self.per_mask(b, q))


def _project(state: np.ndarray, qubits, outcome: int, n: int) -> np.ndarray:
    """Unnormalized projection onto computational ``outcome`` of ``qubits``."""
    idx = np.arange(state.size)
    mask = pattern = 0
    k = len(qubits)
    for j, q in enumerate(qubits):
        bitpos = 1 << (n - 1 - q)
        mask |= bitpos
        if (outcome >> (k - 1 - j)) & 1:
            pattern |= bitpos
    out = np.where((idx & mask) == pattern, state, 0.0)
    return out


def exact_trajectory_tensor(circuit: DynamicCircuit, observables) -> TrajectoryTensor:
    """Enumerate all trajectories of ``circuit`` against ``observables``.

    ``observables`` is a list of (name, Observable); evaluation is exact and
    exhaustive (4**m leaf branches), so the circuit must fit ``MAX_N`` qubits
    and ``MAX_M`` measured bits.
    """
    obs = list(observables)
    n, m = circuit.n, circuit.m
    if n > MAX_N:
        raise SizeCapError(f"oracle capped at {MAX_N} qubits, circuit has {n}")
    if m > MAX_M:
        raise SizeCapError(f"oracle capped at {MAX_M} measured bits, circuit has {m}")
    for layer in circuit.layers:
        if layer.repeat != 1:
            raise ValueError("exact oracle does not model QND repetition")

    k = 1 << m
    tensor = np.zeros((len(obs), k, k))
    probs = np.zeros(k)

    init = engine.simulate_gates(circuit.prep, n)

    def walk(state, li, s_acc, v_acc):
        if li == len(circuit.layers):
            if s_acc == v_acc:
                probs[s_acc] = float(np.vdot(state, state).real)
            for b, (_, ob) in enumerate(obs):
                tensor[b, s_acc, v_acc] = ob.expectation(state, n)
            return
        layer = circuit.layers[li]
        state = engine.simulate_gates(layer.pre_gates, n, state=state)
        for s_l in range(1 << layer.m):
            projected = _project(state, layer.measured, s_l, n)
            if not projected.any():
                continue  # zero-amplitude branch contributes nothing
            for v_l in range(1 << layer.m):
                branch = engine.simulate_gates(layer.table[v_l], n, state=projected)
                branch = engine.simulate_gates(layer.post_gates, n, state=branch)
                walk(branch,
                     li + 1,
                     (s_acc << layer.m) | s_l,
                     (v_acc << layer.m) | v_l)

    walk(init, 0, 0, 0)
    return TrajectoryTensor(tensor=tensor, branch_probs=probs,
                            names=[name for name, _ in obs], n=n, m=m)


def exact_setting_observables(setting) -> list[tuple[str, Observable]]:
    """Oracle observables equivalent to a terminal setting's diagonal reads:
    each reads its eigenvalues off the setting's measured qubits after the
    setting's basis gates, without shot sampling."""
    return [(name, _SettingRead(ob, setting)) for name, ob in setting.observables]


class _SettingRead(Observable):
    """<psi|U^dag D U|psi> as sum_t |(U psi)_t|^2 D[t], with U the setting's
    basis gates and D the observable's values on the measured qubits."""

    def __init__(self, ob: Observable, setting):
        self.values = ob.values_on_outcomes(setting.measured)
        self.measured = setting.measured
        self.gates = setting.basis_gates

    def expectation(self, state, n) -> float:
        rotated = engine.simulate_gates(self.gates, n, state=state)
        t = np.square(np.abs(rotated)).reshape((2,) * n)
        rest = [q for q in range(n) if q not in self.measured]
        marginal = np.transpose(t, list(self.measured) + rest).reshape(self.values.size, -1)
        return float(marginal.sum(axis=1) @ self.values)
