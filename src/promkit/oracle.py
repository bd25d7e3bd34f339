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

One walk of the trajectory tree reads every observable of every terminal
setting, as a shot reads it: at each leaf a setting rotates the rows by its
basis gates and forms its outcome distribution once, and each observable
weights that distribution by its values.  The walk shares the shot engine's
row layout and kernels (``apply_gates``, ``blocks``, ``expand``) but none of
its sampling, and runs in complex128.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .bits import SizeCapError, binary_convolve, check_size
from .circuits import DynamicCircuit

MAX_N = 12
MAX_M = 6


@dataclass
class TrajectoryTensor:
    tensor: np.ndarray           # (B, 2**m, 2**m) real
    branch_probs: np.ndarray     # (2**m,) true-outcome probabilities (no errors)
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

    def mitigated(self, b: int, q, alpha) -> float:
        """Mean of the mask-sampled estimator: sum_f alpha[f] * masked(b, f, q)."""
        alpha = np.asarray(alpha)
        if alpha.size != self.tensor.shape[1]:
            raise ValueError("alpha length must be 2**m")
        return float(alpha @ self.per_mask(b, q))


def exact_trajectory_tensor(circuit: DynamicCircuit) -> TrajectoryTensor:
    """Enumerate all trajectories of ``circuit`` against the observables of
    its settings.

    Index b of the tensor runs over the settings in order, then over each
    setting's observables.  The walk holds one unnormalized row per
    true-outcome history s, at most 2**m rows of 2**n amplitudes, and
    branches over the lookup values v; it is exact and exhaustive (4**m leaf
    branches), so the circuit must fit ``MAX_N`` qubits and ``MAX_M``
    measured bits.
    """
    n, m = circuit.n, circuit.m
    if n > MAX_N:
        raise SizeCapError(f"oracle capped at {MAX_N} qubits, circuit has {n}")
    if m > MAX_M:
        raise SizeCapError(f"oracle capped at {MAX_M} measured bits, circuit has {m}")
    for layer in circuit.layers:
        if layer.repeat != 1:
            raise ValueError("exact oracle does not model QND repetition")
    check_size(n + m, "oracle rows")
    reads = [(setting, [values for _, values in setting.value_table()])
             for setting in circuit.settings]

    k = 1 << m
    tensor = np.zeros((sum(len(values) for _, values in reads), k, k))
    probs = np.zeros(k)

    # depth first over (rows, s_acc, layer, v_acc, gates still to apply), on
    # a stack: a recursive closure would refer to itself, and each call would
    # leave a reference cycle that keeps its tables until the cyclic collector
    # runs
    stack = [(engine.zero_states(1, n), np.zeros(1, dtype=np.int64), 0, 0, circuit.prep)]
    while stack:
        rows, s_acc, li, v_acc, gates = stack.pop()
        rows = engine.apply_gates(rows.copy(), gates, n)
        if li == len(circuit.layers):
            hit = s_acc == v_acc
            probs[s_acc[hit]] = np.square(np.abs(rows[hit])).sum(axis=1)
            b = 0
            for setting, values in reads:
                rotated = engine.apply_gates(rows.copy(), setting.basis_gates, n)
                dist = np.square(np.abs(engine.blocks(rotated, setting.measured, n))).sum(axis=2)
                for v in values:
                    tensor[b, s_acc, v_acc] = dist @ v
                    b += 1
            continue
        layer = circuit.layers[li]
        t = engine.blocks(engine.apply_gates(rows, layer.pre_gates, n), layer.measured, n)
        parent, slots = np.nonzero(t.any(axis=2))  # every nonzero projection
        projected = engine.expand(slots, t[parent, slots], layer.measured, n)
        s_acc = s_acc[parent] << layer.m | slots
        for v_l in reversed(range(len(layer.table))):
            stack.append((projected, s_acc, li + 1, v_acc << layer.m | v_l,
                          layer.table[v_l] + layer.post_gates))

    return TrajectoryTensor(tensor=tensor, branch_probs=probs, n=n, m=m)
