"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (dense matrices, double
sums, linear solves) so that agreement with the fast implementations is
meaningful.  ``branching_batch`` reads the simulator's shot records through
spies, so that the package's shot loop needs no record-keeping path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from promkit import engine, oracle, simulator
from promkit.bits import (AliasSampler, fwht, index_to_bits, num_bits, parity,
                          sample_independent_bits, split_index, stream)
from promkit.circuits import Gate, PauliString, TerminalSetting
from promkit.experiments import _ghz_stabilizer_labels
from promkit.mitigation import (GeneralWeights, LayeredWeights, MitigationWeights,
                                TensoredWeights)
from promkit.simulator import RunResult, _pick_dtype, batch_size_for

I2 = np.eye(2)
CX = np.array([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]], dtype=np.complex128)


def bits_to_index(bits) -> np.ndarray:
    """Inverse of ``bits.index_to_bits`` along the last axis."""
    bits = np.asarray(bits)
    m = bits.shape[-1]
    weights = 1 << np.arange(m - 1, -1, -1)
    return (bits.astype(np.int64) @ weights).astype(np.int64)


def naive_wht(v):
    """O(4^m) double-sum Walsh-Hadamard transform, parity-of-AND kernel."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            sign = -1 if bin(i & j).count("1") % 2 else 1
            acc += sign * v[j]
        out[i] = acc
    return out


def alpha_by_linear_solve(q):
    """Mitigation weights via the XOR-circulant linear system, no transform."""
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    Q = np.empty((n, n))
    for s in range(n):
        for f in range(n):
            Q[s, f] = q[s ^ f]
    e0 = np.zeros(n)
    e0[0] = 1.0
    return np.linalg.solve(Q, e0)


def weights_sample_by_kind(weights, rng, size):
    """``MitigationWeights.sample`` written per weights class: an alias table
    of its own for general weights, independent bits at the flip rates for
    tensored ones, and the parts drawn in order and packed for layered ones.
    Returns (masks, int8 signs)."""
    if isinstance(weights, LayeredWeights):
        f = np.zeros(size, dtype=np.int64)
        signs = np.ones(size, dtype=np.int8)
        for part in weights.parts:
            fp, sp = weights_sample_by_kind(part, rng, size)
            f = (f << part.m) | fp
            signs = signs * sp
        return f, signs
    if isinstance(weights, TensoredWeights):
        f = sample_independent_bits(rng, weights.rates, size)
        odd_high = int(np.sum(1.0 - 2.0 * weights.rates < 0)) % 2
        return f, np.where(parity(f) ^ odd_high, -1, 1).astype(np.int8)
    alpha = weights_alpha_by_kind(weights)
    f = AliasSampler(np.abs(alpha) / weights.xi).draw(rng, size=size)
    return f, np.where(alpha < 0, -1, 1).astype(np.int8)[f]


def weights_alpha_by_kind(weights):
    """``MitigationWeights.alpha`` written per weights class: the Walsh
    division for general weights, and Kronecker products of the per-bit
    closed forms or of the parts' vectors for tensored and layered ones."""
    if isinstance(weights, GeneralWeights):
        return fwht(1.0 / fwht(weights.q)) / weights.q.size
    factors = (weights.alpha_bits if isinstance(weights, TensoredWeights)
               else [weights_alpha_by_kind(part) for part in weights.parts])
    a = np.array([1.0])
    for factor in factors:
        a = np.kron(a, factor)
    return a


def masked_by_gather(tensor, b, f, q):
    """``TrajectoryTensor.masked`` as the double sum over s, t of
    q[s ^ t] T[b, s, t ^ f], on a gathered 2^m x 2^m channel matrix."""
    q = np.asarray(q, dtype=np.float64)
    idx = np.arange(tensor.tensor.shape[1])
    qmat = q[idx[:, None] ^ idx[None, :]]
    return float((qmat * tensor.tensor[b][:, idx ^ f]).sum())


def mitigated_by_loop(tensor, b, q, alpha):
    """``TrajectoryTensor.mitigated`` as one masked value per mask."""
    return float(sum(alpha[f] * masked_by_gather(tensor, b, f, q) for f in range(len(alpha))))


def dense_unitary(gate, n):
    """The full 2^n x 2^n matrix of a gate via Kronecker products."""
    if gate.name == "cx":
        c, t = gate.qubits
        # projector decomposition: |0><0|_c x I + |1><1|_c x X_t
        p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
        p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
        xm = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        term0 = [I2] * n
        term1 = [I2] * n
        term0[c] = p0
        term1[c] = p1
        term1[t] = xm
        return kron_chain(term0) + kron_chain(term1)
    mats = [np.asarray(I2, dtype=np.complex128)] * n
    mats[gate.qubits[0]] = np.asarray(gate.matrix, dtype=np.complex128)
    return kron_chain(mats)


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def apply_circuit_dense(gates, n, state=None):
    """Apply gates by dense matrix multiplication on a 2^n statevector."""
    if state is None:
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
    state = np.asarray(state, dtype=np.complex128)
    for g in gates:
        state = dense_unitary(g, n) @ state
    return state


PAULIS = {"I": I2, "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
          "Z": np.diag([1, -1])}


def dense_observable(ob, n):
    """A bare observable as a 2^n x 2^n matrix: the Kronecker product of a
    Pauli string's factors, or of |0><0| on a zero projector's qubits."""
    mats = [I2] * n
    if isinstance(ob, PauliString):
        for q, p in zip(ob.qubits, ob.label):
            mats[q] = PAULIS[p]
        return ob.sign * kron_chain(mats)
    for q in ob.qubits:
        mats[q] = np.diag([1, 0])
    return kron_chain(mats)


@dataclass(frozen=True)
class Read:
    """A diagonal read: sum_t |(U psi)_t|^2 values[t], with U the ``gates``
    and t the outcome of the ``measured`` qubits (bit 0 the first listed)."""

    gates: tuple[Gate, ...]
    measured: tuple[int, ...]
    values: np.ndarray


def one_observable_settings(observables) -> tuple[TerminalSetting, ...]:
    """Bare (name, observable) pairs as one-observable settings: each
    measures the observable's support after a Pauli string's own basis
    gates, or none."""
    return tuple(TerminalSetting(name=name, measured=ob.support, observables=((name, ob),),
                                 basis_gates=ob.basis_gates() if isinstance(ob, PauliString)
                                 else ())
                 for name, ob in observables)


def dense_read(read, n):
    """A setting's read as the matrix U^dag D U, with U its gates and D
    diagonal: on basis state i, the value of the outcome that the read's
    measured qubits show in i."""
    diagonal = np.empty(1 << n)
    for i in range(1 << n):
        outcome = 0
        for q in read.measured:
            outcome = outcome << 1 | (i >> (n - 1 - q)) & 1
        diagonal[i] = read.values[outcome]
    u = apply_circuit_dense(read.gates, n, np.eye(1 << n))
    return u.conj().T @ np.diag(diagonal) @ u


def dense_projector(qubits, outcome, n):
    """|outcome><outcome| on ``qubits`` (bit 0 the first listed), the
    identity elsewhere, as a 2^n x 2^n matrix."""
    mats = [I2] * n
    for j, q in enumerate(qubits):
        bit = (outcome >> (len(qubits) - 1 - j)) & 1
        mats[q] = np.diag([1 - bit, bit])
    return kron_chain(mats)


def recursive_trajectory_tensor(circuit):
    """``oracle.exact_trajectory_tensor`` as the walk over every (s, v) leaf
    on one dense statevector: project onto each outcome s_l, apply each
    table entry v_l and the post gates, and recurse; each observable of each
    setting is the dense matrix of its read.  Returns (tensor, branch_probs)."""
    n, m = circuit.n, circuit.m
    eye = np.eye(1 << n)
    mats = [dense_read(Read(setting.basis_gates, setting.measured, values), n)
            for setting in circuit.settings for _, values in setting.value_table()]
    # per layer: its pre gates, its projectors and its table entries then
    # post gates, each as one matrix
    layers = [(apply_circuit_dense(layer.pre_gates, n, eye),
               [dense_projector(layer.measured, s_l, n) for s_l in range(1 << layer.m)],
               [apply_circuit_dense(entry + layer.post_gates, n, eye) for entry in layer.table])
              for layer in circuit.layers]
    tensor = np.zeros((len(mats), 1 << m, 1 << m))
    probs = np.zeros(1 << m)

    def walk(state, li, s_acc, v_acc):
        if li == len(layers):
            if s_acc == v_acc:
                probs[s_acc] = np.vdot(state, state).real
            for b, mat in enumerate(mats):
                tensor[b, s_acc, v_acc] = np.vdot(state, mat @ state).real
            return
        pre, projectors, entries = layers[li]
        width = circuit.layers[li].m
        for s_l, projector in enumerate(projectors):
            projected = projector @ pre @ state
            if not projected.any():
                continue
            for v_l, entry in enumerate(entries):
                walk(entry @ projected, li + 1, s_acc << width | s_l, v_acc << width | v_l)

    walk(apply_circuit_dense(circuit.prep, n), 0, 0, 0)
    return tensor, probs


def project_by_waterfill(v):
    """Non-negative projection via threshold search: out_i = max(v_i - tau, 0)
    with tau chosen so the total is preserved (requires total >= 0)."""
    v = np.asarray(v, dtype=np.float64)
    total = v.sum()
    lo, hi = -abs(v).max() - 1.0, abs(v).max() + 1.0
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        if np.maximum(v - tau, 0.0).sum() > total:
            lo = tau
        else:
            hi = tau
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def random_distribution(rng, size, eta_max=0.45):
    """A syndrome distribution with identity mass 1 - eta, eta < eta_max."""
    eta = rng.uniform(0.0, eta_max)
    rest = rng.random(size - 1)
    rest = eta * rest / rest.sum() if size > 1 else rest
    return np.concatenate(([1.0 - eta], rest))


def perturbed_distribution(rng, q, scale):
    """A nearby distribution: mix with random noise, keep entry 0 dominant."""
    size = q.size
    noise = rng.random(size)
    noise /= noise.sum()
    t = rng.uniform(0.0, scale)
    return (1 - t) * q + t * noise


def marginalize(q, keep) -> np.ndarray:
    """Marginal syndrome distribution on a subset of bit positions.

    ``keep`` lists bit positions (0 = leftmost) in the order they should
    appear in the result.
    """
    q = np.asarray(q, dtype=np.float64)
    m = num_bits(q.size)
    keep = list(keep)
    if any(j < 0 or j >= m for j in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"keep must be distinct bit positions < {m}")
    t = q.reshape((2,) * m)
    drop = tuple(j for j in range(m) if j not in keep)
    t = t.sum(axis=drop) if drop else t
    # axes of t are the kept bits in ascending position order; reorder
    asc = sorted(keep)
    order = [asc.index(j) for j in keep]
    return t.transpose(order).reshape(-1)


# ---------------------------------------------------------------------------
# closed forms of the repetition baselines and the GHZ fidelity

def rep_majority_flip_rate(rate: float, repeat: int) -> float:
    """Per-bit consensus error of majority voting over iid flips."""
    return float(sum(math.comb(repeat, j) * rate ** j * (1 - rate) ** (repeat - j)
                     for j in range(repeat // 2 + 1, repeat + 1)))


def rep_unanimous_acceptance(rate: float, repeat: int) -> float:
    """Per-bit probability that all repeated reports agree."""
    return float((1 - rate) ** repeat + rate ** repeat)


def ghz_stabilizers(n: int) -> list[PauliString]:
    """The 2**n stabilizers of GHZ_n as bare Pauli strings, built apart
    from ``experiments.ghz_stabilizer_settings``."""
    return [PauliString(label, sign=sign) for label, sign in _ghz_stabilizer_labels(n)]


def ghz_fidelity(expectations) -> float:
    """F = 2^{-n} sum over all 2**n stabilizer expectations (= their mean)."""
    e = np.asarray(expectations, dtype=np.float64)
    return float(e.mean())


def exact_ghz_fidelity(circuit) -> float:
    """Oracle fidelity of the circuit's output against GHZ over all qubits,
    each stabilizer read in its own setting after its own basis gates."""
    stabs = [(str(i), ob) for i, ob in enumerate(ghz_stabilizers(circuit.n))]
    tensor = oracle.exact_trajectory_tensor(
        replace(circuit, settings=one_observable_settings(stabs)))
    return ghz_fidelity([tensor.ideal(b) for b in range(len(stabs))])


# ---------------------------------------------------------------------------
# classical shot-path kernels as they were before the O(shots) rewrite: a
# count over the gathered cumulative rows, np.unique splits, one gather per
# distinct twirl mask, one boolean mask per true outcome and an alias build
# on numpy scalars

def measure_by_count(states, qubits, n, rng, rows=None, collapse=True):
    """``engine.measure``, drawing outcomes by counting ``u >= cum[row]``."""
    batch = states.shape[0]
    k = len(qubits)
    t = states.reshape((batch,) + (2,) * n)
    axes = [1 + q for q in qubits]
    rest = [ax for ax in range(1, n + 1) if ax not in axes]
    t = np.ascontiguousarray(np.transpose(t, [0] + axes + rest)).reshape(batch, 1 << k, -1)

    probs = np.square(np.abs(t)).sum(axis=2).astype(np.float64)
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    # rounding can leave cum[-1] below a draw; such a draw takes the last
    # outcome that has any probability, never a zero-probability one
    last = (1 << k) - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    shot_rows = np.arange(batch) if rows is None else np.asarray(rows)
    u = rng.random(shot_rows.size)
    outcomes = np.minimum((u[:, None] >= cum[shot_rows]).sum(axis=1),
                          last[shot_rows]).astype(np.int64)
    if not collapse:
        return None, outcomes, None

    branch, parent, kept_outcome = split_by_unique(shot_rows, outcomes, k)
    kept = t[parent, kept_outcome, :]
    norms = np.sqrt(probs[parent, kept_outcome]).astype(kept.real.dtype)
    collapsed = np.zeros((parent.size,) + t.shape[1:], dtype=t.dtype)
    collapsed[np.arange(parent.size), kept_outcome, :] = kept / norms[:, None]

    inverse = np.argsort([0] + axes + rest)
    out = np.transpose(collapsed.reshape((parent.size,) + (2,) * n), inverse)
    out = np.ascontiguousarray(out).reshape(parent.size, 1 << n)
    if rows is None:
        return out, outcomes
    return out, outcomes, branch


def split_by_unique(rows, values, width):
    """``engine.split`` through ``np.unique`` at every size."""
    pairs, new_rows = np.unique(rows << width | values, return_inverse=True)
    return new_rows.reshape(-1), pairs >> width, pairs & ((1 << width) - 1)


def apply_x_masks_by_loop(states, qubits, masks, n):
    """``engine.apply_x_masks`` as one ``np.ix_`` gather per distinct mask."""
    masks = np.asarray(masks)
    k = len(qubits)
    if k == 0:
        return states
    idx = np.arange(states.shape[1])
    for v in np.unique(masks):
        if v == 0:
            continue
        full = 0
        for j, q in enumerate(qubits):
            if (int(v) >> (k - 1 - j)) & 1:
                full |= 1 << (n - 1 - q)
        sel = masks == v
        states[sel] = states[np.ix_(sel.nonzero()[0], idx ^ full)]
    return states


class ScalarAliasSampler:
    """``bits.AliasSampler`` with Vose's loop on numpy scalars."""

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if np.any(p < 0):
            raise ValueError("probs must be non-negative")
        total = p.sum()
        if total <= 0:
            raise ValueError("probs must have positive total")
        k = p.size
        scaled = p * (k / total)
        self.n = k
        self.prob = np.ones(k, dtype=np.float64)
        self.alias = np.arange(k, dtype=np.int64)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        while small and large:
            s, g = small.pop(), large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            (small if scaled[g] < 1.0 else large).append(g)
        # leftovers are 1.0 within float error; tables already initialized

    def draw(self, rng: np.random.Generator, size=None) -> np.ndarray:
        i = rng.integers(0, self.n, size=size)
        take_alias = rng.random(size=size) >= self.prob[i]
        return np.where(take_alias, self.alias[i], i)


def sample_reported_by_mask(confusion, true_outcomes, rng):
    """``ConfusionMatrix.sample_reported`` with one boolean mask per
    distinct true outcome."""
    samplers = [ScalarAliasSampler(confusion.matrix[:, t])
                for t in range(confusion.matrix.shape[1])]
    true_outcomes = np.asarray(true_outcomes)
    out = np.empty(true_outcomes.shape, dtype=np.int64)
    for t in np.unique(true_outcomes):
        sel = true_outcomes == t
        out[sel] = samplers[int(t)].draw(rng, size=int(sel.sum()))
    return out


# ---------------------------------------------------------------------------
# per-shot batch routine: one statevector row per shot, no branching

@dataclass
class ShotRecord:
    """Full classical record of a single shot."""

    true_outcomes: list[int]
    reported_outcomes: list[int]
    lookup_indices: list[int]
    mask: int
    sign: int
    discarded: bool
    terminal_outcome: int | None


def _apply_table(states, layer, lookup, n):
    for v in np.unique(lookup):
        gates = layer.table[int(v)]
        if not gates:
            continue
        sel = lookup == v
        states[sel] = engine.apply_gates(states[sel], gates, n)
    return states


def _consensus(reports: np.ndarray, layer) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit consensus across QND repetitions.

    Returns (consensus outcome, accepted mask).  ``reports`` is (repeat, batch).
    """
    if layer.repeat == 1:
        return reports[0], np.ones(reports.shape[1], dtype=bool)
    k = layer.m
    bits = index_to_bits(reports, k).astype(np.int64)       # (repeat, batch, k)
    ones = bits.sum(axis=0)                                  # (batch, k)
    if layer.consensus == "majority":
        cons_bits = (2 * ones > layer.repeat).astype(np.int64)
        accepted = np.ones(reports.shape[1], dtype=bool)
    else:  # unanimous
        agree = (ones == 0) | (ones == layer.repeat)
        accepted = agree.all(axis=1)
        cons_bits = bits[0]
    return bits_to_index(cons_bits), accepted


def per_shot_batch(circuit: DynamicCircuit, setting: TerminalSetting, size: int,
                   noise: NoiseInjector | None, weights: MitigationWeights | None,
                   rng: np.random.Generator, dtype, collect: bool = False):
    """The simulator's batch routine before shot branching: one statevector
    row per shot, on the kernels above."""
    n = circuit.n
    widths = circuit.layer_widths
    max_rep = max((layer.repeat for layer in circuit.layers), default=1)

    # all classical randomness that can be presampled is drawn up front in a
    # fixed order, so the draw sequence does not depend on outcomes
    syndrome_parts = None
    if noise is not None and noise.model is not None:
        full_syndromes = np.stack([noise.model.sample(rng, size) for _ in range(max_rep)])
        syndrome_parts = split_index(full_syndromes, widths)  # per layer: (max_rep, size)

    if weights is not None:
        masks, signs = weights.sample(rng, size)
    else:
        masks = np.zeros(size, dtype=np.int64)
        signs = np.ones(size, dtype=np.int8)
    mask_parts = split_index(masks, widths)

    states = engine.zero_states(size, n, dtype=dtype)
    states = engine.apply_gates(states, circuit.prep, n)

    accepted = np.ones(size, dtype=bool)
    trues, reporteds, lookups = [], [], []
    for li, layer in enumerate(circuit.layers):
        states = engine.apply_gates(states, layer.pre_gates, n)

        if noise is not None and noise.matrices is not None and noise.bfa:
            twirl = rng.integers(0, 1 << layer.m, size=size)
            states = apply_x_masks_by_loop(states, layer.measured, twirl, n)
            states, twirled_true = measure_by_count(states, layer.measured, n, rng)
            states = apply_x_masks_by_loop(states, layer.measured, twirl, n)
            true = twirled_true ^ twirl
        else:
            twirl = None
            states, true = measure_by_count(states, layer.measured, n, rng)

        reports = np.empty((layer.repeat, size), dtype=np.int64)
        for j in range(layer.repeat):
            if noise is None:
                reports[j] = true
            elif noise.model is not None:
                reports[j] = true ^ syndrome_parts[li][j]
            elif noise.matrices is not None:
                if noise.bfa:
                    tw = twirl if j == 0 else rng.integers(0, 1 << layer.m, size=size)
                    reports[j] = sample_reported_by_mask(noise.matrices[li], true ^ tw,
                                                         rng) ^ tw
                else:
                    reports[j] = sample_reported_by_mask(noise.matrices[li], true, rng)
            else:  # terminal-only injector
                reports[j] = true

        consensus, layer_ok = _consensus(reports, layer)
        accepted &= layer_ok
        lookup = consensus ^ mask_parts[li]
        states = _apply_table(states, layer, lookup, n)
        states = engine.apply_gates(states, layer.post_gates, n)

        trues.append(true)
        reporteds.append(consensus)
        lookups.append(lookup)

    states = engine.apply_gates(states, setting.basis_gates, n)
    if setting.measured:
        states, term = measure_by_count(states, setting.measured, n, rng)
        if noise is not None and noise.terminal is not None:
            term = term ^ noise.terminal.sample(rng, size)
    else:
        term = np.zeros(size, dtype=np.int64)

    k_term = len(setting.measured)
    counts = np.zeros((2, 1 << k_term), dtype=np.int64)
    pos = accepted & (signs > 0)
    neg = accepted & (signs < 0)
    counts[0] = np.bincount(term[pos], minlength=1 << k_term)
    counts[1] = np.bincount(term[neg], minlength=1 << k_term)

    rep_counts, flip_counts = [], []
    for li, layer in enumerate(circuit.layers):
        rep_counts.append(np.bincount(reporteds[li][accepted], minlength=1 << layer.m))
        tb = index_to_bits(trues[li][accepted], layer.m).astype(np.int64)
        cb = index_to_bits(reporteds[li][accepted], layer.m).astype(np.int64)
        flip_counts.append((tb != cb).sum(axis=0))

    result = RunResult(setting=setting, shots=size, accepted=int(accepted.sum()),
                       discarded=int(size - accepted.sum()), signed_counts=counts,
                       layer_reported_counts=rep_counts, layer_flip_counts=flip_counts,
                       xi=weights.xi if weights is not None else 1.0)
    if not collect:
        return result
    records = [ShotRecord(true_outcomes=[int(t[i]) for t in trues],
                          reported_outcomes=[int(r[i]) for r in reporteds],
                          lookup_indices=[int(l[i]) for l in lookups],
                          mask=int(masks[i]), sign=int(signs[i]),
                          discarded=not bool(accepted[i]),
                          terminal_outcome=int(term[i]) if setting.measured else None)
               for i in range(size)]
    return result, records


def per_shot_run(circuit, setting, shots, *, noise=None, weights=None, seed=0,
                 trial=0):
    """``run_shots`` over the per-shot batch routine: same batches, same
    streams, merged in batch order."""
    dtype = _pick_dtype(circuit, setting)
    batch = batch_size_for(circuit.n)
    sizes = [batch] * (shots // batch)
    if shots % batch:
        sizes.append(shots % batch)
    total = None
    for b, size in enumerate(sizes):
        part = per_shot_batch(circuit, setting, size, noise, weights,
                              stream(seed, trial, b), dtype)
        total = part if total is None else total.merge(part)
    return total


# ---------------------------------------------------------------------------
# shot records of the branching simulator, read through spies

def branching_batch(circuit, setting, size, noise, weights, rng, dtype):
    """``simulator._run_batch`` on one batch, with the shot records that
    ``per_shot_batch(..., collect=True)`` returns: (result, records).

    The records are read off spies, not off the batch routine: each layer's
    true outcomes from ``NoiseInjector.reports``, its consensus and
    acceptance from ``simulator._consensus``, the masks and signs from
    ``MitigationWeights.sample``, and the terminal outcome from the last
    ``engine.measure(collapse=False)`` XOR the terminal model's ``sample``.
    """
    calls = {"reports": [], "consensus": [], "masks": [], "measure": [], "terminal": []}

    def spy(key, method):
        def wrapper(*args, **kwargs):
            out = method(*args, **kwargs)
            calls[key].append((args, kwargs, out))
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator.NoiseInjector, "reports",
                   spy("reports", simulator.NoiseInjector.reports))
        mp.setattr(simulator, "_consensus", spy("consensus", simulator._consensus))
        mp.setattr(MitigationWeights, "sample", spy("masks", MitigationWeights.sample))
        mp.setattr(engine, "measure", spy("measure", engine.measure))
        if noise is not None and noise.terminal is not None:
            mp.setattr(noise.terminal, "sample", spy("terminal", noise.terminal.sample))
        result = simulator._run_batch(circuit, setting, size, noise, weights, rng, dtype,
                                      simulator._compile(circuit))

    trues = [args[3] for args, _, _ in calls["reports"]]  # (self, index, layer, true, ...)
    reported = [consensus for _, _, (consensus, _) in calls["consensus"]]
    accepted = np.ones(size, dtype=bool)
    for _, _, (_, ok) in calls["consensus"]:
        accepted &= ok
    masks, signs = (calls["masks"][0][2] if calls["masks"] else
                    (np.zeros(size, dtype=np.int64), np.ones(size, dtype=np.int8)))
    lookups = [consensus ^ part for consensus, part
               in zip(reported, split_index(masks, circuit.layer_widths))]
    term = None
    if setting.measured:
        term = [out[1] for _, kwargs, out in calls["measure"] if not kwargs["collapse"]][-1]
        for _, _, syndromes in calls["terminal"]:
            term = term ^ syndromes
    records = [ShotRecord(true_outcomes=[int(t[i]) for t in trues],
                          reported_outcomes=[int(r[i]) for r in reported],
                          lookup_indices=[int(v[i]) for v in lookups],
                          mask=int(masks[i]), sign=int(signs[i]),
                          discarded=not bool(accepted[i]),
                          terminal_outcome=None if term is None else int(term[i]))
               for i in range(size)]
    return result, records
