"""Batched statevector primitives.

States are stored as a (rows, 2**n) array so that every row advances through
each gate with a handful of vectorized operations.  The simulator keeps one
row per distinct state, shared by every shot whose history led to it.
``measure`` draws each shot's outcome against its row and splits the rows
on the outcomes into collapsed rows: the outcome (slot) and the amplitudes
of the unmeasured qubits (slice).  ``merge_slices`` and ``merge_rows`` fold
collapsed and full rows with equal bytes into one; ``expand`` makes
collapsed rows full.  Qubit j (0 = most significant bit of the basis index)
corresponds to axis 1 + j when the batch is viewed as (rows, 2, ..., 2).

The per-shot classical work is O(shots) per call: an outcome draw is a
k-step binary descent over its row's cumulative distribution, a split
numbers the distinct (row, value) keys with a dense presence table when the
key space is small, and an X twirl is one gather of every row.  A merge
fingerprints each row once and compares bytes only within equal prints.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bits import check_size
from .circuits import Gate


def zero_states(batch: int, n: int, dtype=np.complex128) -> np.ndarray:
    check_size(n, "statevector")
    states = np.zeros((batch, 1 << n), dtype=dtype)
    states[:, 0] = 1.0
    return states


def _gate_dtype(matrix: np.ndarray, state_dtype) -> np.ndarray:
    if np.iscomplexobj(matrix) and not np.iscomplexobj(np.empty(0, dtype=state_dtype)):
        raise TypeError("complex gate applied to a real-dtype state batch")
    return matrix.astype(state_dtype, copy=False)


def apply_1q(states: np.ndarray, matrix: np.ndarray, q: int, n: int) -> np.ndarray:
    u = _gate_dtype(np.asarray(matrix), states.dtype)
    batch = states.shape[0]
    v = states.reshape(batch, 1 << q, 2, 1 << (n - q - 1))
    lo = v[:, :, 0, :].copy()
    hi = v[:, :, 1, :]
    v[:, :, 0, :] = u[0, 0] * lo + u[0, 1] * hi
    v[:, :, 1, :] = u[1, 0] * lo + u[1, 1] * hi
    return states


def apply_x(states: np.ndarray, q: int, n: int) -> np.ndarray:
    batch = states.shape[0]
    v = states.reshape(batch, 1 << q, 2, 1 << (n - q - 1))
    tmp = v[:, :, 0, :].copy()
    v[:, :, 0, :] = v[:, :, 1, :]
    v[:, :, 1, :] = tmp
    return states


def apply_cx(states: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    batch = states.shape[0]
    hi, lo = (control, target) if control < target else (target, control)
    v = states.reshape(batch, 1 << hi, 2, 1 << (lo - hi - 1), 2, 1 << (n - lo - 1))
    if control < target:
        # condition on the more significant axis, flip the less significant
        tmp = v[:, :, 1, :, 0, :].copy()
        v[:, :, 1, :, 0, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = tmp
    else:
        tmp = v[:, :, 0, :, 1, :].copy()
        v[:, :, 0, :, 1, :] = v[:, :, 1, :, 1, :]
        v[:, :, 1, :, 1, :] = tmp
    return states


def apply_gate(states: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    if gate.name == "cx":
        return apply_cx(states, gate.qubits[0], gate.qubits[1], n)
    if gate.name == "x":
        return apply_x(states, gate.qubits[0], n)
    return apply_1q(states, gate.matrix, gate.qubits[0], n)


def apply_gates(states: np.ndarray, gates, n: int) -> np.ndarray:
    for g in gates:
        states = apply_gate(states, g, n)
    return states


def simulate_gates(gates, n: int, state: np.ndarray | None = None,
                   dtype=np.complex128) -> np.ndarray:
    """Single-state convenience: run a gate list from |0...0> (or ``state``)."""
    if state is None:
        states = zero_states(1, n, dtype=dtype)
    else:
        states = np.array(state, dtype=dtype, copy=True)[None, :]
    return apply_gates(states, gates, n)[0]


def _axes(qubits, n: int) -> list[int]:
    """(rows, 2, ..., 2) axes: rows, ``qubits`` as listed, the rest ascending."""
    axes = [1 + q for q in qubits]
    return [0] + axes + [ax for ax in range(1, n + 1) if ax not in axes]


def measure(states: np.ndarray, qubits, n: int, rng: np.random.Generator,
            rows: np.ndarray, collapse: bool = True):
    """Sample and collapse a computational-basis measurement of ``qubits``.

    Shot i reads its outcome from state row ``rows[i]`` with one uniform draw
    u against that row's cumulative distribution: the outcome is the number
    of cumulative entries <= u, found by a k-step binary descent; outcome
    bit 0 is the first listed qubit.  Returns ((slots, slices), outcomes,
    branch): one collapsed row per distinct (row, outcome) pair, in sorted
    order, with its slice renormalized, and each shot's index into them.
    ``collapse=False`` skips them (slots, slices and branch are None).
    """
    batch = states.shape[0]
    k = len(qubits)
    t = states.reshape((batch,) + (2,) * n)
    t = np.ascontiguousarray(np.transpose(t, _axes(qubits, n))).reshape(batch, 1 << k, -1)

    probs = np.square(np.abs(t)).sum(axis=2).astype(np.float64)
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    # rounding can leave cum[-1] below a draw; such a draw takes the last
    # outcome that has any probability, never a zero-probability one
    last = (1 << k) - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    shot_rows = np.asarray(rows)
    u = rng.random(shot_rows.size)
    # cum rows are non-decreasing, so the entries <= u form a prefix: find
    # its length below 2**k bit by bit, then compare against the last entry
    flat = cum.ravel()
    base = shot_rows << k
    at = base - 1
    for b in reversed(range(k)):
        at += (flat[at + (1 << b)] <= u) << b
    outcomes = at - base + 1
    gap = flat[base + ((1 << k) - 1)] <= u
    outcomes[gap] = last[shot_rows[gap]]
    if not collapse:
        return (None, None), outcomes, None

    branch, parent, slots = split(shot_rows, outcomes, k)
    norms = np.sqrt(probs[parent, slots]).astype(t.real.dtype)
    return (slots, t[parent, slots, :] / norms[:, None]), outcomes, branch


def expand(slots: np.ndarray, slices: np.ndarray, qubits, n: int) -> np.ndarray:
    """Full rows of collapsed ones: row i holds ``slices[i]`` where the
    measured ``qubits`` read ``slots[i]``, and zeros everywhere else."""
    rows = slots.size
    collapsed = np.zeros((rows, 1 << len(qubits), slices.shape[1]), dtype=slices.dtype)
    collapsed[np.arange(rows), slots] = slices
    out = np.transpose(collapsed.reshape((rows,) + (2,) * n), np.argsort(_axes(qubits, n)))
    return np.ascontiguousarray(out).reshape(rows, 1 << n)


DENSE_SPLIT_RATIO = 4


def split(rows: np.ndarray, values: np.ndarray, width: int):
    """Split state rows on a per-shot value of ``width`` bits.

    ``rows[i]`` is shot i's row.  Returns (each shot's new row, the old row
    of each new row, the value of each new row); new rows are the distinct
    (row, value) pairs in sorted order.  The pairs are packed into keys
    ``row << width | value``; when the key space is at most
    ``DENSE_SPLIT_RATIO`` times the number of shots they are numbered through
    a presence table, in O(shots), and otherwise by ``np.unique``.
    """
    keys = rows << width | values
    space = (int(rows.max()) + 1) << width
    if space <= DENSE_SPLIT_RATIO * keys.size:
        present = np.bincount(keys, minlength=space) > 0
        pairs = np.flatnonzero(present)
        new_rows = (np.cumsum(present) - 1)[keys]
    else:
        pairs, new_rows = np.unique(keys, return_inverse=True)
    return new_rows.reshape(-1), pairs >> width, pairs & ((1 << width) - 1)


@lru_cache(maxsize=8)
def _multipliers(words: int) -> np.ndarray:
    """``words`` fixed odd 64-bit constants, from a generator of their own."""
    z = np.random.default_rng(0x5EED).integers(0, 1 << 64, size=words, dtype=np.uint64)
    z |= np.uint64(1)
    z.flags.writeable = False
    return z


def merge_rows(states: np.ndarray, branch: np.ndarray):
    """Keep one row per distinct row content.

    ``branch[i]`` is shot i's row.  Returns (states, branch) in which rows
    with equal bytes are one row, so every shot reads the same bytes as
    before.  Rows are grouped by a fingerprint, the sum mod 2**64 of their
    64-bit words times fixed odd constants, and every row is then compared
    with its group's first row; if any differs (a fingerprint collision),
    nothing is merged.  Equal bytes keep -0.0 and +0.0 apart.
    """
    rows = states.shape[0]
    if rows < 2:
        return states, branch
    # n >= 1, so a row holds at least 8 bytes
    words = np.ascontiguousarray(states).view(np.uint64)
    prints = words @ _multipliers(words.shape[1])
    _, first, inverse = np.unique(prints, return_index=True, return_inverse=True)
    if first.size == rows:
        return states, branch
    inverse = inverse.reshape(-1)
    moved = np.flatnonzero(first[inverse] != np.arange(rows))
    if not np.array_equal(words[moved], words[first[inverse[moved]]]):
        return states, branch
    return states[first], inverse[branch]


def merge_slices(slots: np.ndarray, slices: np.ndarray, branch: np.ndarray):
    """``merge_rows`` on keys of a slot word and the slice's bytes, padded to
    whole words: rows merge when their full rows' bytes would be equal."""
    nbytes = slices.shape[1] * slices.itemsize
    keys = np.zeros((slots.size, 1 + -(-nbytes // 8)), dtype=np.uint64)
    keys[:, 0] = slots
    keys.view(np.uint8)[:, 8:8 + nbytes] = np.ascontiguousarray(slices).view(np.uint8)
    merged, branch = merge_rows(keys, branch)
    slices = np.ascontiguousarray(merged.view(np.uint8)[:, 8:8 + nbytes]).view(slices.dtype)
    return merged[:, 0].astype(np.int64), slices, branch


def apply_x_masks(states: np.ndarray, qubits, masks: np.ndarray, n: int) -> np.ndarray:
    """Apply X on ``qubits[j]`` to row i wherever bit j of ``masks[i]`` is set.

    Flipping qubits permutes basis indices by a per-row XOR, done as one
    gather over all rows.
    """
    masks = np.asarray(masks)
    k = len(qubits)
    if k == 0:
        return states
    full = np.zeros(masks.shape, dtype=np.int64)
    for j, q in enumerate(qubits):
        full |= ((masks >> (k - 1 - j)) & 1) << (n - 1 - q)
    idx = np.arange(states.shape[1])
    return np.take_along_axis(states, idx ^ full[:, None], axis=1)
