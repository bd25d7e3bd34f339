"""Bit-index utilities, Walsh-Hadamard transforms, XOR convolution, and
constant-time discrete sampling.

Index convention used throughout the package: a length-2**m array is indexed
by the integer value of an m-bit string whose *leftmost* character is bit 0.
Bit j of index s is ``(s >> (m - 1 - j)) & 1``; the string "10" is index 2 and
has bit 0 set.  The Walsh-Hadamard transform itself is bit-order agnostic.

``check_distribution`` is the one test of what a probability distribution is;
every library constructor that takes one calls it when it is built.
"""
from __future__ import annotations

import os

import numpy as np

DEFAULT_SIZE_CAP = 20  # largest m for which 2**m arrays may be materialized
PROB_ATOL = 1e-9  # a probability this far below 0 is rounding, clipped to 0
SUM_ATOL = 1e-6   # a distribution's total may be this far from 1


class SizeCapError(Exception):
    """Raised when an operation would materialize an array beyond the size cap."""


def size_cap() -> int:
    """Current materialization cap on m, overridable via PROMKIT_SIZE_CAP."""
    raw = os.environ.get("PROMKIT_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SizeCapError(f"PROMKIT_SIZE_CAP must be an integer, got {raw!r}") from exc
    return cap


def check_size(m: int, what: str = "array") -> None:
    cap = size_cap()
    if m > cap:
        need = f"2**{m}" if m <= 64 else "2**64 or more"
        raise SizeCapError(f"{what} needs {need} entries; cap is 2**{cap} "
                           f"(set PROMKIT_SIZE_CAP to raise it)")


def check_finite(a: np.ndarray, what: str = "probs") -> np.ndarray:
    """``a``, refused with ValueError if any entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def check_distribution(p, what: str, axis: int = -1) -> np.ndarray:
    """``p`` as float64, clipped at 0, refused with ValueError unless every
    slice along ``axis`` is finite, has no entry below -PROB_ATOL, and totals 1
    within SUM_ATOL.  NaN and -inf fail the sign test and +inf the total's, so
    finiteness is read only to word a refusal.  Runs at build, never per draw."""
    p = np.asarray(p, dtype=np.float64)
    if not p.min(initial=0.0) >= -PROB_ATOL:
        check_finite(p, what)
        raise ValueError(f"{what} has negative entries")
    total = p.sum(axis=axis)
    off = ~(np.abs(total - 1.0) <= SUM_ATOL)
    if off.any():
        check_finite(p, what)
        raise ValueError(f"{what} must sum to 1 (got {float(total[off].flat[0])})")
    return np.maximum(p, 0.0)


def num_bits(size: int) -> int:
    """m such that size == 2**m; rejects non-powers-of-two."""
    if size < 1 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    return size.bit_length() - 1


def index_to_bits(s, m: int) -> np.ndarray:
    """m-bit expansion, bit 0 first.  Vectorized over an array of indices."""
    s = np.asarray(s)
    shifts = np.arange(m - 1, -1, -1)
    return ((s[..., None] >> shifts) & 1).astype(np.uint8)


def popcount(s) -> np.ndarray:
    """Number of set bits; vectorized."""
    return np.bitwise_count(np.asarray(s, dtype=np.int64))


def parity(s) -> np.ndarray:
    """Parity (popcount mod 2); vectorized."""
    return popcount(s) & 1


def split_index(s, widths) -> list:
    """Split a packed index into per-part indices.

    Parts are packed with the first part in the most significant bits, so a
    syndrome over layers [l1, l2] reads l1's bits first.  Vectorized over s.
    """
    s = np.asarray(s)
    total = sum(widths)
    parts, used = [], 0
    for w in widths:
        used += w
        parts.append((s >> (total - used)) & ((1 << w) - 1))
    return parts


def fwht(v) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform.

    out[k] = sum_s (-1)^{popcount(k & s)} v[s], computed in O(m 2**m).
    Applying it twice multiplies by 2**m (involution up to normalization).
    """
    a = np.array(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("fwht expects a 1-D array")
    n = a.size
    num_bits(n)  # validates power of two
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        lo = a[:, 0, :].copy()
        a[:, 0, :] = lo + a[:, 1, :]
        a[:, 1, :] = lo - a[:, 1, :]
        a = a.reshape(-1)
        h *= 2
    return a


def binary_convolve(u, v) -> np.ndarray:
    """XOR (dyadic) convolution: out[s] = sum_t u[t] v[s ^ t]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("convolution operands must have equal length")
    n = u.size
    return fwht(fwht(u) * fwht(v)) / n


def _checked_weights(weights, ndim: int) -> np.ndarray:
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != ndim or p.size == 0:
        raise ValueError(f"probs must be a non-empty {ndim}-D array")
    check_finite(p)
    if np.any(p < 0):
        raise ValueError("probs must be non-negative")
    return p


class AliasSampler:
    """Walker/Vose alias table: O(K) build, O(1) per draw, vectorized draws.

    The build is Vose's loop on Python floats, the fastest build of one
    distribution: a mitigation mask table or a general syndrome model.  A
    stack of distributions, such as a confusion matrix's columns, builds
    faster through ``alias_tables``, which gives the same tables row by row.
    """

    def __init__(self, probs):
        p = _checked_weights(probs, 1)
        total = p.sum()
        if total <= 0:
            raise ValueError("probs must have positive total")
        k = p.size
        # Python floats are IEEE doubles, so the loop computes what numpy
        # scalars would, without their per-operation overhead
        scaled = (p * (k / total)).tolist()
        prob = [1.0] * k
        alias = list(range(k))
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        while small and large:
            s, g = small.pop(), large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            (small if scaled[g] < 1.0 else large).append(g)
        # leftovers are 1.0 within float error, as initialized
        self.n = k
        self.prob = np.array(prob, dtype=np.float64)
        self.alias = np.array(alias, dtype=np.int64)

    def draw(self, rng: np.random.Generator, size=None) -> np.ndarray:
        i = rng.integers(0, self.n, size=size)
        return alias_lookup(self.prob, self.alias, i, i, rng.random(size=size))


def alias_tables(weights) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (prob, alias) tables of every row of a (rows, k) array; row r
    is byte-equal to ``AliasSampler(weights[r])``'s tables.

    Vose's loop runs on all rows in lockstep, with the scalar loop's float
    operations and stack order: each step pops the top small and the top
    large index of every row whose two stacks are both non-empty, and a
    demoted large takes the popped small's place on the small stack.  That is
    at most k - 1 numpy-level steps instead of rows x (k - 1) Python ones,
    but each costs tens of microseconds, so one row builds faster through
    ``AliasSampler``.
    """
    p = _checked_weights(weights, 2)
    rows, k = p.shape
    # one sum per row, as the scalar build takes it: pairwise summation over
    # the whole row, whatever the row's stride
    total = np.array([row.sum() for row in p])
    if np.any(total <= 0):
        raise ValueError("probs must have positive total")
    scaled = (p * (k / total)[:, None]).ravel()
    flat = np.arange(rows * k)
    alias = flat.copy()  # flat indices while building
    # per row, its small indices ascending, then its large ones ascending,
    # as flat indices: a row's small stack runs from its base up to
    # top_small, its large stack from first_large up to top_large
    is_large = scaled >= 1.0
    key = np.repeat(np.arange(0, 2 * rows, 2, dtype=np.min_scalar_type(2 * rows)), k)
    order = np.argsort(key + is_large, kind="stable")
    base = np.arange(0, rows * k, k)
    first_large = base + k - is_large.reshape(rows, k).sum(axis=1)
    top_small, top_large = first_large - 1, base + k - 1
    while True:
        done = (top_small < base) | (top_large < first_large)
        if done.any():
            base, first_large, top_small, top_large = (
                a[~done] for a in (base, first_large, top_small, top_large))
            if not base.size:
                break
        s, g = order[top_small], order[top_large]
        kept = scaled[s]
        alias[s] = g
        left = scaled[g] - (1.0 - kept)
        scaled[g] = left
        demoted = left < 1.0
        # a demoted large replaces the popped small; otherwise the small
        # stack shrinks past this slot, which is then never read again
        order[top_small] = g
        top_small -= ~demoted
        top_large -= demoted
    # a popped small's scaled weight never changes again, so it is its keep
    # probability; every other index keeps itself with probability 1.0
    prob = np.where(alias != flat, scaled, 1.0).reshape(rows, k)
    return prob, (alias % k).reshape(rows, k)


def alias_lookup(prob, alias, at, i, u) -> np.ndarray:
    """Outcomes of alias-table draws: slot ``i`` when its uniform ``u`` is
    below the slot's keep probability, else the slot's alias.  ``at`` indexes
    the slots in ``prob`` and ``alias``: ``i`` for one table, ``(table, i)``
    for a stack of tables."""
    return np.where(u >= prob[at], alias[at], i)


def sample_independent_bits(rng: np.random.Generator, probs, size: int) -> np.ndarray:
    """``size`` packed indices whose bit j is set with probability probs[j],
    independently across bits and draws."""
    u = rng.random((size, len(probs)))
    out = np.zeros(size, dtype=np.int64)
    hit = np.empty(size, dtype=bool)
    # one scalar compare per column, shifted into the index in place: a
    # broadcast compare against the probs vector allocates a ufunc buffer on
    # every call, which raised the peak RSS of two-worker runs
    for j, p in enumerate(np.asarray(probs, dtype=np.float64).tolist()):
        out <<= 1
        out += np.less(u[:, j], p, out=hit)
    return out


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, key...) tuple.

    Used to give every (trial, batch) its own independent stream so that
    results do not depend on how work is scheduled across workers.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
