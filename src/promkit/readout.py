"""Readout-error channel models.

A symmetrized readout channel over m measured bits is fully described by a
syndrome distribution q: the reported outcome is the true outcome XOR a
random syndrome e ~ q, independent of the true outcome.  The corresponding
2**m x 2**m transition matrix Q[s, f] = q[s ^ f] is an XOR-circulant,
diagonalized by the Walsh-Hadamard transform; its eigenvalues are
lambda_k = sum_s (-1)^{popcount(k & s)} q[s], with lambda_0 = 1.

Asymmetric hardware is described by a column-stochastic confusion matrix
M[reported, true]; bit-flip averaging (X-twirl around the measurement plus a
classical flip of the report) turns it into the symmetrized channel
q[s] = 2^{-m} mean_t M[t ^ s, t].

Every distribution a constructor here takes, confusion-matrix columns and
calibration histograms too, passes ``bits.check_distribution`` when built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import (AliasSampler, alias_lookup, alias_tables, check_distribution, check_size,
                   num_bits, sample_independent_bits)


def total_error(q) -> float:
    """Probability of any readout error: 1 - q[0]."""
    return float(1.0 - np.asarray(q, dtype=np.float64)[0])


def total_variation_distance(q, qp) -> float:
    q, qp = check_distribution(q, "q"), check_distribution(qp, "q'")
    if q.shape != qp.shape:
        raise ValueError("distributions must have equal length")
    return float(0.5 * np.abs(q - qp).sum())


def symmetrize(matrix) -> np.ndarray:
    """Syndrome distribution of the bit-flip-averaged channel.

    q[s] = 2^{-m} sum_t M[t ^ s, t]; always a valid distribution, and Q built
    from it is doubly stochastic.
    """
    m = ConfusionMatrix(matrix) if not isinstance(matrix, ConfusionMatrix) else matrix
    k = m.matrix.shape[0]
    idx = np.arange(k)
    q = np.empty(k, dtype=np.float64)
    for s in range(k):
        q[s] = m.matrix[idx ^ s, idx].mean()
    return q


class ConfusionMatrix:
    """Column-stochastic assignment matrix M[reported, true] over 2**m outcomes."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("confusion matrix must be square")
        self.m_bits = num_bits(m.shape[0])
        self.matrix = check_distribution(m, "confusion matrix column", axis=0)
        # per true outcome (row), its column's alias keep probabilities and
        # aliases, built on the first draw
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def symmetrize(self) -> np.ndarray:
        return symmetrize(self)

    def sample_reported(self, true_outcomes, rng: np.random.Generator) -> np.ndarray:
        """Draw reported outcomes column-wise for a 1-D array of true outcomes.

        Shots are grouped by true outcome, ascending, each group in shot order.
        Each group draws its alias slots, then its uniforms; one lookup then
        reads the stacked column tables for the whole batch.

        The tables are built on the first draw by ``alias_tables``: Vose's
        loop on all 2**m columns in lockstep, at most 2**m - 1 numpy steps in
        place of 2**m scalar ``AliasSampler`` builds of up to 2**m - 1 Python
        steps each, with the same tables.  The grouping is a stable sort on
        the narrowest unsigned key that holds every outcome, which numpy
        radix-sorts up to 16 bits.
        """
        if self._tables is None:
            self._tables = alias_tables(self.matrix.T)
        prob, alias = self._tables
        true_outcomes = np.asarray(true_outcomes)
        key = true_outcomes.astype(np.min_scalar_type(prob.shape[0] - 1))
        order = np.argsort(key, kind="stable")
        slot = np.empty(order.size, dtype=np.int64)
        u = np.empty(order.size, dtype=np.float64)
        start = 0
        for count in np.bincount(true_outcomes).tolist():
            if count:
                slot[start:start + count] = rng.integers(0, prob.shape[1], size=count)
                rng.random(out=u[start:start + count])
                start += count
        out = np.empty(true_outcomes.shape, dtype=np.int64)
        out[order] = alias_lookup(prob, alias, (true_outcomes[order], slot), slot, u)
        return out


class SyndromeModel:
    """Base class for syndrome-distribution models over m measured bits.

    Subclasses exploit structure so that sampling never materializes 2**m
    entries unless the model is genuinely unstructured.
    """

    m: int

    def expand(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw full-width syndrome indices."""
        raise NotImplementedError

    def total_error(self) -> float:
        """1 - P(no error on any bit)."""
        raise NotImplementedError


@dataclass
class GeneralModel(SyndromeModel):
    """Arbitrary joint syndrome distribution (possibly correlated across bits)."""

    q: np.ndarray
    _sampler: AliasSampler | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.q = check_distribution(self.q, "q")
        if self.q.ndim != 1:
            raise ValueError("q must be 1-D")
        self.m = num_bits(self.q.size)

    def expand(self) -> np.ndarray:
        return self.q.copy()

    def sample(self, rng, size):
        if self._sampler is None:
            self._sampler = AliasSampler(self.q)
        return self._sampler.draw(rng, size=size)

    def total_error(self) -> float:
        return total_error(self.q)


@dataclass
class TensoredModel(SyndromeModel):
    """Independent per-bit flip rates; q factorizes as a product over bits."""

    rates: np.ndarray

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=np.float64)
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ValueError("rates must be a non-empty 1-D array")
        # plain floats: m is small, and models are built on every config set-up
        if not all(0.0 <= r <= 1.0 for r in self.rates.tolist()):
            raise ValueError("rates must lie in [0, 1]")
        self.m = self.rates.size

    def expand(self) -> np.ndarray:
        check_size(self.m, "expanded tensored model")
        q = np.array([1.0])
        for r in self.rates:
            q = np.kron(q, [1.0 - r, r])
        return q

    def sample(self, rng, size):
        return sample_independent_bits(rng, self.rates, size)

    def total_error(self) -> float:
        return float(1.0 - np.prod(1.0 - self.rates))


class UniformModel(TensoredModel):
    """Every bit flips independently at the same rate: a constant-rate
    tensored model."""

    def __init__(self, m: int, rate: float):
        if m < 1:
            raise ValueError("m must be positive")
        check_size((m - 1).bit_length(), "uniform noise rates")
        super().__init__([float(rate)] * m)


@dataclass
class LayeredModel(SyndromeModel):
    """Independent blocks of bits, each with its own joint distribution.

    Natural fit for feedforward circuits: one part per measurement layer,
    errors independent across layers but arbitrary within a layer.
    """

    parts: list

    def __post_init__(self):
        self.parts = [p if isinstance(p, SyndromeModel) else GeneralModel(np.asarray(p))
                      for p in self.parts]
        if not self.parts:
            raise ValueError("layered model needs at least one part")
        self.m = sum(p.m for p in self.parts)

    def expand(self) -> np.ndarray:
        check_size(self.m, "expanded layered model")
        q = np.array([1.0])
        for p in self.parts:
            q = np.kron(q, p.expand())
        return q

    def sample(self, rng, size):
        out = np.zeros(size, dtype=np.int64)
        for p in self.parts:
            out = (out << p.m) | p.sample(rng, size)
        return out

    def total_error(self) -> float:
        return float(1.0 - np.prod([1.0 - p.total_error() for p in self.parts]))


def calibrate(reported_counts) -> np.ndarray:
    """Estimate q from reported-outcome counts of the calibration circuit.

    The calibration circuit prepares all-zeros and measures every bit under
    bit-flip averaging, so the reported outcome *is* the syndrome and the
    normalized histogram estimates q directly.
    """
    c = np.asarray(reported_counts, dtype=np.float64)
    num_bits(c.size)
    if np.any(c < 0) or not c.any():
        raise ValueError("counts must be finite, non-negative and not all zero")
    # an infinite count or total divides to NaN or to 0s, which the check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return check_distribution(c / c.sum(), "counts")
