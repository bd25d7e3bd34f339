"""Quasiprobability readout-error mitigation.

Inverting the symmetrized channel Q[s, f] = q[s ^ f] amounts to one column of
Q^{-1}: weights alpha with sum_f alpha[f] q[s ^ f] = [s == 0].  Because Q is
an XOR-circulant the solution is a Walsh-spectrum division,

    alpha = fwht(1 / fwht(q)) / 2**m,

computable in O(m 2**m) and, for product-structured q, factor by factor
without ever expanding 2**m entries.  Shots are run with a random mask f
drawn from |alpha| / xi (xi = ||alpha||_1) XORed onto the reported outcomes;
the signed, xi-scaled sample mean is an unbiased estimator of the
noiseless expectation at a sampling-overhead cost of xi**2 in variance.
The mask distribution |alpha| / xi has the structure of the channel it
inverts, so weights draw masks through a ``readout`` syndrome model of the
same structure (tensored, layered or general) and add only a sign rule.
"""
from __future__ import annotations

import math

import numpy as np

from .bits import check_distribution, fwht, num_bits, parity, split_index
from .readout import GeneralModel, LayeredModel, SyndromeModel, TensoredModel

SINGULAR_ATOL = 1e-12


class SingularChannelError(Exception):
    """The channel spectrum has a (numerically) zero eigenvalue; no weights exist."""


class MitigationWeights:
    """Sampling overhead ``xi`` and a sign rule on top of ``masks``, the
    syndrome model of the mask distribution |alpha| / xi: a mask's weight
    is alpha[f] = xi * signs(f) * P(f)."""

    m: int
    xi: float
    masks: SyndromeModel

    def signs(self, f: np.ndarray) -> np.ndarray:
        """Signs of alpha at mask indices ``f``, int8 in {-1, +1}."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` masks; returns (mask indices, signs in {-1, +1})."""
        f = self.masks.sample(rng, size)
        return f, self.signs(f)

    def alpha(self) -> np.ndarray:
        """Materialize the full weight vector (subject to the size cap)."""
        p = self.masks.expand()
        return self.xi * self.signs(np.arange(p.size)) * p


def _spectrum(q: np.ndarray) -> np.ndarray:
    """Eigenvalues fwht(q) of the XOR-circulant Q[s, f] = q[s ^ f], refusing
    a vanishing one."""
    lam = fwht(q)
    bad = np.abs(lam) < SINGULAR_ATOL
    if np.any(bad):
        raise SingularChannelError(
            f"channel eigenvalue(s) {np.flatnonzero(bad).tolist()} vanish; "
            "the readout channel is not invertible")
    return lam


class ChannelInverse:
    """v -> Q^{-1} v for the XOR-circulant Q[s, f] = q[s ^ f].  The spectrum
    is formed and checked once, here, so inverting many vectors through one
    channel costs two transforms each."""

    def __init__(self, q):
        self.q = check_distribution(q, "q")
        self._spectrum = _spectrum(self.q)

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != self.q.shape:
            raise ValueError("counts and q must have equal length")
        return fwht(fwht(v) / self._spectrum) / self.q.size


class GeneralWeights(MitigationWeights):
    """Weights for an arbitrary joint q; O(m 2**m) init, O(1) per draw."""

    def __init__(self, q):
        self.q = check_distribution(q, "q")
        self.m = num_bits(self.q.size)
        self._alpha = fwht(1.0 / _spectrum(self.q)) / self.q.size  # Q^{-1} e_0
        self.xi = float(np.abs(self._alpha).sum())
        self._signs = np.where(self._alpha < 0, -1, 1).astype(np.int8)
        self.masks = GeneralModel(np.abs(self._alpha) / self.xi)

    def signs(self, f):
        return self._signs[f]

    def alpha(self):
        return self._alpha.copy()


class TensoredWeights(MitigationWeights):
    """Per-bit closed form: alpha_bit = [1-r, -r] / (1-2r); O(m) everything.

    |1-r| + |r| = 1 on [0, 1], so each bit's xi factor is 1/|1-2r| and its
    mask bit flips with probability r: the masks are ``TensoredModel(rates)``.
    A flip carries a negative weight when r < 1/2, a non-flip when r > 1/2,
    so a mask's sign is the parity of its flips, inverted when an odd number
    of rates exceed 1/2.
    """

    def __init__(self, rates):
        self.rates = np.asarray(rates, dtype=np.float64)
        self.m = self.rates.size
        # plain floats: m is small, and weights are solved on every config set-up
        denoms = [1.0 - 2.0 * r for r in self.rates.tolist()]
        if any(abs(d) < SINGULAR_ATOL for d in denoms):
            raise SingularChannelError("a per-bit flip rate of 1/2 is not invertible")
        self.xi = math.prod(1.0 / abs(d) for d in denoms)
        self._odd_high = sum(d < 0 for d in denoms) % 2
        self.masks = TensoredModel(self.rates)

    @property
    def alpha_bits(self) -> np.ndarray:
        """Per-bit weights [alpha_0, alpha_1], shape (m, 2)."""
        r = self.rates
        return np.stack([(1.0 - r) / (1.0 - 2.0 * r), -r / (1.0 - 2.0 * r)], axis=1)

    def signs(self, f):
        return np.where(parity(f) ^ self._odd_high, -1, 1).astype(np.int8)


class UniformWeights(TensoredWeights):
    """All bits share one flip rate: constant-rate tensored weights."""

    def __init__(self, m: int, rate: float):
        super().__init__([float(rate)] * m)


class LayeredWeights(MitigationWeights):
    """Per-layer factors; the joint weight vector is their Kronecker product,
    so the masks are a ``LayeredModel`` of the parts' masks and a mask's sign
    is the product of its parts' signs."""

    def __init__(self, parts: list[MitigationWeights]):
        self.parts = parts
        self.masks = LayeredModel([p.masks for p in parts])
        self.m = self.masks.m
        self.xi = float(np.prod([p.xi for p in parts]))

    def signs(self, f):
        out = np.ones(f.shape, dtype=np.int8)
        for p, fp in zip(self.parts, split_index(f, [p.m for p in self.parts])):
            out *= p.signs(fp)
        return out


def solve_weights(model: SyndromeModel) -> MitigationWeights:
    """Mitigation weights for a syndrome model, preserving its structure."""
    if isinstance(model, TensoredModel):
        return TensoredWeights(model.rates)
    if isinstance(model, LayeredModel):
        return LayeredWeights([solve_weights(p) for p in model.parts])
    if isinstance(model, GeneralModel):
        return GeneralWeights(model.q)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def overhead_bound(eta: float) -> float:
    """Upper bound xi <= 1/(1-2*eta) in terms of the total error eta = 1-q[0].

    Tight at m = 1 (single bit attains equality); requires eta < 1/2.
    """
    if not 0.0 <= eta < 0.5:
        raise ValueError("bound requires total error in [0, 1/2)")
    return 1.0 / (1.0 - 2.0 * eta)


def shot_budget(xi: float, n_target: int) -> int:
    """Shots needed to match the precision of n_target noiseless shots."""
    shots = xi * xi * n_target
    if not (xi >= 0 and n_target >= 0 and shots < math.inf):
        raise ValueError("xi and n_target must be non-negative, and the budget finite")
    return math.ceil(shots)


def sensitivity_bound(xi: float, d: float, norm: float = 1.0) -> float:
    """Worst-case estimate shift when weights come from a miscalibrated q'.

    For total-variation distance d between the q used to solve the weights and
    the q' actually characterizing the device, both the mitigated expectation
    and xi itself move by at most 2 xi^2 d / (1 - 2 xi d) (times the spectral
    norm for the expectation).  Valid only while 2 xi d < 1.
    """
    if not d >= 0:
        raise ValueError("distance must be non-negative")
    if not 2.0 * xi * d < 1.0:
        raise ValueError("sensitivity bound requires 2*xi*d < 1")
    return 2.0 * xi * xi * d / (1.0 - 2.0 * xi * d) * norm


def raw_error_bound(eta: float, norm: float = 1.0) -> float:
    """Worst-case bias of the *unmitigated* estimate: 2 eta/(1-2 eta) * ||O||."""
    if not 0.0 <= eta < 0.5:
        raise ValueError("bound requires total error in [0, 1/2)")
    return 2.0 * eta / (1.0 - 2.0 * eta) * norm


def project_nonnegative(v) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = sum v}.

    Zeroes the most negative entries and spreads their deficit uniformly over
    the rest (equivalently: x = max(v - tau, 0) with tau chosen to preserve
    the total).  Preserves the total exactly.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.sum() < 0.0:
        raise ValueError("cannot project: total is negative")
    order = np.argsort(v)
    out = v[order].astype(np.float64, copy=True)
    deficit = 0.0
    for i in range(out.size):
        remaining = out.size - i
        if out[i] + deficit / remaining < 0.0:
            deficit += out[i]
            out[i] = 0.0
        else:
            out[i:] += deficit / remaining
            break
    result = np.empty_like(out)
    result[order] = out
    return result


def terminal_rem(counts, q, project: bool = True) -> np.ndarray:
    """Invert a symmetrized readout channel on terminal counts.

    counts is the histogram of reported terminal outcomes, and q the
    channel's syndrome distribution or its ``ChannelInverse``; the result is
    the channel-inverted histogram (same total), optionally projected onto
    the nearest non-negative histogram.
    """
    invert = q if isinstance(q, ChannelInverse) else ChannelInverse(q)
    corrected = invert(counts)
    return project_nonnegative(corrected) if project else corrected
