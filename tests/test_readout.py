import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_distribution
from promkit import readout
from promkit.bits import fwht


def test_eigenvalues_are_fwht():
    q = [0.9, 0.1]
    assert np.allclose(readout.eigenvalues(q), fwht(q))
    assert np.allclose(readout.eigenvalues(q), [1.0, 0.8])


def test_eigenvalue_odd_mass_identity():
    # lambda_k = 1 - 2 * (mass of syndromes with odd overlap with k)
    rng = np.random.default_rng(0)
    q = random_distribution(rng, 16)
    lam = readout.eigenvalues(q)
    for k in range(16):
        odd = sum(q[s] for s in range(16) if bin(k & s).count("1") % 2)
        assert lam[k] == pytest.approx(1.0 - 2.0 * odd, abs=1e-12)


def test_total_error():
    assert readout.total_error([0.9, 0.06, 0.03, 0.01]) == pytest.approx(0.1)


def test_total_variation_distance():
    assert readout.total_variation_distance([1, 0], [0, 1]) == pytest.approx(1.0)
    assert readout.total_variation_distance([0.9, 0.1], [0.8, 0.2]) == pytest.approx(0.1)


def test_symmetrize_known_matrix():
    M = np.array([[0.95, 0.15],
                  [0.05, 0.85]])
    assert np.allclose(readout.symmetrize(M), [0.9, 0.1])


def test_symmetrize_general_property():
    # q[s] is the average over true outcomes t of M[t ^ s, t]
    rng = np.random.default_rng(5)
    M = rng.random((4, 4))
    M /= M.sum(axis=0, keepdims=True)
    q = readout.symmetrize(M)
    for s in range(4):
        expect = np.mean([M[t ^ s, t] for t in range(4)])
        assert q[s] == pytest.approx(expect, abs=1e-12)
    assert q.sum() == pytest.approx(1.0)


def test_marginalize():
    q = np.array([0.8, 0.0, 0.0, 0.2])
    assert np.allclose(readout.marginalize(q, [0]), [0.8, 0.2])
    assert np.allclose(readout.marginalize(q, [1]), [0.8, 0.2])
    # keeping both bits in order is the identity
    assert np.allclose(readout.marginalize(q, [0, 1]), q)


def test_marginalize_reorders_bits():
    rng = np.random.default_rng(7)
    q = rng.random(8)
    q /= q.sum()
    swapped = readout.marginalize(q, [1, 0, 2])
    for s in range(8):
        b = [(s >> 2) & 1, (s >> 1) & 1, s & 1]
        src = (b[1] << 2) | (b[0] << 1) | b[2]
        assert swapped[src] == pytest.approx(q[s])


class TestConfusionMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            readout.ConfusionMatrix(np.array([[0.5, 0.5], [0.6, 0.5]]))
        with pytest.raises(ValueError):
            readout.ConfusionMatrix(np.ones((2, 3)))

    def test_sample_reported_statistics(self):
        M = np.array([[0.95, 0.15],
                      [0.05, 0.85]])
        cm = readout.ConfusionMatrix(M)
        rng = np.random.default_rng(2)
        true = np.zeros(100_000, dtype=np.int64)
        rep = cm.sample_reported(true, rng)
        assert np.mean(rep) == pytest.approx(0.05, abs=5e-3)
        true = np.ones(100_000, dtype=np.int64)
        rep = cm.sample_reported(true, rng)
        assert np.mean(rep) == pytest.approx(0.85, abs=5e-3)

    def test_symmetrize_method(self):
        M = np.array([[0.95, 0.15],
                      [0.05, 0.85]])
        assert np.allclose(readout.ConfusionMatrix(M).symmetrize(), [0.9, 0.1])


@pytest.mark.parametrize("model,expected_q", [
    (readout.UniformModel(2, 0.1), np.kron([0.9, 0.1], [0.9, 0.1])),
    (readout.TensoredModel([0.1, 0.2]), np.kron([0.9, 0.1], [0.8, 0.2])),
    (readout.GeneralModel([0.7, 0.1, 0.1, 0.1]), [0.7, 0.1, 0.1, 0.1]),
    (readout.LayeredModel([readout.UniformModel(1, 0.1),
                           readout.GeneralModel([0.8, 0.2])]),
     np.kron([0.9, 0.1], [0.8, 0.2])),
])
def test_model_expand(model, expected_q):
    assert model.m == 2
    assert np.allclose(model.expand(), expected_q)


@pytest.mark.parametrize("model", [
    readout.UniformModel(2, 0.15),
    readout.TensoredModel([0.1, 0.3]),
    readout.GeneralModel([0.6, 0.25, 0.1, 0.05]),
    readout.LayeredModel([readout.TensoredModel([0.2]),
                          readout.GeneralModel([0.7, 0.3])]),
])
def test_model_sample_matches_expand(model):
    rng = np.random.default_rng(11)
    draws = model.sample(rng, 200_000)
    freq = np.bincount(draws, minlength=1 << model.m) / draws.size
    assert np.abs(freq - model.expand()).max() < 5e-3


def test_model_total_error():
    assert readout.UniformModel(2, 0.1).total_error() == pytest.approx(1 - 0.81)
    m = readout.LayeredModel([readout.UniformModel(1, 0.1),
                              readout.UniformModel(1, 0.2)])
    assert m.total_error() == pytest.approx(1 - 0.9 * 0.8)


def test_calibrate():
    counts = np.array([900, 50, 40, 10])
    q = readout.calibrate(counts)
    assert np.allclose(q, [0.9, 0.05, 0.04, 0.01])
    with pytest.raises(ValueError):
        readout.calibrate(np.zeros(4))


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_symmetrized_channel_normalized(seed):
    rng = np.random.default_rng(seed)
    M = rng.random((8, 8)) + 1e-3
    M /= M.sum(axis=0, keepdims=True)
    q = readout.symmetrize(M)
    assert q.min() >= 0
    assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        readout.GeneralModel([0.5, 0.6])       # not normalized
    with pytest.raises(ValueError):
        readout.GeneralModel([1.1, -0.1])      # negative entry
    with pytest.raises(ValueError):
        readout.GeneralModel([0.5, 0.25, 0.25])  # not a power of two
