import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import marginalize, random_distribution
from promkit import mitigation, readout
from promkit.bits import AliasSampler, fwht


def test_eigenvalues_are_fwht():
    # the Walsh spectrum of q is the spectrum of Q[s, t] = q[s ^ t]
    q = np.array([0.7, 0.1, 0.15, 0.05])
    idx = np.arange(q.size)
    dense = np.linalg.eigvalsh(q[idx[:, None] ^ idx[None, :]])
    assert np.allclose(np.sort(fwht(q)), dense)
    assert np.allclose(fwht([0.9, 0.1]), [1.0, 0.8])


def test_eigenvalue_odd_mass_identity():
    # lambda_k = 1 - 2 * (mass of syndromes with odd overlap with k)
    rng = np.random.default_rng(0)
    q = random_distribution(rng, 16)
    lam = fwht(q)
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
    assert np.allclose(marginalize(q, [0]), [0.8, 0.2])
    assert np.allclose(marginalize(q, [1]), [0.8, 0.2])
    # keeping both bits in order is the identity
    assert np.allclose(marginalize(q, [0, 1]), q)


def test_marginalize_reorders_bits():
    rng = np.random.default_rng(7)
    q = rng.random(8)
    q /= q.sum()
    swapped = marginalize(q, [1, 0, 2])
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


# one slice of a distribution, spoiled past the one check's tolerances (the
# message names what is wrong), or within them ("rounding", "total-within")
SLICES = {"nan": ([0.9, np.nan], "finite"), "inf": ([0.9, np.inf], "finite"),
          "-inf": ([0.9, -np.inf], "finite"), "negative": ([1 + 2e-9, -2e-9], "negative"),
          "unnormalized": ([0.9, 0.1 + 2e-6], "sum to 1"),
          "rounding": ([1 + 5e-10, -5e-10], None), "total-within": ([0.9, 0.1 + 5e-7], None)}


def _keeps_nothing(call):
    """An entry point that keeps no distribution to read back."""
    def build(p):
        call(p)
    return build


# every entry point builds from one slice, and returns the distribution it
# keeps or None
DISTRIBUTION_ENTRY_POINTS = {
    "GeneralModel": lambda p: readout.GeneralModel(p).q,
    "ConfusionMatrix":  # the bad slice is one column
        lambda p: readout.ConfusionMatrix(np.column_stack([[0.8, 0.2], p])).matrix[:, 1],
    "GeneralWeights": lambda p: mitigation.GeneralWeights(p).q,
    "GeneralWeights-first": lambda p: mitigation.GeneralWeights(p[::-1]).q[::-1],
    "ChannelInverse": lambda p: mitigation.ChannelInverse(p).q,
    "terminal_rem": _keeps_nothing(lambda p: mitigation.terminal_rem([60.0, 40.0], p)),
    "total_variation_distance":
        _keeps_nothing(lambda p: readout.total_variation_distance(p, [0.5, 0.5])),
    "total_variation_distance-second":
        _keeps_nothing(lambda p: readout.total_variation_distance([0.5, 0.5], p)),
}
# alias weights need no normalization, and counts are normalized by calibrate,
# but neither takes a non-finite or negative entry
WEIGHT_ENTRY_POINTS = {"AliasSampler": AliasSampler, "calibrate": readout.calibrate}


@pytest.mark.parametrize("name, spoil", [
    *(pytest.param(name, spoil, id=f"{name}-{spoil}")
      for name in DISTRIBUTION_ENTRY_POINTS for spoil in SLICES),
    *(pytest.param(name, spoil, id=f"{name}-{spoil}")
      for name in WEIGHT_ENTRY_POINTS for spoil in ("nan", "inf", "-inf", "negative")),
])
def test_non_finite_distributions_are_refused(name, spoil):
    """Every library entry point that takes a distribution refuses a NaN, an
    infinite or a negative entry, and a total off 1, with ValueError; within
    the tolerances it accepts the slice and clips the rounding to exactly 0."""
    entries, match = SLICES[spoil]
    build = DISTRIBUTION_ENTRY_POINTS.get(name) or WEIGHT_ENTRY_POINTS[name]
    if match is not None:
        with pytest.raises(ValueError, match=match):
            build(np.array(entries))
        return
    kept = build(np.array(entries))
    if kept is not None:
        assert kept[1] == (0.0 if spoil == "rounding" else entries[1])
