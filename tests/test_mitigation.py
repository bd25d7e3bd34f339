import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (alpha_by_linear_solve, project_by_waterfill, random_distribution,
                     weights_alpha_by_kind, weights_sample_by_kind)
from promkit import mitigation, readout


def test_alpha_known_single_bit():
    w = mitigation.GeneralWeights([0.9, 0.1])
    assert np.allclose(w.alpha(), [1.125, -0.125])
    assert w.xi == pytest.approx(1.25)


def test_alpha_known_two_bit_product():
    q = np.kron([0.9, 0.1], [0.9, 0.1])
    w = mitigation.GeneralWeights(q)
    assert np.allclose(w.alpha(), [1.265625, -0.140625, -0.140625, 0.015625])
    assert w.xi == pytest.approx(1.5625)


@given(st.integers(1, 5), st.integers(0, 5000))
@settings(max_examples=80, deadline=None)
def test_alpha_matches_linear_solve(m, seed):
    rng = np.random.default_rng(seed)
    q = random_distribution(rng, 1 << m)
    w = mitigation.GeneralWeights(q)
    ref = alpha_by_linear_solve(q)
    assert np.allclose(w.alpha(), ref, atol=1e-10)
    assert w.xi == pytest.approx(np.abs(ref).sum(), abs=1e-10)


def test_alpha_normalization():
    # masked expectations of the constant observable sum back to 1
    rng = np.random.default_rng(9)
    q = random_distribution(rng, 8)
    assert mitigation.GeneralWeights(q).alpha().sum() == pytest.approx(1.0, abs=1e-12)


def test_singular_channel_rejected():
    with pytest.raises(mitigation.SingularChannelError):
        mitigation.GeneralWeights([0.5, 0.5])
    with pytest.raises(mitigation.SingularChannelError):
        mitigation.TensoredWeights([0.5])
    with pytest.raises(mitigation.SingularChannelError):
        mitigation.UniformWeights(2, 0.5)


class TestStructuredSolvers:
    def test_uniform_matches_general(self):
        m, r = 3, 0.12
        uni = mitigation.UniformWeights(m, r)
        gen = mitigation.GeneralWeights(readout.UniformModel(m, r).expand())
        assert np.allclose(uni.alpha(), gen.alpha(), atol=1e-12)
        assert uni.xi == pytest.approx(gen.xi, abs=1e-12)

    def test_tensored_matches_general(self):
        rates = [0.05, 0.2, 0.11]
        ten = mitigation.TensoredWeights(rates)
        gen = mitigation.GeneralWeights(readout.TensoredModel(rates).expand())
        assert np.allclose(ten.alpha(), gen.alpha(), atol=1e-12)
        assert ten.xi == pytest.approx(gen.xi, abs=1e-12)

    def test_layered_matches_general(self):
        rng = np.random.default_rng(21)
        parts = [readout.GeneralModel(random_distribution(rng, 4)),
                 readout.GeneralModel(random_distribution(rng, 2))]
        model = readout.LayeredModel(parts)
        lay = mitigation.solve_weights(model)
        gen = mitigation.GeneralWeights(model.expand())
        assert isinstance(lay, mitigation.LayeredWeights)
        assert np.allclose(lay.alpha(), gen.alpha(), atol=1e-12)
        assert lay.xi == pytest.approx(gen.xi, abs=1e-12)


def test_solve_weights_dispatch():
    assert isinstance(mitigation.solve_weights(readout.UniformModel(2, 0.1)),
                      mitigation.TensoredWeights)
    assert isinstance(mitigation.solve_weights(readout.TensoredModel([0.1])),
                      mitigation.TensoredWeights)
    assert isinstance(mitigation.solve_weights([0.9, 0.1]),
                      mitigation.GeneralWeights)


def test_mask_sampling_distribution():
    q = np.array([0.81, 0.09, 0.09, 0.01])
    w = mitigation.GeneralWeights(q)
    rng = np.random.default_rng(3)
    masks, signs = w.sample(rng, 300_000)
    alpha = w.alpha()
    freq = np.bincount(masks, minlength=4) / masks.size
    assert np.abs(freq - np.abs(alpha) / w.xi).max() < 5e-3
    # sign always matches the sign of the sampled weight
    assert np.array_equal(signs, np.where(alpha[masks] < 0, -1, 1))


def test_structured_sampling_matches_alpha():
    w = mitigation.TensoredWeights([0.1, 0.25])
    rng = np.random.default_rng(4)
    masks, signs = w.sample(rng, 300_000)
    alpha = w.alpha()
    freq = np.bincount(masks, minlength=4) / masks.size
    assert np.abs(freq - np.abs(alpha) / w.xi).max() < 5e-3
    assert np.array_equal(signs, np.where(alpha[masks] < 0, -1, 1))


def _weights_of_every_kind():
    rng = np.random.default_rng(17)
    general = mitigation.GeneralWeights(random_distribution(rng, 8))
    tensored = mitigation.TensoredWeights([0.1, 0.6, 0.02])  # one rate above 1/2
    return {"general": general, "tensored": tensored,
            "layered": mitigation.LayeredWeights([general, tensored]),
            "nested": mitigation.LayeredWeights(
                [tensored, mitigation.LayeredWeights([general, tensored])])}


@pytest.mark.parametrize("kind", ["general", "tensored", "layered", "nested"])
def test_masks_and_signs_match_per_kind_reference(kind):
    """Weights draw masks through the syndrome model of their masks; on a
    shared stream that gives the masks and int8 signs that each weights
    class drew on its own, and the same weight vector."""
    w = _weights_of_every_kind()[kind]
    masks, signs = w.sample(np.random.default_rng(8), 5000)
    ref_masks, ref_signs = weights_sample_by_kind(w, np.random.default_rng(8), 5000)
    assert masks.dtype == ref_masks.dtype and signs.dtype == ref_signs.dtype == np.int8
    assert masks.tobytes() == ref_masks.tobytes()
    assert signs.tobytes() == ref_signs.tobytes()
    assert np.abs(w.alpha() - weights_alpha_by_kind(w)).max() < 1e-12


def test_general_alpha_is_the_solved_vector():
    """``GeneralWeights.alpha`` is the Walsh-division vector itself, bit for
    bit, not xi * signs * |alpha| / xi rebuilt from its masks."""
    w = _weights_of_every_kind()["general"]
    assert w.alpha().tobytes() == weights_alpha_by_kind(w).tobytes()


def test_tensored_closed_forms():
    # rates above 1/2 make the non-flip weight negative; an odd number of
    # them, so the flip parity alone would give the wrong sign; 0 and 1 are exact
    rates = np.array([0.1, 0.7, 0.0, 1.0, 0.45, 0.8])
    w = mitigation.TensoredWeights(rates)
    assert w.xi == np.prod(1.0 / np.abs(1.0 - 2.0 * rates))
    alpha = w.alpha()
    assert w.xi == pytest.approx(np.abs(alpha).sum(), rel=1e-12)
    masks, signs = w.sample(np.random.default_rng(12), 200_000)
    assert signs.dtype == np.int8
    assert np.array_equal(signs, np.where(alpha[masks] < 0, -1, 1))
    # mask bit j flips with probability rates[j]
    flips = (masks[:, None] >> np.arange(5, -1, -1)) & 1
    assert np.abs(flips.mean(axis=0) - rates).max() < 5e-3


def test_uniform_is_constant_rate_tensored():
    uni = mitigation.UniformWeights(3, 0.2)
    ten = mitigation.TensoredWeights([0.2] * 3)
    assert isinstance(uni, mitigation.TensoredWeights)
    assert uni.xi == ten.xi
    a, b = uni.sample(np.random.default_rng(5), 1000), ten.sample(np.random.default_rng(5), 1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    model = readout.UniformModel(3, 0.2)
    assert isinstance(model, readout.TensoredModel)
    assert model.rates.tolist() == [0.2] * 3
    with pytest.raises(ValueError):
        readout.UniformModel(0, 0.1)


def test_overhead_bound():
    assert mitigation.overhead_bound(0.1) == pytest.approx(1.25)
    assert mitigation.overhead_bound(0.3) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        mitigation.overhead_bound(0.5)
    # single-bit channels saturate the bound
    w = mitigation.GeneralWeights([0.9, 0.1])
    assert w.xi == pytest.approx(mitigation.overhead_bound(0.1), abs=1e-14)


def test_shot_budget():
    assert mitigation.shot_budget(1.5625, 1000) == 2442
    assert mitigation.shot_budget(1.0, 10) == 10


def test_sensitivity_bound():
    assert mitigation.sensitivity_bound(1.25, 0.1) == pytest.approx(
        2 * 1.25**2 * 0.1 / (1 - 2 * 1.25 * 0.1))
    assert mitigation.sensitivity_bound(1.25, 0.1) == pytest.approx(0.41666667)
    with pytest.raises(ValueError):
        mitigation.sensitivity_bound(1.25, 0.4)  # 2*xi*d = 1


def test_raw_error_bound():
    assert mitigation.raw_error_bound(0.1) == pytest.approx(0.25)
    assert mitigation.raw_error_bound(0.1, norm=2.0) == pytest.approx(0.5)


def test_accumulator_matches_direct():
    rng = np.random.default_rng(8)
    values = rng.choice([-1.0, 1.0], size=1000)
    signs = rng.choice([-1, 1], size=1000)
    xi = 1.4
    acc = mitigation.EstimatorAccumulator(xi=xi)
    acc.add(values, signs)
    signed = values * signs
    assert acc.estimate == pytest.approx(xi * signed.mean())
    assert acc.single_shot_variance == pytest.approx(
        xi**2 * signed.var(ddof=1), rel=1e-12)
    assert acc.stderr == pytest.approx(
        math.sqrt(acc.single_shot_variance / 1000), rel=1e-12)


def test_accumulator_moment_merge():
    rng = np.random.default_rng(13)
    values = rng.standard_normal(500)
    one = mitigation.EstimatorAccumulator(xi=1.0)
    one.add(values)
    two = mitigation.EstimatorAccumulator(xi=1.0)
    two.add(values[:200])
    two.add(values[200:])
    assert two.estimate == pytest.approx(one.estimate, rel=1e-12)
    assert two.stderr == pytest.approx(one.stderr, rel=1e-12)


def test_project_nonnegative_known():
    assert np.allclose(mitigation.project_nonnegative([1.1, -0.1]), [1.0, 0.0])
    assert np.allclose(mitigation.project_nonnegative([-0.2, 0.6, 0.6]),
                       [0.0, 0.5, 0.5])


@given(st.integers(0, 2000))
@settings(max_examples=100, deadline=None)
def test_project_nonnegative_properties(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8)
    v += (1.0 - v.sum()) / v.size  # normalize the total to 1
    out = mitigation.project_nonnegative(v)
    assert out.min() >= 0
    assert out.sum() == pytest.approx(v.sum(), abs=1e-12)
    # already-nonnegative input is a fixed point
    again = mitigation.project_nonnegative(out)
    assert np.allclose(again, out, atol=1e-12)


def test_project_nonnegative_matches_waterfill():
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = rng.standard_normal(6)
        v += (1.0 - v.sum()) / v.size
        assert np.allclose(mitigation.project_nonnegative(v),
                           project_by_waterfill(v), atol=1e-9)


def test_project_nonnegative_rejects_negative_total():
    with pytest.raises(ValueError):
        mitigation.project_nonnegative([-1.0, 0.2])


def test_terminal_rem_round_trip():
    rng = np.random.default_rng(19)
    q = random_distribution(rng, 4, eta_max=0.4)
    target = rng.random(4)
    target /= target.sum()
    from promkit.bits import binary_convolve
    observed = binary_convolve(q, target)
    recovered = mitigation.terminal_rem(observed, q)
    assert np.allclose(recovered, target, rtol=1e-9, atol=1e-12)


def test_terminal_rem_projects_counts():
    # inversion of sampled counts can go negative; projection cleans it up
    counts = np.array([980.0, 15.0, 5.0, 0.0])
    q = [0.81, 0.09, 0.09, 0.01]
    out = mitigation.terminal_rem(counts, q)
    assert out.min() >= 0
    assert out.sum() == pytest.approx(counts.sum(), abs=1e-9)
    raw = mitigation.terminal_rem(counts, q, project=False)
    assert raw.sum() == pytest.approx(counts.sum(), abs=1e-9)
    assert raw.min() < 0
