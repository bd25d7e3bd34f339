import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bits_to_index, naive_wht
from promkit import bits


def test_fwht_known_values():
    assert np.allclose(bits.fwht([0.9, 0.1]), [1.0, 0.8])
    assert np.allclose(bits.fwht([1.0, 0.0]), [1.0, 1.0])
    # m=2 product channel: eigenvalues are products of per-bit eigenvalues
    q = np.kron([0.9, 0.1], [0.8, 0.2])
    assert np.allclose(bits.fwht(q), [1.0, 0.6, 0.8, 0.48])


@pytest.mark.parametrize("m", range(1, 9))
def test_fwht_matches_naive(m):
    rng = np.random.default_rng(m)
    v = rng.standard_normal(1 << m)
    assert np.allclose(bits.fwht(v), naive_wht(v), atol=1e-12)


@given(st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_fwht_involution(m, seed):
    v = np.random.default_rng(seed).standard_normal(1 << m)
    assert np.allclose(bits.fwht(bits.fwht(v)), (1 << m) * v, atol=1e-9)


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        bits.fwht([1.0, 2.0, 3.0])


def test_binary_convolve_known():
    out = bits.binary_convolve([0.9, 0.1], [0.9, 0.1])
    assert np.allclose(out, [0.82, 0.18])


def test_binary_convolve_matches_direct_sum():
    rng = np.random.default_rng(3)
    u = rng.random(8)
    v = rng.random(8)
    direct = np.zeros(8)
    for s in range(8):
        for t in range(8):
            direct[s] += u[t] * v[s ^ t]
    assert np.allclose(bits.binary_convolve(u, v), direct, atol=1e-12)


def test_index_bit_conventions():
    # bit 0 is the most significant index bit
    assert bits.index_to_bits(0b10, 2).tolist() == [1, 0]
    arr = bits.index_to_bits(np.array([6]), 3)
    assert arr.tolist() == [[1, 1, 0]]
    assert bits_to_index(arr).tolist() == [6]


def test_split_concat_roundtrip():
    widths = [2, 3, 1]
    vals = np.arange(1 << 6)
    parts = bits.split_index(vals, widths)
    assert len(parts) == 3
    back = (parts[0] << 4) | (parts[1] << 1) | parts[2]
    assert np.array_equal(back, vals)
    # first listed part is the most significant
    parts = bits.split_index(np.array([0b10_110_1]), widths)
    assert [int(p[0]) for p in parts] == [0b10, 0b110, 0b1]


def test_popcount_parity():
    v = np.array([0, 1, 3, 7, 6])
    assert bits.popcount(v).tolist() == [0, 1, 2, 3, 2]
    assert bits.parity(v).tolist() == [0, 1, 0, 1, 0]


def test_alias_sampler_statistics():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    sampler = bits.AliasSampler(p)
    rng = np.random.default_rng(0)
    draws = sampler.draw(rng, 200_000)
    freq = np.bincount(draws, minlength=4) / draws.size
    assert np.abs(freq - p).max() < 5e-3


def test_alias_sampler_degenerate():
    sampler = bits.AliasSampler([0.0, 1.0, 0.0])
    draws = sampler.draw(np.random.default_rng(1), 1000)
    assert (draws == 1).all()


def test_size_cap_env(monkeypatch):
    monkeypatch.delenv("PROMKIT_SIZE_CAP", raising=False)
    assert bits.size_cap() == bits.DEFAULT_SIZE_CAP
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "4")
    assert bits.size_cap() == 4
    with pytest.raises(bits.SizeCapError):
        bits.check_size(5, "test table")
    bits.check_size(4, "test table")


def test_num_bits():
    assert bits.num_bits(8) == 3
    assert bits.num_bits(1) == 0
    with pytest.raises(ValueError):
        bits.num_bits(6)
