"""Differential tests: the branching simulator against the per-shot routine.

The simulator evolves one statevector per distinct state: rows split on
twirls, outcomes and lookups, and rows whose bytes become equal merge.
The reference in ``oracles.per_shot_batch`` evolves one per shot.  Both draw
the same randomness in the same order, so every count and every shot record
must be equal, not merely close.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import branching_batch, per_shot_batch, per_shot_run
from promkit import simulator
from promkit.bits import stream
from promkit.simulator import batch_size_for, run_shots
from strategies import runs


def assert_results_equal(a, b):
    assert a.setting is b.setting
    assert (a.shots, a.accepted, a.discarded, a.xi) == (b.shots, b.accepted, b.discarded, b.xi)
    assert np.array_equal(a.signed_counts, b.signed_counts)
    assert a.signed_counts.dtype == b.signed_counts.dtype
    for mine, theirs in ((a.layer_reported_counts, b.layer_reported_counts),
                         (a.layer_flip_counts, b.layer_flip_counts)):
        assert len(mine) == len(theirs)
        for u, v in zip(mine, theirs):
            assert np.array_equal(u, v) and u.dtype == v.dtype


@given(runs(), st.integers(1, 300), st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_branching_matches_per_shot(run, shots, seed):
    circuit, noise, weights = run
    setting = circuit.settings[0]
    got = run_shots(circuit, setting, shots, noise=noise, weights=weights, seed=seed)
    want = per_shot_run(circuit, setting, shots, noise=noise, weights=weights, seed=seed)
    assert_results_equal(got, want)

    dtype = simulator._pick_dtype(circuit, setting)
    got_result, got_records = branching_batch(
        circuit, setting, shots, noise, weights, stream(seed, 1), dtype)
    want_result, want_records = per_shot_batch(
        circuit, setting, shots, noise, weights, stream(seed, 1), dtype, collect=True)
    assert_results_equal(got_result, want_result)
    assert got_records == want_records

    mine, theirs = stream(seed, 2), stream(seed, 2)
    for _ in range(3):
        record = branching_batch(circuit, setting, 1, noise, weights, mine, dtype)[1][0]
        assert record == per_shot_batch(circuit, setting, 1, noise, weights, theirs,
                                        dtype, collect=True)[1][0]


@given(runs(), st.integers(1, 100), st.integers(0, 2 ** 16))
@settings(max_examples=8, deadline=None)
def test_workers_agree_across_batches(run, extra, seed):
    circuit, noise, weights = run
    setting = circuit.settings[0]
    shots = batch_size_for(circuit.n) + extra
    one = run_shots(circuit, setting, shots, noise=noise, weights=weights, seed=seed)
    two = run_shots(circuit, setting, shots, noise=noise, weights=weights, seed=seed,
                    workers=2)
    assert_results_equal(one, two)
    assert_results_equal(one, per_shot_run(circuit, setting, shots, noise=noise,
                                           weights=weights, seed=seed))
