"""Differential tests: the branching simulator against the per-shot routine.

The simulator evolves one statevector per distinct state: rows split on
twirls, outcomes and table entries, and rows whose bytes become equal merge.
The reference in ``oracles.per_shot_batch`` evolves one per shot.  Both draw
the same randomness in the same order, so every count and every shot record
must be equal, not merely close.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_shot_batch, per_shot_run
from promkit import simulator
from promkit.bits import stream
from promkit.circuits import (DynamicCircuit, FeedforwardLayer, Gate, PauliString,
                              TerminalSetting, cx, h, rx, ry, rz, s, sdg, x, z)
from promkit.mitigation import TensoredWeights, solve_weights
from promkit.readout import ConfusionMatrix, GeneralModel, TensoredModel
from promkit.simulator import NoiseInjector, batch_size_for, run_shot, run_shots

FIXED = {"h": h, "s": s, "sdg": sdg, "x": x, "z": z}
ROTATIONS = {"rx": rx, "ry": ry, "rz": rz}
CONSENSUS = [(1, "none"), (3, "majority"), (2, "unanimous"), (3, "unanimous")]
NOISE_KINDS = ["none", "model", "matrices", "bfa", "forced"]


@st.composite
def gates(draw, n, max_size):
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        names = sorted(FIXED) + sorted(ROTATIONS) + (["cx"] if n >= 2 else [])
        name = draw(st.sampled_from(names))
        if name == "cx":
            a, b = draw(st.permutations(range(n)))[:2]
            out.append(cx(a, b))
        elif name in ROTATIONS:
            # a coarse angle grid, so that equal rotations recur in tables
            angle = draw(st.integers(1, 7)) * math.pi / 4
            out.append(ROTATIONS[name](angle, draw(st.integers(0, n - 1))))
        else:
            out.append(FIXED[name](draw(st.integers(0, n - 1))))
    return tuple(out)


@st.composite
def layers(draw, n):
    k = draw(st.integers(1, min(n, 3)))
    measured = tuple(draw(st.permutations(range(n)))[:k])
    # entries come from a small pool, so several table indices share a
    # gate sequence (and, for the empty sequence, no gates at all).  The
    # pool's last sequence twins its first with every rotation doubled:
    # equal names and qubits, different matrices.
    pool = draw(st.lists(gates(n, 2), min_size=1, max_size=3))
    pool.append(tuple(Gate(g.name, g.qubits, g.matrix @ g.matrix)
                      if g.name in ROTATIONS else g for g in pool[0]))
    table = tuple(pool[draw(st.integers(0, len(pool) - 1))] for _ in range(1 << k))
    repeat, consensus = draw(st.sampled_from(CONSENSUS))
    return FeedforwardLayer(measured=measured, table=table,
                            pre_gates=draw(gates(n, 3)), post_gates=draw(gates(n, 2)),
                            repeat=repeat, consensus=consensus)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    measured = tuple(draw(st.permutations(range(n)))[:k])
    observables = (("z", PauliString("Z" * k, measured)),) if k else ()
    setting = TerminalSetting(name="t", measured=measured, observables=observables,
                              basis_gates=draw(gates(n, 3)))
    return DynamicCircuit(n=n, prep=draw(gates(n, 5)),
                          layers=tuple(draw(st.lists(layers(n), max_size=3))),
                          settings=(setting,))


def _distribution(rng, size):
    p = rng.random(size) ** 3
    return p / p.sum()


def _confusion(rng, k):
    cols = [0.7 * np.eye(1 << k)[:, t] + 0.3 * _distribution(rng, 1 << k)
            for t in range(1 << k)]
    return ConfusionMatrix(np.stack(cols, axis=1))


@st.composite
def runs(draw):
    """(circuit, noise, weights) with noise and weights fitting the circuit."""
    circuit = draw(circuits())
    setting = circuit.settings[0]
    m = circuit.m
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(NOISE_KINDS)) if m else "none"
    terminal = None
    if setting.measured and draw(st.booleans()):
        terminal = TensoredModel(rng.uniform(0.0, 0.2, len(setting.measured)))
    noise, model = None, None
    if kind == "model":
        model = (GeneralModel(_distribution(rng, 1 << m) * 0.3 + 0.7 * np.eye(1 << m)[0])
                 if draw(st.booleans()) else TensoredModel(rng.uniform(0.0, 0.3, m)))
        noise = NoiseInjector(model=model, terminal=terminal)
    elif kind in ("matrices", "bfa"):
        noise = NoiseInjector(matrices=[_confusion(rng, layer.m) for layer in circuit.layers],
                              bfa=kind == "bfa", terminal=terminal)
    elif kind == "forced":
        noise = NoiseInjector(forced=[int(rng.integers(1 << layer.m))
                                      for layer in circuit.layers], terminal=terminal)
    elif terminal is not None:
        noise = NoiseInjector(terminal=terminal)
    weights = None
    if m and draw(st.booleans()):
        weights = (solve_weights(model) if model is not None
                   else TensoredWeights(rng.uniform(0.0, 0.3, m)))
    return circuit, noise, weights


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
    keys = simulator._entry_keys(circuit)
    got_result, got_records = simulator._run_batch(
        circuit, setting, shots, noise, weights, stream(seed, 1), dtype, keys, collect=True)
    want_result, want_records = per_shot_batch(
        circuit, setting, shots, noise, weights, stream(seed, 1), dtype, collect=True)
    assert_results_equal(got_result, want_result)
    assert got_records == want_records

    mine, theirs = stream(seed, 2), stream(seed, 2)
    for _ in range(3):
        record = run_shot(circuit, setting, mine, noise=noise, weights=weights)
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


def test_entry_keys_compare_matrices():
    # Gate equality ignores the matrix; the keys must not
    mixed = FeedforwardLayer(measured=(0, 1),
                             table=((), (rx(0.3, 2),), (rx(0.3, 2),), (rx(0.4, 2),)))
    empty = FeedforwardLayer(measured=(0, 1), table=((),) * 4)
    keys = simulator._entry_keys(DynamicCircuit(n=3, layers=(mixed, empty)))
    assert [k.tolist() for k in keys] == [[0, 1, 1, 3], [0, 0, 0, 0]]
