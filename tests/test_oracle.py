import gc
import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (Read, dense_observable, dense_read, masked_by_gather,
                     mitigated_by_loop, one_observable_settings, random_distribution,
                     recursive_trajectory_tensor)
from promkit import engine, oracle
from promkit.bits import SizeCapError
from promkit.circuits import (DynamicCircuit, FeedforwardLayer, PauliString,
                              TerminalSetting, ZeroProjector, cx, h, x,
                              xor_feedback_table)
from promkit.experiments import build_ghz_circuit, build_teleport_circuit
from promkit.mitigation import GeneralWeights
from promkit.simulator import estimate_observables, run_shots
from strategies import runs


def reset_circuit():
    layer = FeedforwardLayer(measured=(0,), table=xor_feedback_table((0,)))
    setting = TerminalSetting(name="t", measured=(0,),
                              observables=(("zeros", ZeroProjector((0,))),))
    return DynamicCircuit(n=1, prep=(h(0),), layers=(layer,), settings=(setting,))


def test_reset_tensor_values():
    c = reset_circuit()
    t = oracle.exact_trajectory_tensor(c)
    assert t.branch_probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(t.branch_probs, [0.5, 0.5])
    assert t.ideal(0) == pytest.approx(1.0)
    # T[s, v]: correct lookup resets; wrong lookup leaves |1> half the time
    assert t.tensor[0, 0, 0] == pytest.approx(0.5)   # true 0, lookup 0 -> |0>
    assert t.tensor[0, 0, 1] == pytest.approx(0.0)   # true 0, X fires -> |1>
    assert t.tensor[0, 1, 1] == pytest.approx(0.5)
    assert t.tensor[0, 1, 0] == pytest.approx(0.0)


def test_masked_interpolates_channel():
    c = reset_circuit()
    t = oracle.exact_trajectory_tensor(c)
    q = np.array([0.9, 0.1])
    # no mask: expectation = sum_s p_s * (q0 * right + q1 * wrong)
    assert t.masked(0, 0, q) == pytest.approx(0.9)
    assert t.masked(0, 1, q) == pytest.approx(0.1)
    # noiseless channel, zero mask == ideal
    assert t.masked(0, 0, [1.0, 0.0]) == pytest.approx(t.ideal(0))


def test_mitigated_recovers_ideal():
    c = reset_circuit()
    t = oracle.exact_trajectory_tensor(c)
    q = np.array([0.85, 0.15])
    w = GeneralWeights(q)
    assert t.mitigated(0, q, w.alpha()) == pytest.approx(t.ideal(0), abs=1e-12)
    assert t.mitigated(0, q, w.alpha()) == pytest.approx(1.0, abs=1e-12)


def test_teleport_ideal_matches_closed_form():
    phi_x, phi_z = np.pi / 8, 3 * np.pi / 8
    want = {"X": np.sin(2 * phi_x) * np.sin(2 * phi_z),
            "Y": -np.sin(2 * phi_x) * np.cos(2 * phi_z),
            "Z": np.cos(2 * phi_x)}
    c = build_teleport_circuit(1, phi_x, phi_z)
    t = oracle.exact_trajectory_tensor(c)
    names = [name for setting in c.settings for name, _ in setting.observables]
    for b, name in enumerate(names):
        assert t.ideal(b) == pytest.approx(want[name], abs=1e-12)


def test_branch_probs_follow_born_rule():
    # teleport stage: all four Bell outcomes equally likely
    c = build_teleport_circuit(1)
    t = oracle.exact_trajectory_tensor(c)
    assert np.allclose(t.branch_probs, 0.25)


def test_multi_observable_tensor():
    c = reset_circuit()
    setting = TerminalSetting(
        name="t", measured=(0,),
        observables=(("zeros", ZeroProjector((0,))), ("z", PauliString("Z", (0,)))))
    turned = TerminalSetting(name="x", measured=(0,), basis_gates=(h(0),),
                             observables=(("x", PauliString("X", (0,))),))
    c = DynamicCircuit(n=1, prep=c.prep, layers=c.layers, settings=(setting, turned))
    t = oracle.exact_trajectory_tensor(c)
    # b runs over the settings, then over each setting's observables: each
    # plane is the walk of its observable alone
    reads = [replace(s, observables=(ob,)) for s in c.settings for ob in s.observables]
    assert len(t.tensor) == len(reads) == 3
    for b, read in enumerate(reads):
        alone = oracle.exact_trajectory_tensor(replace(c, settings=(read,)))
        assert np.array_equal(t.tensor[b], alone.tensor[0])
    # projector p and Z = 2p - 1 on a single qubit
    assert t.ideal(1) == pytest.approx(2 * t.ideal(0) - 1, abs=1e-12)


def test_random_circuit_unbiasedness():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = _random_dynamic_circuit(rng)
        t = oracle.exact_trajectory_tensor(c)
        q = random_distribution(rng, 1 << c.m)
        alpha = GeneralWeights(q).alpha()
        for b in range(len(t.tensor)):
            assert t.mitigated(b, q, alpha) == pytest.approx(t.ideal(b), abs=1e-9)


def _random_dynamic_circuit(rng):
    from test_engine import random_gates
    n = int(rng.integers(2, 4))
    prep = tuple(random_gates(rng, n, 4))
    measured = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
    table = tuple(tuple(random_gates(rng, n, int(rng.integers(0, 3))))
                  for _ in range(4))
    layer = FeedforwardLayer(measured=measured, table=table)
    label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    if set(label) == {"I"}:
        label = "Z" + label[1:]
    setting = TerminalSetting(name="t", measured=tuple(range(n)),
                              observables=((label, PauliString(label)),),
                              basis_gates=PauliString(label).basis_gates())
    return DynamicCircuit(n=n, prep=prep, layers=(layer,), settings=(setting,))


def test_size_caps_enforced():
    big = DynamicCircuit(n=13, prep=(h(0),))
    with pytest.raises(SizeCapError):
        oracle.exact_trajectory_tensor(big)
    layers = tuple(FeedforwardLayer(measured=(0,), table=((), ()))
                   for _ in range(7))
    wide = DynamicCircuit(n=2, layers=layers)
    with pytest.raises(SizeCapError):
        oracle.exact_trajectory_tensor(wide)


def test_oracle_rejects_repetition():
    layer = FeedforwardLayer(measured=(0,), table=((), ()), repeat=3,
                             consensus="majority")
    c = DynamicCircuit(n=1, layers=(layer,))
    with pytest.raises(ValueError):
        oracle.exact_trajectory_tensor(c)


# what the oracle models: no QND repetition, no terminal readout noise, at
# most MAX_M mid-circuit bits, and here at least one feedforward layer
ORACLE_RUNS = runs(kinds=("none", "model"), terminal=False, max_m=oracle.MAX_M,
                   consensus=[(1, "none")], min_layers=1)


@given(ORACLE_RUNS, st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_per_mask_matches_the_double_sums(run, seed):
    """One XOR convolution gives what the double sum gives for each mask,
    and the weights of an invertible channel recover the ideal value."""
    circuit, _, _ = run
    z0 = one_observable_settings([("z0", PauliString("Z", (0,)))])
    t = oracle.exact_trajectory_tensor(replace(circuit, settings=circuit.settings + z0))
    rng = np.random.default_rng(seed)
    k = 1 << circuit.m
    q = random_distribution(rng, k)
    alpha = rng.normal(size=k)
    for b in range(len(t.tensor)):
        want = [masked_by_gather(t, b, f, q) for f in range(k)]
        assert np.allclose(t.per_mask(b, q), want, rtol=0, atol=1e-12)
        assert t.masked(b, k - 1, q) == pytest.approx(want[-1], rel=0, abs=1e-12)
        assert t.mitigated(b, q, alpha) == pytest.approx(
            mitigated_by_loop(t, b, q, alpha), rel=0, abs=1e-12)
        assert t.mitigated(b, q, GeneralWeights(q).alpha()) == pytest.approx(t.ideal(b),
                                                                            abs=1e-9)


@given(runs(kinds=("none",), terminal=False, max_m=oracle.MAX_M, consensus=[(1, "none")]),
       st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_walk_matches_the_dense_recursion(run, seed):
    """The row-batch walk gives the tensor and branch probabilities of the
    leaf-by-leaf walk on dense matrices: for the circuit's own setting, for a
    setting of several observables after one shared rotation, for a setting
    of none (which adds no index), and for a bare Pauli string and zero
    projector on random qubits, each in a setting of its own that reads its
    dense matrix."""
    circuit, _, _ = run
    n = circuit.n
    rng = np.random.default_rng(seed)

    def subset():
        return tuple(rng.permutation(n)[:rng.integers(1, n + 1)].tolist())
    label = "".join(rng.choice(list("IXYZ"), size=n))
    bare = [("pauli", PauliString(label, tuple(rng.permutation(n).tolist()),
                                  sign=int(rng.choice([-1, 1])))),
            ("zeros", ZeroProjector(subset()))]
    several = TerminalSetting(
        name="several", measured=tuple(rng.permutation(n).tolist()),
        basis_gates=PauliString("".join(rng.choice(list("XYZ"), size=n))).basis_gates(),
        observables=(("z", PauliString("Z" * n)), ("zeros", ZeroProjector(subset())),
                     ("z1", PauliString("Z", subset()[:1]))))
    none = TerminalSetting(name="none", measured=subset(), observables=(),
                           basis_gates=several.basis_gates)
    singles = one_observable_settings(bare)
    for setting, (_, ob) in zip(singles, bare):
        (_, values), = setting.value_table()
        read = Read(setting.basis_gates, setting.measured, values)
        assert np.allclose(dense_read(read, n), dense_observable(ob, n), rtol=0, atol=1e-12)
    circuit = replace(circuit, settings=circuit.settings + (several, none) + singles)
    t = oracle.exact_trajectory_tensor(circuit)
    tensor, probs = recursive_trajectory_tensor(circuit)
    assert len(t.tensor) == sum(len(s.observables) for s in circuit.settings)
    assert np.allclose(t.tensor, tensor, rtol=0, atol=1e-12)
    assert np.allclose(t.branch_probs, probs, rtol=0, atol=1e-12)


def test_walk_holds_one_row_per_true_history(monkeypatch):
    """On three 2-bit teleport layers (m = 6), where every true-outcome
    history has weight, no engine call inside the oracle takes or returns an
    array of more than 2**m rows, and the last layer's calls hold all 2**m."""
    circuit = build_teleport_circuit(3)
    rows = []
    for name, fn in list(vars(engine).items()):
        if inspect.isfunction(fn) and fn.__module__ == engine.__name__:
            def spy(*args, _real=fn, **kwargs):
                out = _real(*args, **kwargs)
                rows.extend(a.shape[0] for a in (*args, out) if isinstance(a, np.ndarray))
                return out
            monkeypatch.setattr(engine, name, spy)
    oracle.exact_trajectory_tensor(circuit)
    assert circuit.m == 6 and max(rows) == 1 << circuit.m


def test_walk_leaves_no_reference_cycle():
    """A call's value tables, tensor and rows are freed by reference counts
    when it returns: with the cyclic collector off, nothing is left for it."""
    circuit = build_ghz_circuit(3, 2)
    gc.collect()
    gc.disable()
    try:
        oracle.exact_trajectory_tensor(circuit)
        assert gc.collect() == 0
    finally:
        gc.enable()


SAMPLER_SHOTS = 20000


@given(ORACLE_RUNS, st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sampler_matches_oracle(run, seed):
    """On random circuits, noise models and weights, every shot estimate
    lies within 5 stderr of the oracle's mean of the estimator: the
    mitigated value for the weights drawn, the unmasked value without.  A
    zero stderr gets the bound that N equal shots allow instead."""
    circuit, noise, weights = run
    setting = circuit.settings[0]
    q = np.eye(1 << circuit.m)[0] if noise is None else noise.model.expand()
    t = oracle.exact_trajectory_tensor(circuit)
    result = run_shots(circuit, setting, SAMPLER_SHOTS, noise=noise, weights=weights,
                       seed=seed)
    values = setting.value_table()
    for b, est in enumerate(estimate_observables(result)):
        exact = t.mitigated(b, q, weights.alpha()) if weights is not None else t.masked(b, 0, q)
        if est.stderr == 0:
            # every accepted shot read one signed value in [-r, r], r = xi
            # max|v|.  Then, with probability at least 1 - 1e-9, the other
            # values have total mass at most ln(1e9) / N, and so move the
            # mean by at most 2 r ln(1e9) / N
            r = est.xi * np.abs(values[b][1]).max()
            assert abs(est.estimate - exact) <= 2 * r * np.log(1e9) / est.accepted
        else:
            assert abs(est.estimate - exact) <= 5 * est.stderr
