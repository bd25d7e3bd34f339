"""Hypothesis strategies for random dynamic circuits with noise and weights.

``runs()`` draws a (circuit, noise, weights) triple in which the noise and
the weights fit the circuit.  Its keyword arguments narrow what is drawn,
for checks that only hold on part of the space (the exact oracle, say,
models no QND repetition and at most ``oracle.MAX_M`` measured bits).
"""
import math

import numpy as np
from hypothesis import strategies as st

from promkit.circuits import (DynamicCircuit, FeedforwardLayer, Gate, PauliString,
                              TerminalSetting, cx, h, rx, ry, rz, s, sdg, x, z)
from promkit.mitigation import TensoredWeights, solve_weights
from promkit.readout import ConfusionMatrix, GeneralModel, TensoredModel
from promkit.simulator import NoiseInjector

FIXED = {"h": h, "s": s, "sdg": sdg, "x": x, "z": z}
ROTATIONS = {"rx": rx, "ry": ry, "rz": rz}
CONSENSUS = [(1, "none"), (3, "majority"), (2, "unanimous"), (3, "unanimous")]
NOISE_KINDS = ["none", "model", "matrices", "bfa", "one-hot"]


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
def layers(draw, n, consensus=CONSENSUS):
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
    repeat, mode = draw(st.sampled_from(consensus))
    return FeedforwardLayer(measured=measured, table=table,
                            pre_gates=draw(gates(n, 3)), post_gates=draw(gates(n, 2)),
                            repeat=repeat, consensus=mode)


@st.composite
def circuits(draw, max_m=None, consensus=CONSENSUS, min_layers=0):
    """A circuit of ``min_layers`` to three layers and one terminal setting
    that reads the parity of its measured qubits; ``max_m`` (at least 3)
    drops the layers from the first one that would take the measured bits
    past it."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    measured = tuple(draw(st.permutations(range(n)))[:k])
    observables = (("z", PauliString("Z" * k, measured)),) if k else ()
    setting = TerminalSetting(name="t", measured=measured, observables=observables,
                              basis_gates=draw(gates(n, 3)))
    prep = draw(gates(n, 5))
    drawn = draw(st.lists(layers(n, consensus), min_size=min_layers, max_size=3))
    widths = np.cumsum([layer.m for layer in drawn])
    kept = drawn if max_m is None else drawn[:int(np.count_nonzero(widths <= max_m))]
    return DynamicCircuit(n=n, prep=prep, layers=tuple(kept), settings=(setting,))


def _distribution(rng, size):
    p = rng.random(size) ** 3
    return p / p.sum()


def _confusion(rng, k):
    cols = [0.7 * np.eye(1 << k)[:, t] + 0.3 * _distribution(rng, 1 << k)
            for t in range(1 << k)]
    return ConfusionMatrix(np.stack(cols, axis=1))


@st.composite
def runs(draw, kinds=NOISE_KINDS, terminal=True, **circuit_args):
    """(circuit, noise, weights) with noise and weights fitting the circuit.

    ``kinds`` are the noise kinds drawn from; ``terminal=False`` draws no
    terminal readout channel; ``circuit_args`` go to ``circuits``."""
    circuit = draw(circuits(**circuit_args))
    setting = circuit.settings[0]
    m = circuit.m
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(kinds)) if m else "none"
    channel = None
    if terminal and setting.measured and draw(st.booleans()):
        channel = TensoredModel(rng.uniform(0.0, 0.2, len(setting.measured)))
    noise, model = None, None
    if kind == "model":
        model = (GeneralModel(_distribution(rng, 1 << m) * 0.3 + 0.7 * np.eye(1 << m)[0])
                 if draw(st.booleans()) else TensoredModel(rng.uniform(0.0, 0.3, m)))
        noise = NoiseInjector(model=model, terminal=channel)
    elif kind in ("matrices", "bfa"):
        noise = NoiseInjector(matrices=[_confusion(rng, layer.m) for layer in circuit.layers],
                              bfa=kind == "bfa", terminal=channel)
    elif kind == "one-hot":  # one syndrome over all layers, the same every shot
        noise = NoiseInjector(model=GeneralModel(np.eye(1 << m)[rng.integers(1 << m)]),
                              terminal=channel)
    elif channel is not None:
        noise = NoiseInjector(terminal=channel)
    weights = None
    if m and draw(st.booleans()):
        weights = (solve_weights(model) if model is not None
                   else TensoredWeights(rng.uniform(0.0, 0.3, m)))
    return circuit, noise, weights
