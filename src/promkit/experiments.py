"""Experiment families: feedforward reset, entangled-state preparation via
mid-circuit parity checks, staged teleportation, repetition baselines, and
calibration.

Each builder returns a ``DynamicCircuit`` that carries its own terminal
settings.  The GHZ builders also carry the stabilizer settings and the
``aggregate`` (name, scale) of the fidelity derived from them: ``config``
reports it as ``scale`` times the sum of the settings' estimates, and the
exact value is ``scale`` times the sum of the oracle's ideal values of
every setting's observables.

``EXPERIMENTS`` maps each config experiment name to its builder, whose
signature is the one statement of the experiment's parameters: each name is
a config key, its annotation (``int`` or ``float``) says how ``config``
coerces the value, and a parameter with no default is required.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bits import check_size, index_to_bits
from .circuits import (DynamicCircuit, FeedforwardLayer, Gate, PauliString,
                       TerminalSetting, ZeroProjector, cx, h, ry, rx, rz, sdg,
                       x, xor_feedback_table, z)
from .readout import calibrate
from .simulator import NoiseInjector, run_shots


# ---------------------------------------------------------------------------
# reset with spectators

SPECTATOR_ANGLE = 1.1


def build_reset_circuit(n: int = 1) -> DynamicCircuit:
    """Prepare n system qubits in |+>, measure them all, and X-feedback to |0...0>.

    Two spectator qubits are rotated by ``SPECTATOR_ANGLE`` and un-rotated
    after the feedforward fires; their |00> projector witnesses that the
    classical round leaves untouched qubits alone.
    """
    check_size(n, "feedforward table")  # both before any loop over the qubits
    check_size(n + 2, "statevector")
    spec0, spec1 = n, n + 1
    system = tuple(range(n))
    prep = (tuple(h(q) for q in system)
            + (ry(SPECTATOR_ANGLE, spec0), ry(SPECTATOR_ANGLE, spec1)))
    layer = FeedforwardLayer(
        measured=system,
        table=xor_feedback_table(system),
        post_gates=(ry(-SPECTATOR_ANGLE, spec0), ry(-SPECTATOR_ANGLE, spec1)),
    )
    setting = TerminalSetting(
        name="projectors",
        measured=tuple(range(n + 2)),
        observables=(("system_zeros", ZeroProjector(system)),
                     ("spectator_zeros", ZeroProjector((spec0, spec1)))),
    )
    return DynamicCircuit(n=n + 2, prep=prep, layers=(layer,), settings=(setting,))


# ---------------------------------------------------------------------------
# GHZ preparation: unitary fan-out and measurement-assisted block merge

def _fanout(qubits: tuple[int, ...]) -> tuple[Gate, ...]:
    """H + CX fan-out from the center of ``qubits``; len-1 CX, depth ceil(len/2)."""
    center = (len(qubits) - 1) // 2
    gates = [h(qubits[center])]
    for j in range(center, len(qubits) - 1):
        gates.append(cx(qubits[j], qubits[j + 1]))
    for j in range(center, 0, -1):
        gates.append(cx(qubits[j], qubits[j - 1]))
    return tuple(gates)


def build_unitary_ghz(n: int) -> DynamicCircuit:
    """GHZ_n by unitary fan-out: n-1 CX, two-qubit depth ceil(n/2)."""
    if n < 2:
        raise ValueError("need at least two qubits")
    readout = _ghz_readout(n)  # checks n before the fan-out loops over it
    return DynamicCircuit(n=n, prep=_fanout(tuple(range(n))), **readout)


def build_ghz_circuit(b: int, p: int) -> DynamicCircuit:
    """GHZ over b(p+1) qubits from b unitary blocks merged by parity checks.

    b blocks of p qubits are fanned out independently; the ancilla after each
    of the first b-1 blocks accumulates the parity of the two adjacent block
    boundaries and is measured.  One feedforward round aligns every block to
    block 0 (prefix-parity X strings) and returns each measured ancilla to
    |0>; a final CX per ancilla absorbs it into the entangled state.  Gate
    budget: b(p+2)-2 CX and b-1 mid-circuit measurements.
    """
    if b < 2 or p < 1:
        raise ValueError("need b >= 2 blocks of p >= 1 qubits")
    check_size(b - 1, "feedforward table")  # both checks before any loop over the qubits
    stride = p + 1
    readout = _ghz_readout(b * stride)
    blocks = [tuple(range(i * stride, i * stride + p)) for i in range(b)]
    ancillas = [i * stride + p for i in range(b)]

    prep: list[Gate] = []
    for block in blocks:
        prep.extend(_fanout(block))

    parity_checks: list[Gate] = []
    for i in range(b - 1):
        parity_checks.append(cx(blocks[i][-1], ancillas[i]))
        parity_checks.append(cx(blocks[i + 1][0], ancillas[i]))

    measured = tuple(ancillas[:-1])
    table = []
    for v in range(1 << (b - 1)):
        bits = index_to_bits(v, b - 1)
        gates: list[Gate] = []
        prefix = 0
        for j in range(1, b):
            prefix ^= int(bits[j - 1])
            if prefix:
                gates.extend(x(q) for q in blocks[j])
        gates.extend(x(ancillas[i]) for i in range(b - 1) if bits[i])  # ancilla reset
        table.append(tuple(gates))

    absorb = tuple(cx(blocks[i][-1], ancillas[i]) for i in range(b))
    layer = FeedforwardLayer(measured=measured, table=tuple(table),
                             pre_gates=tuple(parity_checks), post_gates=absorb)
    return DynamicCircuit(n=b * stride, prep=tuple(prep), layers=(layer,), **readout)


# ---------------------------------------------------------------------------
# GHZ stabilizers

_Z_STRING = str.maketrans("01", "IZ")
_XY_STRING = str.maketrans("01", "XY")


def _ghz_stabilizer_labels(n: int) -> list[tuple[str, int]]:
    """(label, sign) of the 2**n stabilizers of GHZ_n, Z-strings first.

    Z-strings of even weight, plus X/Y-strings with Y on an even-size subset
    and sign (-1)^(|Y subset| / 2).
    """
    even = [format(v, f"0{n}b") for v in range(1 << n) if v.bit_count() % 2 == 0]
    return ([(bits.translate(_Z_STRING), 1) for bits in even]
            + [(bits.translate(_XY_STRING), -1 if bits.count("1") % 4 else 1)
               for bits in even])


def ghz_stabilizer_settings(n: int) -> list[TerminalSetting]:
    """Measurement settings covering all stabilizers.

    All Z-strings share the computational basis; each X/Y-string needs its
    own per-qubit basis (H, or Sdg+H where it has a Y).
    """
    # 2**(n-1) + 1 settings of up to 2n basis gates each
    check_size(n + (n - 1).bit_length(), "stabilizer settings x gates")
    labels = _ghz_stabilizer_labels(n)
    z_labels, xy_labels = labels[:len(labels) // 2], labels[len(labels) // 2:]
    measured = tuple(range(n))
    hs = [h(q) for q in measured]
    basis = {"X": [(g,) for g in hs], "Y": [(sdg(q), g) for q, g in enumerate(hs)]}
    settings = [TerminalSetting(
        name="z", measured=measured,
        observables=tuple((label, PauliString(label)) for label, _ in z_labels))]
    for label, sign in xy_labels:
        name = ("-" if sign < 0 else "") + label
        settings.append(TerminalSetting(
            name=name, measured=measured,
            observables=((name, PauliString(label, sign=sign)),),
            basis_gates=tuple(g for q, p in enumerate(label) for g in basis[p][q])))
    return settings


def _ghz_readout(n: int) -> dict:
    """Settings covering every GHZ_n stabilizer, and the fidelity derived
    from them: 2^-n times the sum of all stabilizer expectations."""
    return {"settings": ghz_stabilizer_settings(n), "aggregate": ("fidelity", 2.0 ** -n)}


# ---------------------------------------------------------------------------
# staged teleportation

def _xyz_settings(qubit: int) -> tuple[TerminalSetting, ...]:
    """Settings "x", "y" and "z", each reading its Pauli on ``qubit``."""
    settings = []
    for label in ("X", "Y", "Z"):
        ob = PauliString(label, (qubit,))
        settings.append(TerminalSetting(name=label.lower(), measured=(qubit,),
                                        observables=((label, ob),),
                                        basis_gates=ob.basis_gates()))
    return tuple(settings)


def build_teleport_circuit(k: int, phi_x: float = math.pi / 8,
                           phi_z: float = 3 * math.pi / 8) -> DynamicCircuit:
    """Teleport an input state through k successive measurement stages.

    Qubit 0 carries exp(-i phi_z Z) exp(-i phi_x X)|0>; stage j consumes the
    entangled pair (2j-1, 2j) and two measured bits, applying the usual X/Z
    corrections on qubit 2j.  Terminal settings read X, Y, Z on qubit 2k.
    """
    if k < 1:
        raise ValueError("need at least one stage")
    n = 2 * k + 1
    check_size(n, "statevector")
    prep: list[Gate] = [rx(2 * phi_x, 0), rz(2 * phi_z, 0)]
    for j in range(1, k + 1):
        prep.extend((h(2 * j - 1), cx(2 * j - 1, 2 * j)))

    layers = []
    for j in range(1, k + 1):
        src, mid, dst = 2 * j - 2, 2 * j - 1, 2 * j
        table = []
        for v in range(4):
            gates = []
            if v & 1:          # bit of the middle qubit
                gates.append(x(dst))
            if v >> 1:         # bit of the source qubit
                gates.append(z(dst))
            table.append(tuple(gates))
        layers.append(FeedforwardLayer(measured=(src, mid), table=tuple(table),
                                       pre_gates=(cx(src, mid), h(src))))

    return DynamicCircuit(n=n, prep=tuple(prep), layers=tuple(layers),
                          settings=_xyz_settings(n - 1))


def build_unitary_transport(k: int, phi_x: float = math.pi / 8,
                            phi_z: float = 3 * math.pi / 8) -> DynamicCircuit:
    """Unitary baseline for k-stage teleportation: 2k SWAPs = 6k CX."""
    n = 2 * k + 1
    check_size(n, "statevector")
    prep: list[Gate] = [rx(2 * phi_x, 0), rz(2 * phi_z, 0)]
    for q in range(n - 1):
        prep.extend((cx(q, q + 1), cx(q + 1, q), cx(q, q + 1)))
    return DynamicCircuit(n=n, prep=tuple(prep), settings=_xyz_settings(n - 1))


# ---------------------------------------------------------------------------
# repetition baselines

def apply_rep_strategy(circuit: DynamicCircuit, repeat: int, mode: str) -> DynamicCircuit:
    """Replace every mid-circuit measurement by ``repeat`` QND readouts.

    mode "majority" takes the per-bit majority (odd repeat); "unanimous"
    requires agreement and discards the shot otherwise.
    """
    layers = tuple(replace(layer, repeat=repeat, consensus=mode)
                   for layer in circuit.layers)
    return replace(circuit, layers=layers)


# ---------------------------------------------------------------------------
# calibration

def build_calibration_circuit(m: int) -> DynamicCircuit:
    """All-zeros preparation, measure every bit, no feedback.

    Under bit-flip averaging the reported outcome is exactly the syndrome.
    """
    check_size(m, "feedforward table")
    layer = FeedforwardLayer(measured=tuple(range(m)),
                             table=tuple(() for _ in range(1 << m)))
    setting = TerminalSetting(name="none", measured=(), observables=())
    return DynamicCircuit(n=m, layers=(layer,), settings=(setting,))


def run_calibration(m: int, shots: int, *, noise: NoiseInjector,
                    seed: int = 0, workers: int = 1) -> np.ndarray:
    """Estimate the mid-circuit syndrome distribution from the calibration
    circuit.  It measures no terminal qubit, so a terminal channel is
    dropped: it would draw nothing."""
    circuit = build_calibration_circuit(m)
    result = run_shots(circuit, circuit.settings[0], shots,
                       noise=replace(noise, terminal=None), seed=seed, workers=workers)
    return calibrate(result.layer_reported_counts[0])


# ---------------------------------------------------------------------------
# registry

EXPERIMENTS = {"reset": build_reset_circuit, "ghz": build_ghz_circuit,
               "ghz-unitary": build_unitary_ghz, "teleport": build_teleport_circuit,
               "transport": build_unitary_transport, "calibration": build_calibration_circuit}
