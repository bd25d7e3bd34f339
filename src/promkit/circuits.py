"""Circuit IR for dynamic (mid-circuit measurement + feedforward) circuits.

A DynamicCircuit is: preparation gates, then a sequence of feedforward layers
(each: optional unconditional pre-gates, a computational-basis measurement of
some qubits, a lookup table of gate sequences indexed by the reported outcome,
optional unconditional post-gates), then one or more terminal measurement
settings.  Gate set: arbitrary single-qubit unitaries plus CX.

Outcome bit order follows the package convention: the first qubit in a
layer's ``measured`` tuple is bit 0 (most significant) of the outcome index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bits import check_size

SQRT_HALF = 1.0 / math.sqrt(2.0)

_H = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_S = np.array([[1, 0], [0, 1j]])
_SDG = np.array([[1, 0], [0, -1j]])


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        # the engine applies CX by name and every other gate as a 2x2 matrix
        if self.name == "cx":
            if len(self.qubits) != 2 or self.matrix is not None:
                raise ValueError(f"cx takes two qubits and no matrix, got {self.qubits}")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError(f"repeated qubit in cx on {self.qubits}")
        elif len(self.qubits) != 1 or self.matrix is None or self.matrix.shape != (2, 2):
            raise ValueError(f"gate {self.name} must be one qubit with a 2x2 matrix "
                             f"(CX is the only multi-qubit gate), got {self.qubits}")

    @property
    def is_real(self) -> bool:
        if self.matrix is None or not np.iscomplexobj(self.matrix):
            return True
        return float(np.abs(self.matrix.imag).max()) == 0.0


def h(q: int) -> Gate:
    return Gate("h", (q,), _H)


def x(q: int) -> Gate:
    return Gate("x", (q,), _X)


def y(q: int) -> Gate:
    return Gate("y", (q,), _Y)


def z(q: int) -> Gate:
    return Gate("z", (q,), _Z)


def s(q: int) -> Gate:
    return Gate("s", (q,), _S)


def sdg(q: int) -> Gate:
    return Gate("sdg", (q,), _SDG)


def rx(theta: float, q: int) -> Gate:
    c, sn = math.cos(theta / 2), math.sin(theta / 2)
    return Gate("rx", (q,), np.array([[c, -1j * sn], [-1j * sn, c]]))


def ry(theta: float, q: int) -> Gate:
    c, sn = math.cos(theta / 2), math.sin(theta / 2)
    return Gate("ry", (q,), np.array([[c, -sn], [sn, c]]))


def rz(theta: float, q: int) -> Gate:
    return Gate("rz", (q,), np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]]))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target), None)


@dataclass
class FeedforwardLayer:
    """One measure-and-react round.

    ``table[v]`` is the gate sequence applied when the (mask-adjusted)
    reported outcome index is v; it must have exactly 2**len(measured)
    entries.  ``repeat``/``consensus`` configure QND repetition: each
    measurement is read out ``repeat`` times and the per-bit consensus
    ("majority", odd repeat; or "unanimous", disagreement discards the shot)
    replaces the single report.
    """

    measured: tuple[int, ...]
    table: tuple[tuple[Gate, ...], ...]
    pre_gates: tuple[Gate, ...] = ()
    post_gates: tuple[Gate, ...] = ()
    repeat: int = 1
    consensus: str = "none"

    def __post_init__(self):
        self.measured = tuple(self.measured)
        self.table = tuple(tuple(e) for e in self.table)
        self.pre_gates = tuple(self.pre_gates)
        self.post_gates = tuple(self.post_gates)
        if len(set(self.measured)) != len(self.measured):
            raise ValueError("repeated qubit in measured tuple")
        if len(self.table) != 1 << len(self.measured):
            raise ValueError(f"table must have {1 << len(self.measured)} entries, "
                             f"got {len(self.table)}")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if self.consensus not in ("none", "majority", "unanimous"):
            raise ValueError(f"unknown consensus mode {self.consensus!r}")
        if self.consensus == "majority" and self.repeat % 2 == 0:
            raise ValueError("majority consensus needs an odd repeat count")
        if self.consensus == "none" and self.repeat != 1:
            raise ValueError("repeat > 1 requires a consensus mode")

    @property
    def m(self) -> int:
        return len(self.measured)


def xor_feedback_table(qubits: tuple[int, ...]) -> tuple[tuple[Gate, ...], ...]:
    """Table applying X to every qubit whose outcome bit is 1 (reset feedback)."""
    k = len(qubits)
    check_size(k, "feedforward table")
    # one shared (immutable) X gate per qubit, and bits read from plain ints:
    # the table is built on every config set-up
    flips = [(x(q), 1 << (k - 1 - j)) for j, q in enumerate(qubits)]
    return tuple(tuple(g for g, bit in flips if v & bit) for v in range(1 << k))


class Observable:
    """Hermitian observable; shot estimation uses basis_gates + diagonal values."""

    support: tuple[int, ...]

    def norm2(self) -> float:
        """Spectral norm."""
        raise NotImplementedError

    def basis_gates(self) -> tuple[Gate, ...]:
        """Gates rotating the observable's eigenbasis to the computational basis."""
        raise NotImplementedError

    def values_on_outcomes(self, measured: tuple[int, ...]) -> np.ndarray:
        """Eigenvalue for every outcome index of a terminal measurement of
        ``measured`` (which must cover the support), *after* basis_gates."""
        raise NotImplementedError

    def apply(self, state: np.ndarray, n: int) -> np.ndarray:
        """O|psi> on a flat statevector (exact-oracle path; no basis change)."""
        raise NotImplementedError

    def expectation(self, state: np.ndarray, n: int) -> float:
        """<psi|O|psi> on a flat statevector (exact-oracle path)."""
        return float(np.vdot(state, self.apply(state, n)).real)


def _support_masks(measured: tuple[int, ...], support: tuple[int, ...]) -> np.ndarray:
    """Per-outcome-bit weights selecting the support qubits, MSB-first."""
    k = len(measured)
    pos = {q: j for j, q in enumerate(measured)}
    missing = [q for q in support if q not in pos]
    if missing:
        raise ValueError(f"terminal measurement does not cover qubits {missing}")
    mask = 0
    for q in support:
        mask |= 1 << (k - 1 - pos[q])
    return mask


_PAULI_MATS = {"I": np.eye(2), "X": _X, "Y": _Y, "Z": _Z}


class PauliString(Observable):
    """A signed Pauli string, e.g. -XYZ on qubits (0, 1, 2).

    ``label`` uses I/X/Y/Z per listed qubit.  Measurement bases: X via H,
    Y via S$^\\dagger$ then H; outcome eigenvalue is the parity of the
    measured bits on the non-identity support, times the sign.
    """

    def __init__(self, label: str, qubits: tuple[int, ...] | None = None, sign: int = 1):
        label = label.upper()
        if set(label) - set("IXYZ"):
            raise ValueError(f"bad Pauli label {label!r}")
        if qubits is None:
            qubits = tuple(range(len(label)))
        if len(qubits) != len(label):
            raise ValueError("label length must match qubit count")
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        self.label = label
        self.qubits = tuple(qubits)
        self.sign = sign
        self.support = tuple(q for q, p in zip(self.qubits, label) if p != "I")

    def __repr__(self):
        sgn = "-" if self.sign < 0 else ""
        return f"PauliString({sgn}{self.label}@{self.qubits})"

    def norm2(self) -> float:
        return 1.0

    def basis_gates(self) -> tuple[Gate, ...]:
        out = []
        for q, p in zip(self.qubits, self.label):
            if p == "X":
                out.append(h(q))
            elif p == "Y":
                out.extend((sdg(q), h(q)))
        return tuple(out)

    def values_on_outcomes(self, measured) -> np.ndarray:
        k = len(measured)
        if not self.support:
            return np.full(1 << k, float(self.sign))
        mask = _support_masks(tuple(measured), self.support)
        t = np.arange(1 << k, dtype=np.int64)
        par = np.bitwise_count(t & mask) & 1
        return self.sign * np.where(par == 1, -1.0, 1.0)

    def apply(self, state, n):
        from . import engine  # local import to avoid a cycle
        out = np.array(state, copy=True)
        for q, p in zip(self.qubits, self.label):
            if p != "I":
                out = engine.apply_gate(out[None, :], Gate(p.lower(), (q,), _PAULI_MATS[p]), n)[0]
        return self.sign * out


class ZeroProjector(Observable):
    """Projector onto |0...0> of the given qubits; diagonal, norm 1."""

    def __init__(self, qubits: tuple[int, ...]):
        self.qubits = tuple(qubits)
        self.support = self.qubits
        if not self.qubits:
            raise ValueError("projector needs at least one qubit")

    def __repr__(self):
        return f"ZeroProjector({self.qubits})"

    def norm2(self) -> float:
        return 1.0

    def basis_gates(self) -> tuple[Gate, ...]:
        return ()

    def values_on_outcomes(self, measured) -> np.ndarray:
        k = len(measured)
        mask = _support_masks(tuple(measured), self.support)
        t = np.arange(1 << k, dtype=np.int64)
        return np.where((t & mask) == 0, 1.0, 0.0)

    def apply(self, state, n):
        out = np.array(state, copy=True)
        idx = np.arange(out.size)
        mask = 0
        for q in self.qubits:
            mask |= 1 << (n - 1 - q)
        out[(idx & mask) != 0] = 0.0
        return out


@dataclass
class TerminalSetting:
    """One terminal measurement context: basis-change gates, measured qubits,
    and the observables (diagonal after the basis change) read from it."""

    name: str
    measured: tuple[int, ...]
    observables: tuple[tuple[str, Observable], ...]
    basis_gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        self.measured = tuple(self.measured)
        self.observables = tuple(self.observables)
        self.basis_gates = tuple(self.basis_gates)

    def value_table(self) -> list[tuple[str, np.ndarray]]:
        return [(name, obs.values_on_outcomes(self.measured)) for name, obs in self.observables]


# every packed syndrome, report and mask stays a non-negative int64
MAX_MID_BITS = 63


@dataclass
class DynamicCircuit:
    """``aggregate`` optionally names a quantity derived from every setting:
    (name, scale), estimated as scale times the sum of all observables'
    expectations (e.g. a GHZ fidelity from its stabilizers)."""

    n: int
    prep: tuple[Gate, ...] = ()
    layers: tuple[FeedforwardLayer, ...] = ()
    settings: tuple[TerminalSetting, ...] = ()
    aggregate: tuple[str, float] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        self.prep = tuple(self.prep)
        self.layers = tuple(self.layers)
        self.settings = tuple(self.settings)
        for g in self._structural_gates():
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"gate {g.name} touches qubit {q} outside 0..{self.n - 1}")
        for kind, owners in (("layer", self.layers), ("setting", self.settings)):
            for i, owner in enumerate(owners):
                for q in owner.measured:
                    if not 0 <= q < self.n:
                        raise ValueError(f"{kind} {i} measures qubit {q} "
                                         f"outside 0..{self.n - 1}")
        if self.m > MAX_MID_BITS:
            raise ValueError(f"circuit has {self.m} mid-circuit bits; at most "
                             f"{MAX_MID_BITS} fit the int64 that syndromes and masks "
                             "pack into")

    def _structural_gates(self):
        yield from self.prep
        for layer in self.layers:
            yield from layer.pre_gates
            for entry in layer.table:
                yield from entry
            yield from layer.post_gates

    @property
    def m(self) -> int:
        """Total mid-circuit measured bits."""
        return sum(layer.m for layer in self.layers)

    @property
    def layer_widths(self) -> list[int]:
        return [layer.m for layer in self.layers]

    def cx_count(self) -> int:
        """CX gates in the unconditional circuit body (tables excluded)."""
        body = list(self.prep)
        for layer in self.layers:
            body.extend(layer.pre_gates)
            body.extend(layer.post_gates)
        return sum(1 for g in body if g.name == "cx")

    def two_qubit_depth(self) -> int:
        """Greedy ASAP depth counting only two-qubit gates."""
        depth = [0] * self.n
        body = list(self.prep)
        for layer in self.layers:
            body.extend(layer.pre_gates)
            body.extend(layer.post_gates)
        for g in body:
            if len(g.qubits) < 2:
                continue
            d = max(depth[q] for q in g.qubits) + 1
            for q in g.qubits:
                depth[q] = d
        return max(depth, default=0)

    def is_real(self) -> bool:
        return all(g.is_real for g in self._structural_gates())
