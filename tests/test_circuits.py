import numpy as np
import pytest

from promkit.circuits import (DynamicCircuit, FeedforwardLayer, Gate, PauliString,
                              TerminalSetting, ZeroProjector, cx, h, rx, ry, rz,
                              s, sdg, x, xor_feedback_table, y, z)


@pytest.mark.parametrize("gate", [h(0), x(0), y(0), z(0), s(0), sdg(0),
                                  rx(0.3, 0), ry(1.1, 0), rz(-0.7, 0)])
def test_single_qubit_gates_unitary(gate):
    m = gate.matrix
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_gate_is_real():
    assert h(0).is_real
    assert x(0).is_real
    assert ry(0.4, 0).is_real
    assert cx(0, 1).is_real
    assert not y(0).is_real
    assert not rz(0.4, 0).is_real
    assert not s(0).is_real


def test_rotation_conventions():
    # rz(theta) = diag(e^{-i theta/2}, e^{+i theta/2})
    m = rz(0.8, 0).matrix
    assert m[0, 0] == pytest.approx(np.exp(-0.4j))
    assert m[1, 1] == pytest.approx(np.exp(0.4j))
    # rx(pi) |0> = -i |1>
    v = rx(np.pi, 0).matrix @ np.array([1, 0])
    assert np.allclose(v, [0, -1j], atol=1e-12)


def test_cx_has_no_matrix():
    g = cx(0, 1)
    assert g.matrix is None
    assert g.qubits == (0, 1)
    with pytest.raises(ValueError):
        cx(1, 1)


def test_only_cx_has_two_qubits():
    """The engine applies CX by name and every other gate as a 2x2 matrix,
    so no other multi-qubit gate can be built."""
    swap, one = np.eye(4)[[0, 2, 1, 3]], h(0).matrix
    for bad in (lambda: Gate("swap", (0, 1), swap), lambda: Gate("h2", (0, 1), one),
                lambda: Gate("cx", (0,)), lambda: Gate("cx", (0, 1), swap),
                lambda: Gate("h", (0,)), lambda: Gate("u", (0,), swap),
                lambda: Gate("id", ())):
        with pytest.raises(ValueError):
            bad()
    assert Gate("u", (2,), one).qubits == (2,)


class TestFeedforwardLayer:
    def test_table_size_checked(self):
        with pytest.raises(ValueError):
            FeedforwardLayer(measured=(0, 1), table=((), ()))  # needs 4 entries

    def test_consensus_rules(self):
        with pytest.raises(ValueError):
            FeedforwardLayer(measured=(0,), table=((), ()), repeat=2)  # no consensus
        with pytest.raises(ValueError):
            FeedforwardLayer(measured=(0,), table=((), ()), repeat=2,
                             consensus="majority")  # even majority
        with pytest.raises(ValueError):
            FeedforwardLayer(measured=(0,), table=((), ()), repeat=3,
                             consensus="sometimes")
        layer = FeedforwardLayer(measured=(0,), table=((), ()), repeat=3,
                                 consensus="majority")
        assert layer.m == 1

    def test_xor_feedback_table(self):
        table = xor_feedback_table((2, 5))
        assert len(table) == 4
        assert table[0] == ()
        assert [g.qubits[0] for g in table[1]] == [5]   # bit 1 = second qubit
        assert [g.qubits[0] for g in table[2]] == [2]
        assert sorted(g.qubits[0] for g in table[3]) == [2, 5]
        assert all(g.name == "x" for entry in table for g in entry)


class TestPauliString:
    def test_values_z(self):
        ob = PauliString("ZZ", (0, 1))
        vals = ob.values_on_outcomes((0, 1))
        assert vals.tolist() == [1, -1, -1, 1]

    def test_values_with_identity_and_sign(self):
        ob = PauliString("IZ", (0, 1), sign=-1)
        vals = ob.values_on_outcomes((0, 1))
        assert vals.tolist() == [-1, 1, -1, 1]

    def test_values_respect_measured_order(self):
        ob = PauliString("Z", (1,))
        vals = ob.values_on_outcomes((0, 1))  # qubit 1 is the low bit
        assert vals.tolist() == [1, -1, 1, -1]

    def test_basis_gates(self):
        gates = PauliString("XY", (0, 1)).basis_gates()
        names = [(g.name, g.qubits[0]) for g in gates]
        assert ("h", 0) in names
        assert ("sdg", 1) in names and ("h", 1) in names

    def test_norm(self):
        assert PauliString("XIZ").norm2() == 1.0

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            PauliString("AB")
        with pytest.raises(ValueError):
            PauliString("XX", (0,))


def test_zero_projector_values():
    ob = ZeroProjector((0,))
    vals = ob.values_on_outcomes((0, 1))
    assert vals.tolist() == [1, 1, 0, 0]
    vals = ZeroProjector((0, 1)).values_on_outcomes((0, 1))
    assert vals.tolist() == [1, 0, 0, 0]
    assert ZeroProjector((0,)).norm2() == 1.0


def test_zero_projector_requires_measured_support():
    with pytest.raises(ValueError):
        ZeroProjector((3,)).values_on_outcomes((0, 1))


def test_terminal_setting_value_table():
    st = TerminalSetting(name="t", measured=(0, 1),
                         observables=(("zz", PauliString("ZZ", (0, 1))),
                                      ("p0", ZeroProjector((0,)))))
    table = st.value_table()
    assert [name for name, _ in table] == ["zz", "p0"]
    assert table[0][1].tolist() == [1, -1, -1, 1]


class TestDynamicCircuit:
    def circuit(self):
        layer = FeedforwardLayer(measured=(0,), table=((), (x(1),)),
                                 pre_gates=(cx(0, 1),), post_gates=(h(0),))
        return DynamicCircuit(n=2, prep=(h(0), cx(0, 1)), layers=(layer,))

    def test_counts(self):
        c = self.circuit()
        assert c.m == 1
        assert c.layer_widths == [1]
        assert c.cx_count() == 2          # prep + pre_gates; table excluded

    def test_two_qubit_depth(self):
        c = DynamicCircuit(n=3, prep=(cx(0, 1), cx(1, 2), cx(0, 1)))
        assert c.two_qubit_depth() == 3
        c = DynamicCircuit(n=4, prep=(cx(0, 1), cx(2, 3)))
        assert c.two_qubit_depth() == 1

    def test_is_real(self):
        assert self.circuit().is_real()
        withs = DynamicCircuit(n=1, prep=(s(0),))
        assert not withs.is_real()

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicCircuit(n=1, prep=(h(1),))  # qubit out of range
        with pytest.raises(ValueError):
            DynamicCircuit(n=0)
        with pytest.raises(ValueError, match="layer 0 measures qubit 2"):
            DynamicCircuit(n=2, layers=(FeedforwardLayer(measured=(2,), table=((), ())),))
        with pytest.raises(ValueError, match="setting 0 measures qubit -1"):
            DynamicCircuit(n=2, settings=(TerminalSetting("t", (0, -1), ()),))


def test_fanout_depth_from_center():
    # fan-out from the middle halves the two-qubit depth vs a chain
    from promkit.experiments import build_unitary_ghz
    chain_like = build_unitary_ghz(6)
    assert chain_like.cx_count() == 5
    assert chain_like.two_qubit_depth() == 3
