import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ScalarAliasSampler, apply_circuit_dense, apply_x_masks_by_loop,
                     measure_by_count, sample_reported_by_mask, split_by_unique)
from promkit import engine
from promkit.bits import AliasSampler
from promkit.circuits import cx, h, rx, ry, rz, s, sdg, x, y, z
from promkit.readout import ConfusionMatrix


def random_gates(rng, n, count):
    makers = [lambda q: h(q), lambda q: x(q), lambda q: y(q), lambda q: z(q),
              lambda q: s(q), lambda q: sdg(q),
              lambda q: rx(rng.uniform(0, 2 * np.pi), q),
              lambda q: ry(rng.uniform(0, 2 * np.pi), q),
              lambda q: rz(rng.uniform(0, 2 * np.pi), q)]
    gates = []
    for _ in range(count):
        if n >= 2 and rng.random() < 0.35:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cx(int(a), int(b)))
        else:
            gates.append(makers[rng.integers(len(makers))](int(rng.integers(n))))
    return gates


@given(st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_gates_match_dense_kron(n, seed):
    rng = np.random.default_rng(seed)
    gates = random_gates(rng, n, 8)
    fast = engine.simulate_gates(gates, n)
    slow = apply_circuit_dense(gates, n)
    assert np.allclose(fast, slow, atol=1e-10)


def test_batched_matches_single():
    rng = np.random.default_rng(1)
    gates = random_gates(rng, 3, 10)
    batch = engine.zero_states(4, 3, dtype=np.complex128)
    batch = engine.apply_gates(batch, gates, 3)
    single = engine.simulate_gates(gates, 3)
    for row in batch:
        assert np.allclose(row, single, atol=1e-12)


def test_float32_path_accuracy():
    rng = np.random.default_rng(2)
    # real gates only so the float32 real path applies
    gates = [g for g in random_gates(rng, 4, 30) if g.is_real]
    exact = engine.apply_gates(engine.zero_states(1, 4, dtype=np.float64), gates, 4)
    fast = engine.apply_gates(engine.zero_states(1, 4, dtype=np.float32), gates, 4)
    assert fast.dtype == np.float32
    assert np.allclose(fast, exact, atol=1e-5)


def test_complex_gate_on_real_batch_raises():
    states = engine.zero_states(2, 1, dtype=np.float32)
    with pytest.raises(TypeError):
        engine.apply_gates(states, [s(0)], 1)


def test_measure_collapses_and_normalizes():
    states = engine.zero_states(512, 1, dtype=np.complex128)
    states = engine.apply_gates(states, [h(0)], 1)
    rng = np.random.default_rng(3)
    collapsed, outcomes, branch = engine.measure(states, (0,), 1, rng, rows=np.arange(512))
    states = engine.expand(*collapsed, (0,), 1)
    assert set(np.unique(outcomes)) <= {0, 1}
    # one shot per row, so each keeps its own row
    assert np.array_equal(branch, np.arange(512))
    # collapsed states are basis states with unit norm
    norms = (np.abs(states) ** 2).sum(axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    for row, o in zip(states, outcomes):
        assert abs(row[o]) == pytest.approx(1.0, abs=1e-12)
    # roughly balanced outcomes
    assert 0.35 < outcomes.mean() < 0.65


def test_measure_statistics_biased_state():
    # amplitude sqrt(0.9)|0> + sqrt(0.1)|1>
    states = np.tile(np.array([np.sqrt(0.9), np.sqrt(0.1)], dtype=np.complex128),
                     (20_000, 1))
    rng = np.random.default_rng(4)
    _, outcomes, _ = engine.measure(states, (0,), 1, rng, rows=np.arange(20_000))
    assert outcomes.mean() == pytest.approx(0.1, abs=0.01)


def test_measure_subset_ordering():
    # prepare |q0 q1 q2> = |0 1 0>, measure (2, 1): bits should read (0, 1)
    states = engine.zero_states(1, 3, dtype=np.complex128)
    states = engine.apply_gates(states, [x(1)], 3)
    _, outcomes, _ = engine.measure(states, (2, 1), 3, np.random.default_rng(0),
                                    rows=np.arange(1))
    assert outcomes[0] == 0b01


def test_apply_x_masks_matches_gates():
    rng = np.random.default_rng(5)
    gates = random_gates(rng, 3, 6)
    base = engine.apply_gates(engine.zero_states(4, 3, dtype=np.complex128), gates, 3)
    masks = np.array([0b00, 0b01, 0b10, 0b11])
    flipped = engine.apply_x_masks(base.copy(), (0, 2), masks, 3)
    # row k should equal base with X applied per mask bit (qubit 0 high bit)
    for k, mask in enumerate(masks):
        want = base[k].copy().reshape(2, 2, 2)
        if (mask >> 1) & 1:
            want = want[::-1, :, :]
        if mask & 1:
            want = want[:, :, ::-1]
        assert np.allclose(flipped[k], want.reshape(-1), atol=1e-12)


def test_measurement_determinism():
    states = engine.apply_gates(engine.zero_states(64, 2, dtype=np.complex128),
                                [h(0), h(1)], 2)
    rows = np.arange(64)
    _, o1, _ = engine.measure(states.copy(), (0, 1), 2, np.random.default_rng(9), rows=rows)
    _, o2, _ = engine.measure(states.copy(), (0, 1), 2, np.random.default_rng(9), rows=rows)
    assert np.array_equal(o1, o2)


class _TopRng:
    """Stub generator whose every uniform draw is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class _FixedRng:
    """Stub generator that hands out the given uniform draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, size):
        assert size == self.draws.size
        return self.draws.copy()


def test_measure_rounding_gap_takes_last_possible_outcome():
    # the normalized cumulative distribution of this state ends just below
    # the draw, and its last outcome has probability zero
    state = np.array([[0.8641355854905248, 0.1824995720531056, 0.46900276767774135, 0.0]])
    probs = np.square(state) / np.square(state).sum()
    assert np.cumsum(probs)[-1] < np.nextafter(1.0, 0.0)
    collapsed, outcomes, _ = engine.measure(state.copy(), (0, 1), 2, _TopRng(),
                                            rows=np.arange(1))
    assert outcomes[0] == 2
    assert np.allclose(engine.expand(*collapsed, (0, 1), 2), [[0.0, 0.0, 1.0, 0.0]],
                       rtol=0, atol=1e-12)


def test_measure_rows_read_each_shot_against_its_row():
    # row 0 is |00>, row 1 is |11>; shots map to rows 1, 0, 1
    states = np.zeros((2, 4), dtype=np.complex128)
    states[0, 0] = states[1, 3] = 1.0
    rows = np.array([1, 0, 1])
    collapsed, outcomes, branch = engine.measure(states, (0, 1), 2,
                                                 np.random.default_rng(0), rows=rows)
    assert outcomes.tolist() == [3, 0, 3]
    assert branch.tolist() == [1, 0, 1]
    assert np.array_equal(engine.expand(*collapsed, (0, 1), 2), states)
    _, drawn, none = engine.measure(states, (0, 1), 2, np.random.default_rng(0),
                                    rows=rows, collapse=False)
    assert drawn.tolist() == [3, 0, 3] and none is None


def measure_expanded(states, qubits, n, rng, rows):
    """``engine.measure`` with its collapsed rows expanded to full rows."""
    collapsed, outcomes, branch = engine.measure(states, qubits, n, rng, rows=rows)
    return engine.expand(*collapsed, qubits, n), outcomes, branch


def _sparse_rows(rng, rows, k):
    """Real amplitude rows over k qubits, about a third of outcomes at zero
    probability, and the normalized cumulative rows ``measure`` forms."""
    p = rng.random((rows, 1 << k)) ** 2
    p[rng.random(p.shape) < 0.35] = 0.0
    p[np.arange(rows), rng.integers(0, 1 << k, rows)] += 0.1
    states = np.sqrt(p)
    probs = np.square(np.abs(states))
    cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    return states, cum


@pytest.mark.parametrize("k, rows, shots", [(0, 3, 50), (1, 5, 400), (3, 7, 600),
                                            (6, 4, 900), (8, 2, 300)])
def test_measure_descent_matches_count(k, rows, shots):
    rng = np.random.default_rng(k)
    states, cum = _sparse_rows(rng, rows, k)
    shot_rows = rng.integers(0, rows, shots)
    # a third of the draws sit exactly on an entry of their row's cumulative
    # distribution, a few just below one, and a few on its last entry
    u = rng.random(shots)
    tie = rng.random(shots) < 0.35
    u[tie] = cum[shot_rows[tie], rng.integers(0, 1 << k, tie.sum())]
    below = rng.random(shots) < 0.1
    u[below] = np.nextafter(cum[shot_rows[below], rng.integers(0, 1 << k, below.sum())], 0.0)
    top = rng.random(shots) < 0.05
    u[top] = cum[shot_rows[top], -1]
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    qubits = tuple(range(k))
    got = measure_expanded(states.copy(), qubits, k, _FixedRng(u), rows=shot_rows)
    want = measure_by_count(states.copy(), qubits, k, _FixedRng(u), rows=shot_rows)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    _, outcomes, _ = engine.measure(states[shot_rows], qubits, k, _FixedRng(u),
                                    rows=np.arange(shots))
    assert np.array_equal(outcomes, want[1])


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_measure_matches_count_on_random_states(n, seed):
    rng = np.random.default_rng(seed)
    base = engine.apply_gates(engine.zero_states(3, n), random_gates(rng, n, 8), n)
    qubits = tuple(int(q) for q in rng.permutation(n)[:rng.integers(1, n + 1)])
    rows = rng.integers(0, 3, 200)
    got = measure_expanded(base.copy(), qubits, n, np.random.default_rng(seed), rows=rows)
    want = measure_by_count(base.copy(), qubits, n, np.random.default_rng(seed), rows=rows)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


@pytest.mark.parametrize("rows, width, shots", [(1, 2, 1), (3, 3, 100), (40, 4, 160),
                                                (41, 4, 160), (300, 8, 8192), (2, 9, 100)])
def test_split_dense_matches_unique(rows, width, shots):
    # (40, 4, 160) is at the 4 x shots cutoff, (41, 4, 160) just above it
    rng = np.random.default_rng(rows + width)
    shot_rows = rng.integers(0, rows, shots)
    shot_rows[0] = rows - 1
    values = rng.integers(0, 1 << width, shots)
    got = engine.split(shot_rows, values, width)
    want = split_by_unique(shot_rows, values, width)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


@given(st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_apply_x_masks_matches_loop(n, seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 40))
    states = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    qubits = tuple(int(q) for q in rng.permutation(n)[:rng.integers(1, n + 1)])
    masks = rng.integers(0, 1 << len(qubits), rows)
    got = engine.apply_x_masks(states.copy(), qubits, masks, n)
    assert np.array_equal(got, apply_x_masks_by_loop(states.copy(), qubits, masks, n))


@given(st.integers(1, 300), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_alias_tables_match_scalar_build(size, seed):
    rng = np.random.default_rng(seed)
    p = rng.random(size) ** 3
    p[rng.random(size) < 0.3] = 0.0
    p[rng.integers(size)] += 0.01
    got, want = AliasSampler(p), ScalarAliasSampler(p)
    assert got.n == want.n
    assert got.prob.dtype == want.prob.dtype and got.prob.tobytes() == want.prob.tobytes()
    assert got.alias.dtype == want.alias.dtype and got.alias.tobytes() == want.alias.tobytes()


def test_sample_reported_matches_per_outcome_masks():
    rng = np.random.default_rng(11)
    cols = rng.random((8, 8)) ** 2 + 2.0 * np.eye(8)
    cols[rng.random((8, 8)) < 0.3] = 0.0
    confusion = ConfusionMatrix(cols / cols.sum(axis=0))
    true = rng.integers(0, 6, 1000)  # outcomes 6 and 7 never occur
    got = confusion.sample_reported(true, np.random.default_rng(12))
    want = sample_reported_by_mask(confusion, true, np.random.default_rng(12))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _rows_with_repeats(rng, distinct, copies, n, dtype):
    """(states, branch): ``distinct`` random rows, each stored ``copies``
    times in a shuffled order, and shots reading every row."""
    base = rng.normal(size=(distinct, 1 << n))
    if np.iscomplexobj(np.empty(0, dtype=dtype)):
        base = base + 1j * rng.normal(size=base.shape)
    states = np.repeat(base.astype(dtype), copies, axis=0)[rng.permutation(distinct * copies)]
    branch = rng.integers(0, states.shape[0], 3 * states.shape[0])
    return states, branch


@pytest.mark.parametrize("n, dtype", [(1, np.float32), (1, np.complex128), (3, np.float32),
                                      (4, np.complex64), (2, np.float64)])
@pytest.mark.parametrize("distinct, copies", [(1, 1), (1, 5), (7, 1), (7, 3)])
def test_merge_rows_keeps_one_row_per_content(n, dtype, distinct, copies):
    rng = np.random.default_rng(distinct * copies + n)
    states, branch = _rows_with_repeats(rng, distinct, copies, n, dtype)
    merged, new_branch = engine.merge_rows(states.copy(), branch)
    assert merged.dtype == states.dtype and new_branch.dtype == branch.dtype
    # every shot reads the same bytes as before
    assert merged[new_branch].tobytes() == states[branch].tobytes()
    # and no two rows are left with equal bytes
    assert len({row.tobytes() for row in merged}) == merged.shape[0] == distinct


def test_merge_rows_draws_no_randomness():
    rng = np.random.default_rng(5)
    states, branch = _rows_with_repeats(rng, 4, 3, 2, np.complex64)
    before = rng.bit_generator.state
    engine.merge_rows(states, branch)
    assert rng.bit_generator.state == before


def test_merge_rows_keeps_signed_zeros_apart():
    states = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    merged, branch = engine.merge_rows(states, np.array([0, 1, 2, 1]))
    assert merged.shape[0] == 2
    assert merged[branch].tobytes() == states[[0, 1, 2, 1]].tobytes()


def test_merge_rows_collision_merges_nothing(monkeypatch):
    # with every multiplier 1 a fingerprint is the plain sum of the words,
    # so the rows (a, b) and (b, a) collide
    monkeypatch.setattr(engine, "_multipliers",
                        lambda words: np.ones(words, dtype=np.uint64))
    a, b = 0.25, 0.5
    states = np.array([[a, b], [b, a], [a, b]], dtype=np.float64)
    branch = np.array([0, 1, 2, 2, 0])
    merged, new_branch = engine.merge_rows(states, branch)
    assert merged is states and new_branch is branch
    # with the real multipliers the same rows merge to two
    monkeypatch.undo()
    merged, new_branch = engine.merge_rows(states, branch)
    assert merged.shape[0] == 2
    assert merged[new_branch].tobytes() == states[branch].tobytes()


def _collapsed_with_repeats(rng, distinct, copies, k, width, dtype):
    """(slots, slices, branch): ``distinct`` collapsed rows over k measured
    qubits and ``width`` slice amplitudes, each stored ``copies`` times in a
    shuffled order; half of the rows share a slice with another slot."""
    slices = rng.normal(size=(distinct, width))
    if np.iscomplexobj(np.empty(0, dtype=dtype)):
        slices = slices + 1j * rng.normal(size=slices.shape)
    slices[1::2] = slices[::2][:slices[1::2].shape[0]]
    slots = rng.permutation(np.arange(distinct) % (1 << k))
    order = rng.permutation(distinct * copies)
    slots = np.repeat(slots, copies)[order]
    slices = np.repeat(slices.astype(dtype), copies, axis=0)[order]
    branch = rng.integers(0, slots.size, 3 * slots.size)
    return slots, slices, branch


@pytest.mark.parametrize("n, k, dtype", [(1, 1, np.float32), (3, 3, np.float32),
                                         (3, 1, np.complex64), (4, 2, np.float32),
                                         (2, 1, np.complex128)])
@pytest.mark.parametrize("distinct, copies", [(1, 1), (1, 5), (2, 3), (7, 3)])
def test_merge_slices_merges_exactly_the_equal_full_rows(n, k, dtype, distinct, copies):
    # (1, 1) and (3, 3) hold one amplitude per slice: 4 bytes in float32
    rng = np.random.default_rng(n * k + distinct * copies)
    qubits = tuple(range(n - 1, n - 1 - k, -1))
    slots, slices, branch = _collapsed_with_repeats(rng, distinct, copies, k, 1 << (n - k),
                                                    dtype)
    full = engine.expand(slots, slices, qubits, n)
    merged_slots, merged_slices, new_branch = engine.merge_slices(slots, slices, branch)
    assert merged_slots.dtype == slots.dtype and merged_slices.dtype == slices.dtype
    merged = engine.expand(merged_slots, merged_slices, qubits, n)
    assert merged[new_branch].tobytes() == full[branch].tobytes()
    assert merged.shape[0] == len({row.tobytes() for row in full})


def test_merge_slices_keeps_signed_zeros_and_slots_apart():
    slots = np.array([0, 0, 1, 0, 1])
    slices = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
                      dtype=np.float32)
    branch = np.array([0, 1, 2, 3, 4, 4, 1])
    merged_slots, merged_slices, new_branch = engine.merge_slices(slots, slices, branch)
    assert merged_slots.size == 3
    assert merged_slots[new_branch].tolist() == slots[branch].tolist()
    assert merged_slices[new_branch].tobytes() == slices[branch].tobytes()
