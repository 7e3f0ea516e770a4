import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from stakenav.reference import (
    AlphaMatrix,
    StakeTable,
    UndefinedAverageError,
    VisibilitySnapshot,
    alpha_importance,
    average_navigability,
    navigability,
    navigability_matrix,
)
from stakenav.domain import ordered_sum
from stakenav.ledger import Observation
from stakenav.sim import SealState
from tests.test_consensus import random_snapshot


def dense_alpha(seal, n):
    """`seal.alpha` as the n x n list of importances. Checks first that the
    map holds no empty row and no stored 0.0, and that each pair holds one
    level float in both directions."""
    for i, partners in seal.alpha.items():
        assert partners, f"robot {i} holds an empty row"
        for j, level in partners.items():
            assert 0 <= i < n and 0 <= j < n and i != j, (i, j)
            assert level != 0.0, (i, j)
            assert seal.alpha.get(j, {}).get(i) is level, (i, j)
    return [[seal.alpha.get(i, {}).get(j, 0.0) for j in range(n)] for i in range(n)]


def random_alpha(rng, n):
    counts = {}
    for i in range(n):
        for j in range(i + 1, n):
            counts[(i, j)] = rng.randint(0, 15)
    return AlphaMatrix.from_pair_counts(counts, n)


def test_alpha_importance_quantization():
    counts = {(0, 1): 3, (1, 2): 10, (0, 3): 25}
    assert alpha_importance(counts, 0, 1) == 0.3
    assert alpha_importance(counts, 1, 0) == 0.3  # order-insensitive lookup
    assert alpha_importance(counts, 1, 2) == 1.0
    assert alpha_importance(counts, 0, 3) == 1.0  # capped beyond 10
    assert alpha_importance(counts, 2, 3) == 0.0  # never cooperated


@given(st.integers(min_value=0, max_value=200))
def test_alpha_is_monotone_and_capped(count):
    a = alpha_importance({(0, 1): count}, 0, 1)
    b = alpha_importance({(0, 1): count + 1}, 0, 1)
    assert 0.0 <= a <= b <= 1.0
    if count >= 10:
        assert a == 1.0


def test_alpha_matrix_validation():
    with pytest.raises(ValueError):
        AlphaMatrix([[0.0, 0.5]])  # not square
    with pytest.raises(ValueError):
        AlphaMatrix([[0.1, 0.5], [0.5, 0.0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        AlphaMatrix([[0.0, 0.5], [0.4, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        AlphaMatrix([[0.0, 1.5], [1.5, 0.0]])  # out of range
    m = AlphaMatrix.from_pair_counts({(0, 1): 5}, 3)
    assert m.values[0][1] == m.values[1][0] == 0.5
    assert m.values[0][2] == 0.0
    assert m.n == 3


def test_navigability_manual_two_robots():
    snap = VisibilitySnapshot(2, [{0, 1}, {0}], {(0, 1, 0): 0.6})
    table = StakeTable([1.0, 3.0])
    alpha = AlphaMatrix.from_pair_counts({(0, 1): 4}, 2)
    # alpha 0.4 * (W(0)=0.25 * 0.6)
    assert navigability(table, snap, alpha, 0) == pytest.approx(0.4 * 0.25 * 0.6, abs=1e-15)
    assert navigability(table, snap, alpha, 1) == pytest.approx(0.4 * 0.75 * 0.6, abs=1e-15)


def test_row_sum_identity():
    rng = random.Random(17)
    for _ in range(20):
        n, m = rng.randint(2, 7), rng.randint(1, 9)
        snap = random_snapshot(rng, n, m)
        table = StakeTable([rng.uniform(0.1, 4.0) for _ in range(n)])
        alpha = random_alpha(rng, n)
        matrix = navigability_matrix(table, snap, alpha)
        for i in range(n):
            assert matrix.row_sum(i) == navigability(table, snap, alpha, i)


@pytest.mark.parametrize("n", [2, 5, 10, 20])
@pytest.mark.parametrize("m", [1, 20, 100])
def test_evaluation_count_law(n, m):
    rng = random.Random(n * 1000 + m)
    snap = random_snapshot(rng, n, m)
    table = StakeTable([1.0] * n)
    alpha = random_alpha(rng, n)
    matrix = navigability_matrix(table, snap, alpha)
    assert matrix.evaluations == n * (n - 1) * m


def test_average_navigability():
    snap = VisibilitySnapshot(2, [{0}, {0}], {(0, 1, 0): 1.0})
    table = StakeTable([1.0, 1.0])
    alpha = AlphaMatrix.from_pair_counts({(0, 1): 10}, 2)
    matrix = navigability_matrix(table, snap, alpha)
    # both off-diagonal entries are 0.5, so the average is 0.5
    assert average_navigability(matrix) == pytest.approx(0.5, abs=1e-15)


def test_average_undefined_below_two_robots():
    snap = VisibilitySnapshot(1, [set()], {})
    matrix = navigability_matrix(StakeTable([1.0]), snap, AlphaMatrix([[0.0]]))
    with pytest.raises(UndefinedAverageError):
        average_navigability(matrix)


def test_navigability_monotone_in_quality_alpha_and_own_stake():
    rng = random.Random(23)
    n, m = 4, 6
    snap = random_snapshot(rng, n, m)
    while not snap.qualities:
        snap = random_snapshot(rng, n, m)
    table = StakeTable([rng.uniform(0.5, 2.0) for _ in range(n)])
    alpha = random_alpha(rng, n)
    key = sorted(snap.qualities)[0]
    (i, j, k) = key
    base = navigability(table, snap, alpha, i)

    bumped = dict(snap.qualities)
    bumped[key] = min(1.0, bumped[key] + 0.1)
    snap_up = VisibilitySnapshot(m, snap.recognized, bumped)
    assert navigability(table, snap_up, alpha, i) >= base

    values = [row[:] for row in alpha.values]
    if values[i][j] < 1.0:
        values[i][j] = values[j][i] = 1.0
        assert navigability(table, snap, AlphaMatrix(values), i) >= base

    richer = StakeTable([s + (2.0 if idx == i else 0.0) for idx, s in enumerate(table.stakes)])
    assert navigability(richer, snap, alpha, i) >= base


def test_matrix_unchanged_by_stake_scaling():
    rng = random.Random(31)
    n, m = 5, 8
    snap = random_snapshot(rng, n, m)
    stakes = [rng.uniform(0.1, 3.0) for _ in range(n)]
    alpha = random_alpha(rng, n)
    a = navigability_matrix(StakeTable(stakes), snap, alpha)
    b = navigability_matrix(StakeTable([s * 7.5 for s in stakes]), snap, alpha)
    for i in range(n):
        for j in range(n):
            assert abs(a.values[i][j] - b.values[i][j]) <= 1e-12


def records_of(snap):
    """The snapshot's observation records: one per pair sharing a landmark,
    ascending by pair, each with its (landmark id, quality) tuples."""
    records = []
    n = snap.n_robots
    for i in range(n):
        for j in range(i + 1, n):
            common = sorted(snap.recognized[i] & snap.recognized[j])
            if common:
                matches = [(k, snap.qualities[(i, j, k)]) for k in common]
                records.append(Observation((i, j), matches, 0))
    return records


@pytest.mark.parametrize("seed", range(40))
def test_seal_state_weights_match_matrix_row_sums_bit_for_bit(seed):
    rng = random.Random(seed)
    n, m = rng.randint(2, 8), rng.randint(0, 9)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seal = SealState()
    counts = {}

    def check(snap):
        stakes = [rng.uniform(0.1, 4.0) for _ in range(n)]
        robots, weights, average = seal.weights(stakes, ordered_sum(stakes))
        alpha = AlphaMatrix.from_pair_counts(counts, n)
        matrix = navigability_matrix(StakeTable(stakes), snap, alpha)
        # A live term: a pair cooperating this loop with sealed history.
        live = {r for record in records_of(snap) if counts.get(record.pair) for r in record.pair}
        assert robots == sorted(live)
        assert [w.hex() for w in weights] == [matrix.row_sum(i).hex() for i in robots]
        for i in set(range(n)) - live:
            assert matrix.row_sum(i).hex() == (0.0).hex()
        assert average.hex() == average_navigability(matrix).hex()
        assert dense_alpha(seal, n) == alpha.values

    for _ in range(4):  # loops
        snap = random_snapshot(rng, n, m)
        for i, j in pairs:  # a degraded pair draws zero qualities
            if rng.random() < 0.15:
                for k in snap.recognized[i] & snap.recognized[j]:
                    snap.qualities[(i, j, k)] = 0.0
        seal.start_loop(records_of(snap))
        check(snap)
        for _ in range(rng.randint(0, 5)):  # sealed batches, pairs may repeat
            batch = [rng.choice(pairs) for _ in range(rng.randint(1, 6))]
            seal.record(batch)
            for pair in batch:
                counts[pair] = counts.get(pair, 0) + 1
            check(snap)


def test_seal_state_alpha_steps_through_eleven_shared_levels():
    seal = SealState()
    for k in range(13):
        expected = min(k, 10) / 10
        alpha = dense_alpha(seal, 3)
        assert alpha[0][2].hex() == alpha[2][0].hex() == expected.hex()
        assert alpha[0][1] == 0.0
        if k:
            assert seal.alpha[0][2] is seal.alpha[1][2]  # one float per level
        seal.record([(0, 2), (1, 2)])


def test_seal_state_writes_only_the_rows_of_robots_with_history():
    seal = SealState()
    seal.record([(0, 1)])
    assert sorted(seal.alpha) == [0, 1]
    assert dense_alpha(seal, 4) == AlphaMatrix.from_pair_counts({(0, 1): 1}, 4).values


def test_seal_state_holds_pair_history_per_recorded_pair():
    # Every pair recorded once, the densest history a team can hold: about
    # 73 B per pair, one dict slot and key for each direction. An n x n list
    # of shared floats took 16 B per pair, but n pointers for every robot
    # with history, however few partners it has.
    n = 512
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tracemalloc.start()
    try:
        seal = SealState()
        seal.record(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 80 * len(pairs)
    assert seal.alpha[0][1] == seal.alpha[n - 1][n - 2] == 0.1


def test_seal_state_keeps_rows_only_for_robots_with_live_terms():
    # One row per robot would cost n lists on every loop, however few
    # robots cooperate: that peaked at 641 KiB here. One pair's history and
    # two robots' rows take under 3 KiB.
    n = 4096
    pairs = [
        Observation((0, 1), [(0, 0.5)], 0),
        Observation((7, 4000), [(0, 0.25)], 0),
        Observation((9, 10), [(0, 0.125)], 0),
    ]
    tracemalloc.start()
    try:
        seal = SealState()
        seal.start_loop(pairs)
        seal.record([(7, 4000)])  # joins the rows mid-loop
        seal.start_loop(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    stakes = [1.0] * n
    robots, weights, _ = seal.weights(stakes, ordered_sum(stakes))
    assert robots == [7, 4000]
    assert [w.hex() for w in weights] == [(0.1 * (1 / n * 0.25)).hex()] * 2

    # Mid-loop joins in a team small enough for the oracle: robots 7 and 11
    # are live when the loop starts; (9, 10) joins between them, (7, 9)
    # joins 7's own row below 11, and (2, 3) and (0, 1) sort below them all.
    n = 12
    records = [
        Observation((0, 1), [(0, 0.5)], 0),
        Observation((2, 3), [(1, 0.75)], 0),
        Observation((7, 9), [(4, 0.375)], 0),
        Observation((7, 11), [(2, 0.25), (5, 0.625)], 0),
        Observation((9, 10), [(3, 0.875)], 0),
    ]
    seal = SealState()
    seal.record([(7, 11)])
    seal.start_loop(records)
    seal.record([(9, 10), (7, 9), (2, 3), (0, 1)])
    stakes = [1.0 + i / 8 for i in range(n)]
    robots, weights, average = seal.weights(stakes, ordered_sum(stakes))
    assert robots == [0, 1, 2, 3, 7, 9, 10, 11]
    counts = {record.pair: 1 for record in records}
    matrix = navigability_matrix(
        StakeTable(stakes), VisibilitySnapshot.of(n, 6, records),
        AlphaMatrix.from_pair_counts(counts, n),
    )
    assert [w.hex() for w in weights] == [matrix.row_sum(i).hex() for i in robots]
    assert average.hex() == average_navigability(matrix).hex()
