import random

import pytest
from hypothesis import given, strategies as st

from stakenav.domain import InvalidPairError
from stakenav.reference import (
    DegenerateStakesError,
    ScanCounter,
    StakeTable,
    VisibilitySnapshot,
    consensus_score,
    consensus_score_matrix,
    indicator,
    stake_weight,
)
from stakenav.sim import elect_generator


def snapshot_fixture():
    # 3 robots, 4 landmarks; robots 0 and 1 share landmarks 0 and 2.
    recognized = [{0, 1, 2}, {0, 2, 3}, {3}]
    qualities = {(0, 1, 0): 0.5, (0, 1, 2): 0.25, (1, 2, 3): 0.8}
    return VisibilitySnapshot(4, recognized, qualities)


def random_snapshot(rng, n, m):
    recognized = [{k for k in range(m) if rng.random() < 0.5} for _ in range(n)]
    qualities = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in sorted(recognized[i] & recognized[j]):
                qualities[(i, j, k)] = rng.random()
    return VisibilitySnapshot(m, recognized, qualities)


def test_stake_table_rejects_negative():
    with pytest.raises(ValueError):
        StakeTable([1.0, -0.5])


def test_stake_weight_basic():
    table = StakeTable([1.0, 3.0])
    assert stake_weight(table, 0) == 0.25
    assert stake_weight(table, 1) == 0.75
    with pytest.raises(IndexError):
        stake_weight(table, 2)


def test_stake_weight_degenerate_zero_total():
    with pytest.raises(DegenerateStakesError):
        stake_weight(StakeTable([0.0, 0.0]), 0)


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=16))
def test_stake_weights_sum_to_one(stakes):
    table = StakeTable(stakes)
    total = sum(stake_weight(table, i) for i in range(len(stakes)))
    assert abs(total - 1.0) <= 1e-12


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_stake_weight_scale_invariance(stakes, c):
    base = StakeTable(stakes)
    scaled = StakeTable([s * c for s in stakes])
    for i in range(len(stakes)):
        assert abs(stake_weight(base, i) - stake_weight(scaled, i)) <= 1e-12


def test_indicator_values_and_pair_check():
    snap = snapshot_fixture()
    assert indicator(snap, 0, 0, 1) == 1
    assert indicator(snap, 1, 0, 1) == 0  # robot 1 does not see landmark 1
    assert indicator(snap, 3, 1, 2) == 1
    assert indicator(snap, 3, 0, 1) == 0
    with pytest.raises(InvalidPairError):
        indicator(snap, 0, 1, 1)


def test_consensus_score_manual():
    snap = snapshot_fixture()
    table = StakeTable([1.0, 1.0, 2.0])
    # W(0) = 0.25, shared qualities 0.5 + 0.25
    assert consensus_score(table, snap, 0, 1) == pytest.approx(0.25 * 0.75, abs=1e-15)
    # same pair, other direction: W(1) = 0.25 here too
    assert consensus_score(table, snap, 1, 0) == pytest.approx(0.25 * 0.75, abs=1e-15)
    assert consensus_score(table, snap, 0, 2) == 0.0
    assert consensus_score(table, snap, 2, 1) == pytest.approx(0.5 * 0.8, abs=1e-15)


def test_consensus_score_counts_one_scan_per_landmark():
    snap = snapshot_fixture()
    table = StakeTable([1.0, 1.0, 1.0])
    counter = ScanCounter()
    consensus_score(table, snap, 0, 1, counter)
    assert counter.scans == snap.n_landmarks
    consensus_score(table, snap, 2, 0, counter)
    assert counter.scans == 2 * snap.n_landmarks


def test_consensus_is_not_symmetric_with_unequal_stakes():
    snap = snapshot_fixture()
    table = StakeTable([3.0, 1.0, 1.0])
    assert consensus_score(table, snap, 0, 1) != consensus_score(table, snap, 1, 0)


@given(st.integers(min_value=0, max_value=2**32))
def test_cross_symmetry_property(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    snap = random_snapshot(rng, n, rng.randint(1, 8))
    table = StakeTable([rng.uniform(0.01, 10.0) for _ in range(n)])
    i, j = rng.sample(range(n), 2)
    lhs = consensus_score(table, snap, i, j) * stake_weight(table, j)
    rhs = consensus_score(table, snap, j, i) * stake_weight(table, i)
    assert abs(lhs - rhs) <= 1e-12


def test_matrix_matches_pairwise_calls_and_scan_count():
    rng = random.Random(5)
    n, m = 5, 7
    snap = random_snapshot(rng, n, m)
    table = StakeTable([rng.uniform(0.1, 2.0) for _ in range(n)])
    scores, scans = consensus_score_matrix(table, snap)
    assert scans == m * n * (n - 1) // 2
    for i in range(n):
        assert scores[i][i] == 0.0
        for j in range(n):
            if i != j:
                assert scores[i][j] == pytest.approx(
                    consensus_score(table, snap, i, j), abs=1e-15
                )


def test_snapshot_check_catches_inconsistent_qualities():
    recognized = [{0}, {0}]
    VisibilitySnapshot(1, recognized, {(0, 1, 0): 0.5})
    with pytest.raises(ValueError):
        VisibilitySnapshot(1, recognized, {})
    with pytest.raises(ValueError):
        VisibilitySnapshot(1, [{0}, set()], {(0, 1, 0): 0.5})
    with pytest.raises(ValueError):
        VisibilitySnapshot(1, recognized, {(0, 1, 0): 1.5})


def test_election_prefers_heavier_weights():
    rng = random.Random(0)
    wins = [0, 0]
    for _ in range(2000):
        wins[elect_generator([1.0, 9.0], rng, [1.0, 1.0], range(2))] += 1
    assert wins[1] > wins[0] * 3


def test_election_single_positive_weight_always_wins():
    rng = random.Random(1)
    for _ in range(50):
        assert elect_generator([0.0, 0.0, 2.5, 0.0], rng, [1.0] * 4, range(4)) == 2


def test_election_falls_back_to_stakes_and_refuses_zero_stakes():
    rng = random.Random(2)
    # zero navigability everywhere -> stakes decide
    for _ in range(50):
        assert elect_generator([0.0, 0.0, 0.0], rng, [0.0, 4.0, 0.0], range(3)) == 1
    # zero stakes too -> no level can elect
    with pytest.raises(ValueError, match="election stakes must total > 0"):
        elect_generator([0.0, 0.0, 0.0], rng, [0.0, 0.0, 0.0], range(3))


def test_election_consumes_exactly_one_draw():
    a = random.Random(9)
    b = random.Random(9)
    elect_generator([1.0, 2.0, 3.0], a, [1.0, 1.0, 1.0], range(3))
    b.random()
    assert a.random() == b.random()


def test_election_rejects_bad_input():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        elect_generator([], rng, [], range(0))
    with pytest.raises(ValueError, match="election weights must be >= 0, got -0.5"):
        elect_generator([1.0, -0.5], rng, [1.0, 1.0], range(2))
    with pytest.raises(ValueError):
        elect_generator([1.0, 2.0], rng, [1.0, 1.0, 1.0], [0])


@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e308)),
        min_size=1,
        max_size=12,
    ),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
def test_election_over_live_robots_matches_the_dense_vector(weights, zero_stakes, seed):
    # Zero weights interleaved, sometimes all of them, and stakes that are
    # sometimes all zero too (always for one robot), so both levels and the
    # refusal of all-zero weights and stakes are reached.
    n = len(weights)
    stakes = [0.0 if zero_stakes else float(i % 3) for i in range(n)]
    robots = [i for i, w in enumerate(weights) if w]
    live = [weights[i] for i in robots]
    dense_rng, live_rng = random.Random(seed), random.Random(seed)
    if not any(weights) and not any(stakes):
        with pytest.raises(ValueError, match="election stakes must total > 0"):
            elect_generator(weights, dense_rng, stakes, range(n))
        with pytest.raises(ValueError, match="election stakes must total > 0"):
            elect_generator(live, live_rng, stakes, robots)
    else:
        dense = elect_generator(weights, dense_rng, stakes, range(n))
        assert elect_generator(live, live_rng, stakes, robots) == dense
    assert dense_rng.getstate() == live_rng.getstate()


class _TopDraw(random.Random):
    def random(self):
        return 1 - 2**-53


class _ZeroDraw(random.Random):
    def random(self):
        return 0.0


def test_election_zero_draw_picks_the_first_positive_weight():
    # A draw of 0.0 equals every leading running sum; none of them exceeds it.
    assert elect_generator([0.0, 0.0, 2.0, 1.0], _ZeroDraw(), [1.0] * 4, range(4)) == 2
    assert elect_generator([0.0, 3.0], _ZeroDraw(), [1.0] * 9, [4, 6]) == 6
    assert elect_generator([0.0], _ZeroDraw(), [0.0, 0.0, 5.0], [1]) == 2


def test_election_rounding_to_the_total_picks_the_last_positive_weight():
    # A subnormal total has a fixed ulp, so (1 - 2**-53) * total rounds up to
    # it and no running sum exceeds the draw; an overflowed total draws inf.
    tiny = 5e-324
    assert (1 - 2**-53) * (2 * tiny) == 2 * tiny
    assert elect_generator([tiny, 0.0, tiny, 0.0, 0.0], _TopDraw(), [1.0] * 5, range(5)) == 2
    assert elect_generator([1e308, 1e308, 0.0], _TopDraw(), [1.0] * 3, range(3)) == 1
    assert elect_generator([tiny, tiny, 0.0], _TopDraw(), [1.0] * 9, [3, 5, 7]) == 5
    # The stake fallback over the whole team rounds the same way.
    assert elect_generator([], _TopDraw(), [tiny, tiny, 0.0], []) == 1
