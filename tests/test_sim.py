import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stakenav import (
    ConfigError,
    DegradationScenario,
    ExperimentState,
    WorldConfig,
    compute_visibility,
    emit_transactions,
    init_world,
    run_experiment,
    sim,
)
from stakenav.ledger import Observation, Reward
from stakenav.reference import (
    AlphaMatrix,
    StakeTable,
    VisibilitySnapshot,
    average_navigability,
    navigability_matrix,
)
from stakenav.domain import MAX_LENGTH, MIN_RADIUS, RandomStreams, derive_stream
from stakenav.sim import maybe_seal_blocks, step_movement
from tests.test_ledger import pair_tx_counts
from tests.test_navigability import dense_alpha

SMALL = WorldConfig(
    n_robots=4, n_landmarks=8, width=120.0, height=120.0,
    sensing_radius=70.0, loops=4, block_size=3, seed=5,
)
# Under 10% of pairs share a landmark in any loop.
SPARSE = WorldConfig(
    n_robots=30, n_landmarks=60, width=800.0, height=800.0, loops=6, seed=0,
)


def fresh_state(config=SMALL):
    positions, landmarks, streams = init_world(config)
    return ExperimentState(config, positions, landmarks, streams)


def test_scenario_validation():
    s = DegradationScenario((3, 1), 2, 5, 0.1)
    assert s.pair == (1, 3)
    assert s.active(2) and s.active(5) and not s.active(1) and not s.active(6)
    with pytest.raises(ConfigError):
        DegradationScenario((0, 1), -1, 2, 0.1)
    with pytest.raises(ConfigError):
        DegradationScenario((0, 1), 3, 2, 0.1)
    with pytest.raises(ConfigError):
        DegradationScenario((0, 1), 0, 2, 1.0)
    with pytest.raises(ConfigError, match="two distinct robots"):
        DegradationScenario((3, 3), 0, 2, 0.1)
    with pytest.raises(ConfigError, match=r"^pair \(0, 9\) out of range for 4 robots$"):
        SMALL._replace(degradation=DegradationScenario((0, 9), 0, 2, 0.5))
    with pytest.raises(ConfigError, match=r"^end_loop must be < loops \(4\), got 99$"):
        WorldConfig(loops=4, degradation=DegradationScenario((0, 1), 0, 99, 0.5))
    fits = SMALL._replace(degradation=DegradationScenario((0, 1), 0, 3, 0.5))
    with pytest.raises(ConfigError, match=r"^end_loop must be < loops \(3\), got 3$"):
        fits._replace(loops=3)
    for bad in (((0, 1), 0, 3, 0.5), [(0, 1), 0, 3, 0.5], 0.5, "none", False):
        with pytest.raises(ConfigError, match="^degradation must be a DegradationScenario or None"):
            WorldConfig(degradation=bad)
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(ConfigError, match="multiplier"):
            DegradationScenario((0, 1), 0, 2, bad)
        with pytest.raises(ConfigError, match="start_loop"):
            DegradationScenario((0, 1), bad, 2, 0.5)
        with pytest.raises(ConfigError, match="end_loop"):
            DegradationScenario((0, 1), 0, bad, 0.5)


def test_degradation_window_must_end_before_the_last_loop():
    # Loops run 0..loops-1, so a window that starts at `loops` would degrade
    # nothing and write the baseline's bytes.
    config = WorldConfig(seed=2)  # pair (2, 7) cooperates in every loop
    with pytest.raises(ConfigError, match=r"^end_loop must be < loops \(10\), got 10$"):
        config._replace(degradation=DegradationScenario((2, 7), 10, 10, 0.1))

    def pair_matches(state):
        return {
            tx.loop_index: tx.matches
            for block in state.chain.blocks for tx in block.transactions
            if isinstance(tx, Observation) and tx.pair == (2, 7)
        }

    base = pair_matches(run_experiment(config))
    degraded = pair_matches(
        run_experiment(config._replace(degradation=DegradationScenario((2, 7), 4, 9, 0.1)))
    )
    assert sorted(degraded) == list(range(10))
    for loop, matches in degraded.items():
        factor = 0.1 if loop >= 4 else 1.0
        assert matches == [(k, q * factor) for k, q in base[loop]]


@pytest.mark.parametrize(
    "args,field",
    [
        (((2.0, 7), 4, 6, 0.1), "pair"),
        (((True, 7), 4, 6, 0.1), "pair"),
        (((2, 7, 9), 4, 6, 0.1), "pair"),
        ((7, 4, 6, 0.1), "pair"),
        (((2, 7), 4.5, 6, 0.1), "start_loop"),
        (((2, 7), 4, "6", 0.1), "end_loop"),
        (((2, 7), 4, 6, "0.1"), "multiplier"),
        (((2, 7), 4, 6, False), "multiplier"),
    ],
)
def test_scenario_refuses_a_wrong_type_naming_the_field(args, field):
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        DegradationScenario(*args)


def test_scenario_stores_a_pair_tuple_and_a_float_multiplier():
    scenario = DegradationScenario([7, 2], 4, 6, 0)
    assert scenario == ((2, 7), 4, 6, 0.0)
    assert type(scenario.multiplier) is float


def test_step_movement_stays_in_bounds_and_logs_trajectory():
    state = fresh_state()
    cfg = state.config
    before = state.trajectory[-1]
    for _ in range(50):
        positions = step_movement(state)
        for (x, y), (px, py) in zip(positions, before):
            assert 0.0 <= x <= cfg.width and 0.0 <= y <= cfg.height
            assert abs(x - px) <= cfg.step_size and abs(y - py) <= cfg.step_size
        before = positions
    assert len(state.trajectory) == 51


def brute_common(config, positions, landmarks=None):
    """(i, j) -> ascending landmarks both robots at `positions` recognize, for
    every pair sharing one, by the engine's distance predicate over all
    landmarks: `landmarks`, or else those `init_world` places for `config`."""
    if landmarks is None:
        landmarks = init_world(config)[1]
    radius = config.sensing_radius
    seen = [
        {k for k, (lx, ly) in enumerate(landmarks)
         if (rx - lx) * (rx - lx) + (ry - ly) * (ry - ly) <= radius * radius}
        for rx, ry in positions
    ]
    n = len(seen)
    common = {(i, j): sorted(seen[i] & seen[j]) for i in range(n) for j in range(i + 1, n)}
    return {pair: ks for pair, ks in common.items() if ks}


def assert_distance_rule(state, observations, landmarks=None):
    expected = brute_common(state.config, state.trajectory[-1], landmarks)
    assert [tx.pair for tx in observations] == list(expected)
    for tx in observations:
        assert [k for k, _ in tx.matches] == expected[tx.pair]
    return expected


def hand_placed_state(config, robots_xy, landmarks_xy):
    _, _, streams = init_world(config)
    return ExperimentState(config, list(robots_xy), list(landmarks_xy), streams)


def test_compute_visibility_matches_distance_rule():
    state = fresh_state()
    step_movement(state)
    observations = compute_visibility(state)
    assert observations
    # Building the snapshot checks its pairwise intersections.
    VisibilitySnapshot.of(state.config.n_robots, state.config.n_landmarks, observations)
    assert_distance_rule(state, observations)


def test_compute_visibility_grid_boundaries():
    # Grid cells are just over 5 wide. Robots 0 and 1 sit together in cell
    # (0, 0), so their common set is what each recognizes; landmark 0 is
    # exactly 5 away (a 3-4-5 triangle) in the diagonal cell (1, 1),
    # landmark 1 a hair beyond 5, landmark 2 exactly 5 away straight across
    # one boundary, landmark 3 two cells over. Robot 2 sees nothing.
    cfg = WorldConfig(n_robots=3, n_landmarks=4, width=50.0, height=50.0,
                      sensing_radius=5.0, seed=1)
    landmarks = [(8.0, 9.0), (8.0, 9.0 + 2**-20), (10.0, 5.0), (11.0, 5.0)]
    state = hand_placed_state(cfg, [(5.0, 5.0), (5.0, 5.0), (40.0, 40.0)], landmarks)
    observations = compute_visibility(state)
    assert [(tx.pair, [k for k, _ in tx.matches]) for tx in observations] == [((0, 1), [0, 2])]
    assert_distance_rule(state, observations, landmarks)
    assert state.min_common == 0 and state.max_common == 2


# Robots a quarter step off the landmarks' grid of eighths, so that no squared
# distance lies within rounding of the squared radius in the worlds below.
BOUND_ROBOTS = [(1 / 32, 1 / 32), (17 / 32, 15 / 32), (31 / 32, 31 / 32),
                (31 / 32, 1 / 32), (1 / 32, 31 / 32)]
BOUND_LANDMARKS = [(a / 8, b / 8) for a in range(9) for b in range(9)]


@pytest.mark.parametrize(
    "extent,radius,scale",
    [
        (MAX_LENGTH, MAX_LENGTH, MAX_LENGTH),  # squares up to 2**1023
        (1e-300, MIN_RADIUS, 1e-300),  # every square underflows to 0.0
        (8 * MIN_RADIUS, MIN_RADIUS, 8 * MIN_RADIUS),  # squares about 2**-1022
        (MAX_LENGTH, MIN_RADIUS, 8 * MIN_RADIUS),  # the same, in clamped cells
    ],
    ids=["largest", "smallest", "least-radius", "widest-ratio"],
)
def test_distance_rule_is_exact_at_the_length_bounds(extent, radius, scale):
    # Exact rational distances against the engine's float test, at the
    # lengths `WorldConfig` admits at its bounds.
    config = WorldConfig(n_robots=len(BOUND_ROBOTS), n_landmarks=len(BOUND_LANDMARKS),
                         width=extent, height=extent, sensing_radius=radius, seed=3)
    robots = [(x * scale, y * scale) for x, y in BOUND_ROBOTS]
    landmarks = [(x * scale, y * scale) for x, y in BOUND_LANDMARKS]
    radius_sq = Fraction(radius) ** 2
    seen = []
    for rx, ry in robots:
        dist_sq = [(Fraction(rx) - Fraction(lx)) ** 2 + (Fraction(ry) - Fraction(ly)) ** 2
                   for lx, ly in landmarks]
        assert all(abs(d - radius_sq) > radius_sq / 2**40 for d in dist_sq)
        seen.append({k for k, d in enumerate(dist_sq) if d <= radius_sq})
    n = len(robots)
    expected = [((i, j), sorted(seen[i] & seen[j]))
                for i in range(n) for j in range(i + 1, n) if seen[i] & seen[j]]
    observations = compute_visibility(hand_placed_state(config, robots, landmarks))
    assert [(tx.pair, [k for k, _ in tx.matches]) for tx in observations] == expected


def test_compute_visibility_grid_in_a_huge_world():
    # Cell indices near 2**52 are where float floor division stops being
    # exact; here cells of radius width would put robot and landmark two
    # cells apart. The two robots share a spot, so they share what each sees.
    x = 4904401271609417.0
    cfg = WorldConfig(n_robots=2, n_landmarks=1, width=5e15, height=5e15,
                      sensing_radius=1.5, seed=1)
    state = hand_placed_state(cfg, [(x, 7.0), (x, 7.0)], [(x + 1.0, 7.0)])
    observations = compute_visibility(state)
    assert [(tx.pair, [k for k, _ in tx.matches]) for tx in observations] == [((0, 1), [0])]


@pytest.mark.parametrize(
    "direction",
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)],
    ids=["right", "left", "above", "below",
         "above-right", "above-left", "below-right", "below-left"],
)
def test_a_landmark_just_inside_the_radius_is_seen_from_anywhere_in_a_cell(direction):
    # A grid cell must reach at least the sensing radius, or a landmark
    # just inside the radius can lie two cells from a robot near the far
    # edge of its own cell. Two robots share each spot, 129 spots apart by
    # radius / 64 along the diagonal span about two cell widths on both
    # axes, and the landmark sits a hair inside the radius on one side of
    # them, or at 45 degrees, where it can lie in a corner cell around them.
    radius = 90.0
    config = WorldConfig(n_robots=2, n_landmarks=1, width=1000.0, height=1000.0,
                         sensing_radius=radius, seed=0)
    dx, dy = (radius * (1 - 2**-20) * d / math.hypot(*direction) for d in direction)
    for step in range(129):
        x = y = 400.0 + step * radius / 64
        state = ExperimentState(
            config, [(x, y), (x, y)], [(x + dx, y + dy)], RandomStreams.from_seed(0)
        )
        observations = compute_visibility(state)
        assert [(tx.pair, [k for k, _ in tx.matches]) for tx in observations] == [((0, 1), [0])], x


def test_compute_visibility_in_a_sparse_world():
    state = fresh_state(SPARSE)
    for _ in range(SPARSE.loops):
        step_movement(state)
        observations = compute_visibility(state)
        # Building the snapshot checks its pairwise intersections.
        VisibilitySnapshot.of(SPARSE.n_robots, SPARSE.n_landmarks, observations)
        expected = assert_distance_rule(state, observations)
        n = SPARSE.n_robots
        assert 0 < len(expected) < n * (n - 1) // 2 // 10
    assert state.min_common == 0


@st.composite
def hand_placed_worlds(draw):
    """(config, robots, landmarks): robots and landmarks crowd a few spots,
    a crowd of up to 130 robots shares one spot so that a landmark's robot
    mask spans several machine words, and the radius can exceed the world."""
    width = draw(st.floats(1.0, 1000.0))
    height = draw(st.floats(1.0, 1000.0))
    point = st.tuples(st.floats(0.0, width), st.floats(0.0, height))
    spots = draw(st.lists(point, min_size=1, max_size=4))
    place = st.sampled_from(spots) | point
    crowd = [spots[0]] * draw(st.integers(0, 130))
    robots = draw(st.permutations(crowd + draw(st.lists(place, min_size=1, max_size=20))))
    landmarks = draw(st.lists(place, max_size=30))
    config = WorldConfig(
        n_robots=len(robots), n_landmarks=len(landmarks), width=width, height=height,
        sensing_radius=draw(st.floats(0.5, 3000.0)), seed=draw(st.integers(0, 3)),
    )
    return config, robots, landmarks


def hand_placed_world(robots, landmarks, radius=5.0):
    config = WorldConfig(n_robots=len(robots), n_landmarks=len(landmarks), width=100.0,
                         height=100.0, sensing_radius=radius, seed=1)
    return config, robots, landmarks


@settings(deadline=None, max_examples=60)
@example(hand_placed_world([(50.0, 50.0)] * 100 + [(90.0, 90.0)] * 3, [(51.0, 50.0)]))
@example(hand_placed_world([(10.0, 10.0), (12.0, 10.0), (90.0, 90.0)], []))
@example(hand_placed_world([(10.0, 10.0)], [(11.0, 10.0), (12.0, 10.0)]))
@example(hand_placed_world([(0.0, 0.0), (100.0, 100.0), (0.0, 100.0)],
                           [(100.0, 0.0), (50.0, 50.0)], radius=500.0))
@given(hand_placed_worlds())
def test_cooperating_pairs_equal_an_all_pairs_intersection(world):
    config, robots, landmarks = world
    state = hand_placed_state(config, robots, landmarks)
    replay = random.Random()
    replay.setstate(state.streams.quality.getstate())
    observations = compute_visibility(state)
    common = brute_common(config, robots, landmarks)
    expected = [
        Observation(pair, [(k, replay.random()) for k in ks], 0) for pair, ks in common.items()
    ]
    assert observations == expected
    n = len(robots)
    counts = [len(ks) for ks in common.values()]
    if len(common) < n * (n - 1) // 2:
        counts.append(0)  # some pair shares no landmark
    assert state.max_common == max(counts, default=0)
    assert state.min_common == min(counts, default=None)


def test_large_sparse_world_ledger_is_pinned():
    # 1,000 robots, of whose 499,500 pairs about 50 share a landmark per loop.
    config = WorldConfig(n_robots=1000, n_landmarks=2000, width=10000.0, height=10000.0,
                         loops=3, seed=4)
    digest = hashlib.sha256(run_experiment(config).chain.dumps()).hexdigest()
    assert digest == "5b5bb5399d09e67fe5ce1444386e1838d7dda272e0e2b25a414f99f04417e257"


def test_cross_cell_world_ledger_is_pinned():
    # Steps of up to 2.5 cells: almost every robot changes cell every loop,
    # and a few land in a 3x3 neighbourhood that holds no landmark.
    config = WorldConfig(n_robots=100, n_landmarks=2000, width=3000.0, height=3000.0,
                         sensing_radius=60.0, step_size=150.0, loops=8, seed=10)
    state = run_experiment(config)
    digest = hashlib.sha256(state.chain.dumps()).hexdigest()
    assert digest == "2a521c93e1c6ba231d286fd14425389be299fc20677b345dc6e42f14ae7a4fcd"
    size, _, _ = state._grid
    visits = [[(x // size, y // size) for x, y in positions] for positions in state.trajectory]
    stays = sum(a == b for before, after in zip(visits, visits[1:]) for a, b in zip(before, after))
    assert stays < 50  # of 800 robot steps


def test_landmark_grid_lists_each_landmark_once():
    # 65,536 landmarks in a 1e6 x 1e6 world, almost every one alone in its
    # cell: listing each in all nine cells around it made this peak 127 MB.
    config = WorldConfig(n_robots=2, n_landmarks=65536, width=1e6, height=1e6,
                         loops=1, seed=0)
    positions, landmarks, streams = init_world(config)
    tracemalloc.start()
    try:
        state = ExperimentState(config, positions, landmarks, streams)
        step_movement(state)
        compute_visibility(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    _, _, cells = state._grid
    assert sum(map(len, cells.values())) == config.n_landmarks


# Prints the peak resident set of a run of the largest team, in a world given
# as n_landmarks, extent, loops and the blocks it seals. It reads the
# process's own high-water mark, VmHWM: on Linux getrusage's ru_maxrss
# carries the parent's peak over into a spawned child.
PEAK_PROBE = """
import sys
from stakenav import WorldConfig, run_experiment
n_landmarks, extent, loops, blocks = map(int, sys.argv[1:])
state = run_experiment(WorldConfig(n_robots=4096, n_landmarks=n_landmarks, width=extent,
                                   height=extent, loops=loops, seed=0))
assert len(state.chain.blocks) == blocks
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")))
"""
# World -> bound on its peak, in MB.
PEAK_WORLDS = {
    # No pair ever cooperates: an n x n list of pair history peaked at 149 MB.
    (100, 100000, 1, 0): 25,
    # 200 blocks in 4 loops: a row of n floats per robot with history peaked at 64.6 MB.
    (20000, 20000, 4, 200): 40,
}


def test_a_team_without_history_holds_no_row_of_pair_history():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux's /proc/self/status")
    src = Path(__file__).resolve().parents[1] / "src"
    for world, peak_mb in PEAK_WORLDS.items():
        result = subprocess.run(
            [sys.executable, "-c", PEAK_PROBE, *map(str, world)], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) <= peak_mb * 1024, world  # KiB


def test_qualities_drawn_only_for_common_landmarks():
    state = fresh_state()
    step_movement(state)
    observations = compute_visibility(state)
    common = assert_distance_rule(state, observations)
    for tx in observations:
        i, j = tx.pair
        assert i < j
        for k, q in tx.matches:
            assert k in common[tx.pair]
            assert 0.0 <= q < 1.0


def test_snapshot_qualities_are_the_drawn_qualities():
    scenario = DegradationScenario((1, 3), 0, 2, 0.5)
    state = fresh_state(SMALL._replace(degradation=scenario))
    step_movement(state)
    replay = random.Random()
    replay.setstate(state.streams.quality.getstate())
    observations = compute_visibility(state)
    assert (1, 3) in [tx.pair for tx in observations]
    expected = {}
    for (i, j), ks in brute_common(SMALL, state.trajectory[-1]).items():
        for k in ks:
            q = replay.random()
            if (i, j) == scenario.pair:
                q *= scenario.multiplier
            expected[(i, j, k)] = q
    snapshot = VisibilitySnapshot.of(SMALL.n_robots, SMALL.n_landmarks, observations)
    assert snapshot.qualities == expected


def test_emit_one_transaction_per_cooperating_pair():
    state = fresh_state()
    state.loop_index = 2
    step_movement(state)
    observations = compute_visibility(state)
    records = list(observations)
    added = emit_transactions(state, observations)
    # The records are queued as they are: the same list, unchanged.
    assert added is observations and added == records
    assert all(a is b for a, b in zip(added, records))
    assert added
    assert_distance_rule(state, added)
    for tx in added:
        i, j = tx.pair
        assert i < j
        assert isinstance(tx, Observation)
        assert tx.loop_index == 2
    assert state.pending == added
    assert all(a is b for a, b in zip(state.pending, added))


def test_sealing_assigns_contiguous_ids_and_credits_generator():
    state = fresh_state()
    step_movement(state)
    emit_transactions(state, compute_visibility(state))
    assert len(state.pending) >= 3  # sanity for this seed
    stakes_before = list(state.stakes)
    blocks = maybe_seal_blocks(state)
    assert blocks and len(state.pending) < state.config.block_size
    for block in blocks:
        assert len(block.transactions) == state.config.block_size + 1
        assert isinstance(block.transactions[-1], Reward)
        assert block.transactions[-1].generator == block.generator
    ids = [tx["tx_id"] for b in blocks for tx in json.loads(b.line)["transactions"]]
    assert ids == list(range(len(ids)))
    reward_total = sum(state.stakes) - sum(stakes_before)
    assert reward_total == pytest.approx(len(blocks) * state.config.generator_reward)


def test_finalize_seals_remainder():
    state = fresh_state()
    step_movement(state)
    emit_transactions(state, compute_visibility(state))
    maybe_seal_blocks(state)
    leftover = len(state.pending)
    sealed = maybe_seal_blocks(state, finalize=True)
    if leftover:
        assert len(sealed) == 1
        assert len(sealed[-1].transactions) == leftover + 1
    assert state.pending == []


def test_zero_loops_runs_empty():
    state = run_experiment(WorldConfig(loops=0, seed=1))
    assert state.chain.blocks == []
    assert len(state.trajectory) == 1  # placement only


def test_run_is_deterministic():
    cfg = WorldConfig(seed=77)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.chain.dumps() == b.chain.dumps()
    assert a.trajectory == b.trajectory
    assert run_experiment(WorldConfig(seed=78)).chain.dumps() != a.chain.dumps()


def test_run_invariants_default_config():
    cfg = WorldConfig(seed=4)
    state = run_experiment(cfg)
    chain = state.chain
    assert chain.verify() is None
    assert state.pending == []
    assert len(state.trajectory) == cfg.loops + 1
    n_pairs = cfg.n_robots * (cfg.n_robots - 1) // 2
    blocks = len(chain.blocks)
    assert chain.next_tx_id <= n_pairs * cfg.loops + blocks
    expected_stake = cfg.n_robots * cfg.initial_stake + cfg.generator_reward * blocks
    assert abs(state.total_stake() - expected_stake) <= 1e-12
    assert state.min_common == 0 and state.max_common >= 2
    # reward count equals block count; observation count fills the rest
    rewards = sum(1 for b in chain.blocks for tx in b.transactions if isinstance(tx, Reward))
    assert rewards == blocks


def test_alpha_mirrors_chain_history():
    state = run_experiment(WorldConfig(seed=9))
    counts = pair_tx_counts(state.chain.blocks)
    alpha = AlphaMatrix.from_pair_counts(counts, state.config.n_robots)
    assert dense_alpha(state.seal, state.config.n_robots) == alpha.values


def test_degradation_scales_only_target_pair_in_window():
    cfg = WorldConfig(seed=21)
    scenario = DegradationScenario((0, 1), 2, 4, 0.0)
    base = run_experiment(cfg)
    deg = run_experiment(cfg._replace(degradation=scenario))
    assert base.trajectory == deg.trajectory  # movement untouched
    base_txs = {
        (tx.pair, tx.loop_index): tx.matches
        for b in base.chain.blocks for tx in b.transactions
        if isinstance(tx, Observation)
    }
    deg_txs = {
        (tx.pair, tx.loop_index): tx.matches
        for b in deg.chain.blocks for tx in b.transactions
        if isinstance(tx, Observation)
    }
    assert base_txs.keys() == deg_txs.keys()  # emission ignores quality
    for (pair, loop), matches in deg_txs.items():
        if pair == (0, 1) and 2 <= loop <= 4:
            assert all(q == 0.0 for _, q in matches)
            assert any(q != 0.0 for _, q in base_txs[(pair, loop)])
        else:
            assert matches == base_txs[(pair, loop)]


def replay_from_ledger(config, state):
    """Replay a run from its ledger, its trajectory and its config, through the oracle.

    Checks the records: each loop's pairs and landmark ids are the distance
    rule's at that loop's positions over all landmarks, the chain's
    observations strictly ascend by (loop_index, pair), and each reward's
    loop is at least that of every record before it. Checks the layout: the
    records are cut into batches of `block_size`, each sealed in the first
    loop that emitted its last record, and a remainder is stamped `loops`.
    Then re-seals every block with no engine state: the snapshot of its
    reward's loop (the last loop for the remainder), importance from the
    earlier blocks' pair counts, stakes from `initial_stake` and the earlier
    rewards, the oracle's navigability matrix and average, and the election
    on a fresh election stream over the whole team. Returns every block's
    (avg_navigability hex, generator) and the final stakes.
    """
    n, m, loops = config.n_robots, config.n_landmarks, config.loops
    blocks = [block.transactions for block in state.chain.blocks]
    transactions = [tx for block in blocks for tx in block]
    observations = [tx for tx in transactions if isinstance(tx, Observation)]
    keys = [(tx.loop_index, tx.pair) for tx in observations]
    assert keys == sorted(set(keys))  # no pair observed twice in one loop
    latest = 0
    for tx in transactions:
        assert isinstance(tx, Observation) or tx.loop_index >= latest  # a reward
        latest = max(latest, tx.loop_index)

    records = [[] for _ in range(loops)]
    for tx in observations:
        records[tx.loop_index].append(tx)
    landmarks = init_world(config)[1]
    for t, loop_records in enumerate(records):
        common = brute_common(config, state.trajectory[t + 1], landmarks)
        assert [(tx.pair, [k for k, _ in tx.matches]) for tx in loop_records] == list(common.items())

    emitted = list(accumulate(map(len, records)))
    total, size = len(observations), config.block_size
    layout = [(size, bisect_left(emitted, end)) for end in range(size, total + 1, size)]
    if total % size:
        layout.append((total % size, loops))
    assert [(len(block) - 1, block[-1].loop_index) for block in blocks] == layout

    snapshots = [VisibilitySnapshot.of(n, m, loop_records) for loop_records in records]
    election = derive_stream(config.seed, "election")
    stakes = [config.initial_stake] * n
    counts = Counter()
    replayed = []
    for *batch, reward in blocks:
        snapshot = snapshots[min(reward.loop_index, loops - 1)]
        alpha = AlphaMatrix.from_pair_counts(counts, n)
        matrix = navigability_matrix(StakeTable(stakes), snapshot, alpha)
        weights = [matrix.row_sum(i) for i in range(n)]
        generator = sim.elect_generator(weights, election, stakes, range(n))
        replayed.append((average_navigability(matrix).hex(), generator))
        assert reward.reward == config.generator_reward
        counts.update(tx.pair for tx in batch)
        stakes[reward.generator] += reward.reward
    return replayed, stakes


def replayed_run(config):
    """Run the engine and require the oracle's replay of its ledger to give
    every block's average and generator and the final stakes."""
    state = run_experiment(config)
    replayed, stakes = replay_from_ledger(config, state)
    assert replayed == [(b.avg_navigability.hex(), b.generator) for b in state.chain.blocks]
    assert stakes == state.stakes
    return state


@pytest.mark.parametrize("seed", [0, 1, 13])
def test_sealed_averages_replay_bit_identically(seed):
    replayed_run(WorldConfig(seed=seed))


def test_replay_equivalence_holds_under_scenario():
    replayed_run(WorldConfig(seed=2, degradation=DegradationScenario((2, 6), 3, 7, 0.25)))


@st.composite
def drawn_runs(draw):
    """A config: a small world of shapes nobody picked, with block
    size 1, a single robot, no landmarks or loops, a radius up to five times
    the world, no step and no reward all allowed, and an optional
    degradation that the world admits, multiplier 0.0 included."""
    width = draw(st.floats(1.0, 500.0))
    height = draw(st.floats(1.0, 500.0))
    extent = max(width, height)
    config = WorldConfig(
        n_robots=draw(st.integers(1, 8)),
        n_landmarks=draw(st.integers(0, 12)),
        width=width,
        height=height,
        loops=draw(st.integers(0, 4)),
        sensing_radius=draw(st.floats(MIN_RADIUS, 5.0 * extent)),
        step_size=draw(st.floats(0.0, extent)),
        block_size=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
        generator_reward=draw(st.floats(0.0, 1.0)),
    )
    if config.n_robots < 2 or config.loops < 1 or not draw(st.booleans()):
        return config
    robot = st.integers(0, config.n_robots - 1)
    pair = draw(st.lists(robot, min_size=2, max_size=2, unique=True))
    start = draw(st.integers(0, config.loops - 1))
    end = draw(st.integers(start, config.loops - 1))
    multiplier = draw(st.floats(0.0, 1.0, exclude_max=True))
    return config._replace(degradation=DegradationScenario(tuple(pair), start, end, multiplier))


@settings(deadline=None, max_examples=200)
@given(drawn_runs())
def test_drawn_worlds_replay_through_the_oracle(config):
    # Every skip the engine makes (grid prune, masks of seers, live terms
    # only, cold pairs held apart, records pending across loops, robots
    # without a live term left out of the election) must give the oracle's
    # averages, generators and stakes on worlds that no test placed by hand.
    replayed_run(config)


# Every pair starts with no history, and 7 does not divide a loop's pairs, so
# transactions left pending from loop 0 are sealed in loop 1 and give pairs
# that cooperate there their first importance mid-loop.
COLD_START = dict(n_robots=30, n_landmarks=60, loops=2, block_size=7)


def test_replay_equivalence_holds_from_a_cold_start():
    replayed_run(WorldConfig(**COLD_START, seed=0))


@pytest.mark.parametrize("reward", [0.0, 5e-324])
def test_the_least_stakes_a_config_admits_still_elect(monkeypatch, reward):
    # The least initial stake, with no reward or the least one. Every stake
    # stays positive, so when no robot has navigability the stakes elect, and
    # no election finds both levels empty.
    stake_elections = 0
    elect = sim.elect_generator

    def counting(weights, rng, stakes, robots):
        nonlocal stake_elections
        stake_elections += not any(w > 0.0 for w in weights)
        return elect(weights, rng, stakes, robots)

    monkeypatch.setattr(sim, "elect_generator", counting)
    for seed in range(5):
        config = WorldConfig(**COLD_START, seed=seed, initial_stake=5e-324,
                             generator_reward=reward)
        assert run_experiment(config).chain.blocks
    assert stake_elections > 0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("world", [COLD_START, {}], ids=["cold_start", "default"])
def test_loop_snapshots_read_back_from_the_ledger(monkeypatch, world, seed):
    # The snapshot the engine builds from each loop's records is the one the
    # ledger's records of that loop give back.
    config = WorldConfig(**world, seed=seed)
    n, m = config.n_robots, config.n_landmarks
    returned = []

    def recording(state):
        observations = compute_visibility(state)
        returned.append(VisibilitySnapshot.of(n, m, observations))
        return observations

    monkeypatch.setattr(sim, "compute_visibility", recording)
    chain = run_experiment(config).chain
    read_back = [[] for _ in range(config.loops)]
    sealed_in = [set() for _ in range(config.loops)]
    for block in chain.blocks:
        for tx in block.transactions:
            if isinstance(tx, Observation):
                read_back[tx.loop_index].append(tx)
                sealed_in[tx.loop_index].add(block.index)
    assert len(returned) == config.loops
    assert [VisibilitySnapshot.of(n, m, records) for records in read_back] == returned
    # Some loop's records span blocks, and the last block seals a remainder.
    assert any(len(blocks) > 1 for blocks in sealed_in)
    assert len(chain.blocks[-1].transactions) <= config.block_size


@pytest.mark.parametrize("scenario", [None, DegradationScenario((2, 10), 1, 3, 0.0)])
def test_replay_equivalence_holds_in_a_sparse_world(scenario):
    fast = replayed_run(SPARSE._replace(degradation=scenario))
    assert fast.min_common == 0
    assert any(b.avg_navigability > 0.0 for b in fast.chain.blocks)
    if scenario is not None:
        zeroed = [
            tx.matches
            for b in fast.chain.blocks for tx in b.transactions
            if isinstance(tx, Observation) and tx.pair == (2, 10) and 1 <= tx.loop_index <= 3
        ]
        assert zeroed and all(q == 0.0 for matches in zeroed for _, q in matches)


@pytest.mark.parametrize("config", [
    *(WorldConfig(seed=seed) for seed in range(5)),
    WorldConfig(seed=3, degradation=DegradationScenario((2, 7), 4, 6, 0.1)),
    WorldConfig(**COLD_START, seed=0),
    WorldConfig(**COLD_START, seed=1),
], ids=["seed0", "seed1", "seed2", "seed3", "seed4", "degraded", "cold0", "cold1"])
def test_the_ledger_replays_through_the_seal_state(config):
    # The state each seal starts from (stakes, pair history, the loop's
    # snapshot) is re-derived from the ledger alone. Some block carries
    # records over from an earlier loop, and the last block seals a remainder.
    blocks = replayed_run(config).chain.blocks
    assert any(len({tx.loop_index for tx in b.transactions[:-1]}) > 1 for b in blocks)
    assert blocks[-1].transactions[-1].loop_index == config.loops
    assert any(block.avg_navigability > 0.0 for block in blocks)
