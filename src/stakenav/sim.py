"""Experiment driver: random motion, visibility, emission, block sealing.

Each loop moves every robot by a random bounded step, recomputes which
landmarks each robot recognizes (Euclidean distance within the sensing
radius), draws a fresh match quality for every pairwise common landmark,
emits one observation transaction per pair that shares at least one landmark,
and seals blocks whenever enough transactions are pending. Sealing elects the
generator by navigability (stake weights as cold-start fallback), appends a
reward transaction, and credits the generator's stake.

Transaction ids are assigned at seal time in pending order, so ids across the
chain are gapless even though reward transactions are interleaved.
"""
from __future__ import annotations

from dataclasses import dataclass

from .consensus import VisibilitySnapshot, common_landmarks, elect_generator
from .domain import (
    ConfigError,
    Landmark,
    ObservationMatch,
    RandomStreams,
    RobotState,
    WorldConfig,
    init_world,
    normalize_pair,
    ordered_sum,
)
from .ledger import KIND_OBSERVATION, Block, Chain, Transaction
from .navigability import IMPORTANCE_LEVELS


@dataclass(frozen=True)
class DegradationScenario:
    """Multiply one pair's drawn match qualities during a window of loops.

    The window [start_loop, end_loop] is inclusive over 0-based loop indices.
    """

    pair: tuple[int, int]
    start_loop: int
    end_loop: int
    multiplier: float

    def __post_init__(self):
        object.__setattr__(self, "pair", normalize_pair(*self.pair))
        if self.start_loop < 0:
            raise ConfigError(f"start_loop must be >= 0, got {self.start_loop}")
        if self.end_loop < self.start_loop:
            raise ConfigError(
                f"end_loop must be >= start_loop, got [{self.start_loop}, {self.end_loop}]"
            )
        if not 0.0 <= self.multiplier < 1.0:
            raise ConfigError(f"multiplier must be in [0, 1), got {self.multiplier}")

    def active(self, loop_index: int) -> bool:
        return self.start_loop <= loop_index <= self.end_loop

    def check_against(self, config: WorldConfig) -> None:
        if self.end_loop > config.loops:
            raise ConfigError(
                f"end_loop must be <= loops ({config.loops}), got {self.end_loop}"
            )
        if self.pair[1] >= config.n_robots:
            raise ConfigError(
                f"pair {self.pair} out of range for {config.n_robots} robots"
            )


class ExperimentState:
    """Everything one run accumulates: world, chain, pending, logs, caches."""

    def __init__(
        self,
        config: WorldConfig,
        scenario: DegradationScenario | None,
        robots: list[RobotState],
        landmarks: list[Landmark],
        streams: RandomStreams,
    ):
        self.config = config
        self.scenario = scenario
        self.robots = robots
        self.landmarks = landmarks
        self.streams = streams
        self.chain = Chain(n_robots=config.n_robots)
        self.pending: list[Transaction] = []
        self.loop_index = 0
        # One (block index, average navigability) point per sealed block.
        self.nav_series: list[tuple[int, float]] = []
        # trajectory[t] = positions after t movement steps; [0] is placement.
        self.trajectory: list[list[tuple[float, float]]] = [[r.position for r in robots]]
        self.max_common = 0
        self.min_common: int | None = None
        n = config.n_robots
        # Seal-time caches: observation counts per pair (mirrors the chain),
        # the derived importance values, and the current loop's summed
        # qualities per pair. Kept in the exact arithmetic form the
        # navigability module uses, so sealed averages replay bit-identically.
        self._counts = [[0] * n for _ in range(n)]
        self._alpha = [[0.0] * n for _ in range(n)]
        self._raw = [[0.0] * n for _ in range(n)]

    def total_stake(self) -> float:
        return ordered_sum(r.stake for r in self.robots)


def step_movement(state: ExperimentState) -> list[tuple[float, float]]:
    """Move every robot by a uniform step in [-step_size, +step_size] per axis,
    clamped to the world bounds. Appends the new positions to the trajectory."""
    config = state.config
    rng = state.streams.movement
    step = config.step_size
    for robot in state.robots:
        dx = rng.uniform(-step, step)
        dy = rng.uniform(-step, step)
        robot.x = min(max(robot.x + dx, 0.0), config.width)
        robot.y = min(max(robot.y + dy, 0.0), config.height)
    positions = [r.position for r in state.robots]
    state.trajectory.append(positions)
    return positions


def compute_visibility(state: ExperimentState) -> VisibilitySnapshot:
    """Recognition sets and fresh pairwise match qualities for this loop.

    A robot recognizes a landmark iff their Euclidean distance is within the
    sensing radius. Qualities are drawn uniformly in [0, 1) per (pair,
    common landmark), in ascending pair-then-landmark order, then scaled by an
    active degradation scenario. Also refreshes the seal-time quality cache
    and the common-count extremes.
    """
    config = state.config
    radius_sq = config.sensing_radius * config.sensing_radius
    recognized: list[set[int]] = []
    for robot in state.robots:
        seen = set()
        rx, ry = robot.x, robot.y
        for lm in state.landmarks:
            dx = rx - lm.x
            dy = ry - lm.y
            if dx * dx + dy * dy <= radius_sq:
                seen.add(lm.id)
        recognized.append(seen)

    scenario = state.scenario
    degraded_pair = None
    if scenario is not None and scenario.active(state.loop_index):
        degraded_pair = scenario.pair
    rng = state.streams.quality
    qualities: dict[tuple[int, int, int], float] = {}
    raw = state._raw
    n = len(recognized)
    for i in range(n):
        rec_i = recognized[i]
        for j in range(i + 1, n):
            common = sorted(rec_i & recognized[j])
            count = len(common)
            if count > state.max_common:
                state.max_common = count
            if state.min_common is None or count < state.min_common:
                state.min_common = count
            total = 0.0
            scale = degraded_pair == (i, j)
            for k in common:
                q = rng.random()
                if scale:
                    q *= scenario.multiplier
                qualities[(i, j, k)] = q
                total += q
            raw[i][j] = total
            raw[j][i] = total
    return VisibilitySnapshot(config.n_landmarks, recognized, qualities)


def observation_matches(
    snapshot: VisibilitySnapshot, i: int, j: int, loop_index: int
) -> list[ObservationMatch]:
    """Per-landmark sighting records for one pair, ascending by landmark id."""
    a, b = normalize_pair(i, j)
    return [
        ObservationMatch((a, b), k, snapshot.qualities[(a, b, k)], loop_index)
        for k in sorted(common_landmarks(snapshot, a, b))
    ]


def emit_transactions(
    state: ExperimentState, snapshot: VisibilitySnapshot
) -> list[Transaction]:
    """One pending observation transaction per pair sharing >= 1 landmark."""
    added = []
    loop = state.loop_index
    n = snapshot.n_robots
    for i in range(n):
        rec_i = snapshot.recognized[i]
        for j in range(i + 1, n):
            common = sorted(rec_i & snapshot.recognized[j])
            if not common:
                continue
            matches = [(k, snapshot.qualities[(i, j, k)]) for k in common]
            added.append(Transaction.observation((i, j), matches, loop))
    state.pending.extend(added)
    return added


def _navigability_weights(
    state: ExperimentState,
) -> tuple[list[float], float, list[float]]:
    """Per-robot navigability, its off-diagonal average, and current stakes.

    Evaluates importance * (stake weight * summed pair qualities) in the same
    association order as the navigability module, so the results match a
    from-scratch recomputation bit for bit.
    """
    robots = state.robots
    n = len(robots)
    stakes = [r.stake for r in robots]
    total_stake = ordered_sum(stakes)
    alpha = state._alpha
    raw = state._raw
    weights = []
    total = 0.0
    for i in range(n):
        w_i = stakes[i] / total_stake
        alpha_row = alpha[i]
        raw_row = raw[i]
        acc = 0.0
        for j in range(n):
            acc += alpha_row[j] * (w_i * raw_row[j])
        weights.append(acc)
        total += acc
    return weights, total / (n * (n - 1)), stakes


def _seal_batch(state: ExperimentState, batch: list[Transaction]) -> Block:
    """Seal one batch: elect by navigability, append reward, update stakes.

    Importance comes from the chain state before this block, so a block's own
    transactions only influence later elections.
    """
    config = state.config
    weights, avg_nav, stakes = _navigability_weights(state)
    generator = elect_generator(weights, state.streams.election, stakes=stakes)
    next_id = state.chain.next_tx_id
    for tx in batch:
        tx.tx_id = next_id
        next_id += 1
    reward_tx = Transaction.generator_reward(generator, config.generator_reward, state.loop_index)
    reward_tx.tx_id = next_id
    block = state.chain.append_block(batch + [reward_tx], generator, avg_nav)
    state.nav_series.append((block.index, block.avg_navigability))
    counts = state._counts
    alpha = state._alpha
    for tx in batch:
        if tx.kind == KIND_OBSERVATION:
            i, j = tx.pair
            count = counts[i][j] + 1
            counts[i][j] = counts[j][i] = count
            value = min(count, IMPORTANCE_LEVELS) / IMPORTANCE_LEVELS
            alpha[i][j] = alpha[j][i] = value
    state.robots[generator].stake += config.generator_reward
    return block


def maybe_seal_blocks(state: ExperimentState, finalize: bool = False) -> list[Block]:
    """Seal full batches while enough transactions are pending.

    With `finalize`, also seal any non-empty remainder (end of experiment).
    """
    sealed = []
    block_size = state.config.block_size
    while len(state.pending) >= block_size:
        batch = state.pending[:block_size]
        del state.pending[:block_size]
        sealed.append(_seal_batch(state, batch))
    if finalize and state.pending:
        batch = state.pending
        state.pending = []
        sealed.append(_seal_batch(state, batch))
    return sealed


def run_experiment(
    config: WorldConfig, scenario: DegradationScenario | None = None
) -> ExperimentState:
    """Run the full experiment: place, then loop move/see/emit/seal.

    Deterministic: equal (config, scenario) give bit-identical final states,
    ledgers, and series.
    """
    if scenario is not None:
        scenario.check_against(config)
    robots, landmarks, streams = init_world(config)
    state = ExperimentState(config, scenario, robots, landmarks, streams)
    for loop in range(config.loops):
        state.loop_index = loop
        step_movement(state)
        snapshot = compute_visibility(state)
        emit_transactions(state, snapshot)
        maybe_seal_blocks(state)
    state.loop_index = config.loops
    maybe_seal_blocks(state, finalize=True)
    return state
