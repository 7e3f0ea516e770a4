"""Experiment driver: random motion, visibility, emission, block sealing.

Each loop moves every robot by a random bounded step, recomputes which
landmarks each robot recognizes (Euclidean distance within the sensing
radius), draws a fresh match quality for every pairwise common landmark,
emits one observation transaction per pair that shares at least one landmark,
and seals blocks whenever enough transactions are pending. Sealing elects the
generator by navigability (stake weights as cold-start fallback), appends a
reward transaction, and credits the generator's stake.

The loop does work in proportion to the pairs that cooperate, not to all n^2
pairs. Landmarks are bucketed once per run into a grid of cells wider than
the sensing radius, so a robot measures distances only to the landmarks of
its own and the eight surrounding cells. Each robot's sightings are also kept
as a bitmask, and a pair whose masks share no bit is skipped with one integer
AND. A seal sums each robot's navigability over its live terms only: the
partners it shares a landmark with this loop and has sealed observations
with (see `navigability.SealState`). A skipped distance test could only have
failed, and a skipped pair or term could only have added an exact zero, so
the bytes are those of the full quadratic pass.

Each drawn quality is handled once. Visibility stores it in its pair's list
of (landmark id, quality) tuples; emission hands that list to the pair's
transaction, which keeps the same tuples after checking them; sealing
encodes the tuples straight into the block body.

Transaction ids are assigned at seal time in pending order, so ids across the
chain are gapless even though reward transactions are interleaved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .consensus import VisibilitySnapshot, elect_generator
from .domain import (
    ConfigError,
    Landmark,
    RandomStreams,
    RobotState,
    WorldConfig,
    init_world,
    normalize_pair,
    ordered_sum,
)
from .ledger import KIND_OBSERVATION, Block, Chain, Transaction
from .navigability import SealState


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
        for name in ("start_loop", "end_loop", "multiplier"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
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
    """Everything one run accumulates: world, chain, pending, logs, seal state."""

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
        # Pair history and this loop's live navigability terms; sealed
        # averages replay the navigability module's sums bit for bit.
        self.seal = SealState(config.n_robots)
        self._grid = _landmark_grid(config, landmarks)

    def total_stake(self) -> float:
        return _finite_total(r.stake for r in self.robots)


def _finite_total(stakes) -> float:
    """Left-to-right total of the stakes; ValueError once it has overflowed.

    Huge finite stakes and rewards can sum to inf, which would turn every
    stake weight into 0 or nan and make the exports unencodable.
    """
    total = ordered_sum(stakes)
    if not math.isfinite(total):
        raise ValueError(f"total stake overflowed to {total}; initial stake or reward too large")
    return total


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


def _landmark_grid(
    config: WorldConfig, landmarks: list[Landmark]
) -> tuple[float, dict[tuple[float, float], list[tuple[int, float, float, int]]]]:
    """Cell size, and the landmarks in each cell's 3x3 neighbourhood.

    A cell is (x // size, y // size). For every cell next to a landmark, the
    map lists (id, x, y, mask bit) of the landmarks in that cell and its eight
    neighbours, ascending by id; a cell missing from the map has none.

    The prune is conservative: the distance test alone decides, and no
    landmark it would accept lies outside the robot's neighbourhood. The test
    accepts only if dx * dx <= radius_sq (the dy term can only add), so
    |dx| <= sqrt(radius_sq) up to rounding, or |dx| < 2**-511, below which
    dx * dx leaves the normal float range and rounds by an absolute amount.
    The cell is at least 1.0001 times that reach, a margin far above
    rounding, so the exact quotients x / size of robot and landmark differ
    by less than one and their floors by at most one; likewise for y. Float
    floor division returns that exact floor while the quotient stays far
    below 2**51, which a cell of at least 2**-40 of the world's extent
    ensures.
    """
    radius_sq = config.sensing_radius * config.sensing_radius
    reach = max(math.sqrt(radius_sq), 2.0**-511) * 1.0001
    size = max(reach, max(config.width, config.height) / 2**40)
    near: dict[tuple[float, float], list[tuple[int, float, float, int]]] = {}
    for lm in landmarks:
        cx = lm.x // size
        cy = lm.y // size
        entry = (lm.id, lm.x, lm.y, 1 << lm.id)
        for nx in (cx - 1.0, cx, cx + 1.0):
            for ny in (cy - 1.0, cy, cy + 1.0):
                near.setdefault((nx, ny), []).append(entry)
    # Landmarks are visited in id order, so every list is already ascending.
    return size, near


def compute_visibility(state: ExperimentState) -> VisibilitySnapshot:
    """Recognition sets and fresh pairwise match qualities for this loop.

    A robot recognizes a landmark iff their Euclidean distance is within the
    sensing radius; only the landmarks of the robot's 3x3 grid neighbourhood
    are measured (see `_landmark_grid`). A pair whose landmark bitmasks share
    no bit is skipped before any set intersection. Qualities are drawn
    uniformly in [0, 1) per (pair, common landmark), in ascending
    pair-then-landmark order, then scaled by an active degradation scenario;
    pairs that share nothing draw nothing, exactly as in a full pass. Each
    cooperating pair's (landmark id, quality) tuples, ascending by id, go
    into the snapshot's `cooperating` list as they are drawn; emission uses
    them as they are, and no (i, j, k) map is built. Also starts the seal
    state's loop with every pair's quality sum and refreshes the common-count
    extremes.
    """
    config = state.config
    radius_sq = config.sensing_radius * config.sensing_radius
    size, near = state._grid
    recognized: list[set[int]] = []
    masks: list[int] = []
    for robot in state.robots:
        seen = set()
        mask = 0
        rx, ry = robot.x, robot.y
        for k, lx, ly, bit in near.get((rx // size, ry // size), ()):
            dx = rx - lx
            dy = ry - ly
            if dx * dx + dy * dy <= radius_sq:
                seen.add(k)
                mask |= bit
        recognized.append(seen)
        masks.append(mask)

    scenario = state.scenario
    degraded_pair = None
    if scenario is not None and scenario.active(state.loop_index):
        degraded_pair = scenario.pair
    random = state.streams.quality.random
    cooperating: list[tuple[int, int, list[tuple[int, float]]]] = []
    pair_sums: list[tuple[int, int, float]] = []
    n = len(recognized)
    least = None
    for i in range(n):
        mask_i = masks[i]
        rec_i = recognized[i]
        for j in [j for j in range(i + 1, n) if mask_i & masks[j]]:
            common = sorted(rec_i & recognized[j])
            count = len(common)
            if count > state.max_common:
                state.max_common = count
            if least is None or count < least:
                least = count
            matches = []
            total = 0.0
            scale = degraded_pair == (i, j)
            for k in common:
                q = random()
                if scale:
                    q *= scenario.multiplier
                matches.append((k, q))
                total += q
            pair_sums.append((i, j, total))
            cooperating.append((i, j, matches))
    state.seal.start_loop(pair_sums)
    if len(cooperating) < n * (n - 1) // 2:
        least = 0  # some pair shares no landmark
    if least is not None and (state.min_common is None or least < state.min_common):
        state.min_common = least
    return VisibilitySnapshot(config.n_landmarks, recognized, cooperating=cooperating)


def emit_transactions(
    state: ExperimentState, snapshot: VisibilitySnapshot
) -> list[Transaction]:
    """One pending observation transaction per pair sharing >= 1 landmark.

    Walks the snapshot's cooperating pairs, so pairs come out ascending and
    each pair's matches ascending by landmark id. Each transaction gets the
    pair's drawn match list.
    """
    loop = state.loop_index
    added = [
        Transaction.observation((i, j), matches, loop)
        for i, j, matches in snapshot.cooperating
    ]
    state.pending.extend(added)
    return added


def _seal_batch(state: ExperimentState, batch: list[Transaction]) -> Block:
    """Seal one batch: elect by navigability, append reward, update stakes.

    Importance comes from the chain state before this block, so a block's own
    transactions only influence later elections.
    """
    config = state.config
    stakes = [r.stake for r in state.robots]
    weights, avg_nav = state.seal.weights(stakes, _finite_total(stakes))
    generator = elect_generator(weights, state.streams.election, stakes=stakes)
    next_id = state.chain.next_tx_id
    for tx in batch:
        tx.tx_id = next_id
        next_id += 1
    reward_tx = Transaction.generator_reward(generator, config.generator_reward, state.loop_index)
    reward_tx.tx_id = next_id
    block = state.chain.append_block(batch + [reward_tx], generator, avg_nav)
    state.nav_series.append((block.index, block.avg_navigability))
    state.seal.record([tx.pair for tx in batch if tx.kind == KIND_OBSERVATION])
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
