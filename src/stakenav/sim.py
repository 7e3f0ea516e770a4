"""The engine: a run in two stages, the world's and the consensus layer's.

The world stage observes. Each loop `step_movement` moves every robot by a
random bounded step, and `compute_visibility` finds which landmarks each
robot recognizes (Euclidean distance within the sensing radius), draws a
fresh match quality for every pairwise common landmark, scales one pair's
qualities while the config's `degradation`, if any, is active, and returns
the loop's observation records, one per pair that shares at least one
landmark. Its state is a `World`, built from the config and the positions
`init_world` places: the config, the movement and quality streams it derives
from the seed, the trajectory, the landmark grid and the loop index its
records carry. It reads no stake, block or election. `observe(world)` runs
it: a generator that runs `config.loops` loops and yields each loop's records.

The consensus stage seals whatever records it is fed. Its state is a
`Consensus`, built from a `WorldConfig` alone with no world placed: the
stakes, the chain, the pending list, the seal-time navigability
(`SealState`), the election stream, the loop index its rewards carry and
the common-landmark extremes. `emit_transactions` is its one per-loop
entry: it starts the seal state's loop on the records, reads the extremes
from their match counts and queues them. `maybe_seal_blocks` then seals
every full batch: it elects the generator by navigability (stake weights
as cold-start fallback; `elect_generator`), appends a reward transaction
and credits the generator's stake. `seal_stream(config, loops)` runs it
over any stream of records, one ascending list per loop with empty loops
included, and returns the finished `Consensus`. `run_experiment` is the two
stages joined:

    world = World(config, *init_world(config))
    ExperimentState(world, seal_stream(config, observe(world)))

and a ledger's records read back and grouped by loop are sealed the same
way, into the same bytes.

Robots are indexed by id in the trajectory's positions and in the stakes.
The paper's formulas, one pair at a time, are in `stakenav.reference`,
which only tests call; nothing here imports it.

Cost model. Per loop, the world stage works in proportion to sightings and
cooperating pairs, never to all n^2 pairs or all landmarks. Each landmark
is bucketed once per run into its cell of a grid of cells wider than the
sensing radius, so a robot measures distances only to the landmarks of its
own cell and the eight around it. Each sighting also sets the robot's bit
in the landmark's mask of seers, and a robot's partners are the OR of the
masks of the landmarks it sees, so a pair that shares nothing is never
visited. The consensus stage's per-loop entry is linear in the records.
Per seal, it works in proportion to the live terms, plus one O(n)
`total_stake()`: navigability sums only pairs that share a landmark this
loop and have sealed history, which is kept only for pairs that sealed
together (see `SealState`), and the election sees only robots with a live
term. A skipped distance test could only have failed, and a skipped pair,
term or robot could only have added an exact zero: the bytes are the full
quadratic pass's. Every seal raises the total stake and so every stake
weight, and float order forbids keeping row sums across seals. A team that
keeps a fixed density seals O(n) blocks, so its run time grows at least
as n^2.

A loop's records are each built once around their drawn (landmark id,
quality) tuples. The seal state sums their qualities, emission queues them
as they are, and sealing encodes the tuples straight into the block's dump
line, which the block keeps instead of the records.

`Chain.append_block` numbers transactions as it seals them, in pending
order, so ids across the chain are gapless even though reward transactions
are interleaved.
"""
from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate
from random import Random
from typing import NamedTuple

from .domain import WorldConfig, derive_stream, init_world, ordered_sum
from .ledger import Block, Chain, Observation, Reward

# Shared-transaction count at which a pair's importance saturates; counts are
# mapped to the ten levels 0.1, 0.2, ..., 1.0 (plus 0 for no history).
IMPORTANCE_LEVELS = 10
# min(c, L) / L for c in 0..L, and each level's successor after one more record.
_IMPORTANCE = [c / IMPORTANCE_LEVELS for c in range(IMPORTANCE_LEVELS + 1)]
_NEXT_IMPORTANCE = dict(zip(_IMPORTANCE, _IMPORTANCE[1:] + _IMPORTANCE[-1:]))


class SealState:
    """Seal-time navigability of one run: pair history and this loop's live terms.

    `alpha[i][j]` is pair (i, j)'s importance, min(c, 10) / 10 after c sealed
    observations, one of the eleven levels in `_IMPORTANCE`. `alpha` maps
    robot -> {partner: level} for each pair `record` has counted, both ways
    with one level float, and is the run's one record of pair history: any
    other pair's importance is 0.0. It grows with the pairs that sealed, not
    with n^2, and the cyclic garbage collector does not track its dicts.

    `_rows`, built by `start_loop` from the loop's records, lists each robot
    with live terms once, as (robot, row) ascending by robot id, and
    `_index` finds the same rows by robot id. A row holds the partners that
    share a landmark with its robot this loop and have a non-zero
    importance, as (j, pair quality sum) ascending by j. A cooperating pair
    with no sealed history is held apart until a seal gives it one; then it
    joins both rows at its sorted place, and a robot that had no row gets
    one at its own sorted place. Pending transactions from earlier loops can
    do that mid-loop. Robot ids are unique in `_rows` and partner ids in a
    row, so `sorted` and `insort` never compare a row or a quality sum.
    """

    def __init__(self):
        self.alpha: defaultdict[int, dict[int, float]] = defaultdict(dict)
        self._rows: list[tuple[int, list[tuple[int, float]]]] = []
        self._index: dict[int, list[tuple[int, float]]] = {}
        # (i, j) -> pair quality sum of cooperating pairs with no history.
        self._cold: dict[tuple[int, int], float] = {}

    def start_loop(self, observations: Iterable[Observation]) -> None:
        """Replace the rows with one loop's observation records, ascending by
        pair as `compute_visibility` returns them; a pair's quality sum adds
        its qualities left to right from 0.0, as `ordered_sum` does. Row r
        then receives its partners below r before those above, each in order,
        and the robots are sorted once.
        """
        alpha = self.alpha
        rows: defaultdict[int, list[tuple[int, float]]] = defaultdict(list)
        cold = {}
        for record in observations:
            i, j = record.pair
            total = 0.0
            for _, q in record.matches:
                total += q
            if j in alpha.get(i, ()):
                rows[i].append((j, total))
                rows[j].append((i, total))
            else:
                cold[record.pair] = total
        self._rows = sorted(rows.items())
        self._index = rows
        self._cold = cold

    def record(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Count one sealed observation for each (i, j) pair, i < j."""
        alpha = self.alpha
        cold = self._cold
        for pair in pairs:
            i, j = pair
            level = alpha[i].get(j, 0.0)
            if not level and pair in cold:  # a cooperating pair's first record
                total = cold.pop(pair)
                insort(self._row(i), (j, total))
                insort(self._row(j), (i, total))
            alpha[i][j] = alpha[j][i] = _NEXT_IMPORTANCE[level]

    def _row(self, robot: int) -> list[tuple[int, float]]:
        """The robot's live row, first added to `_rows` at its sorted place
        if the robot had none."""
        row = self._index.get(robot)
        if row is None:
            row = self._index[robot] = []
            insort(self._rows, (robot, row))
        return row

    def weights(self, stakes: list[float], total_stake: float) -> tuple[list[int], list[float], float]:
        """The robots with live terms, ascending; their navigability; its average.

        `robots[k]` owns `weights[k]`. `stakes` is indexed by robot id, and
        `total_stake` is its left-to-right sum. Each row sums
        alpha_ij * (w_i * pair sum) in ascending j, and the average sums rows
        in ascending i, as the oracle's `navigability_matrix`,
        `NavigabilityMatrix.row_sum` and `average_navigability` do (see
        `stakenav.reference`), so the results match them bit for bit. Every
        term or robot left out has a zero importance or a zero pair sum, so it
        is 0.0 * finite >= 0 == +0.0, and acc + 0.0 == acc for any acc >= 0.
        The average's sum is taken in the same pass, left to right from 0.0,
        as `ordered_sum(weights)` would.
        """
        n = len(stakes)
        alpha = self.alpha
        robots = []
        weights = []
        total = 0.0
        for i, row in self._rows:
            w_i = stakes[i] / total_stake
            alpha_row = alpha[i]
            acc = 0.0
            for j, pair_sum in row:
                acc += alpha_row[j] * (w_i * pair_sum)
            robots.append(i)
            weights.append(acc)
            total += acc
        return robots, weights, total / (n * (n - 1))


class World:
    """The world part of a run: config, the `movement` and `quality` streams
    it derives from `config.seed`, trajectory, landmark grid, and the loop
    index that `compute_visibility` stamps on its records.

    `trajectory[t][i]` is robot i's (x, y) position after t movement steps:
    `trajectory[0]` is the placement and `trajectory[-1]` where the robots
    are now. Landmark k's (x, y) position is held only in the landmark grid
    (see `_landmark_grid`).
    """

    def __init__(
        self,
        config: WorldConfig,
        positions: list[tuple[float, float]],
        landmarks: list[tuple[float, float]],
    ):
        self.config = config
        self.movement = derive_stream(config.seed, "movement")
        self.quality = derive_stream(config.seed, "quality")
        self.loop_index = 0
        self.trajectory = [positions]
        self._grid = _landmark_grid(config, landmarks)


class Consensus:
    """The consensus part of a run, built from its config alone.

    `stakes[i]` is robot i's stake. `seal` holds the pair history and this
    loop's live navigability terms, and its sealed averages replay the
    reference oracle's sums bit for bit. `election` is the stream
    `derive_stream(seed, "election")`, and `loop_index` is stamped on each
    reward. `max_common` and `min_common` are the most and the fewest
    landmarks a pair has shared in one loop fed so far; `min_common` is
    None until a team of two or more robots is fed a loop.
    """

    def __init__(self, config: WorldConfig):
        self.config = config
        self.stakes = [config.initial_stake] * config.n_robots
        self.chain = Chain(n_robots=config.n_robots)
        self.pending: list[Observation] = []
        self.seal = SealState()
        self.election = derive_stream(config.seed, "election")
        self.loop_index = 0
        self.max_common = 0
        self.min_common: int | None = None

    def total_stake(self) -> float:
        """Left-to-right total of the stakes; ValueError once it has overflowed.

        Huge finite stakes and rewards can sum to inf, which would turn every
        stake weight into 0 or nan and make the exports unencodable.
        """
        total = ordered_sum(self.stakes)
        if not math.isfinite(total):
            raise ValueError(f"total stake overflowed to {total}; initial stake or reward too large")
        return total


class ExperimentState(NamedTuple):
    """A finished run: its world part and its consensus part."""

    world: World
    consensus: Consensus


def step_movement(world: World) -> list[tuple[float, float]]:
    """Move every robot by a uniform step in [-step_size, +step_size] per axis,
    x before y, robot by robot, clamped to the world bounds. Appends the new
    positions to the trajectory.
    """
    config = world.config
    random = world.movement.random
    step = config.step_size
    low = -step
    span = step - low
    positions = []
    for x, y in world.trajectory[-1]:
        dx = low + span * random()
        dy = low + span * random()
        positions.append(
            (min(max(x + dx, 0.0), config.width), min(max(y + dy, 0.0), config.height))
        )
    world.trajectory.append(positions)
    return positions


_Cells = dict[int, list[tuple[int, float, float]]]


def _landmark_grid(
    config: WorldConfig, landmarks: list[tuple[float, float]]
) -> tuple[float, int, _Cells]:
    """Cell size, key stride and the landmarks in each cell.

    Cell (x // size, y // size) is keyed by one integer,
    `int(x // size) * stride + int(y // size)`, where `stride` is
    `int(config.height // size) + 3`. The map lists (id, x, y) of each
    landmark once, in its cell, ascending by id, and only non-empty cells.
    `compute_visibility` reads a robot's nine cells, its own and the eight
    around it, by adding nine fixed offsets to the robot's own key: the keys
    of two cells differ by dx * stride + dy, so a neighbour's key is always
    one of them. A point of the world has a y index in [0, stride - 3], so
    the y indices a probe reaches, -1 to stride - 2, span fewer than
    `stride` values and no probe lands on a cell that is not a neighbour.

    The prune is conservative: the distance test alone decides, and no
    landmark it would accept lies outside the robot's neighbourhood. The test
    accepts only if dx * dx <= radius_sq (the dy term can only add), so
    |dx| <= sqrt(radius_sq) up to rounding, since `WorldConfig`'s length
    bounds keep both sides finite and radius_sq normal (see `domain.MAX_LENGTH`).
    The cell is at least 1.0001 times that reach, a margin far above
    rounding, so the exact quotients x / size of robot and landmark differ
    by less than one and their floors by at most one; likewise for y. Float
    floor division returns that exact floor while the quotient stays far
    below 2**51, which a cell of at least 2**-40 of the world's extent
    ensures, and `int()` of that exact floor is exact.
    """
    radius_sq = config.sensing_radius * config.sensing_radius
    reach = math.sqrt(radius_sq) * 1.0001
    size = max(reach, max(config.width, config.height) / 2**40)
    stride = int(config.height // size) + 3
    cells: _Cells = {}
    for k, (x, y) in enumerate(landmarks):
        cells.setdefault(int(x // size) * stride + int(y // size), []).append((k, x, y))
    # Landmarks are visited in id order, so every list is already ascending.
    return size, stride, cells


def compute_visibility(world: World) -> list[Observation]:
    """This loop's observation records: one per pair sharing a landmark.

    A robot recognizes a landmark iff their Euclidean distance is within the
    sensing radius; only the landmarks of the robot's grid cell and the eight
    around it are measured, found by the robot's integer cell key plus nine
    fixed offsets, in no particular order, since sightings land in sets and
    masks (see `_landmark_grid`). Each sighting sets the robot's bit
    in the landmark's mask of seers; robot i's partners are the bits above i
    in the OR of its landmarks' masks, so work grows with sightings and
    cooperating pairs, never with all pairs or all landmarks.
    Qualities are drawn uniformly in [0, 1) per (pair, common landmark), in
    ascending pair-then-landmark order; pairs that share nothing draw
    nothing, exactly as in a full pass. Each record is built in one
    expression around its ascending (landmark id, quality) tuples, carries
    `world.loop_index`, and the records ascend by pair. After the walk, the
    config's degradation, if active this loop, rescales its pair's record
    in place.
    """
    config = world.config
    radius_sq = config.sensing_radius * config.sensing_radius
    size, stride, cells = world._grid
    around = [nx * stride + ny for nx in (-1, 0, 1) for ny in (-1, 0, 1)]
    recognized: list[set[int]] = []
    # Seen landmark id -> mask of the robots that see it.
    seers: defaultdict[int, int] = defaultdict(int)
    for i, (rx, ry) in enumerate(world.trajectory[-1]):
        key = int(rx // size) * stride + int(ry // size)
        seen = set()
        bit = 1 << i
        for offset in around:
            for k, lx, ly in cells.get(key + offset, ()):
                dx = rx - lx
                dy = ry - ly
                if dx * dx + dy * dy <= radius_sq:
                    seen.add(k)
                    seers[k] |= bit
        recognized.append(seen)

    loop = world.loop_index
    random = world.quality.random
    observations: list[Observation] = []
    for i, rec_i in enumerate(recognized):
        partners = 0
        for k in rec_i:
            partners |= seers[k]
        # Shifted, bit b stands for robot i + 1 + b; walked lowest first, j ascends.
        partners >>= i + 1
        j = i
        while partners:
            step = (partners & -partners).bit_length()
            partners >>= step
            j += step
            common = sorted(rec_i & recognized[j])
            observations.append(Observation((i, j), [(k, random()) for k in common], loop))
    scenario = config.degradation
    if scenario is not None and scenario.active(loop):
        for record in observations:
            if record.pair == scenario.pair:
                record.matches[:] = [(k, q * scenario.multiplier) for k, q in record.matches]
    return observations


def emit_transactions(
    consensus: Consensus, observations: list[Observation]
) -> list[Observation]:
    """The consensus stage's per-loop entry: take one loop's records.

    The records ascend by pair, as `compute_visibility` returns them. The
    seal state starts its loop on them, and the common-landmark extremes
    are read from their match counts; a team with fewer records than pairs
    has a pair that shares nothing, which counts 0. The records then go to
    the pending list as they are, neither copied nor re-checked, and the
    same list is returned.
    """
    consensus.seal.start_loop(observations)
    counts = [len(record.matches) for record in observations]
    n = consensus.config.n_robots
    if len(observations) < n * (n - 1) // 2:
        counts.append(0)  # some pair shares no landmark
    if counts:
        least = min(counts)
        consensus.max_common = max(consensus.max_common, *counts)
        if consensus.min_common is not None:
            least = min(consensus.min_common, least)
        consensus.min_common = least
    consensus.pending.extend(observations)
    return observations


def elect_generator(
    weights: list[float], rng: Random, stakes: list[float], robots: Sequence[int]
) -> int:
    """Elect a robot id with probability proportional to its weight.

    `robots[k]` owns `weights[k]`, and robots left out weigh zero. One
    `random()` draw picks from the cumulative weights (see `_draw`), or from
    `stakes`, indexed by robot id, if no weight is positive. ValueError if
    the stakes' total is not positive too; a run's stakes never are.
    """
    if len(robots) != len(weights):
        raise ValueError(f"{len(robots)} robots for {len(weights)} weights")
    for w in weights:
        if w < 0:
            raise ValueError(f"election weights must be >= 0, got {w}")
    k = _draw(weights, rng)
    if k is not None:
        return robots[k]
    k = _draw(stakes, rng)
    if k is None:
        raise ValueError("election stakes must total > 0 when no weight is positive")
    return k


def _draw(weights: list[float], rng: Random) -> int | None:
    """Index k drawn with probability weights[k] / total; None unless total > 0.

    The running sums are `ordered_sum`'s left-to-right adds. If rounding
    leaves the draw at the total, k is the last index with positive weight.
    """
    cumulative = list(accumulate(weights, initial=0.0))
    total = cumulative[-1]
    if not total > 0.0:
        return None
    k = bisect_right(cumulative, rng.random() * total) - 1
    if k == len(weights):
        k = max(i for i, w in enumerate(weights) if w > 0.0)
    return k


def maybe_seal_blocks(consensus: Consensus, finalize: bool = False) -> list[Block]:
    """Seal full batches while enough transactions are pending.

    Each seal elects the generator by navigability, appends the batch and its
    reward, records the batch's pairs and credits the generator's stake.
    With `finalize`, also seal any non-empty remainder (end of experiment).
    """
    config = consensus.config
    stakes = consensus.stakes
    sealed = []
    pending = consensus.pending
    block_size = config.block_size
    while len(pending) >= block_size or (finalize and pending):
        batch = pending[:block_size]
        del pending[:block_size]
        # Importance comes from the chain before this block, so a block's own
        # transactions only influence later elections.
        robots, weights, avg_nav = consensus.seal.weights(stakes, consensus.total_stake())
        generator = elect_generator(weights, consensus.election, stakes, robots)
        reward = Reward(generator, config.generator_reward, consensus.loop_index)
        sealed.append(consensus.chain.append_block(batch + [reward], avg_nav))
        consensus.seal.record([tx.pair for tx in batch])
        stakes[generator] += config.generator_reward
    return sealed


def observe(world: World) -> Iterator[list[Observation]]:
    """Run the world stage: for each of the config's loops, set the loop
    index, move the robots and yield the loop's records."""
    for loop in range(world.config.loops):
        world.loop_index = loop
        step_movement(world)
        yield compute_visibility(world)


def seal_stream(config: WorldConfig, loops: Iterable[list[Observation]]) -> Consensus:
    """Run the consensus stage: a new `Consensus` for `config` takes each
    loop's records and seals every full batch, its rewards stamped with the
    loop's index, then seals the remainder stamped `config.loops`; returns it."""
    consensus = Consensus(config)
    for loop, records in enumerate(loops):
        consensus.loop_index = loop
        emit_transactions(consensus, records)
        maybe_seal_blocks(consensus)
    consensus.loop_index = config.loops
    maybe_seal_blocks(consensus, finalize=True)
    return consensus


def run_experiment(config: WorldConfig) -> ExperimentState:
    """Run the full experiment: place the world, then seal what it observes.

    Deterministic: equal configs, `degradation` included, give bit-identical
    final states, ledgers, and series.
    """
    world = World(config, *init_world(config))
    return ExperimentState(world, seal_stream(config, observe(world)))
