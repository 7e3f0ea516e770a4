"""The paper's formulas, one robot pair and one landmark at a time: the oracle.

Stake weight, the consensus score with PoS, importance and navigability are
transcribed here as the paper states them, with no cache and no skipped term.
A run never calls this module; it seals through `sim.SealState` and elects
through `sim.elect_generator`. The acceptance tests c03, c05 and c06 check
these functions against brute force, symmetry and exact cost counts, and the
replay tests re-seal whole runs through `navigability_matrix` to show that
the engine matches it bit for bit. Their input, a `VisibilitySnapshot`, is
built by hand, or with `VisibilitySnapshot.of` from one loop's observation
records: the list `sim.compute_visibility` returns, or the records of that
loop read back from a chain's blocks.

A robot's weight is its stake normalized by the team total. The consensus
score of an ordered pair (i, j) is robot i's weight times the summed match
qualities of the landmarks k with I_k(i, j) = 1, those that both robots
recognize. Scores are not symmetric, but score(i, j) * weight(j) ==
score(j, i) * weight(i). Importance alpha_ij quantizes the pair's shared
transaction history into ten levels: min(count, 10) / 10. A robot's
navigability is the importance-weighted sum of its consensus scores with
every teammate; the navigability matrix holds the per-pair terms, so row
sums equal the per-robot navigability values.

The matrix forms count their indicator evaluations: exactly n * (n - 1) * m
for the navigability matrix, the measurable form of the quadratic-in-robots,
linear-in-landmarks cost of the full pass.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .domain import InvalidPairError, normalize_pair, ordered_sum

# The paper's ten importance levels: a pair's shared-transaction count,
# capped at this, over this.
IMPORTANCE_LEVELS = 10


class DegenerateStakesError(ValueError):
    """Every stake is zero, so weights are undefined."""


class UndefinedAverageError(ValueError):
    """The off-diagonal average needs at least two robots."""


@dataclass
class StakeTable:
    """Stakes of all robots, indexed by robot id."""

    stakes: list[float]

    def __post_init__(self):
        for i, s in enumerate(self.stakes):
            if s < 0:
                raise ValueError(f"stake of robot {i} must be >= 0, got {s}")


@dataclass
class VisibilitySnapshot:
    """Which landmarks each robot recognizes in one loop, and the pair qualities.

    `recognized[i]` is the set of landmark ids robot i recognizes, and
    `qualities` maps (i, j, k) with i < j to the match quality of landmark k
    for that pair. Checked when built: there is an entry exactly for each
    landmark in the intersection of the two robots' recognized sets, and
    every quality is in [0, 1].
    """

    n_landmarks: int
    recognized: list[set[int]]
    qualities: dict[tuple[int, int, int], float]

    def __post_init__(self):
        rec = self.recognized
        n = len(rec)
        expected = {(i, j, k) for i in range(n) for j in range(i + 1, n) for k in rec[i] & rec[j]}
        actual = set(self.qualities)
        if actual != expected:
            raise ValueError(
                f"quality keys do not match pairwise intersections: "
                f"unexpected={actual - expected}, missing={expected - actual}"
            )
        for key, q in self.qualities.items():
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quality for {key} must be in [0, 1], got {q}")

    @property
    def n_robots(self) -> int:
        return len(self.recognized)

    @classmethod
    def of(cls, n_robots: int, n_landmarks: int, observations: Iterable) -> "VisibilitySnapshot":
        """The snapshot of one loop's observation records.

        Each record gives its `pair` and the pair's `matches`, (landmark id,
        quality) tuples. Robot i's recognized set is the union of its pairs'
        common landmarks: a landmark only one robot sees is left out, so the
        sets can be smaller than the robots' own, but every pairwise
        intersection, and with it every indicator, is the same.
        """
        recognized: list[set[int]] = [set() for _ in range(n_robots)]
        qualities = {}
        for tx in observations:
            i, j = tx.pair
            for k, q in tx.matches:
                recognized[i].add(k)
                recognized[j].add(k)
                qualities[(i, j, k)] = q
        return cls(n_landmarks, recognized, qualities)


@dataclass
class ScanCounter:
    """Tally of (landmark, pair) indicator evaluations, for cost accounting."""

    scans: int = 0


def stake_weight(table: StakeTable, i: int) -> float:
    """Normalized stake of robot i: s_i over the sum of all stakes."""
    if not 0 <= i < len(table.stakes):
        raise IndexError(f"robot index {i} out of range for {len(table.stakes)} stakes")
    total = ordered_sum(table.stakes)
    if total <= 0.0:
        raise DegenerateStakesError("all stakes are zero; weights are undefined")
    return table.stakes[i] / total


def indicator(snapshot: VisibilitySnapshot, k: int, i: int, j: int) -> int:
    """I_k(i, j): 1 if both robots i and j recognize landmark k, else 0."""
    if i == j:
        raise InvalidPairError(f"indicator requires two distinct robots, got ({i}, {j})")
    rec = snapshot.recognized
    return 1 if (k in rec[i] and k in rec[j]) else 0


def consensus_score(
    table: StakeTable,
    snapshot: VisibilitySnapshot,
    i: int,
    j: int,
    counter: ScanCounter | None = None,
) -> float:
    """Weight of robot i times the summed qualities of the pair's common landmarks.

    Scans all landmarks of the snapshot, evaluating the indicator for each;
    `counter`, when given, is advanced by one per evaluation.
    """
    w_i = stake_weight(table, i)
    if not 0 <= j < snapshot.n_robots:
        raise IndexError(f"robot index {j} out of range for {snapshot.n_robots} robots")
    if i == j:
        raise InvalidPairError(f"consensus score requires two distinct robots, got ({i}, {j})")
    a, b = normalize_pair(i, j)
    qualities = snapshot.qualities
    total = 0.0
    for k in range(snapshot.n_landmarks):
        if indicator(snapshot, k, i, j):
            total += qualities[(a, b, k)]
    if counter is not None:
        counter.scans += snapshot.n_landmarks
    return w_i * total


def consensus_score_matrix(
    table: StakeTable, snapshot: VisibilitySnapshot
) -> tuple[list[list[float]], int]:
    """All pairwise consensus scores, scanning landmarks once per unordered pair.

    Returns (n x n score matrix with zero diagonal, indicator scan count).
    The scan count is m * n * (n - 1) / 2: the summed qualities are symmetric,
    so each unordered pair is scanned once and both ordered scores reuse it.
    """
    n = snapshot.n_robots
    if len(table.stakes) != n:
        raise ValueError(f"stake table has {len(table.stakes)} entries for {n} robots")
    weights = [stake_weight(table, i) for i in range(n)] if n else []
    m = snapshot.n_landmarks
    qualities = snapshot.qualities
    scores = [[0.0] * n for _ in range(n)]
    scans = 0
    for i in range(n):
        for j in range(i + 1, n):
            total = 0.0
            for k in range(m):
                if indicator(snapshot, k, i, j):
                    total += qualities[(i, j, k)]
            scans += m
            scores[i][j] = weights[i] * total
            scores[j][i] = weights[j] * total
    return scores, scans


def alpha_importance(pair_counts: Mapping[tuple[int, int], int], i: int, j: int) -> float:
    """Importance of robot j to robot i from their shared transaction count.

    `pair_counts` maps unordered pairs (min, max) to transaction counts;
    missing pairs count zero. Symmetric, capped at 1.0 from ten transactions.
    """
    pair = normalize_pair(i, j)
    count = pair_counts.get(pair, 0)
    if count < 0:
        raise ValueError(f"transaction count for pair {pair} must be >= 0, got {count}")
    return min(count, IMPORTANCE_LEVELS) / IMPORTANCE_LEVELS


@dataclass
class AlphaMatrix:
    """Symmetric importance matrix with zero diagonal, entries in [0, 1]."""

    values: list[list[float]]

    def __post_init__(self):
        n = len(self.values)
        for i, row in enumerate(self.values):
            if len(row) != n:
                raise ValueError(f"alpha matrix must be square, row {i} has {len(row)} entries")
            for j, a in enumerate(row):
                if not 0.0 <= a <= 1.0:
                    raise ValueError(f"alpha[{i}][{j}] must be in [0, 1], got {a}")
        for i in range(n):
            if self.values[i][i] != 0.0:
                raise ValueError(f"alpha[{i}][{i}] must be 0, got {self.values[i][i]}")
            for j in range(i + 1, n):
                if self.values[i][j] != self.values[j][i]:
                    raise ValueError(f"alpha must be symmetric, differs at ({i}, {j})")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def from_pair_counts(
        cls, pair_counts: Mapping[tuple[int, int], int], n: int
    ) -> "AlphaMatrix":
        values = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a = alpha_importance(pair_counts, i, j)
                values[i][j] = a
                values[j][i] = a
        return cls(values)


@dataclass
class NavigabilityMatrix:
    """Per-pair navigability terms alpha_ij * score(i, j), zero diagonal.

    `evaluations` counts the (landmark, ordered pair) indicator evaluations
    spent building the matrix.
    """

    values: list[list[float]]
    evaluations: int

    @property
    def n(self) -> int:
        return len(self.values)

    def row_sum(self, i: int) -> float:
        row = self.values[i]
        total = 0.0
        for j in range(len(row)):
            if j != i:
                total += row[j]
        return total


def navigability(
    table: StakeTable,
    snapshot: VisibilitySnapshot,
    alpha: AlphaMatrix,
    i: int,
    counter: ScanCounter | None = None,
) -> float:
    """Importance-weighted sum of robot i's consensus scores with all others."""
    n = snapshot.n_robots
    _check_dimensions(table, snapshot, alpha)
    if not 0 <= i < n:
        raise IndexError(f"robot index {i} out of range for {n} robots")
    alpha_row = alpha.values[i]
    total = 0.0
    for j in range(n):
        if j != i:
            total += alpha_row[j] * consensus_score(table, snapshot, i, j, counter)
    return total


def navigability_matrix(
    table: StakeTable, snapshot: VisibilitySnapshot, alpha: AlphaMatrix
) -> NavigabilityMatrix:
    """Full n x n matrix of alpha_ij * score(i, j), built from scratch.

    Every ordered pair scans all m landmarks, so the evaluation counter is
    exactly n * (n - 1) * m.
    """
    n = snapshot.n_robots
    _check_dimensions(table, snapshot, alpha)
    counter = ScanCounter()
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        alpha_row = alpha.values[i]
        row = values[i]
        for j in range(n):
            if j != i:
                row[j] = alpha_row[j] * consensus_score(table, snapshot, i, j, counter)
    return NavigabilityMatrix(values=values, evaluations=counter.scans)


def average_navigability(matrix: NavigabilityMatrix) -> float:
    """Mean over the n * (n - 1) off-diagonal entries."""
    n = matrix.n
    if n < 2:
        raise UndefinedAverageError(f"average needs at least 2 robots, got {n}")
    total = 0.0
    for i in range(n):
        total += matrix.row_sum(i)
    return total / (n * (n - 1))


def _check_dimensions(
    table: StakeTable, snapshot: VisibilitySnapshot, alpha: AlphaMatrix
) -> None:
    n = snapshot.n_robots
    if len(table.stakes) != n:
        raise ValueError(f"stake table has {len(table.stakes)} entries for {n} robots")
    if alpha.n != n:
        raise ValueError(f"alpha matrix is {alpha.n} x {alpha.n} for {n} robots")
