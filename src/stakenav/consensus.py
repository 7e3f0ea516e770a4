"""Stake weighting, pairwise consensus scoring, and block-generator election.

A robot's weight is its stake normalized by the team total. The consensus
score of an ordered pair (i, j) is robot i's weight times the summed match
qualities of the landmarks both robots currently recognize. Scores are not
symmetric, but score(i, j) * weight(j) == score(j, i) * weight(i).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .domain import InvalidPairError, normalize_pair, ordered_sum


class DegenerateStakesError(ValueError):
    """Every stake is zero, so weights are undefined."""


@dataclass
class StakeTable:
    """Stakes of all robots, indexed by robot id."""

    stakes: list[float]

    def __post_init__(self):
        for i, s in enumerate(self.stakes):
            if s < 0:
                raise ValueError(f"stake of robot {i} must be >= 0, got {s}")

    def __len__(self) -> int:
        return len(self.stakes)


class VisibilitySnapshot:
    """Which landmarks each robot recognizes in one loop, plus pair qualities.

    `recognized[i]` is the set of landmark ids robot i recognizes.
    `cooperating` lists (i, j, matches) for every pair with i < j that shares
    a landmark, ascending by pair; `matches` holds the pair's (landmark id,
    quality) tuples ascending by id. The simulator builds it while drawing,
    and emission hands each `matches` list to its transaction as is.
    `qualities` maps (i, j, k) with i < j to the match quality of landmark k
    for that pair; entries exist exactly for landmarks in the intersection of
    the two robots' recognized sets. A snapshot built by hand may pass it
    directly; otherwise it is derived from `cooperating` on first read. Only
    the reference oracle reads it.
    """

    def __init__(
        self,
        n_landmarks: int,
        recognized: list[set[int]],
        qualities: dict[tuple[int, int, int], float] | None = None,
        cooperating: list[tuple[int, int, list[tuple[int, float]]]] | None = None,
    ):
        self.n_landmarks = n_landmarks
        self.recognized = recognized
        self.cooperating = cooperating if cooperating is not None else []
        self._qualities = qualities

    @property
    def qualities(self) -> dict[tuple[int, int, int], float]:
        if self._qualities is None:
            self._qualities = {
                (i, j, k): q for i, j, matches in self.cooperating for k, q in matches
            }
        return self._qualities

    @property
    def n_robots(self) -> int:
        return len(self.recognized)

    def quality(self, i: int, j: int, k: int) -> float:
        a, b = normalize_pair(i, j)
        return self.qualities[(a, b, k)]

    def check(self) -> None:
        """Validate the qualities-match-intersection invariant (test helper)."""
        n = self.n_robots
        expected = set()
        for i in range(n):
            for j in range(i + 1, n):
                for k in self.recognized[i] & self.recognized[j]:
                    expected.add((i, j, k))
        actual = set(self.qualities)
        if actual != expected:
            raise ValueError(
                f"quality keys do not match pairwise intersections: "
                f"unexpected={actual - expected}, missing={expected - actual}"
            )
        for key, q in self.qualities.items():
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quality for {key} must be in [0, 1], got {q}")


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
    """1 if both robots i and j recognize landmark k, else 0."""
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
    rec_i = snapshot.recognized[i]
    rec_j = snapshot.recognized[j]
    a, b = (i, j) if i < j else (j, i)
    qualities = snapshot.qualities
    total = 0.0
    for k in range(snapshot.n_landmarks):
        if k in rec_i and k in rec_j:
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
        rec_i = snapshot.recognized[i]
        for j in range(i + 1, n):
            rec_j = snapshot.recognized[j]
            total = 0.0
            for k in range(m):
                if k in rec_i and k in rec_j:
                    total += qualities[(i, j, k)]
            scans += m
            scores[i][j] = weights[i] * total
            scores[j][i] = weights[j] * total
    return scores, scans


def elect_generator(
    weights: list[float],
    rng: random.Random,
    stakes: list[float] | None = None,
) -> int:
    """Pick a robot index with probability proportional to its weight.

    Sampling is inverse-CDF over the cumulative weight vector with a single
    uniform draw. Degenerate cascade: if all weights are zero, fall back to
    `stakes`; if those are also all zero (or absent), pick uniformly.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("cannot elect from an empty weight vector")
    for w in weights:
        if w < 0:
            raise ValueError(f"election weights must be >= 0, got {w}")
    total = ordered_sum(weights)
    if total > 0.0:
        return _sample_index(weights, total, rng)
    if stakes is not None:
        if len(stakes) != n:
            raise ValueError(f"{len(stakes)} stakes for {n} weights")
        stake_total = ordered_sum(stakes)
        if stake_total > 0.0:
            return _sample_index(stakes, stake_total, rng)
    return rng.randrange(n)


def _sample_index(weights: list[float], total: float, rng: random.Random) -> int:
    u = rng.random() * total
    acc = 0.0
    last_positive = 0
    for idx, w in enumerate(weights):
        if w > 0.0:
            last_positive = idx
        acc += w
        if u < acc:
            return idx
    # Rounding can leave acc fractionally below total; land on the last
    # index that carries any probability mass.
    return last_positive
