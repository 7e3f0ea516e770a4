"""Pairwise importance, navigability aggregation, and its matrix form.

Importance alpha_ij quantizes the pair's shared transaction history into ten
levels: min(count, 10) / 10. A robot's navigability is the importance-weighted
sum of its consensus scores with every teammate; the navigability matrix holds
the per-pair terms, so row sums equal the per-robot navigability values.

The matrix computation also reports how many (landmark, ordered pair)
indicator evaluations it performed: exactly n * (n - 1) * m, the measurable
form of the quadratic-in-robots, linear-in-landmarks cost of the full pass.
Those functions are the reference. A run seals through `SealState`, which
keeps the same sums over live terms only and matches them bit for bit.
"""
from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .consensus import ScanCounter, StakeTable, VisibilitySnapshot, consensus_score
from .domain import normalize_pair

# Shared-transaction count at which a pair's importance saturates; counts are
# mapped to the ten levels 0.1, 0.2, ..., 1.0 (plus 0 for no history).
IMPORTANCE_LEVELS = 10


class UndefinedAverageError(ValueError):
    """The off-diagonal average needs at least two robots."""


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


class SealState:
    """Seal-time navigability of one run: pair history and this loop's live terms.

    `counts[i][j]` is the number of sealed observations of pair (i, j) and
    `alpha[i][j]` its importance; both are symmetric n x n lists that mirror
    the chain. Read them, but change them only through `record`.

    A robot's row holds its live terms: the partners that share a landmark
    with it this loop and have a non-zero importance, as (j, pair quality
    sum) ascending by j. A cooperating pair with no sealed history is held
    apart until a seal gives it one; then it joins both rows at its sorted
    place. Pending transactions from earlier loops can do that mid-loop.
    """

    def __init__(self, n_robots: int):
        self.counts = [[0] * n_robots for _ in range(n_robots)]
        self.alpha = [[0.0] * n_robots for _ in range(n_robots)]
        self._rows: list[list[tuple[int, float]]] = [[] for _ in range(n_robots)]
        # (i, row) for every non-empty row, ascending by i.
        self._live: list[tuple[int, list[tuple[int, float]]]] = []
        # (i, j) -> pair quality sum of cooperating pairs with no history.
        self._cold: dict[tuple[int, int], float] = {}

    def start_loop(self, pair_sums: Iterable[tuple[int, int, float]]) -> None:
        """Replace the rows with one loop's (i, j, pair quality sum) triples.

        The triples must have i < j and come ascending by (i, j). Row r then
        receives its partners below r before those above, each in order.
        """
        counts = self.counts
        rows: list[list[tuple[int, float]]] = [[] for _ in counts]
        cold = {}
        for i, j, total in pair_sums:
            if counts[i][j]:
                rows[i].append((j, total))
                rows[j].append((i, total))
            else:
                cold[(i, j)] = total
        self._rows = rows
        self._live = [(i, row) for i, row in enumerate(rows) if row]
        self._cold = cold

    def record(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Count one sealed observation for each (i, j) pair, i < j."""
        counts = self.counts
        alpha = self.alpha
        cold = self._cold
        for pair in pairs:
            i, j = pair
            count = counts[i][j] + 1
            counts[i][j] = counts[j][i] = count
            alpha[i][j] = alpha[j][i] = min(count, IMPORTANCE_LEVELS) / IMPORTANCE_LEVELS
            if count == 1 and pair in cold:
                total = cold.pop(pair)
                self._insert(i, j, total)
                self._insert(j, i, total)

    def _insert(self, i: int, j: int, total: float) -> None:
        row = self._rows[i]
        if not row:
            insort(self._live, (i, row))  # i is unique, so rows are never compared
        insort(row, (j, total))

    def weights(self, stakes: list[float], total_stake: float) -> tuple[list[float], float]:
        """Per-robot navigability and its off-diagonal average.

        `total_stake` is the left-to-right sum of `stakes`. Each row sums
        alpha_ij * (w_i * pair sum) in ascending j, and the average sums rows
        in ascending i, as `navigability_matrix`, `NavigabilityMatrix.row_sum`
        and `average_navigability` do, so the results match them bit for bit.
        Every term left out has a zero importance or a zero pair sum, so it is
        0.0 * finite >= 0 == +0.0, and acc + 0.0 == acc for any acc >= 0; a
        row with no live term is +0.0 and adds nothing to the total.
        """
        n = len(stakes)
        alpha = self.alpha
        weights = [0.0] * n
        total = 0.0
        for i, row in self._live:
            w_i = stakes[i] / total_stake
            alpha_row = alpha[i]
            acc = 0.0
            for j, pair_sum in row:
                acc += alpha_row[j] * (w_i * pair_sum)
            weights[i] = acc
            total += acc
        return weights, total / (n * (n - 1))
