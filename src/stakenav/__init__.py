"""Stake-weighted consensus scoring and a hash-chained cooperation ledger
for a simulated multi-robot team.

A robot's vote weight is its share of the total stake. Two robots agree in
proportion to the match qualities of the landmarks they both recognize, and
a robot's navigability aggregates those agreements over all partners,
weighted by how often each pair has cooperated on the ledger. Block
generators are elected by navigability and earn stake, closing the loop.

`sim` is the engine a run executes; `reference` holds the paper's formulas
one pair at a time, as the oracle the engine is tested against.
"""
from __future__ import annotations

from .domain import (
    ConfigError,
    InvalidPairError,
    RandomStreams,
    WorldConfig,
    derive_stream,
    init_world,
    normalize_pair,
)
from .ledger import (
    GENESIS_PREV_HASH,
    KIND_OBSERVATION,
    KIND_REWARD,
    Block,
    Chain,
    LedgerError,
    LedgerFormatError,
    canonical_encode,
    verify_dump_bytes,
)
from .sim import (
    IMPORTANCE_LEVELS,
    DegradationScenario,
    ExperimentState,
    SealState,
    compute_visibility,
    elect_generator,
    emit_transactions,
    maybe_seal_blocks,
    run_experiment,
    step_movement,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaMatrix",
    "Block",
    "Chain",
    "ConfigError",
    "DegenerateStakesError",
    "DegradationScenario",
    "ExperimentState",
    "GENESIS_PREV_HASH",
    "IMPORTANCE_LEVELS",
    "InvalidPairError",
    "KIND_OBSERVATION",
    "KIND_REWARD",
    "LedgerError",
    "LedgerFormatError",
    "NavigabilityMatrix",
    "RandomStreams",
    "ScanCounter",
    "SealState",
    "StakeTable",
    "UndefinedAverageError",
    "VisibilitySnapshot",
    "WorldConfig",
    "alpha_importance",
    "average_navigability",
    "canonical_encode",
    "compute_visibility",
    "consensus_score",
    "consensus_score_matrix",
    "derive_stream",
    "elect_generator",
    "emit_transactions",
    "indicator",
    "init_world",
    "maybe_seal_blocks",
    "navigability",
    "navigability_matrix",
    "normalize_pair",
    "run_experiment",
    "stake_weight",
    "step_movement",
    "verify_dump_bytes",
]


def __getattr__(name: str):
    """Load an oracle name from `reference` on first access (PEP 562): every
    other name in `__all__` is imported above, so no run loads the oracle."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference
    value = globals()[name] = getattr(reference, name)
    return value
