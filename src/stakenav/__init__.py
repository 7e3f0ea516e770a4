"""Stake-weighted consensus scoring and a hash-chained cooperation ledger
for a simulated multi-robot team.

A robot's vote weight is its share of the total stake. Two robots agree in
proportion to the match qualities of the landmarks they both recognize, and
a robot's navigability aggregates those agreements over all partners,
weighted by how often each pair has cooperated on the ledger. Block
generators are elected by navigability and earn stake, closing the loop.

`sim` is the engine a run executes. `stakenav.reference` holds the paper's
formulas one pair at a time, as the oracle the engine is tested against; it
is imported from there, and nothing here loads it.
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
    "Block",
    "Chain",
    "ConfigError",
    "DegradationScenario",
    "ExperimentState",
    "GENESIS_PREV_HASH",
    "IMPORTANCE_LEVELS",
    "InvalidPairError",
    "KIND_OBSERVATION",
    "KIND_REWARD",
    "LedgerError",
    "LedgerFormatError",
    "RandomStreams",
    "SealState",
    "WorldConfig",
    "canonical_encode",
    "compute_visibility",
    "derive_stream",
    "elect_generator",
    "emit_transactions",
    "init_world",
    "maybe_seal_blocks",
    "normalize_pair",
    "run_experiment",
    "step_movement",
    "verify_dump_bytes",
]

