"""Stake-weighted consensus scoring and a hash-chained cooperation ledger
for a simulated multi-robot team.

A robot's vote weight is its share of the total stake. Two robots agree in
proportion to the match qualities of the landmarks they both recognize, and
a robot's navigability aggregates those agreements over all partners,
weighted by how often each pair has cooperated on the ledger. Block
generators are elected by navigability and earn stake, closing the loop.

`sim` is the engine a run executes. `stakenav.reference` holds the paper's
formulas one pair at a time, as the oracle the engine is tested against; it
is imported from there, and nothing here loads it. This package exports the
names a library user needs to run, inspect and verify an experiment; every
other name is imported from its module.
"""
from __future__ import annotations

from .domain import ConfigError, DegradationScenario, WorldConfig, init_world
from .ledger import Block, Chain, LedgerError, verify_dump_bytes
from .sim import ExperimentState, compute_visibility, emit_transactions, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Chain",
    "ConfigError",
    "DegradationScenario",
    "ExperimentState",
    "LedgerError",
    "WorldConfig",
    "compute_visibility",
    "emit_transactions",
    "init_world",
    "run_experiment",
    "verify_dump_bytes",
]
