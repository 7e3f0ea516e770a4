"""Workload shapes: each turns a benchmark seed into the CLI runs of one unit.

A unit is the work one sample times: for every config below, one
`stakenav --config FILE --seed N --out DIR` run followed by `stakenav
--verify` of its ledger. Config seeds are derived from the benchmark seed so that seed
`s` and seed `s + 1` never share a config. A unit spans many short configs
rather than a few long ones: how much a config cooperates is set by where its
robots and landmarks are placed, which later loops barely change, so the
work of one config varies by 10-30% between seeds. Averaging over many
configs brings a unit's variation down to about 3%.
"""
from __future__ import annotations

# Every key is pinned, so a later change of the program's defaults does not
# silently change what a workload measures.
BASE = {
    "robots": 10,
    "landmarks": 20,
    "width": 200.0,
    "height": 200.0,
    "loops": 10,
    "radius": 90.0,
    "step": 15.0,
    "block_size": 10,
    "reward": 0.1,
    "initial_stake": 1.0,
}

# The README's degradation scenario: the c10 dip-and-recovery experiment.
DEGRADE = {"degrade_pair": [2, 7], "degrade_loops": [4, 6], "degrade_factor": 0.1}

# name -> (shape overrides on BASE, configs per unit, runs each config twice
# as baseline and degraded)
WORKLOADS = {
    # c12 shape: nearly every pair cooperates every loop, so the ledger layer
    # (encode and hash, emit, dump, verify) dominates.
    "dense50": ({"robots": 50, "landmarks": 100, "loops": 1}, 20, False),
    # Under 1% of pairs cooperate, yet every seal walks n^2 terms and
    # visibility checks n*m distances: seal navigability and visibility
    # dominate, the ledger does almost nothing.
    "sparse200": (
        {"robots": 200, "landmarks": 400, "width": 2000.0, "height": 2000.0, "loops": 3},
        12,
        False,
    ),
    # The default desk-scale team over consecutive seeds, each with a
    # same-seed degraded twin: per-run fixed costs dominate.
    "seedsweep": ({}, 100, True),
}


def unit_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(label, config-file dict) for every CLI run of one unit, in run order."""
    shape, per_unit, degraded_twin = WORKLOADS[workload]
    configs = []
    for config_seed in range(seed * per_unit, (seed + 1) * per_unit):
        config = dict(BASE, **shape, seed=config_seed)
        configs.append((f"seed{config_seed}", config))
        if degraded_twin:
            configs.append((f"seed{config_seed}-degraded", dict(config, **DEGRADE)))
    return configs
