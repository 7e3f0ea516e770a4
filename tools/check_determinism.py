"""Check that stakenav writes the same ledger bytes on this interpreter.

Runs the default configuration for seed 0 and for seeds 0-19, two sparse
worlds, a dense world and a cold-start world for seeds 0-4, and compares the SHA-256 of the
ledger dumps with pinned values. Needs only the standard library, so it runs
on interpreters that have no pytest:

    python3 tools/check_determinism.py

Exits 0 when every digest matches, 1 otherwise.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stakenav import DegradationScenario, WorldConfig, run_experiment  # noqa: E402

# Same value as GOLDEN_SEED0_LEDGER in tests/test_acceptance.py.
GOLDEN_SEED0_LEDGER = "8580c9a0fe7ef7871a91a2fb798d64764f415eb45c0954abfb5391dcd5cdc7b6"
# SHA-256 of the ledger dumps of seeds 0..19, concatenated in seed order.
SWEEP_SEEDS = range(20)
SWEEP_DIGEST = "94e6e46a11bf515bd7e9f0292f5170c0ecfc4183645ae6ef3918dd9de980b734"
# Worlds where few pairs share a landmark, so visibility, emission and the
# seal-time navigability sum skip most pairs. Per seed 0..4, the plain
# 200-robot run, then the 30-robot run with a pair zeroed in loops 2-5.
SPARSE_SEEDS = range(5)
SPARSE_PLAIN = dict(n_robots=200, n_landmarks=400, width=2000.0, height=2000.0, loops=3)
SPARSE_DEGRADED = dict(n_robots=30, n_landmarks=60, width=800.0, height=800.0, loops=8)
SPARSE_SCENARIO = DegradationScenario((2, 7), 2, 5, 0.0)
SPARSE_DIGEST = "6b33a99556f4f3c072cfea1d7738052cb626d2726a102a96e265742a9729f21c"
# A world where nearly every pair shares many landmarks, so each block
# carries long match lists: 50 robots, 100 landmarks, 1 loop, seeds 0..4.
DENSE_SEEDS = range(5)
DENSE = dict(n_robots=50, n_landmarks=100, loops=1)
DENSE_DIGEST = "542c04e828caff775adc85e06bca34d2942f8e491cecce018b7a09317e5824da"
# A short run from no history whose block size does not divide a loop's
# pairs: observations left pending from loop 0 are sealed during loop 1 and
# give pairs their first importance mid-loop. 30 robots, 60 landmarks,
# 2 loops, blocks of 7, seeds 0..4.
COLD_SEEDS = range(5)
COLD = dict(n_robots=30, n_landmarks=60, loops=2, block_size=7)
COLD_DIGEST = "dd31b05be90f048d3c9ada5c7cfbe7d5f85c835cd6e0c7b34b72ce90d5ce360b"


def ledger_bytes(seed: int, shape: dict | None = None, scenario=None) -> bytes:
    config = WorldConfig(seed=seed, **(shape or {}))
    return run_experiment(config, scenario).chain.dumps()


def main() -> int:
    checks = {
        "seed-0 ledger": (hashlib.sha256(ledger_bytes(0)).hexdigest(), GOLDEN_SEED0_LEDGER),
    }
    sweep = hashlib.sha256()
    for seed in SWEEP_SEEDS:
        sweep.update(ledger_bytes(seed))
    checks["seeds 0-19 ledgers"] = (sweep.hexdigest(), SWEEP_DIGEST)
    sparse = hashlib.sha256()
    for seed in SPARSE_SEEDS:
        sparse.update(ledger_bytes(seed, SPARSE_PLAIN))
        sparse.update(ledger_bytes(seed, SPARSE_DEGRADED, SPARSE_SCENARIO))
    checks["sparse seeds 0-4 ledgers"] = (sparse.hexdigest(), SPARSE_DIGEST)
    dense = hashlib.sha256()
    for seed in DENSE_SEEDS:
        dense.update(ledger_bytes(seed, DENSE))
    checks["dense seeds 0-4 ledgers"] = (dense.hexdigest(), DENSE_DIGEST)
    cold = hashlib.sha256()
    for seed in COLD_SEEDS:
        cold.update(ledger_bytes(seed, COLD))
    checks["cold-start seeds 0-4 ledgers"] = (cold.hexdigest(), COLD_DIGEST)
    version = sys.version.split()[0]
    failed = False
    for name, (got, want) in checks.items():
        ok = got == want
        failed = failed or not ok
        print(f"python {version}: {name}: {'ok' if ok else f'MISMATCH {got} != {want}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
