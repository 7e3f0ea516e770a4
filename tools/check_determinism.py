"""Check that stakenav writes the same ledger bytes on this interpreter.

Runs the default configuration for seed 0 and for seeds 0-19 and compares
the SHA-256 of the ledger dumps with pinned values. Needs only the standard
library, so it runs on interpreters that have no pytest:

    python3 tools/check_determinism.py

Exits 0 when both digests match, 1 otherwise.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stakenav import WorldConfig, run_experiment  # noqa: E402

# Same value as GOLDEN_SEED0_LEDGER in tests/test_acceptance.py.
GOLDEN_SEED0_LEDGER = "8580c9a0fe7ef7871a91a2fb798d64764f415eb45c0954abfb5391dcd5cdc7b6"
# SHA-256 of the ledger dumps of seeds 0..19, concatenated in seed order.
SWEEP_SEEDS = range(20)
SWEEP_DIGEST = "94e6e46a11bf515bd7e9f0292f5170c0ecfc4183645ae6ef3918dd9de980b734"


def ledger_bytes(seed: int) -> bytes:
    return run_experiment(WorldConfig(seed=seed)).chain.dumps()


def main() -> int:
    checks = {
        "seed-0 ledger": (hashlib.sha256(ledger_bytes(0)).hexdigest(), GOLDEN_SEED0_LEDGER),
    }
    sweep = hashlib.sha256()
    for seed in SWEEP_SEEDS:
        sweep.update(ledger_bytes(seed))
    checks["seeds 0-19 ledgers"] = (sweep.hexdigest(), SWEEP_DIGEST)
    version = sys.version.split()[0]
    failed = False
    for name, (got, want) in checks.items():
        ok = got == want
        failed = failed or not ok
        print(f"python {version}: {name}: {'ok' if ok else f'MISMATCH {got} != {want}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
