"""Check that stakenav writes the same bytes on this interpreter.

Runs the default configuration for seed 0 and for seeds 0-19, plain and with
pair (2, 7) degraded x0.1 in loops 4-6 (the paper's c10 run), two sparse
worlds, a dense world and a cold-start world for seeds 0-4, one world whose
robots change grid cell almost every loop, 50 small worlds drawn from a
fixed seed, and the largest team in a world where it seals 200 blocks. It
compares the SHA-256 of the ledger dumps with pinned values. Each dump must
also load back with `Chain.loads`, which verifies it, and dump to the same
bytes, and the seed-0 ledger's own records, grouped by loop, must seal
through `seal_stream` into that ledger again. Then exports the default
seed-0 run as `stakenav --out DIR` does, into a temporary directory,
compares the SHA-256 of each of its four files with pinned values, and runs
`stakenav --verify` on its ledger. Last, checks the known answers of the
primitives the bytes rest on, so that a digest that breaks on a new
interpreter comes with the name of the primitive that moved. Needs only the
standard library, so it runs on interpreters that have no pytest:

    python3 tools/check_determinism.py

Exits 0 when every digest matches, every dump round-trips, the verify exits 0
and every primitive gives its known answer, 1 otherwise; a dump that does not
load is reported by the loader's message, a failed verify by its exit code and
output, and a primitive by its name.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stakenav import (  # noqa: E402
    Chain,
    DegradationScenario,
    LedgerError,
    WorldConfig,
    run_experiment,
)
from stakenav.cli import build_parser, main as cli_main, parse_config, run_and_export  # noqa: E402
from stakenav.domain import derive_stream  # noqa: E402
from stakenav.ledger import Observation, canonical_encode  # noqa: E402
from stakenav.sim import seal_stream  # noqa: E402

# Same value as GOLDEN_SEED0_LEDGER in tests/test_acceptance.py.
GOLDEN_SEED0_LEDGER = "8580c9a0fe7ef7871a91a2fb798d64764f415eb45c0954abfb5391dcd5cdc7b6"
# SHA-256 of the ledger dumps of seeds 0..19, concatenated in seed order.
SWEEP_SEEDS = range(20)
SWEEP_DIGEST = "94e6e46a11bf515bd7e9f0292f5170c0ecfc4183645ae6ef3918dd9de980b734"
# The same seeds with c10's degradation, whose multiplier is a fraction, so
# every degraded quality is a rounded product.
SWEEP_SCENARIO = DegradationScenario((2, 7), 4, 6, 0.1)
SWEEP_DEGRADED_DIGEST = "ddd5ec03876fea972bc887d783e6d116fd4eec6e8d7896d250bd3724e87d2f10"
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
# Steps of up to 2.5 grid cells, so that almost every robot reads a new set of
# nine cells every loop and a few read cells that hold no landmark: 100
# robots, 2000 landmarks, 3000x3000, radius 60, steps of 150, 8 loops, seed 10.
# Same value as in tests/test_sim.py's test_cross_cell_world_ledger_is_pinned.
CROSS_CELL_SEED = 10
CROSS_CELL = dict(n_robots=100, n_landmarks=2000, width=3000.0, height=3000.0,
                  sensing_radius=60.0, step_size=150.0, loops=8)
CROSS_CELL_DIGEST = "2a521c93e1c6ba231d286fd14425389be299fc20677b345dc6e42f14ae7a4fcd"
# 50 small worlds drawn by `random.Random(DRAWN_SEED)` in the ranges of
# tests/test_sim.py's drawn-world property: 1-8 robots, 0-12 landmarks, 0-4
# loops, blocks of 1-6, a radius up to five times the world, step and reward
# 0 allowed, and half the time a degradation the world admits, multiplier
# 0.0 allowed. Only `randrange` and `random` draw, and their streams for a
# given seed are the same on every interpreter the project supports.
DRAWN_SEED = 2027
DRAWN_COUNT = 50
DRAWN_DIGEST = "dfad9094eae750845f164b024689314ccfaafa4afffd110cc4cd1d7595eb2a6e"
# The largest team, cooperating: 200 blocks in 4 loops give pair history to
# robots across the team. 4096 robots, 20,000 landmarks, 2e4x2e4, seed 0.
TEAM_4096_SEED = 0
TEAM_4096 = dict(n_robots=4096, n_landmarks=20000, width=2e4, height=2e4, loops=4)
TEAM_4096_DIGEST = "509dabd7deedebcdefbfbd6c2c7947662ea1d502c973553da3eeec27f32cc3a8"
# SHA-256 of each file that `stakenav --out DIR` writes: the default config, seed 0.
SEED0_EXPORTS = {
    "ledger.jsonl": GOLDEN_SEED0_LEDGER,
    "summary.json": "f5dbb32c9acc9a596772c5a55128d7c94ac9e301de9bab0f6cff0fb13e2c2d4e",
    "timeseries.csv": "7d2193e58da5197a369dcb2478472d4577c1f88c2a50b1be2a000ab4b24bd13c",
    "trajectories.csv": "ba0375ef49b74c78609c1b73c07b2be8bb5ee76cc8e206e1d43648f3048342e7",
}
# Known answers of the primitives a run's bytes rest on. For seed 0, the seed
# `derive_stream` gives each stream, the SHA-256 of "0:<label>" as an integer:
STREAM_SEEDS = {
    "placement": 0x3BE43AD688DD3D122737E3195684E5D81651342BFE7F73EB56CEA1E880C4AF5E,
    "movement": 0x19EDE372251EE8A908AF8A3902BA47AD2F90E54BFBC603806D18B8D5DF02A282,
    "quality": 0xF8C7AD753F95636CBF2CDFFEF1D725175E3AA9E3F57E68C412F90DCB7FF81630,
    "election": 0x7F330930171A8774BC009C281426E0F627AE2FEC90E41C93B7594113E6B6C3D4,
}
# and the first three `random()` draws of a `random.Random` seeded with each.
FIRST_DRAWS = [
    [0.6780785952817623, 0.317081397418979, 0.827110639752601],
    [0.07292863623666701, 0.9614411299555529, 0.9128589907821284],
    [0.6217489372718918, 0.5007245706848668, 0.18987901881172664],
    [0.3249777285846389, 0.26773150809154367, 0.3868566329970262],
]
# The least subnormal, the least power of ten that repr writes with an
# exponent, a rounded sum and the largest finite float: `repr` writes each
# float of a dump, through `canonical_encode`.
EDGE_FLOATS = [5e-324, 1e16, 0.1 + 0.2, 1.7976931348623157e308]
EDGE_REPRS = ["5e-324", "1e+16", "0.30000000000000004", "1.7976931348623157e+308"]
EDGE_ENCODING = b"[5e-324,1e+16,0.30000000000000004,1.7976931348623157e+308]"
# FIPS 180-2's one-block test vector, SHA-256 of b"abc".
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def drawn_runs() -> list:
    """The (seed, shape, scenario) of each drawn world, in draw order."""
    rng = random.Random(DRAWN_SEED)

    def uniform(low: float, high: float) -> float:
        return low + (high - low) * rng.random()

    def zero_or_uniform(high: float) -> float:
        """0.0 one time in four, otherwise a draw from [0, high)."""
        return 0.0 if rng.randrange(4) == 0 else uniform(0.0, high)

    runs = []
    for _ in range(DRAWN_COUNT):
        width, height = uniform(1.0, 500.0), uniform(1.0, 500.0)
        extent = max(width, height)
        n_robots, loops = 1 + rng.randrange(8), rng.randrange(5)
        shape = dict(
            n_robots=n_robots,
            n_landmarks=rng.randrange(13),
            width=width,
            height=height,
            loops=loops,
            sensing_radius=5.0 * extent * (1.0 - rng.random()),
            step_size=zero_or_uniform(extent),
            block_size=1 + rng.randrange(6),
            generator_reward=zero_or_uniform(1.0),
        )
        seed = rng.randrange(2**32)
        scenario = None
        if n_robots >= 2 and loops >= 1 and rng.randrange(2):
            i, j = rng.randrange(n_robots), rng.randrange(n_robots - 1)
            start = rng.randrange(loops)
            end = start + rng.randrange(loops - start)
            scenario = DegradationScenario((i, j + (j >= i)), start, end, zero_or_uniform(1.0))
        runs.append((seed, shape, scenario))
    return runs


def resealed(config: WorldConfig, chain: Chain) -> bytes:
    """The dump of `chain`'s observation records, grouped by loop and sealed
    again under `config`."""
    loops = [[] for _ in range(config.loops)]
    for block in chain.blocks:
        for tx in block.transactions:
            if isinstance(tx, Observation):
                loops[tx.loop_index].append(tx)
    return seal_stream(config, loops).chain.dumps()


def world_digest(runs, reseal: bool = False) -> tuple[str, str | None]:
    """SHA-256 of the ledger dumps of `runs`, (seed, shape, scenario) in
    order, and the first dump's failure to load, to dump back unchanged or,
    with `reseal`, to seal again from its own records, or None."""
    digest = hashlib.sha256()
    problem = None
    for seed, shape, scenario in runs:
        config = WorldConfig(seed=seed, degradation=scenario, **shape)
        data = run_experiment(config).consensus.chain.dumps()
        digest.update(data)
        if problem is not None:
            continue
        try:
            loaded = Chain.loads(data, n_robots=config.n_robots)
        except LedgerError as exc:
            problem = f"seed {seed} does not load: {exc}"
        else:
            if loaded.dumps() != data:
                problem = f"seed {seed} does not dump back unchanged"
            elif reseal and resealed(config, loaded) != data:
                problem = f"seed {seed} does not re-seal from its records"
    return digest.hexdigest(), problem


def export_result() -> str:
    """Whether the default seed-0 run's four exports match and its ledger
    passes `stakenav --verify`: "ok", or what failed."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            run_and_export(parse_config(build_parser().parse_args(["--out", out])))
        got = {
            name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
            for name in SEED0_EXPORTS
        }
        with contextlib.redirect_stdout(io.StringIO()) as said:
            code = cli_main(["--verify", str(Path(out) / "ledger.jsonl")])
    mismatches = [
        f"{name} {got[name]} != {want}" for name, want in SEED0_EXPORTS.items() if got[name] != want
    ]
    problems = [f"MISMATCH {'; '.join(mismatches)}"] if mismatches else []
    if code != 0:
        problems.append(f"--verify exits {code}: {said.getvalue().strip()}")
    return "; ".join(problems) or "ok"


def primitives_result() -> str:
    """Whether each primitive gives its known answer: "ok", or the names of
    those that do not."""
    holds = {
        "derive_stream seed": all(
            derive_stream(0, label).getstate() == random.Random(seed).getstate()
            for label, seed in STREAM_SEEDS.items()
        ),
        "Random.random": [
            [rng.random() for _ in range(3)] for rng in map(random.Random, STREAM_SEEDS.values())
        ] == FIRST_DRAWS,
        "float repr": [repr(x) for x in EDGE_FLOATS] == EDGE_REPRS,
        "canonical_encode": canonical_encode(EDGE_FLOATS) == EDGE_ENCODING,
        "hashlib.sha256": hashlib.sha256(b"abc").hexdigest() == SHA256_ABC,
    }
    moved = [name for name, ok in holds.items() if not ok]
    return f"MISMATCH {', '.join(moved)}" if moved else "ok"


def main() -> int:
    worlds = {
        "seed-0 ledger": ([(0, {}, None)], GOLDEN_SEED0_LEDGER),
        "seeds 0-19 ledgers": ([(seed, {}, None) for seed in SWEEP_SEEDS], SWEEP_DIGEST),
        "degraded seeds 0-19 ledgers": (
            [(seed, {}, SWEEP_SCENARIO) for seed in SWEEP_SEEDS], SWEEP_DEGRADED_DIGEST
        ),
        "sparse seeds 0-4 ledgers": (
            [
                run
                for seed in SPARSE_SEEDS
                for run in ((seed, SPARSE_PLAIN, None), (seed, SPARSE_DEGRADED, SPARSE_SCENARIO))
            ],
            SPARSE_DIGEST,
        ),
        "dense seeds 0-4 ledgers": ([(seed, DENSE, None) for seed in DENSE_SEEDS], DENSE_DIGEST),
        "cold-start seeds 0-4 ledgers": ([(seed, COLD, None) for seed in COLD_SEEDS], COLD_DIGEST),
        "cross-cell seed 10 ledger": ([(CROSS_CELL_SEED, CROSS_CELL, None)], CROSS_CELL_DIGEST),
        f"{DRAWN_COUNT} drawn-world ledgers": (drawn_runs(), DRAWN_DIGEST),
        "cooperating 4096-robot ledger": (
            [(TEAM_4096_SEED, TEAM_4096, None)], TEAM_4096_DIGEST
        ),
    }
    version = sys.version.split()[0]
    failed = False
    for name, (runs, want) in worlds.items():
        got, problem = world_digest(runs, reseal=name == "seed-0 ledger")
        result = f"MISMATCH {got} != {want}" if got != want else "ok"
        if problem is not None:
            result = problem if result == "ok" else f"{result}; {problem}"
        failed = failed or result != "ok"
        print(f"python {version}: {name}: {result}")
    result = export_result()
    failed = failed or result != "ok"
    print(f"python {version}: seed-0 exports: {result}")
    result = primitives_result()
    failed = failed or result != "ok"
    print(f"python {version}: primitives: {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
