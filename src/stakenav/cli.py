"""Command line front end: run an experiment and export it, or verify a dump.

Config precedence is built-in defaults, then a JSON config file (--config),
then explicit flags. Exit codes: 0 success, 1 bad usage or invalid config,
2 runtime or I/O failure, 3 ledger verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import ledger
from .domain import MAX_ROBOTS, ConfigError, DegradationScenario, WorldConfig
from .sim import ExperimentState, run_experiment

# Flag/config-file key -> (WorldConfig field, --help text); the flag is the
# key with "-" for "_", and its value has the type of the field's default.
CONFIG_KEYS = {
    "robots": ("n_robots", "number of robots"),
    "landmarks": ("n_landmarks", "number of landmarks"),
    "width": ("width", "world width"),
    "height": ("height", "world height"),
    "loops": ("loops", "number of movement loops"),
    "radius": ("sensing_radius", "landmark sensing radius"),
    "step": ("step_size", "max per-axis movement per loop"),
    "block_size": ("block_size", "observations per sealed block"),
    "seed": ("seed", "root RNG seed"),
    "reward": ("generator_reward", "stake credited per sealed block"),
    "initial_stake": ("initial_stake", "starting stake per robot"),
}
SCENARIO_KEYS = ("degrade_pair", "degrade_loops", "degrade_factor")

LEDGER_FILE = "ledger.jsonl"
TRAJECTORIES_FILE = "trajectories.csv"
TIMESERIES_FILE = "timeseries.csv"
SUMMARY_FILE = "summary.json"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stakenav",
        description="Simulate a stake-weighted robot team and export its cooperation ledger.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file (flags override it)")
    for key, (field, text) in CONFIG_KEYS.items():
        kind = type(WorldConfig._field_defaults[field])
        parser.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    parser.add_argument(
        "--degrade-pair", metavar="I,J", help="robot pair whose match quality degrades"
    )
    parser.add_argument(
        "--degrade-loops", metavar="A,B", help="inclusive 0-based loop window for degradation"
    )
    parser.add_argument(
        "--degrade-factor", type=float, help="multiplier in [0, 1) applied in the window"
    )
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--verify", metavar="PATH", help="verify a ledger dump instead of running"
    )
    return parser


def _parse_pair(value, key: str) -> tuple[int, int]:
    """A pair given as an `I,J` string, or as a config file's two-integer list."""
    if isinstance(value, str):
        try:
            a, b = (int(p) for p in value.split(","))
        except ValueError:
            raise ConfigError(f"{key} must be two comma-separated integers, got {value!r}") from None
        return a, b
    # As for integer config keys: no bool, no float, no string.
    if isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value):
        return value[0], value[1]
    raise ConfigError(f"config key '{key}' must be two integers, got {value!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object's dict; ValueError if it repeats a key."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key '{key}'")
        data[key] = value
    return data


def load_config_file(path: str) -> dict:
    """Read a JSON config file and reject keys this tool does not know, or
    any key given twice, which JSON would otherwise resolve to the last."""
    try:
        with open(path, encoding="utf-8") as file:  # Path("") would read "."
            text = file.read()
    except OSError as exc:
        raise ConfigError(f"config file {path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from None
    except (ValueError, RecursionError) as exc:  # a repeated key, a huge integer, deep nesting
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    known = set(CONFIG_KEYS) | set(SCENARIO_KEYS)
    for key in data:
        if key not in known:
            raise ConfigError(f"config file {path}: unknown key '{key}'")
    return data


class RunRequest(NamedTuple):
    config: WorldConfig
    out_dir: str


def parse_config(args: argparse.Namespace) -> RunRequest:
    """Merge defaults, config file, and flags into a validated request.

    A key in the config file counts as given whatever its value, JSON null
    included, and a flag that was given overrides it. Every given value is
    checked, world keys and scenario keys alike; the scenario keys become
    the config's `degradation`.
    """
    values = load_config_file(args.config) if args.config is not None else {}
    for key in (*CONFIG_KEYS, *SCENARIO_KEYS):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    config = WorldConfig(**{field: values[key] for key, (field, _) in CONFIG_KEYS.items()
                            if key in values})
    if any(key in values for key in SCENARIO_KEYS):
        missing = [key for key in SCENARIO_KEYS if key not in values]
        if missing:
            raise ConfigError(
                "degradation scenario needs all of --degrade-pair, --degrade-loops, "
                f"--degrade-factor; missing {', '.join(missing)}"
            )
        pair = _parse_pair(values["degrade_pair"], "degrade_pair")
        start, end = _parse_pair(values["degrade_loops"], "degrade_loops")
        scenario = DegradationScenario(pair, start, end, values["degrade_factor"])
        config = config._replace(degradation=scenario)
    return RunRequest(config=config, out_dir=args.out)


def summarize(state: ExperimentState) -> dict:
    """The run totals `summary.json` holds, recounted from the chain; a
    ledger block holds exactly one reward, so the rewards are the blocks."""
    chain = state.chain
    blocks = len(chain.blocks)
    total = chain.next_tx_id
    return {
        "blocks": blocks,
        "transactions": total,
        "observation_transactions": total - blocks,
        "reward_transactions": blocks,
        "max_common_landmarks": state.max_common,
        "min_common_landmarks": state.min_common if state.min_common is not None else 0,
        "generator_histogram": chain.generator_histogram(),
        "final_stakes": list(state.stakes),
        "total_stake": state.total_stake(),
    }


def _trajectories_csv(state: ExperimentState) -> str:
    lines = ["loop,robot_id,x,y"]
    for loop, positions in enumerate(state.trajectory):
        for robot_id, (x, y) in enumerate(positions):
            lines.append(f"{loop},{robot_id},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def _timeseries_csv(state: ExperimentState) -> str:
    lines = ["block_index,first_tx_id,last_tx_id,avg_navigability,generator"]
    for block in state.chain.blocks:
        first = block.first_tx_id
        last = first + block.transaction_count - 1
        lines.append(
            f"{block.index},{first},{last},{block.avg_navigability!r},{block.generator}"
        )
    return "\n".join(lines) + "\n"


def run_and_export(request: RunRequest) -> dict:
    """Run the experiment, write the four export files and return the
    summary that `summary.json` holds.

    Exports are byte-identical across reruns of the same request. Each is
    written to a temporary name in the output directory, and all four are
    renamed into place only once every one is written, so a failed write
    leaves the files of an earlier run as they were.
    """
    started = time.perf_counter()
    state = run_experiment(request.config)
    duration = time.perf_counter() - started
    # Raises ValueError if the last reward made the stake total overflow,
    # before any file is opened.
    summary = summarize(state)

    out = Path(request.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    exports = {
        LEDGER_FILE: state.chain.dumps(),
        TRAJECTORIES_FILE: _trajectories_csv(state).encode("ascii"),
        TIMESERIES_FILE: _timeseries_csv(state).encode("ascii"),
        SUMMARY_FILE: summary_text.encode("ascii"),
    }
    temporaries = {name: out / f".{name}.tmp" for name in exports}
    try:
        for name, data in exports.items():
            temporaries[name].write_bytes(data)
        for name, temporary in temporaries.items():
            os.replace(temporary, out / name)
    finally:
        for temporary in temporaries.values():
            temporary.unlink(missing_ok=True)

    print(f"blocks sealed: {summary['blocks']}")
    print(
        f"transactions: {summary['transactions']} "
        f"({summary['observation_transactions']} observations, "
        f"{summary['reward_transactions']} rewards)"
    )
    print(f"common landmarks per pair: max {summary['max_common_landmarks']}, "
          f"min {summary['min_common_landmarks']}")
    print(f"generator histogram: {summary['generator_histogram']}")
    stakes = ", ".join(format(s, ".3f") for s in summary["final_stakes"])
    print(f"final stakes: [{stakes}] (total {summary['total_stake']:.3f})")
    print(f"elapsed: {duration:.3f}s")
    print(f"wrote {out / LEDGER_FILE}, {out / TRAJECTORIES_FILE}, "
          f"{out / TIMESERIES_FILE}, {out / SUMMARY_FILE}")
    return summary


def verify_dump(path: str, n_robots: int) -> int:
    """Check a ledger dump file, with robot ids below `n_robots`; report the
    first bad block and its rule if any."""
    try:
        with open(path, "rb") as file:  # Path("") would read "."
            data = file.read()
    except OSError as exc:
        print(f"stakenav: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    bad_index = ledger.verify_dump_bytes(data, n_robots)
    if bad_index is None:
        print(f"{path}: valid")
        return 0
    # Only a failure reads the dump again, for the reader's "block K: <rule>".
    try:
        ledger.Chain.loads(data, n_robots)
    except ledger.LedgerError as exc:
        print(f"{path}: invalid at {exc}")
    return 3


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on bad usage; this tool
        # reserves 2 for runtime failures.
        return 1 if exc.code else 0

    try:
        request = parse_config(args)
    except ConfigError as exc:
        print(f"stakenav: error: {exc}", file=sys.stderr)
        return 1
    if args.verify is not None:
        # Robot ids are checked against the team a run would resolve when
        # --robots or --config gives one, and otherwise against MAX_ROBOTS.
        given = args.robots is not None or args.config is not None
        return verify_dump(args.verify, request.config.n_robots if given else MAX_ROBOTS)
    try:
        run_and_export(request)
    except OSError as exc:
        print(f"stakenav: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # A run that cannot be completed, such as a stake total that
        # overflowed; raised before any export is written.
        print(f"stakenav: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
