import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stakenav.ledger
from stakenav import Chain, WorldConfig, verify_dump_bytes
from stakenav.cli import (
    CONFIG_KEYS,
    LEDGER_FILE,
    SCENARIO_KEYS,
    SUMMARY_FILE,
    TIMESERIES_FILE,
    TRAJECTORIES_FILE,
    RunRequest,
    build_parser,
    main,
    parse_config,
    run_and_export,
)
from stakenav.domain import MAX_POSITIONS, MAX_ROBOTS
from stakenav.ledger import Observation
from tests.test_ledger import CHAIN_RULES, FORGERIES, relinked_dump, seed_records


def parse(argv):
    return parse_config(build_parser().parse_args(argv))


def test_defaults_without_flags(tmp_path):
    req = parse(["--out", str(tmp_path)])
    assert req.config.n_robots == 10
    assert req.config.degradation is None
    assert req.out_dir == str(tmp_path)


def test_flags_override_defaults():
    req = parse(["--robots", "6", "--radius", "45.5", "--seed", "9"])
    assert req.config.n_robots == 6
    assert req.config.sensing_radius == 45.5
    assert req.config.seed == 9


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"robots": 5, "loops": 3, "reward": 0.2}))
    req = parse(["--config", str(cfg), "--loops", "7"])
    assert req.config.n_robots == 5       # file beats default
    assert req.config.loops == 7          # flag beats file
    assert req.config.generator_reward == 0.2


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"robots": 5, "robtos": 6}))
    assert main(["--config", str(cfg)]) == 1
    assert "robtos" in capsys.readouterr().err


def test_config_file_with_a_repeated_key_exits_one(tmp_path, capsys):
    # json.loads alone keeps the last of two equal keys and would run 4 robots.
    cfg = tmp_path / "run.json"
    cfg.write_text('{"robots": 3, "robots": 4}')
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"stakenav: error: config file {cfg}: duplicate key 'robots'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,reason",
    [
        ("missing", "cannot read (No such file or directory)"),
        ("directory", "cannot read (Is a directory)"),
        ("binary", "not UTF-8 (invalid start byte at byte 0)"),
        ("long-integer", "Exceeds the limit (4300 digits) for integer string conversion: "
                         "value has 5001 digits; use sys.set_int_max_str_digits() "
                         "to increase the limit"),
        ("nested", "maximum recursion depth exceeded while decoding a JSON array "
                   "from a unicode string"),
        ("empty-path", "cannot read (No such file or directory)"),
    ],
)
def test_unreadable_config_file_exits_one_without_traceback(tmp_path, kind, reason):
    path = tmp_path / "run.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff{}")
    elif kind == "long-integer":
        path.write_text('{"width": 1' + "0" * 5000 + "}")
    elif kind == "nested":
        path.write_text('{"robots": ' + "[" * 200000 + "]" * 200000 + "}")
    elif kind == "empty-path":
        path = ""
    # A separate interpreter, so an uncaught error would print its traceback.
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = ["--config", str(path), "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-m", "stakenav.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr == f"stakenav: error: config file {path}: {reason}\n"
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_config_file_scenario(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "degrade_pair": [0, 3], "degrade_loops": "4,6", "degrade_factor": 0.1,
    }))
    req = parse(["--config", str(cfg)])
    assert req.config.degradation.pair == (0, 3)
    assert (req.config.degradation.start_loop, req.config.degradation.end_loop) == (4, 6)
    assert req.config.degradation.multiplier == 0.1


def test_scenario_flags():
    req = parse(["--degrade-pair", "7,2", "--degrade-loops", "4,6", "--degrade-factor", "0.1"])
    assert req.config.degradation.pair == (2, 7)


def test_partial_scenario_is_usage_error(capsys):
    assert main(["--degrade-pair", "0,1"]) == 1
    err = capsys.readouterr().err
    assert "degrade_loops" in err and "degrade_factor" in err


def test_degradation_window_past_the_last_loop_exits_one(capsys, tmp_path):
    out = tmp_path / "out"
    assert main(["--loops", "10", "--degrade-pair", "2,7", "--degrade-loops", "10,10",
                 "--degrade-factor", "0.1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "stakenav: error: end_loop must be < loops (10), got 10\n"
    assert not out.exists()


def test_non_numeric_flag_exits_one(capsys):
    assert main(["--robots", "many"]) == 1
    assert "--robots" in capsys.readouterr().err


def test_invalid_config_value_names_field(capsys):
    assert main(["--robots", "0"]) == 1
    assert "n_robots" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,field",
    [
        ("--reward", "inf", "generator_reward"),
        ("--initial-stake", "inf", "initial_stake"),
        ("--width", "inf", "width"),
        ("--radius", "inf", "sensing_radius"),
        ("--step", "nan", "step_size"),
    ],
)
def test_non_finite_flag_exits_one_naming_the_field(tmp_path, capsys, flag, value, field):
    out = tmp_path / "out"
    assert main([flag, value, "--loops", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"stakenav: error: {field} must be finite, got {value}\n"
    assert not out.exists()


def test_step_whose_draw_span_overflows_exits_one(tmp_path, capsys):
    # A step draw, low + span * random() with low = -step, spans 2 * step,
    # which is inf here; the run used to exit 0 with every robot clamped to
    # the (width, height) corner.
    out = tmp_path / "out"
    assert main(["--step", "1e308", "--loops", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "stakenav: error: step_size must be <= 8.988465674311579e+307, got 1e+308\n"
    assert not out.exists()


def test_non_finite_pair_in_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"degrade_pair": [Infinity, 1], "degrade_loops": [1, 2], '
                   '"degrade_factor": 0.1}')
    assert main(["--config", str(cfg)]) == 1
    assert "degrade_pair" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("degrade_pair", [2.9, 7]),
        ("degrade_loops", [4.5, 6]),
        ("degrade_pair", [True, 7]),
    ],
)
def test_non_integer_pair_in_config_file_exits_one(tmp_path, capsys, key, value):
    values = {"degrade_pair": [2, 7], "degrade_loops": [4, 6], "degrade_factor": 0.1}
    values[key] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stakenav: error: ") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "values,message",
    [
        ({"robots": 2.5}, "n_robots must be an integer, got 2.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"width": "200"}, "width must be a number, got '200'"),
        ({"degrade_pair": [2, 7], "degrade_loops": [4, 6], "degrade_factor": "0.1"},
         "multiplier must be a number, got '0.1'"),
        ({"degrade_pair": [2], "degrade_loops": [4, 6], "degrade_factor": 0.1},
         "config key 'degrade_pair' must be two integers, got [2]"),
        ({"degrade_pair": [2, 7], "degrade_loops": [4, 5, 6], "degrade_factor": 0.1},
         "config key 'degrade_loops' must be two integers, got [4, 5, 6]"),
        # A key that is present counts as given, even as null.
        ({"degrade_pair": None, "degrade_loops": None, "degrade_factor": None},
         "config key 'degrade_pair' must be two integers, got None"),
    ],
)
def test_wrong_type_in_config_file_exits_one_naming_the_field(tmp_path, capsys, values, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"stakenav: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # The first reward makes a stake inf; caught at the next seal.
        ["--initial-stake", "1e308", "--reward", "1e308", "--loops", "2"],
        # The total is inf from the start, so every weight would be 0.
        ["--initial-stake", "1e308", "--reward", "0", "--loops", "2"],
        # The only seal's reward overflows the total; caught before export.
        ["--robots", "2", "--loops", "1", "--block-size", "100",
         "--initial-stake", "5e307", "--reward", "1e308"],
    ],
)
def test_stake_overflow_exits_two_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("stakenav: error: total stake overflowed")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "extent,radius,message",
    [
        ("1e300", "1e160", "width must be <= 6.703903964971299e+153, got 1e+300"),
        ("1e-300", "1e-310", "sensing_radius must be >= 1.4916681462400413e-154, got 1e-310"),
    ],
)
def test_lengths_beyond_the_distance_test_exit_one(tmp_path, capsys, extent, radius, message):
    # The two worlds' squared distances overflow to inf against an inf
    # radius_sq, or underflow to 0.0, so every robot would see every landmark.
    out = tmp_path / "out"
    argv = ["--robots", "4", "--landmarks", "8", "--seed", "3", "--width", extent,
            "--height", extent, "--radius", radius, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"stakenav: error: {message}\n"
    assert not out.exists()


def test_huge_team_in_config_file_exits_one(tmp_path, capsys):
    # Without a bound this config ran until it was killed.
    cfg = tmp_path / "run.json"
    cfg.write_text('{"robots": 10000000000000000000000}')
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"stakenav: error: n_robots must be in [1, {MAX_ROBOTS}], "
        "got 10000000000000000000000\n"
    )
    assert not out.exists()


def test_loops_beyond_the_trajectory_bound_exit_one(tmp_path):
    # Without a bound this run was accepted and ran until it was killed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "out"
    argv = ["--robots", "1", "--loops", str(10**40), "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "stakenav.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr == (
        f"stakenav: error: loops must be <= {MAX_POSITIONS - 1} with n_robots=1, got {10**40}\n"
    )
    assert not out.exists()


HUGE = 10**400
HUGE_SCENARIO = {"degrade_pair": [2, 7], "degrade_loops": [0, 1], "degrade_factor": 0.1}
FLOAT_MAX = "1.7976931348623157e+308"


@pytest.mark.parametrize(
    "config,flags,field",
    [
        ({"width": HUGE}, [], "width"),
        ({"reward": HUGE}, [], "generator_reward"),
        ({**HUGE_SCENARIO, "degrade_loops": [0, HUGE]}, [], "end_loop"),
        ({**HUGE_SCENARIO, "degrade_factor": HUGE}, [], "multiplier"),
        (HUGE_SCENARIO, ["--degrade-loops", f"0,{HUGE}"], "end_loop"),
    ],
)
def test_huge_integer_setting_exits_one_naming_it(tmp_path, config, flags, field):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    # A separate interpreter, so an uncaught error would print its traceback.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["--config", str(cfg), *flags, "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-m", "stakenav.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr == f"stakenav: error: {field} must be <= {FLOAT_MAX}, got {HUGE}\n"
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_bad_pair_value_exits_one(capsys):
    assert main(["--degrade-pair", "3,3", "--degrade-loops", "4,6",
                 "--degrade-factor", "0.1"]) == 1
    capsys.readouterr()


def test_run_writes_all_exports(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--seed", "3", "--loops", "4", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "blocks sealed:" in stdout and "elapsed:" in stdout
    for name in (LEDGER_FILE, TRAJECTORIES_FILE, TIMESERIES_FILE, SUMMARY_FILE):
        assert (out / name).is_file()

    chain = Chain.loads((out / LEDGER_FILE).read_bytes(), n_robots=10)
    assert chain.verify() is None
    summary = json.loads((out / SUMMARY_FILE).read_text())
    assert summary["blocks"] == len(chain.blocks)
    assert summary["transactions"] == chain.next_tx_id
    obs = sum(1 for b in chain.blocks for tx in b.transactions if isinstance(tx, Observation))
    assert summary["observation_transactions"] == obs
    assert summary["reward_transactions"] == len(chain.blocks)
    assert summary["generator_histogram"] == chain.generator_histogram()
    assert "duration" not in json.dumps(summary)

    traj_lines = (out / TRAJECTORIES_FILE).read_text().splitlines()
    assert traj_lines[0] == "loop,robot_id,x,y"
    assert len(traj_lines) == 1 + (4 + 1) * 10  # header + (loops+1) * robots
    ts_lines = (out / TIMESERIES_FILE).read_text().splitlines()
    assert len(ts_lines) == 1 + len(chain.blocks)
    for block, line in zip(chain.blocks, ts_lines[1:]):
        idx, first, last, avg, gen = line.split(",")
        assert int(idx) == block.index
        ids = [tx["tx_id"] for tx in json.loads(block.line)["transactions"]]
        assert int(first) == ids[0]
        assert int(last) == ids[-1]
        assert float(avg) == block.avg_navigability
        assert int(gen) == block.generator


def test_run_and_export_returns_the_summary_it_wrote(tmp_path):
    summary = run_and_export(parse(["--seed", "3", "--out", str(tmp_path)]))
    assert summary == json.loads((tmp_path / SUMMARY_FILE).read_text())


def test_export_encodes_each_block_once_and_decodes_none(tmp_path, monkeypatch):
    encode = stakenav.ledger.canonical_encode
    encoded, decoded = [], []

    def counting_encode(obj):
        encoded.append(obj)
        return encode(obj)

    def counting_loads(data):
        decoded.append(data)
        return json.loads(data)

    # Every decode in the ledger module, of a dump line or of a block body,
    # goes through its `json.loads`.
    monkeypatch.setattr(stakenav.ledger, "canonical_encode", counting_encode)
    monkeypatch.setattr(stakenav.ledger, "json", types.SimpleNamespace(loads=counting_loads))
    summary = run_and_export(parse(["--seed", "0", "--out", str(tmp_path)]))
    assert summary["blocks"] > 0
    assert len(encoded) == summary["blocks"]
    assert decoded == []


def test_failed_export_leaves_the_earlier_files(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["--seed", "4", "--loops", "3", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == sorted((LEDGER_FILE, TRAJECTORIES_FILE, TIMESERIES_FILE, SUMMARY_FILE))

    write_bytes = Path.write_bytes
    writes = []

    def fourth_write_fails(path, data):
        writes.append(path)
        if len(writes) == 4:
            raise OSError(28, "No space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", fourth_write_fails)
    capsys.readouterr()
    assert main(["--seed", "5", "--loops", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "stakenav: i/o error: [Errno 28] No space left on device\n"
    assert len(writes) == 4
    # The new run's files differ, yet nothing was replaced and nothing is left over.
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "8", "--out", str(a)]) == 0
    assert main(["--seed", "8", "--out", str(b)]) == 0
    capsys.readouterr()
    for name in (LEDGER_FILE, TRAJECTORIES_FILE, TIMESERIES_FILE, SUMMARY_FILE):
        assert (a / name).read_bytes() == (b / name).read_bytes()


FLOAT_FIELDS = ("width", "height", "sensing_radius", "step_size", "generator_reward",
                "initial_stake")
EXPORTS = (LEDGER_FILE, TRAJECTORIES_FILE, TIMESERIES_FILE, SUMMARY_FILE)


def test_equal_configs_write_identical_exports(tmp_path):
    # Equal configs, one given integers: its stakes stayed ints and a robot
    # clamped to the world's edge was written as 200, not 200.0.
    whole = WorldConfig(width=200, height=200, initial_stake=1, generator_reward=1)
    floats = WorldConfig(width=200.0, height=200.0, initial_stake=1.0, generator_reward=1.0)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"width": 200, "height": 200, "initial_stake": 1, "reward": 1}))
    from_file = parse(["--config", str(cfg)]).config
    assert whole == floats == from_file
    for config in (whole, floats, from_file, whole._replace(seed=0)):
        assert all(type(getattr(config, name)) is float for name in FLOAT_FIELDS)

    exports = []
    for n, config in enumerate((whole, floats, from_file)):
        out = tmp_path / str(n)
        run_and_export(RunRequest(config, str(out)))
        exports.append({name: (out / name).read_bytes() for name in EXPORTS})
    assert exports[0] == exports[1] == exports[2]
    assert verify_dump_bytes(exports[0][LEDGER_FILE]) is None


@pytest.mark.parametrize("flags, stored", [
    (["--reward"], lambda request: request.config.generator_reward),
    (["--degrade-pair", "2,7", "--degrade-loops", "1,4", "--degrade-factor"],
     lambda request: request.config.degradation.multiplier),
])
def test_negative_zero_settings_write_the_bytes_of_zero(tmp_path, flags, stored):
    # -0.0 == 0.0, yet a stored -0.0 was written as "reward":-0.0 or as
    # [k,-0.0] match qualities.
    exports = []
    for value in ("0.0", "-0.0"):
        out = tmp_path / value
        request = parse(["--loops", "6", *flags, value, "--out", str(out)])
        assert math.copysign(1.0, stored(request)) == 1.0
        run_and_export(request)
        exports.append({name: (out / name).read_bytes() for name in EXPORTS})
    assert exports[0] == exports[1]


# Config-file values of every kind JSON holds, including the edges of each
# setting's type: huge and negative integers, the largest floats, -0.0. Most
# are small positive numbers, which most settings accept, so that some drawn
# files parse (about one in eight).
CONFIG_VALUES = st.integers(1, 30) | st.floats(1.0, 300.0) | st.recursive(
    st.one_of(
        st.integers(min_value=-(10**400), max_value=10**400),
        st.sampled_from([0, 1, 2, 10, 2**64, 10**400, -(10**400), 1e308, -1e308, -0.0, 0.5]),
        st.floats(),
        st.booleans(),
        st.none(),
        st.text(max_size=6),
        st.sampled_from(["0,1", "4,6", "2,7", "1,1", "-1,3", "1e400,2"]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS) + list(SCENARIO_KEYS)), CONFIG_VALUES))
def test_any_config_file_parses_or_exits_one(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(values))
    try:
        request = parse(["--config", str(path)])
    except ValueError as exc:
        assert "\n" not in str(exc)
        assert main(["--config", str(path), "--out", str(path.with_suffix(""))]) == 1
        return
    assert all(type(getattr(request.config, name)) is float for name in FLOAT_FIELDS)


def test_verify_mode(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--seed", "2", "--loops", "3", "--out", str(out)]) == 0
    ledger = out / LEDGER_FILE
    assert main(["--verify", str(ledger)]) == 0
    capsys.readouterr()

    data = bytearray(ledger.read_bytes())
    data[len(data) // 2] ^= 0x10
    ledger.write_bytes(bytes(data))
    assert main(["--verify", str(ledger)]) == 3
    assert "invalid at block" in capsys.readouterr().out

    for missing in (str(tmp_path / "missing.jsonl"), ""):
        assert main(["--verify", missing]) == 2
        assert "No such file or directory" in capsys.readouterr().err


def test_verify_reports_non_finite_numbers_as_invalid(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--seed", "0", "--out", str(out)]) == 0
    ledger = out / LEDGER_FILE
    original = ledger.read_bytes()
    first_line = original.split(b"\n", 1)[0]
    assert b'"avg_navigability":0.0,' in first_line
    for old, new in ((b'"avg_navigability":0.0,', b'"avg_navigability":NaN,'),
                     (b'"reward":0.1,', b'"reward":Infinity,')):
        ledger.write_bytes(original.replace(old, new, 1))
        capsys.readouterr()
        assert main(["--verify", str(ledger)]) == 3
        assert "invalid at block 0" in capsys.readouterr().out


@pytest.mark.parametrize("rule, message", [
    ("hash", "hash does not match the block body"),
    ("prev_hash", "prev_hash does not link to the previous block"),
])
def test_verify_names_the_rule_that_failed(tmp_path, capsys, rule, message):
    breaker, _ = CHAIN_RULES[rule]
    ledger = tmp_path / LEDGER_FILE
    ledger.write_bytes(breaker(seed_records()))
    assert main(["--verify", str(ledger)]) == 3
    assert capsys.readouterr().out == f"{ledger}: invalid at block 3: {message}\n"


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_verify_names_the_block_rule_a_forgery_breaks(tmp_path, capsys, forgery):
    breaker, message = FORGERIES[forgery]
    ledger = tmp_path / LEDGER_FILE
    ledger.write_bytes(breaker(seed_records()))
    assert main(["--verify", str(ledger)]) == 3
    assert capsys.readouterr().out == f"{ledger}: invalid at block 3: {message}\n"


def test_verify_checks_robot_ids_against_the_team_size_it_is_given(tmp_path, capsys):
    # Block 3's reward re-paid to robot 99, re-hashed and relinked.
    records = seed_records()
    records[3]["generator"] = records[3]["transactions"][-1]["generator"] = 99
    ledger = tmp_path / LEDGER_FILE
    ledger.write_bytes(relinked_dump(records))
    assert main(["--verify", str(ledger)]) == 0  # below MAX_ROBOTS
    assert capsys.readouterr().out == f"{ledger}: valid\n"
    assert main(["--verify", str(ledger), "--degrade-pair", "0,1"]) == 1  # as for a run
    assert capsys.readouterr().err.startswith(
        "stakenav: error: degradation scenario needs all of"
    )
    config = tmp_path / "run.json"
    config.write_text('{"robots": 10}')
    for team in (["--robots", "10"], ["--config", str(config)]):
        assert main(["--verify", str(ledger), *team]) == 3
        assert capsys.readouterr().out == (
            f"{ledger}: invalid at block 3: generator index 99 out of range\n"
        )
    assert main(["--verify", str(ledger), "--robots", "100"]) == 0
    capsys.readouterr()
    assert main(["--verify", str(ledger), "--robots", "0"]) == 1  # as for a run
    assert capsys.readouterr().err.startswith("stakenav: error: n_robots must be in")


def test_plain_verify_refuses_a_robot_id_no_run_can_write(tmp_path, capsys):
    # Block 3's reward re-paid to robot MAX_ROBOTS, re-hashed and relinked.
    records = seed_records()
    records[3]["generator"] = records[3]["transactions"][-1]["generator"] = MAX_ROBOTS
    ledger = tmp_path / LEDGER_FILE
    ledger.write_bytes(relinked_dump(records))
    assert main(["--verify", str(ledger)]) == 3
    assert capsys.readouterr().out == (
        f"{ledger}: invalid at block 3: generator index {MAX_ROBOTS} out of range\n"
    )


def test_verify_rejects_a_dump_without_its_final_newline(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--seed", "0", "--out", str(out)]) == 0
    ledger = out / LEDGER_FILE
    data = ledger.read_bytes()
    ledger.write_bytes(data[:-1])
    capsys.readouterr()
    assert main(["--verify", str(ledger)]) == 3
    last = data.count(b"\n") - 1
    assert capsys.readouterr().out == (
        f"{ledger}: invalid at block {last}: line does not end with a newline\n"
    )


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["--loops", "1", "--out", str(blocker / "sub")]) == 2
    capsys.readouterr()
