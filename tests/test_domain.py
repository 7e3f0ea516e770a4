import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from stakenav import ConfigError, DegradationScenario, WorldConfig, init_world, run_experiment
from stakenav.domain import (
    MAX_LANDMARKS,
    MAX_LENGTH,
    MAX_POSITIONS,
    MAX_ROBOTS,
    MAX_SEED,
    MIN_RADIUS,
    InvalidPairError,
    derive_stream,
    normalize_pair,
)
from stakenav.sim import Consensus, World
from tests.test_cli import CONFIG_VALUES


def test_default_config_values():
    cfg = WorldConfig()
    assert cfg.n_robots == 10
    assert cfg.n_landmarks == 20
    assert cfg.width == 200.0
    assert cfg.height == 200.0
    assert cfg.loops == 10
    assert cfg.sensing_radius == 90.0
    assert cfg.step_size == 15.0
    assert cfg.block_size == 10
    assert cfg.generator_reward == 0.1
    assert cfg.initial_stake == 1.0
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_robots", 0),
        ("n_landmarks", -1),
        ("width", 0.0),
        ("height", 0.0),
        ("height", -3.0),
        ("loops", -1),
        ("sensing_radius", -0.5),
        ("step_size", -1.0),
        ("step_size", 1e308),
        ("block_size", 0),
        ("generator_reward", -0.1),
        ("initial_stake", 0.0),
        ("seed", -1),
        ("seed", 2**64),
        ("n_robots", MAX_ROBOTS + 1),
        ("n_landmarks", MAX_LANDMARKS + 1),
        ("loops", MAX_POSITIONS),
        # Lengths at which the distance test leaves the float range.
        ("width", 1e300),
        ("sensing_radius", 1e-310),
        # Integers that no float can hold.
        pytest.param("width", 10**400, id="width-beyond-float"),
        pytest.param("generator_reward", 10**400, id="generator_reward-beyond-float"),
        # Each setting takes only the type of its default: an int setting an
        # int, a float setting an int or a float; never a bool or a string.
        ("seed", 1.5),
        ("n_robots", 2.5),
        ("block_size", 2.5),
        ("n_robots", True),
        ("loops", None),
        ("width", "200"),
        ("initial_stake", True),
    ],
)
def test_config_rejects_bad_values_naming_the_field(field, value):
    with pytest.raises(ConfigError) as err:
        WorldConfig(**{field: value})
    assert field in str(err.value)


@pytest.mark.parametrize(
    "field",
    ["width", "height", "sensing_radius", "step_size", "generator_reward", "initial_stake"],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_values_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        WorldConfig(**{field: value})


def test_step_size_bound_keeps_the_draw_span_finite():
    largest = sys.float_info.max / 2
    assert WorldConfig(step_size=largest).step_size == largest
    with pytest.raises(ConfigError, match="step_size must be <= "):
        WorldConfig(step_size=math.nextafter(largest, math.inf))


def test_length_bounds_are_inclusive():
    config = WorldConfig(width=MAX_LENGTH, height=MAX_LENGTH, sensing_radius=MIN_RADIUS)
    assert (config.width, config.sensing_radius) == (2.0**511, 2.0**-511)
    assert WorldConfig(sensing_radius=MAX_LENGTH).sensing_radius == MAX_LENGTH
    beyond = math.nextafter(MAX_LENGTH, math.inf)
    for field in ("width", "height", "sensing_radius"):
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be <= {MAX_LENGTH!r}, got ")):
            WorldConfig(**{field: beyond})
    with pytest.raises(ConfigError, match=re.escape(f"sensing_radius must be >= {MIN_RADIUS!r}, got ")):
        WorldConfig(sensing_radius=math.nextafter(MIN_RADIUS, 0.0))


def test_team_and_landmark_bounds_are_inclusive():
    # Only constructed, never run: no host could run it, since its first loop
    # alone would hold billions of sightings.
    config = WorldConfig(n_robots=MAX_ROBOTS, n_landmarks=MAX_LANDMARKS)
    assert (config.n_robots, config.n_landmarks) == (4096, 2**20)


def test_the_largest_seed_runs_and_verifies():
    chain = run_experiment(WorldConfig(seed=MAX_SEED)).consensus.chain
    assert chain.blocks
    assert chain.verify() is None


def test_loops_bound_holds_the_trajectory_to_max_positions():
    # Only constructed, never run. The trajectory holds n_robots * (loops + 1)
    # positions.
    for n_robots in (1, 50, MAX_ROBOTS):
        most = MAX_POSITIONS // n_robots - 1
        assert WorldConfig(n_robots=n_robots, loops=most).loops == most
        message = f"^loops must be <= {most} with n_robots={n_robots}, got {most + 1}$"
        with pytest.raises(ConfigError, match=message):
            WorldConfig(n_robots=n_robots, loops=most + 1)


def test_config_is_frozen():
    cfg = WorldConfig()
    with pytest.raises(AttributeError):
        cfg.n_robots = 5


def test_normalize_pair():
    assert normalize_pair(3, 1) == (1, 3)
    assert normalize_pair(0, 9) == (0, 9)
    with pytest.raises(InvalidPairError):
        normalize_pair(2, 2)
    with pytest.raises(InvalidPairError):
        normalize_pair(-1, 4)


def test_derive_stream_is_deterministic_and_label_separated():
    a1 = derive_stream(42, "movement")
    a2 = derive_stream(42, "movement")
    b = derive_stream(42, "quality")
    seq1 = [a1.random() for _ in range(5)]
    seq2 = [a2.random() for _ in range(5)]
    seqb = [b.random() for _ in range(5)]
    assert seq1 == seq2
    assert seq1 != seqb


def test_streams_from_seed_are_independent():
    quality, movement = derive_stream(7, "quality"), derive_stream(7, "movement")
    before = quality.random()
    # draining one stream must not shift another
    for _ in range(100):
        movement.random()
    assert before == derive_stream(7, "quality").random()


def test_the_world_derives_its_own_streams():
    cfg = WorldConfig(seed=7)
    world = World(cfg, *init_world(cfg))
    assert world.movement.random() == derive_stream(7, "movement").random()
    assert world.quality.random() == derive_stream(7, "quality").random()
    placement = derive_stream(7, "placement")
    r1, r2 = placement.random(), placement.random()
    assert init_world(cfg)[0][0] == (cfg.width * r1, cfg.height * r2)


def test_init_world_places_everything_in_bounds():
    cfg = WorldConfig(seed=11, initial_stake=2.5)
    positions, landmarks = init_world(cfg)
    assert len(positions) == cfg.n_robots
    assert len(landmarks) == cfg.n_landmarks
    for place in positions + landmarks:
        assert type(place) is tuple and len(place) == 2
        x, y = place
        assert type(x) is float and type(y) is float
        assert 0.0 <= x <= cfg.width and 0.0 <= y <= cfg.height
    assert World(cfg, positions, landmarks).trajectory == [positions]
    assert Consensus(cfg).stakes == [2.5] * cfg.n_robots


def test_init_world_is_deterministic_per_seed():
    cfg = WorldConfig(seed=3)
    r1, l1 = init_world(cfg)
    r2, l2 = init_world(cfg)
    assert r1 == r2
    assert l1 == l2
    r3, _ = init_world(WorldConfig(seed=4))
    assert r1 != r3


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(WorldConfig._fields), CONFIG_VALUES))
def test_any_settings_build_a_typed_config_or_raise_config_error(values):
    try:
        config = WorldConfig(**values)
    except ConfigError as exc:
        assert str(exc).split()[0] in WorldConfig._fields
        return
    for name, default in WorldConfig._field_defaults.items():
        assert type(getattr(config, name)) is type(default)


# Each argument is a value of its type, or any config-file value; a few
# percent of the draws are valid scenarios.
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=2, max_size=2) | CONFIG_VALUES,
    st.integers(0, 10) | CONFIG_VALUES,
    st.integers(0, 20) | CONFIG_VALUES,
    st.just(0) | st.floats(0.0, 1.0, exclude_max=True) | CONFIG_VALUES,
)
def test_any_scenario_is_typed_or_raises_config_error(pair, start_loop, end_loop, multiplier):
    try:
        scenario = DegradationScenario(pair, start_loop, end_loop, multiplier)
    except ConfigError:
        return
    assert [type(value) for value in scenario] == [tuple, int, int, float]
    assert [type(robot) for robot in scenario.pair] == [int, int]
