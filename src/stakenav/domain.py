"""Core value types: world configuration, degradation scenario, random
streams, world placement.

A run's one input is its `WorldConfig`, whose `degradation` field holds the
run's `DegradationScenario`, if any. Every value is checked here, when the
config or scenario is built; a bad value raises `ConfigError` naming it.
All randomness in the package flows through :class:`RandomStreams`, a set of
independent generators derived from a single root seed. Each concern
(placement, movement, quality, election) gets its own stream, so adding draws
to one concern never perturbs the others. `derive_stream` is the only seeding,
and every draw of a run is `Random.random()`, so that no other stdlib
algorithm shapes the bytes. A robot or landmark is its index in the lists of
positions that `init_world` returns.
"""
from __future__ import annotations

import hashlib
import math
import random
import sys
from typing import NamedTuple

MAX_SEED = 2**64 - 1
# Largest step size whose draw span, 2 * step_size, is still finite.
MAX_STEP = sys.float_info.max / 2
# Bounds on the lengths in the distance test dx * dx + dy * dy <= radius_sq.
# A width and height of at most 2**511 bound each |dx| and |dy| by it, so the
# sum is at most 2**1023 and finite, as is radius_sq. A radius of at least
# 2**-511 makes radius_sq at least 2**-1022, a normal float. Each square that
# underflows is then off by at most 2**-1075, half the last bit of the least
# radius_sq, so the test decides the Euclidean rule up to rounding.
MAX_LENGTH = 2.0**511
MIN_RADIUS = 2.0**-511
# Team and landmark bounds that keep a run's memory finite: the seal state holds
# about 73 B per pair with a sealed observation, at most about 0.6 GB at 4096
# robots, and the landmark grid one entry per landmark.
MAX_ROBOTS = 4096
MAX_LANDMARKS = 2**20
# A run's trajectory holds n_robots * (loops + 1) positions, which take about
# 400 B each at the peak of a run and its export, so this bound on loops keeps
# that under about 0.4 GB.
MAX_POSITIONS = 2**20


def ordered_sum(values) -> float:
    """Sum floats strictly left to right.

    From Python 3.12 the builtin sum() compensates float rounding, which
    changes the last bits of some totals and so the ledger bytes. Plain
    left-to-right addition gives the same result on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class ConfigError(ValueError):
    """A setting, flag or config file violates its constraints."""


def _check_finite(name: str, value) -> None:
    """ConfigError unless `value` is a finite number that a float can hold."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{name} must be <= {sys.float_info.max!r}, got {value}") from None
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value}")


def _checked_setting(name: str, value, kind: type) -> int | float:
    """`value` as a setting of `kind`, int or float; ConfigError otherwise.

    An int setting takes only an int, and a float setting a finite int or
    float, which it stores as a float, -0.0 as 0.0, so that equal settings
    write equal bytes. A bool, a string or any other type is refused.
    """
    if type(value) not in (int, kind):
        raise ConfigError(
            f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
        )
    if kind is int:
        return value
    _check_finite(name, value)
    return float(value) or 0.0  # -0.0 is false


class InvalidPairError(ValueError):
    """A robot pair (i, j) with i == j was supplied where i != j is required."""


def normalize_pair(i: int, j: int) -> tuple[int, int]:
    """Return the unordered pair (min, max), rejecting i == j."""
    if i == j:
        raise InvalidPairError(f"robot pair requires two distinct robots, got ({i}, {j})")
    if i < 0 or j < 0:
        raise InvalidPairError(f"robot indices must be non-negative, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


class _WorldFields(NamedTuple):
    width: float = 200.0
    height: float = 200.0
    n_robots: int = 10
    n_landmarks: int = 20
    loops: int = 10
    sensing_radius: float = 90.0
    step_size: float = 15.0
    block_size: int = 10
    seed: int = 0
    generator_reward: float = 0.1
    initial_stake: float = 1.0
    degradation: DegradationScenario | None = None


class WorldConfig(_WorldFields):
    """Experiment parameters, checked when built. Each setting has the type of
    its default, and a float setting is stored as a float. Defaults mirror the
    desk-scale setup. `degradation` is None or a `DegradationScenario` that
    fits the world: its pair's robots and its window's loops exist."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        *settings, degradation = _WorldFields(*args, **kwargs)
        self = super().__new__(cls, *(
            _checked_setting(name, value, type(default))
            for (name, default), value in zip(_WorldFields._field_defaults.items(), settings)
        ), degradation)
        if not self.width > 0:
            raise ConfigError(f"width must be > 0, got {self.width}")
        if not self.height > 0:
            raise ConfigError(f"height must be > 0, got {self.height}")
        if not 1 <= self.n_robots <= MAX_ROBOTS:
            raise ConfigError(f"n_robots must be in [1, {MAX_ROBOTS}], got {self.n_robots}")
        if not 0 <= self.n_landmarks <= MAX_LANDMARKS:
            raise ConfigError(
                f"n_landmarks must be in [0, {MAX_LANDMARKS}], got {self.n_landmarks}"
            )
        if self.loops < 0:
            raise ConfigError(f"loops must be >= 0, got {self.loops}")
        if self.n_robots * (self.loops + 1) > MAX_POSITIONS:
            raise ConfigError(
                f"loops must be <= {MAX_POSITIONS // self.n_robots - 1} with "
                f"n_robots={self.n_robots}, got {self.loops}"
            )
        if not self.sensing_radius > 0:
            raise ConfigError(f"sensing_radius must be > 0, got {self.sensing_radius}")
        for name in ("width", "height", "sensing_radius"):
            if getattr(self, name) > MAX_LENGTH:
                raise ConfigError(f"{name} must be <= {MAX_LENGTH!r}, got {getattr(self, name)}")
        if self.sensing_radius < MIN_RADIUS:
            raise ConfigError(f"sensing_radius must be >= {MIN_RADIUS!r}, got {self.sensing_radius}")
        if self.step_size < 0:
            raise ConfigError(f"step_size must be >= 0, got {self.step_size}")
        if not math.isfinite(2.0 * self.step_size):
            # A step draw spans 2 * step_size; as inf it would throw every
            # robot into a corner of the world.
            raise ConfigError(f"step_size must be <= {MAX_STEP!r}, got {self.step_size}")
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not self.initial_stake > 0:
            raise ConfigError(f"initial_stake must be > 0, got {self.initial_stake}")
        if self.generator_reward < 0:
            raise ConfigError(f"generator_reward must be >= 0, got {self.generator_reward}")
        if degradation is None:
            return self
        if not isinstance(degradation, DegradationScenario):
            raise ConfigError(
                f"degradation must be a DegradationScenario or None, got {degradation!r}"
            )
        if degradation.end_loop >= self.loops:
            raise ConfigError(f"end_loop must be < loops ({self.loops}), got {degradation.end_loop}")
        if degradation.pair[1] >= self.n_robots:
            raise ConfigError(f"pair {degradation.pair} out of range for {self.n_robots} robots")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` checks too


class _ScenarioFields(NamedTuple):
    pair: tuple[int, int]
    start_loop: int
    end_loop: int
    multiplier: float


class DegradationScenario(_ScenarioFields):
    """Multiply one pair's drawn match qualities during a window of loops.

    The window [start_loop, end_loop] is inclusive over 0-based loop indices.
    The pair and the loops take ints, the multiplier an int or a float, which
    is stored as a float; any other value raises ConfigError.
    """

    __slots__ = ()

    def __new__(cls, pair: tuple[int, int], start_loop: int, end_loop: int, multiplier: float):
        if type(pair) not in (tuple, list) or [type(robot) for robot in pair] != [int, int]:
            raise ConfigError(f"pair must be two integers, got {pair!r}")
        try:
            pair = normalize_pair(*pair)
        except InvalidPairError as exc:
            raise ConfigError(str(exc)) from None
        for name, value in (("start_loop", start_loop), ("end_loop", end_loop)):
            _checked_setting(name, value, int)
            _check_finite(name, value)
        multiplier = _checked_setting("multiplier", multiplier, float)
        self = super().__new__(cls, pair, start_loop, end_loop, multiplier)
        if self.start_loop < 0:
            raise ConfigError(f"start_loop must be >= 0, got {self.start_loop}")
        if self.end_loop < self.start_loop:
            raise ConfigError(
                f"end_loop must be >= start_loop, got [{self.start_loop}, {self.end_loop}]"
            )
        if not 0.0 <= self.multiplier < 1.0:
            raise ConfigError(f"multiplier must be in [0, 1), got {self.multiplier}")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` checks too

    def active(self, loop_index: int) -> bool:
        return self.start_loop <= loop_index <= self.end_loop


def derive_stream(seed: int, label: str) -> random.Random:
    """Derive an independent generator from (root seed, stream label).

    The child seed is the SHA-256 of "<seed>:<label>", so streams are stable
    across platforms and across additions of new labels.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest, "big"))


class RandomStreams(NamedTuple):
    """Per-concern random generators derived from one root seed."""

    placement: random.Random
    movement: random.Random
    quality: random.Random
    election: random.Random

    @classmethod
    def from_seed(cls, seed: int) -> "RandomStreams":
        return cls(
            placement=derive_stream(seed, "placement"),
            movement=derive_stream(seed, "movement"),
            quality=derive_stream(seed, "quality"),
            election=derive_stream(seed, "election"),
        )


def init_world(
    config: WorldConfig,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]], RandomStreams]:
    """Place robots and landmarks uniformly at random inside the world.

    Returns the robots' positions, the landmarks' positions and the run's
    streams; each position is an (x, y) tuple, and its index in the list is
    the robot's or landmark's id. Draw order is fixed (robots first, then
    landmarks; x before y), so equal (config, seed) gives bit-identical
    worlds.
    """
    streams = RandomStreams.from_seed(config.seed)
    random = streams.placement.random

    def place(count: int) -> list[tuple[float, float]]:
        return [(config.width * random(), config.height * random()) for _ in range(count)]

    return place(config.n_robots), place(config.n_landmarks), streams
