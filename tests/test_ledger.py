import hashlib
import json
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from stakenav import (
    Chain,
    ConfigError,
    ExperimentState,
    LedgerError,
    WorldConfig,
    compute_visibility,
    emit_transactions,
    init_world,
    run_experiment,
    verify_dump_bytes,
)
from stakenav import ledger
from stakenav.domain import MAX_ROBOTS
from stakenav.ledger import GENESIS_PREV_HASH, Observation, Reward, canonical_encode
from stakenav.sim import step_movement


def obs(pair, loop, matches=((0, 0.5),)):
    return Observation(tuple(sorted(pair)), list(matches), loop)


def build_chain(blocks=3, n_robots=4, block_size=3, seed=0):
    """Small deterministic chain: block_size observations + 1 reward each."""
    rng = random.Random(seed)
    chain = Chain(n_robots=n_robots)
    for b in range(blocks):
        txs = []
        for _ in range(block_size):
            i, j = rng.sample(range(n_robots), 2)
            matches = [(k, rng.random()) for k in range(rng.randint(1, 3))]
            txs.append(obs((i, j), b, matches=matches))
        txs.append(Reward(rng.randrange(n_robots), 0.1, b))
        chain.append_block(txs, rng.random())
    return chain


def pair_tx_counts(blocks) -> Counter:
    """(i, j) -> how many observations of the pair `blocks` hold, read
    through `Block.transactions`."""
    return Counter(
        tx.pair for block in blocks for tx in block.transactions if isinstance(tx, Observation)
    )


def test_canonical_encoding_is_sorted_compact_ascii():
    data = canonical_encode({"b": 1, "a": [1.5, "ü"], "c": None})
    assert data == b'{"a":[1.5,"\\u00fc"],"b":1,"c":null}'
    assert canonical_encode({"p": (0, 1), "m": [(2, 0.5)]}) == b'{"m":[[2,0.5]],"p":[0,1]}'


def test_canonical_encode_rejects_a_cycle():
    looped = [1]
    looped.append(looped)
    with pytest.raises(RecursionError):
        canonical_encode(looped)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_floats_round_trip(x):
    assert json.loads(canonical_encode(x)) == x


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_reward_and_avg_navigability_must_be_finite(value):
    # A run's rewards are all `generator_reward`, which the config checks.
    with pytest.raises(ConfigError, match="^generator_reward must be finite"):
        WorldConfig(generator_reward=value)
    chain = Chain(n_robots=3)
    with pytest.raises(LedgerError, match="^avg_navigability must be finite"):
        chain.append_block([obs((0, 1), 0), Reward(0, 0.1, 0)], value)
    assert chain.blocks == []


def test_block_transactions_are_the_appended_records():
    chain = Chain(n_robots=4)
    chain.append_block([obs((0, 1), 0), Reward(0, 0.1, 0)], 0.0)
    appended = [obs((0, 2), 4, [(1, 0.25), (3, 0.75)]), Reward(1, 0.1, 2)]
    chain.append_block(appended, 0.5)
    assert chain.blocks[1].transactions == appended  # tuples, not lists, for pair and matches
    assert Chain.loads(chain.dumps()).blocks[1].transactions == appended


def test_reader_rejects_a_bad_transaction_record_at_its_block():
    records = seed_records()
    for breakage in (
        lambda d: d.update(extra=1),
        lambda d: d.pop("loop_index"),
        lambda d: d.update(kind="mystery"),
        lambda d: d.update(tx_id="0"),
        lambda d: d.update(pair=[0, 1, 2]),
        lambda d: d.update(pair=[1, 0]),  # construction would normalise it
        lambda d: d.update(pair=[0, True]),
        lambda d: d.update(matches=[[0, 1]]),  # construction would make it 1.0
        lambda d: d.update(matches=[[-1, 0.5]]),
        lambda d: d.update(matches=[[0, 1.5]]),
        lambda d: d.update(matches=[[0, -0.5]]),
        lambda d: d.update(matches=[]),
        lambda d: d.update(loop_index=-1),
    ):
        broken = json.loads(json.dumps(records))
        breakage(broken[3]["transactions"][0])
        data = relinked_dump(broken)
        assert verify_dump_bytes(data) == 3
        with pytest.raises(LedgerError, match=r"^block 3: "):
            Chain.loads(data)


def test_block_hash_covers_body():
    chain = build_chain(blocks=1)
    block = chain.blocks[0]
    record = json.loads(block.line)
    assert record["prev_hash"] == GENESIS_PREV_HASH
    assert canonical_encode(record) + b"\n" == block.line
    assert record.pop("hash") == block.hash
    assert block.hash == hashlib.sha256(canonical_encode(record)).hexdigest()


def test_append_block_validates_ids_and_indices():
    chain = Chain(n_robots=3)
    with pytest.raises(LedgerError, match="^a block must end in its generator's reward$"):
        chain.append_block([], 0.0)  # empty block
    with pytest.raises(LedgerError, match="^generator index 3 out of range$"):
        chain.append_block([obs((0, 1), 0), Reward(3, 0.1, 0)], 0.0)
    with pytest.raises(LedgerError, match="^pair index 7 out of range$"):
        chain.append_block([obs((0, 7), 0), Reward(0, 0.1, 0)], 0.0)
    assert chain.blocks == []
    chain.append_block([obs((0, 1), 0), Reward(2, 0.1, 0)], 0.0)
    assert chain.next_tx_id == 2
    chain.append_block([obs((0, 1), 1), obs((1, 2), 1), Reward(0, 0.1, 1)], 0.0)  # numbered here
    assert [tx["tx_id"] for tx in json.loads(chain.blocks[1].line)["transactions"]] == [2, 3, 4]


# Arguments `append_block` refuses, as the reader refuses their lines: each
# is the block of robots 0 and 1 sealed by robot 0 with one value changed,
# with the message it raises.
VALID_OBSERVATION = Observation((0, 1), [(0, 0.5)], 0)
VALID_REWARD = Reward(0, 0.1, 0)
OBSERVATION_DICT = {
    "kind": "pair_observation", "loop_index": 0, "matches": [[0, 0.5]], "pair": [0, 1]
}
REWARD_DICT = {"generator": 0, "kind": "generator_reward", "loop_index": 0, "reward": 0.1}
UNSEALABLE = {
    "pair (1, 0)": (
        [Observation((1, 0), [(0, 0.5)], 0), VALID_REWARD], 0.5, "pair must be ascending"
    ),
    "pair (1, 1)": (
        [Observation((1, 1), [(0, 0.5)], 0), VALID_REWARD], 0.5, "pair must be ascending"
    ),
    "empty matches": (
        [Observation((0, 1), [], 0), VALID_REWARD], 0.5, "matches must be a non-empty list"
    ),
    "quality 1.5": (
        [Observation((0, 1), [(0, 1.5)], 0), VALID_REWARD], 0.5, "match entries must be"
    ),
    "integer quality 1": (
        [Observation((0, 1), [(0, 1)], 0), VALID_REWARD], 0.5, "match entries must be"
    ),
    "list match entry": (
        [Observation((0, 1), [[0, 0.5]], 0), VALID_REWARD], 0.5, "match entries must be"
    ),
    "match entry 5": (
        [Observation((0, 1), [5], 0), VALID_REWARD], 0.5, "match entries must be"
    ),
    "match entry None": (
        [Observation((0, 1), [None], 0), VALID_REWARD], 0.5, "match entries must be"
    ),
    "match entry (0,)": (
        [Observation((0, 1), [(0,)], 0), VALID_REWARD], 0.5, "match entries must be"
    ),
    "match entry (0, 0.5, 1)": (
        [Observation((0, 1), [(0, 0.5, 1)], 0), VALID_REWARD], 0.5, "match entries must be"
    ),
    "reward -1.0": (
        [VALID_OBSERVATION, Reward(0, -1.0, 0)], 0.5, "reward must be a finite float >= 0"
    ),
    "integer reward 1": (
        [VALID_OBSERVATION, Reward(0, 1, 0)], 0.5, "reward must be a finite float >= 0"
    ),
    "loop_index -1": (
        [Observation((0, 1), [(0, 0.5)], -1), VALID_REWARD], 0.5,
        "loop_index must be an integer >= 0",
    ),
    "generator True": (
        [VALID_OBSERVATION, Reward(True, 0.1, 0)], 0.5,
        "generator index must be an integer >= 0, got True",
    ),
    "integer avg_navigability": (
        [VALID_OBSERVATION, VALID_REWARD], 0, "avg_navigability must be finite"
    ),
    "avg_navigability -1.0": (
        [VALID_OBSERVATION, VALID_REWARD], -1.0, "avg_navigability must be finite"
    ),
    # Records in the shape of a decoded line are not records.
    "observation-shaped dict": (
        [OBSERVATION_DICT, VALID_REWARD], 0.5,
        f"records before the reward must be observations, got {OBSERVATION_DICT!r}",
    ),
    "reward-shaped dict": (
        [VALID_OBSERVATION, REWARD_DICT], 0.5, "a block must end in its generator's reward"
    ),
}


# Shapes no line can carry: a list entry reads back as a tuple entry would,
# and a dict where a record belongs is not a record.
NOT_IN_A_LINE = {"list match entry", "observation-shaped dict", "reward-shaped dict"}


def line_transactions(records):
    """The transactions of a decoded line holding `records`, tx ids all 0."""
    kinds = {Observation: "pair_observation", Reward: "generator_reward"}
    transactions = [dict(tx._asdict(), kind=kinds[type(tx)], tx_id=0) for tx in records]
    return json.loads(json.dumps(transactions))


@pytest.mark.parametrize("shape", list(UNSEALABLE))
def test_append_block_refuses_what_its_reader_rejects(shape):
    transactions, avg_navigability, message = UNSEALABLE[shape]
    chain = build_chain(blocks=1, n_robots=3)
    before = list(chain.blocks)
    with pytest.raises(LedgerError, match=f"^{re.escape(message)}"):
        chain.append_block(transactions, avg_navigability)
    assert chain.blocks == before
    assert chain.verify() is None
    if shape in NOT_IN_A_LINE:
        return
    # The same block written as block 3 of a seed-0 dump, generated by robot
    # 0 as VALID_REWARD is, with its tx ids renumbered, re-hashed and relinked.
    records = seed_records()
    records[3].update(
        avg_navigability=avg_navigability, generator=0, transactions=line_transactions(transactions)
    )
    data = _forge(lambda txs: None)(records)
    assert verify_dump_bytes(data) == 3
    with pytest.raises(LedgerError, match=f"^block 3: {re.escape(message)}"):
        Chain.loads(data)


def test_a_block_is_generated_by_the_robot_its_reward_pays():
    chain = Chain(n_robots=3)
    block = chain.append_block([Observation((0, 1), [(0, 0.5)], 0), Reward(2, 0.1, 0)], 0.5)
    assert block.generator == 2
    assert json.loads(block.line)["generator"] == 2
    assert chain.generator_histogram() == [0, 0, 1]


def mostly(valid, bad):
    """Draws from `valid`, and one time in ten from `bad`."""
    return st.integers(0, 9).flatmap(lambda n: valid if n < 9 else bad)


robots = st.integers(0, 2)
bad_robots = st.sampled_from([-1, 3, True])
matches = st.dictionaries(st.integers(0, 4), st.floats(0.0, 1.0), min_size=1, max_size=3).map(
    lambda matches: sorted(matches.items())
)
bad_entries = st.tuples(st.integers(-1, 4), st.sampled_from([1.5, 1, math.nan, 0.5]))
observations = st.builds(
    Observation,
    mostly(
        st.lists(robots, min_size=2, max_size=2, unique=True).map(lambda ij: tuple(sorted(ij))),
        st.tuples(st.one_of(robots, bad_robots), st.one_of(robots, bad_robots)),
    ),
    mostly(
        matches,
        st.one_of(
            st.lists(bad_entries, max_size=3),
            # Entries of the wrong shape: lists, which would read back as
            # tuples; one or three elements; no tuple at all.
            matches.map(lambda entries: [list(entry) for entry in entries]),
            st.lists(
                st.one_of(
                    bad_entries.map(lambda entry: entry[:1]),
                    bad_entries.map(lambda entry: entry + (0.5,)),
                    st.sampled_from([5, None]),
                ),
                min_size=1,
                max_size=3,
            ),
        ),
    ),
    mostly(st.integers(0, 2), st.just(-1)),
)


@st.composite
def block_arguments(draw):
    """`append_block` arguments: observations, then the generator's reward;
    each value is sometimes made bad, and the records sometimes shuffled."""
    generator = draw(mostly(robots, bad_robots))
    amount = draw(mostly(st.floats(0.0, 2.0), st.sampled_from([-1.0, 1, math.inf, math.nan])))
    records = draw(st.lists(observations, max_size=3))
    records.append(Reward(generator, amount, draw(mostly(st.integers(0, 2), st.just(-1)))))
    records = draw(mostly(st.just(records), st.permutations(records)))
    average = draw(mostly(st.floats(-1.0, 2.0), st.sampled_from([0, math.nan, math.inf])))
    return records, average


@given(st.lists(block_arguments(), max_size=4))
@example([([Observation((0, 1), [[0, 0.5]], 0), VALID_REWARD], 0.5)])  # reads back as (0, 0.5)
def test_every_chain_append_block_accepts_reads_back_as_sealed(arguments):
    chain = Chain(n_robots=3)
    sealed = []
    for transactions, avg_navigability in arguments:
        try:
            chain.append_block(transactions, avg_navigability)
        except LedgerError:
            continue
        sealed.append(transactions)
    data = chain.dumps()
    loaded = Chain.loads(data, n_robots=3)
    assert loaded.dumps() == data
    assert [block.transactions for block in loaded.blocks] == sealed


def test_verify_accepts_untampered_chain():
    assert build_chain(blocks=5).verify() is None


def test_verify_checks_robot_ids_against_the_chain_team():
    # A block sealed for a 20-robot team, paying robot 15, moved into a
    # chain of 10 robots, which could neither load its dump nor count it.
    block = Chain(n_robots=20).append_block([obs((3, 15), 0), Reward(15, 0.1, 0)], 0.0)
    small = Chain(n_robots=10)
    small.blocks.append(block)
    assert small.verify() == 0
    with pytest.raises(LedgerError, match="^block 0: generator index 15 out of range$"):
        Chain.loads(small.dumps(), n_robots=10)
    largest = Chain()  # a team of MAX_ROBOTS
    largest.blocks.append(block)
    assert largest.verify() is None


def test_verify_reports_first_tampered_block():
    config = WorldConfig()
    state = ExperimentState(config, *init_world(config))
    step_movement(state)
    emitted = emit_transactions(state, compute_visibility(state))[0]
    chain = build_chain(blocks=5)
    for record, name in (
        (emitted, "loop_index"),
        (chain.blocks[2].transactions[0], "loop_index"),
        (chain.blocks[3], "hash"),
    ):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 99)
        assert getattr(record, name) == before

    # Records and blocks are frozen, so the edits are made to the dump.
    data = chain.dumps()
    line = data.split(b"\n")[2]
    edited = re.sub(rb'"loop_index":\d+', b'"loop_index":99', line, count=1)
    assert verify_dump_bytes(replace_line(data, 2, edited)) == 2
    with pytest.raises(LedgerError, match=r"^block 2: "):
        Chain.loads(replace_line(data, 2, edited))

    line = data.split(b"\n")[3]
    edited = re.sub(rb'"prev_hash":"\w+"', b'"prev_hash":"' + b"f" * 64 + b'"', line)
    assert verify_dump_bytes(replace_line(data, 3, edited)) == 3
    with pytest.raises(LedgerError, match=r"^block 3: "):
        Chain.loads(replace_line(data, 3, edited))

    chain = build_chain(blocks=5)
    chain.blocks[1], chain.blocks[2] = chain.blocks[2], chain.blocks[1]
    assert chain.verify() == 1


def test_pair_tx_count_and_histogram():
    chain = Chain(n_robots=3)
    chain.append_block([obs((0, 1), 0), obs((1, 0), 0), Reward(0, 0.1, 0)], 0.0)
    chain.append_block([obs((1, 2), 1), Reward(2, 0.1, 1)], 0.0)
    assert pair_tx_counts(chain.blocks) == {(0, 1): 2, (1, 2): 1}
    assert chain.generator_histogram() == [1, 0, 1]


def test_dump_round_trip_is_byte_identical():
    chain = build_chain(blocks=4)
    data = chain.dumps()
    again = Chain.loads(data)
    assert again.dumps() == data
    assert again.verify() is None
    assert verify_dump_bytes(data) is None


def dense_chain():
    """106 dense blocks: 50 robots, 100 landmarks, 1 loop, seed 0."""
    chain = run_experiment(WorldConfig(n_robots=50, n_landmarks=100, loops=1, seed=0)).chain
    assert (len(chain.blocks), len(chain.dumps())) == (106, 644_207)
    return chain


def traced_peak(call):
    """`call()`'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loaded_blocks_keep_the_lines_read_and_nothing_beside_them():
    # A loaded block keeps the line the reader read and no second copy of
    # its bytes, so loading holds about one copy of the dump beside the input.
    chain = dense_chain()
    data = chain.dumps()
    loaded, peak = traced_peak(lambda: Chain.loads(data, n_robots=50))
    assert peak <= 1.6 * len(data)
    assert [b.line for b in loaded.blocks] == [b.line for b in chain.blocks]
    assert [b.transactions for b in loaded.blocks] == [b.transactions for b in chain.blocks]


@pytest.mark.parametrize("verifier, bound", [("verify_dump_bytes", 0.5), ("Chain.verify", 1.6)])
def test_verify_holds_no_second_copy_of_the_dump(verifier, bound):
    # The reader walks the lines of the bytes it is given in place, one at a
    # time: verifying a dump holds no copy of it, and `Chain.verify()` holds
    # only the dump it writes.
    chain = dense_chain()
    data = chain.dumps()
    call = (lambda: verify_dump_bytes(data)) if verifier == "verify_dump_bytes" else chain.verify
    result, peak = traced_peak(call)
    assert result is None
    assert peak <= bound * len(data)


# Byte shapes at the edges of splitting a dump into lines, each with the
# index `verify_dump_bytes` returns and the message `Chain.loads` raises.
NO_VALUE = "Expecting value: line 1 column 1 (char 0)"
LINE_SHAPES = {
    "empty line between blocks": (
        lambda lines: lines[0] + b"\n" + b"".join(lines[1:]), 1, f"block 1: {NO_VALUE}"
    ),
    "blank line after the last block": (
        lambda lines: b"".join(lines) + b"\n", 3, f"block 3: {NO_VALUE}"
    ),
    "only a newline": (lambda lines: b"\n", 0, f"block 0: {NO_VALUE}"),
    "CRLF line endings": (
        lambda lines: b"".join(lines).replace(b"\n", b"\r\n"),
        0,
        "block 0: line is not the canonical encoding of its record",
    ),
    "unterminated last line that is not JSON": (
        lambda lines: b"".join(lines) + b"not json",
        3,
        "block 3: line does not end with a newline",
    ),
}


@pytest.mark.parametrize("shape", list(LINE_SHAPES))
def test_reader_splits_lines_only_at_newlines(shape):
    build, index, message = LINE_SHAPES[shape]
    data = build(build_chain(blocks=3).dumps().splitlines(keepends=True))
    assert verify_dump_bytes(data) == index
    with pytest.raises(LedgerError) as raised:
        Chain.loads(data)
    assert str(raised.value) == message


def test_verify_dump_rejects_garbage_line():
    chain = build_chain(blocks=3)
    lines = chain.dumps().splitlines(keepends=True)
    lines[1] = b"not json\n"
    assert verify_dump_bytes(b"".join(lines)) == 1


def test_verify_dump_rejects_noncanonical_but_equal_json():
    # same parsed value, different bytes: must still be flagged
    chain = build_chain(blocks=3)
    lines = chain.dumps().splitlines(keepends=True)
    doc = json.loads(lines[2])
    lines[2] = (json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n").encode()
    assert verify_dump_bytes(b"".join(lines)) == 2


def test_verify_dump_flags_truncation():
    data = build_chain(blocks=3).dumps()
    assert verify_dump_bytes(data[:-10]) == 2


def test_a_dump_must_end_in_a_newline():
    data = seed_dump()
    last = data.count(b"\n") - 1
    assert verify_dump_bytes(data[:-1]) == last
    with pytest.raises(LedgerError, match=rf"^block {last}: line does not end with a newline$"):
        Chain.loads(data[:-1])
    assert verify_dump_bytes(b"") is None
    assert Chain.loads(b"").dumps() == b""


def test_single_bit_flips_are_detected_no_later_than_the_block():
    chain = build_chain(blocks=4, seed=3)
    data = bytearray(chain.dumps())
    offsets = []  # byte offset -> block index
    start = 0
    for idx, line in enumerate(bytes(data).splitlines(keepends=True)):
        offsets.append((start, start + len(line), idx))
        start += len(line)
    rng = random.Random(11)
    for _ in range(300):
        pos = rng.randrange(len(data))
        bit = 1 << rng.randrange(8)
        block_idx = next(i for s, e, i in offsets if s <= pos < e)
        data[pos] ^= bit
        result = verify_dump_bytes(bytes(data))
        with pytest.raises(LedgerError, match=rf"^block {result}: "):
            Chain.loads(bytes(data))  # the same reader, so the same block
        data[pos] ^= bit
        assert result is not None and result <= block_idx, (pos, bit, result, block_idx)
    assert verify_dump_bytes(bytes(data)) is None


def seed_dump(seed=0):
    return run_experiment(WorldConfig(seed=seed)).chain.dumps()


def rehash(line):
    """The line with its stored hash replaced by the hash of its own body,
    so that only the block rules and the canonical form can reject it."""
    key = b'"hash":"'
    start = line.index(key) + len(key)  # the 64 hex digits, then '",'
    body = line[:start - len(key)] + line[start + 64 + 2:]
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return line[:start] + digest + line[start + 64:]


def replace_line(data, index, line):
    lines = data.split(b"\n")
    lines[index] = line
    return b"\n".join(lines)


def test_sealed_lines_match_a_fresh_encoding():
    for seed in range(5):
        chain = run_experiment(WorldConfig(seed=seed)).chain
        for block in chain.blocks:
            assert block.line.endswith(b"\n")
            assert canonical_encode(json.loads(block.line)) + b"\n" == block.line
            assert rehash(block.line[:-1]) + b"\n" == block.line
        data = chain.dumps()
        assert data == b"".join(block.line for block in chain.blocks)
        loaded = Chain.loads(data)
        assert [b.line for b in loaded.blocks] == data.splitlines(keepends=True)
        assert loaded.dumps() == data
        assert verify_dump_bytes(data) is None


# (pattern, replacement) applied once to one line of a seed-0 dump. The
# mutated line is then re-hashed: a verifier that accepted its contents would
# report the next block, whose prev_hash no longer links, or nothing at all.
MUTATIONS = {
    "integer quality": (rb"\[(\d+),0\.\d+\]", rb"[\1,1]"),
    "integer reward": (rb'"reward":[0-9.e-]+', b'"reward":1'),
    "integer avg_navigability": (rb'"avg_navigability":[0-9.e-]+', b'"avg_navigability":0'),
    "reversed pair": (rb'"pair":\[(\d+),(\d+)\]', rb'"pair":[\2,\1]'),
    "bool loop_index": (rb'"loop_index":\d+', b'"loop_index":true'),
    "negative reward generator": (rb'"generator":\d+,"kind"', b'"generator":-1,"kind"'),
    "negative block generator": (rb'"generator":\d+,"hash"', b'"generator":-1,"hash"'),
    "negative landmark id": (rb"\[(\d+),(0\.\d+)\]", rb"[-1,\2]"),
    "trailing space": (rb"$", b" "),
    "spaced separators": (rb',"', b', "'),
    "NaN avg_navigability": (rb'"avg_navigability":[0-9.e-]+', b'"avg_navigability":NaN'),
    "infinite reward": (rb'"reward":[0-9.e-]+', b'"reward":Infinity'),
    "hash field after index": (rb'("hash":"[0-9a-f]{64}",)("index":\d+,)', rb"\2\1"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_verify_dump_rejects_mutated_record_at_its_block(name):
    pattern, replacement = MUTATIONS[name]
    data = seed_dump()
    lines = data.split(b"\n")
    index = len(lines) // 2
    mutated = re.sub(pattern, replacement, lines[index], count=1)
    assert mutated != lines[index]
    mutated_data = replace_line(data, index, rehash(mutated))
    assert verify_dump_bytes(mutated_data) == index
    with pytest.raises(LedgerError, match=rf"^block {index}: "):
        Chain.loads(mutated_data)


def relinked_dump(records):
    """The dump of these block records after re-hashing and re-linking every block."""
    prev_hash = GENESIS_PREV_HASH
    lines = []
    for record in records:
        record["prev_hash"] = prev_hash
        del record["hash"]
        record["hash"] = prev_hash = hashlib.sha256(canonical_encode(record)).hexdigest()
        lines.append(canonical_encode(record) + b"\n")
    return b"".join(lines)


def seed_records():
    return [json.loads(line) for line in seed_dump().splitlines()]


def _wrong_index(records):
    records[3]["index"] = 4
    return relinked_dump(records)


def _broken_link(records):
    data = relinked_dump(records)
    line = data.split(b"\n")[3]
    edited = re.sub(rb'"prev_hash":"\w+"', b'"prev_hash":"' + b"f" * 64 + b'"', line)
    return replace_line(data, 3, rehash(edited))


def _tx_id_gap(records):
    for tx in records[3]["transactions"]:
        tx["tx_id"] += 1
    return relinked_dump(records)


def _stale_hash(records):
    data = relinked_dump(records)
    line = data.split(b"\n")[3]
    return replace_line(data, 3, re.sub(rb'"loop_index":\d+', b'"loop_index":99', line, count=1))


# Rules that are not about one record's fields: each breaks block 3 of an
# otherwise valid seed-0 dump, and the loader's message names the rule.
CHAIN_RULES = {
    "index": (_wrong_index, "index is 4, expected 3"),
    "prev_hash": (_broken_link, "prev_hash does not link"),
    "tx_id": (_tx_id_gap, "tx_id is"),
    "hash": (_stale_hash, "hash does not match"),
}


@pytest.mark.parametrize("rule", sorted(CHAIN_RULES))
def test_reader_names_the_rule_a_block_breaks(rule):
    breaker, message = CHAIN_RULES[rule]
    data = breaker(seed_records())
    assert verify_dump_bytes(data) == 3
    with pytest.raises(LedgerError, match=rf"^block 3: {message}"):
        Chain.loads(data)


def _forge(edit):
    """A breaker that applies `edit` to block 3's transactions, renumbers
    every tx_id and re-hashes and relinks the chain: hashes, links and ids
    all hold."""

    def breaker(records):
        edit(records[3]["transactions"])
        tx_id = 0
        for record in records:
            for tx in record["transactions"]:
                tx["tx_id"] = tx_id
                tx_id += 1
        return relinked_dump(records)

    return breaker


def _pay_another(transactions):
    transactions[-1]["generator"] = (transactions[-1]["generator"] + 1) % 10


def _swap_matches(transactions):
    matches = next(tx["matches"] for tx in transactions if len(tx.get("matches", ())) > 1)
    matches[0], matches[1] = matches[1], matches[0]


def _negative_average(records):
    records[3]["avg_navigability"] = -0.5
    return relinked_dump(records)


# Forged blocks whose hashes, links and ids hold: each rewrites block 3 of a
# seed-0 dump against a block rule, and the loader's message names the rule.
FORGERIES = {
    "reward first": (
        _forge(lambda txs: txs.insert(0, txs.pop())), "a block must end in its generator's reward"
    ),
    "second reward": (
        _forge(lambda txs: txs.insert(0, dict(txs[-1]))),
        "records before the reward must be observations, "
        "got Reward(generator=0, reward=0.1, loop_index=1)",
    ),
    "reward to another robot": (
        _forge(_pay_another), "the reward pays robot 1, not the generator 0"
    ),
    "swapped match entries": (
        _forge(_swap_matches),
        "match entries must be (landmark id >= 0, float quality in [0, 1]) with ids strictly "
        "ascending, got (3, 0.5922239872129136) after landmark 4",
    ),
    "negative avg_navigability": (
        _negative_average, "avg_navigability must be finite and a float >= 0, got -0.5"
    ),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_reader_rejects_a_forged_block_by_its_rule(forgery):
    breaker, message = FORGERIES[forgery]
    data = breaker(seed_records())
    assert verify_dump_bytes(data) == 3
    with pytest.raises(LedgerError, match=f"^block 3: {re.escape(message)}$"):
        Chain.loads(data)


def test_loads_with_team_size_rejects_outsider_generator():
    # Block 0's generator and its reward credit robot 99 in a 10-robot team.
    records = seed_records()
    records[0]["generator"] = 99
    records[0]["transactions"][-1]["generator"] = 99
    data = relinked_dump(records)
    assert verify_dump_bytes(data) is None  # hashes and links hold
    assert Chain.loads(data).blocks[0].generator == 99  # below MAX_ROBOTS
    with pytest.raises(LedgerError, match=r"^block 0: generator index 99 out of range$"):
        Chain.loads(data, n_robots=10)


def test_loads_with_team_size_rejects_outsider_pair():
    records = seed_records()
    tx = records[3]["transactions"][0]
    tx["pair"] = [tx["pair"][0], 10]
    data = relinked_dump(records)
    assert verify_dump_bytes(data) is None
    with pytest.raises(LedgerError, match=r"^block 3: pair index 10 out of range$"):
        Chain.loads(data, n_robots=10)
    assert Chain.loads(data, n_robots=11).dumps() == data


# With no team given, a chain's team is MAX_ROBOTS, the largest any run has.
def test_a_chain_with_no_team_given_counts_the_largest_team():
    assert Chain().generator_histogram() == [0] * MAX_ROBOTS


def test_a_chain_with_no_team_given_refuses_a_robot_beyond_the_largest_team():
    chain = Chain()
    with pytest.raises(LedgerError, match=f"^pair index {MAX_ROBOTS} out of range$"):
        chain.append_block([obs((0, MAX_ROBOTS), 0), Reward(0, 0.1, 0)], 0.5)
    assert chain.blocks == []


def test_loads_with_no_team_given_refuses_a_robot_beyond_the_largest_team():
    records = seed_records()
    records[3]["transactions"][0]["pair"][1] = MAX_ROBOTS
    with pytest.raises(LedgerError, match=f"^block 3: pair index {MAX_ROBOTS} out of range$"):
        Chain.loads(relinked_dump(records))


def _bad_pair_id(record, value):
    tx = record["transactions"][0]
    tx["pair"] = [tx["pair"][0], value]


def _bad_generator(record, value):
    record["generator"] = record["transactions"][-1]["generator"] = value


def _bad_loop_index(record, value):
    record["transactions"][0]["loop_index"] = value


# Where an id of the wrong type goes, on a line and in `append_block`'s
# records, with the label its message names.
BAD_ID_PLACES = {
    "pair id": (
        _bad_pair_id, lambda v: [Observation((0, v), [(0, 0.5)], 0), Reward(0, 0.1, 0)],
        "pair index",
    ),
    "reward robot": (
        _bad_generator, lambda v: [Observation((0, 1), [(0, 0.5)], 0), Reward(v, 0.1, 0)],
        "generator index",
    ),
    "observation loop_index": (
        _bad_loop_index, lambda v: [Observation((0, 1), [(0, 0.5)], v), Reward(0, 0.1, 0)],
        "loop_index",
    ),
}


@pytest.mark.parametrize("value", [None, True, {}, 0.5], ids=repr)
@pytest.mark.parametrize("place", list(BAD_ID_PLACES))
def test_an_id_of_the_wrong_type_is_named_as_one(place, value):
    breaker, records, label = BAD_ID_PLACES[place]
    message = f"{label} must be an integer >= 0, got {value!r}"
    data = seed_records()
    breaker(data[0], value)
    with pytest.raises(LedgerError) as raised:
        Chain.loads(relinked_dump(data), n_robots=10)
    assert str(raised.value) == f"block 0: {message}"
    chain = Chain(n_robots=10)
    with pytest.raises(LedgerError) as raised:
        chain.append_block(records(value), 0.5)
    assert str(raised.value) == message
    assert chain.blocks == []


def _drop_generator(record):
    del record["generator"]


def _true_generator(record):
    record["generator"] = True
    record["transactions"][-1]["generator"] = 1


@pytest.mark.parametrize("edit, message", [
    (_drop_generator, "missing field 'generator'"),
    (_true_generator, "the reward pays robot 1, not the generator True"),
])
def test_a_line_must_name_its_rewards_robot_as_generator(edit, message):
    records = seed_records()
    edit(records[3])
    data = relinked_dump(records)
    assert verify_dump_bytes(data) == 3
    with pytest.raises(LedgerError, match=f"^block 3: {re.escape(message)}$"):
        Chain.loads(data)


def test_verify_dump_reports_non_finite_numbers_instead_of_raising():
    data = seed_dump()
    lines = data.split(b"\n")
    assert lines[0].startswith(b'{"avg_navigability":0.0,')
    nan = lines[0].replace(b'"avg_navigability":0.0', b'"avg_navigability":NaN', 1)
    assert verify_dump_bytes(replace_line(data, 0, nan)) == 0
    for index in (0, len(lines) - 2):
        infinite = re.sub(rb'"reward":[0-9.e-]+', b'"reward":Infinity', lines[index])
        assert verify_dump_bytes(replace_line(data, index, infinite)) == index


def test_verify_dump_reports_lines_the_decoder_cannot_read():
    data = build_chain(blocks=3).dumps()
    assert verify_dump_bytes(replace_line(data, 1, b"[" * 100_000)) == 1
    assert verify_dump_bytes(replace_line(data, 2, b"1" * 5_000)) == 2


@pytest.mark.parametrize("n_robots", [None, 0, MAX_ROBOTS + 1, True], ids=repr)
def test_a_team_size_is_an_int_from_1_to_max_robots(n_robots):
    # Checked before any block is sealed or any line read: the line below
    # would otherwise be invalid at block 0, and Chain(None) would seal a
    # reward to any robot.
    message = rf"^n_robots must be an integer in \[1, {MAX_ROBOTS}\], got {n_robots!r}$"
    for call in (
        lambda: Chain(n_robots),
        lambda: Chain.loads(b"not json\n", n_robots),
        lambda: verify_dump_bytes(b"not json\n", n_robots),
    ):
        with pytest.raises(ValueError, match=message) as raised:
            call()
        assert not isinstance(raised.value, LedgerError)


def _no_records(transactions):
    raise AssertionError("a record was built")


def test_a_valid_line_is_read_without_building_records(monkeypatch):
    # The reader checks each decoded line as it is; only
    # `Block.transactions` builds records.
    data = seed_dump()
    appended = [obs((0, 2), 4, [(1, 0.25), (3, 0.75)]), Reward(1, 0.1, 4)]
    chain = Chain(n_robots=4)
    chain.append_block(appended, 0.5)
    with monkeypatch.context() as patched:
        patched.setattr(ledger, "_records", _no_records)
        assert verify_dump_bytes(data) is None
        assert Chain.loads(data).dumps() == data
        loaded = Chain.loads(chain.dumps(), n_robots=4)
    assert loaded.blocks[0].transactions == appended


@pytest.mark.parametrize("stored", [5, None, ["x"]], ids=repr)
def test_a_stored_hash_that_is_not_a_string_does_not_match(stored):
    data = seed_dump()
    record = json.loads(data.split(b"\n")[3])
    record["hash"] = stored
    data = replace_line(data, 3, canonical_encode(record))
    assert verify_dump_bytes(data) == 3
    with pytest.raises(LedgerError, match="^block 3: hash does not match the block body$"):
        Chain.loads(data)


def _transactions_of_ints(records):
    records[3]["transactions"] = [1, 2]
    return relinked_dump(records)


# Lines whose JSON is not a block's shape at all.
NOT_BLOCKS = {
    "transactions [1, 2]": _transactions_of_ints,
    "a JSON array": lambda records: replace_line(relinked_dump(records), 3, b"[1, 2]"),
    "a JSON number": lambda records: replace_line(relinked_dump(records), 3, b"5"),
}


@pytest.mark.parametrize("shape", list(NOT_BLOCKS))
def test_a_line_that_is_not_a_block_is_invalid_at_its_block(shape):
    data = NOT_BLOCKS[shape](seed_records())
    assert verify_dump_bytes(data) == 3
    with pytest.raises(LedgerError, match=r"^block 3: "):
        Chain.loads(data)


def _float_tx_id(block):
    tx = block["transactions"][0]
    tx["tx_id"] = float(tx["tx_id"])


# Values that compare equal to the right ones but encode otherwise, and an
# extra field: each edits block 3, which is then re-hashed and relinked, so
# only the reader's own checks can reject it.
EQUAL_BUT_NOT_THE_SAME = {
    "index 3.0": (lambda block: block.update(index=3.0), "index is 3.0, expected 3"),
    "generator as a float": (
        lambda block: block.update(generator=float(block["generator"])), "the reward pays robot "
    ),
    "tx_id as a float": (_float_tx_id, "tx_id is "),
    "extra field": (
        lambda block: block.update(extra=1), "line is not the canonical encoding of its record"
    ),
}


@pytest.mark.parametrize("edit", list(EQUAL_BUT_NOT_THE_SAME))
def test_a_value_equal_to_the_right_one_but_encoded_otherwise_is_rejected(edit):
    change, message = EQUAL_BUT_NOT_THE_SAME[edit]
    records = seed_records()
    change(records[3])
    data = relinked_dump(records)
    assert verify_dump_bytes(data) == 3
    with pytest.raises(LedgerError, match=f"^block 3: {re.escape(message)}"):
        Chain.loads(data)
