"""Append-only hash-chained ledger of observation and reward transactions.

Canonical encoding, used both for hashing and for the dump format: each
record is JSON with lexicographically sorted keys, no insignificant
whitespace, ASCII output, integers in decimal, and floats in Python's
shortest round-trip decimal form. A block's hash is the lowercase hex SHA-256
of the canonical encoding of the block without its "hash" field (its body).
The genesis block's prev_hash is 64 zero hex digits.

Dump format: one block per line, each line the canonical encoding of the
block including its "hash" field, then a newline. Keys are sorted, so that
field always sits just before "index": `_splice`, the one function that
makes a line, puts `"hash":"<hex>",` there in the body and a newline after.

The block rules are value checks that the writer and the reader share
(`_check_average`, `_check_reward`, `_check_observation`). They convert no
value: an integer where a float belongs, a reversed pair or a `bool` id is
rejected, and so is a robot id not below the team size, an `int` in
[1, `MAX_ROBOTS`] that defaults to `MAX_ROBOTS`, the largest team any run
has. `_numbering` gives a block its index, prev_hash and first tx_id from
the block before it. Records are plain named tuples that hold no id and no
encoding. The one writer, `Chain.append_block`, walks them once: it checks
each, pairs and match entries as tuples, so a list is refused, and lays out
its body record; it then encodes the body once, through the module-level
`canonical_encode`. A block keeps its line and a few header numbers;
`Block.transactions` rebuilds from the line records equal to the ones that
were sealed.

The one reader of dump bytes, `_read_dump`, holds one line at a time. It
checks the decoded objects themselves, pairs and entries as lists, then
pops "hash" and requires the splice of the re-encoded rest and its SHA-256
to equal the line. Every value it encodes has passed a check of its exact
type, so a line is accepted exactly when re-sealing its records would accept
it, yet a valid line builds no record. The first line that fails raises
`LedgerError("block K: <rule>")`: `verify_dump_bytes` returns that K, and
`Chain.loads` raises it. Both read through an `io.BytesIO`, which shares the
buffer, so neither holds a second copy of the dump. Any single-bit change to
the stored bytes is detected.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from typing import Any, NamedTuple

from .domain import MAX_ROBOTS

GENESIS_PREV_HASH = "0" * 64

KIND_OBSERVATION = "pair_observation"
KIND_REWARD = "generator_reward"

_INDEX_KEY = b'"index":'
_BLOCK_FIELDS = frozenset("avg_navigability generator hash index prev_hash transactions".split())
_OBSERVATION_FIELDS = frozenset("kind loop_index matches pair tx_id".split())
_REWARD_FIELDS = frozenset("generator kind loop_index reward tx_id".split())
_NOT_CANONICAL = "line is not the canonical encoding of its record"
_STALE_HASH = "hash does not match the block body"


class LedgerError(ValueError):
    """A block rule was broken, by records given to seal or by a dump line."""


# No cycle check: everything the ledger encodes has passed the block rules,
# which nest no deeper than a list of (id, quality) pairs. A cyclic argument
# still raises, as RecursionError instead of ValueError.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=True, check_circular=False
)


def canonical_encode(obj: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, shortest floats."""
    return _CANONICAL.encode(obj).encode("ascii")


class Observation(NamedTuple):
    """Robots `pair` (i < j) both recognized each landmark of `matches`, as
    (landmark id, quality) tuples strictly ascending by id, in loop
    `loop_index`."""

    pair: tuple[int, int]
    matches: list[tuple[int, float]]
    loop_index: int


class Reward(NamedTuple):
    """`reward` stake credited to the block generator `generator`, sealed in
    loop `loop_index`."""

    generator: int
    reward: float
    loop_index: int


def _records(transactions: list) -> list[Observation | Reward]:
    """Records from decoded transactions; any kind but an observation's is a reward."""
    return [
        Observation(tuple(tx["pair"]), [(k, q) for k, q in tx["matches"]], tx["loop_index"])
        if tx["kind"] == KIND_OBSERVATION
        else Reward(tx["generator"], tx["reward"], tx["loop_index"])
        for tx in transactions
    ]


class Block(NamedTuple):
    """One sealed block: its header numbers and its canonical dump line.

    `line` is the block's exact bytes in the dump, hash field and newline
    included, made once by `_splice` in `Chain.append_block`; `hash` is the
    SHA-256 of the body, the line without that field and newline. The
    transactions live only in `line`: their ids run from `first_tx_id` for
    `transaction_count` records, and `transactions` builds them on every
    read, unchecked, equal to the records that were sealed.
    """

    index: int
    generator: int
    avg_navigability: float
    hash: str
    line: bytes
    first_tx_id: int
    transaction_count: int

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self) if k != "line")
        return f"Block({shown})"

    @property
    def transactions(self) -> list[Observation | Reward]:
        return _records(json.loads(self.line)["transactions"])


def _check_team(n_robots: Any) -> None:
    """Raise ValueError unless `n_robots` is an int, not a bool, in [1, MAX_ROBOTS]."""
    if type(n_robots) is not int or not 1 <= n_robots <= MAX_ROBOTS:
        raise ValueError(f"n_robots must be an integer in [1, {MAX_ROBOTS}], got {n_robots!r}")


def _check_id(value: Any, label: str, limit: int | None = None) -> None:
    if type(value) is not int or value < 0:
        raise LedgerError(f"{label} must be an integer >= 0, got {value!r}")
    if limit is not None and value >= limit:
        raise LedgerError(f"{label} {value} out of range")


def _check_average(avg_navigability: Any) -> None:
    """A navigability average sums non-negative terms, so it is a float in [0, inf)."""
    if type(avg_navigability) is not float or not 0.0 <= avg_navigability < math.inf:
        raise LedgerError(
            f"avg_navigability must be finite and a float >= 0, got {avg_navigability!r}"
        )


def _check_reward(generator: Any, amount: Any, loop_index: Any, n_robots: int) -> None:
    _check_id(generator, "generator index", n_robots)
    if type(amount) is not float or not 0.0 <= amount < math.inf:
        raise LedgerError(f"reward must be a finite float >= 0, got {amount!r}")
    _check_id(loop_index, "loop_index")


def _shown(value: Any, seq: type) -> Any:
    """`value` as a message shows it: a `seq` as the tuple a record holds."""
    return tuple(value) if type(value) is seq else value


def _check_observation(pair: Any, matches: Any, loop_index: Any, n_robots: int, seq: type) -> None:
    """A pair is a `seq` of robot ids i < j below `n_robots`; `matches` a
    non-empty list of `seq`s (landmark id, float quality in [0, 1]), ids
    strictly ascending. Shapes and types are checked before values are
    unpacked or compared, so a bad value raises LedgerError, never TypeError."""
    if type(pair) is not seq or len(pair) != 2:
        raise LedgerError(f"pair must be a tuple of two robot ids, got {_shown(pair, seq)!r}")
    i, j = pair
    _check_id(i, "pair index", n_robots)
    _check_id(j, "pair index", n_robots)
    if i >= j:
        raise LedgerError(f"pair must be ascending, got {_shown(pair, seq)!r}")
    if type(matches) is not list or not matches:
        raise LedgerError(f"matches must be a non-empty list, got {matches!r}")
    previous = -1
    for entry in matches:
        if type(entry) is seq and len(entry) == 2:
            k, q = entry
            if type(k) is int and k > previous and type(q) is float and 0.0 <= q <= 1.0:
                previous = k
                continue
        after = f" after landmark {previous}" if previous >= 0 else ""
        raise LedgerError(
            f"match entries must be (landmark id >= 0, float quality in [0, 1]) with "
            f"ids strictly ascending, got {_shown(entry, seq)!r}{after}"
        )
    _check_id(loop_index, "loop_index")


def _numbering(previous: Block | None) -> tuple[int, str, int]:
    """Index, prev_hash and first tx_id of the block after `previous` (or None)."""
    if previous is None:
        return 0, GENESIS_PREV_HASH, 0
    return previous.index + 1, previous.hash, previous.first_tx_id + previous.transaction_count


def _splice(body: bytes, hash: str) -> bytes:
    """The dump line of a block: its canonical body with `"hash":"<hash>",`
    in before "index", where sorted keys put it, and a newline after."""
    at = body.index(_INDEX_KEY)
    return b"".join((body[:at], b'"hash":"', hash.encode("ascii"), b'",', body[at:], b"\n"))


class Chain:
    """In-memory block chain with single-writer appends for a team of
    `n_robots`, against which the generator and pair indices of appended and
    loaded blocks are checked."""

    def __init__(self, n_robots: int = MAX_ROBOTS):
        _check_team(n_robots)
        self.n_robots = n_robots
        self.blocks: list[Block] = []

    @property
    def next_tx_id(self) -> int:
        return _numbering(self.blocks[-1] if self.blocks else None)[2]

    def append_block(
        self, transactions: list[Observation | Reward], avg_navigability: float
    ) -> Block:
        """Seal `transactions`, observations and then the reward that pays the
        block's generator, into a new block on the last one, and append it;
        raise LedgerError, appending nothing, if they break a block rule.

        One walk checks each record, pairs and match entries as tuples, and
        lays out its body record with its tx_id; the body is then encoded and
        hashed once, and its line spliced."""
        _check_average(avg_navigability)
        if not transactions or type(transactions[-1]) is not Reward:
            raise LedgerError("a block must end in its generator's reward")
        generator, reward, reward_loop = transactions[-1]
        n_robots = self.n_robots
        _check_reward(generator, reward, reward_loop, n_robots)
        index, prev_hash, first_tx_id = _numbering(self.blocks[-1] if self.blocks else None)
        records = []
        for tx_id, tx in enumerate(transactions[:-1], first_tx_id):
            if type(tx) is not Observation:
                raise LedgerError(f"records before the reward must be observations, got {tx!r}")
            pair, matches, loop_index = tx
            _check_observation(pair, matches, loop_index, n_robots, tuple)
            records.append({
                "kind": KIND_OBSERVATION, "loop_index": loop_index, "matches": matches,
                "pair": pair, "tx_id": tx_id,
            })
        records.append({
            "generator": generator, "kind": KIND_REWARD, "loop_index": reward_loop,
            "reward": reward, "tx_id": first_tx_id + len(records),
        })
        body = canonical_encode({
            "avg_navigability": avg_navigability, "generator": generator, "index": index,
            "prev_hash": prev_hash, "transactions": records,
        })
        hash = hashlib.sha256(body).hexdigest()
        line = _splice(body, hash)
        block = Block(index, generator, avg_navigability, hash, line, first_tx_id, len(records))
        self.blocks.append(block)
        return block

    def verify(self) -> int | None:
        """`verify_dump_bytes` of this chain's dump against its `n_robots`:
        None when intact, otherwise the index of the first invalid block."""
        return verify_dump_bytes(self.dumps(), self.n_robots)

    def generator_histogram(self) -> list[int]:
        """Blocks sealed per robot; entries sum to the chain length."""
        counts = [0] * self.n_robots
        for block in self.blocks:
            counts[block.generator] += 1
        return counts

    def dumps(self) -> bytes:
        """The dump: the blocks' lines, each already ending in its newline,
        joined as they are."""
        return b"".join(block.line for block in self.blocks)

    @classmethod
    def loads(cls, data: bytes, n_robots: int = MAX_ROBOTS) -> "Chain":
        """Read a dump through the one verifying reader, robot ids below
        `n_robots`; raise `LedgerError("block K: <rule>")` at the first line
        that fails, so a loaded chain is valid and dumps back to the bytes read."""
        chain = cls(n_robots=n_robots)
        chain.blocks.extend(_read_dump(io.BytesIO(data), n_robots))
        return chain


def _check_fields(record: Any, fields: frozenset) -> None:
    """Raise LedgerError unless `record` is a JSON object with exactly the keys `fields`."""
    if type(record) is not dict:
        raise LedgerError(f"malformed record: expected an object, got {type(record).__name__}")
    if record.keys() != fields:
        missing = sorted(fields - record.keys())
        raise LedgerError(f"missing field {missing[0]!r}" if missing else _NOT_CANONICAL)


def _read_dump(lines, n_robots: int):
    """Yield the Block of each of `lines`, byte lines such as an `io.BytesIO`,
    on the block before it, robot ids below `n_robots`; raise
    `LedgerError("block K: <rule>")` at the first line K that fails."""
    block = None
    for line in lines:
        index, prev_hash, first_tx_id = _numbering(block)
        try:
            if line[-1:] != b"\n":
                raise LedgerError("line does not end with a newline")
            record = json.loads(line[:-1].decode("ascii"))
            _check_fields(record, _BLOCK_FIELDS)
            avg_navigability, txs = record["avg_navigability"], record["transactions"]
            _check_average(avg_navigability)
            reward = txs[-1] if type(txs) is list and txs else None
            if type(reward) is not dict or reward.get("kind") != KIND_REWARD:
                raise LedgerError("a block must end in its generator's reward")
            _check_fields(reward, _REWARD_FIELDS)
            generator = reward["generator"]
            _check_reward(generator, reward["reward"], reward["loop_index"], n_robots)
            for tx in txs[:-1]:
                if type(tx) is not dict or tx.get("kind") != KIND_OBSERVATION:
                    if type(tx) is dict and tx.keys() == _REWARD_FIELDS:
                        tx = _records([tx])[0]
                    raise LedgerError(f"records before the reward must be observations, got {tx!r}")
                _check_fields(tx, _OBSERVATION_FIELDS)
                _check_observation(tx["pair"], tx["matches"], tx["loop_index"], n_robots, list)
            if type(record["generator"]) is not int or record["generator"] != generator:
                raise LedgerError(
                    f"the reward pays robot {generator}, not the generator {record['generator']!r}"
                )
            if type(record["index"]) is not int or record["index"] != index:
                raise LedgerError(f"index is {record['index']!r}, expected {index}")
            if record["prev_hash"] != prev_hash:
                raise LedgerError("prev_hash does not link to the previous block")
            for tx_id, tx in enumerate(txs, first_tx_id):
                if type(tx["tx_id"]) is not int or tx["tx_id"] != tx_id:
                    raise LedgerError(f"tx_id is {tx['tx_id']!r}, expected {tx_id}")
            stored = record.pop("hash")
            body = canonical_encode(record)
            hash = hashlib.sha256(body).hexdigest()
            if _splice(body, hash) != line:
                raise LedgerError(_NOT_CANONICAL if stored == hash else _STALE_HASH)
        # ValueError covers bad ASCII or JSON, an integer too long to convert
        # and LedgerError; RecursionError comes from arrays nested too deeply.
        except (ValueError, RecursionError) as exc:
            raise LedgerError(f"block {index}: {exc}") from exc
        block = Block(index, generator, avg_navigability, hash, line, first_tx_id, len(txs))
        yield block


def verify_dump_bytes(data: bytes, n_robots: int = MAX_ROBOTS) -> int | None:
    """Run the dump reader over the lines of `data`, read in place through
    an `io.BytesIO`, with robot ids checked against `n_robots`, and build no
    chain. Returns None when valid, otherwise the index of the first invalid
    block: any byte-level change is reported no later than the block it
    lands in. Raises ValueError, reading nothing, on a bad `n_robots`."""
    _check_team(n_robots)
    verified = 0
    try:
        for _ in _read_dump(io.BytesIO(data), n_robots):
            verified += 1
    except LedgerError:
        return verified
    return None
