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

A sealed block is its dump line, newline included. `Chain.append_block`
numbers the records it is given, encodes the body once through the
module-level `canonical_encode`, hashes it and splices the line; the block
keeps that line with a few header numbers, `Chain.dumps()` joins the lines
as they are, and `Block.transactions` builds records from the line only
when it is read. Records are named tuples, one class per kind
(`Observation`, `Reward`), that check nothing: the simulator builds them
from values that are already checked or drawn in range. A record is what
the run built; its id exists only in the line, so the records read back
from a block equal the ones appended.

There is one reader of dump bytes, `_read_dump`, and it walks a stream of
lines, holding one at a time. Per line it requires the final newline,
decodes the line, checks it against the record schema, the index, the
prev_hash link and the tx_id sequence, takes the stored hash out of the
record, encodes the body once and requires `_splice` of that body and the
stored hash to equal the line read (so the file carries exactly the
canonical form), then hashes that same body and compares the stored hash;
given a team size, it also checks robot ids. The first line that fails
raises `LedgerFormatError("block K: <rule>")`. `verify_dump_bytes` returns
that K, and `Chain.loads` raises it, so a loaded chain is valid by
construction. Both read their bytes through an `io.BytesIO`, which shares
the buffer, so neither holds a second copy of the dump. `Chain.verify()`
runs `verify_dump_bytes` on the chain's own dump. Any single-bit change to
the stored bytes is therefore detected.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from typing import Any, NamedTuple

GENESIS_PREV_HASH = "0" * 64

KIND_OBSERVATION = "pair_observation"
KIND_REWARD = "generator_reward"

_HEX_DIGITS = set("0123456789abcdef")

_BLOCK_FIELDS = frozenset(
    ("avg_navigability", "generator", "hash", "index", "prev_hash", "transactions")
)
_OBSERVATION_FIELDS = frozenset(("kind", "loop_index", "matches", "pair", "tx_id"))
_REWARD_FIELDS = frozenset(("generator", "kind", "loop_index", "reward", "tx_id"))

_INDEX_KEY = b'"index":'


class LedgerError(ValueError):
    """A ledger construction rule was violated."""


class LedgerFormatError(LedgerError):
    """A dumped record could not be decoded."""


# No cycle check: everything encoded here is a tree of records built by
# `Chain.append_block` or by `json.loads`. A cyclic argument still raises, as
# RecursionError instead of ValueError.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=True, check_circular=False
)


def canonical_encode(obj: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, shortest floats."""
    return _CANONICAL.encode(obj).encode("ascii")


# -- record schema ------------------------------------------------------------
#
# The only copy of the parse-time rules, run by `_read_dump`. A record that
# passes re-encodes without error, and matches what sealing would write for
# the same values: numbers that construction would convert (an int quality)
# or pairs it would normalise (a reversed pair) are rejected rather than
# converted.


def _check_fields(record: dict, fields: frozenset, what: str) -> None:
    if record.keys() != fields:
        unknown = set(record) - fields
        if unknown:
            raise LedgerFormatError(f"unknown {what} fields {sorted(unknown)}")
        raise LedgerFormatError(f"missing {what} fields {sorted(fields - set(record))}")


def _require_index(record: dict, key: str, what: str) -> None:
    value = record[key]
    if type(value) is not int or value < 0:
        raise LedgerFormatError(
            f"{what}: field '{key}' must be a non-negative integer, got {value!r}"
        )


def _require_finite(record: dict, key: str, what: str) -> float:
    value = record[key]
    if type(value) is not float or not math.isfinite(value):
        raise LedgerFormatError(f"{what}: field '{key}' must be a finite float, got {value!r}")
    return value


def _check_transaction_record(record: Any) -> None:
    """Raise LedgerFormatError unless `record` is a valid transaction dict."""
    if not isinstance(record, dict):
        raise LedgerFormatError(f"transaction record must be an object, got {record!r}")
    kind = record.get("kind")
    if kind == KIND_OBSERVATION:
        _check_fields(record, _OBSERVATION_FIELDS, "transaction")
        pair = record["pair"]
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is int
            and 0 <= pair[0] < pair[1]
        ):
            raise LedgerFormatError(f"pair must be two ascending robot ids >= 0, got {pair!r}")
        matches = record["matches"]
        if not isinstance(matches, list) or not matches:
            raise LedgerFormatError(f"matches must be a non-empty list, got {matches!r}")
        for entry in matches:
            if isinstance(entry, list) and len(entry) == 2:
                k, q = entry
                if type(k) is int and k >= 0 and type(q) is float and 0.0 <= q <= 1.0:
                    continue
            raise LedgerFormatError(
                f"match entry must be [landmark id >= 0, float quality in [0, 1]], "
                f"got {entry!r}"
            )
    elif kind == KIND_REWARD:
        _check_fields(record, _REWARD_FIELDS, "transaction")
        _require_index(record, "generator", "transaction")
        if _require_finite(record, "reward", "transaction") < 0.0:
            raise LedgerFormatError(f"reward must be >= 0, got {record['reward']!r}")
    else:
        raise LedgerFormatError(f"unknown transaction kind {kind!r}")
    _require_index(record, "tx_id", "transaction")
    _require_index(record, "loop_index", "transaction")


def _check_block_fields(record: Any) -> None:
    """Raise LedgerFormatError unless `record` is a valid block dict; its
    transactions are left to `_check_transaction_record`."""
    if not isinstance(record, dict):
        raise LedgerFormatError(f"block record must be an object, got {record!r}")
    _check_fields(record, _BLOCK_FIELDS, "block")
    for key in ("prev_hash", "hash"):
        value = record[key]
        if not isinstance(value, str) or len(value) != 64 or not set(value) <= _HEX_DIGITS:
            raise LedgerFormatError(f"field '{key}' must be 64 lowercase hex digits")
    _require_index(record, "index", "block")
    _require_index(record, "generator", "block")
    _require_finite(record, "avg_navigability", "block")
    transactions = record["transactions"]
    if not isinstance(transactions, list) or not transactions:
        raise LedgerFormatError("block must carry a non-empty transaction list")


def _check_team(block: dict, n_robots: int | None) -> None:
    """Raise LedgerError unless the block record's generator, pairs and reward
    generators are robot ids, below `n_robots` when it is known."""

    def check(index: int, label: str) -> None:
        if index < 0 or (n_robots is not None and index >= n_robots):
            raise LedgerError(f"{label} index {index} out of range")

    check(block["generator"], "generator")
    for tx in block["transactions"]:
        if tx["kind"] == KIND_OBSERVATION:
            i, j = tx["pair"]
            check(i, "pair")
            check(j, "pair")
        else:
            check(tx["generator"], "reward generator")


class Observation(NamedTuple):
    """Robots `pair` (i < j) both recognized each landmark of `matches`, as
    (landmark id, quality) tuples ascending by id, in loop `loop_index`."""

    pair: tuple[int, int]
    matches: list[tuple[int, float]]
    loop_index: int

    def _record(self, tx_id: int) -> dict:
        """The body record; pair and matches encode as JSON arrays as they are."""
        return {
            "kind": KIND_OBSERVATION,
            "loop_index": self.loop_index,
            "matches": self.matches,
            "pair": self.pair,
            "tx_id": tx_id,
        }


class Reward(NamedTuple):
    """`reward` stake credited to the block generator `generator`, sealed in
    loop `loop_index`."""

    generator: int
    reward: float
    loop_index: int

    def _record(self, tx_id: int) -> dict:
        return {
            "generator": self.generator,
            "kind": KIND_REWARD,
            "loop_index": self.loop_index,
            "reward": self.reward,
            "tx_id": tx_id,
        }


class Block(NamedTuple):
    """One sealed block: its header numbers and its canonical dump line.

    `line` is the block's exact bytes in the dump, hash field and newline
    included, made once by `_splice` in `Chain.append_block` or read from a
    verified dump by `Chain.loads`; `hash` is the SHA-256 of the body, the
    line without that field and newline. The transactions live only in
    `line`: their ids run from `first_tx_id` for `transaction_count`
    records, and `transactions` builds them on every read, unchecked, equal
    to the records that were appended: every line was written by
    `append_block` or passed the dump reader.
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
        return [
            Observation(tuple(tx["pair"]), [(k, q) for k, q in tx["matches"]], tx["loop_index"])
            if tx["kind"] == KIND_OBSERVATION
            else Reward(tx["generator"], tx["reward"], tx["loop_index"])
            for tx in json.loads(self.line)["transactions"]
        ]


def _splice(body: bytes, hash: str) -> bytes:
    """The dump line of a block: its canonical body with `"hash":"<hash>",`
    in before "index", where sorted keys put it, and a newline after."""
    at = body.index(_INDEX_KEY)
    return b"".join((body[:at], b'"hash":"', hash.encode("ascii"), b'",', body[at:], b"\n"))


def _sealed_block(record: dict, line: bytes, hash: str) -> Block:
    """The Block for a block record without its hash field, its line and hash."""
    transactions = record["transactions"]
    return Block(
        record["index"], record["generator"], record["avg_navigability"], hash, line,
        transactions[0]["tx_id"], len(transactions),
    )


class Chain:
    """In-memory block chain with single-writer appends.

    When `n_robots` is given, the generator and pair indices of appended and
    loaded blocks are checked against it.
    """

    def __init__(self, n_robots: int | None = None):
        self.n_robots = n_robots
        self.blocks: list[Block] = []

    @property
    def next_tx_id(self) -> int:
        if not self.blocks:
            return 0
        last = self.blocks[-1]
        return last.first_tx_id + last.transaction_count

    def append_block(
        self, transactions: list[Observation | Reward], generator: int, avg_navigability: float
    ) -> Block:
        """Seal `transactions` into a new block and link it to the chain tip.

        The records are numbered from `next_tx_id` in list order, and the
        body is encoded and hashed here, once; the block keeps the dump line,
        made by `_splice`, and no record.
        """
        if not transactions:
            raise LedgerError("cannot seal a block with no transactions")
        if not math.isfinite(avg_navigability):
            raise LedgerError(f"avg_navigability must be finite, got {avg_navigability}")
        first = self.next_tx_id
        record = {
            "avg_navigability": float(avg_navigability),
            "generator": generator,
            "index": len(self.blocks),
            "prev_hash": self.blocks[-1].hash if self.blocks else GENESIS_PREV_HASH,
            "transactions": [tx._record(tx_id) for tx_id, tx in enumerate(transactions, first)],
        }
        _check_team(record, self.n_robots)
        body = canonical_encode(record)
        hash = hashlib.sha256(body).hexdigest()
        block = _sealed_block(record, _splice(body, hash), hash)
        self.blocks.append(block)
        return block

    def verify(self) -> int | None:
        """`verify_dump_bytes` of this chain's dump: None when intact,
        otherwise the index of the first invalid block."""
        return verify_dump_bytes(self.dumps())

    def generator_histogram(self) -> list[int]:
        """Blocks sealed per robot; entries sum to the chain length."""
        if self.n_robots is None:
            raise ValueError("generator_histogram needs the team size")
        counts = [0] * self.n_robots
        for block in self.blocks:
            counts[block.generator] += 1
        return counts

    def dumps(self) -> bytes:
        """The dump: the blocks' lines, each already ending in its newline,
        joined as they are."""
        return b"".join(block.line for block in self.blocks)

    @classmethod
    def loads(cls, data: bytes, n_robots: int | None = None) -> "Chain":
        """Read a dump through the one verifying reader; with `n_robots`, also
        check robot ids as `append_block` does.

        Raises `LedgerFormatError("block K: <rule>")` at the first line that
        fails, so a loaded chain is valid. Each block keeps its line exactly
        as read, so `dumps()` gives back the bytes that were read.
        """
        chain = cls(n_robots=n_robots)
        for sealed in _read_dump(io.BytesIO(data), n_robots):
            chain.blocks.append(_sealed_block(*sealed))
        return chain


def _read_dump(lines, n_robots: int | None = None):
    """Yield (record, line, hash) for each line of `lines` in order, once it
    has passed every rule: the block record without its hash field, the line
    as read, newline included, and the stored hash. Raise
    `LedgerFormatError("block K: <rule>")` at the first line K that does not.
    `lines` is any iterable of byte lines, such as a binary file or an
    `io.BytesIO`, and only the line being read is held. Every line, the last
    included, must end in a newline, and that rule is checked first. The body
    is encoded once: `_splice` of it and the stored hash must give back the
    line, and its SHA-256 must be the stored hash. The team check runs only
    when `n_robots` is given: the schema already rejects negative ids."""
    prev_hash = GENESIS_PREV_HASH
    next_tx_id = 0
    for index, line in enumerate(lines):
        try:
            if line[-1:] != b"\n":
                raise LedgerFormatError("line does not end with a newline")
            record = json.loads(line[:-1].decode("ascii"))
            _check_block_fields(record)
            transactions = record["transactions"]
            for tx in transactions:
                _check_transaction_record(tx)
            if n_robots is not None:
                _check_team(record, n_robots)
            if record["index"] != index:
                raise LedgerFormatError(f"index is {record['index']}, expected {index}")
            if record["prev_hash"] != prev_hash:
                raise LedgerFormatError("prev_hash does not link to the previous block")
            for tx in transactions:
                if tx["tx_id"] != next_tx_id:
                    raise LedgerFormatError(f"tx_id is {tx['tx_id']}, expected {next_tx_id}")
                next_tx_id += 1
            # The schema makes the stored hash 64 lowercase hex digits, so
            # this is the canonical encoding of the whole record.
            hash = record.pop("hash")
            body = canonical_encode(record)
            if _splice(body, hash) != line:
                raise LedgerFormatError("line is not the canonical encoding of its record")
            if hashlib.sha256(body).hexdigest() != hash:
                raise LedgerFormatError("hash does not match the block body")
        # ValueError covers bad ASCII, bad JSON, an integer too long to
        # convert and LedgerError; RecursionError comes from arrays nested
        # too deeply.
        except (ValueError, RecursionError) as exc:
            raise LedgerFormatError(f"block {index}: {exc}") from exc
        prev_hash = hash
        yield record, line, hash


def verify_dump_bytes(data: bytes) -> int | None:
    """Verify a dumped chain directly from its bytes.

    Runs the dump reader over the lines of `data`, read in place through an
    `io.BytesIO`. It checks each line's final newline, schema, index,
    prev_hash link, tx_ids, canonical form and hash, and builds no Block or
    record. Stops at the first bad line, so any byte-level change is
    reported no later than the block it lands in. Returns None when valid,
    otherwise the index of the first invalid block.
    """
    verified = 0
    try:
        for _ in _read_dump(io.BytesIO(data)):
            verified += 1
    except LedgerFormatError:
        return verified
    return None
