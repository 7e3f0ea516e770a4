"""Append-only hash-chained ledger of observation and reward transactions.

Canonical encoding, used both for hashing and for the dump format: each
record is JSON with lexicographically sorted keys, no insignificant
whitespace, ASCII output, integers in decimal, and floats in Python's
shortest round-trip decimal form. A block's hash is the lowercase hex SHA-256
of the canonical encoding of the block without its "hash" field (its body).
The genesis block's prev_hash is 64 zero hex digits.

Dump format: one block per line, each line the canonical encoding of the
block including its "hash" field. Keys are sorted, so that field always sits
just before "index", and a line is its body with `"hash":"<hex>",` spliced
in there. A block is encoded once, when it is sealed: the block keeps its
body bytes, and dumping splices the hash into them.

An observation keeps its matches as (landmark id, quality) tuples. When they
arrive as exact (int, float) tuples, as the simulator draws them, they are
checked in one pass and kept; anything else is converted. The body record
holds the stored tuples, which encode as JSON arrays, so sealing copies no
match. `to_dict()` returns lists, the form `json.loads` gives back. Sealing
and verification encode through the one module-level `canonical_encode`.

Dump verification parses every line, checks it against the record schema,
re-encodes it once and requires that to equal the stored bytes (so the file
carries exactly the canonical form), then hashes the line with the hash
field cut out and re-checks the hash, the link and the tx_id sequence. It
builds no Block or Transaction. Any single-bit change to the stored bytes
is therefore detected.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .domain import normalize_pair

GENESIS_PREV_HASH = "0" * 64

KIND_OBSERVATION = "pair_observation"
KIND_REWARD = "generator_reward"

_HEX_DIGITS = set("0123456789abcdef")

_BLOCK_FIELDS = frozenset(
    ("avg_navigability", "generator", "hash", "index", "prev_hash", "transactions")
)
_OBSERVATION_FIELDS = frozenset(("kind", "loop_index", "matches", "pair", "tx_id"))
_REWARD_FIELDS = frozenset(("generator", "kind", "loop_index", "reward", "tx_id"))

# In a canonical line the hash field, `"hash":"<64 hex>",`, comes right after
# the avg_navigability and generator numbers and right before "index".
_HASH_KEY = b'"hash":"'
_HASH_FIELD_LEN = len(_HASH_KEY) + 64 + len(b'",')
_INDEX_KEY = b'"index":'


class LedgerError(ValueError):
    """A ledger construction rule was violated."""


class LedgerFormatError(LedgerError):
    """A dumped record could not be decoded."""


# No cycle check: everything encoded here is a tree of records built by
# `body_dict()` or by `json.loads`. A cyclic argument still raises, as
# RecursionError instead of ValueError.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=True, check_circular=False
)


def canonical_encode(obj: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, shortest floats."""
    return _CANONICAL.encode(obj).encode("ascii")


# -- record schema ------------------------------------------------------------
#
# The only copy of the parse-time rules, shared by `from_dict` and by
# `verify_dump_bytes`. A record that passes re-encodes without error, and
# matches what sealing would write for the same values: numbers that
# construction would convert (an int quality) or pairs it would normalise
# (a reversed pair) are rejected rather than converted.


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


def _checked_matches(matches) -> list[tuple[int, float]]:
    """Validated (landmark id, quality) tuples for an observation.

    Entries that already are exact (int, float) tuples with an id >= 0 and a
    quality in [0, 1], as the simulator draws them, are kept as they are.
    Anything else is checked entry by entry and converted with int() and
    float(), raising on a negative id or a quality outside [0, 1] (NaN
    included).
    """
    for entry in matches:
        if type(entry) is not tuple or len(entry) != 2:
            break
        k, q = entry
        if type(k) is not int or type(q) is not float or k < 0 or not 0.0 <= q <= 1.0:
            break
    else:
        return list(matches)
    for k, q in matches:
        if k < 0:
            raise LedgerError(f"landmark id must be >= 0, got {k}")
        if not 0.0 <= q <= 1.0:
            raise LedgerError(f"match quality must be in [0, 1], got {q}")
    return [(int(k), float(q)) for k, q in matches]


@dataclass
class Transaction:
    """One ledger record: a pairwise observation or a generator reward.

    Observation transactions carry the unordered robot pair and the
    (landmark_id, quality) matches seen this loop. Reward transactions credit
    the elected block generator. `tx_id` is assigned when the transaction is
    sealed into a block and is None while pending.
    """

    kind: str
    loop_index: int
    tx_id: int | None = None
    pair: tuple[int, int] | None = None
    matches: list[tuple[int, float]] = field(default_factory=list)
    generator: int | None = None
    reward: float | None = None

    def __post_init__(self):
        if self.loop_index < 0:
            raise LedgerError(f"loop_index must be >= 0, got {self.loop_index}")
        if self.kind == KIND_OBSERVATION:
            if self.pair is None:
                raise LedgerError("observation transaction requires a robot pair")
            self.pair = normalize_pair(*self.pair)
            if not self.matches:
                raise LedgerError("observation transaction requires at least one match")
            self.matches = _checked_matches(self.matches)
            if self.generator is not None or self.reward is not None:
                raise LedgerError("observation transaction cannot carry reward fields")
        elif self.kind == KIND_REWARD:
            if self.generator is None or self.generator < 0:
                raise LedgerError(f"reward transaction requires a robot index, got {self.generator}")
            if self.reward is None or self.reward < 0:
                raise LedgerError(f"reward must be >= 0, got {self.reward}")
            self.reward = float(self.reward)
            if self.pair is not None or self.matches:
                raise LedgerError("reward transaction cannot carry observation fields")
        else:
            raise LedgerError(f"unknown transaction kind {self.kind!r}")

    @classmethod
    def observation(
        cls, pair: tuple[int, int], matches: list[tuple[int, float]], loop_index: int
    ) -> "Transaction":
        return cls(kind=KIND_OBSERVATION, loop_index=loop_index, pair=pair, matches=matches)

    @classmethod
    def generator_reward(cls, generator: int, reward: float, loop_index: int) -> "Transaction":
        return cls(kind=KIND_REWARD, loop_index=loop_index, generator=generator, reward=reward)

    def _record(self) -> dict:
        """The record that is encoded into a block body. Pair and matches are
        the stored tuples, which encode as JSON arrays."""
        if self.tx_id is None:
            raise LedgerError("transaction has no tx_id yet; it must be sealed first")
        if self.kind == KIND_OBSERVATION:
            return {
                "kind": self.kind,
                "loop_index": self.loop_index,
                "matches": self.matches,
                "pair": self.pair,
                "tx_id": self.tx_id,
            }
        return {
            "generator": self.generator,
            "kind": self.kind,
            "loop_index": self.loop_index,
            "reward": self.reward,
            "tx_id": self.tx_id,
        }

    def to_dict(self) -> dict:
        """The record as `json.loads` returns it, with lists for arrays."""
        record = self._record()
        if self.kind == KIND_OBSERVATION:
            record["matches"] = [[k, q] for k, q in self.matches]
            record["pair"] = list(self.pair)
        return record

    @classmethod
    def from_dict(cls, record: Any) -> "Transaction":
        _check_transaction_record(record)
        if record["kind"] == KIND_OBSERVATION:
            tx = cls.observation(record["pair"], record["matches"], record["loop_index"])
        else:
            tx = cls.generator_reward(record["generator"], record["reward"], record["loop_index"])
        tx.tx_id = record["tx_id"]
        return tx


@dataclass
class Block:
    """Hash-chained batch of transactions with its elected generator.

    `avg_navigability` snapshots the average navigability at generation time.
    `body` holds the canonical body bytes written when the block was sealed;
    `to_line()` dumps those bytes, so fields edited after sealing show up in
    `Chain.verify()` but not in the dump. Blocks built another way (for
    example by `Chain.loads`) have no body and encode from their fields.
    """

    index: int
    prev_hash: str
    transactions: list[Transaction]
    generator: int
    avg_navigability: float
    hash: str
    body: bytes | None = field(default=None, repr=False, compare=False)

    def body_dict(self) -> dict:
        return {
            "avg_navigability": self.avg_navigability,
            "generator": self.generator,
            "index": self.index,
            "prev_hash": self.prev_hash,
            "transactions": [tx._record() for tx in self.transactions],
        }

    def compute_hash(self) -> str:
        return hashlib.sha256(canonical_encode(self.body_dict())).hexdigest()

    def to_dict(self) -> dict:
        record = self.body_dict()
        record["transactions"] = [tx.to_dict() for tx in self.transactions]
        record["hash"] = self.hash
        return record

    def to_line(self) -> bytes:
        body = self.body
        if body is None:
            return canonical_encode(self.to_dict())
        at = body.index(_INDEX_KEY)
        return b'%s"hash":"%s",%s' % (body[:at], self.hash.encode("ascii"), body[at:])

    @classmethod
    def from_dict(cls, record: Any) -> "Block":
        _check_block_fields(record)
        return cls(
            index=record["index"],
            prev_hash=record["prev_hash"],
            transactions=[Transaction.from_dict(tx) for tx in record["transactions"]],
            generator=record["generator"],
            avg_navigability=record["avg_navigability"],
            hash=record["hash"],
        )


class Chain:
    """In-memory block chain with single-writer appends.

    When `n_robots` is given, the generator and pair indices of appended and
    loaded blocks are checked against it.
    """

    def __init__(self, n_robots: int | None = None):
        self.n_robots = n_robots
        self.blocks: list[Block] = []

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, item):
        return self.blocks[item]

    @property
    def next_tx_id(self) -> int:
        if not self.blocks:
            return 0
        return self.blocks[-1].transactions[-1].tx_id + 1

    def transactions(self):
        for block in self.blocks:
            yield from block.transactions

    def transaction_count(self) -> int:
        return sum(len(block.transactions) for block in self.blocks)

    def append_block(
        self, transactions: list[Transaction], generator: int, avg_navigability: float
    ) -> Block:
        """Seal `transactions` into a new block and link it to the chain tip.

        Transactions must already carry tx_ids continuing the chain's
        sequence without gaps. The block body is encoded here, once; the
        block keeps the bytes for dumping.
        """
        if not transactions:
            raise LedgerError("cannot seal a block with no transactions")
        self._check_robots(generator, transactions)
        expected = self.next_tx_id
        for tx in transactions:
            if tx.tx_id != expected:
                if tx.tx_id is None:
                    raise LedgerError("transaction has no tx_id assigned")
                raise LedgerError(
                    f"tx_id discontinuity: expected {expected}, got {tx.tx_id}"
                )
            expected += 1
        prev_hash = self.blocks[-1].hash if self.blocks else GENESIS_PREV_HASH
        block = Block(
            index=len(self.blocks),
            prev_hash=prev_hash,
            transactions=transactions,
            generator=generator,
            avg_navigability=float(avg_navigability),
            hash="",
        )
        block.body = canonical_encode(block.body_dict())
        block.hash = hashlib.sha256(block.body).hexdigest()
        self.blocks.append(block)
        return block

    def _check_robots(self, generator: int, transactions: list[Transaction]) -> None:
        """The block generator, pairs and reward generators are team members."""
        self._check_robot_index(generator, "generator")
        for tx in transactions:
            if tx.kind == KIND_OBSERVATION:
                i, j = tx.pair
                self._check_robot_index(i, "pair")
                self._check_robot_index(j, "pair")
            else:
                self._check_robot_index(tx.generator, "reward generator")

    def _check_robot_index(self, index: int, label: str) -> None:
        if index < 0 or (self.n_robots is not None and index >= self.n_robots):
            raise LedgerError(f"{label} index {index} out of range")

    def verify(self) -> int | None:
        """Re-check every hash, link, and the tx_id sequence.

        Hashes are recomputed from the blocks' fields, not from their stored
        bodies, so edits made in memory are caught. Returns None when the
        chain is intact, otherwise the index of the first invalid block.
        """
        prev_hash = GENESIS_PREV_HASH
        expected_tx_id = 0
        for position, block in enumerate(self.blocks):
            if not _block_intact(block, position, prev_hash, expected_tx_id):
                return position
            expected_tx_id += len(block.transactions)
            prev_hash = block.hash
        return None

    def all_pair_tx_counts(self) -> dict[tuple[int, int], int]:
        """Observation transaction counts for every pair seen in the chain."""
        counts: dict[tuple[int, int], int] = {}
        for tx in self.transactions():
            if tx.kind == KIND_OBSERVATION:
                counts[tx.pair] = counts.get(tx.pair, 0) + 1
        return counts

    def generator_histogram(self) -> list[int]:
        """Blocks sealed per robot; entries sum to the chain length."""
        if self.n_robots is None:
            raise ValueError("generator_histogram needs the team size")
        counts = [0] * self.n_robots
        for block in self.blocks:
            counts[block.generator] += 1
        return counts

    def dumps(self) -> bytes:
        return b"".join(block.to_line() + b"\n" for block in self.blocks)

    @classmethod
    def loads(cls, data: bytes, n_robots: int | None = None) -> "Chain":
        """Parse a dump; with `n_robots`, check robot indices as `append_block` does.

        Hashes and links are not checked here; `verify()` does that.
        """
        chain = cls(n_robots=n_robots)
        for index, line in enumerate(_dump_lines(data)):
            try:
                block = Block.from_dict(json.loads(line.decode("ascii")))
                chain._check_robots(block.generator, block.transactions)
            except _BAD_LINE_ERRORS as exc:
                raise LedgerFormatError(f"block {index}: {exc}") from exc
            chain.blocks.append(block)
        return chain


def _block_intact(
    block: Block, position: int, prev_hash: str, expected_tx_id: int
) -> bool:
    """One block's place in the chain: index, link, id sequence, hash."""
    if block.index != position or block.prev_hash != prev_hash:
        return False
    if not block.transactions:
        return False
    for tx in block.transactions:
        if tx.tx_id != expected_tx_id:
            return False
        expected_tx_id += 1
    return block.compute_hash() == block.hash


# What a line that cannot be decoded or fails the schema raises. ValueError
# covers bad ASCII, bad JSON, an integer too long to convert and
# LedgerFormatError; RecursionError comes from arrays nested too deeply.
_BAD_LINE_ERRORS = (ValueError, RecursionError)


def _dump_lines(data: bytes) -> list[bytes]:
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return lines


def verify_dump_bytes(data: bytes) -> int | None:
    """Verify a dumped chain directly from its bytes.

    Each line must decode, pass the record schema, carry the expected index,
    prev_hash and tx_ids, re-encode to exactly the stored bytes (the dump is
    canonical by construction), and, with its hash field cut out, hash to
    the stored hash. Builds no Block or Transaction. Stops at the first bad
    line, so any byte-level change is reported no later than the block it
    lands in. Returns None when valid, otherwise the index of the first
    invalid block.
    """
    prev_hash = GENESIS_PREV_HASH
    expected_tx_id = 0
    for position, line in enumerate(_dump_lines(data)):
        try:
            record = json.loads(line.decode("ascii"))
            _check_block_fields(record)
            for tx in record["transactions"]:
                _check_transaction_record(tx)
        except _BAD_LINE_ERRORS:
            return position
        if record["index"] != position or record["prev_hash"] != prev_hash:
            return position
        for tx in record["transactions"]:
            if tx["tx_id"] != expected_tx_id:
                return position
            expected_tx_id += 1
        if canonical_encode(record) != line:
            return position
        at = line.index(_HASH_KEY)
        body = line[:at] + line[at + _HASH_FIELD_LEN:]
        if hashlib.sha256(body).hexdigest() != record["hash"]:
            return position
        prev_hash = record["hash"]
    return None
