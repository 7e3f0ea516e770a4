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

A block is defined once, by `_seal`: it runs `_check_block`, the one check
of the block rules, takes the block's generator to be the robot its one
trailing reward pays and its index, prev_hash and first tx_id from the block
before it, encodes the body once through the module-level
`canonical_encode`, hashes it and splices the line. The rules convert no
value: an integer where a float belongs, a reversed pair or a `bool` id is
rejected, and so is a robot id not below the team size, which is
`MAX_ROBOTS`, the largest team any run has, unless a smaller one is given.
`Chain.append_block` is `_seal` on the chain's last block plus an append. A
block keeps its line, newline included, and a few header numbers;
`Chain.dumps()` joins the lines as they are. Records are named tuples, one
class per kind (`Observation`, `Reward`), and carry no id, so the records
`Block.transactions` builds from a line equal the ones sealed.

There is one reader of dump bytes, `_read_dump`, and it walks a stream of
lines, holding one at a time. Per line it requires the final newline,
decodes the line, turns its transactions into records through `_records`
(the decoder `Block.transactions` uses too) and re-seals them with the
line's `avg_navigability`, the only other field it takes from the line, on
the block it read before, against the same team size. A line is valid when
the writer would seal it: the re-sealed line must equal the line read. That
one byte comparison covers the field sets, the block's generator against
its reward's robot, the index, the prev_hash link, the tx_id sequence, the
canonical form and the hash; only on a mismatch does `_differs` name the
rule. The first line that fails raises `LedgerError("block K: <rule>")`,
the error every block rule raises: `verify_dump_bytes` returns that K, and
`Chain.loads` raises it, so a loaded chain is valid. Both read their
bytes through an `io.BytesIO`, which shares the buffer, so neither holds a
second copy of the dump. Any single-bit change to the stored bytes is detected.
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


class LedgerError(ValueError):
    """A block rule was broken, by records given to seal or by a dump line."""


# No cycle check: everything the ledger encodes is a block `_check_block`
# has passed, which nests no deeper than a list of (id, quality) pairs. A
# cyclic argument still raises, as RecursionError instead of ValueError.
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


def _records(transactions: list) -> list[Observation | Reward]:
    """Records from decoded transaction objects, as the writer was given
    them. Any kind but an observation's is read as a reward: the re-seal
    then writes the reward's kind, so the line does not match."""
    return [
        Observation(tuple(tx["pair"]), [(k, q) for k, q in tx["matches"]], tx["loop_index"])
        if tx["kind"] == KIND_OBSERVATION
        else Reward(tx["generator"], tx["reward"], tx["loop_index"])
        for tx in transactions
    ]


class Block(NamedTuple):
    """One sealed block: its header numbers and its canonical dump line.

    `line` is the block's exact bytes in the dump, hash field and newline
    included, made once by `_splice` in `_seal`; `hash` is the SHA-256 of
    the body, the line without that field and newline. The transactions
    live only in `line`: their ids run from `first_tx_id` for
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


def _check_id(value: Any, label: str, limit: int | None = None) -> None:
    if type(value) is not int or value < 0:
        raise LedgerError(f"{label} must be an integer >= 0, got {value!r}")
    if limit is not None and value >= limit:
        raise LedgerError(f"{label} {value} out of range")


def _check_block(transactions: list, avg_navigability: Any, n_robots: int) -> None:
    """Raise LedgerError unless `transactions` make a block, the only copy
    of the block rules:

    - `avg_navigability` is a finite float;
    - every record but the last is an `Observation`, and the last is the
      block's one `Reward`, paying its generator a finite float >= 0;
    - a pair is a tuple of two robot ids i < j, and `matches` a non-empty
      list of (landmark id, float quality in [0, 1]) tuples, ids strictly
      ascending;
    - ids and loop indices are integers >= 0 (`_check_id`), robot ids below
      `n_robots`.

    Records are taken to have their class's shape. A match entry's shape,
    a tuple of two, is checked before it is unpacked, so a list entry,
    which would read back as a tuple, is refused; every value is
    type-checked before it is compared, so a bad value raises LedgerError,
    never TypeError.
    """
    if type(avg_navigability) is not float or not math.isfinite(avg_navigability):
        raise LedgerError(f"avg_navigability must be finite and a float, got {avg_navigability!r}")
    if not transactions or type(transactions[-1]) is not Reward:
        raise LedgerError("a block must end in its generator's reward")
    generator, amount, loop_index = transactions[-1]
    _check_id(generator, "generator index", n_robots)
    if type(amount) is not float or not 0.0 <= amount < math.inf:
        raise LedgerError(f"reward must be a finite float >= 0, got {amount!r}")
    _check_id(loop_index, "loop_index")
    for tx in transactions[:-1]:
        if type(tx) is not Observation:
            raise LedgerError(f"records before the reward must be observations, got {tx!r}")
        pair, matches, loop_index = tx
        if type(pair) is not tuple or len(pair) != 2:
            raise LedgerError(f"pair must be a tuple of two robot ids, got {pair!r}")
        i, j = pair
        _check_id(i, "pair index", n_robots)
        _check_id(j, "pair index", n_robots)
        if i >= j:
            raise LedgerError(f"pair must be ascending, got {pair!r}")
        if type(matches) is not list or not matches:
            raise LedgerError(f"matches must be a non-empty list, got {matches!r}")
        previous = -1
        for entry in matches:
            if type(entry) is tuple and len(entry) == 2:
                k, q = entry
                if type(k) is int and k > previous and type(q) is float and 0.0 <= q <= 1.0:
                    previous = k
                    continue
            after = f" after landmark {previous}" if previous >= 0 else ""
            raise LedgerError(
                f"match entries must be (landmark id >= 0, float quality in [0, 1]) with "
                f"ids strictly ascending, got {entry!r}{after}"
            )
        _check_id(loop_index, "loop_index")


def _splice(body: bytes, hash: str) -> bytes:
    """The dump line of a block: its canonical body with `"hash":"<hash>",`
    in before "index", where sorted keys put it, and a newline after."""
    at = body.index(_INDEX_KEY)
    return b"".join((body[:at], b'"hash":"', hash.encode("ascii"), b'",', body[at:], b"\n"))


def _seal(
    transactions: list, avg_navigability: Any, previous: Block | None, n_robots: int
) -> Block:
    """The block `transactions` make on `previous`, the block before it or
    None for the first, generated by the robot its reward pays: checked by
    `_check_block`, numbered on from `previous`, its body encoded and hashed
    once, its line by `_splice`."""
    _check_block(transactions, avg_navigability, n_robots)
    index, prev_hash, first_tx_id = 0, GENESIS_PREV_HASH, 0
    if previous is not None:
        index, prev_hash = previous.index + 1, previous.hash
        first_tx_id = previous.first_tx_id + previous.transaction_count
    generator = transactions[-1].generator
    body = canonical_encode({
        "avg_navigability": avg_navigability,
        "generator": generator,
        "index": index,
        "prev_hash": prev_hash,
        "transactions": [tx._record(tx_id) for tx_id, tx in enumerate(transactions, first_tx_id)],
    })
    hash = hashlib.sha256(body).hexdigest()
    line = _splice(body, hash)
    return Block(index, generator, avg_navigability, hash, line, first_tx_id, len(transactions))


class Chain:
    """In-memory block chain with single-writer appends for a team of
    `n_robots`, against which the generator and pair indices of appended and
    loaded blocks are checked."""

    def __init__(self, n_robots: int = MAX_ROBOTS):
        self.n_robots = n_robots
        self.blocks: list[Block] = []

    @property
    def next_tx_id(self) -> int:
        if not self.blocks:
            return 0
        last = self.blocks[-1]
        return last.first_tx_id + last.transaction_count

    def append_block(
        self, transactions: list[Observation | Reward], avg_navigability: float
    ) -> Block:
        """Seal `transactions` into a new block on the last one (`_seal`),
        generated by the robot its trailing reward pays, and append it;
        raise LedgerError, appending nothing, if they break a block rule."""
        previous = self.blocks[-1] if self.blocks else None
        block = _seal(transactions, avg_navigability, previous, self.n_robots)
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
        """Read a dump through the one verifying reader, with robot ids
        checked against `n_robots`. Raises `LedgerError("block K: <rule>")`
        at the first line that fails, so a loaded chain is valid and dumps
        back to the bytes read."""
        chain = cls(n_robots=n_robots)
        chain.blocks.extend(_read_dump(io.BytesIO(data), n_robots))
        return chain


def _differs(record: dict, block: Block) -> str:
    """The rule by which the decoded line `record` breaks, given `block`,
    the re-seal of its records whose line it does not match."""
    if "generator" not in record:
        return "missing field 'generator'"
    if type(record["generator"]) is not int or record["generator"] != block.generator:
        return f"the reward pays robot {block.generator}, not the generator {record['generator']!r}"
    sealed = json.loads(block.line)
    if record.get("index") != block.index:
        return f"index is {record.get('index')!r}, expected {block.index}"
    if record.get("prev_hash") != sealed["prev_hash"]:
        return "prev_hash does not link to the previous block"
    for tx_id, tx in enumerate(record["transactions"], block.first_tx_id):
        if tx.get("tx_id") != tx_id:
            return f"tx_id is {tx.get('tx_id')!r}, expected {tx_id}"
    stored = record.pop("hash", None)
    del sealed["hash"]
    if record == sealed and stored != block.hash:
        return "hash does not match the block body"
    return "line is not the canonical encoding of its record"


def _read_dump(lines, n_robots: int):
    """Yield the Block of each line of `lines`, an iterable of byte lines
    such as an `io.BytesIO`, once `_seal` of its records on the block read
    before it, checking robot ids against `n_robots`, has given back the
    line read; raise `LedgerError("block K: <rule>")` at the first line K
    that fails. Every line must end in a newline, and that rule is checked
    first."""
    block = None
    for index, line in enumerate(lines):
        try:
            if line[-1:] != b"\n":
                raise LedgerError("line does not end with a newline")
            record = json.loads(line[:-1].decode("ascii"))
            try:
                transactions = _records(record["transactions"])
                avg_navigability = record["avg_navigability"]
            except KeyError as exc:
                raise LedgerError(f"missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise LedgerError(f"malformed record: {exc}") from exc
            block = _seal(transactions, avg_navigability, block, n_robots)
            if block.line != line:
                raise LedgerError(_differs(record, block))
        # ValueError covers bad ASCII, bad JSON, an integer too long to
        # convert and LedgerError; RecursionError comes from arrays nested
        # too deeply.
        except (ValueError, RecursionError) as exc:
            raise LedgerError(f"block {index}: {exc}") from exc
        yield block


def verify_dump_bytes(data: bytes, n_robots: int = MAX_ROBOTS) -> int | None:
    """Run the dump reader over the lines of `data`, read in place through
    an `io.BytesIO`, with robot ids checked against `n_robots`, and build no
    chain. Returns None when valid, otherwise the index of the first invalid
    block: any byte-level change is reported no later than the block it
    lands in."""
    verified = 0
    try:
        for _ in _read_dump(io.BytesIO(data), n_robots):
            verified += 1
    except LedgerError:
        return verified
    return None
