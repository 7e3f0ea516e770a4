"""Outside-in tracing of stakenav's layers for the benchmark's traced run.

`Tracer.installed()` replaces module-level names that stakenav looks up at
call time with wrappers. Each wrapper records one span per call in memory:
name, start, end, parent span and root span (the `cli.main` call, one per
CLI request). `Tracer.layer_metrics()` turns the spans, and counts taken
from the wrapped calls' arguments and results, into per-layer times and
deterministic counts. Only per-run, per-loop and per-block functions are
wrapped, never per-pair or per-transaction ones, so the overhead stays small.

A wrapped name that no longer exists makes its layer "absent", and one that
is never called makes it "zero-call"; neither stops the run. Work done by the
tracer itself is recorded as `trace.bookkeeping` spans, so it is subtracted
from the self time of the layer it interrupts.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

BOOKKEEPING = "trace.bookkeeping"

# Span name -> (module, attribute path) of the wrapped callable.
HOOKS = {
    "cli.main": ("stakenav.cli", "main"),
    "cli.run_and_export": ("stakenav.cli", "run_and_export"),
    "cli.run_experiment": ("stakenav.cli", "run_experiment"),
    "cli.verify_dump": ("stakenav.cli", "verify_dump"),
    "sim.init_world": ("stakenav.sim", "init_world"),
    "sim.step_movement": ("stakenav.sim", "step_movement"),
    "sim.compute_visibility": ("stakenav.sim", "compute_visibility"),
    "sim.emit_transactions": ("stakenav.sim", "emit_transactions"),
    "sim.maybe_seal_blocks": ("stakenav.sim", "maybe_seal_blocks"),
    "sim.elect_generator": ("stakenav.sim", "elect_generator"),
    "ledger.append_block": ("stakenav.ledger", "Chain.append_block"),
    "ledger.dumps": ("stakenav.ledger", "Chain.dumps"),
    "ledger.canonical_encode": ("stakenav.ledger", "canonical_encode"),
    "ledger.verify_dump_bytes": ("stakenav.ledger", "verify_dump_bytes"),
}

# Time metric -> (span name, whether the spans' direct children are
# subtracted). Without subtraction the metric is the layer's inclusive time.
TIME_METRICS = {
    "domain.init_world_s": ("sim.init_world", False),
    "sim.move_s": ("sim.step_movement", False),
    "sim.visibility_s": ("sim.compute_visibility", False),
    "sim.emit_s": ("sim.emit_transactions", False),
    # maybe_seal_blocks minus elect_generator and append_block: the n^2
    # navigability pass of every seal.
    "sim.seal_nav_self_s": ("sim.maybe_seal_blocks", True),
    "consensus.elect_s": ("sim.elect_generator", False),
    "ledger.seal_encode_hash_s": ("ledger.append_block", False),
    "ledger.dump_s": ("ledger.dumps", False),
    "ledger.verify_s": ("ledger.verify_dump_bytes", False),
    "ledger.encode_s": ("ledger.canonical_encode", False),
    # run_and_export minus run_experiment and dumps: summary recount, CSVs,
    # file writes.
    "cli.export_self_s": ("cli.run_and_export", True),
    "cli.verify_self_s": ("cli.verify_dump", True),
}

# Count metric -> (unit, span names whose calls it is derived from).
COUNT_METRICS = {
    "sim.loops": ("count", ("sim.step_movement",)),
    "sim.observations": ("count", ("sim.emit_transactions",)),
    "sim.cooperating_pairs_mean": ("pairs", ("sim.emit_transactions",)),
    "ledger.blocks": ("count", ("ledger.append_block",)),
    "ledger.bytes": ("B", ("ledger.dumps",)),
    "ledger.encode_calls": ("count", ("ledger.canonical_encode",)),
    "ledger.encode_bytes": ("B", ("ledger.canonical_encode",)),
    "consensus.elections_nav": ("count", ("sim.elect_generator",)),
    "consensus.elections_stake": ("count", ("sim.elect_generator",)),
    "consensus.elections_uniform": ("count", ("sim.elect_generator",)),
    "navigability.live_term_share": (
        "share",
        ("cli.run_experiment", "sim.emit_transactions", "ledger.append_block"),
    ),
}

# Worse statuses win when a metric depends on several hooks.
_STATUS_ORDER = ("ok", "zero-call", "error", "absent")


def span_times(spans) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it and never overlap each other.
    """
    child_seconds = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    times: dict[str, list] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = times.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_seconds[index]
    return times


def _resolve(module_name: str, path: str):
    """(owner, attribute name, callable), or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Spans and counts for one traced sample; install, run, then read."""

    def __init__(self, hooks: dict[str, tuple[str, str]] = HOOKS):
        self.hooks = hooks
        # One column per span field, so recording a span allocates no object
        # the cyclic collector has to track. Parent -1 means none.
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._roots: list[int] = []
        self.errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._installed: set[str] = set()
        self._counts = dict.fromkeys(COUNT_METRICS, 0)
        self._emit_calls = 0
        self._seals = 0
        self._share_sum = 0.0
        # Live-term state of the run in progress: team size, pairs with
        # non-zero importance (sealed before), pairs with a non-zero quality
        # sum this loop, and how many pairs are in both.
        self._n = 0
        self._important: set = set()
        self._emitted: set = set()
        self._live = 0

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook that resolves; restore the originals on exit."""
        callbacks = {
            "cli.run_experiment": (self._before_run, None),
            "sim.step_movement": (None, self._after_move),
            "sim.emit_transactions": (None, self._after_emit),
            "sim.elect_generator": (None, self._after_elect),
            "ledger.append_block": (None, self._after_append),
            "ledger.dumps": (None, self._after_dumps),
            "ledger.canonical_encode": (None, self._after_encode),
        }
        originals = []
        try:
            for name, (module_name, path) in self.hooks.items():
                target = _resolve(module_name, path)
                if target is None:
                    continue
                owner, attr, fn = target
                before, after = callbacks.get(name, (None, None))
                setattr(owner, attr, self._wrap(name, fn, before, after))
                originals.append((owner, attr, fn))
                self._installed.add(name)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def _wrap(self, name, fn, before, after):
        stack = self._stack
        clock = time.perf_counter
        open_span = self._open
        starts = self._starts
        ends = self._ends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._bookkeep(name, before, args, kwargs)
            index = open_span(name, 0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                self._bookkeep(name, after, args, kwargs, result)
            return result

        return wrapper

    def _open(self, name: str, start: float) -> int:
        """Record a span under the innermost open one; return its index."""
        index = len(self._names)
        stack = self._stack
        self._names.append(name)
        self._starts.append(start)
        self._ends.append(start)
        self._parents.append(stack[-1] if stack else -1)
        self._roots.append(self._roots[stack[-1]] if stack else index)
        return index

    def _bookkeep(self, name, callback, *payload):
        start = time.perf_counter()
        try:
            callback(*payload)
        except Exception as exc:  # a refactored signature must not stop the run
            self.errors.setdefault(name, f"{type(exc).__name__}: {exc}")
        self._ends[self._open(BOOKKEEPING, start)] = time.perf_counter()

    @property
    def spans(self) -> list[tuple]:
        """(name, start, end, parent index, root index) per span."""
        return list(zip(self._names, self._starts, self._ends, self._parents, self._roots))

    # -- counts from wrapped calls ------------------------------------------

    def _before_run(self, args, kwargs):
        config = args[0] if args else kwargs["config"]
        self._n = config.n_robots
        self._important = set()
        self._emitted = set()
        self._live = 0

    def _after_move(self, args, kwargs, result):
        self._counts["sim.loops"] += 1

    def _after_emit(self, args, kwargs, transactions):
        # Qualities are >= 0, so a pair's quality sum is non-zero iff one
        # match quality is.
        emitted = {tx.pair for tx in transactions if any(q > 0.0 for _, q in tx.matches)}
        self._counts["sim.observations"] += len(transactions)
        self._emit_calls += 1
        self._emitted = emitted
        self._live = len(emitted & self._important)

    def _after_elect(self, args, kwargs, result):
        weights = args[0] if args else kwargs["weights"]
        stakes = args[2] if len(args) > 2 else kwargs.get("stakes")
        if sum(weights) > 0.0:
            level = "nav"
        elif stakes is not None and sum(stakes) > 0.0:
            level = "stake"
        else:
            level = "uniform"
        self._counts[f"consensus.elections_{level}"] += 1

    def _after_append(self, args, kwargs, block):
        # Importance comes from blocks sealed before this one, so the share
        # is taken before this block's pairs join the important set.
        self._counts["ledger.blocks"] += 1
        n = self._n
        if n > 1:
            self._share_sum += 2 * self._live / (n * (n - 1))
        self._seals += 1
        transactions = args[1] if len(args) > 1 else kwargs["transactions"]
        for tx in transactions:
            pair = getattr(tx, "pair", None)
            if pair is not None and pair not in self._important:
                self._important.add(pair)
                if pair in self._emitted:
                    self._live += 1

    def _after_dumps(self, args, kwargs, data):
        self._counts["ledger.bytes"] += len(data)

    def _after_encode(self, args, kwargs, data):
        self._counts["ledger.encode_calls"] += 1
        self._counts["ledger.encode_bytes"] += len(data)

    # -- results ------------------------------------------------------------

    def hook_status(self) -> dict[str, str]:
        """Per hook: ok, zero-call, error (a count callback failed) or absent."""
        times = span_times(self.spans)
        status = {}
        for name in self.hooks:
            if name not in self._installed:
                status[name] = "absent"
            elif name in self.errors:
                status[name] = "error"
            elif name not in times:
                status[name] = "zero-call"
            else:
                status[name] = "ok"
        return status

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, str]]:
        """(metric -> value, metric -> status) for every per-layer metric.

        A metric whose hook is absent or failed reads 0 and says so in its
        status; a zero-call metric is a measured 0.
        """
        times = span_times(self.spans)
        hook_status = self.hook_status()
        values: dict[str, float] = {}
        status: dict[str, str] = {}
        for metric, (span, subtract) in TIME_METRICS.items():
            values[metric] = times.get(span, (0, 0.0, 0.0))[2 if subtract else 1]
            status[metric] = hook_status.get(span, "absent")
        counts = dict(self._counts)
        counts["sim.cooperating_pairs_mean"] = (
            counts["sim.observations"] / self._emit_calls if self._emit_calls else 0.0
        )
        counts["navigability.live_term_share"] = (
            self._share_sum / self._seals if self._seals else 0.0
        )
        for metric, (_, spans) in COUNT_METRICS.items():
            worst = max((hook_status.get(s, "absent") for s in spans), key=_STATUS_ORDER.index)
            status[metric] = worst
            values[metric] = counts[metric] if worst in ("ok", "zero-call") else 0
        return values, status

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent, root."""
        with open(path, "w", encoding="ascii") as handle:
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "root": root}
                handle.write(json.dumps(record) + "\n")
