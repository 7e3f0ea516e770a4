"""One benchmark sample: set up, run one workload unit through the CLI, report.

Usage: python3 benchmark/sample.py '{"workload": "dense50", "seed": 0,
"trace": false, "work": ".bench_work/dense50-s0"}'

run.py starts one of these per sample, in a fresh interpreter, so set-up
(importing stakenav and writing the config files) and peak memory are
measured per sample. Modules other than os, sys and time are imported
inside the functions that use them, and the spec is JSON, so that nothing is
imported before set-up is timed and set-up pays for exactly what importing
stakenav pays for. The last line of stdout is the sample's result as JSON.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPORTS = ("ledger.jsonl", "trajectories.csv", "timeseries.csv", "summary.json")
# About 8 ms on an uncontended 2-vCPU virtual machine with CPython 3.11.
PROBE_ROUNDS = 30


def write_configs(configs, work):
    """Write one config file per distinct config apart from its seed.

    The seed goes on the command line, so a sweep over seeds writes one file.
    Returns (label, run argv, out dir) per run.
    """
    import json

    config_dir = os.path.join(work, "configs")
    os.makedirs(config_dir, exist_ok=True)
    paths = {}
    jobs = []
    for label, config in configs:
        text = json.dumps({k: v for k, v in config.items() if k != "seed"}, sort_keys=True)
        if text not in paths:
            paths[text] = os.path.join(config_dir, f"config{len(paths)}.json")
            with open(paths[text], "w", encoding="ascii") as handle:
                handle.write(text)
        out_dir = os.path.join(work, "out", label)
        argv = ["--config", paths[text], "--seed", str(config["seed"]), "--out", out_dir]
        jobs.append((label, argv, out_dir))
    return jobs


def _call(cli, argv):
    """(exit code, seconds, captured stdout) of one in-process CLI call."""
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead sample
            print(f"{argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        seconds = time.perf_counter() - started
    return code, seconds, buffer.getvalue()


def probe_seconds():
    """Seconds for a fixed slice of stdlib work: a gauge of host speed.

    The work is shaped like stakenav's own (canonical JSON of a block-like
    record, SHA-256, decode), so it slows down with the program when the host
    is contended. It never touches stakenav, so a change to the program does
    not move it. The cyclic collector is paused so the probe never pays for
    the program's garbage.
    """
    import gc
    import hashlib
    import json

    record = {
        "avg_navigability": 0.123456789,
        "generator": 3,
        "index": 17,
        "prev_hash": "ab" * 32,
        "transactions": [
            {"kind": "pair_observation", "loop_index": 4, "pair": [1, 2], "tx_id": 1000 + t,
             "matches": [[k, k * 0.0137] for k in range(12)]}
            for t in range(10)
        ],
    }
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        line = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("ascii")
        hashlib.sha256(line).hexdigest()
        json.loads(line)
    seconds = time.perf_counter() - started
    if enabled:
        gc.enable()
    return seconds


def run_unit(cli, jobs):
    """Every CLI run with its exports, each followed by --verify of its ledger.

    `cli.main` is looked up per call, so a traced sample sees its wrapper.
    Returns one record per operation; `probe_s` is the mean of the host-speed
    probes taken right before and right after the call.
    """
    ops = []
    before = probe_seconds()

    def record(label, kind, ok, seconds):
        nonlocal before
        after = probe_seconds()
        ops.append({"label": label, "kind": kind, "ok": ok, "seconds": seconds,
                    "probe_s": (before + after) / 2})
        before = after

    for label, argv, out_dir in jobs:
        code, seconds, _ = _call(cli, argv)
        record(label, "run", code == 0, seconds)
        ledger = os.path.join(out_dir, EXPORTS[0])
        code, seconds, text = _call(cli, ["--verify", ledger])
        record(label, "verify", code == 0 and text.rstrip().endswith(": valid"), seconds)
    return ops


def export_digests(jobs):
    """label -> export file -> SHA-256; a missing file reads as None."""
    import hashlib

    digests = {}
    for label, _, out_dir in jobs:
        files = {}
        for name in EXPORTS:
            try:
                with open(os.path.join(out_dir, name), "rb") as handle:
                    files[name] = hashlib.sha256(handle.read()).hexdigest()
            except OSError:
                files[name] = None
        digests[label] = files
    return digests


def export_problems(jobs, configs):
    """Cross-checks between one run's four exports and its config."""
    import json

    problems = []
    for (label, _, out_dir), (_, config) in zip(jobs, configs):
        try:
            with open(os.path.join(out_dir, "summary.json"), encoding="ascii") as handle:
                summary = json.load(handle)
            with open(os.path.join(out_dir, EXPORTS[0]), "rb") as handle:
                blocks = handle.read().count(b"\n")
            with open(os.path.join(out_dir, "timeseries.csv"), encoding="ascii") as handle:
                series_rows = sum(1 for _ in handle) - 1
            with open(os.path.join(out_dir, "trajectories.csv"), encoding="ascii") as handle:
                trajectory_rows = sum(1 for _ in handle) - 1
        except (OSError, ValueError) as exc:
            problems.append(f"{label}: {exc}")
            continue
        if summary.get("blocks") != blocks or series_rows != blocks:
            problems.append(f"{label}: summary, ledger and timeseries disagree on blocks")
        if sum(summary.get("generator_histogram", [])) != blocks:
            problems.append(f"{label}: generator histogram does not sum to the block count")
        if summary.get("reward_transactions") != blocks:
            problems.append(f"{label}: not one reward per block")
        if trajectory_rows != (config["loops"] + 1) * config["robots"]:
            problems.append(f"{label}: trajectories.csv has {trajectory_rows} rows")
    return problems


def peak_rss_mb():
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_text):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

    started = time.perf_counter()
    import stakenav
    import stakenav.cli as cli
    import json

    import workloads

    spec = json.loads(spec_text)
    configs = workloads.unit_configs(spec["workload"], spec["seed"])
    jobs = write_configs(configs, spec["work"])
    setup_s = time.perf_counter() - started

    source = os.path.join(ROOT, "src", "stakenav")
    if os.path.dirname(os.path.abspath(stakenav.__file__)) != source:
        sys.exit(f"stakenav imported from {stakenav.__file__}, not {source}")
    result = {"setup_s": setup_s, "setup_probe_s": probe_seconds()}
    if not spec.get("setup_only"):
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            with tracer.installed():
                ops = run_unit(cli, jobs)
            result["layers"], result["layer_status"] = tracer.layer_metrics()
            result["hooks"] = tracer.hook_status()
            result["hook_errors"] = tracer.errors
            tracer.write_spans(spec["work"] + ".spans.jsonl")
        else:
            ops = run_unit(cli, jobs)
        result.update(
            ops=ops,
            peak_rss_mb=peak_rss_mb(),
            digests=export_digests(jobs),
            problems=export_problems(jobs, configs),
        )
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
