"""stakenav benchmark: time one workload through the CLI and print its metrics.

Usage: python3 benchmark/run.py --workload {dense50,sparse200,seedsweep}
           --seed N --seconds S --trace {0,1}

Run from anywhere; the program under test is the `src/stakenav` beside this
directory. Samples run one at a time, each in its own interpreter started by
sample.py, until S seconds have passed (at least MIN_SAMPLES of each kind).
With --trace 0 every sample is untraced and the end-to-end metrics are
printed; with --trace 1 untraced and traced samples alternate and the
per-layer metrics are printed. The second-to-last line of stdout holds the
details (interpreter, git sha, sample values, export digests, hook status);
the last line is the result. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3
# Set-up takes well under a second and is noisy, so each timed sample is
# preceded by this many set-up-only samples.
SETUP_SAMPLES_PER_SAMPLE = 3
# Time metrics are scaled to a host on which sample.probe_seconds() takes
# this long: its median on an uncontended 2-vCPU virtual machine with
# CPython 3.11. A shared host's speed can swing threefold within a minute;
# the probe, taken before and after every CLI call, slows down with the
# program, so scaled times stay steady where raw ones do not. Raw times are
# in the details.
REFERENCE_PROBE_S = 0.0075
# No sample starts after this many seconds of measuring, and none may take
# longer than the timeout, so a run (warm-up included) ends within 170 s.
SAMPLE_DEADLINE_S = 100.0
SAMPLE_TIMEOUT_S = 35.0

UNIT_METRICS = ("e2e_s", "run_s", "verify_s", "peak_rss_mb")
E2E_UNITS = {"e2e_s": "s", "run_s": "s", "verify_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SampleError(RuntimeError):
    """A sample process failed to produce a result."""


def run_sample(spec: dict) -> dict:
    command = [sys.executable, os.path.join(HERE, "sample.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"sample timed out after {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SampleError(f"sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise SampleError(f"sample printed no result:\n{proc.stdout[-2000:]}") from None


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s


def setup_seconds(sample: dict) -> float:
    return scaled(sample["setup_s"], sample["setup_probe_s"])


def e2e_values(sample: dict, scale: bool = True) -> dict[str, float]:
    """One sample's unit metrics, in reference-host seconds if `scale`."""
    def seconds(kind):
        return sum(scaled(op["seconds"], op["probe_s"]) if scale else op["seconds"]
                   for op in sample["ops"] if op["kind"] == kind)

    run_s, verify_s = seconds("run"), seconds("verify")
    return {"e2e_s": run_s + verify_s, "run_s": run_s, "verify_s": verify_s,
            "peak_rss_mb": sample["peak_rss_mb"]}


def count_failures(samples: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every CLI call of every sample.

    A call fails on a non-zero exit, a verify that does not report valid, or
    a run whose exports differ from the first sample's for the same config.
    """
    reference = samples[0]["digests"]
    attempted = failed = 0
    problems = []
    for number, sample in enumerate(samples):
        problems.extend(f"sample {number}: {p}" for p in sample["problems"])
        for op in sample["ops"]:
            attempted += 1
            ok = op["ok"]
            if op["kind"] == "run" and sample["digests"][op["label"]] != reference[op["label"]]:
                problems.append(f"sample {number}: {op['label']} exports differ from sample 0")
                ok = False
            failed += not ok
    return attempted, failed, problems


def git_sha(root: str) -> str | None:
    """HEAD of a git checkout at `root`, read from its files; None if absent."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git_dir, ref), encoding="ascii") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: str) -> str:
    """SHA-256 over the package's source files, so a result names its code."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "stakenav")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "stakenav", "cli.py")):
        print(f"no stakenav source under {ROOT}/src", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}")
    spec = {"workload": args.workload, "seed": args.seed, "trace": False, "work": work}
    untraced, traced, setups = [], [], []
    try:
        # Fills the bytecode cache and page cache; users of an installed
        # package do not pay for compiling it on every run.
        run_sample(dict(spec, setup_only=True))
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            enough = len(untraced) >= MIN_SAMPLES and (not args.trace or len(traced) >= MIN_SAMPLES)
            if (enough and elapsed >= args.seconds) or elapsed >= SAMPLE_DEADLINE_S:
                break
            trace_next = bool(args.trace) and len(traced) < len(untraced)
            if not args.trace:
                for _ in range(SETUP_SAMPLES_PER_SAMPLE):
                    setups.append(run_sample(dict(spec, setup_only=True)))
            sample = run_sample(dict(spec, trace=trace_next))
            (traced if trace_next else untraced).append(sample)
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    attempted, failed, problems = count_failures(untraced + traced)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "configs": workloads.unit_configs(args.workload, args.seed),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(ROOT),
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "exports_sha256": untraced[0]["digests"],
    }
    untraced_e2e = [e2e_values(s) for s in untraced]
    if args.trace:
        metrics, layer_values = trace_metrics(untraced_e2e, traced, problems)
        details["layer_values"] = layer_values
        details["layer_status"] = traced[0]["layer_status"]
        details["hooks"] = traced[0]["hooks"]
        details["hook_errors"] = traced[0]["hook_errors"]
        details["spans_file"] = os.path.relpath(work + ".spans.jsonl", ROOT)
    else:
        values = {name: [e[name] for e in untraced_e2e] for name in UNIT_METRICS}
        values["setup_s"] = [setup_seconds(s) for s in setups + untraced]
        metrics = {name: metric(statistics.median(values[name]), unit)
                   for name, unit in E2E_UNITS.items()}
        raw = [e2e_values(s, scale=False) for s in untraced]
        details["values"] = values
        details["raw_values"] = {name: [e[name] for e in raw] for name in UNIT_METRICS}
        details["raw_values"]["setup_s"] = [s["setup_s"] for s in setups + untraced]
        details["probe_s"] = [statistics.median(op["probe_s"] for op in s["ops"]) for s in untraced]
    details["problems"] = problems
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def trace_metrics(untraced_e2e, traced, problems):
    """Per-layer metrics: median times over traced samples, exact counts.

    Layer times are scaled like the sample's `e2e_s`. Counts must repeat
    exactly across traced samples; a difference is reported as a problem,
    which makes the result incorrect.
    """
    layers = [s["layers"] for s in traced]
    scales = [e2e_values(s)["e2e_s"] / e2e_values(s, scale=False)["e2e_s"] for s in traced]
    times = {name: [layer[name] * scale for layer, scale in zip(layers, scales)]
             for name in tracing.TIME_METRICS}
    metrics = {name: metric(statistics.median(values), "s") for name, values in times.items()}
    for name, (unit, _) in tracing.COUNT_METRICS.items():
        if any(layer[name] != layers[0][name] for layer in layers):
            problems.append(f"count {name} differs between traced samples")
        metrics[name] = metric(layers[0][name], unit)
    traced_e2e = statistics.median(e2e_values(s)["e2e_s"] for s in traced)
    plain_e2e = statistics.median(e["e2e_s"] for e in untraced_e2e)
    metrics["trace.overhead_share"] = metric(traced_e2e / plain_e2e - 1.0, "share")
    return metrics, times


if __name__ == "__main__":
    sys.exit(main())
