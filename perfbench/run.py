"""Benchmark of the nubes CLI, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.py`, or `all` to run each of them
in turn.  Every timed sample is a fresh interpreter running one CLI scenario,
the cost a user pays on each invocation; samples repeat until S seconds are
used.  Each output is checked by the oracles in `oracles.py` (an output whose
SHA-256 matches one already checked in this run is not checked again).

With `--trace 0` the untraced samples give the end-to-end metrics.  With
`--trace 1` untraced and traced samples alternate; the traced ones give the
per-layer metrics, and `trace.overhead_s` is the traced minus the untraced
median wall time.  A traced output must be byte-identical to the untraced one.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Details of
every sample go to `.perfbench_out/` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).with_name("child.py")

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput", "items/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)
MIN_SAMPLES = 3  # of each kind (untraced, traced) per run
SAMPLE_TIMEOUT_S = 60


class SampleFailed(Exception):
    pass


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def run_sample(case, trace_dir: Path | None, checked: set) -> dict:
    """One fresh-process run of `case`; returns the child's record plus the output hash."""
    output = OUT / f"output.{case.ext}"
    record_path = OUT / "record.json"
    output.unlink(missing_ok=True)
    record_path.unlink(missing_ok=True)
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
    launch_ns = time.perf_counter_ns()
    cmd = [sys.executable, str(CHILD), str(launch_ns), str(record_path),
           str(trace_dir) if trace_dir is not None else "-", "--", *case.argv, "--output", str(output)]
    # a session of its own, so a hung run is killed together with its pool workers
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleFailed(f"no result within {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise SampleFailed(f"exit code {proc.returncode}: {tail[0]}")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record["rc"] != 0:
        raise SampleFailed(f"nubes exited with {record['rc']}")
    record["sha256"] = oracles.sha256(output)
    if record["sha256"] not in checked:
        try:
            case.check(str(output))
        # a malformed file can also fail to parse, or miss a key or a row
        except (oracles.CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
            raise SampleFailed(f"output check: {type(exc).__name__}: {exc}") from exc
        checked.add(record["sha256"])
    return record


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Fresh-process samples of one workload, repeated for about `seconds`."""
    case = workload.case(seed, False)
    # compile nubes to bytecode once, outside the timed samples
    subprocess.run([sys.executable, "-c", "import nubes"], env=_env(), check=True,
                   timeout=SAMPLE_TIMEOUT_S, capture_output=True)
    trace_dir = OUT / "spans"
    checked: set = set()
    untraced, traced, layers, failures = [], [], [], []
    start = time.monotonic()
    durations = []
    while True:
        as_traced = trace and len(traced) < len(untraced)
        began = time.monotonic()
        try:
            record = run_sample(case, trace_dir if as_traced else None, checked)
            if as_traced:
                if record["sha256"] not in {r["sha256"] for r in untraced}:
                    raise SampleFailed("the traced run wrote other bytes than the untraced run")
                layers.append(tracer.layer_metrics(*tracer.load(trace_dir)))
                traced.append(record)
            else:
                untraced.append(record)
        except SampleFailed as exc:
            failures.append(str(exc))
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        enough = len(untraced) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_SAMPLES)
        if elapsed >= seconds or (enough and elapsed + statistics.median(durations) > seconds):
            break
    shutil.rmtree(trace_dir, ignore_errors=True)
    return {
        "workload": workload.name,
        "seed": seed,
        "argv": ["nubes", *case.argv, "--output", "FILE"],
        "work": case.work,
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "failures": failures,
    }


def _tail_percentile(values: list[float]):
    """Highest of p75..p99 with at least ten samples beyond it, or None."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def summarize(run: dict) -> tuple[dict, dict | None, dict]:
    """(end-to-end metrics, per-layer metrics or None, details) of one run."""
    samples = run["untraced"]
    if not samples:
        return {}, None, {}
    walls = [s["wall_s"] for s in samples]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "throughput": run["work"] / wall,
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(max(s["rss_mib"], s["worker_rss_mib"]) for s in samples),
    }
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    details = {
        "samples": len(samples),
        "wall_tail_percentile": _tail_percentile(walls),
        "rss_mib_process": statistics.median(s["rss_mib"] for s in samples),
        "rss_mib_largest_worker": statistics.median(s["worker_rss_mib"] for s in samples),
        "provenance": dict(samples[0]["provenance"], nproc=os.cpu_count(),
                           usable_cpus=len(os.sched_getaffinity(0)), commit=_git_commit()),
        "sha256": sorted({s["sha256"] for s in samples}),
    }
    if not run["layers"]:
        return end_to_end, None, details
    values, details["counts_repeat"] = tracer.median_metrics(run["layers"])
    values["trace.overhead_s"] = statistics.median(s["wall_s"] for s in run["traced"]) - wall
    details["trace_method"] = tracer.METHOD
    per_layer = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}
    return end_to_end, per_layer, details


def report(workload, run: dict, end_to_end: dict, per_layer: dict | None, details: dict):
    failures = run["failures"]
    attempted = len(run["untraced"]) + len(run["traced"]) + len(failures)
    print(f"workload {workload.name}  seed {run['seed']}")
    print(f"  why: {workload.why}")
    print(f"  argv: {' '.join(run['argv'])}")
    for name, metric in end_to_end.items():
        print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':<24} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures:
        print(f"    failed: {failure}")
    if details:
        tail = details["wall_tail_percentile"]
        print(f"  end-to-end values are medians of {details['samples']} untraced fresh-process samples")
        print("  wall_s tail: " + (f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                                   "none reported (fewer than ten samples beyond p75)"))
        print(f"  throughput counts {workload.item} per second at {run['work']} {workload.item} per run")
        print(f"  peak_rss_mb parts: scenario process {details['rss_mib_process']:.1f} MiB, "
              f"largest pool worker {details['rss_mib_largest_worker']:.1f} MiB")
        print("  output sha256 (information only): " + ", ".join(details["sha256"]))
        print("  provenance: " + ", ".join(f"{k} {v}" for k, v in details["provenance"].items()))
    if per_layer is not None:
        print(f"  per-layer metrics, medians of {len(run['layers'])} traced samples:")
        for name, metric in per_layer.items():
            print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")
        print(f"  per-layer counts repeat exactly across traced samples: {details['counts_repeat']}")
        print(f"  trace method: {details['trace_method']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nubes" / "cli.py").is_file():
        print(f"perfbench: no nubes sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, all_metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name]
        run = measure(workload, args.seed, args.seconds, trace)
        end_to_end, per_layer, details = summarize(run)
        report(workload, run, end_to_end, per_layer, details)
        metrics = per_layer if trace else end_to_end
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump({**run, "end_to_end": end_to_end, "per_layer": per_layer, "details": details}, fh, indent=1)
        if not metrics:
            print(f"perfbench: no successful {'traced ' if trace else ''}sample of {name}", file=sys.stderr)
            return 1
        attempted += len(run["untraced"]) + len(run["traced"]) + len(run["failures"])
        failed += len(run["failures"])
        correct = correct and not run["failures"] and details.get("counts_repeat", True)
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update({prefix + key: value for key, value in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
