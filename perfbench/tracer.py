"""Outside-in tracer for the nubes layers.

The library is not edited.  `install` rebinds every public function of the
layer modules -- and every other name in the nubes namespaces bound to the
same function object, since `from .x import f` makes a second binding -- to a
wrapper that records a span around the call.  It also wraps the tail-model
`raw` methods, `EmpiricalCdf.evaluate` and `EmpiricalTail.from_samples`.

Four private functions are wrapped because they are layer boundaries that no
public function marks:

* `sampling._run_chunk`, the job a pool worker runs for one chunk;
* `chaos._sample_chunk` and `expfun._path_chunk`, the per-chunk samplers,
  so their own array arithmetic is charged to their layer;
* `cli._write`, which serializes the rows (it gives `cli.rows` and
  `cli.output_bytes`).

Normal generation is charged to `sampling`: the wrapped `sampling.substream`
returns a proxy whose `standard_normal` records a `sampling.standard_normal`
span and delegates to the real Philox generator, so the draws are unchanged.

Spans are kept in memory as (id, parent, name, start_ns, end_ns, wait) and
written out once, as JSON, by `Tracer.dump`.  Pool workers forked from the
traced process inherit the patched modules; each worker drops what it
inherited from the parent and dumps its own spans to a file of its own after
every chunk, because a pool worker exits without running atexit hooks.  Times
come from `time.perf_counter_ns`, which on Linux reads CLOCK_MONOTONIC, a
clock shared by all processes, so worker spans line up with the parent's.
Span ids carry the pid in their high bits; a worker's first spans name the
parent's `sampling.map_chunks` span as their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("sampling", "expfun", "chaos", "gaussian", "bounds", "empirical", "cli")
PRIVATE_BOUNDARIES = {
    "sampling": ("_run_chunk",),
    "chaos": ("_sample_chunk",),
    "expfun": ("_path_chunk",),
    "cli": ("_write",),
}

METHOD = (
    "outside-in wrappers around the public functions of each layer; pool workers are "
    "forked from the traced process and write their own spans after each chunk; "
    "self_s sums busy time over all processes; the parent's time blocked on the pool is "
    "sampling.pool_wait_s; bytes_computed is counted from array sizes, not measured"
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("sampling.self_s", "s", "lower"),
    ("sampling.ns_per_normal", "ns", "lower"),
    ("sampling.normals", "count", "lower"),
    ("sampling.chunks", "count", "lower"),
    ("sampling.pool_wait_s", "s", "lower"),
    ("expfun.self_s", "s", "lower"),
    ("expfun.path_steps", "count", "lower"),
    ("expfun.ns_per_step", "ns", "lower"),
    ("expfun.bytes_computed", "bytes", "lower"),
    ("chaos.self_s", "s", "lower"),
    ("chaos.calls", "count", "lower"),
    ("chaos.hermite_elems", "count", "lower"),
    ("gaussian.self_s", "s", "lower"),
    ("gaussian.calls", "count", "lower"),
    ("gaussian.points", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.tail_calls", "count", "lower"),
    ("bounds.points", "count", "lower"),
    ("bounds.sorted_items", "count", "lower"),
    ("bounds.useful_ratio", "ratio", "higher"),
    ("empirical.self_s", "s", "lower"),
    ("empirical.sorted_items", "count", "lower"),
    ("empirical.rows", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.ns_per_row", "ns", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
COUNTS = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "ratio")
)


class Tracer:
    """Span and counter store of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self._reset(self.main_pid)
        self.stack: list[int] = []

    def _reset(self, pid: int):
        self.pid = pid
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.tail_x: set[float] = set()
        self.next_id = 0
        self.dumps = 0

    def _own(self):
        pid = os.getpid()
        if pid != self.pid:  # first call in a forked worker
            self._reset(pid)

    def call(self, name: str, fn, args, kwargs, wait: bool = False):
        self._own()
        sid = (self.pid << 32) | self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end, wait))

    def dump(self):
        """Write this process's spans and counters to a file of its own."""
        self._own()
        self.dumps += 1
        path = Path(self.out_dir) / f"spans-{self.pid}-{self.dumps}.json"
        counts = dict(self.counts, distinct_tail_x=len(self.tail_x))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans, "counts": counts}, fh)
        self.spans, self.counts, self.tail_x = [], Counter(), set()


class _TracedGenerator:
    """Delegates to a numpy Generator; `standard_normal` records a span."""

    def __init__(self, tracer: Tracer, rng):
        self._tracer = tracer
        self._rng = rng

    def standard_normal(self, size=None, *args, **kwargs):
        self._tracer.counts["sampling.normals"] += 1 if size is None else int(np.prod(size))
        return self._tracer.call("sampling.standard_normal", self._rng.standard_normal, (size, *args), kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# traced name -> (argument whose element count is added, counter)
SIZE_COUNTERS = {
    "chaos.hermite": ("x", "chaos.hermite_elems"),
    "bounds.evaluate_curve": ("grid", "bounds.points"),
    "bounds.EmpiricalTail.from_samples": ("samples", "bounds.sorted_items"),
    "empirical.build_ecdf": ("samples", "empirical.sorted_items"),
    "empirical.discrepancy_curve": ("grid", "empirical.rows"),
}


def _wrap(tracer: Tracer, name: str, fn):
    params = list(inspect.signature(fn).parameters)
    sized = SIZE_COUNTERS.get(name)
    if sized is None and name.startswith("gaussian.") and ("x" in params or "grid" in params):
        sized = ("x" if "x" in params else "grid", "gaussian.points")
    if sized is not None:
        size_index = params.index(sized[0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer._own()
        wait = False
        if sized is not None:
            tracer.counts[sized[1]] += int(np.size(_arg(args, kwargs, size_index, sized[0])))
        if name == "sampling.map_chunks":
            total, chunk_size = _arg(args, kwargs, 3, "total"), _arg(args, kwargs, 4, "chunk_size")
            workers = args[5] if len(args) > 5 else kwargs.get("workers", 1)
            chunks = math.ceil(total / chunk_size)
            tracer.counts["sampling.chunks"] += chunks
            wait = workers > 1 and chunks > 1
        elif name == "expfun.integral_from_increments":
            increments = np.asarray(_arg(args, kwargs, 2, "increments"))
            tracer.counts["expfun.path_steps"] += increments.size
            tracer.counts["expfun.bytes_computed"] += increments.nbytes
        elif name in ("bounds.nonuniform_bound", "bounds.chaos_bound"):
            tracer.counts["bounds.points"] += 1
        elif name.endswith(".raw"):
            tracer.counts["bounds.tail_calls"] += 1
            tracer.tail_x.add(float(_arg(args, kwargs, 1, "x")))
        result = tracer.call(name, fn, args, kwargs, wait)
        if name == "sampling.substream":
            result = _TracedGenerator(tracer, result)
        elif name == "sampling._run_chunk" and os.getpid() != tracer.main_pid:
            tracer.dump()
        elif name == "cli._write":
            cfg, rows = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 2, "rows")
            tracer.counts["cli.rows"] += len(rows)
            if cfg["output"] != "-":
                tracer.counts["cli.output_bytes"] += os.path.getsize(cfg["output"])
        return result

    return wrapper


def install(tracer: Tracer):
    """Rebind the layer functions in every nubes namespace to traced wrappers."""
    package = importlib.import_module("nubes")
    modules = {layer: importlib.import_module(f"nubes.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr in (*module.__all__, *PRIVATE_BOUNDARIES.get(layer, ())):
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrapped[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    for namespace in (package, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(namespace, attr, wrapped[obj])

    bounds, empirical = modules["bounds"], modules["empirical"]
    for cls in vars(bounds).values():
        if isinstance(cls, type) and issubclass(cls, bounds.TailModel) and cls is not bounds.TailModel:
            if "raw" in vars(cls):
                cls.raw = _wrap(tracer, f"bounds.{cls.__name__}.raw", vars(cls)["raw"])
    from_samples = vars(bounds.EmpiricalTail)["from_samples"].__func__
    bounds.EmpiricalTail.from_samples = classmethod(
        _wrap(tracer, "bounds.EmpiricalTail.from_samples", from_samples)
    )
    empirical.EmpiricalCdf.evaluate = _wrap(
        tracer, "empirical.EmpiricalCdf.evaluate", empirical.EmpiricalCdf.evaluate
    )


def load(out_dir: str) -> tuple[list, Counter]:
    """All spans and summed counters written under `out_dir`."""
    spans: list = []
    counts: Counter = Counter()
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spans.extend(data["spans"])
        counts.update(data["counts"])
    return spans, counts


def layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer self times and counts of one traced run (no trace.overhead_s)."""
    child_time: Counter = Counter()
    for sid, parent, _name, start, end, _wait in spans:
        if parent is not None and parent >> 32 == sid >> 32:  # same process
            child_time[parent] += end - start
    self_ns: Counter = Counter()
    normal_ns = 0
    calls: Counter = Counter()
    for sid, _parent, name, start, end, wait in spans:
        layer, _, short = name.partition(".")
        own = end - start - child_time[sid]
        self_ns[f"{layer}.pool_wait_s" if wait else f"{layer}.self_s"] += own
        if name == "sampling.standard_normal":
            normal_ns += end - start
        if not short.startswith("_"):
            calls[layer] += 1

    def per(numerator_ns: float, denominator: int) -> float:
        return numerator_ns / denominator if denominator else 0.0

    out = {f"{layer}.self_s": self_ns[f"{layer}.self_s"] / 1e9 for layer in LAYERS}
    out["sampling.pool_wait_s"] = self_ns["sampling.pool_wait_s"] / 1e9
    out.update({name: counts[name] for name in COUNTS})  # derived ones are replaced below
    out["chaos.calls"] = calls["chaos"]
    out["gaussian.calls"] = calls["gaussian"]
    out["bounds.useful_ratio"] = per(counts["distinct_tail_x"], counts["bounds.tail_calls"])
    out["sampling.ns_per_normal"] = per(normal_ns, counts["sampling.normals"])
    out["expfun.ns_per_step"] = per(self_ns["expfun.self_s"], counts["expfun.path_steps"])
    out["cli.ns_per_row"] = per(self_ns["cli.self_s"], counts["cli.rows"])
    out["trace.spans"] = len(spans)
    return out


def median_metrics(runs: list[dict]) -> tuple[dict[str, float], bool]:
    """Median of each time over traced runs, the counts of the first run, and
    whether every count repeated in the others."""
    medians = {
        name: runs[0][name] if name in COUNTS else statistics.median(run[name] for run in runs)
        for name in runs[0]
    }
    repeated = all(run[name] == runs[0][name] for run in runs for name in COUNTS)
    return medians, repeated
