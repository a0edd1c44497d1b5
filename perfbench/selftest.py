"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs every workload once at its tiny size, in a fresh process as the
   benchmark does, and requires its output to pass its oracle.
2. Corrupts each of those outputs in several ways a defect could, and
   requires the same oracle to reject every corrupted copy.
3. Runs one tiny workload traced and requires the same output bytes and
   nonzero per-layer counts.
4. Requires BENCHMARK.json to name the workloads and metrics defined here.

Prints one line per check and exits 0 only if all of them hold.
"""

from __future__ import annotations

import json
import shutil
import sys

import oracles
import run
import tracer
from workloads import CHAOS_ALPHAS, WORKLOADS

SEED = 7


def _csv_edit(row: int | None, column: int, edit):
    """Edit one field of data row `row`, or of every data row if `row` is None."""
    def mutate(text: str) -> str:
        lines = text.split("\n")
        for i in range(1, len(lines) - 1) if row is None else (1 + row,):
            fields = lines[i].split(",")
            fields[column] = edit(fields[column])
            lines[i] = ",".join(fields)
        return "\n".join(lines)
    return mutate


def _json_edit(edit):
    def mutate(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, indent=2) + "\n"
    return mutate


def _scale(factor: float):
    return lambda field: repr(float(field) * factor)


def _drop_last_csv_row(text: str) -> str:
    return "\n".join(text.split("\n")[:-2]) + "\n"


def _set(path: tuple, value):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]])
    return edit


def _chaos_far_moment(_old):
    want, se = oracles.chaos_fourth_moment(3, tuple(map(float, CHAOS_ALPHAS.split(","))), 100_000)
    return want + 2 * oracles.FOURTH_MOMENT_K * se


CORRUPTIONS = {
    "expfun-paths": [
        ("m_t off by 1e-9", _json_edit(_set(("summary", "m_t"), lambda v: v * (1 + 1e-9)))),
        ("bound at z=0 off by 1e-9", _json_edit(_set(("rows", 50, 5), lambda v: v * (1 + 1e-9)))),
        ("a violation reported", _json_edit(_set(("summary", "violations"), lambda v: 1))),
        ("last row dropped", _json_edit(lambda doc: doc["rows"].pop())),
    ],
    "chaos-certify": [
        ("fourth moment far from the closed form", _json_edit(_set(("summary", "fourth_moment"), _chaos_far_moment))),
        ("bound at z=-8 scaled by 1.001", _json_edit(_set(("rows", 0, 5), lambda v: v * 1.001))),
        ("ECDF at z=0 moved by 1/n", _json_edit(_set(("rows", 80, 1), lambda v: v + 1e-5))),
        ("a point flagged violated", _json_edit(_set(("rows", 3, 7), lambda v: True))),
    ],
    "bound-grid": [
        ("tail_term off by 1e-9", _csv_edit(195, 1, _scale(1 + 1e-9))),
        ("bound off by 1e-9", _csv_edit(200, 3, _scale(1 + 1e-9))),
        ("z column shifted", _csv_edit(5, 0, lambda f: repr(float(f) + 1e-6))),
        ("last row dropped", _drop_last_csv_row),
    ],
    "stein-grid": [
        ("lemma flag cleared at z > 0", _csv_edit(8 * 2001 + 5, 5, lambda f: "110")),
        ("ODE residual of 1e-6", _csv_edit(3, 4, lambda f: "1e-06")),
        ("every f off by 1e-9", _csv_edit(None, 2, _scale(1 + 1e-9))),
        ("last row dropped", _drop_last_csv_row),
    ],
}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    failures = []

    def verdict(ok: bool, text: str):
        print(("ok    " if ok else "FAIL  ") + text)
        if not ok:
            failures.append(text)

    for name, workload in WORKLOADS.items():
        case = workload.case(SEED, True)
        try:
            record = run.run_sample(case, None, set())
        except run.SampleFailed as exc:
            verdict(False, f"{name}: tiny run passes its oracle ({exc})")
            continue
        verdict(True, f"{name}: tiny run passes its oracle")
        output = run.OUT / f"output.{case.ext}"
        text = output.read_text(encoding="utf-8")
        corrupted = run.OUT / f"corrupted.{case.ext}"
        for label, mutate in CORRUPTIONS[name]:
            corrupted.write_text(mutate(text), encoding="utf-8")
            try:
                case.check(str(corrupted))
                verdict(False, f"{name}: rejects an output with {label}")
            except oracles.CheckFailed as exc:
                verdict(True, f"{name}: rejects an output with {label} ({exc})")
        corrupted.unlink()

        if name == "expfun-paths":  # traced: spans come from the pool workers too
            trace_dir = run.OUT / "selftest-spans"
            shutil.rmtree(trace_dir, ignore_errors=True)
            traced = run.run_sample(case, trace_dir, set())
            verdict(traced["sha256"] == record["sha256"], f"{name}: tracing leaves the output bytes unchanged")
            layers = tracer.layer_metrics(*tracer.load(trace_dir))
            shutil.rmtree(trace_dir)
            verdict(layers["sampling.normals"] == layers["expfun.path_steps"] == case.work,
                    f"{name}: traced counts see every normal and path step in the pool workers")

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    verdict(all(w["name"] in WORKLOADS and w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"]),
            "BENCHMARK.json lists workloads defined here, with their reasons")
    verdict([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
            "BENCHMARK.json lists the end-to-end metrics with their units")
    verdict([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER),
            "BENCHMARK.json lists the per-layer metrics with their units")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
