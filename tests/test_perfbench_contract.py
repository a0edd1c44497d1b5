"""The benchmark harness still runs against the library.

The tracer in perfbench/ hooks the library by name: the `bounds.TailModel`
subclasses, `EmpiricalTail.from_samples(cls, samples)`,
`EmpiricalCdf.evaluate`, the `grid` and `samples` parameters, and
`cli._write(cfg, summary, rows)`, whose first and third positional arguments
it reads for `cli.output_bytes` and `cli.rows` (so `rows` must be `len()`-able).
A refactor that renames or reorders one of them breaks the benchmark, not the
library, so these checks run the harness itself in fresh interpreters and
compare the traced counts with the run they describe.

The sampling counts need more of the same: the per-chunk samplers draw from
the generator that `sampling.substream` returns, with the array size passed
as `size` (the tracer counts normals from it); they call the module-level
`chaos.hermite` and `expfun.integral_from_increments`, whose `x` and
`increments` sizes give `chaos.hermite_elems` and `expfun.path_steps`; and
`map_chunks` takes `workers` as its sixth positional argument.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracer  # noqa: E402


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _traced(cli_args: list, tmp_path: Path) -> tuple[dict, Path]:
    """Layer metrics of one traced child run, and its output file."""
    record_path, trace_dir, output = tmp_path / "record.json", tmp_path / "spans", tmp_path / "out"
    trace_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(time.perf_counter_ns()), str(record_path),
         str(trace_dir), "--", *cli_args, "--output", str(output)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(record_path.read_text())["rc"] == 0
    assert list(trace_dir.glob("spans-*.json"))
    assert output.stat().st_size > 0
    return tracer.layer_metrics(*tracer.load(str(trace_dir))), output


@pytest.mark.parametrize(
    "cli_args, z_count",
    [
        (["bound-only", "--discrepancy", "1.4142135623730951", "--tail", "exact", "--z-count", "41"], 41),
        (["chaos-compare", "--q", "3", "--alphas", "1,0.5", "--tail", "empirical",
          "--samples", "2000", "--z-count", "21", "--format", "json"], 21),
        (["bound-only", "--discrepancy", "1", "--tail", "expfun", "--t", "0.05", "--z-count", "41"], 41),
    ],
    ids=["bound-only-exact", "chaos-compare-empirical", "bound-only-expfun"],
)
def test_traced_run(cli_args, z_count, tmp_path):
    metrics, output = _traced(cli_args, tmp_path)
    assert metrics["cli.rows"] == z_count
    assert metrics["cli.output_bytes"] == output.stat().st_size
    untraced = subprocess.run([sys.executable, "-m", "nubes", *cli_args, "--output", "-"],
                              cwd=ROOT, env=_env(), capture_output=True, timeout=120)
    assert untraced.returncode == 0 and untraced.stdout == output.read_bytes()


@pytest.mark.parametrize(
    "cli_args, samples, width, layer_count",
    [
        # 5,003 paths are two chunks (4,096 + 907), so the two pool workers draw them
        (["expfun-compare", "--t", "0.05", "--n-steps", "20", "--samples", "5003", "--workers", "2",
          "--z-count", "11", "--format", "json"], 5003, 20, "expfun.path_steps"),
        (["chaos-compare", "--q", "3", "--alphas", "1,0.5,0.25", "--tail", "empirical",
          "--samples", "3001", "--z-count", "11", "--format", "json"], 3001, 3, "chaos.hermite_elems"),
    ],
    ids=["expfun-compare-workers-2", "chaos-compare"],
)
def test_traced_sampling_counts(cli_args, samples, width, layer_count, tmp_path):
    metrics, output = _traced(cli_args, tmp_path)
    assert metrics["sampling.normals"] == samples * width
    assert metrics[layer_count] == samples * width
    assert metrics["sampling.chunks"] == json.loads(output.read_text())["summary"]["sampling"]["chunks"]
