"""Command-line entry point: seeded scenarios with bit-stable CSV/JSON output.

Scenarios
---------
stein-check     Stein solution values, ODE residuals, and envelope checks on a
                (z, x) product grid.
chaos-compare   Sample a diagonal chaos, compare the empirical CDF against the
                normal, and certify the discrepancy against the non-uniform
                bound under a chosen tail model.
expfun-compare  The same comparison for the standardized Brownian exponential
                functional, certified against its explicit rate bound.
bound-only      Evaluate a bound curve (no sampling).

Configuration: each scenario has one ordered flag table, `_FLAGS[scenario]`,
mapping a flag to (type or tuple of choices, default, help).  It defines the
argparse flags, the keys a JSON config file may hold, the defaults, the
choices (checked for flag and file values alike) and the order of the JSON
"parameters" echo.  Ranges the library checks are left to it; the CLI checks
only the grids, the output, the options a tail model requires, slack-k
(certify sees it only after sampling) and workers (two scenarios never
sample), all before any sampling starts.  `--tail exact` is the tail of the
rank-one q=2 chaos, `chaos.exact_abs_tail_q2_rank1`; both scenarios that take
it reject another q or rank when they start.

Determinism: for a fixed configuration and seed the output bytes are
identical across runs and across --workers values (sampling is chunked onto
SFC64 substreams keyed by chunk index, each chunk is drawn in cache-sized
blocks in a fixed order, one row per chaos sample or per time step across a
chunk's paths, and reductions run in chunk order, whichever worker ran a
chunk).  --workers defaults to every usable CPU; --workers 1, like a
one-chunk run, samples in this process.  The pool is a work queue of forked
processes on Linux, whatever the multiprocessing start method, and never
holds more processes than chunks or usable CPUs; elsewhere every run samples
in this process.  A worker that dies (a signal, the OOM killer) is an error
that names its chunk.  The JSON summary of chaos-compare and expfun-compare
names the bit generator, chunk size and chunk count.
Each scenario builds its output as one numpy record array whose field names
are the columns.  Floats are written as Python repr writes them (shortest
round-trip, up to 17 significant digits, '.' decimal separator), booleans as
1/0 in CSV and true/false in JSON, strings as they are.  Both formats are
written as bytes through one binary stream, the output file or stdout's
buffer, so they have LF line endings on every platform.  CSV has a header
row and comma separators; it is written in blocks of rows, each formatted in
numpy (`_floattext`, byte-equal to repr) and written as it is made.  JSON
goes through json.dumps (ASCII), uses the documented insertion order and
omits file paths so output is byte-comparable across locations.

Memory: chaos-compare and expfun-compare never hold the sample array.  Each
chunk's job reduces its samples to integer counts at the z grid and at
+-|z|/2, the only points where the ECDF and the empirical tail are read,
and the run sums those counts; memory is O(chunk) whatever --samples is.

Exit codes: 0 success, 2 certification violation, 1 usage or runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from . import bounds, chaos, empirical, expfun, gaussian, sampling

__all__ = ["main", "run", "parse_config", "UsageError"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1e3 or -1e-3,1 is a number, not an option (argparse
        # on Python 3.10 and 3.11 takes only -1 and -1.5 as negative numbers);
        # subparsers are built by this class too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,|$)")

    # argparse exits 2 on usage errors; 2 is reserved for certification failures
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# Flag groups, spliced into one ordered table per scenario (_FLAGS): flag ->
# (type or tuple of choices, default, help).  Table order is JSON "parameters" order.
def _z_grid(lo: float, hi: float, count: int) -> dict:
    return {
        "z-min": (float, lo, "left end of the z grid"),
        "z-max": (float, hi, "right end of the z grid"),
        "z-count": (int, count, "number of z grid points"),
    }


_OUTPUT = {
    "output": (str, None, "output file path ('-' for stdout)"),
    "format": (("csv", "json"), "csv", "output format"),
    "workers": (int, None, "sampling processes (default: every usable CPU; 1 samples in this process); "
                "at most one per chunk and per usable CPU (does not affect output bytes)"),
}
_SAMPLES = {
    "seed": (int, 0, "seed of the SFC64 substream family"),
    "samples": (int, 100_000, "number of Monte Carlo samples / paths"),
}
_SLACK = {"slack-k": (float, 3.0, "certification slack in binomial standard errors")}
_TAIL_CONSTANTS = {
    "c-q": (float, None, "chaos concentration constant (required for --tail major)"),
    "markov-p": (float, 6.0, "Markov tail exponent"),
    "markov-moment": (float, None, "E|F|^p (required for --tail markov)"),
}
_EXPFUN = {
    "a": (float, 0.0, "drift of the exponential functional"),
    "t": (float, 0.1, "time horizon (> 0)"),
}

_FLAGS = {
    "stein-check": {
        **_z_grid(-6.0, 6.0, 49), **_OUTPUT,
        "x-min": (float, -10.0, "left end of the x grid"),
        "x-max": (float, 10.0, "right end of the x grid"),
        "x-count": (int, 2001, "number of x grid points"),
    },
    "chaos-compare": {
        **_SAMPLES, **_z_grid(-8.0, 8.0, 161), **_OUTPUT, **_SLACK,
        "q": (int, 2, "chaos order (>= 2)"),
        "alphas": (str, "1", "comma-separated kernel coefficients"),
        "tail": (("exact", "markov", "major", "empirical", "unit"), "exact", "tail model"),
        **_TAIL_CONSTANTS,
    },
    "expfun-compare": {
        **_SAMPLES, **_z_grid(-5.0, 5.0, 101), **_OUTPUT, **_SLACK, **_EXPFUN,
        "n-steps": (int, None, "path discretization steps (default 2000 * t / 0.1)"),
    },
    "bound-only": {
        **_z_grid(-8.0, 8.0, 161), **_OUTPUT,
        "mean-abs": (float, 0.0, "|E F| input of the bound"),
        "discrepancy": (float, None, "Stein discrepancy input of the bound (required)"),
        "tail": (("exact", "markov", "major", "expfun", "unit"), "unit", "tail model"),
        "q": (int, 2, "chaos order for --tail major (--tail exact requires 2)"),
        **_TAIL_CONSTANTS, **_EXPFUN,
    },
}


def _type(kind):
    return str if isinstance(kind, tuple) else kind


def _build_parser() -> _Parser:
    parser = _Parser(prog="nubes", description="non-uniform Berry-Esseen bound scenarios")
    sub = parser.add_subparsers(dest="scenario", metavar="SCENARIO")
    for name, table in _FLAGS.items():
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=str, default=None, help="JSON config file (flags override it)")
        for flag, (kind, _, help_text) in table.items():
            if isinstance(kind, tuple):
                help_text = f"{help_text}: {', '.join(kind)}"
            p.add_argument(f"--{flag}", dest=flag, type=_type(kind), default=None, help=help_text)
    return parser


def _coerce(key: str, value, conv):
    # the converters would turn true into 1, 1.7 into 1 and null into 'None'
    if key == "alphas" and isinstance(value, list):
        if not all(type(v) in (int, float) for v in value):  # bool is not one of them
            raise UsageError(f"config key 'alphas': expected a list of numbers, got {json.dumps(value)}")
        return ",".join(repr(float(v)) for v in value)
    if conv is str and not isinstance(value, str):
        raise UsageError(f"config key '{key}': expected a string, got {json.dumps(value)}")
    if conv is not str and isinstance(value, bool):
        raise UsageError(f"config key '{key}': expected a number, got {json.dumps(value)}")
    if conv is int and isinstance(value, float) and not value.is_integer():
        raise UsageError(f"config key '{key}': expected an integer, got {json.dumps(value)}")
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key '{key}': cannot interpret {value!r}: {exc}") from exc


def parse_config(argv: Sequence[str]) -> dict:
    """Resolve scenario + settings from argv and an optional JSON config file."""
    ns = _build_parser().parse_args(list(argv))
    if ns.scenario is None:
        raise UsageError(f"a scenario is required: one of {', '.join(_FLAGS)}")
    table = _FLAGS[ns.scenario]
    cfg = {flag: default for flag, (_, default, _) in table.items()}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file {ns.config}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not UTF-8
            raise UsageError(f"config file {ns.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {ns.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(table))
        if unknown:
            raise UsageError(f"unknown config key(s) for {ns.scenario}: {', '.join(unknown)}")
        for key, value in file_cfg.items():
            cfg[key] = _coerce(key, value, _type(table[key][0]))
    cfg.update((flag, value) for flag, value in vars(ns).items() if flag in table and value is not None)
    for flag, (kind, _, _) in table.items():
        if isinstance(kind, tuple) and cfg[flag] not in kind:
            raise UsageError(f"--{flag} must be one of {', '.join(kind)}; got {cfg[flag]!r}")
    cfg["scenario"] = ns.scenario
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    # only what the library cannot check before the work starts
    scenario = cfg["scenario"]
    if cfg["output"] is None:
        raise UsageError("--output is required")
    if cfg["z-count"] < 1:
        raise UsageError(f"--z-count must be >= 1, got {cfg['z-count']}")
    _check_span(cfg, "z-min", "z-max")
    if cfg["workers"] is not None and cfg["workers"] < 1:  # stein-check and bound-only never reach the sampler
        raise UsageError(f"--workers must be >= 1, got {cfg['workers']}")
    if not 0.0 <= cfg.get("slack-k", 0.0) < math.inf:  # certify sees k only after sampling
        raise UsageError(f"--slack-k must be finite and >= 0, got {cfg['slack-k']}")
    if scenario == "stein-check":
        if cfg["x-count"] < 1:
            raise UsageError(f"--x-count must be >= 1, got {cfg['x-count']}")
        _check_span(cfg, "x-min", "x-max")
    if scenario == "chaos-compare":
        _parse_alphas(cfg["alphas"])
    if scenario == "bound-only" and cfg["discrepancy"] is None:
        raise UsageError("--discrepancy is required for bound-only")
    needed = {"markov": "markov-moment", "major": "c-q"}.get(cfg.get("tail"))
    if needed is not None and cfg[needed] is None:
        raise UsageError(f"--tail {cfg['tail']} requires --{needed}")


def _check_span(cfg: dict, lo: str, hi: str):
    a, b = cfg[lo], cfg[hi]
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise UsageError(f"--{lo} and --{hi} must be finite and in order, got {a} and {b}")
    if b - a == math.inf:  # else np.linspace warns and makes nan
        raise UsageError(f"--{hi} minus --{lo} overflows: a grid from {a} to {b} is too wide to step")


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--alphas must be a comma-separated list of numbers, got {text!r}") from exc


_BLOCK_CELLS = 8192  # float cells formatted at a time


def _text_cells(column: np.ndarray, sep: int) -> np.ndarray:
    """Cells of a column that is not float, with their separator, as a (rows,
    width) uint8 array padded with zero bytes: booleans as 1/0, others by
    str.  Each distinct value is formatted once."""
    distinct, index = np.unique(column.astype(np.uint8) if column.dtype == bool else column, return_inverse=True)
    cells = [f"{value}".encode() + bytes([sep]) for value in distinct.tolist()]
    return np.array(cells, dtype=bytes).view(np.uint8).reshape(len(cells), -1)[index]


def _write_csv(stream, rows: np.recarray):
    """Write the header and then each block of rows, as it is made, to the binary stream.

    A block's cells sit in fixed-width zero-padded slots, one row of the
    block after another; dropping the zero bytes leaves the CSV text."""
    from . import _floattext  # imported here, so runs that write no CSV skip compiling it (a few ms)

    names = rows.dtype.names
    stream.write((",".join(names) + "\n").encode())
    seps = [ord(",")] * (len(names) - 1) + [ord("\n")]
    floats = [i for i, name in enumerate(names) if rows.dtype[name].kind == "f"]
    block = _BLOCK_CELLS // max(len(floats), 1)
    cells = _floattext.Cells(block * len(floats))
    float_seps = np.array([seps[i] for i in floats], dtype=np.uint64)
    for start in range(0, len(rows), block):
        part = rows[start:start + block]
        slots = {}
        if floats:
            values = np.stack([part[names[i]] for i in floats], axis=1)
            made = cells(values, float_seps).reshape(len(part), len(floats), _floattext.SLOT)
            slots = {i: made[:, j] for j, i in enumerate(floats)}
        text = np.concatenate([slots[i] if i in slots else _text_cells(part[name], seps[i])
                               for i, name in enumerate(names)], axis=1)
        stream.write(text[text != 0])


def _write(cfg: dict, summary: dict, rows: np.recarray):
    if cfg["output"] == "-":
        sys.stdout.flush()  # text already written to sys.stdout goes out first
        out = contextlib.nullcontext(sys.stdout.buffer)
    else:
        out = open(cfg["output"], "wb")
    with out as stream:
        if cfg["format"] == "csv":
            _write_csv(stream, rows)
        else:
            # parameters echoed in JSON exclude file paths and the worker count, so
            # bytes depend on neither where the output lands nor how it was computed
            params = {k: v for k, v in cfg.items() if k not in ("output", "format", "scenario", "workers")}
            payload = {
                "scenario": cfg["scenario"],
                "parameters": params,
                "columns": list(rows.dtype.names),
                "rows": rows.tolist(),
                "summary": summary,
            }
            stream.write((json.dumps(payload, indent=2) + "\n").encode())
        stream.flush()


def _run_stein_check(cfg: dict) -> int:
    zs = np.linspace(cfg["z-min"], cfg["z-max"], cfg["z-count"])
    xs = np.linspace(cfg["x-min"], cfg["x-max"], cfg["x-count"])
    kernels = (gaussian.stein_value, gaussian.stein_derivative, gaussian.stein_ode_residual_fd)
    values = [kernel(zs[:, None], xs).ravel() for kernel in kernels]
    # the envelope estimates are stated for z > 0; other rows get no flags
    positive = zs > 0.0
    rep = gaussian.check_lemma(zs[positive], xs)
    digits = np.where([rep.global_bound_ok, rep.center_value_ok, rep.center_derivative_ok], "1", "0")
    flags = np.full(zs.size, "", dtype="U3")
    flags[positive] = np.char.add(np.char.add(digits[0], digits[1]), digits[2])
    rows = np.rec.fromarrays(
        [np.repeat(zs, xs.size), np.tile(xs, zs.size), *values, np.repeat(flags, xs.size)],
        names="z,x,f,f_prime,ode_residual,lemma_flags",
    )
    all_ok = bool(np.all(flags[positive] == "111"))
    _write(cfg, {"all_envelope_checks_ok": all_ok}, rows)
    return 0 if all_ok else 2


def _tail_model(cfg: dict):
    """The tail cfg names, a callable on arrays of x >= 0; None for empirical,
    which is built from the run's counts."""
    kind = cfg["tail"]
    if kind == "exact":
        if not (cfg["q"] == 2 and len(_parse_alphas(cfg.get("alphas", "1"))) == 1):
            raise UsageError("--tail exact requires the rank-one q=2 chaos (--q 2 --alphas <one value>)")
        return chaos.exact_abs_tail_q2_rank1
    if kind == "markov":
        return bounds.MarkovTail(p=cfg["markov-p"], moment_p=cfg["markov-moment"])
    if kind == "major":
        return bounds.MajorChaosTail(q=cfg["q"], c_q=cfg["c-q"])
    if kind == "expfun":
        params = expfun.ExpFunParams(a=cfg["a"], t=cfg["t"])
        return functools.partial(expfun.abs_tail_bound, params=params, m=expfun.moments(params))
    return None if kind == "empirical" else np.ones_like


def _compare(cfg: dict, sample_batch, transform, bound, summary: dict) -> int:
    """Certify the samples of sample_batch(reduce=...) against bound(zs, counts)
    on the z grid and write the table with `summary`, whose `violations` slot
    is filled here.  Each chunk is passed through `transform` and reduced to
    its counts at the z grid and at +-|z|/2 inside its own job."""
    zs = np.linspace(cfg["z-min"], cfg["z-max"], cfg["z-count"])
    half = np.abs(zs) / 2.0  # where the bound reads the tail
    # np.unique's values, sorted and each once, without np.unique, which imports numpy.ma (10-17 ms)
    thresholds = np.sort(np.concatenate([zs, half, -half]))
    thresholds = thresholds[np.concatenate([[True], thresholds[1:] != thresholds[:-1]])]
    reduce = functools.partial(empirical.count_chunk, thresholds=thresholds, transform=transform)
    counts = empirical.ThresholdCounts(thresholds, sample_batch(reduce=reduce), n=cfg["samples"])
    report = empirical.certify(empirical.discrepancy_curve(counts, zs), bound(zs, counts), k=cfg["slack-k"])
    r = report.rows
    columns = [r.z, r.empirical_cdf, r.normal_cdf, r.discrepancy, r.standard_error, r.bound,
               np.full(len(r), summary["uniform_bound"]), r.violated]
    summary["violations"] = report.n_violations
    names = "z,empirical_cdf,normal_cdf,discrepancy,se,bound,uniform_bound,violated"
    _write(cfg, summary, np.rec.fromarrays(columns, names=names))
    return report.exit_status


def _run_chaos_compare(cfg: dict) -> int:
    spec = chaos.normalize(chaos.DiagonalChaosSpec(q=cfg["q"], alphas=_parse_alphas(cfg["alphas"])))
    tail = _tail_model(cfg)
    m4 = chaos.fourth_moment(spec)
    d = chaos.stein_discrepancy_upper(m4, spec.q)
    summary = {"fourth_moment": m4, "stein_discrepancy": d, "uniform_bound": d, "violations": None,
               "sampling": sampling.layout(cfg["samples"], chaos.SAMPLE_CHUNK), "numpy": np.__version__}
    sample_batch = functools.partial(chaos.sample_batch, spec, cfg["samples"], cfg["seed"], workers=cfg["workers"])

    def bound(zs, counts):
        model = bounds.EmpiricalTail(counts) if tail is None else tail
        inputs = bounds.BoundInputs(mean_abs=0.0, stein_discrepancy=d, tail=model)
        return bounds.evaluate_curve(inputs, zs).bounds

    return _compare(cfg, sample_batch, None, bound, summary)


def _run_expfun_compare(cfg: dict) -> int:
    params = expfun.ExpFunParams(a=cfg["a"], t=cfg["t"])
    n_steps = cfg["n-steps"] if cfg["n-steps"] is not None else expfun.default_n_steps(params.t)
    m = expfun.moments(params)
    summary = {"m_t": m.m_t, "sigma2_t": m.sigma2_t, "n_steps": n_steps,
               "uniform_bound": math.sqrt(expfun.discrepancy_sq_upper(params, m)), "violations": None,
               "note": "bound targets the exact law; sampled paths carry unquantified discretization bias",
               "sampling": sampling.layout(cfg["samples"], expfun.PATH_CHUNK), "numpy": np.__version__}
    sample_batch = functools.partial(
        expfun.sample_batch, params, n_steps, cfg["samples"], cfg["seed"], workers=cfg["workers"]
    )
    standardize = functools.partial(expfun.standardize, m=m)
    return _compare(cfg, sample_batch, standardize, lambda zs, _: expfun.clt_rate_bound(params, m, zs), summary)


def _run_bound_only(cfg: dict) -> int:
    tail = _tail_model(cfg)
    inputs = bounds.BoundInputs(mean_abs=cfg["mean-abs"], stein_discrepancy=cfg["discrepancy"], tail=tail)
    curve = bounds.evaluate_curve(inputs, np.linspace(cfg["z-min"], cfg["z-max"], cfg["z-count"]))
    uniform = bounds.uniform_bound(inputs)
    columns = [curve.z, curve.tail_term, curve.gaussian_term, curve.bounds, np.full(curve.z.size, uniform)]
    rows = np.rec.fromarrays(columns, names="z,tail_term,gaussian_term,bound,uniform_bound")
    _write(cfg, {"uniform_bound": uniform}, rows)
    return 0


_RUNNERS = {
    "stein-check": _run_stein_check,
    "chaos-compare": _run_chaos_compare,
    "expfun-compare": _run_expfun_compare,
    "bound-only": _run_bound_only,
}


def run(cfg: dict) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    return _RUNNERS[cfg["scenario"]](cfg)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code if isinstance(exc.code, int) else 1
    except UsageError as exc:
        print(f"nubes: error: {exc}", file=sys.stderr)
        return 1
    # only run raises these (parse_config raises UsageError); a dead pool worker is a ChildProcessError
    except (ValueError, OSError) as exc:
        print(f"nubes: error in scenario {cfg['scenario']}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
