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

Determinism: for a fixed configuration and seed the output bytes are
identical across runs and across --workers values (sampling is chunked onto
Philox substreams keyed by chunk index, each chunk is drawn in row blocks in
row order, and reductions run in chunk order; the pool never holds more
processes than chunks or usable CPUs).  The JSON summary of chaos-compare
and expfun-compare names the bit generator, chunk size and chunk count.
Each scenario builds its output as one numpy record array whose field names
are the columns.  Floats are serialized with Python repr (shortest
round-trip, up to 17 significant digits, '.' decimal separator), booleans as
1/0 in CSV and true/false in JSON, strings as they are.  CSV uses a header
row, comma separators, and LF line endings.  JSON uses the documented
insertion order and omits file paths so output is byte-comparable across
locations.

Exit codes: 0 success, 2 certification violation, 1 usage or runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import bounds, chaos, empirical, expfun, gaussian, sampling

__all__ = ["main", "run", "parse_config", "UsageError"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for certification failures
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# flag name -> (type converter, help); merged per scenario below
_COMMON = {
    "z-min": (float, "left end of the z grid"),
    "z-max": (float, "right end of the z grid"),
    "z-count": (int, "number of z grid points"),
    "output": (str, "output file path ('-' for stdout)"),
    "format": (str, "output format: csv or json"),
    "workers": (int, "sampling processes; at most one per chunk and per usable CPU (does not affect output bytes)"),
}

# the scenarios that sample and certify
_SAMPLED = {
    "seed": (int, "seed of the Philox substream family"),
    "samples": (int, "number of Monte Carlo samples / paths"),
    "slack-k": (float, "certification slack in binomial standard errors"),
}

_SCENARIO_FLAGS = {
    "stein-check": {
        "x-min": (float, "left end of the x grid"),
        "x-max": (float, "right end of the x grid"),
        "x-count": (int, "number of x grid points"),
    },
    "chaos-compare": {
        **_SAMPLED,
        "q": (int, "chaos order (>= 2)"),
        "alphas": (str, "comma-separated kernel coefficients"),
        "tail": (str, "tail model: exact, markov, major, empirical, unit"),
        "c-q": (float, "chaos concentration constant (required for --tail major)"),
        "markov-p": (float, "Markov tail exponent"),
        "markov-moment": (float, "E|F|^p for the Markov tail"),
    },
    "expfun-compare": {
        **_SAMPLED,
        "a": (float, "drift of the exponential functional"),
        "t": (float, "time horizon (> 0)"),
        "n-steps": (int, "path discretization steps (default 2000 * t / 0.1)"),
    },
    "bound-only": {
        "mean-abs": (float, "|E F| input of the bound"),
        "discrepancy": (float, "Stein discrepancy input of the bound (required)"),
        "tail": (str, "tail model: exact, markov, major, expfun, unit"),
        "q": (int, "chaos order for --tail major"),
        "c-q": (float, "chaos concentration constant for --tail major"),
        "markov-p": (float, "Markov tail exponent"),
        "markov-moment": (float, "E|F|^p for the Markov tail"),
        "a": (float, "drift, for --tail expfun"),
        "t": (float, "horizon, for --tail expfun"),
    },
}

_DEFAULTS = {
    "stein-check": {
        "z-min": -6.0, "z-max": 6.0, "z-count": 49,
        "output": None, "format": "csv", "workers": 1,
        "x-min": -10.0, "x-max": 10.0, "x-count": 2001,
    },
    "chaos-compare": {
        "seed": 0, "samples": 100_000, "z-min": -8.0, "z-max": 8.0, "z-count": 161,
        "output": None, "format": "csv", "slack-k": 3.0, "workers": 1,
        "q": 2, "alphas": "1", "tail": "exact", "c-q": None,
        "markov-p": 6.0, "markov-moment": None,
    },
    "expfun-compare": {
        "seed": 0, "samples": 100_000, "z-min": -5.0, "z-max": 5.0, "z-count": 101,
        "output": None, "format": "csv", "slack-k": 3.0, "workers": 1,
        "a": 0.0, "t": 0.1, "n-steps": None,
    },
    "bound-only": {
        "z-min": -8.0, "z-max": 8.0, "z-count": 161,
        "output": None, "format": "csv", "workers": 1,
        "mean-abs": 0.0, "discrepancy": None, "tail": "unit",
        "q": 2, "c-q": None, "markov-p": 6.0, "markov-moment": None,
        "a": 0.0, "t": 0.1,
    },
}

SCENARIOS = tuple(_DEFAULTS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nubes", description="non-uniform Berry-Esseen bound scenarios")
    sub = parser.add_subparsers(dest="scenario", metavar="SCENARIO")
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=str, default=None, help="JSON config file (flags override it)")
        flags = dict(_COMMON)
        flags.update(_SCENARIO_FLAGS[name])
        for flag, (conv, help_text) in flags.items():
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=conv, default=None, help=help_text)
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
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    if ns.scenario is None:
        raise UsageError(f"a scenario is required: one of {', '.join(SCENARIOS)}")
    scenario = ns.scenario
    allowed = dict(_COMMON)
    allowed.update(_SCENARIO_FLAGS[scenario])

    cfg = dict(_DEFAULTS[scenario])
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file {ns.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {ns.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {ns.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(allowed))
        if unknown:
            raise UsageError(f"unknown config key(s) for {scenario}: {', '.join(unknown)}")
        for key, value in file_cfg.items():
            cfg[key] = _coerce(key, value, allowed[key][0])
    for flag in allowed:
        value = getattr(ns, flag.replace("-", "_"))
        if value is not None:
            cfg[flag] = value

    cfg["scenario"] = scenario
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    scenario = cfg["scenario"]
    if cfg["output"] is None:
        raise UsageError("--output is required")
    if cfg["format"] not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {cfg['format']!r}")
    if cfg["z-count"] < 1:
        raise UsageError(f"--z-count must be >= 1, got {cfg['z-count']}")
    if not cfg["z-min"] <= cfg["z-max"]:
        raise UsageError(f"--z-min must be <= --z-max, got {cfg['z-min']} > {cfg['z-max']}")
    if cfg["workers"] < 1:
        raise UsageError(f"--workers must be >= 1, got {cfg['workers']}")
    if scenario in ("chaos-compare", "expfun-compare"):
        if cfg["seed"] < 0:
            raise UsageError(f"--seed must be >= 0, got {cfg['seed']}")
        if cfg["slack-k"] < 0:
            raise UsageError(f"--slack-k must be >= 0, got {cfg['slack-k']}")
        if cfg["samples"] < 1:
            raise UsageError(f"--samples must be >= 1, got {cfg['samples']}")
    if scenario == "stein-check":
        if cfg["x-count"] < 1:
            raise UsageError(f"--x-count must be >= 1, got {cfg['x-count']}")
        if not cfg["x-min"] <= cfg["x-max"]:
            raise UsageError("--x-min must be <= --x-max")
    if scenario == "chaos-compare":
        _parse_alphas(cfg["alphas"])
        if cfg["tail"] not in ("exact", "markov", "major", "empirical", "unit"):
            raise UsageError(f"--tail must be one of exact, markov, major, empirical, unit; got {cfg['tail']!r}")
    if scenario == "bound-only":
        if cfg["discrepancy"] is None:
            raise UsageError("--discrepancy is required for bound-only")
        if cfg["tail"] not in ("exact", "markov", "major", "expfun", "unit"):
            raise UsageError(f"--tail must be one of exact, markov, major, expfun, unit; got {cfg['tail']!r}")


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(part) for part in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"--alphas must be a comma-separated list of numbers, got {text!r}") from exc
    if not alphas:
        raise UsageError("--alphas must be nonempty")
    return alphas


def _cells(column: np.ndarray) -> list[str]:
    values = column.tolist()
    if column.dtype == bool:
        return ["1" if v else "0" for v in values]
    return list(map(repr, values)) if column.dtype.kind == "f" else values


def _write(cfg: dict, summary: dict, rows: np.recarray):
    # parameters echoed in JSON exclude file paths and the worker count, so
    # bytes depend on neither where the output lands nor how it was computed
    params = {k: v for k, v in cfg.items() if k not in ("output", "format", "scenario", "workers")}
    columns = list(rows.dtype.names)
    if cfg["format"] == "csv":
        lines = [",".join(columns)]
        lines.extend(map(",".join, zip(*(_cells(rows[name]) for name in columns))))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "scenario": cfg["scenario"],
            "parameters": params,
            "columns": columns,
            "rows": rows.tolist(),
            "summary": summary,
        }
        text = json.dumps(payload, indent=2) + "\n"
    if cfg["output"] == "-":
        sys.stdout.write(text)
    else:
        with open(cfg["output"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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


def _tail_model(cfg: dict, spec=None, ecdf=None) -> bounds.TailModel:
    kind = cfg["tail"]
    if kind == "unit":
        return bounds.UnitTail()
    if kind == "exact":
        if spec is not None and not (spec.q == 2 and len(spec.alphas) == 1):
            raise UsageError("--tail exact requires the rank-one q=2 chaos (--q 2 --alphas <one value>)")
        return bounds.ExactCdfTail(cdf=chaos.exact_cdf_q2_rank1)
    if kind == "markov":
        if cfg["markov-moment"] is None:
            raise UsageError("--tail markov requires --markov-moment")
        return bounds.MarkovTail(p=cfg["markov-p"], moment_p=cfg["markov-moment"])
    if kind == "major":
        if cfg["c-q"] is None:
            raise UsageError("--tail major requires --c-q")
        q = spec.q if spec is not None else cfg["q"]
        return bounds.MajorChaosTail(q=q, c_q=cfg["c-q"])
    if kind == "empirical":
        if ecdf is None:
            raise UsageError("--tail empirical is only available in chaos-compare")
        return bounds.EmpiricalTail(sorted_samples=ecdf.sorted_samples)
    if kind == "expfun":
        params = expfun.ExpFunParams(a=cfg["a"], t=cfg["t"])
        return bounds.ExpFunTail(params=params, moments=expfun.moments(params))
    raise UsageError(f"unknown tail model {kind!r}")


def _compare_rows(report: empirical.CertifyReport, uniform: float) -> np.recarray:
    r = report.rows
    columns = [r.z, r.empirical_cdf, r.normal_cdf, r.discrepancy, r.standard_error, r.bound,
               np.full(len(r), uniform), r.violated]
    return np.rec.fromarrays(columns, names="z,empirical_cdf,normal_cdf,discrepancy,se,bound,uniform_bound,violated")


def _run_chaos_compare(cfg: dict) -> int:
    spec = chaos.normalize(chaos.DiagonalChaosSpec(q=cfg["q"], alphas=_parse_alphas(cfg["alphas"])))
    samples = chaos.sample_batch(spec, cfg["samples"], cfg["seed"], workers=cfg["workers"])
    m4 = chaos.fourth_moment(spec)
    d = chaos.stein_discrepancy_upper(m4, spec.q)
    ecdf = empirical.build_ecdf(samples)
    tail = _tail_model(cfg, spec=spec, ecdf=ecdf)
    zs = np.linspace(cfg["z-min"], cfg["z-max"], cfg["z-count"])
    inputs = bounds.BoundInputs(mean_abs=0.0, stein_discrepancy=d, tail=tail)
    bound_curve = bounds.evaluate_curve(inputs, zs)
    curve = empirical.discrepancy_curve(ecdf, zs)
    report = empirical.certify(curve, bound_curve.bounds, k=cfg["slack-k"])
    summary = {
        "fourth_moment": m4,
        "stein_discrepancy": d,
        "uniform_bound": bounds.uniform_bound(inputs),
        "violations": report.n_violations,
        "sampling": sampling.layout(cfg["samples"], chaos.SAMPLE_CHUNK),
    }
    _write(cfg, summary, _compare_rows(report, summary["uniform_bound"]))
    return report.exit_status


def _run_expfun_compare(cfg: dict) -> int:
    params = expfun.ExpFunParams(a=cfg["a"], t=cfg["t"])
    n_steps = cfg["n-steps"] if cfg["n-steps"] is not None else expfun.default_n_steps(params.t)
    path_cfg = expfun.PathConfig(n_steps=n_steps)
    m = expfun.moments(params)
    f = expfun.sample_batch(params, path_cfg, cfg["samples"], cfg["seed"], workers=cfg["workers"])
    standardized = expfun.standardize(f, m)
    zs = np.linspace(cfg["z-min"], cfg["z-max"], cfg["z-count"])
    curve = empirical.discrepancy_curve(empirical.build_ecdf(standardized), zs)
    rate = expfun.clt_rate_bound(params, m, zs)
    note = "bound targets the exact law; sampled paths carry unquantified discretization bias"
    report = empirical.certify(curve, rate, k=cfg["slack-k"], note=note)
    uniform = math.sqrt(expfun.discrepancy_sq_upper(params, m))
    summary = {
        "m_t": m.m_t,
        "sigma2_t": m.sigma2_t,
        "n_steps": n_steps,
        "uniform_bound": uniform,
        "violations": report.n_violations,
        "note": note,
        "sampling": sampling.layout(cfg["samples"], expfun.PATH_CHUNK),
    }
    _write(cfg, summary, _compare_rows(report, uniform))
    return report.exit_status


def _run_bound_only(cfg: dict) -> int:
    tail = _tail_model(cfg)
    inputs = bounds.BoundInputs(mean_abs=cfg["mean-abs"], stein_discrepancy=cfg["discrepancy"], tail=tail)
    zs = np.linspace(cfg["z-min"], cfg["z-max"], cfg["z-count"])
    curve = bounds.evaluate_curve(inputs, zs)
    uniform = bounds.uniform_bound(inputs)
    columns = [curve.z, curve.tail_term, curve.gaussian_term, curve.bounds, np.full(zs.size, uniform)]
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
    except UsageError as exc:
        print(f"nubes: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return run(cfg)
    except UsageError as exc:
        print(f"nubes: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"nubes: error in scenario {cfg['scenario']}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
