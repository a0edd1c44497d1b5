"""The four benchmark workloads: CLI arguments, work size and output check.

Sizes are fixed.  The seed feeds `--seed` on the sampled workloads.  On the
grid workloads it widens the z grid at both ends by a seeded offset smaller
than one grid step, so each seed is a fresh input of the same size; widening
rather than shifting keeps the grid symmetric about 0, the property that lets
half the tail evaluations of `bound-grid` repeat a |z| already seen.
`tiny=True` gives the small sizes the self-test runs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass(frozen=True)
class Case:
    """One workload at one seed and size."""

    argv: list[str]  # CLI arguments, without --output
    ext: str  # output format
    work: int  # items of work done by one run
    check: Callable[[str], None]  # raises oracles.CheckFailed on a wrong output file


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # what one unit of throughput is
    case: Callable[[int, bool], Case]  # (seed, tiny) -> Case


def _widened(seed: int, lo: float, hi: float, count: int) -> tuple[float, float]:
    offset = random.Random(seed).random() * (hi - lo) / (count - 1)
    return lo - offset, hi + offset


def _expfun_paths(seed: int, tiny: bool) -> Case:
    samples, n_steps = (2_000 if tiny else 100_000), 1000  # n_steps is the CLI default at t = 0.05
    argv = ["expfun-compare", "--a", "0", "--t", "0.05", "--samples", str(samples),
            "--workers", "2", "--format", "json", "--seed", str(seed)]
    check = functools.partial(oracles.check_expfun, a=0.0, t=0.05, samples=samples, n_steps=n_steps)
    return Case(argv, "json", samples * n_steps, check)


CHAOS_ALPHAS = "1,0.5,0.25,0.125"


def _chaos_certify(seed: int, tiny: bool) -> Case:
    samples = 100_000 if tiny else 8_000_000
    argv = ["chaos-compare", "--q", "3", "--alphas", CHAOS_ALPHAS,
            "--tail", "empirical", "--samples", str(samples), "--format", "json", "--seed", str(seed)]
    alphas = tuple(map(float, CHAOS_ALPHAS.split(",")))
    check = functools.partial(oracles.check_chaos, q=3, alphas=alphas, samples=samples)
    return Case(argv, "json", samples, check)


BOUND_DISCREPANCY = 1.4142135623730951


def _bound_grid(seed: int, tiny: bool) -> Case:
    count = 401 if tiny else 40_001
    z_min, z_max = _widened(seed, -40.0, 40.0, count)
    argv = ["bound-only", "--discrepancy", repr(BOUND_DISCREPANCY), "--tail", "exact",
            "--z-min", repr(z_min), "--z-max", repr(z_max), "--z-count", str(count)]
    check = functools.partial(oracles.check_bound, discrepancy=BOUND_DISCREPANCY,
                              z_min=z_min, z_max=z_max, z_count=count)
    return Case(argv, "csv", count, check)


def _stein_grid(seed: int, tiny: bool) -> Case:
    count, x_count = (9 if tiny else 97), 2001  # x_count is the CLI default
    z_min, z_max = _widened(seed, -6.0, 6.0, count)
    argv = ["stein-check", "--z-min", repr(z_min), "--z-max", repr(z_max), "--z-count", str(count)]
    check = functools.partial(oracles.check_stein, z_min=z_min, z_max=z_max, z_count=count, seed=seed)
    return Case(argv, "csv", count * x_count, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "expfun-paths",
            "the one heavy Monte Carlo job users parallelise: Philox normals and path quadrature "
            "in 2 pool workers; bounds and cli stay idle",
            "path-steps",
            _expfun_paths,
        ),
        Workload(
            "chaos-certify",
            "in-process sampling of a q=3 rank-4 chaos, Hermite evaluation, two full sorts and the "
            "in-CLI Monte Carlo E F^4; only 161 bound points",
            "samples",
            _chaos_certify,
        ),
        Workload(
            "bound-grid",
            "no sampling: the per-point Python loop of the bound curve over 40,001 z with the exact "
            "q=2 tail, then CSV writing",
            "z-points",
            _bound_grid,
        ),
        Workload(
            "stein-grid",
            "CLI row building and CSV formatting of 194,097 rows dominate; the only run of the "
            "vectorised Stein kernels",
            "cells",
            _stein_grid,
        ),
    )
}
