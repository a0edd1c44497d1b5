"""Non-uniform Berry-Esseen bounds: kernels, samplers, tail models, certification.

Submodules
----------
gaussian   Stable normal CDF/tail kernels and the Stein equation solution.
chaos      Finite-rank diagonal Wiener chaos: sampling, moments, exact q=2 CDF.
expfun     Brownian exponential functional: moments, sampling, concentration
           tails; its rate bound is the engine's bound with the upper tail U
           plus d sqrt(L(|z|/2)) for the lower tail L.
bounds     The non-uniform bound engine with pluggable tail models; the chaos
           bound is the engine with the chaos concentration tail, and one
           plug-in tail reads either kind of ECDF.
empirical  ECDFs from sorted samples or per-chunk threshold counts,
           discrepancy curves, DKW bands, certification.
sampling   Reproducible chunked SFC64 substreams, optionally reduced per chunk.
cli        Scenario runner with bit-stable CSV/JSON output.

Submodules load on first use: `import nubes` imports none of them, nor
numpy, and reading `nubes.chaos` imports that submodule.  So `nubes.cli` runs
its first lines before numpy loads.  Each public name lives on its submodule
only (nubes.bounds.EmpiricalTail, nubes.chaos.sample_batch, ...); the package
re-exports none of them.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"bounds", "chaos", "cli", "empirical", "expfun", "gaussian", "sampling"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # which binds it here, so this runs once
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
