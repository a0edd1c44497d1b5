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

Each public name lives on its submodule only (nubes.bounds.EmpiricalTail,
nubes.chaos.sample_batch, ...); the package re-exports none of them.
"""

from . import bounds, chaos, cli, empirical, expfun, gaussian, sampling

__version__ = "0.1.0"
