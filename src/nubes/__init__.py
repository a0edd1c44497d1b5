"""Non-uniform Berry-Esseen bounds: kernels, samplers, tail models, certification.

Submodules
----------
gaussian   Stable normal CDF/tail kernels and the Stein equation solution.
chaos      Finite-rank diagonal Wiener chaos: sampling, moments, exact q=2 CDF.
expfun     Brownian exponential functional: moments, sampling, rate bound.
bounds     The non-uniform bound engine with pluggable tail models; the chaos
           bound is the engine with the chaos concentration tail.
empirical  ECDFs, per-chunk threshold counts, discrepancy curves, DKW bands,
           certification.
sampling   Reproducible chunked Philox substreams, optionally reduced per chunk.
cli        Scenario runner with bit-stable CSV/JSON output.

Names that are unambiguous across submodules are re-exported here; samplers
and moment helpers live on their submodule (nubes.chaos.sample_batch,
nubes.expfun.moments, ...).
"""

from . import bounds, chaos, cli, empirical, expfun, gaussian, sampling
from .bounds import (
    BoundCurve,
    BoundInputs,
    EmpiricalTail,
    ExactCdfTail,
    ExpFunTail,
    MajorChaosTail,
    MarkovTail,
    TailModel,
    UnitTail,
    evaluate_curve,
    nonuniform_bound,
    tail_probability,
    uniform_bound,
)
from .chaos import DiagonalChaosSpec, exact_cdf_q2_rank1, hermite
from .empirical import (
    CertifyReport,
    EmpiricalCdf,
    build_ecdf,
    certify,
    discrepancy_curve,
    dkw_epsilon,
)
from .expfun import ExpFunMoments, ExpFunParams, PathConfig, Scheme, clt_rate_bound
from .gaussian import (
    LemmaReport,
    check_lemma,
    normal_cdf,
    normal_tail,
    scaled_tail,
    stein_derivative,
    stein_ode_residual_fd,
    stein_value,
)

__version__ = "0.1.0"
