"""Session-scoped Monte Carlo sample sets shared across test modules.

The heavy draws (10^6 paths/realizations, and the 200,000 refined path
pairs) are produced once per session, every one on the library's own
reproducible chunk layout and worker pool (`sampling.map_chunks`), so the
invariant tests and the acceptance suite reuse the same arrays.
"""

import math

import numpy as np
import pytest

from nubes import chaos, expfun
from nubes.sampling import map_chunks

WORKERS = 2  # sampling output is worker-count invariant; 2 matches the CI box

CHAOS_SEED = 20250811
EXPFUN_SEED_T01 = 315
EXPFUN_SEED_T005 = 316
REFINE_SEED = 317


@pytest.fixture(scope="session")
def q2_rank1_spec():
    return chaos.normalize(chaos.DiagonalChaosSpec(q=2, alphas=(1.0,)))


@pytest.fixture(scope="session")
def chaos_q2_samples_1m(q2_rank1_spec):
    return chaos.sample_batch(q2_rank1_spec, 1_000_000, seed=CHAOS_SEED, workers=WORKERS)


@pytest.fixture(scope="session")
def expfun_t01():
    params = expfun.ExpFunParams(a=0.0, t=0.1)
    f = expfun.sample_batch(params, 2000, 1_000_000, seed=EXPFUN_SEED_T01, workers=WORKERS)
    return {"params": params, "moments": expfun.moments(params), "f": f}


@pytest.fixture(scope="session")
def expfun_t005():
    params = expfun.ExpFunParams(a=0.0, t=0.05)
    f = expfun.sample_batch(params, 1000, 1_000_000, seed=EXPFUN_SEED_T005, workers=WORKERS)
    return {"params": params, "moments": expfun.moments(params), "f": f}


@pytest.fixture(scope="session")
def expfun_refinement():
    """Common-random-number pair of estimators at n_steps 2000 and 4000.

    Both estimators see the same Brownian paths (the coarse increments are
    pairwise sums of the fine ones), so their difference isolates the
    discretization effect instead of being swamped by independent MC noise.
    """
    a, t, n_fine = 0.0, 0.1, 4000

    def fine_and_coarse(rng, count):
        w = rng.standard_normal((count, n_fine)) * math.sqrt(t / n_fine)
        out = np.empty(count, dtype=[("fine", float), ("coarse", float)])
        out["fine"] = expfun.integral_from_increments(a, t, w)
        out["coarse"] = expfun.integral_from_increments(a, t, w[:, 0::2] + w[:, 1::2])
        return out

    f = map_chunks(fine_and_coarse, (), REFINE_SEED, 200_000, 4_000, workers=WORKERS)
    # contiguous copies: a strided field view could sum in another order in .mean() and .var()
    return {"a": a, "t": t, "fine": f["fine"].copy(), "coarse": f["coarse"].copy()}
