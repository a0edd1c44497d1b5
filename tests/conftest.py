"""Session-scoped Monte Carlo sample sets shared across test modules.

The heavy draws (10^6 paths/realizations) are produced once per session on
the library's reproducible substream layout so the invariant tests and the
acceptance suite reuse the same arrays.
"""

import math

import numpy as np
import pytest

from nubes import chaos, expfun
from nubes.sampling import substream

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
    a, t = 0.0, 0.1
    n_fine, n_paths, chunk = 4000, 200_000, 4000
    step_fine = t / n_fine
    f_fine = np.empty(n_paths)
    f_coarse = np.empty(n_paths)
    done = 0
    index = 0
    while done < n_paths:
        count = min(chunk, n_paths - done)
        rng = substream(REFINE_SEED, index)
        w = rng.standard_normal((count, n_fine)) * math.sqrt(step_fine)
        f_fine[done : done + count] = expfun.integral_from_increments(a, t, w)
        w_coarse = w[:, 0::2] + w[:, 1::2]
        f_coarse[done : done + count] = expfun.integral_from_increments(a, t, w_coarse)
        done += count
        index += 1
    return {"a": a, "t": t, "fine": f_fine, "coarse": f_coarse}
