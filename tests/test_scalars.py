"""Elementwise functions take arrays and return arrays; a scalar gives a numpy scalar.

A Python float in gives an `np.float64` with the bits of element 0 of the
same call on a one-element array, and an array in gives an array of its shape.
"""

import numpy as np
import pytest

from nubes import bounds, chaos, empirical, expfun, gaussian

PARAMS = expfun.ExpFunParams(a=0.0, t=0.1)
MOMENTS = expfun.moments(PARAMS)
ECDF = empirical.build_ecdf(np.linspace(-3.0, 3.0, 101))

FUNCTIONS = {
    "bounds.tail_probability": lambda x: bounds.tail_probability(bounds.MarkovTail(p=6.0, moment_p=15.0), x),
    "chaos.hermite": lambda x: chaos.hermite(5, x),
    "chaos.exact_cdf_q2_rank1": chaos.exact_cdf_q2_rank1,
    "empirical.EcdfCounts.evaluate": ECDF.evaluate,
    "expfun.standardize": lambda x: expfun.standardize(x, MOMENTS),
    "expfun.upper_tail_bound": lambda x: expfun.upper_tail_bound(x, PARAMS, MOMENTS),
    "expfun.lower_tail_bound": expfun.lower_tail_bound,
    "expfun.clt_rate_bound": lambda x: expfun.clt_rate_bound(PARAMS, MOMENTS, x),
    "gaussian.normal_cdf": gaussian.normal_cdf,
    "gaussian.normal_tail": gaussian.normal_tail,
    "gaussian.scaled_tail": gaussian.scaled_tail,
    "gaussian.stein_value": lambda x: gaussian.stein_value(0.7, x),
    "gaussian.stein_derivative": lambda x: gaussian.stein_derivative(0.7, x),
    "gaussian.stein_ode_residual_fd": lambda x: gaussian.stein_ode_residual_fd(0.7, x),
}
# x >= 0 for the tails; 1.0838972277592518 is a point where a numpy scalar's
# x ** 2 (libm pow) and an array's (x * x) once rounded apart
XS = [0.0, 0.25, 1.0838972277592518, 3.5]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_scalar_in_numpy_scalar_out(name):
    f = FUNCTIONS[name]
    for x in XS:
        got, one = f(x), f(np.array([x]))
        assert type(got) is np.float64
        assert got.tobytes() == one[0].tobytes(), x


@pytest.mark.parametrize("name", FUNCTIONS)
def test_array_in_array_out(name):
    x = np.array(XS).reshape(2, 2)
    got = FUNCTIONS[name](x)
    assert type(got) is np.ndarray and got.shape == x.shape
