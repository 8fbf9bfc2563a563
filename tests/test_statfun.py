"""Scalar kernels: normal CDF/Q, lognormal-sum approx, and the QUADPACK oracle.

Reference values were frozen from independent oracles (trapezoid
integration of the normal density on a 1e-5 grid, raw numpy Monte
Carlo); the comments next to each constant say which. The checked
QUADPACK wrapper the other tests use as their reference quadrature, and
the scalar density and hazard rate its integrands use, live in
`tests/quadpack_oracle.py` and are tested here; the package's own array
rule is tested in `tests/test_quadrature.py`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover.statfun import NumericsError, lognormal_sum_approx, q_function, std_normal_cdf
from quadpack_oracle import (
    IntegralResult,
    Quadrature,
    gaussian_hazard,
    integrate,
    std_normal_pdf,
)

# trapezoid oracle over [-12, 1], 1.3e6 nodes: 0.8413447460665
PHI_AT_ONE = 0.8413447460685429
# trapezoid oracle over [3, 12]: 0.0013498980317409
Q_AT_THREE = 0.0013498980316300957


def test_cdf_anchor():
    assert std_normal_cdf(1.0) == pytest.approx(PHI_AT_ONE, abs=1e-12)


def test_q_anchor():
    assert q_function(3.0) == pytest.approx(Q_AT_THREE, abs=1e-15)


def test_cdf_symmetry():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(-1.0) == pytest.approx(1.0 - PHI_AT_ONE, abs=1e-12)


@given(st.floats(min_value=-37.0, max_value=37.0))
def test_q_is_cdf_complement(z):
    assert abs(q_function(z) - std_normal_cdf(-z)) <= 1e-12


@given(st.floats(min_value=-40.0, max_value=40.0), st.floats(min_value=0.0, max_value=5.0))
def test_cdf_monotone_and_bounded(z, dz):
    lo, hi = std_normal_cdf(z), std_normal_cdf(z + dz)
    assert 0.0 <= lo <= hi <= 1.0


def test_q_keeps_tail_accuracy():
    # 1 - cdf would return exactly 0 here; erfc does not
    assert 0.0 < q_function(10.0) < 1e-22


@pytest.mark.parametrize("fn", [std_normal_cdf, std_normal_pdf, q_function, gaussian_hazard])
def test_nonfinite_input_rejected(fn):
    with pytest.raises(ValueError):
        fn(float("nan"))
    with pytest.raises(ValueError):
        fn(float("inf"))


def test_hazard_at_zero():
    assert gaussian_hazard(0.0) == pytest.approx(2.0 * std_normal_pdf(0.0), rel=1e-12)


def test_hazard_stable_deep_in_tail():
    # pdf/Q both underflow near z=40; the scaled-erfc form stays finite
    h = gaussian_hazard(40.0)
    assert 40.0 < h < 40.05


# --- QUADPACK oracle (tests/quadpack_oracle.py) ---


def test_density_normalization():
    value = integrate(std_normal_pdf, -12.0, 12.0).require()
    assert value == pytest.approx(1.0, abs=1e-8)


def test_integrate_linear_function():
    assert integrate(lambda x: x, 0.0, 1.0).require() == pytest.approx(0.5, abs=1e-12)


def test_integrate_reports_convergence_metadata():
    res = integrate(std_normal_pdf, -1.0, 1.0)
    assert isinstance(res, IntegralResult)
    assert res.converged
    assert res.evaluations > 0
    assert res.error_estimate < 1e-8


def test_integrate_nonconvergence_raises_on_require():
    res = integrate(lambda x: math.sin(200.0 * x), 0.0, 10.0,
                    Quadrature(max_subdivisions=1))
    assert not res.converged
    with pytest.raises(NumericsError):
        res.require()


@given(
    st.floats(min_value=-3.0, max_value=0.0),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=1.5, max_value=4.0),
)
def test_integrate_interval_additivity(a, b, c):
    whole = integrate(std_normal_pdf, a, c).require()
    parts = integrate(std_normal_pdf, a, b).require() \
        + integrate(std_normal_pdf, b, c).require()
    assert abs(whole - parts) <= 2.0 * Quadrature().absolute_tolerance


def test_quadrature_validation():
    with pytest.raises(ValueError):
        Quadrature(absolute_tolerance=0.0)
    with pytest.raises(ValueError):
        Quadrature(max_subdivisions=0)


# --- lognormal sum approximation ---

_LAMBDA = math.log(10.0) / 10.0


def _linear_mean(mu_db, sigma_db):
    return math.exp(_LAMBDA * mu_db + 0.5 * (_LAMBDA * sigma_db) ** 2)


def test_sum_of_one_is_identity():
    assert lognormal_sum_approx([-20.0], [4.0]) == (-20.0, 4.0)


def test_two_equal_deterministic_components_add_3db():
    mu, sigma = lognormal_sum_approx([-20.0, -20.0], [1e-9, 1e-9])
    assert mu == pytest.approx(-20.0 + 10.0 * math.log10(2.0), abs=0.01)
    assert sigma < 1e-6


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        lognormal_sum_approx([], [])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        lognormal_sum_approx([-10.0, -20.0], [4.0])


@given(
    st.lists(st.floats(min_value=-60.0, max_value=20.0), min_size=1, max_size=6),
    st.data(),
)
def test_sum_preserves_linear_mean(means, data):
    sigmas = [data.draw(st.floats(min_value=0.5, max_value=8.0)) for _ in means]
    mu, sigma = lognormal_sum_approx(means, sigmas)
    want = sum(_linear_mean(m, s) for m, s in zip(means, sigmas))
    assert _linear_mean(mu, sigma) == pytest.approx(want, rel=1e-9)


@settings(max_examples=25)
@given(
    st.lists(st.floats(min_value=-40.0, max_value=0.0), min_size=2, max_size=5),
    st.data(),
)
def test_sum_mean_exceeds_largest_component(means, data):
    sigmas = [data.draw(st.floats(min_value=1.0, max_value=6.0)) for _ in means]
    mu, sigma = lognormal_sum_approx(means, sigmas)
    # adding positive powers can only raise the linear mean
    assert _linear_mean(mu, sigma) > max(_linear_mean(m, s) for m, s in zip(means, sigmas))


def _sup_distance_vs_draws(means, sigmas, seed, n=10 ** 6):
    from scipy.special import ndtr

    mu, sigma = lognormal_sum_approx(means, sigmas)
    rng = np.random.default_rng(seed)
    linear = np.zeros(n)
    for m, s in zip(means, sigmas):
        linear += 10.0 ** ((m + s * rng.standard_normal(n)) / 10.0)
    draws_db = np.sort(10.0 * np.log10(linear))
    model = ndtr((draws_db - mu) / sigma)
    steps = np.arange(1, n + 1) / n
    return max(np.max(np.abs(model - steps)), np.max(np.abs(model - steps + 1.0 / n)))


def test_four_component_sum_vs_draw_oracle():
    """Worst-case component spread: means 30 dB apart, all sigma 4.

    A two-moment match cannot reproduce the skew this mix has; the
    measured sup-distance is 0.0306 and the pin below keeps it from
    drifting. Mixtures the simulator actually produces are much closer
    (see the geometry-based case).
    """
    sup = _sup_distance_vs_draws([-10.0, -20.0, -30.0, -40.0], [4.0] * 4,
                                 seed=20240308)
    assert 0.029 <= sup <= 0.032


def test_geometry_component_sum_vs_draw_oracle():
    # per-RAU means of the blanket scheme at mid-overlap, default layout
    means = [-71.19409533977378, -66.083423010675, -58.33252572542284,
             -41.80380949680779]
    sup = _sup_distance_vs_draws(means, [4.0] * 4, seed=20240309)
    assert sup <= 0.03


def test_scipy_special_names_load_on_first_use_and_nothing_else_does():
    """statfun's five scipy.special names are scipy's own ufuncs, read on
    first use. Any other name raises AttributeError without importing
    scipy.special: a probe for cache_clear, as a cache-clearing loop over
    module attributes makes, leaves it unloaded in a fresh interpreter."""
    import subprocess
    import sys

    import scipy.special

    from railhandover import statfun

    probe = ("import sys\n"
             "from railhandover import statfun\n"
             "assert getattr(statfun, 'cache_clear', None) is None\n"
             "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
    for name in ("ndtr", "erfc", "erfcx", "bdtr", "bdtrik"):
        assert getattr(statfun, name) is getattr(scipy.special, name)
    with pytest.raises(AttributeError, match="no attribute 'erf'"):
        statfun.erf
