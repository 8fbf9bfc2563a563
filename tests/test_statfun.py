"""Kernels: normal CDF/Q and their array forms, binomial masses, the
lognormal-sum approximation, and the QUADPACK oracle.

Reference values were frozen from independent oracles (trapezoid
integration of the normal density on a 1e-5 grid, raw numpy Monte
Carlo); the comments next to each constant say which. The checked
QUADPACK wrapper the other tests use as their reference quadrature, and
the scalar density and hazard rate its integrands use, live in
`tests/quadpack_oracle.py` and are tested here; the package's own array
rule is tested in `tests/test_quadrature.py`. The array normal tails are
checked against scipy.special, which stays their oracle, and against
mpmath where the two disagree; the binomial masses against mpmath.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover import statfun
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


# --- array normal tails against scipy.special and mpmath ---

# The largest distance in ULP from scipy.special over the sweeps below.
# scipy's erfcx is a different algorithm from Cephes's rationals: from 1 on
# the kernel is within 8 ULP of it, and on (0, 1) within 16, where
# exp(x^2) (1 - erf(x)) loses a few bits to the difference.
_ULP_BOUND = {"ndtr": 4, "erfc": 4, "erfcx": 16}
_SWEEP = np.linspace(-38.0, 38.0, 760_001)
_FAR = np.array([-np.inf, -1e300, -1e20, -5e7, -60.0, -40.0, 40.0, 60.0, 5e7, 1e20, 1e300,
                 np.inf, np.nan, -0.0, 0.0, 1.0, -1.0, 8.0, -8.0, math.sqrt(0.5)])


def _ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """ULP distance of same-sign finite values; 0 where both are equal or NaN."""
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        gap = np.abs(got.view(np.int64) - want.view(np.int64)).astype(float)
    return np.where(same, 0.0, np.where(np.sign(got) == np.sign(want), gap, np.inf))


@pytest.mark.parametrize("name", sorted(_ULP_BOUND))
def test_normal_tails_match_scipy(name):
    """A dense sweep of [-38, 38] (a step of 1e-4) and the far tails, where
    0, 1, 2, inf and NaN come out exactly as scipy's."""
    import scipy.special

    x = np.concatenate((_SWEEP, _FAR))
    with np.errstate(over="ignore"):
        got, want = getattr(statfun, name)(x), getattr(scipy.special, name)(x)
    assert _ulps(got, want).max() <= _ULP_BOUND[name]
    assert got.shape == x.shape
    grid = x[:12].reshape(3, 4)
    assert np.array_equal(getattr(statfun, name)(grid), got[:12].reshape(3, 4))


@pytest.mark.parametrize("name", sorted(_ULP_BOUND))
def test_normal_tails_no_worse_than_scipy_where_they_differ(name):
    """Where the kernel and scipy differ, mpmath at 40 digits decides: the
    kernel's error is at most the bound in ULP beyond scipy's. (Both round
    x^2 inside exp(-x^2), so both are some hundred ULP off far out.) ndtr
    is compared at the x / sqrt(2) that both of them compute."""
    import mpmath as mp
    import scipy.special

    with np.errstate(over="ignore"):
        got, want = getattr(statfun, name)(_SWEEP), getattr(scipy.special, name)(_SWEEP)
    differ = np.flatnonzero((got != want) & np.isfinite(want) & (np.abs(want) > 1e-300))
    assert differ.size > 0
    exact = {"ndtr": lambda t: mp.erfc(-mp.mpf(t * math.sqrt(0.5))) / 2,
             "erfc": lambda t: mp.erfc(mp.mpf(t)),
             "erfcx": lambda t: mp.erfc(mp.mpf(t)) * mp.exp(mp.mpf(t) ** 2)}[name]
    with mp.workdps(40):
        for i in differ[::max(1, differ.size // 300)]:
            ref = exact(float(_SWEEP[i]))
            ulp = np.spacing(abs(float(ref)))
            excess = (float(abs(got[i] - ref)) - float(abs(want[i] - ref))) / ulp
            assert excess <= _ULP_BOUND[name], (name, _SWEEP[i])


# --- array normal tails against the branch-gather oracle ---

_SQRT2 = math.sqrt(2.0)


def _edges() -> np.ndarray:
    """The branch edges 1 and 8, the clips at 27 and 50 and the overflow of
    exp(x^2) near 26.6, as arguments of erfc and erfcx and, times sqrt(2), of
    ndtr, with their neighbours and negatives."""
    x = np.array([1.0, 8.0, 27.0, 50.0, 26.6])
    a = np.concatenate((x, _SQRT2 * x))
    a = np.concatenate((a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)))
    return np.concatenate((a, -a))


@pytest.mark.parametrize("name", sorted(_ULP_BOUND))
def test_normal_tails_equal_branch_gather_oracle_bitwise(name):
    """Bit for bit (signed zeros included) the branch-gather kernels, with
    NaN where they give NaN, over the sweep, the far tails and the branch
    edges, on flat, empty, 0-d and 3-D inputs, and with no warning raised."""
    import warnings

    import normal_tail_oracle

    kernel, oracle = getattr(statfun, name), getattr(normal_tail_oracle, name)
    x = np.concatenate((_SWEEP, _FAR, _edges()))
    with np.errstate(over="ignore"):
        want = oracle(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(x)
        shaped = [kernel(np.empty(0)), kernel(np.float64(-0.3)),
                  kernel(x[-120:].reshape(2, 3, 20))]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert shaped[0].shape == (0,) and shaped[1].shape == ()
    assert shaped[1].view(np.int64) == oracle(np.float64(-0.3)).view(np.int64)
    assert shaped[2].shape == (2, 3, 20)
    assert np.array_equal(shaped[2].view(np.int64), want[-120:].reshape(2, 3, 20).view(np.int64))


# --- binomial masses ---


def test_stirling_remainders_match_mpmath():
    """Within 2e-16 of mpmath: the remainders enter a mass's exponent, so
    their absolute error is its relative one."""
    import mpmath as mp

    k = np.arange(0.0, 60.0)
    with mp.workdps(30):
        want = [0.0] + [float(mp.loggamma(j + 1) - (j + mp.mpf(1) / 2) * mp.log(j) + j
                              - mp.log(mp.sqrt(2 * mp.pi))) for j in range(1, 60)]
    assert np.allclose(statfun._stirlerr(k), want, rtol=0.0, atol=2e-16)


@pytest.mark.parametrize("n", [1, 2, 20, 2000, 100_000])
def test_binomial_pmf_matches_mpmath(n):
    """Relative error below 1e-12 from 8 standard deviations and 20 counts
    below the mean to as far above; k = 0 is (1 - p)^n in floating point,
    as scipy's bdtr forms it."""
    import mpmath as mp

    with mp.workdps(40):
        for p in (1e-12, 1e-6, 0.013, 0.3, 0.5, 0.97, 1.0 - 1e-9):
            sd = math.sqrt(n * p * (1.0 - p))
            k = np.unique(np.clip(np.round(n * p + np.linspace(-8 * sd - 20, 8 * sd + 20, 41)),
                                  0, n))
            got = statfun.binomial_pmf(k, n, p)
            for j, g in zip(k.astype(int).tolist(), got.tolist()):
                want = (mp.mpf(1.0 - p) ** n if j == 0 else
                        mp.binomial(n, j) * mp.mpf(p) ** j * (1 - mp.mpf(p)) ** (n - j))
                if want > 1e-300:
                    assert abs(g - want) <= 1e-12 * want, (n, p, j)


def test_binomial_pmf_of_a_certain_outcome():
    k = np.arange(4.0)
    assert statfun.binomial_pmf(k, 3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert statfun.binomial_pmf(k, 3, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]
    assert statfun.binomial_pmf(np.arange(201.0), 200, 0.37).sum() == pytest.approx(1.0, rel=1e-14)

