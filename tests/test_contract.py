"""The scalar API's input contract, searched by hypothesis.

For any finite omega, epsilon and gamma and any block index from 0 up to
2**1100, every public scalar function either returns finite values or
raises a ValueError subclass: never an OverflowError, a RuntimeWarning
(an error under pyproject.toml's filterwarnings), an inf or a NaN.
sqrt_hpd and loglog_slope face arbitrary float input, NaN and inf
included.  The search is derandomized with a fixed example count, so every
run draws the same examples.
"""

import cmath
import dataclasses
import enum
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhjc.biortho import (
    eigensystem,
    eigenvector_ratios,
    intertwiner,
    loglog_slope,
    metric,
    metric_divergence_exponent,
    projectors,
    sqrt_hpd,
)
from nhjc.dynamics import (
    BlochState,
    EffectiveGenerator,
    default_time_grid,
    effective_generator,
    evolve_no_jump,
)
from nhjc.entropy import entanglement_entropy, reduced_spectrum
from nhjc.model import (
    Branch,
    ModelParams,
    build_block,
    classify_phase,
    critical_gamma,
    ground_state_energy,
    spectrum_closed_form,
)

_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(allow_nan=False, allow_infinity=False)
block_index = st.one_of(st.integers(0, 8), st.integers(0, 2**1100))

STATES = [
    BlochState(np.array([0.0, 0.0, 1.0])),
    BlochState(np.array([0.3, -0.4, 0.5]), weight=1.5),
    BlochState(np.array([0.0, -1.0, 0.0])),
]


def _is_finite(value) -> bool:
    if dataclasses.is_dataclass(value):
        return all(_is_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(_is_finite, value))
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (enum.Enum, bool, int)):
        return True
    return cmath.isfinite(value)


def _finite_or_value_error(call, *args):
    """call(*args) if it returns finite values, None if it raises ValueError."""
    try:
        result = call(*args)
    except ValueError:
        return None
    assert _is_finite(result), (call.__name__, args, result)
    return result


SCALAR_CALLS = [
    build_block,
    spectrum_closed_form,
    classify_phase,
    critical_gamma,
    ground_state_energy,
    eigenvector_ratios,
    eigensystem,
    metric,
    intertwiner,
    projectors,
    lambda p: metric_divergence_exponent(p, "below"),
    lambda p: metric_divergence_exponent(p, "above"),
    *(lambda p, b=b: entanglement_entropy(p, b) for b in Branch),
    *(lambda p, b=b, s=s: reduced_spectrum(p, b, s) for b in Branch for s in ("right", "left")),
]


@_SETTINGS
@given(omega=finite, epsilon=finite, gamma=finite, n=block_index, t=finite)
def test_scalar_api_is_finite_or_raises_value_error(omega, epsilon, gamma, n, t):
    p = _finite_or_value_error(ModelParams, omega, epsilon, gamma, n)
    if p is None:
        return
    for call in SCALAR_CALLS:
        _finite_or_value_error(call, p)
    gen = _finite_or_value_error(effective_generator, p)
    if gen is None:
        return
    _finite_or_value_error(gen.matrix)
    _finite_or_value_error(default_time_grid, gen)
    for state in STATES:
        _finite_or_value_error(evolve_no_jump, gen, state, t)


@pytest.mark.parametrize("rate", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e-320])
def test_default_time_grid_refuses_a_rate_without_a_finite_time_scale(rate):
    # a bare linspace to 5 / rate gives a ZeroDivisionError, a NaN grid, an
    # all-zero grid, inf and NaN, or negative times on these
    with pytest.raises(ValueError, match="^time grid: rate must be positive"):
        default_time_grid(EffectiveGenerator(0, rate, 0.0, True))


@pytest.mark.parametrize("points", [2.5, 2.0, "500", None, 1, 0, -3, True])
def test_default_time_grid_refuses_points_that_are_not_an_integer_of_two_or_more(points):
    with pytest.raises(ValueError, match="^time grid: points must be an integer >= 2"):
        default_time_grid(EffectiveGenerator(0, 1.0, 0.0, True), points)


@settings(_SETTINGS, max_examples=300)
@given(rate=st.floats(), points=st.one_of(st.integers(-3, 600), st.floats()))
def test_default_time_grid_is_finite_or_raises_value_error(rate, points):
    gen = EffectiveGenerator(0, rate, 0.0, False)
    grid = _finite_or_value_error(default_time_grid, gen, points)
    if grid is not None:
        assert grid[0] == 0.0 and grid.size == points and (np.diff(grid) >= 0.0).all()


entries = st.floats()


@settings(_SETTINGS, max_examples=300)
@given(
    arbitrary=st.lists(entries, min_size=8, max_size=8),
    hermitian=st.tuples(finite, finite, finite, finite),
)
def test_sqrt_hpd_is_finite_or_raises_value_error(arbitrary, hermitian):
    m = np.empty((2, 2), dtype=complex)  # no arithmetic: inf * 1j would be nan
    m.real.flat, m.imag.flat = arbitrary[:4], arbitrary[4:]
    _finite_or_value_error(sqrt_hpd, m)
    a, d, re, im = hermitian
    b = complex(re, im)
    _finite_or_value_error(sqrt_hpd, np.array([[a, b], [b.conjugate(), d]]))


@settings(_SETTINGS, max_examples=300)
@given(
    xs=st.lists(entries, min_size=0, max_size=6),
    ys=st.lists(entries, min_size=0, max_size=6),
)
def test_loglog_slope_is_finite_or_raises_value_error(xs, ys):
    _finite_or_value_error(loglog_slope, xs, ys)
    _finite_or_value_error(loglog_slope, xs, xs[::-1])
