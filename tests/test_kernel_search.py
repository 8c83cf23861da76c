"""The column kernel behind run_sweep against the scalar API, searched by hypothesis.

tests/test_sweep_kernel.py ties run_sweep to the scalar functions cell
by cell on fixed specs at moderate scales; this searches beyond them.  A
drawn spec puts omega and epsilon at scales 2**k for k in [-1070, 600],
runs several block indices from 0 up to 2**62, sweeps gamma across the
EP of the largest block together with a t axis or one of the other axes,
and asks for every quantity.  The t axis reaches 2 Gamma t up to 1e300,
often near 19, where the no-jump weight of r_y = -1 cancels; the grid
where it first read below 0 is an explicit example.  A spec with a t axis
is run from every start of _STATES.  Either every column matches the
scalar functions bit for bit (through repr, so signed zeros count), or
run_sweep raises SpecValidationError, and it raises exactly where the
scalar call of some cell raises ValueError.  The search is
derandomized with a fixed example count, so every run draws the same
specs.
"""

import dataclasses
import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nhjc.dynamics import effective_generator
from nhjc.errors import SpecValidationError
from nhjc.model import ModelParams, classify_phase, spectrum_closed_form
from nhjc.scan import QUANTITIES, Axis, SweepSpec, run_sweep

from test_sweep_kernel import expected_extras, scalar_point

# the states of the fixed specs, the poles of the y axis (r_y = -1 is where
# the no-jump weight cancels), a mixed state, and a start of length
# 1 + 1.1e-10, whose evolved state can pass the bound of length 1 + 1e-9
_STATES = [
    (0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (0.0, 1.0, 0.0), (0.3, -0.4, 0.5), (0.6, -0.8, 0.0),
    (-0.5, 0.2, 0.7), (0.0, 0.0, 0.0), (0.0, -0.96, 0.28 + 4e-10),
]
_UNIT = st.floats(0.5, 2.0)
# Gamma of the block (1, 5, 4, 0)
_RATE = effective_generator(ModelParams(1.0, 5.0, 4.0, 0)).rate


def _scaled(draw, k: int) -> float:
    """A value of either sign at the scale 2**k."""
    return math.ldexp(draw(_UNIT), k) * draw(st.sampled_from((1.0, -1.0)))


@st.composite
def _specs(draw):
    k = draw(st.integers(-1070, 600))
    omega = _scaled(draw, k)
    epsilon = _scaled(draw, k + draw(st.integers(-2, 2)))
    n_list = tuple(draw(st.lists(
        st.one_of(st.integers(0, 4), st.integers(0, 2**62)), min_size=2, max_size=3,
    )))
    gap = abs(omega - epsilon) or math.ldexp(1.0, k)
    # gamma across the EP of the largest block: gamma_c = |omega - epsilon| / (2 sqrt(n + 1))
    g_c = gap / (2.0 * math.sqrt(max(n_list) + 1))
    top = draw(st.floats(1.1, 3.0))
    # each axis's bounds and steps are drawn first and the Axis built only
    # after the assume, since an Axis refuses min >= max
    gamma_bounds = draw(st.floats(0.0, 0.9)) * g_c, top * g_c
    gamma_steps = draw(st.integers(2, 5))
    other = draw(st.sampled_from(("t", "t", "epsilon", "omega", "delta", "delta_sq")))
    if other == "t":
        # 2 Gamma t at the top of the gamma axis, Gamma = gap sqrt(top**2 - 1) / 2
        # in that block: up to about 1e300, often where cosh and sinh stay
        # finite or near 19, where the weight of r_y = -1 cancels
        reach = draw(st.one_of(
            st.floats(19.0, 20.0), st.floats(0.01, 710.0), st.floats(0.01, 1e300)
        ))
        hi = min(reach / (gap * math.sqrt(top * top - 1.0)), 1e300)
        bounds = draw(st.floats(0.0, 0.95)) * hi, hi
    elif other in ("epsilon", "omega"):
        centre = epsilon if other == "epsilon" else omega
        bounds = centre - gap, centre + gap
    elif other == "delta":
        bounds = 0.0, draw(st.floats(0.1, 3.0)) * gap
    else:
        bounds = 0.0, min(draw(st.floats(0.1, 9.0)) * gap * gap, 1e300)
    steps = draw(st.integers(2, 4))
    assume(gamma_bounds[0] < gamma_bounds[1] and bounds[0] < bounds[1])
    gamma = Axis("gamma", *gamma_bounds, gamma_steps)
    axis = Axis(other, *bounds, steps)
    first, second = (gamma, axis) if draw(st.booleans()) else (axis, gamma)
    fixed = ModelParams(omega, epsilon, 1.0, 0)
    return SweepSpec(fixed, first, second, QUANTITIES if other == "t" else QUANTITIES[:4], n_list)


def _from_every_start(spec):
    """The spec from each start of _STATES if it sweeps t, else the spec
    alone, so the search reaches every start however hypothesis draws."""
    if "t" not in (spec.axis1.name, spec.axis2.name):
        return [spec]
    return [dataclasses.replace(spec, initial_bloch=r0) for r0 in _STATES]


def _scalar_cells(spec):
    """Each cell's (phase, discriminant, spectrum, extras) by the scalar API,
    in run_sweep's row order, or None where a scalar call raises ValueError."""
    axes = (spec.axis1, spec.axis2)
    names = tuple(a.name for a in axes)
    blocks = spec.n_list or (spec.fixed.n,)
    for n, c2, c1 in itertools.product(blocks, *(a.values().tolist() for a in axes[::-1])):
        try:
            p, t = scalar_point(spec, n, SimpleNamespace(axis_names=names, coords=(c1, c2)))
            label = classify_phase(p)
            yield label.value, label.discriminant, spectrum_closed_form(p), expected_extras(spec, p, t)
        except ValueError:
            yield None


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(spec=_specs())
@example(spec=SweepSpec(  # 2 Gamma t = 19 at gamma = 4, where D reads -1.49e-8 at r_y = -1
    ModelParams(1.0, 5.0, 4.0, 0), Axis("gamma", 0.0, 4.0, 2),
    Axis("t", 19.0 / (2.0 * _RATE), 19.0000001 / (2.0 * _RATE), 2),
    QUANTITIES, (0, 1), (0.0, -1.0, 0.0),
))
@example(spec=SweepSpec(  # 1 - |r|**2 scales by 1 / D**2: the start's length grows past the bound
    ModelParams(1.0, 5.0, 4.0, 0), Axis("gamma", 0.0, 4.0, 2), Axis("t", 0.0, 3.0 / _RATE, 4),
    QUANTITIES, (), (0.0, -0.96, 0.28 + 4e-10),
))
def test_kernel_search_matches_the_scalar_api_or_raises_with_it(spec):
    for started in _from_every_start(spec):
        _check(started)


def _check(spec):
    want = list(_scalar_cells(spec))
    try:
        table = run_sweep(spec)
    except SpecValidationError as exc:
        assert None in want, f"run_sweep raised {exc} where every scalar call returns"
        return
    assert None not in want, "a scalar call raises where run_sweep returns"
    assert len(table) == len(want)
    for k, (cell, (phase, d, spectrum, extras)) in enumerate(zip(table, want)):
        where = f"cell {k} {cell.n} {cell.coords} from {spec.initial_bloch}"
        assert cell.phase is phase, where
        assert repr(cell.discriminant) == repr(d), where
        assert repr(cell.eigenvalues) == repr(spectrum), where
        assert cell.extras.keys() == extras.keys(), where
        for key, value in extras.items():
            assert repr(cell.extras[key]) == repr(value), (where, key)


_CANCELLED = "survival/bloch: no-jump weight cancels to 0 at r_y = -1 on this grid"


@pytest.mark.parametrize("hi, r0, message", [
    # at r_y = -1, D = cosh + r_y sinh of 2 Gamma t reads -1.49e-8 at 19 and 0 at 20
    (19.0000001, (0.0, -1.0, 0.0), _CANCELLED),
    (20.0, (0.0, -1.0, 0.0), _CANCELLED),
    # 2 Gamma t = inf, where D reads inf + 0 * inf = NaN at r_y = 0
    (math.inf, (0.0, 0.0, 1.0), "survival/bloch: 2 Gamma t overflows on this grid"),
])
def test_sweeps_refuse_the_no_jump_weight_where_evolve_no_jump_does(hi, r0, message):
    """Each grid raises the message of evolve_no_jump's first failed test."""
    p = ModelParams(1.0, 5.0, 4.0, 0)
    t_max = min(hi / (2.0 * _RATE), 1e308)
    spec = SweepSpec(p, Axis("t", 19.0 / (2.0 * _RATE), t_max, 2),
                     quantities=("survival", "bloch"), initial_bloch=r0)
    with pytest.raises(SpecValidationError) as info:
        run_sweep(spec)
    assert str(info.value) == message
