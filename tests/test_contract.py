"""The scalar API's input contract, searched by hypothesis.

For any finite omega, epsilon and gamma and any block index from 0 up to
2**1100, every public scalar function either returns finite values or
raises a ValueError subclass: never an OverflowError, a RuntimeWarning
(an error under pyproject.toml's filterwarnings), an inf or a NaN.
sqrt_hpd faces arbitrary float input, NaN and inf included, and an
EffectiveGenerator built from arbitrary fields either refuses them or
evolves to finite values.  Times, rates, shifts, weights and sqrt_hpd's
entries are also drawn as ints inside and past the float range and as
bools.  Every numeric field is also fed numpy scalars of every width,
fractions, decimals, bools, huge ints, strings, complex numbers and None:
each reads a number by the one rule in nhjc.model, the same value at every
field.  The search is derandomized with a fixed example count, so every
run draws the same examples.
"""

import cmath
import dataclasses
import enum
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhjc.biortho import (
    eigenvector_ratios,
    intertwiner,
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
from nhjc.errors import SpecValidationError
from nhjc.model import (
    Branch,
    ModelParams,
    build_block,
    classify_phase,
    critical_gamma,
    ground_state_energy,
    spectrum_closed_form,
)
from nhjc.scan import MAX_CELLS, Axis, SweepSpec, run_sweep

_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(allow_nan=False, allow_infinity=False)
block_index = st.one_of(st.integers(0, 8), st.integers(0, 2**1100))
# ints inside and past the float range, and bools, which are ints too
huge_or_bool = st.one_of(st.integers(-(2**1100), 2**1100), st.booleans())

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
    metric,
    intertwiner,
    projectors,
    lambda p: metric_divergence_exponent(p, "below"),
    lambda p: metric_divergence_exponent(p, "above"),
    *(lambda p, b=b: entanglement_entropy(p, b) for b in Branch),
    *(lambda p, b=b, s=s: reduced_spectrum(p, b, s) for b in Branch for s in ("right", "left")),
]


@_SETTINGS
@given(
    omega=finite, epsilon=finite, gamma=finite, n=block_index, t=st.one_of(finite, huge_or_bool)
)
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
    # all-zero grid, inf and NaN, or negative times on these; the generator
    # itself refuses the negative and the non-finite ones
    refused = "^(time grid: rate must be positive|effective generator: rate must be finite)"
    with pytest.raises(ValueError, match=refused):
        default_time_grid(EffectiveGenerator(0, rate, 0.0, True))


@pytest.mark.parametrize("points", [2.5, 2.0, "500", None, 1, 0, -3, True])
def test_default_time_grid_refuses_points_that_are_not_an_integer_of_two_or_more(points):
    with pytest.raises(ValueError, match="^time grid: points must be an integer >= 2"):
        default_time_grid(EffectiveGenerator(0, 1.0, 0.0, True), points)


@settings(_SETTINGS, max_examples=300)
@given(rate=st.floats(), points=st.one_of(st.integers(-3, 600), st.floats()))
def test_default_time_grid_is_finite_or_raises_value_error(rate, points):
    gen = _finite_or_value_error(EffectiveGenerator, 0, rate, 0.0, False)
    if gen is None:
        return
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
@given(entries=st.lists(st.one_of(finite, huge_or_bool), min_size=4, max_size=4))
def test_sqrt_hpd_of_int_or_bool_entries_is_finite_or_raises_value_error(entries):
    # np.asarray raised OverflowError on an int past the float range
    a, b, c, d = entries
    _finite_or_value_error(sqrt_hpd, [[a, b], [c, d]])
    _finite_or_value_error(sqrt_hpd, [[a, b], [b, d]])


@settings(_SETTINGS, max_examples=300)
@given(r=st.sampled_from(STATES), weight=st.one_of(st.floats(), huge_or_bool))
def test_bloch_state_is_finite_or_raises_value_error(r, weight):
    state = _finite_or_value_error(BlochState, r.r, weight)
    accepted = not isinstance(weight, bool) and 0.0 <= weight <= sys.float_info.max
    assert (state is not None) == accepted, weight


@pytest.mark.parametrize(
    "fields, refused",
    [
        ((0, -1.0, 0.0, True), "rate must be finite and >= 0, got -1.0"),
        ((0, math.inf, 0.0, False), "rate must be finite and >= 0, got inf"),
        ((0, math.nan, 0.0, True), "rate must be finite and >= 0, got nan"),
        ((0, 1.0, -math.inf, True), "shift must be finite, got -inf"),
        ((0, 1.0, math.nan, False), "shift must be finite, got nan"),
        ((0, "1.0", 0.0, True), "rate must be finite and >= 0, got '1.0'"),
        ((0, 1.0, 1j, True), r"shift must be finite, got 1j"),
        ((0, True, 0.0, True), "rate must be finite and >= 0, got True"),
        ((0, 1.0, False, True), "shift must be finite, got False"),
        ((0, 10**400, 0.0, True), f"rate must be finite and >= 0, got {10**400}"),
        ((0, 1.0, -(10**400), False), f"shift must be finite, got {-(10**400)}"),
    ],
    ids=["rate=-1", "rate=inf", "rate=nan", "shift=-inf", "shift=nan", "rate=str", "shift=1j",
         "rate=True", "shift=False", "rate=10**400", "shift=-10**400"],
)
def test_effective_generator_refuses_a_bad_rate_or_shift(fields, refused):
    # unchecked, a negative rate would evolve r_y to -0.964, an infinite one
    # make an all-NaN matrix, a NaN one surface as a non-finite Bloch vector
    # and a str or complex one raise TypeError
    with pytest.raises(ValueError, match=f"^effective generator: {refused}$"):
        EffectiveGenerator(*fields)


@pytest.mark.parametrize(
    "fields, refused",
    [
        ((-3, 1.0, 0.0, False), "n must be a non-negative integer, got -3"),
        (("x", 1.0, 0.0, np.bool_(True)), "n must be a non-negative integer, got 'x'"),
        ((2.5, 1.0, 0.0, True), "n must be a non-negative integer, got 2.5"),
        ((True, 1.0, 0.0, True), "n must be a non-negative integer, got True"),
        ((2**1100, 1.0, 0.0, True), f"n must be a non-negative integer, got {2**1100}"),
        ((0, 1.0, 0.0, "no"), "is_broken must be a bool, got 'no'"),
        ((0, 1.0, 0.0, 1), "is_broken must be a bool, got 1"),
        ((0, 1.0, 0.0, None), "is_broken must be a bool, got None"),
    ],
    ids=["n=-3", "n=str", "n=2.5", "n=True", "n=2**1100", "is_broken=str", "is_broken=1",
         "is_broken=None"],
)
def test_effective_generator_refuses_a_bad_block_index_or_phase_flag(fields, refused):
    # unchecked, the truthy 'no' would evolve as the broken phase to weight 3.76
    with pytest.raises(ValueError, match=f"^effective generator: {refused}$"):
        EffectiveGenerator(*fields)


@pytest.mark.parametrize("n", [2, 2.0, np.int64(2), np.uint8(2)])
@pytest.mark.parametrize("is_broken", [True, np.bool_(True)])
def test_effective_generator_keeps_n_as_an_int_and_is_broken_as_a_bool(n, is_broken):
    gen = EffectiveGenerator(n, 1.0, 0.0, is_broken)
    assert type(gen.n) is int and gen.n == 2 and gen.is_broken is True


@settings(_SETTINGS, max_examples=300)
@given(
    n=block_index,
    rate=st.one_of(st.floats(), huge_or_bool),
    shift=st.one_of(st.floats(), huge_or_bool),
    is_broken=st.booleans(),
    t=st.one_of(st.floats(min_value=0.0), huge_or_bool),
)
def test_effective_generator_is_finite_or_raises_value_error(n, rate, shift, is_broken, t):
    gen = _finite_or_value_error(EffectiveGenerator, n, rate, shift, is_broken)
    if gen is None:
        return
    assert not isinstance(gen.rate, bool) and not isinstance(gen.shift, bool)
    _finite_or_value_error(gen.matrix)
    for state in STATES:
        _finite_or_value_error(evolve_no_jump, gen, state, t)


# Every numeric field reads a number by one rule: any numbers.Real but a
# bool, in the float range, converted once to a Python int or float.
NUMPY_TYPES = (np.float16, np.float32, np.float64, np.longdouble, np.int8, np.int16, np.int32,
               np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _numpy_scalars(kind):
    if issubclass(kind, np.integer):
        info = np.iinfo(kind)
        return st.integers(int(info.min), int(info.max)).map(kind)
    return st.floats(width=min(64, np.finfo(kind).bits)).map(kind)


anything = st.one_of(
    *map(_numpy_scalars, NUMPY_TYPES),
    st.sampled_from([np.longdouble("1e400"), np.longdouble("-1e400")]),
    st.fractions(),
    st.integers(-(2**1100), 2**1100).map(lambda k: Fraction(k, 3)),
    st.decimals(),
    st.booleans(),
    st.integers(-(2**1100), 2**1100),
    st.integers(-3, 600),
    st.floats(),
    st.text(max_size=3),
    st.complex_numbers(),
    st.none(),
)

# an unbroken generator: the angle 2 rate t stays finite for every finite t
ROTATION = EffectiveGenerator(0, 0.25, 0.0, False)
FIXED = ModelParams(1.0, 5.0, 1.0)
GRID = Axis("gamma", 0.0, 1.0, 2)
REFUSED_BOUND = r"^axis1(\.{end}: expected a real number|: min/max must be finite)"


def _validates(**fields) -> bool:
    try:
        SweepSpec(**{"fixed": FIXED, "axis1": GRID, **fields}).validate()
    except SpecValidationError:
        return False
    return True


@_SETTINGS
@given(value=anything)
def test_every_numeric_field_reads_a_number_by_one_rule(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the energies, the generator's shift and an axis bound: any number
        ps = [_finite_or_value_error(ModelParams, *fields)
              for fields in ((value, 5.0, 1.0), (1.0, value, 1.0), (1.0, 5.0, value))]
        shifted = _finite_or_value_error(EffectiveGenerator, 0, 0.25, value, False)
        accepted = ps[0] is not None
        assert [p is not None for p in ps] == [accepted] * 3 and (shifted is not None) == accepted
        e = ps[0].omega if accepted else None
        if accepted:
            assert type(e) in (int, float) and ps[1].epsilon == ps[2].gamma == shifted.shift == e
            big = e == sys.float_info.max
            axis = (Axis("omega", math.nextafter(e, -math.inf), value, 2) if big
                    else Axis("omega", value, math.nextafter(e, math.inf), 2))
            assert _validates(axis1=axis)
            assert float(axis.values()[-1 if big else 0]) == float(e)
        else:
            for end, axis in (("min", Axis("omega", value, 1.0, 2)),
                              ("max", Axis("omega", -1.0, value, 2))):
                with pytest.raises(SpecValidationError, match=REFUSED_BOUND.format(end=end)):
                    SweepSpec(FIXED, axis).validate()
        # the rate, a weight and a time: any number >= 0
        non_negative = accepted and e >= 0
        gen = _finite_or_value_error(EffectiveGenerator, 0, value, 0.0, False)
        state = _finite_or_value_error(BlochState, [0.0, 0.0, 1.0], value)
        evolved = _finite_or_value_error(evolve_no_jump, ROTATION, STATES[0], value)
        assert [gen is not None, state is not None, evolved is not None] == [non_negative] * 3
        if non_negative:
            assert gen.rate == state.weight == e
            at_float = evolve_no_jump(ROTATION, STATES[0], float(e))
            assert evolved.r.tolist() == at_float.r.tolist() and evolved.weight == at_float.weight
        # a Bloch component: any number of modulus <= 1
        component = accepted and abs(e) <= 1.0 + 1e-9
        assert _validates(initial_bloch=(0.0, 0.0, value)) == component
        state = _finite_or_value_error(BlochState, (0.0, 0.0, value))
        assert (state is not None) == component
        if component:
            assert state.r.tolist() == [0.0, 0.0, float(e)]

        # block indices, counts and n_list entries: whole numbers
        blocks = [_finite_or_value_error(ModelParams, 1.0, 5.0, 1.0, value),
                  _finite_or_value_error(EffectiveGenerator, value, 1.0, 0.0, True)]
        count = blocks[0].n if blocks[0] is not None else None
        assert blocks[1] is None if count is None else type(blocks[1].n) is int and blocks[1].n == count
        assert _validates(n_list=(value,)) == (count is not None and count < 2**63)
        steps = Axis("gamma", 0.0, 1.0, value)
        assert _validates(axis1=steps) == (count is not None and 2 <= count <= MAX_CELLS)
        # a grid is allocated only for the few points a test can afford
        if count is not None and 2 <= count <= 1000:
            assert len(run_sweep(SweepSpec(FIXED, steps))) == count
        # and a count past MAX_CELLS is refused before one is allocated
        if count is None or count <= 1000 or count > MAX_CELLS:
            grid = _finite_or_value_error(default_time_grid, ROTATION, value)
            assert grid is None or (count is not None and 2 <= grid.size == count <= MAX_CELLS)
