"""Tests for the no-jump conditional evolution on one invariant subspace."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import eig2, expm2, match_order, random_bloch, random_params

from nhjc.dynamics import (
    BlochState,
    EffectiveGenerator,
    default_time_grid,
    effective_generator,
    evolve_no_jump,
)
from nhjc.errors import ExceptionalPointError
from nhjc.model import ModelParams, spectrum_closed_form
from nhjc.scan import MAX_CELLS

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
BROKEN = ModelParams(1.0, 5.0, 4.0, 0)  # Gamma = sqrt(12)
UNBROKEN = ModelParams(1.0, 5.0, 1.0, 0)  # Lambda = sqrt(3)


def test_bloch_state_validation():
    with pytest.raises(ValueError):
        BlochState(np.array([0.0, 0.0, 1.1]))
    with pytest.raises(ValueError):
        BlochState(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        BlochState(np.array([0.0, 0.0, np.nan]))
    with pytest.raises(ValueError):
        BlochState(np.array([0.0, 0.0, 1.0]), weight=-1.0)


@pytest.mark.parametrize(
    "weight", [True, False, 10**400, -(10**400), math.inf, math.nan, "1", 1j, None]
)
def test_bloch_state_refuses_a_bool_or_non_finite_weight(weight):
    # math.isfinite raised OverflowError on 10**400 and TypeError on "1", 1j
    # and None, and True was kept as the weight
    with pytest.raises(ValueError, match="^weight must be finite and non-negative, got "):
        BlochState(np.array([0.0, 0.0, 1.0]), weight=weight)


@pytest.mark.parametrize("length", [1.0, 1.0 + 5e-10])
def test_bloch_state_accepts_unit_length_within_roundoff(length):
    r = np.array([0.6, 0.0, 0.8]) * length
    state = BlochState(tuple(r.tolist()))
    assert state.r.dtype == float and np.array_equal(state.r, r)


@pytest.mark.parametrize(
    "r, message",
    [
        ((0.0, 0.0, 1.0 + 2e-9), r"^Bloch vector length 1\.000000002 exceeds 1$"),
        ((0.0, math.nan, 0.0), "^Bloch vector must be finite$"),
        ((math.inf, 0.0, 0.0), "^Bloch vector must be finite$"),
        ((0.0, 0.0, -math.inf), "^Bloch vector must be finite$"),
    ],
)
def test_bloch_state_rejects_long_or_non_finite_vectors(r, message):
    with pytest.raises(ValueError, match=message):
        BlochState(np.array(r))


@pytest.mark.parametrize(
    "r",
    [
        ("0", "0", "1"),
        (0, 0, True),
        (0.0, 0.0, None),
        (0.0, 0.0, 1j),
        np.array([0.0, 0.0, 1.0 + 0.0j]),
        np.array([False, False, True]),
    ],
)
def test_bloch_state_refuses_components_that_are_not_numbers(r):
    # np.array(r, dtype=float) read "1" and True as 1.0 and dropped the imaginary part
    with pytest.raises(ValueError, match="^Bloch vector components must be real numbers, got "):
        BlochState(r)


@pytest.mark.parametrize(
    "r", [0.5, "ab", (0.0, 0.0), np.array([0.0, 0.0]), [[0.0, 0.0, 1.0]], np.zeros((3, 1))]
)
def test_bloch_state_refuses_anything_but_three_components(r):
    with pytest.raises(ValueError, match="^Bloch vector must have 3 components, got "):
        BlochState(r)


@pytest.mark.parametrize(
    "r, message",
    [
        ((0, 0, 10**400), "^Bloch vector must be finite$"),
        (np.array([0.0, 0.0, np.longdouble("1e400")]), "^Bloch vector must be finite$"),
        ((0.0, 0.0, 1.0), None),
        ((0, 0, 1), None),
        ((np.float32(0.0), 0, Fraction(1, 1)), None),
        (iter([0.0, 0.0, 1.0]), None),
        (np.array([0, 0, 1]), None),
        (np.array([0.0, 0.0, 1.0], dtype=np.float32), None),
        (np.array([0.0, 0.0, 1.0], dtype=">f8"), None),
    ],
)
@pytest.mark.filterwarnings("error")
def test_bloch_state_reads_each_component_as_a_number(r, message):
    if message is not None:
        with pytest.raises(ValueError, match=message):
            BlochState(r)
        return
    state = BlochState(r)
    assert state.r.dtype == np.float64 and state.r.tolist() == [0.0, 0.0, 1.0]


def test_bloch_state_copies_a_float_array():
    r = np.array([0.6, 0.0, 0.8])
    state = BlochState(r)
    r[0] = 1.0
    assert state.r.tolist() == [0.6, 0.0, 0.8]


def test_bloch_state_matrix():
    state = BlochState(np.array([0.0, 0.0, 1.0]), weight=2.0)
    np.testing.assert_allclose(state.matrix(), [[2.0, 0.0], [0.0, 0.0]])
    rng = np.random.default_rng(81)
    for _ in range(20):
        r = random_bloch(rng)
        m = BlochState(r, weight=0.7).matrix()
        assert np.max(np.abs(m - m.conj().T)) < 1e-15
        assert math.isclose(float(np.trace(m).real), 0.7, rel_tol=1e-14)


def test_effective_generator_frozen_cases():
    gen = effective_generator(BROKEN)
    assert gen.is_broken
    assert math.isclose(gen.rate, math.sqrt(12.0), rel_tol=1e-15)
    assert gen.shift == 0.5
    gen = effective_generator(UNBROKEN)
    assert not gen.is_broken
    assert math.isclose(gen.rate, math.sqrt(3.0), rel_tol=1e-15)
    with pytest.raises(ExceptionalPointError):
        effective_generator(ModelParams(1.0, 5.0, 2.0, 0))


def test_generator_matrix_structure_and_spectrum():
    rng = np.random.default_rng(82)
    for _ in range(100):
        p = random_params(rng)
        gen = effective_generator(p)
        m = gen.matrix()
        # i Gamma sigma_y, with Gamma = i Lambda in the unbroken phase
        coupling = 1j * gen.rate if gen.is_broken else -gen.rate
        expected = gen.shift * np.eye(2) + coupling * SIGMA_Y
        assert np.array_equal(m, expected)
        # isospectral to the Hamiltonian block
        s = spectrum_closed_form(p)
        got = match_order(eig2(m).values, (s.eigenvalue_I, s.eigenvalue_II))
        assert abs(got[0] - s.eigenvalue_I) < 1e-10 * max(1.0, abs(s.eigenvalue_I))
        assert abs(got[1] - s.eigenvalue_II) < 1e-10 * max(1.0, abs(s.eigenvalue_II))


def test_evolution_frozen_broken_point():
    # r = (0, 0, 1), Gamma = sqrt(12), t = 0.1: D = cosh(0.2 sqrt(12))
    gen = effective_generator(BROKEN)
    state = evolve_no_jump(gen, BlochState(np.array([0.0, 0.0, 1.0])), 0.1)
    assert math.isclose(state.weight, 1.2497549236187437, rel_tol=1e-15)
    assert math.isclose(state.r[1], math.tanh(0.2 * math.sqrt(12.0)), rel_tol=1e-14)
    assert math.isclose(state.r[2], 1.0 / 1.2497549236187437, rel_tol=1e-14)
    assert state.r[0] == 0.0


def test_evolution_requires_sane_time():
    gen = effective_generator(BROKEN)
    state = BlochState(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        evolve_no_jump(gen, state, -0.1)
    with pytest.raises(ValueError):
        evolve_no_jump(gen, state, math.inf)
    assert evolve_no_jump(gen, state, 0.0).weight == state.weight
    np.testing.assert_array_equal(evolve_no_jump(gen, state, 0.0).r, state.r)


def test_evolution_matches_matrix_exponential():
    rng = np.random.default_rng(83)
    for _ in range(200):
        p = random_params(rng)
        gen = effective_generator(p)
        t = float(rng.uniform(0.0, 3.0 / gen.rate))
        state = BlochState(random_bloch(rng), weight=float(rng.uniform(0.2, 2.0)))
        u = expm2(-1j * gen.matrix(), t)
        oracle = u @ state.matrix() @ u.conj().T
        evolved = evolve_no_jump(gen, state, t).matrix()
        scale = max(1.0, float(np.linalg.norm(oracle)))
        assert np.max(np.abs(evolved - oracle)) < 1e-10 * scale


def test_unbroken_phase_rotates():
    gen = effective_generator(UNBROKEN)
    lam = math.sqrt(3.0)
    for t in (0.0, 0.3, 1.7):
        state = evolve_no_jump(gen, BlochState(np.array([0.0, 0.0, 1.0])), t)
        assert state.weight == 1.0
        assert math.isclose(state.r[0], -math.sin(2.0 * lam * t), abs_tol=1e-14)
        assert math.isclose(state.r[2], math.cos(2.0 * lam * t), abs_tol=1e-14)
        assert state.r[1] == 0.0
    # Bloch length is preserved and the motion is periodic with pi / Lambda
    rng = np.random.default_rng(84)
    period = math.pi / lam
    for _ in range(20):
        r = random_bloch(rng)
        t = float(rng.uniform(0.0, 5.0))
        one = evolve_no_jump(gen, BlochState(r), t)
        two = evolve_no_jump(gen, BlochState(r), t + period)
        assert math.isclose(
            float(np.linalg.norm(one.r)), float(np.linalg.norm(r)), abs_tol=1e-14
        )
        assert np.max(np.abs(one.r - two.r)) < 1e-12


def test_broken_phase_purifies():
    gen = effective_generator(BROKEN)
    rng = np.random.default_rng(85)
    for _ in range(20):
        state = BlochState(random_bloch(rng))
        late = evolve_no_jump(gen, state, 5.0)
        # everything generic flows to the sigma_y = +1 eigenstate
        np.testing.assert_allclose(late.r, [0.0, 1.0, 0.0], atol=1e-8)


def test_broken_phase_fixed_points():
    gen = effective_generator(BROKEN)
    big_gamma = math.sqrt(12.0)
    up = evolve_no_jump(gen, BlochState(np.array([0.0, 1.0, 0.0])), 0.4)
    np.testing.assert_allclose(up.r, [0.0, 1.0, 0.0], atol=1e-14)
    assert math.isclose(up.weight, math.exp(2.0 * big_gamma * 0.4), rel_tol=1e-12)
    down = evolve_no_jump(gen, BlochState(np.array([0.0, -1.0, 0.0])), 0.4)
    np.testing.assert_allclose(down.r, [0.0, -1.0, 0.0], atol=1e-10)
    assert math.isclose(down.weight, math.exp(-2.0 * big_gamma * 0.4), rel_tol=1e-12)


def test_survival_probability():
    # the weight of the evolved state: D(t) broken, constant unbroken
    gen = effective_generator(BROKEN)
    state = BlochState(np.array([0.3, -0.2, 0.5]), weight=1.5)
    for t in (0.0, 0.1, 0.7):
        x = 2.0 * math.sqrt(12.0) * t
        assert math.isclose(
            evolve_no_jump(gen, state, t).weight,
            1.5 * (math.cosh(x) - 0.2 * math.sinh(x)),
            rel_tol=1e-14,
        )
    assert evolve_no_jump(gen, state, 0.0).weight == 1.5
    gen_u = effective_generator(UNBROKEN)
    assert evolve_no_jump(gen_u, state, 2.0).weight == 1.5
    with pytest.raises(ValueError):
        evolve_no_jump(gen, state, -1.0)
    # math.isfinite raised OverflowError on 10**400 and TypeError on "1", None
    # and 1j, and True evolved to t = 1
    for t in (10**400, "1", None, 1j, True, False):
        with pytest.raises(ValueError, match="^t must be finite and non-negative, got "):
            evolve_no_jump(gen, state, t)


@pytest.mark.parametrize("two_gamma_t", [711.0, 1000.0])
@pytest.mark.parametrize("r_y", [-1.0, 0.0, 1.0])
def test_weight_overflow_raises_value_error(two_gamma_t, r_y):
    # cosh(2 Gamma t) overflows past 710.5: a documented ValueError
    gen = effective_generator(BROKEN)
    state = BlochState(np.array([0.0, r_y, 0.0]))
    with pytest.raises(ValueError, match="no-jump weight overflows") as info:
        evolve_no_jump(gen, state, two_gamma_t / (2.0 * gen.rate))
    assert type(info.value) is ValueError


def test_weight_that_cancels_or_an_angle_that_overflows_raises_value_error():
    gen = effective_generator(BROKEN)
    # r_y = -1: cosh - sinh rounds to 0 from 2 Gamma t of about 19
    state = BlochState(np.array([0.0, -1.0, 0.0]))
    assert evolve_no_jump(gen, state, 10.0 / (2.0 * gen.rate)).weight > 0.0
    with pytest.raises(ValueError, match="^no-jump weight cancels to 0 at r_y = -1") as info:
        evolve_no_jump(gen, state, 40.0 / (2.0 * gen.rate))
    assert type(info.value) is ValueError
    # 2 * rate * t is past the float range, in either phase
    for p in (BROKEN, UNBROKEN):
        with pytest.raises(ValueError, match=r"^2 \* rate \* t overflows at rate "):
            evolve_no_jump(effective_generator(p), state, 1e308)


def test_weight_that_cancels_below_zero_names_the_cancellation():
    # at 2 Gamma t = 19 cosh - sinh reads -1.49e-8, not 0, and the error
    # named the weight instead of the cancellation; a weight of 0 now raises
    # there as it did where D reads 0
    gen = effective_generator(BROKEN)
    t = 19.0 / (2.0 * gen.rate)
    assert 2.0 * gen.rate * t == 19.0 and math.cosh(19.0) - math.sinh(19.0) < 0.0
    cancels = r"^no-jump weight cancels to 0 at r_y = -1, 2 Gamma t = 19\.0$"
    for weight in (1.0, 0.0):
        with pytest.raises(ValueError, match=cancels):
            evolve_no_jump(gen, BlochState(np.array([0.0, -1.0, 0.0]), weight), t)


def _fields(obj) -> list:
    """Each field of a dataclass instance: its name, its type, and its bits
    (an array's bytes, a number's repr, so -0.0 differs from 0.0)."""
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return [(name, type(v), v.tobytes() if isinstance(v, np.ndarray) else repr(v))
            for name, v in values]


# broken, unbroken, decoupled, the diabolic point (rate 0), int energies, and
# n = 2**62 on the unbroken and the broken side
_GENERATOR_POINTS = [
    (1.0, 5.0, 4.0, 0), (1.0, 5.0, 1.0, 0), (1.0, 5.0, 0.0, 0), (2.0, 2.0, 0.0, 0),
    (1, 5, 4, 3), (1.0, 5.0, 1e-12, 2**62), (1.0, 5.0, 1.0, 2**62),
]


@pytest.mark.parametrize("point", _GENERATOR_POINTS)
def test_effective_generator_holds_what_its_constructor_keeps(point):
    gen = effective_generator(ModelParams(*point))
    public = EffectiveGenerator(gen.n, gen.rate, gen.shift, gen.is_broken)
    assert _fields(gen) == _fields(public)
    assert [type(v) for v in vars(gen).values()] == [int, float, float, bool]
    assert gen == public and hash(gen) == hash(public) and repr(gen) == repr(public)
    assert (gen.rate == 0.0) == (point == (2.0, 2.0, 0.0, 0))


@pytest.mark.parametrize("point", [_GENERATOR_POINTS[k] for k in (0, 1, 3, 5, 6)])
def test_evolved_states_hold_what_their_constructor_keeps(point):
    # r_y = +-1, r = 0, |r| = 1 and a generic vector, with an int, a float and
    # a zero weight
    gen = effective_generator(ModelParams(*point))
    for r in ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0), (0.6, 0.0, 0.8), (0.1, -0.2, 0.3)):
        for weight in (1, 0.5, 0.0):
            state = BlochState(np.array(r), weight)
            for x in (0.0, 0.3, 2.0, 18.0):
                t = x / (2.0 * gen.rate) if gen.rate else x
                out = evolve_no_jump(gen, state, t)
                assert out.r.flags.c_contiguous and out.r.flags.owndata
                assert _fields(out) == _fields(BlochState(out.r, out.weight))
                # the same state as the constructor makes of the flow's floats
                angle = 2.0 * gen.rate * t
                rx, ry, rz = state.r.tolist()
                if gen.is_broken:
                    ch, sh = math.cosh(angle), math.sinh(angle)
                    d = ch + ry * sh
                    expected = BlochState([rx / d, (sh + ry * ch) / d, rz / d], state.weight * d)
                else:
                    ct, st = math.cos(angle), math.sin(angle)
                    expected = BlochState([rx * ct - rz * st, ry, rx * st + rz * ct], state.weight)
                assert _fields(out) == _fields(expected), (r, weight, x)


def test_evolved_state_guards_raise_the_constructors_errors():
    gen = effective_generator(BROKEN)
    # cosh and sinh of 710 are finite, their sum is not: r_y = (inf) / inf
    with pytest.raises(ValueError, match="^Bloch vector must be finite$"):
        evolve_no_jump(gen, BlochState(np.array([0.0, 1.0, 0.0])), 710.0 / (2.0 * gen.rate))
    with pytest.raises(ValueError, match="^weight must be finite and non-negative, got inf$"):
        evolve_no_jump(gen, BlochState(np.array([0.0, 0.5, 0.0]), 1e300), 700.0 / (2.0 * gen.rate))
    for r, weight, message in (((0.0, 1.0, 0.0), math.inf, "weight must be finite and non-negative, got inf"),
                               ((0.0, math.nan, 0.0), 1.0, "Bloch vector must be finite")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlochState(r, weight)


def test_default_time_grid():
    gen = effective_generator(BROKEN)
    grid = default_time_grid(gen)
    assert len(grid) == 500
    assert grid[0] == 0.0
    assert math.isclose(grid[-1], 5.0 / math.sqrt(12.0), rel_tol=1e-15)
    assert len(default_time_grid(gen, points=7)) == 7
    with pytest.raises(ValueError):
        default_time_grid(gen, points=1)


@pytest.mark.parametrize("points", [np.uint64(2**63), 10**12, MAX_CELLS + 1])
def test_default_time_grid_refuses_points_past_the_sweep_cap(monkeypatch, points):
    # linspace raised IndexError on np.uint64(2**63) and MemoryError on 10**12
    def refuse(*args, **kwargs):
        raise AssertionError("the count must be refused before any grid is allocated")

    monkeypatch.setattr(np, "linspace", refuse)
    refused = rf"^time grid: points must be an integer >= 2 and <= {MAX_CELLS}, got "
    with pytest.raises(ValueError, match=refused):
        default_time_grid(EffectiveGenerator(0, 1.0, 0.0, True), points)
