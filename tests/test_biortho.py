"""Tests for eigenvector ratios, metrics, intertwiners and projectors."""

import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import eig2, expm2, pseudo_hermiticity_residual, random_complex, random_params

from nhjc import biortho
from nhjc.biortho import (
    _metric_entries,
    eigenvector_ratios,
    intertwiner,
    metric,
    metric_divergence_exponent,
    projectors,
    sqrt_hpd,
)
from nhjc.entropy import entanglement_entropy, reduced_spectrum
from nhjc.errors import ExceptionalPointError
from nhjc.model import (
    _MEMO,
    Branch,
    ModelParams,
    Phase,
    _in_band,
    build_block,
    spectrum_closed_form,
)
from nhjc.scan import Axis, SweepSpec, run_sweep

SQRT3 = math.sqrt(3.0)
EYE = np.eye(2, dtype=complex)

UNBROKEN = ModelParams(1.0, 5.0, 1.0, 0)  # delta = 1
BROKEN = ModelParams(1.0, 5.0, 4.0, 0)  # delta = 4


def test_ratios_unbroken_frozen():
    a_one, a_two = eigenvector_ratios(UNBROKEN)
    assert math.isclose(a_one, SQRT3 - 2.0, rel_tol=1e-14)
    assert math.isclose(a_two, -SQRT3 - 2.0, rel_tol=1e-14)


def test_ratios_broken_frozen():
    a_one, a_two = eigenvector_ratios(BROKEN)
    assert abs(a_one - (-0.5 + 0.25j * math.sqrt(12.0))) < 1e-15
    assert abs(a_two - (-0.5 - 0.25j * math.sqrt(12.0))) < 1e-15
    assert math.isclose(abs(a_one), 1.0, rel_tol=1e-15)  # unimodular in the broken phase


def test_ratios_product_is_one():
    rng = np.random.default_rng(61)
    for _ in range(300):
        p = random_params(rng)
        a_one, a_two = eigenvector_ratios(p)
        assert abs(a_one * a_two - 1.0) < 1e-12


def test_ratios_solve_characteristic_quadratic():
    rng = np.random.default_rng(62)
    for _ in range(100):
        p = random_params(rng)
        delta = math.sqrt(p.n + 1) * p.gamma
        for a in eigenvector_ratios(p):
            residual = delta * a * a + (p.epsilon - p.omega) * a + delta
            assert abs(residual) < 1e-10 * max(1.0, abs(delta) * abs(a) ** 2)


def test_ratios_no_cancellation_at_small_gamma():
    # tiny coupling: alpha_I ~ -delta/4, alpha_II ~ -4/delta, full relative accuracy
    p = ModelParams(1.0, 5.0, 1e-8, 0)
    a_one, a_two = eigenvector_ratios(p)
    assert math.isclose(a_one, -2.5e-9, rel_tol=1e-9)
    assert math.isclose(a_two, -4e8, rel_tol=1e-9)


def test_ratios_require_coupling():
    with pytest.raises(ValueError, match="^eigenvector ratios are undefined at gamma = 0$"):
        eigenvector_ratios(ModelParams(1.0, 5.0, 0.0, 0))


@pytest.mark.parametrize(
    "p, name",
    [(ModelParams(1.0, 5.0, 1e-308, 0), "a_II = -inf"), (ModelParams(5.0, 1.0, 1e-308, 0), "a_I = inf")],
)
def test_ratios_past_the_float_range_raise(p, name):
    # |omega - epsilon| / (2 gamma) overflows: one ratio is infinite, its partner 0
    with pytest.raises(ValueError, match=f"^eigenvector ratio {name} is not finite at ") as info:
        eigenvector_ratios(p)
    assert type(info.value) is ValueError
    # entropy reads the infinite ratio as the product-state limit
    for branch in (Branch.I, Branch.II):
        assert entanglement_entropy(p, branch) == 0.0
        assert reduced_spectrum(p, branch).lam in (0.0, 1.0)


def test_projectors_carry_the_eigenvector_ratios():
    # rho_i = |R_i><L_i| / <L_i|R_i> for right (1, a_i) and left (1, -conj a_i):
    # its columns are parallel to R_i and its rows to L_i^dag
    for p in (UNBROKEN, BROKEN):
        for a, rho in zip(eigenvector_ratios(p), projectors(p)):
            assert abs(rho[1, 0] / rho[0, 0] - a) <= 1e-15 * abs(a)
            assert abs(rho[0, 1] / rho[0, 0] + a) <= 1e-15 * abs(a)


def test_projectors_solve_block():
    # H rho_i = E_i rho_i = rho_i H: right and left eigenvectors of each branch
    rng = np.random.default_rng(63)
    for _ in range(200):
        p = random_params(rng)
        h = build_block(p)
        s = spectrum_closed_form(p)
        scale = max(1.0, float(np.linalg.norm(h)))
        for value, rho in zip((s.eigenvalue_I, s.eigenvalue_II), projectors(p)):
            size = float(np.linalg.norm(rho))
            assert np.linalg.norm(h @ rho - value * rho) < 1e-9 * scale * size
            assert np.linalg.norm(rho @ h - value * rho) < 1e-9 * scale * size


def test_projector_vectors_carry_the_reduced_spectrum():
    # Dirac-normalized, the right vector (a column) and the left vector (a
    # row) of a branch carry the reduced spectrum {1, |a_i|^2} / (1 + |a_i|^2)
    # of the entropy module
    for p in (UNBROKEN, BROKEN):
        for branch, rho in zip((Branch.I, Branch.II), projectors(p)):
            lam = reduced_spectrum(p, branch).lam
            for v in (rho[:, 0], rho[0, :]):
                weights = np.abs(v / np.linalg.norm(v)) ** 2
                assert abs(weights[0] - lam) < 1e-14
                assert abs(weights[1] - (1.0 - lam)) < 1e-14


def test_projectors_at_exceptional_point_raise():
    coalesce = r"^eigenvectors coalesce near the exceptional point \(discriminant "
    with pytest.raises(ExceptionalPointError, match=coalesce):
        projectors(ModelParams(1.0, 5.0, 2.0, 0))
    with pytest.raises(ExceptionalPointError, match=coalesce):
        projectors(ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-13), 0))


def test_projectors_of_decoupled_block():
    # gamma = 0: the block is diagonal; branch I belongs to the larger
    # eigenvalue, the first basis vector where epsilon > omega
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for p, want in (
        (ModelParams(1.0, 5.0, 0.0, 0), (e1, e2)),
        (ModelParams(5.0, 1.0, 0.0, 0), (e2, e1)),  # omega > epsilon swaps the order
    ):
        rho_one, rho_two = projectors(p)
        assert np.array_equal(rho_one, want[0]) and np.array_equal(rho_two, want[1])
        h = build_block(p)
        s = spectrum_closed_form(p)
        assert np.allclose(h @ rho_one, s.eigenvalue_I * rho_one)
        assert np.allclose(h @ rho_two, s.eigenvalue_II * rho_two)


# Both phases, n up to 5, and the weak couplings at (omega, epsilon) = (5, 1)
# where the naive closed form (H - lambda_II I) / sqrt(D) cancels; away from
# the EP, whose conditioning test_metric_and_sweep_norm_against_oracle covers
PROJECTOR_POINTS = [
    (5.0, 1.0, 1e-2, 0),
    (5.0, 1.0, 1e-2, 5),
    (5.0, 1.0, 1e-5, 0),
    (5.0, 1.0, 1e-5, 5),
    (5.0, 1.0, 1e-8, 0),
    (5.0, 1.0, -1e-8, 2),
    (5.0, 1.0, 1e-8, 5),
    (1.0, 5.0, 1e-8, 1),
    (1.0, 5.0, 1.0, 0),
    (5.0, 1.0, 0.5, 3),
    (0.3, -1.7, -0.2, 4),
    (1.0, 5.0, 4.0, 0),
    (5.0, 1.0, 3.0, 5),
    (-2.0, 0.7, 1.5, 1),
    (2.9, -4.6, -7.0, 2),
    (2.5, 2.5, 0.4, 4),  # omega == epsilon: broken
    (-0.7, 1.3, 1e100, 1),  # deep broken
    (-2.0, 3.0, -4.0, 5),
    (4.1, 0.6, -1.3, 0),
    (3.0, -1.0, -0.5, 1),
]
# The worst entrywise relative error over PROJECTOR_POINTS was 4.9e-16
# (4.4 ulps, at (3, -1, -0.5, 1)); the bound is 8 ulps.
PROJECTOR_ERROR_BOUND = 8 * 2.0**-53


@pytest.mark.parametrize("omega, epsilon, gamma, n", PROJECTOR_POINTS)
def test_projectors_entrywise_against_oracle(omega, epsilon, gamma, n):
    with mpmath.workdps(60):
        wants = helpers.mp_projectors(omega, epsilon, gamma, n)
        for got, want in zip(projectors(ModelParams(omega, epsilon, gamma, n)), wants):
            for (i, j), value in np.ndenumerate(got):
                error = abs(mpmath.mpc(complex(value)) - want[i, j]) / abs(want[i, j])
                assert error <= PROJECTOR_ERROR_BOUND, (i, j)


def test_metric_pinned_closed_forms():
    np.testing.assert_allclose(
        metric(UNBROKEN), helpers.unbroken_metric(1.0), atol=1e-14
    )
    np.testing.assert_allclose(
        metric(BROKEN), helpers.broken_metric(4.0), atol=1e-14
    )
    # the tiny couplings square the ratio a_II ~ -4 / delta past overflow
    for delta in [*np.linspace(0.2, 1.9, 9), 1e-100, 1e-160, 1e-200, 1e-300]:
        p = ModelParams(1.0, 5.0, float(delta), 0)
        np.testing.assert_allclose(
            metric(p), helpers.unbroken_metric(float(delta)), atol=1e-12
        )
    for delta in np.linspace(2.1, 6.0, 9):
        p = ModelParams(1.0, 5.0, float(delta), 0)
        np.testing.assert_allclose(
            metric(p), helpers.broken_metric(float(delta)), atol=1e-12
        )


# Near the EP, G inherits the conditioning of D = b2 - c2: its relative
# error is at most this many times max(b2, c2) / |D| unit roundoffs (the
# worst measured over 350 random blocks was 1.6).
METRIC_ERROR_FACTOR = 4.0


@pytest.mark.parametrize("distance", [1e-9, 1e-7, 1e-4, 1e-1])
@pytest.mark.parametrize("omega, epsilon, n, sign", [
    (1.0, 5.0, 0, 1.0),
    (5.0, 1.0, 3, -1.0),
    (-2.0, 0.7, 1, 1.0),
    (0.3, -1.7, 5, -1.0),
    (2.9, -4.6, 2, 1.0),
])
def test_metric_and_sweep_norm_against_oracle(omega, epsilon, n, sign, distance):
    # gamma at this relative distance below and above |gamma_c|
    gamma_c = abs(omega - epsilon) / (2.0 * math.sqrt(n + 1))
    gammas = sorted(sign * gamma_c * (1.0 + s * distance) for s in (-1.0, 1.0))
    spec = SweepSpec(
        ModelParams(omega, epsilon, 1.0, n), Axis("gamma", *gammas, 2), quantities=("metric_norm",)
    )
    table = run_sweep(spec)
    assert sorted(table.phase.tolist()) == [0, 1]  # one cell on each side
    for gamma, norm in zip(gammas, table.extras["metric_norm"].tolist()):
        want = helpers.mp_metric(omega, epsilon, gamma, n)
        bound = METRIC_ERROR_FACTOR * helpers.mp_condition(omega, epsilon, gamma, n) * 2.0**-53
        got = metric(ModelParams(omega, epsilon, gamma, n))
        assert helpers.mp_relative_error(got, want) <= bound
        assert helpers.mp_relative_error(norm, helpers.mp_frobenius(want)) <= bound


def test_metric_is_identity_without_coupling():
    np.testing.assert_allclose(metric(ModelParams(1.0, 5.0, 0.0, 2)), EYE)


@pytest.mark.parametrize("omega, epsilon, gamma, off", [
    (1.0, 5.0, 0.0, 0.0),
    (1.0, 5.0, -0.0, -0.0),
    (5.0, 1.0, 0.0, -0.0),
    (5.0, 1.0, -0.0, 0.0),
    (2.0, 2.0, 0.0, -0.0),  # the diabolic point
])
def test_metric_and_intertwiner_without_coupling_sign_the_zero(omega, epsilon, gamma, off):
    # t = 0: G = g = g^-1 = I, the off-diagonal zero signed -sgn(b t) as
    # _metric_entries signs it where t != 0, and h is the diagonal block
    p = ModelParams(omega, epsilon, gamma, 2)

    def same_bits(got, diag, off):
        want = np.array([[diag, off], [off, diag]], dtype=complex)
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    assert same_bits(metric(p), 1.0, off)
    bundle = intertwiner(p)
    assert same_bits(bundle.G, 1.0, off)
    assert same_bits(bundle.g, 1.0, off) and same_bits(bundle.g_inv, 1.0, -off)
    assert np.array_equal(bundle.h, build_block(p))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
# int b within int64, which numpy 1.24 takes as int64 and not as an object array
@given(b=st.one_of(finite, st.integers(-(2**62), 2**62)), t=finite)
@example(b=0.0, t=1.0)
@example(b=-0.0, t=1.0)
@example(b=-0.0, t=-1.0)
@example(b=5e-324, t=1e-320)
@example(b=-3e-310, t=2.5)
@example(b=3, t=-1.5)
@example(b=-(2**62) - 1, t=3.0)  # no float equals it
def test_metric_entries_on_floats_match_the_numpy_defaults(b, t):
    # metric() forms G's entries with math.sqrt, max, min and math.copysign on
    # Python floats, the sweep kernel with numpy's ufuncs: the same bits,
    # signed zeros, subnormal and int b included
    try:
        b2, c2 = b**2, t * t
        if not (math.isfinite(b2) and math.isfinite(c2)):
            return
    except OverflowError:
        return
    d = b2 - c2
    if t == 0.0 or _in_band(b2, c2, d, True):
        return
    floats = _metric_entries(b, t, d, math.sqrt, max, min, math.copysign)
    assert all(type(x) is float for x in floats)
    assert [x.hex() for x in floats] == [float(x).hex() for x in _metric_entries(b, t, d)]


def test_metric_positive_definite_everywhere():
    rng = np.random.default_rng(65)
    for _ in range(200):
        p = random_params(rng)
        g = metric(p)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12 * np.linalg.norm(g)
        assert np.trace(g).real > 0.0
        assert np.linalg.det(g).real > 0.0


def test_intertwiner_bundle_unbroken():
    bundle = intertwiner(UNBROKEN)
    assert bundle.phase.value is Phase.UNBROKEN
    np.testing.assert_allclose(bundle.g, helpers.unbroken_intertwiner(1.0), atol=1e-13)
    np.testing.assert_allclose(
        bundle.g_inv, helpers.unbroken_intertwiner_inv(1.0), atol=1e-13
    )
    np.testing.assert_allclose(bundle.h, helpers.unbroken_isospectral(0, 1.0), atol=1e-13)
    assert np.max(np.abs(bundle.g @ bundle.g - bundle.G)) < 1e-13
    assert np.max(np.abs(bundle.g @ bundle.g_inv - EYE)) < 1e-13
    # h is Hermitian and isospectral to the block
    h = bundle.h
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_intertwiner_bundle_broken():
    bundle = intertwiner(BROKEN)
    assert bundle.phase.value is Phase.BROKEN
    np.testing.assert_allclose(bundle.g, helpers.broken_intertwiner(4.0), atol=1e-13)
    np.testing.assert_allclose(
        bundle.g_inv, helpers.broken_intertwiner_inv(4.0), atol=1e-13
    )
    np.testing.assert_allclose(bundle.h, helpers.broken_isospectral(0, 4.0), atol=1e-13)
    h = bundle.h
    assert abs(h[0, 1] - math.sqrt(12.0)) < 1e-13
    assert abs(h[1, 0] + math.sqrt(12.0)) < 1e-13
    assert np.max(np.abs(h - h.conj().T)) > 1.0  # clearly non-Hermitian


_BUNDLE = ("G", "g", "g_inv", "h")


@pytest.mark.parametrize(
    "p", [UNBROKEN, BROKEN, ModelParams(1.0, 5.0, 0.0, 0), ModelParams(1.0, 5.0, 1.0, 2**62)]
)
def test_bundle_matrices_are_four_separate_arrays(p):
    # one array holds all four: writing into one leaves the other three alone
    for name in _BUNDLE:
        bundle, untouched = intertwiner(p), intertwiner(p)
        for other in _BUNDLE:
            m = getattr(bundle, other)
            assert m.shape == (2, 2) and m.dtype == np.complex128 and m.flags.c_contiguous
            assert other == name or not np.shares_memory(m, getattr(bundle, name))
        getattr(bundle, name)[...] = 7.0 + 7.0j
        for other in _BUNDLE:
            if other != name:
                assert getattr(bundle, other).tobytes() == getattr(untouched, other).tobytes()
    assert intertwiner(p).G.tobytes() == metric(p).tobytes()


@pytest.mark.parametrize("gamma", [1e-100, 1e-160, 1e-200, 1e-300])
def test_tiny_coupling_bundle_projectors_and_entropy(gamma):
    p = ModelParams(1.0, 5.0, gamma, 0)
    bundle = intertwiner(p)
    for got, want in (
        (bundle.G, helpers.unbroken_metric(gamma)),
        (bundle.g, helpers.unbroken_intertwiner(gamma)),
        (bundle.g_inv, helpers.unbroken_intertwiner_inv(gamma)),
        (bundle.h, helpers.unbroken_isospectral(0, gamma)),
    ):
        np.testing.assert_allclose(got, want, atol=1e-13)
    for got, want in zip(projectors(p), helpers.unbroken_projectors(gamma)):
        np.testing.assert_allclose(got, want, atol=1e-13)
    assert pseudo_hermiticity_residual(build_block(p), metric(p)) < 1e-13
    for branch in Branch:
        assert 0.0 <= entanglement_entropy(p, branch) < gamma
        spectrum = reduced_spectrum(p, branch)
        assert min(spectrum.lam, spectrum.complement) < gamma  # a product state


def test_intertwiner_isospectral_random():
    rng = np.random.default_rng(66)
    for _ in range(100):
        p = random_params(rng)
        bundle = intertwiner(p)
        s = spectrum_closed_form(p)
        got = helpers.match_order(
            eig2(bundle.h).values, (s.eigenvalue_I, s.eigenvalue_II)
        )
        scale = max(1.0, abs(s.eigenvalue_I))
        assert abs(got[0] - s.eigenvalue_I) < 1e-9 * scale
        assert abs(got[1] - s.eigenvalue_II) < 1e-9 * scale


def test_projectors_algebra_and_pinning():
    rng = np.random.default_rng(67)
    for _ in range(100):
        p = random_params(rng)
        rho_one, rho_two = projectors(p)
        assert abs(np.trace(rho_one) - 1.0) < 1e-10
        assert np.max(np.abs(rho_one @ rho_one - rho_one)) < 1e-10
        assert np.max(np.abs(rho_one @ rho_two)) < 1e-10
        assert np.max(np.abs(rho_one + rho_two - EYE)) < 1e-10
        # each projector picks out its eigenvalue: H rho_i = E_i rho_i
        h = build_block(p)
        s = spectrum_closed_form(p)
        assert np.max(np.abs(h @ rho_one - s.eigenvalue_I * rho_one)) < 1e-9 * max(
            1.0, float(np.linalg.norm(h))
        )
    rho_one, rho_two = projectors(UNBROKEN)
    printed_one, printed_two = helpers.unbroken_projectors(1.0)
    np.testing.assert_allclose(rho_one, printed_one, atol=1e-13)
    np.testing.assert_allclose(rho_two, printed_two, atol=1e-13)
    rho_one, rho_two = projectors(BROKEN)
    printed_one, printed_two = helpers.broken_projectors(4.0)
    np.testing.assert_allclose(rho_one, printed_one, atol=1e-13)
    np.testing.assert_allclose(rho_two, printed_two, atol=1e-13)


def test_projectors_do_not_depend_on_convention():
    # same spectral projectors from the cross-check eigensolver's vectors
    rng = np.random.default_rng(68)
    for _ in range(100):
        p = random_params(rng)
        rho = projectors(p)
        pair = eig2(build_block(p))
        s = spectrum_closed_form(p)
        for k, target in ((0, s.eigenvalue_I), (1, s.eigenvalue_II)):
            i = 0 if abs(pair.values[0] - target) <= abs(pair.values[1] - target) else 1
            right, left = pair.right_vectors[i], pair.left_vectors[i]
            independent = np.outer(right, left.conj()) / np.vdot(left, right)
            assert np.max(np.abs(independent - rho[k])) < 1e-9


def test_pseudo_hermiticity_residual():
    def residual(p):
        return pseudo_hermiticity_residual(build_block(p), metric(p))

    assert residual(UNBROKEN) < 1e-13
    rng = np.random.default_rng(69)
    for _ in range(100):
        p = random_params(rng, phase="unbroken")
        assert residual(p) < 1e-10
        # GH is Hermitian even though H is not
        gh = metric(p) @ build_block(p)
        assert np.max(np.abs(gh - gh.conj().T)) < 1e-10 * max(1.0, float(np.linalg.norm(gh)))
    # in the broken phase G is no metric for H: the relative residual is O(1)
    for p in (BROKEN, *(random_params(rng, phase="broken") for _ in range(20))):
        assert residual(p) > 1e-2 * float(np.linalg.norm(build_block(p)))
    with pytest.raises(ExceptionalPointError):
        metric(ModelParams(1.0, 5.0, 2.0, 0))


def test_g_norm_conserved_in_unbroken_phase():
    big_g = metric(UNBROKEN)
    h = build_block(UNBROKEN)
    rng = np.random.default_rng(70)
    for _ in range(10):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        reference = complex(np.vdot(psi, big_g @ psi)).real
        for t in np.linspace(0.0, 10.0, 11):
            phi = expm2(-1j * h, float(t)) @ psi
            value = complex(np.vdot(phi, big_g @ phi)).real
            assert abs(value - reference) < 1e-9 * max(1.0, abs(reference))


def test_dirac_norm_drifts_in_broken_phase():
    h = build_block(BROKEN)
    rng = np.random.default_rng(71)
    for _ in range(10):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        norms = [
            float(np.linalg.norm(expm2(-1j * h, float(t)) @ psi))
            for t in np.linspace(0.0, 10.0, 11)
        ]
        assert max(norms) / min(norms) > 1.01


def test_metric_divergence_exponent():
    assert -0.52 < metric_divergence_exponent(UNBROKEN, side="below") < -0.48
    assert -0.52 < metric_divergence_exponent(UNBROKEN, side="above") < -0.48
    with pytest.raises(ValueError):
        metric_divergence_exponent(UNBROKEN, side="sideways")


@pytest.mark.parametrize("epsilon", [1.1, 1.15])
def test_exponent_below_window_may_not_reach_zero_coupling(epsilon):
    # delta_c = |omega - epsilon| / 2 <= 0.1: the 'below' offsets would run
    # through gamma = 0 (and, at 1.1, onto the mirrored EP at -delta_c)
    p = ModelParams(1.0, epsilon, 0.3, 0)
    with pytest.raises(ValueError, match=r"delta_c = .* = 0\.0[57]\d* must exceed 0\.1$") as info:
        metric_divergence_exponent(p, "below")
    assert type(info.value) is ValueError
    assert "[0.0001, 0.1]" in str(info.value)
    # the 'above' window stays on the broken side, but offsets up to 2 delta_c
    # are outside the -1/2 asymptote: the fit read -0.45 there
    with pytest.raises(ValueError, match=r"^the 'above' window delta_c \+ \[0\.0001, 0\.1\] "
                       r"leaves the -1/2 asymptote: delta_c = .* = 0\.0[57]\d* must exceed 0\.1$"):
        metric_divergence_exponent(p, "above")


@pytest.mark.parametrize("p", [ModelParams(2.0, 2.0, 0.0, 0), ModelParams(2.5, 2.5, 0.4, 4)])
def test_exponent_refuses_both_sides_at_omega_equal_epsilon(p):
    # delta_c = 0: G = I at every offset, so there is no divergence to fit
    for side in ("below", "above"):
        with pytest.raises(ValueError, match=rf"^the '{side}' window .* = 0\.0 must exceed 0\.1$"):
            metric_divergence_exponent(p, side)


def test_exponent_below_window_inside_one_phase():
    p = ModelParams(1.0, 1.3, 0.3, 0)  # delta_c = 0.15
    assert -0.52 < metric_divergence_exponent(p, "below") < -0.48


# (omega, epsilon, gamma, n): n of several types, delta_c just above 0.1,
# |omega - epsilon| >= 2e6, where the first offsets fall in the EP band, and
# near 1.4e154, where the squares overflow and the error names the block
_FIT_POINTS = [
    (1.0, 5.0, 1.0, 0),
    (1.0, 5.0, 1.0, np.int64(2)),
    (1.0, 5.0, 1.0, 2.0),
    (1.0, 5.0, 1.0, True),  # refused by ModelParams on both paths
    (1.0, 5.0, 1.0, np.uint64(7)),
    (np.float64(0.3), -1.7, 0.9, 5),
    (-2, 3, -4, 5),
    (1.0, 1.2000000000000002, 0.3, 0),  # delta_c = 0.10000000000000009
    (1.0, 1.2 + 1e-9, 0.3, 3),
    (0.0, 2e6, 1.0, 0),
    (0.0, -4e6, 1.0, np.int64(1)),
    (3e9, -1e9, 1.0, 2),
    (10**20, 0, 1.0, 0),
    (0.0, 1.3e154, 1.0, 0),
    (0.0, 1.3407807929942596e154, 1.0, 0),
    (0.0, 1.4e154, 1.0, 0),
    (1.4e154, -1e153, 1.0, 3),
    (2**512, 0, 1.0, 0),  # an int square past the float range
    (np.float64(1.4e154), 0.0, 1.0, 0),  # numpy's overflow warning, an error here
]


def _random_fit_points(count):
    rng = np.random.default_rng(15)
    for _ in range(count):
        omega = rng.uniform(-5.0, 5.0)
        gap = 10.0 ** rng.uniform(-0.69, 7.5) * rng.choice([-1.0, 1.0])
        n = int(rng.integers(0, 9))
        yield omega, omega + gap, 1.0, np.int64(n) if rng.random() < 0.3 else n


def _fit_outcome(fit, point, side):
    try:
        return float.hex(fit(ModelParams(*point), side))
    except Exception as exc:  # the differential test compares every error
        return type(exc), str(exc)


@pytest.mark.parametrize("side", ["below", "above"])
def test_exponent_matches_the_per_block_fit(side):
    kinds = set()
    for point in [*_FIT_POINTS, *_random_fit_points(150)]:
        got = _fit_outcome(metric_divergence_exponent, point, side)
        assert got == _fit_outcome(helpers.reference_exponent, point, side), point
        kinds.add(got[0] if isinstance(got, tuple) else "value")
    # every branch is met: fits, the EP band and overflowing squares
    assert {"value", ExceptionalPointError, ValueError} <= kinds


def test_exponent_errors_name_the_refused_block():
    with pytest.raises(ExceptionalPointError, match=r"discriminant 2\.000e\+03\)$"):
        metric_divergence_exponent(ModelParams(1.0, 5e6, 1.0, 0), "below")
    overflow = r"^discriminant: .* overflows at ModelParams\(omega=0\.0, epsilon=1\.4e\+154, gamma="
    with pytest.raises(ValueError, match=overflow):
        metric_divergence_exponent(ModelParams(0.0, 1.4e154, 1.0, 0), "above")
    # (omega - epsilon)**2 itself overflows: the error metric() raises on
    # the first offset block, gamma = delta_c +- 1e-4 = 5e159 in floats
    with pytest.raises(ValueError) as want:
        metric(ModelParams(1e160, 0.0, 5e159, 0))
    for side in ("below", "above"):
        with pytest.raises(ValueError) as got:
            metric_divergence_exponent(ModelParams(1e160, 0.0, 1.0, 0), side)
        assert str(got.value) == str(want.value)


def _kept_outcome(p, side):
    """_fit_outcome on p itself, after earlier calls on p."""
    try:
        return float.hex(metric_divergence_exponent(p, side))
    except Exception as exc:
        return type(exc), str(exc)


def _counted_passes(monkeypatch) -> list:
    """The offsets of each _fit_slope call, recorded as it runs."""
    runs = []
    fit = biortho._fit_slope

    def counted(p, delta_c, root_n1, signed):
        runs.append(signed.size)
        return fit(p, delta_c, root_n1, signed)

    monkeypatch.setattr(biortho, "_fit_slope", counted)
    return runs


@pytest.mark.parametrize("point", [(1.0, 5.0, 1.0, 0), (-2, 3, -4, 5), (0.3, -1.7, 0.9, 5)])
def test_each_call_fits_its_own_side_and_keeps_nothing(monkeypatch, point):
    runs = _counted_passes(monkeypatch)
    p = ModelParams(*point)
    before = dict(vars(p)), repr(p), hash(p), pickle.dumps(p)
    sides = ("below", "above", "above", "below")
    slopes = [float.hex(metric_divergence_exponent(p, side)) for side in sides]
    assert runs == [20] * 4
    assert slopes == [float.hex(helpers.reference_exponent(p, side)) for side in sides]
    assert (vars(p), repr(p), hash(p), pickle.dumps(p)) == before


@pytest.mark.parametrize("point", [_FIT_POINTS[0], _FIT_POINTS[6], *_random_fit_points(20)])
def test_exponent_does_not_depend_on_the_order_of_the_sides(point):
    for order in (("below", "above"), ("above", "below")):
        p = ModelParams(*point)
        for side in order:
            got = _kept_outcome(p, side)
            assert got == _fit_outcome(metric_divergence_exponent, point, side), (point, order)


def test_exponent_never_forms_the_own_block():
    # the fit ignores p.gamma: at gamma = 1e200 p's own square overflows
    p = ModelParams(1.0, 5.0, 1e200, 0)
    slopes = metric_divergence_exponent(p, "below"), metric_divergence_exponent(p, "above")
    assert _MEMO not in vars(p)
    assert slopes == tuple(helpers.reference_exponent(p, side) for side in ("below", "above"))
    with pytest.raises(ValueError, match="^discriminant: .* overflows at "):
        metric(p)


# |omega - epsilon| near 4e6, at the edge of the EP band: 4000000.1 refuses
# only the 'above' side, 4000000.2 only the 'below' side
@pytest.mark.parametrize("omega, refused", [(4000000.1, "above"), (4000000.2, "below")])
def test_a_refused_side_raises_on_every_call_and_the_other_fits(monkeypatch, omega, refused):
    point = (omega, 0.0, 1.0, 0)
    fits = "below" if refused == "above" else "above"
    expected = {side: _fit_outcome(helpers.reference_exponent, point, side)
                for side in ("below", "above")}
    assert expected[refused][0] is ExceptionalPointError and isinstance(expected[fits], str)
    runs = _counted_passes(monkeypatch)
    p = ModelParams(*point)
    # each call passes over its own side's offsets once, whatever came before
    for side in (refused, fits) * 3:
        assert _kept_outcome(p, side) == expected[side], side
    assert runs == [20] * 6
    assert vars(p) == vars(ModelParams(*point))


# --- sqrt_hpd ---------------------------------------------------------------


def test_sqrt_hpd_identity_and_scalar():
    np.testing.assert_allclose(sqrt_hpd(EYE), EYE, atol=1e-15)
    np.testing.assert_allclose(sqrt_hpd(4.0 * EYE), 2.0 * EYE, atol=1e-15)


def test_sqrt_hpd_of_huge_entries_scales_exactly():
    # past 2**500 the closed form would square the entries past the float
    # range: it runs on m / 4**k and scales the root back by 2**k
    m = np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, 3.0]])
    for k in (300, 511):
        assert np.array_equal(sqrt_hpd(m * 4.0**k), sqrt_hpd(m) * 2.0**k)


def test_sqrt_hpd_diagonal():
    got = sqrt_hpd(np.diag([9.0, 16.0]))
    np.testing.assert_allclose(got, np.diag([3.0, 4.0]), atol=1e-14)


def test_sqrt_hpd_random_reconstruction():
    rng = np.random.default_rng(31)
    for _ in range(300):
        b = random_complex(rng)
        m = b @ b.conj().T + rng.uniform(0.05, 1.0) * EYE
        g = sqrt_hpd(m)
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.max(np.abs(g - g.conj().T)) < 1e-13 * scale
        assert np.max(np.abs(g @ g - m)) < 1e-12 * scale
        assert g[0, 0].real > 0.0 and np.linalg.det(g).real > 0.0


def test_sqrt_hpd_rejects_bad_input():
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        sqrt_hpd([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^determinant 1\.0 and trace -2\.0 must be positive$"):
        sqrt_hpd(-EYE)
    with pytest.raises(ValueError, match=r"^determinant -1\.0 and trace 0\.0 must be positive$"):
        sqrt_hpd(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match=r"^determinant 0\.0 and trace 1\.0 must be positive$"):
        sqrt_hpd(np.diag([1.0, 0.0]))

