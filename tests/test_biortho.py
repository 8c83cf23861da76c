"""Tests for biorthogonal eigensystems, metrics, intertwiners and projectors."""

import math

import numpy as np
import pytest

import helpers
from helpers import eig2, expm2, random_complex, random_params

from nhjc.biortho import (
    BiorthoSystem,
    eigensystem,
    eigenvector_ratios,
    intertwiner,
    loglog_slope,
    metric,
    metric_divergence_exponent,
    projectors,
    pseudo_hermiticity_residual,
    sqrt_hpd,
)
from nhjc.entropy import entanglement_entropy, reduced_spectrum
from nhjc.errors import (
    ExceptionalPointError,
    InsufficientSamplesError,
    NonPositiveDataError,
    NotHermitianError,
    NotPositiveDefiniteError,
    WrongPhaseError,
    ZeroCouplingError,
)
from nhjc.model import Branch, ModelParams, Phase, build_block, spectrum_closed_form
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
    with pytest.raises(ZeroCouplingError):
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


def test_raw_eigensystem_components():
    # each pair is a rescaled right (1, a_i) and left (1, -conj a_i)
    system = eigensystem(UNBROKEN)
    for a, right, left in zip(eigenvector_ratios(UNBROKEN), *zip(*system.pairs())):
        assert abs(right[1] / right[0] - a) <= 1e-15 * abs(a)
        assert abs(left[1] / left[0] + np.conj(a)) <= 1e-15 * abs(a)


def test_eigensystem_solves_block():
    rng = np.random.default_rng(63)
    for _ in range(200):
        p = random_params(rng)
        h = build_block(p)
        system = eigensystem(p)
        s = system.eigenvalues
        for value, right, left in (
            (s.eigenvalue_I, system.right_I, system.left_I),
            (s.eigenvalue_II, system.right_II, system.left_II),
        ):
            scale = max(1.0, float(np.linalg.norm(h)))
            assert np.linalg.norm(h @ right - value * right) < 1e-9 * scale * np.linalg.norm(right)
            assert np.linalg.norm(h.conj().T @ left - np.conj(value) * left) < 1e-9 * scale * np.linalg.norm(left)


def test_biorthogonality_and_symmetric_norms():
    rng = np.random.default_rng(64)
    for _ in range(300):
        p = random_params(rng)
        system = eigensystem(p)
        lefts = (system.left_I, system.left_II)
        rights = (system.right_I, system.right_II)
        for i in range(2):
            for j in range(2):
                overlap = complex(np.vdot(lefts[i], rights[j]))
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-10
            assert math.isclose(
                float(np.linalg.norm(lefts[i])),
                float(np.linalg.norm(rights[i])),
                rel_tol=1e-12,
            )


def test_dirac_right_normalization():
    # Dirac-normalized, both vectors of a branch carry the reduced spectrum
    # {1, |a_i|^2} / (1 + |a_i|^2) of the entropy module
    for p in (UNBROKEN, BROKEN):
        system = eigensystem(p)
        for branch, (right, left) in zip((Branch.I, Branch.II), system.pairs()):
            lam = reduced_spectrum(p, branch).lam
            for v in (right, left):
                weights = np.abs(v / np.linalg.norm(v)) ** 2
                assert abs(weights[0] - lam) < 1e-14
                assert abs(weights[1] - (1.0 - lam)) < 1e-14


def test_eigensystem_at_exceptional_point_raises():
    with pytest.raises(ExceptionalPointError):
        eigensystem(ModelParams(1.0, 5.0, 2.0, 0))
    with pytest.raises(ExceptionalPointError):
        eigensystem(ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-13), 0))


def test_eigensystem_decoupled_block():
    # gamma = 0: the block is diagonal; branch I belongs to the larger eigenvalue
    p = ModelParams(1.0, 5.0, 0.0, 0)
    system = eigensystem(p)
    h = build_block(p)
    s = system.eigenvalues
    assert np.allclose(h @ system.right_I, s.eigenvalue_I * system.right_I)
    assert np.allclose(h @ system.right_II, s.eigenvalue_II * system.right_II)
    q = ModelParams(5.0, 1.0, 0.0, 0)  # omega > epsilon swaps the basis order
    system = eigensystem(q)
    h = build_block(q)
    s = system.eigenvalues
    assert np.allclose(h @ system.right_I, s.eigenvalue_I * system.right_I)
    assert np.allclose(h @ system.right_II, s.eigenvalue_II * system.right_II)


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
    assert pseudo_hermiticity_residual(p) < 1e-13
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
    assert pseudo_hermiticity_residual(UNBROKEN) < 1e-13
    rng = np.random.default_rng(69)
    for _ in range(100):
        p = random_params(rng, phase="unbroken")
        assert pseudo_hermiticity_residual(p) < 1e-10
        # GH is Hermitian even though H is not
        gh = metric(p) @ build_block(p)
        assert np.max(np.abs(gh - gh.conj().T)) < 1e-10 * max(1.0, float(np.linalg.norm(gh)))
    with pytest.raises(WrongPhaseError):
        pseudo_hermiticity_residual(BROKEN)
    with pytest.raises(ExceptionalPointError):
        pseudo_hermiticity_residual(ModelParams(1.0, 5.0, 2.0, 0))


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


def test_bior_system_pairs_accessor():
    system = eigensystem(UNBROKEN)
    assert isinstance(system, BiorthoSystem)
    (r1, l1), (r2, l2) = system.pairs()
    assert r1 is system.right_I and l1 is system.left_I
    assert r2 is system.right_II and l2 is system.left_II


# --- sqrt_hpd ---------------------------------------------------------------


def test_sqrt_hpd_identity_and_scalar():
    np.testing.assert_allclose(sqrt_hpd(EYE), EYE, atol=1e-15)
    np.testing.assert_allclose(sqrt_hpd(4.0 * EYE), 2.0 * EYE, atol=1e-15)


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
    with pytest.raises(NotHermitianError):
        sqrt_hpd([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_hpd(-EYE)
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_hpd(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_hpd(np.diag([1.0, 0.0]))


# --- loglog_slope -----------------------------------------------------------


def test_loglog_slope_exact_power_law():
    xs = np.geomspace(1e-4, 1e-1, 20)
    assert math.isclose(loglog_slope(xs, 3.0 * xs**-0.5), -0.5, abs_tol=1e-12)
    assert math.isclose(loglog_slope(xs, 0.1 * xs**2.0), 2.0, abs_tol=1e-12)


def test_loglog_slope_errors():
    xs = np.array([1.0, 2.0, 3.0])
    with pytest.raises(InsufficientSamplesError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InsufficientSamplesError):
        loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(NonPositiveDataError):
        loglog_slope(xs, [1.0, -2.0, 3.0])
    with pytest.raises(NonPositiveDataError):
        loglog_slope([0.0, 2.0, 3.0], xs)
    with pytest.raises(NonPositiveDataError):
        loglog_slope(xs, [1.0, np.inf, 3.0])
    with pytest.raises(ValueError):
        loglog_slope(xs, [1.0, 2.0])
