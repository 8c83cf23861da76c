"""Tests for reduced spin spectra and entanglement entropy."""

import math

import numpy as np
import pytest

from helpers import eig2, mp_entropy, mp_relative_error, random_params

from nhjc.biortho import eigenvector_ratios
from nhjc.cli import PRESETS
from nhjc.entropy import LN2, entanglement_entropy, reduced_spectrum
from nhjc.errors import ExceptionalPointError, SpecValidationError
from nhjc.model import Branch, ModelParams, build_block, spectrum_closed_form
from nhjc.scan import Axis, SweepSpec, run_sweep, spec_from_dict

SQRT3 = math.sqrt(3.0)
DELTA_ONE = ModelParams(1.0, 5.0, 1.0, 0)
DELTA_FOUR = ModelParams(1.0, 5.0, 4.0, 0)


def test_alpha_frozen_values():
    # alpha_I, alpha_II are the eigenvector ratios of branches I and II
    a_one, a_two = eigenvector_ratios(DELTA_ONE)
    assert math.isclose(a_one.real, SQRT3 - 2.0, rel_tol=1e-14)
    assert math.isclose(a_two.real, -SQRT3 - 2.0, rel_tol=1e-14)
    a = eigenvector_ratios(DELTA_FOUR)[0]
    assert abs(a - (-0.5 + 0.8660254037844386j)) < 1e-15
    with pytest.raises(ValueError, match="^eigenvector ratios are undefined at gamma = 0$"):
        eigenvector_ratios(ModelParams(1.0, 5.0, 0.0, 0))


# Inside the EP band: exactly at the EP of omega = 1, epsilon = 5; just
# inside the band; and at omega == epsilon, where gamma**2 underflows so
# that D = 0 and every ratio is 0 / 0.
EP_BAND = [
    ModelParams(1.0, 5.0, 2.0, 0),
    ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-12), 0),
    ModelParams(-1.0, -1.0, 3e-199, 36),
    ModelParams(2.5, 2.5, -1e-170, 0),
]


@pytest.mark.parametrize("p", EP_BAND)
def test_ep_band_takes_the_coalesced_limit(p):
    # the ratios coalesce on the unit circle: no ratio to return, and the
    # reduced spectrum and entropy take their EP limits exactly
    with pytest.raises(ExceptionalPointError):
        eigenvector_ratios(p)
    for branch in Branch:
        assert entanglement_entropy(p, branch) == LN2
        for side in ("right", "left"):
            rs = reduced_spectrum(p, branch, side)
            assert (rs.lam, rs.complement) == (0.5, 0.5)


def test_ep_band_sweep_reads_ln2():
    # gamma = 0 is the decoupled product state, the diabolic point (never in
    # the band); every other cell of this grid lies in the EP band, where
    # gamma**2 underflows
    spec = SweepSpec(
        ModelParams(-1.0, -1.0, 0.0, 36), Axis("gamma", 0.0, 3e-199, 4), quantities=("entropy",)
    )
    table = run_sweep(spec)
    assert table.phase.tolist() == [0, 2, 2, 2]
    for key in ("entropy_I", "entropy_II"):
        assert table.extras[key].tolist() == [0.0, LN2, LN2, LN2]


def test_reduced_spectrum_frozen():
    rs = reduced_spectrum(DELTA_ONE, Branch.I)
    assert math.isclose(rs.lam, 0.9330127018922194, rel_tol=1e-15)
    assert rs.lam + rs.complement == 1.0
    assert rs.branch is Branch.I
    # branch II mirrors the pair because alpha_I alpha_II = 1
    mirrored = reduced_spectrum(DELTA_ONE, Branch.II)
    assert math.isclose(mirrored.lam, 1.0 - 0.9330127018922194, rel_tol=1e-12)


def test_reduced_spectrum_decoupled():
    rs = reduced_spectrum(ModelParams(1.0, 5.0, 0.0, 0), Branch.I)
    assert rs.lam == 1.0 and rs.complement == 0.0


def test_reduced_spectrum_side_argument():
    rng = np.random.default_rng(91)
    for _ in range(100):
        p = random_params(rng)
        for branch in (Branch.I, Branch.II):
            right = reduced_spectrum(p, branch, side="right")
            left = reduced_spectrum(p, branch, side="left")
            assert abs(right.lam - left.lam) < 1e-12
    with pytest.raises(ValueError):
        reduced_spectrum(DELTA_ONE, Branch.I, side="middle")


def test_reduced_spectrum_matches_partial_trace():
    # trace out the oscillator from the Dirac-normalized right eigenvector
    # obtained by the independent eigensolver
    rng = np.random.default_rng(92)
    for _ in range(300):
        p = random_params(rng)
        pair = eig2(build_block(p))
        s = spectrum_closed_form(p)
        for branch, target in ((Branch.I, s.eigenvalue_I), (Branch.II, s.eigenvalue_II)):
            k = 0 if abs(pair.values[0] - target) <= abs(pair.values[1] - target) else 1
            v = pair.right_vectors[k]  # unit Dirac norm
            lam_numeric = abs(v[0]) ** 2
            assert abs(reduced_spectrum(p, branch).lam - lam_numeric) < 1e-12


def test_entropy_frozen_value():
    assert math.isclose(entanglement_entropy(DELTA_ONE, Branch.I), 0.2457753666684711, rel_tol=1e-14)
    assert math.isclose(entanglement_entropy(DELTA_ONE, Branch.II), 0.2457753666684711, rel_tol=1e-14)


def test_entropy_broken_phase_is_ln2_within_one_ulp():
    # |alpha|^2 = 1 across the whole broken phase, for any parameters; the
    # rounded ratio gives ln 2 minus 1 ulp at about a fifth of the points
    ulp = math.ulp(LN2)
    rng = np.random.default_rng(93)
    off = 0
    for _ in range(3000):
        p = random_params(rng, phase="broken")
        for branch in Branch:
            s = entanglement_entropy(p, branch)
            assert abs(s - LN2) <= ulp
            off += s != LN2
    assert off > 0
    # and over fig3's broken cells, whose bytes a CLI golden pins
    table = run_sweep(spec_from_dict(PRESETS["fig3"]))
    broken = table.phase == 1
    assert broken.sum() == 375
    for key in ("entropy_I", "entropy_II"):
        assert np.abs(table.extras[key][broken] - LN2).max() <= ulp


def test_entropy_range_and_limits():
    rng = np.random.default_rng(94)
    for _ in range(300):
        p = random_params(rng, margin=0.0)
        for branch in (Branch.I, Branch.II):
            s = entanglement_entropy(p, branch)
            assert 0.0 <= s <= LN2 + 1e-12
    assert entanglement_entropy(ModelParams(1.0, 5.0, 0.0, 0), Branch.I) == 0.0
    # exceptional point: alpha = -1 exactly, so the limit value ln 2 is taken
    assert abs(entanglement_entropy(ModelParams(1.0, 5.0, 2.0, 0), Branch.I) - LN2) < 1e-15


def test_entropy_nearly_decoupled():
    p = ModelParams(1.0, 5.0, 1e-2, 0)
    assert 0.0 < entanglement_entropy(p, Branch.I) < 1e-4
    assert 0.0 < entanglement_entropy(p, Branch.II) < 1e-4


# (1, 5, gamma, 0) down to gamma = 1e-8, where the smaller reduced eigenvalue
# is about 4e-18, and gamma = 0.12, just below the log1p switch at 1e-3.
# Forming ln(1 - small) directly erred by up to 2.5e-2 relative here.
WEAK_GAMMAS = [1e-5, 1e-6, 1e-7, 1e-8, 0.12]


def test_weak_coupling_entropy_matches_mpmath():
    unit = 2.0**-53
    spec = SweepSpec(
        ModelParams(1.0, 5.0, 1.0, 0), Axis("gamma", 1e-8, 1e-5, 4), quantities=("entropy",)
    )
    swept = [(cell.coords[0], cell.extras) for cell in run_sweep(spec)]
    scalar = [
        (g, {"entropy_I": entanglement_entropy(ModelParams(1.0, 5.0, g, 0), Branch.I),
             "entropy_II": entanglement_entropy(ModelParams(1.0, 5.0, g, 0), Branch.II)})
        for g in WEAK_GAMMAS
    ]
    for gamma, extras in swept + scalar:
        for key, sign in (("entropy_I", 1), ("entropy_II", -1)):
            want = mp_entropy(1.0, 5.0, gamma, 0, sign)
            assert mp_relative_error(extras[key], want) <= 8 * unit, (gamma, key)


def test_entropy_curve():
    # the curve S(delta^2) is a delta_sq sweep of the entropy quantity
    def curve(n):
        spec = SweepSpec(
            ModelParams(1.0, 5.0, 1.0, n), Axis("delta_sq", 0.0, 16.0, 9),
            quantities=("entropy",),
        )
        return run_sweep(spec)

    table = curve(0)
    s_one, s_two = table.extras["entropy_I"], table.extras["entropy_II"]
    # 0 when decoupled, monotone growth toward the plateau, then exactly
    # ln 2 from the EP (delta^2 = 4) on
    assert s_one[0] == 0.0 and 0.0 < s_one[1] < LN2
    for s in (s_one, s_two):
        assert np.all(np.abs(s[2:] - LN2) < 1e-12)
    for delta_sq, s in zip(table.coords[0], s_one):
        assert s == entanglement_entropy(ModelParams(1.0, 5.0, math.sqrt(delta_sq), 0), Branch.I)
    # block index enters only through gamma = sqrt(delta^2 / (n+1))
    shifted = curve(3).extras["entropy_I"]
    np.testing.assert_allclose(shifted, s_one, rtol=1e-12)
    with pytest.raises(SpecValidationError):
        run_sweep(SweepSpec(DELTA_ONE, Axis("delta_sq", -1.0, 1.0, 3), quantities=("entropy",)))
