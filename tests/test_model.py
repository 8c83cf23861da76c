"""Tests for block construction, spectra and phase classification."""

import math

import numpy as np
import pytest

from helpers import random_params

from nhjc import biortho, dynamics, model
from nhjc.biortho import (
    eigensystem,
    eigenvector_ratios,
    intertwiner,
    metric,
    projectors,
    pseudo_hermiticity_residual,
)
from nhjc.dynamics import effective_generator
from nhjc.entropy import entanglement_entropy, reduced_spectrum
from nhjc.model import (
    Branch,
    ModelParams,
    Phase,
    _root,
    build_block,
    classify_phase,
    critical_gamma,
    ground_state_energy,
    spectrum_closed_form,
)

SQRT3 = math.sqrt(3.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(math.nan, 5.0, 1.0, 0)
    with pytest.raises(ValueError):
        ModelParams(1.0, math.inf, 1.0, 0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 5.0, 1.0, -1)
    with pytest.raises(ValueError):
        ModelParams(1.0, 5.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        ModelParams(1.0, 5.0, 1.0, True)


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, "2", 2 + 0j, None])
def test_params_reject_non_finite_or_non_numeric_n(n):
    # int() alone raises OverflowError or TypeError on these
    with pytest.raises(ValueError, match="n must be a non-negative integer"):
        ModelParams(1.0, 5.0, 1.0, n)


def test_params_derived_quantities():
    p = ModelParams(1.0, 5.0, 1.0, 0)
    assert build_block(p)[0, 1] == 1.0  # delta = sqrt(n+1) gamma
    assert classify_phase(p).discriminant == 12.0
    assert classify_phase(ModelParams(1.0, 5.0, 3.0, 0)).discriminant == -20.0
    assert classify_phase(ModelParams(1.0, 5.0, 2.0, 0)).discriminant == 0.0
    assert classify_phase(ModelParams(1.0, 5.0, 1.0, 3)).discriminant == 0.0  # critical at n=3
    delta = build_block(ModelParams(1.0, 5.0, 1.5, 1))[0, 1].real
    assert math.isclose(delta, 1.5 * math.sqrt(2.0))


def test_discriminant_even_in_gamma():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_params(rng, margin=0.0)
        q = ModelParams(p.omega, p.epsilon, -p.gamma, p.n)
        assert classify_phase(p).discriminant == classify_phase(q).discriminant


def test_build_block_entries():
    m = build_block(ModelParams(1.0, 5.0, 2.0, 0))
    np.testing.assert_array_equal(m, [[2.5, 2.0], [-2.0, -1.5]])
    m = build_block(ModelParams(1.0, 5.0, 1.0, 3))
    np.testing.assert_array_equal(m, [[5.5, 2.0], [-2.0, 1.5]])
    m = build_block(ModelParams(1.0, 5.0, 0.0, 0))
    np.testing.assert_array_equal(m, [[2.5, 0.0], [0.0, -1.5]])


def test_spectrum_unbroken_frozen():
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 1.0, 0))
    assert abs(s.eigenvalue_I - (0.5 + SQRT3)) < 1e-15
    assert abs(s.eigenvalue_II - (0.5 - SQRT3)) < 1e-15
    assert s.eigenvalue_I.imag == 0.0 and s.eigenvalue_II.imag == 0.0


def test_spectrum_broken_frozen():
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 3.0, 0))
    assert abs(s.eigenvalue_I - (0.5 + 2.2360679774997896j)) < 1e-15
    assert abs(s.eigenvalue_II - (0.5 - 2.2360679774997896j)) < 1e-15


def test_spectrum_decoupled_and_critical():
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 0.0, 0))
    assert s.eigenvalue_I == 2.5 and s.eigenvalue_II == -1.5
    s = spectrum_closed_form(ModelParams(1.0, 5.0, 2.0, 0))
    assert s.eigenvalue_I == 0.5 and s.eigenvalue_II == 0.5


def test_spectrum_trace_and_determinant():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_params(rng, margin=0.0)
        m = build_block(p)
        s = spectrum_closed_form(p)
        assert abs(s.eigenvalue_I + s.eigenvalue_II - np.trace(m)) < 1e-12 * max(
            1.0, abs(np.trace(m))
        )
        det = np.linalg.det(m)
        assert abs(s.eigenvalue_I * s.eigenvalue_II - det) < 1e-11 * max(1.0, abs(det))


def test_broken_pair_is_exactly_conjugate():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = random_params(rng, phase="broken")
        s = spectrum_closed_form(p)
        assert s.eigenvalue_II == s.eigenvalue_I.conjugate()
        assert s.eigenvalue_I.imag > 0.0


def test_sqrt_discriminant_branch():
    assert _root(ModelParams(1.0, 5.0, 1.0, 0))[1] == math.sqrt(12.0)
    root = _root(ModelParams(1.0, 5.0, 3.0, 0))[1]
    assert root.real == 0.0 and math.isclose(root.imag, math.sqrt(20.0))


SCALAR_API = [
    classify_phase,
    spectrum_closed_form,
    eigenvector_ratios,
    eigensystem,
    metric,
    intertwiner,
    projectors,
    pseudo_hermiticity_residual,
    effective_generator,
    lambda p: entanglement_entropy(p, Branch.I),
    lambda p: reduced_spectrum(p, Branch.II, "left"),
]


def test_each_scalar_call_forms_the_root_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _root(*args)

    for module in (model, biortho, dynamics):
        monkeypatch.setattr(module, "_root", counted)
    for call in SCALAR_API:
        calls.clear()
        call(ModelParams(1.0, 5.0, 1.0, 2))
        assert len(calls) == 1, call


@pytest.mark.parametrize(
    "p",
    [
        ModelParams(1.0, 5.0, 1e154, 0),  # 4 gamma**2 rounds to inf
        ModelParams(1.0, 5.0, 3e154, 0),  # gamma**2 overflows
        ModelParams(1.0, 5.0, -5e200, 3),
        ModelParams(1e308, 5.0, 1.0, 0),  # (omega - epsilon)**2 overflows
    ],
    ids=["gamma=1e154", "gamma=3e154", "gamma=-5e200", "omega=1e308"],
)
def test_unrepresentable_discriminant_raises_value_error(p):
    # one documented ValueError, never an OverflowError, a non-finite value
    # or an exceptional-point verdict from an infinite discriminant
    for call in SCALAR_API:
        with pytest.raises(ValueError, match="^discriminant: ") as info:
            call(p)
        assert type(info.value) is ValueError


def test_classify_phase():
    assert classify_phase(ModelParams(1.0, 5.0, 1.0, 0)).value is Phase.UNBROKEN
    assert classify_phase(ModelParams(1.0, 5.0, 3.0, 0)).value is Phase.BROKEN
    label = classify_phase(ModelParams(1.0, 5.0, 2.0, 0))
    assert label.value is Phase.EXCEPTIONAL_POINT
    assert label.discriminant == 0.0


def test_classify_phase_tolerance_band():
    # relative offsets of 1e-12 sit inside the band, 1e-3 far outside
    assert (
        classify_phase(ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-12), 0)).value
        is Phase.EXCEPTIONAL_POINT
    )
    assert classify_phase(ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-3), 0)).value is Phase.BROKEN
    assert classify_phase(ModelParams(1.0, 5.0, 2.0 * (1.0 - 1e-3), 0)).value is Phase.UNBROKEN


def test_phase_enum_labels_are_export_contract():
    assert Phase.UNBROKEN.value == "Unbroken"
    assert Phase.BROKEN.value == "Broken"
    assert Phase.EXCEPTIONAL_POINT.value == "ExceptionalPoint"
    assert Branch.I.value == "I" and Branch.II.value == "II"


def test_critical_gamma():
    assert critical_gamma(ModelParams(1.0, 5.0, 0.3, 0)) == 2.0
    assert critical_gamma(ModelParams(1.0, 5.0, 0.3, 3)) == 1.0
    assert critical_gamma(ModelParams(1.0, 1.0, 0.3, 2)) == 0.0
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = random_params(rng)
        at_critical = ModelParams(p.omega, p.epsilon, critical_gamma(p), p.n)
        assert classify_phase(at_critical).value is Phase.EXCEPTIONAL_POINT


def test_ground_state_energy():
    assert ground_state_energy(ModelParams(1.0, 5.0, 1.0, 0)) == -2.5
    assert ground_state_energy(ModelParams(1.0, -3.0, 1.0, 2)) == 1.5
    assert ground_state_energy(ModelParams(1.0, 0.0, 1.0, 0)) == 0.0


def test_block_matrix_validation():
    # n omega = 5e308 overflows: the block is refused, not returned with inf
    with pytest.raises(ValueError, match="finite"):
        build_block(ModelParams(1e308, 5.0, 1.0, 5))
    ok = build_block(ModelParams(1.0, 5.0, 1.0, 0))
    assert ok.shape == (2, 2) and ok.dtype == complex
