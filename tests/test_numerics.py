"""Tests for the closed-form 2x2 linear algebra oracles in helpers."""

import math

import numpy as np
import pytest

from helpers import canonical_phase, eig2, expm2, random_complex, taylor_expm

EYE = np.eye(2, dtype=complex)


# --- eig2 -------------------------------------------------------------------


def test_eig2_diagonal_matrix():
    pair = eig2(np.diag([2.5, -1.5]))
    assert pair.values == (2.5, -1.5)
    assert not pair.defective
    np.testing.assert_allclose(pair.right_vectors[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pair.right_vectors[1], [0.0, 1.0], atol=1e-15)


def test_eig2_complex_conjugate_pair():
    # block at omega=1, eps=5, gamma=3: roots 0.5 +- i sqrt(20)/2
    pair = eig2([[2.5, 3.0], [-3.0, -1.5]])
    got = sorted(pair.values, key=lambda z: z.imag)
    assert abs(got[0] - (0.5 - 2.2360679774997896j)) < 1e-14
    assert abs(got[1] - (0.5 + 2.2360679774997896j)) < 1e-14
    assert not pair.defective


def test_eig2_residuals_random():
    rng = np.random.default_rng(21)
    for _ in range(500):
        m = random_complex(rng, scale=rng.uniform(0.1, 10.0))
        pair = eig2(m)
        scale = max(1.0, float(np.linalg.norm(m)))
        for lam, right, left in zip(pair.values, pair.right_vectors, pair.left_vectors):
            assert np.linalg.norm(m @ right - lam * right) < 1e-10 * scale
            assert np.linalg.norm(m.conj().T @ left - np.conj(lam) * left) < 1e-10 * scale
            assert math.isclose(float(np.linalg.norm(right)), 1.0, abs_tol=1e-12)
            assert math.isclose(float(np.linalg.norm(left)), 1.0, abs_tol=1e-12)


def test_eig2_vectors_have_canonical_phase():
    rng = np.random.default_rng(22)
    for _ in range(50):
        pair = eig2(random_complex(rng))
        for v in pair.right_vectors + pair.left_vectors:
            top = v[int(np.argmax(np.abs(v)))]
            assert top.real > 0.0
            assert abs(top.imag) < 1e-12


def test_eig2_spectral_reconstruction():
    rng = np.random.default_rng(23)
    kept = 0
    while kept < 100:
        m = random_complex(rng)
        pair = eig2(m)
        if pair.defective:
            continue
        overlaps = [np.vdot(l, r) for r, l in zip(pair.right_vectors, pair.left_vectors)]
        if min(abs(c) for c in overlaps) < 1e-3:  # nearly defective, poor conditioning
            continue
        rebuilt = sum(
            lam * np.outer(r, l.conj()) / c
            for lam, r, l, c in zip(
                pair.values, pair.right_vectors, pair.left_vectors, overlaps
            )
        )
        assert np.max(np.abs(rebuilt - m)) < 1e-9 * max(1.0, float(np.linalg.norm(m)))
        kept += 1


def test_eig2_flags_defective_block():
    # exceptional point of the omega=1, eps=5, gamma=2 block
    pair = eig2([[2.5, 2.0], [-2.0, -1.5]])
    assert pair.defective
    assert abs(pair.values[0] - 0.5) < 1e-12
    assert abs(pair.values[1] - 0.5) < 1e-12


def test_eig2_scalar_matrix_is_not_defective():
    pair = eig2(3.0 * EYE)
    assert pair.values == (3.0, 3.0)
    assert not pair.defective  # degenerate but diagonalizable


def test_eig2_jordan_block_is_defective():
    pair = eig2([[1.0, 1.0], [0.0, 1.0]])
    assert pair.defective


def test_eig2_input_validation():
    with pytest.raises(ValueError):
        eig2(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        eig2([[np.nan, 0.0], [0.0, 1.0]])


# --- expm2 ------------------------------------------------------------------


def test_expm2_zero_matrix():
    np.testing.assert_allclose(expm2(np.zeros((2, 2))), EYE, atol=1e-15)


def test_expm2_pauli_rotation():
    # exp(i phi sigma_y) = cos(phi) I + i sin(phi) sigma_y
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    phi = 0.7
    expected = math.cos(phi) * EYE + 1j * math.sin(phi) * sigma_y
    np.testing.assert_allclose(expm2(1j * phi * sigma_y), expected, atol=1e-14)


def test_expm2_hyperbolic():
    # sigma_y squares to I, so exp(x sigma_y) = cosh(x) I + sinh(x) sigma_y
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    x = 0.3
    expected = math.cosh(x) * EYE + math.sinh(x) * sigma_y
    np.testing.assert_allclose(expm2(sigma_y, x), expected, atol=1e-14)


def test_expm2_nilpotent_is_exact():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    got = expm2(n, 0.25)
    assert np.array_equal(got, EYE + 0.25 * n)


def test_expm2_matches_taylor_reference():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = random_complex(rng)
        t = float(rng.uniform(0.0, 2.0))
        ref = taylor_expm(m, t)
        got = expm2(m, t)
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, float(np.linalg.norm(ref)))


def test_expm2_small_argument_branch():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = random_complex(rng, scale=1e-8)
        ref = taylor_expm(m, 1.0)
        assert np.max(np.abs(expm2(m, 1.0) - ref)) < 1e-14


def test_expm2_group_properties():
    rng = np.random.default_rng(43)
    for _ in range(100):
        m = random_complex(rng)
        t = float(rng.uniform(0.1, 2.0))
        forward = expm2(m, t)
        backward = expm2(m, -t)
        assert np.max(np.abs(forward @ backward - EYE)) < 1e-11
        det = np.linalg.det(forward)
        assert abs(det - np.exp(t * np.trace(m))) < 1e-11 * max(1.0, abs(det))


# --- canonical_phase --------------------------------------------------------


def test_canonical_phase():
    got = canonical_phase(np.array([1.0j, 0.0]))
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-15)
    zero = np.zeros(2, dtype=complex)
    assert np.array_equal(canonical_phase(zero), zero)
    v = np.array([0.3 - 0.1j, -0.8 + 0.2j])
    w = canonical_phase(v)
    assert w[1].real > 0.0 and abs(w[1].imag) < 1e-15
    assert math.isclose(float(np.linalg.norm(w)), float(np.linalg.norm(v)), rel_tol=1e-15)
