"""Acceptance gate: one test per shipping criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.  Every tolerance here is part of
the package contract; loosening one is an interface change, not a test fix.
"""

import math

import numpy as np

from helpers import (
    broken_intertwiner,
    broken_intertwiner_inv,
    broken_isospectral,
    broken_metric,
    broken_projectors,
    eig2,
    expm2,
    match_order,
    random_bloch,
    random_params,
    taylor_expm,
    unbroken_intertwiner,
    unbroken_intertwiner_inv,
    unbroken_isospectral,
    unbroken_metric,
    unbroken_projectors,
)
from nhjc.biortho import metric, metric_divergence_exponent, intertwiner, projectors, sqrt_hpd
from nhjc.cli import cli_main
from nhjc.dynamics import BlochState, effective_generator, evolve_no_jump
from nhjc.entropy import LN2, entanglement_entropy, reduced_spectrum
from nhjc.model import Branch, ModelParams, build_block, spectrum_closed_form
from nhjc.scan import Axis, SweepSpec, run_sweep


def test_criterion_01_eigenvalue_branches():
    # omega=1, eps=5, n=0: E = 0.5 +- sqrt(4 - delta^2) below the EP at
    # delta=2 and 0.5 +- i sqrt(delta^2 - 4) above it.
    for d in np.linspace(0.0, 4.0, 400):
        p = ModelParams(1.0, 5.0, float(d), 0)
        closed = spectrum_closed_form(p)
        got = match_order(
            eig2(build_block(p)).values,
            (closed.eigenvalue_I, closed.eigenvalue_II),
        )
        assert abs(got[0] - closed.eigenvalue_I) <= 1e-12
        assert abs(got[1] - closed.eigenvalue_II) <= 1e-12
        pair = (closed.eigenvalue_I, closed.eigenvalue_II)
        if d > 2.0:
            for value in pair:
                assert abs(value.real - 0.5) <= 1e-12
            ims = sorted(value.imag for value in pair)
            split = math.sqrt(d * d - 4.0)
            assert abs(ims[0] + split) <= 1e-12
            assert abs(ims[1] - split) <= 1e-12
        else:
            split = math.sqrt(4.0 - d * d)
            res = sorted(value.real for value in pair)
            assert pair[0].imag == 0.0 and pair[1].imag == 0.0
            assert abs(res[0] - (0.5 - split)) <= 1e-12
            assert abs(res[1] - (0.5 + split)) <= 1e-12
    print("\nPASS criterion 1: eigenvalue branches on the 400-point coupling grid")


def test_criterion_02_phase_diagram():
    for n in range(4):
        spec = SweepSpec(
            fixed=ModelParams(1.0, 5.0, 1.0, n),
            axis1=Axis("gamma", 0.0, 3.0, 200),
            axis2=Axis("epsilon", -5.0, 7.0, 200),
            quantities=("phase",),
        )
        cells = run_sweep(spec)
        g = np.linspace(0.0, 3.0, 200)
        e = np.linspace(-5.0, 7.0, 200)
        gg, ee = np.meshgrid(g, e)
        b2 = (1.0 - ee) ** 2
        c2 = 4.0 * gg**2 * (n + 1)
        disc = b2 - c2
        tol = 1e-10 * np.maximum(1.0, np.maximum(b2, c2))
        expected = np.where(
            disc > tol, "Unbroken", np.where(disc < -tol, "Broken", "ExceptionalPoint")
        ).ravel()
        actual = np.array([c.phase.value for c in cells])
        assert (expected == actual).all(), f"label mismatch at n={n}"

        # the unbroken/broken boundary tracks eps = 1 +- 2 gamma sqrt(n+1)
        # within one grid cell, in both directions
        labels = actual.reshape(200, 200)
        step = e[1] - e[0]
        for j, gj in enumerate(g):
            column = labels[:, j]
            w = 2.0 * gj * math.sqrt(n + 1)
            roots = [1.0 - w, 1.0 + w] if gj > 0.0 else []
            for r in roots:
                if not (e[0] < r < e[-1]):
                    continue
                window = {
                    column[i] for i in range(200) if abs(e[i] - r) <= step * (1 + 1e-9)
                }
                assert window not in ({"Unbroken"}, {"Broken"}), (n, j, r)
            for k in range(199):
                if column[k] != column[k + 1]:
                    assert roots and any(
                        e[k] - step <= r <= e[k + 1] + step for r in roots
                    ), (n, j, k)
    print("PASS criterion 2: phase labels and boundary bracketing on four 200x200 grids")


def test_criterion_03_metric_bundle_pinning():
    unbroken = intertwiner(ModelParams(1.0, 5.0, 1.0, 0))
    for got, want in (
        (unbroken.G, unbroken_metric(1.0)),
        (unbroken.g, unbroken_intertwiner(1.0)),
        (unbroken.g_inv, unbroken_intertwiner_inv(1.0)),
        (unbroken.h, unbroken_isospectral(0, 1.0)),
    ):
        assert np.abs(got - want).max() <= 1e-10
    h = unbroken.h
    assert np.abs(h - h.conj().T).max() <= 1e-12

    broken = intertwiner(ModelParams(1.0, 5.0, 4.0, 0))
    for got, want in (
        (broken.G, broken_metric(4.0)),
        (broken.g, broken_intertwiner(4.0)),
        (broken.g_inv, broken_intertwiner_inv(4.0)),
        (broken.h, broken_isospectral(0, 4.0)),
    ):
        assert np.abs(got - want).max() <= 1e-10
    ht = broken.h
    root12 = math.sqrt(12.0)
    assert abs(ht[0, 1] - root12) <= 1e-12
    assert abs(ht[1, 0] + root12) <= 1e-12
    print("PASS criterion 3: metric, intertwiner, and isospectral matrices pinned")


def test_criterion_04_projector_algebra():
    rng = np.random.default_rng(404)
    eye = np.eye(2)
    for _ in range(10_000):
        p = random_params(rng)
        rho_one, rho_two = projectors(p)
        assert abs(np.trace(rho_one) - 1.0) <= 1e-10
        assert abs(np.trace(rho_two) - 1.0) <= 1e-10
        assert np.abs(rho_one @ rho_one - rho_one).max() <= 1e-10
        assert np.abs(rho_two @ rho_two - rho_two).max() <= 1e-10
        assert np.abs(rho_one @ rho_two).max() <= 1e-10
        assert np.abs(rho_two @ rho_one).max() <= 1e-10
        assert np.abs(rho_one + rho_two - eye).max() <= 1e-10

    got = projectors(ModelParams(1.0, 5.0, 1.0, 0))
    want = unbroken_projectors(1.0)
    for g_mat, w_mat in zip(got, want):
        assert np.abs(g_mat - w_mat).max() <= 1e-10
    got = projectors(ModelParams(1.0, 5.0, 4.0, 0))
    want = broken_projectors(4.0)
    for g_mat, w_mat in zip(got, want):
        assert np.abs(g_mat - w_mat).max() <= 1e-10
    print("PASS criterion 4: projector algebra over 10^4 draws plus pinned forms")


def test_criterion_05_critical_exponent():
    for n in (0, 3):
        p = ModelParams(1.0, 5.0, 1.0, n)
        for side in ("below", "above"):
            slope = metric_divergence_exponent(p, side=side)
            assert -0.52 <= slope <= -0.48, (n, side, slope)
    print("PASS criterion 5: metric norm diverges with exponent -1/2 on both sides")


def test_criterion_06_metric_norm_conservation():
    p = ModelParams(1.0, 5.0, 1.0, 0)
    big_g = metric(p)
    h = build_block(p)
    ts = np.linspace(0.0, 10.0, 21)
    us = [expm2(-1j * h, float(t)) for t in ts]
    rng = np.random.default_rng(606)
    for _ in range(100):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        ref = None
        for u in us:
            phi = u @ psi
            val = float(np.real(np.vdot(phi, big_g @ phi)))
            if ref is None:
                ref = val
            assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))

    pb = ModelParams(1.0, 5.0, 4.0, 0)
    hb = build_block(pb)
    usb = [expm2(-1j * hb, float(t)) for t in ts]
    for _ in range(100):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        norms = [float(np.real(np.vdot(u @ psi, u @ psi))) for u in usb]
        assert max(norms) / min(norms) > 1.01
    print("PASS criterion 6: G-norm constant when unbroken, Dirac norm drifts when broken")


def test_criterion_07_no_jump_dynamics():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        p = random_params(rng, phase="broken")
        gen = effective_generator(p)
        state = BlochState(random_bloch(rng), float(rng.uniform(0.2, 2.0)))
        t = float(rng.uniform(0.0, 3.0 / gen.rate))
        evolved = evolve_no_jump(gen, state, t)
        u = taylor_expm(-1j * gen.matrix(), t)
        rho_t = u @ state.matrix() @ u.conj().T
        trace = float(np.real(np.trace(rho_t)))
        assert abs(evolved.weight - trace) <= 1e-10 * max(1.0, abs(trace))
        assert np.abs(evolved.matrix() - rho_t).max() <= 1e-10 * max(
            1.0, np.abs(rho_t).max()
        )

    for _ in range(200):
        p = random_params(rng, phase="unbroken")
        gen = effective_generator(p)
        state = BlochState(random_bloch(rng))
        t = float(rng.uniform(0.0, 10.0))
        assert abs(evolve_no_jump(gen, state, t).weight - 1.0) <= 1e-12
        period = math.pi / gen.rate
        back = evolve_no_jump(gen, state, period)
        assert np.abs(back.r - state.r).max() <= 1e-10
    print("PASS criterion 7: survival matches the matrix-exponential oracle; "
          "unbroken weight constant with period pi/Lambda")


def test_criterion_08_entanglement_entropy():
    rng = np.random.default_rng(808)
    for _ in range(500):
        p = random_params(rng, phase="broken")
        for branch in Branch:
            assert abs(entanglement_entropy(p, branch) - LN2) <= 1e-12

    for _ in range(500):
        p = random_params(rng)
        closed = spectrum_closed_form(p)
        pair = eig2(build_block(p))
        for branch, target in (
            (Branch.I, closed.eigenvalue_I),
            (Branch.II, closed.eigenvalue_II),
        ):
            s = entanglement_entropy(p, branch)
            assert 0.0 <= s <= LN2 + 1e-12
            left = reduced_spectrum(p, branch, side="left").lam
            right = reduced_spectrum(p, branch, side="right").lam
            assert abs(left - right) <= 1e-12
            # numerical partial trace: oscillator states are orthogonal, so
            # the spin eigenvalue is just |v_0|^2 of the unit eigenvector
            k = int(np.argmin([abs(v - target) for v in pair.values]))
            v = pair.right_vectors[k]
            lam_num = float(abs(v[0]) ** 2 / (abs(v[0]) ** 2 + abs(v[1]) ** 2))
            assert abs(right - lam_num) <= 1e-12

    p = ModelParams(1.0, 5.0, 1e-2, 0)
    for branch in Branch:
        s = entanglement_entropy(p, branch)
        assert 0.0 < s < 1e-4
    print("PASS criterion 8: entropy range, ln 2 plateau, and reduced-spectrum checks")


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(909)
    for _ in range(100_000):
        p = random_params(rng)
        closed = spectrum_closed_form(p)
        got = match_order(
            eig2(build_block(p)).values,
            (closed.eigenvalue_I, closed.eigenvalue_II),
        )
        assert abs(got[0] - closed.eigenvalue_I) <= 1e-12
        assert abs(got[1] - closed.eigenvalue_II) <= 1e-12

    rng = np.random.default_rng(919)
    for _ in range(2000):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = b @ b.conj().T + float(rng.uniform(0.05, 1.0)) * np.eye(2)
        s = sqrt_hpd(a)
        assert np.abs(s @ s - a).max() <= 1e-10 * max(1.0, np.abs(a).max())
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = float(rng.uniform(0.0, 2.0))
        ref = taylor_expm(m, t)
        assert np.abs(expm2(m, t) - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())
    print("PASS criterion 9: spectra, matrix square root, and exponential cross-checked")


def test_criterion_10_deterministic_presets(tmp_path):
    jobs = [
        ("spectrum", "fig1", "csv"),
        ("spectrum", "fig1", "json"),
        ("entropy", "fig3", "csv"),
        ("entropy", "fig3", "json"),
        ("phase-map", "fig2a", "csv"),
        ("phase-map", "fig2b", "csv"),
        ("phase-map", "fig2c", "csv"),
        ("phase-map", "fig2d", "csv"),
    ]
    for command, preset, fmt in jobs:
        outputs = []
        for run in range(2):
            target = tmp_path / f"{preset}-{fmt}-{run}.{fmt}"
            code = cli_main(
                [command, "--preset", preset, "--format", fmt, "--out", str(target)]
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], f"{preset} {fmt} runs differ"
        assert outputs[0], f"{preset} {fmt} output is empty"
    print("PASS criterion 10: repeated preset runs are byte-identical")
