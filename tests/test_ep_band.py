"""The EP band does not depend on the unit of energy.

The phase is the sign of D = (omega - epsilon)^2 - 4 gamma^2 (n+1), which
no choice of unit changes.  The band |D| <= 1e-10 max(b2, c2) around D = 0
is relative, so scaling omega, epsilon and gamma by 2^k leaves every phase
as it was while both squares stay normal floats, and leaves D, the
eigenvalues, G and the entropies covariant: bit for bit where libm `pow`
squares the scaled value exactly as it squares the unscaled one.  Where it
does not (about 1 draw in 1600 here), a square moves by an ulp and each
value by its conditioning times that.  Below the smallest normal float the
band is floored, and its labels still fall on the side of the exact D.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import mp_metric, mp_relative_error
from test_sweep_kernel import expected_extras, scalar_point

from nhjc.biortho import metric
from nhjc.entropy import entanglement_entropy
from nhjc.model import Branch, ModelParams, Phase, classify_phase, spectrum_closed_form
from nhjc.scan import Axis, SweepSpec, run_sweep

# omega = 1, epsilon = 5: gamma = 1 and 4 are 0.5 and 2 times the critical coupling
BLOCKS = [((1.0, 5.0, 1.0), Phase.UNBROKEN), ((1.0, 5.0, 4.0), Phase.BROKEN)]
SCALES = [1e-6, 1e-100, 2.0**-300]
QUANTITIES = ("eigenvalues", "phase", "metric_norm", "entropy")


@pytest.mark.parametrize("scale", SCALES, ids=["1e-6", "1e-100", "2**-300"])
@pytest.mark.parametrize("values, phase", BLOCKS)
def test_phase_metric_and_entropy_do_not_depend_on_the_unit(values, phase, scale):
    unit = ModelParams(*values, 0)
    p = ModelParams(*(x * scale for x in values), 0)
    assert classify_phase(unit).value is phase and classify_phase(p).value is phase
    # G and the entropies are dimensionless
    np.testing.assert_allclose(metric(p), metric(unit), rtol=1e-14, atol=0.0)
    for branch in Branch:
        assert math.isclose(
            entanglement_entropy(p, branch), entanglement_entropy(unit, branch), rel_tol=1e-14
        )


def _gamma_sweep(scale: float):
    fixed = ModelParams(1.0 * scale, 5.0 * scale, 0.0, 0)
    return run_sweep(SweepSpec(fixed, Axis("gamma", 0.0, 4.0 * scale, 41), quantities=QUANTITIES))


def test_gamma_sweep_phases_do_not_depend_on_the_unit():
    unit, scaled = _gamma_sweep(1.0), _gamma_sweep(2.0**-300)
    assert scaled.phase.tolist() == unit.phase.tolist()
    assert {0, 1, 2} <= set(unit.phase.tolist())
    for key in unit.extras:
        np.testing.assert_allclose(scaled.extras[key], unit.extras[key], rtol=1e-14, atol=0.0)


_FLOAT_MIN = sys.float_info.min


def _normal_squares(omega, epsilon, gamma, n) -> bool:
    """(omega - epsilon)**2 and 4 gamma**2 (n+1), as model forms them, are
    normal floats, or 0 from a base of 0 rather than from an underflow."""
    b = omega - epsilon
    pairs = ((b, b**2), (gamma, 4.0 * gamma**2 * (n + 1)))
    return all(x == 0.0 or square >= _FLOAT_MIN for x, square in pairs)


def _pow_covariant(x: float, s: float) -> bool:
    """libm pow squares x s as it squares x, scaled by s^2."""
    return (x * s) ** 2 == x**2 * s * s


def _within(got, want, ulps: float, scale: float | None = None) -> bool:
    """got == want bit for bit (ulps = 0, signed zeros apart) or within ulps
    units in the last place of scale, by default the larger modulus;
    complex parts apart."""
    if isinstance(want, complex):
        parts = ((got.real, want.real), (got.imag, want.imag))
        return all(_within(g, w, ulps, scale) for g, w in parts)
    if ulps == 0:
        return got == want
    return abs(got - want) <= ulps * math.ulp(max(abs(got), abs(want)) if scale is None else scale)


def _eigenvalues_within(got, want, s: float, ulps: float) -> bool:
    """Both eigenvalues of got equal to s times those of want within ulps
    of |lambda_I| + |lambda_II|, which bounds the centre and sqrt(D) / 2 that
    each is the sum of: an eigenvalue near 0 cancels them."""
    scale = (abs(want[0]) + abs(want[1])) * s
    return all(_within(g, w * s, ulps, scale) for g, w in zip(got, want))


_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# 0 or of magnitude 1e-3 to 1e3: scaled by 2^k for |k| <= 400, every value
# formed from them stays a normal float unless a square underflows
energy = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
# gamma as a multiple of the critical coupling |omega - epsilon| / (2 sqrt(n+1)),
# so that draws land on both sides of the EP, inside its band and near it
critical_multiple = st.one_of(st.floats(0.0, 3.0), st.floats(0.999, 1.001))


def _draw(omega, epsilon, multiple, sign, n, k):
    gamma = sign * multiple * abs(omega - epsilon) / (2.0 * math.sqrt(n + 1))
    s = math.ldexp(1.0, k)
    return (omega, epsilon, gamma, n), s


def _scaled(values, s):
    omega, epsilon, gamma, n = values
    return omega * s, epsilon * s, gamma * s, n


def _tolerance(values, s) -> float | None:
    """Ulps allowed between the scaled and the unscaled results: None where
    a square leaves the normal range at either scale, 0 where pow is
    covariant on the draw, else 32 kappa for kappa = max(b2, c2) / |D|, the
    condition number of D.  Over 5000 such draws a square one ulp off moved
    D by at most 3 kappa ulps, G by 2 kappa, the entropies by 18 kappa and
    the eigenvalues by 1 kappa ulps of |lambda_I| + |lambda_II|.  Near the
    EP that is far more than a fixed 4 ulps (D by 131072 ulps at kappa 3e4)."""
    omega, epsilon, gamma, n = values
    if not (_normal_squares(*values) and _normal_squares(*_scaled(values, s))):
        return None
    if _pow_covariant(omega - epsilon, s) and _pow_covariant(gamma, s):
        return 0
    b2, c2 = (omega - epsilon) ** 2, 4.0 * gamma**2 * (n + 1)
    d = b2 - c2
    return 32.0 * max(b2, c2) / abs(d) if d else math.inf


@_SETTINGS
@given(
    omega=energy,
    epsilon=energy,
    multiple=critical_multiple,
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(0, 8),
    k=st.integers(-400, 400),
)
# draws where pow is not covariant: (omega - epsilon)**2 on both sides of
# the EP, gamma**2 in the broken phase, and both squares near the EP
@example(246.2067617640737, 0.0, 0.5, 1.0, 0, -197)
@example(246.2067617640737, 0.0, 2.0, -1.0, 0, -197)
@example(3.0, -1.0, 2.942719, 1.0, 1, 151)
@example(24.280289848907614, 664.4692819251663, 0.999995892810242, 1.0, 7, 194)
def test_scalar_api_is_covariant_under_a_power_of_two(omega, epsilon, multiple, sign, n, k):
    values, s = _draw(omega, epsilon, multiple, sign, n, k)
    ulps = _tolerance(values, s)
    if ulps is None:
        return
    p, q = ModelParams(*values), ModelParams(*_scaled(values, s))
    label, scaled = classify_phase(p), classify_phase(q)
    assert scaled.value is label.value
    assert _within(scaled.discriminant, label.discriminant * s * s, ulps)
    spectra = [spectrum_closed_form(x) for x in (q, p)]
    assert _eigenvalues_within(*[(x.eigenvalue_I, x.eigenvalue_II) for x in spectra], s, ulps)
    for branch in Branch:
        assert _within(entanglement_entropy(q, branch), entanglement_entropy(p, branch), ulps)
    if label.value is not Phase.EXCEPTIONAL_POINT:
        for got, want in zip(metric(q).flat, metric(p).flat):
            assert _within(complex(got), complex(want), ulps)


@settings(_SETTINGS, max_examples=100)
@given(
    omega=energy,
    epsilon=energy,
    n=st.integers(0, 8),
    k=st.integers(-400, 400),
)
@example(246.2067617640737, 0.0, 0, -197)  # (omega - epsilon)**2 not covariant
def test_sweep_is_covariant_under_a_power_of_two(omega, epsilon, n, k):
    # a coupling axis over [-2, 2] times the critical coupling, through both
    # EPs and gamma = 0, in both units; at omega == epsilon, where every
    # coupled cell is broken, over [-1, 1]
    values, s = _draw(omega, epsilon, 2.0, 1.0, n, k)
    values = values[:2] + (values[2] or 1.0, n)

    def sweep(omega, epsilon, gamma, n):
        fixed, axis = ModelParams(omega, epsilon, 0.0, n), Axis("gamma", -gamma, gamma, 9)
        return run_sweep(SweepSpec(fixed, axis, quantities=QUANTITIES))

    tables = scaled, table = sweep(*_scaled(values, s)), sweep(*values)
    for i, g in enumerate(table.coords[0].tolist()):
        assert scaled.coords[0][i] == g * s  # the grid itself scales exactly
        ulps = _tolerance((omega, epsilon, g, n), s)
        if ulps is None:
            continue
        assert scaled.phase[i] == table.phase[i]
        assert _within(float(scaled.discriminant[i]), float(table.discriminant[i]) * s * s, ulps)
        got, want = [(complex(x.eigenvalue_I[i]), complex(x.eigenvalue_II[i])) for x in tables]
        assert _eigenvalues_within(got, want, s, ulps)
        for key, values_at in table.extras.items():
            want, got = float(values_at[i]), float(scaled.extras[key][i])
            assert (math.isnan(got) and math.isnan(want)) or _within(got, want, ulps)


def test_diabolic_cells_match_the_scalar_api():
    # omega == epsilon through gamma = 0: the decoupled cells are Unbroken,
    # with G = I, zero entropy and nothing evolving, bit for bit as the
    # scalar API has them
    n_list = (0, 3)
    spec = SweepSpec(
        ModelParams(2.0, 2.0, 0.0, 0),
        Axis("t", 0.0, 1.0, 3),
        Axis("gamma", -1.0, 1.0, 5),
        quantities=("survival", "bloch", "entropy", "metric_norm"),
        n_list=n_list,
        initial_bloch=(0.3, -0.4, 0.5),
    )
    table = run_sweep(spec)
    for k, cell in enumerate(table):
        p, t = scalar_point(spec, n_list[k // (len(table) // len(n_list))], cell)
        label = classify_phase(p)
        assert cell.phase is label.value and repr(cell.discriminant) == repr(label.discriminant)
        assert repr(cell.eigenvalues) == repr(spectrum_closed_form(p))
        want = expected_extras(spec, p, t)
        assert {k: repr(v) for k, v in cell.extras.items()} == {k: repr(v) for k, v in want.items()}
    decoupled = [cell for cell in table if cell.coords[1] == 0.0]
    assert len(decoupled) == 6
    for cell in decoupled:
        assert cell.phase is Phase.UNBROKEN and cell.extras["metric_norm"] == math.sqrt(2.0)
        assert cell.extras["survival"] == 1.0 and cell.extras["entropy_I"] == 0.0


def _subnormal_zone_draws(count: int, seed: int):
    """Blocks (b, 0, gamma, n) with b = omega - epsilon log-uniform in
    [1e-163, 1e-150], where b**2 is subnormal or 0, and gamma at a relative
    distance of 1e-9 to 1e-1 from the critical coupling, either side."""
    rng = random.Random(seed)
    for _ in range(count):
        b = 10.0 ** rng.uniform(-163.0, -150.0)
        n = rng.randrange(4)
        distance = 10.0 ** rng.uniform(-9.0, -1.0) * rng.choice((1.0, -1.0))
        yield ModelParams(b, 0.0, b / (2.0 * math.sqrt(n + 1)) * (1.0 + distance), n)


def test_subnormal_zone_labels_fall_on_the_side_of_the_exact_discriminant():
    off_band = 0
    for p in _subnormal_zone_draws(2000, seed=1729):
        label = classify_phase(p)
        if label.value is Phase.EXCEPTIONAL_POINT:
            continue
        off_band += 1
        exact = Fraction(p.omega - p.epsilon) ** 2 - 4 * Fraction(p.gamma) ** 2 * (p.n + 1)
        assert (exact >= 0) == (label.value is Phase.UNBROKEN), p
        want = mp_metric(p.omega, p.epsilon, p.gamma, p.n)
        assert mp_relative_error(metric(p), want) < 1e-5, p
    assert off_band > 500  # the zone is not all band
