"""The column kernel behind run_sweep against the scalar API, cell by cell.

run_sweep evaluates a whole grid at once; the scalar functions of model,
entropy, biortho and dynamics stay the per-point reference.  Every column
must agree bit for bit (compared through repr, so signed zeros count):
phase, discriminant, eigenvalues, entropy, survival, Bloch components and
metric_norm, which is sqrt(2 (diag^2 + off^2)) over the entries of metric().
"""

import math

import numpy as np
import pytest

from nhjc.biortho import metric
from nhjc.dynamics import BlochState, effective_generator, evolve_no_jump
from nhjc.entropy import entanglement_entropy
from nhjc.model import Branch, ModelParams, Phase, classify_phase, spectrum_closed_form
from nhjc.scan import Axis, SweepSpec, run_sweep

# omega = 1, epsilon = 5: the n = 0 block has its EP at gamma = delta = 2
FIXED = ModelParams(1.0, 5.0, 1.0, 0)
ALL = ("eigenvalues", "phase", "metric_norm", "entropy")
DYNAMICS = ("survival", "bloch", "entropy", "metric_norm")

SPECS = {
    "gamma": SweepSpec(FIXED, Axis("gamma", -3.0, 3.0, 25), quantities=ALL),
    "delta": SweepSpec(FIXED, Axis("delta", 0.0, 4.0, 41), quantities=ALL),
    "delta_sq": SweepSpec(FIXED, Axis("delta_sq", 0.0, 8.0, 33), quantities=ALL),
    "omega_epsilon": SweepSpec(
        FIXED, Axis("omega", -2.0, 4.0, 25), Axis("epsilon", 0.0, 6.0, 25), quantities=ALL
    ),
    "epsilon_delta": SweepSpec(
        FIXED, Axis("epsilon", -3.0, 7.0, 21), Axis("delta", -3.0, 3.0, 13), quantities=ALL
    ),
    "n_list": SweepSpec(
        ModelParams(0.5, -1.5, 1.0, 0),
        Axis("gamma", 0.0, 2.0, 41),
        quantities=ALL,
        n_list=(0, 1, 3),
    ),
    "ep_band": SweepSpec(FIXED, Axis("gamma", 2.0 - 1e-11, 2.0 + 1e-11, 5), quantities=ALL),
    "t_gamma": SweepSpec(
        FIXED,
        Axis("t", 0.0, 2.0, 21),
        Axis("gamma", 0.0, 4.0, 17),
        quantities=DYNAMICS,
        initial_bloch=(0.3, -0.4, 0.5),
    ),
    "t_delta_n_list": SweepSpec(
        ModelParams(2.0, -1.0, 1.0, 0),
        Axis("delta", 0.0, 3.0, 13),
        Axis("t", 0.0, 1.5, 7),
        quantities=DYNAMICS,
        n_list=(0, 2),
        initial_bloch=(0.0, 0.6, -0.8),
    ),
    # one kernel pass over every block index: the EP sits at delta_sq = 4 for each n
    "delta_sq_n_list": SweepSpec(
        FIXED,
        Axis("delta_sq", 0.0, 8.0, 33),
        quantities=("entropy", "metric_norm"),
        n_list=(0, 2, 5),
    ),
    "t_delta_sq_n_list": SweepSpec(
        ModelParams(0.5, 3.0, 1.0, 0),
        Axis("t", 0.0, 2.5, 11),
        Axis("delta_sq", 0.0, 4.0, 21),
        quantities=DYNAMICS,
        n_list=(1, 3),
        initial_bloch=(-0.5, 0.2, 0.7),
    ),
}

# Irregular grids, so that last-bit differences between numpy and libm (which
# hit well under 1% of inputs) show up among their cells.  The two fine grids
# hold about 10^4 distinct gamma and omega - epsilon values each: x * x and
# x ** 2 differ for about 0.08% of inputs.
SPECS["gamma_fine"] = SweepSpec(
    ModelParams(0.7, 3.3, 1.0, 2), Axis("gamma", -1.37, 1.91, 10001), quantities=("phase",)
)
SPECS["omega_epsilon_fine"] = SweepSpec(
    ModelParams(0.7, 3.3, 0.83, 1),
    Axis("omega", -1.13, 2.71, 101),
    Axis("epsilon", 0.29, 4.87, 99),
    quantities=("phase",),
)
# One coupling so small that the ratio a_II ~ -4 / gamma squares past
# overflow, then a grid across the EP at gamma = 2.
for _g in (1e-100, 1e-160, 1e-200, 1e-300):
    SPECS[f"tiny_gamma_{_g:.0e}"] = SweepSpec(FIXED, Axis("gamma", _g, 3.0, 7), quantities=ALL)
_rng = np.random.default_rng(2506)
for _k in range(3):
    _omega, _epsilon = (float(x) for x in _rng.uniform(-3.0, 3.0, 2))
    _gap = abs(_omega - _epsilon)
    _n = int(_rng.integers(0, 4))
    _g_c = _gap / (2.0 * math.sqrt(_n + 1))
    SPECS[f"random_{_k}"] = SweepSpec(
        ModelParams(_omega, _epsilon, _g_c, _n),
        Axis("gamma", -0.1 * _g_c, 1.9 * _g_c, 41),
        Axis("epsilon", _epsilon - 0.7 * _gap, _epsilon + 0.6 * _gap, 37),
        quantities=ALL,
    )
    SPECS[f"random_t_{_k}"] = SweepSpec(
        ModelParams(_omega, _epsilon, _g_c, _n),
        Axis("t", 0.0, 7.3 / _gap, 37),
        Axis("gamma", 0.03 * _g_c, 2.1 * _g_c, 41),
        quantities=DYNAMICS,
        initial_bloch=tuple(float(x) for x in 0.5 * _rng.uniform(-1.0, 1.0, 3)),
    )


def scalar_point(spec, n, cell):
    """The cell's ModelParams and time, built from its coordinates."""
    kw = {"omega": spec.fixed.omega, "epsilon": spec.fixed.epsilon, "gamma": spec.fixed.gamma}
    t = None
    for name, value in zip(cell.axis_names, cell.coords):
        if name == "delta":
            kw["gamma"] = value / math.sqrt(n + 1)
        elif name == "delta_sq":
            kw["gamma"] = math.sqrt(value / (n + 1))
        elif name == "t":
            t = value
        else:
            kw[name] = value
    return ModelParams(n=n, **kw), t


def expected_extras(spec, p, t):
    """Extras of one cell from the scalar API."""
    at_ep = classify_phase(p).value is Phase.EXCEPTIONAL_POINT
    out = {}
    for q in spec.quantities:
        if q == "metric_norm" and not at_ep:
            g = metric(p)
            diag, off = g[0, 0].real, g[0, 1].real
            out["metric_norm"] = math.sqrt(2.0 * (diag * diag + off * off))
        elif q == "entropy":
            out["entropy_I"] = entanglement_entropy(p, Branch.I)
            out["entropy_II"] = entanglement_entropy(p, Branch.II)
        elif q in ("survival", "bloch") and not at_ep:
            rho0 = BlochState(np.array(spec.initial_bloch))
            state = evolve_no_jump(effective_generator(p), rho0, t)
            if q == "survival":
                out["survival"] = float(state.weight)
            else:
                out.update(zip(("bloch_x", "bloch_y", "bloch_z"), map(float, state.r)))
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_matches_scalar_api(name):
    spec = SPECS[name]
    cells = run_sweep(spec)
    n_list = spec.n_list or (spec.fixed.n,)
    per_block = len(cells) // len(n_list)
    phases = set()
    for k, cell in enumerate(cells):
        n = n_list[k // per_block]
        assert cell.n == n
        p, t = scalar_point(spec, n, cell)
        label = classify_phase(p)
        phases.add(label.value)
        where = f"{name} cell {k} {cell.coords}"
        assert cell.phase is label.value, where
        assert repr(cell.discriminant) == repr(label.discriminant), where
        assert repr(cell.eigenvalues) == repr(spectrum_closed_form(p)), where
        want = expected_extras(spec, p, t)
        assert cell.extras.keys() == want.keys(), where
        for key, value in want.items():
            assert repr(cell.extras[key]) == repr(value), (where, key)
    if name == "ep_band":
        assert phases == {Phase.EXCEPTIONAL_POINT}
    else:
        # every grid crosses the EP
        assert {Phase.UNBROKEN, Phase.BROKEN} <= phases, name


def test_grids_include_decoupled_and_ep_cells():
    gamma_zero = [c for c in run_sweep(SPECS["t_gamma"]) if c.coords[1] == 0.0]
    assert gamma_zero and all(c.extras["survival"] == 1.0 for c in gamma_zero)
    at_ep = [c for c in run_sweep(SPECS["delta"]) if c.phase is Phase.EXCEPTIONAL_POINT]
    assert [c.coords for c in at_ep] == [(2.0,)]
    assert set(at_ep[0].extras) == {"entropy_I", "entropy_II"}
