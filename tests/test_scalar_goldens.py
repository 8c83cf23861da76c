"""Exact bits of the scalar API at fixed points, pinned by sha256.

Every result is encoded exactly: float.hex for floats and for both parts of
a complex, ndarray.tobytes() for arrays, and the class name and message for
a raised ValueError.  Each function's encodings over POINTS are hashed, and
the first 16 hex digits are pinned below.  A refactor of the scalar layer
must leave every digest unchanged; a deliberate change of a value updates
its digest here.  `python tests/test_scalar_goldens.py` prints the current
digests.
"""

import hashlib
from enum import Enum

import numpy as np
import pytest

from nhjc.biortho import (
    eigenvector_ratios,
    intertwiner,
    metric,
    metric_divergence_exponent,
    projectors,
)
from nhjc.dynamics import BlochState, default_time_grid, effective_generator, evolve_no_jump
from nhjc.entropy import entanglement_entropy, reduced_spectrum
from nhjc.model import (
    Branch,
    ModelParams,
    Phase,
    build_block,
    classify_phase,
    spectrum_closed_form,
)

# Both phases, the EP and its band, gamma = 0, gamma = 1e-300, negative
# gamma and n up to 5.  No point overflows the discriminant.
POINTS = [
    ModelParams(1.0, 5.0, 1.0, 0),  # unbroken
    ModelParams(1.0, 5.0, 3.0, 0),  # broken
    ModelParams(1.0, 5.0, 2.0, 0),  # exactly at the EP
    ModelParams(1.0, 5.0, 2.0 * (1.0 + 1e-12), 0),  # inside the EP band
    ModelParams(1.0, 5.0, 1.0, 3),  # EP of block n = 3
    ModelParams(1.0, 5.0, 0.0, 0),  # decoupled, epsilon > omega
    ModelParams(5.0, 1.0, 0.0, 2),  # decoupled, epsilon < omega
    ModelParams(2.0, 2.0, 0.0, 0),  # decoupled at omega == epsilon: the diabolic point
    ModelParams(1.0, 5.0, 1e-300, 0),
    ModelParams(5.0, 1.0, 1e-300, 1),
    ModelParams(1.0, 5.0, -1.0, 2),
    ModelParams(-2.0, 3.0, -4.0, 5),
    ModelParams(0.3, -1.7, 0.9, 5),
    ModelParams(2.5, 2.5, 0.4, 4),  # omega == epsilon: broken for any gamma != 0
    ModelParams(-0.7, 1.3, 1e100, 1),  # deep broken
    ModelParams(3.0, -1.0, -0.5, 1),  # unbroken, omega - epsilon > 0
    ModelParams(2.2, -0.3, 0.7, 2),
    ModelParams(4.1, 0.6, -1.3, 0),
    ModelParams(-1.9, -4.4, 0.35, 5),
    ModelParams(0.8, 3.9, 2.6, 3),
]

STATES = [
    BlochState(np.array([0.0, 0.0, 1.0])),
    BlochState(np.array([0.3, -0.4, 0.5]), weight=1.5),
    BlochState(np.array([0.0, -1.0, 0.0])),
]


def _encode(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_encode(v) for v in value) + ")"
    if isinstance(value, Enum):
        return str(value)
    if isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real.hex()}{value.imag.hex()}j"
    return float(value).hex()


def _label(label):
    return label.value, label.discriminant


def _spectrum(s):
    return s.eigenvalue_I, s.eigenvalue_II


def _intertwiner(p):
    b = intertwiner(p)
    return b.G, b.g, b.g_inv, b.h, _label(b.phase)


def _reduced_spectrum(p):
    out = []
    for branch in Branch:
        for side in ("right", "left"):
            rs = reduced_spectrum(p, branch, side)
            out.append((rs.lam, rs.complement, rs.branch))
    return out


def _generator(p):
    gen = effective_generator(p)
    return gen.n, gen.rate, gen.shift, gen.matrix()


def _evolve(p):
    gen = effective_generator(p)
    out = []
    for state in STATES:
        for k in (0.0, 0.3, 2.0):
            # k in units of 1 / rate; at rate 0, the diabolic point, k itself
            evolved = evolve_no_jump(gen, state, k / gen.rate if gen.rate else k)
            out.append((evolved.r, evolved.weight))
    return out


def _time_grid(p):
    gen = effective_generator(p)
    return default_time_grid(gen), default_time_grid(gen, 7)


def _exponents(p):
    # each side on its own, so that an error on 'below' does not hide 'above'
    out = []
    for side in ("below", "above"):
        try:
            out.append(metric_divergence_exponent(p, side))
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


FUNCTIONS = {
    "classify_phase": lambda p: _label(classify_phase(p)),
    "spectrum_closed_form": lambda p: _spectrum(spectrum_closed_form(p)),
    "eigenvector_ratios": eigenvector_ratios,
    "metric": metric,
    "intertwiner": _intertwiner,
    "projectors": projectors,
    "entanglement_entropy": lambda p: [entanglement_entropy(p, b) for b in Branch],
    "reduced_spectrum": _reduced_spectrum,
    "effective_generator": _generator,
    "evolve_no_jump": _evolve,
    "default_time_grid": _time_grid,
    "metric_divergence_exponent": _exponents,
}

DIGESTS = {
    "classify_phase": "ee979d60f4c8fc99",
    "spectrum_closed_form": "31f82c8e973c0ca8",
    "eigenvector_ratios": "b692971b5dccd8c8",
    "metric": "eaae7543bef7e12d",
    "intertwiner": "889eec0c3c5fdb78",
    "projectors": "4812d63598651fd2",
    "entanglement_entropy": "d3fca08dce7a6141",
    "reduced_spectrum": "6dfedabb2ed5667a",
    "effective_generator": "0a5473dfe7d89633",
    "evolve_no_jump": "f3bec5a1511b5c20",
    "default_time_grid": "c0878199fe31f6bc",
    "metric_divergence_exponent": "6e33d6ca7d768de1",
}


def _lines(name: str) -> list[str]:
    lines = []
    for p in POINTS:
        try:
            lines.append(_encode(FUNCTIONS[name](p)))
        except ValueError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return lines


def _hash(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _digest(name: str) -> str:
    return _hash(_lines(name))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_scalar_api_matches_golden(name):
    assert _digest(name) == DIGESTS[name]


def test_diabolic_point_rows_are_analytic():
    # the one point whose rows moved when the decoupled block left the EP
    # band: H = I, so the spectrum is (1, 1), G = g = h = I, the projectors
    # are the diagonal ones and nothing evolves (rate 0, no time grid)
    p = ModelParams(2.0, 2.0, 0.0, 0)
    eye = np.eye(2, dtype=complex)
    assert np.array_equal(build_block(p), eye)
    label = classify_phase(p)
    assert (label.value, label.discriminant) == (Phase.UNBROKEN, 0.0)
    assert _spectrum(spectrum_closed_form(p)) == (1.0, 1.0)
    bundle = intertwiner(p)
    for m in (metric(p), bundle.G, bundle.g, bundle.g_inv, bundle.h):
        assert np.array_equal(m, eye)
    rho_one, rho_two = projectors(p)
    assert np.array_equal(rho_one + rho_two, eye) and np.array_equal(rho_one @ rho_two, 0 * eye)
    # omega == epsilon orders the unit vectors as epsilon < omega does
    assert np.array_equal(rho_one, np.diag([0.0, 1.0]).astype(complex))
    assert np.array_equal(rho_two, np.diag([1.0, 0.0]).astype(complex))
    gen = effective_generator(p)
    assert (gen.rate, gen.shift, gen.is_broken) == (0.0, 1.0, False)
    assert np.array_equal(gen.matrix(), eye)
    for state in STATES:
        evolved = evolve_no_jump(gen, state, 2.0)
        assert np.array_equal(evolved.r, state.r) and evolved.weight == state.weight
    with pytest.raises(ValueError, match="rate must be positive"):
        default_time_grid(gen)


def test_eigenvector_ratios_moved_only_by_its_zero_coupling_class():
    # the gamma = 0 rows raised ZeroCouplingError, a ValueError subclass,
    # before it became a plain ValueError with the same message: named as
    # before, they give the digest pinned before
    message = "eigenvector ratios are undefined at gamma = 0"
    lines = _lines("eigenvector_ratios")
    assert lines.count(f"ValueError: {message}") == 3
    renamed = [f"ZeroCouplingError: {message}" if line == f"ValueError: {message}" else line
               for line in lines]
    assert _hash(renamed) == "4d47a50892e20a2e"


if __name__ == "__main__":
    for name in FUNCTIONS:
        print(f'    "{name}": "{_digest(name)}",')
