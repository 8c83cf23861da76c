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
    eigensystem,
    eigenvector_ratios,
    intertwiner,
    metric,
    metric_divergence_exponent,
    projectors,
    pseudo_hermiticity_residual,
)
from nhjc.dynamics import BlochState, default_time_grid, effective_generator, evolve_no_jump
from nhjc.entropy import entanglement_entropy, reduced_spectrum
from nhjc.model import Branch, ModelParams, classify_phase, spectrum_closed_form

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
    ModelParams(2.0, 2.0, 0.0, 0),  # decoupled at the EP
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


def _eigensystem(p):
    s = eigensystem(p)
    return s.right_I, s.right_II, s.left_I, s.left_II, _spectrum(s.eigenvalues)


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
            evolved = evolve_no_jump(gen, state, k / gen.rate)
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
    "eigensystem": _eigensystem,
    "metric": metric,
    "intertwiner": _intertwiner,
    "projectors": projectors,
    "pseudo_hermiticity_residual": pseudo_hermiticity_residual,
    "entanglement_entropy": lambda p: [entanglement_entropy(p, b) for b in Branch],
    "reduced_spectrum": _reduced_spectrum,
    "effective_generator": _generator,
    "evolve_no_jump": _evolve,
    "default_time_grid": _time_grid,
    "metric_divergence_exponent": _exponents,
}

DIGESTS = {
    "classify_phase": "7c232d8a66c43130",
    "spectrum_closed_form": "31f82c8e973c0ca8",
    "eigenvector_ratios": "4d47a50892e20a2e",
    "eigensystem": "396b82363ebb5d43",
    "metric": "7b6dc24e29ef0e94",
    "intertwiner": "6805e4649b4b0c67",
    "projectors": "c12831035a3d54c8",
    "pseudo_hermiticity_residual": "669a864fe720a279",
    "entanglement_entropy": "d3fca08dce7a6141",
    "reduced_spectrum": "6dfedabb2ed5667a",
    "effective_generator": "d0dc240f83e7a2da",
    "evolve_no_jump": "9ea963c1d25908ac",
    "default_time_grid": "329acb3070e0fe97",
    "metric_divergence_exponent": "6e33d6ca7d768de1",
}


def _digest(name: str) -> str:
    lines = []
    for p in POINTS:
        try:
            lines.append(_encode(FUNCTIONS[name](p)))
        except ValueError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_scalar_api_matches_golden(name):
    assert _digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for name in FUNCTIONS:
        print(f'    "{name}": "{_digest(name)}",')
