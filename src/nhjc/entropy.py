"""Spin-oscillator entanglement entropy on one invariant subspace.

A right eigenvector of a block, Dirac-normalized, reads

    |psi_i> = (|n, up> + alpha_i |n+1, down>) / sqrt(1 + |alpha_i|^2),

so the reduced spin (or, identically, oscillator) density matrix has
eigenvalues lambda = 1 / (1 + |alpha_i|^2) and 1 - lambda, and the
entanglement entropy is the binary entropy S = -lambda ln lambda
- (1 - lambda) ln(1 - lambda) in nats.

In the broken phase |alpha|^2 = 1 identically, for any (omega, epsilon, n):
both branches sit at the maximum S = ln 2 (to within 1 ulp).  On the
unbroken side S grows from 0 at gamma -> 0 to ln 2 at the exceptional
point, the limit value returned exactly in the EP band.  Left eigenvectors
give the same reduced spectrum.  alpha_i are the ratios of `biortho.eigenvector_ratios`;
an entropy curve is a sweep over `delta_sq` with the `entropy` quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .biortho import _ratios
from .model import Branch, ModelParams, Phase, _block

__all__ = [
    "LN2",
    "ReducedSpectrum",
    "reduced_spectrum",
    "entanglement_entropy",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ReducedSpectrum:
    """Eigenvalue pair {lam, complement} of a reduced density matrix.

    lam + complement == 1.0 exactly (complement is computed as 1 - lam).
    """

    lam: float
    complement: float
    branch: Branch


def _square_or_inf(v: float) -> float:
    """v ** 2, or inf where it overflows: |alpha| ~ 1/gamma beyond 1e154 is
    the product-state limit."""
    try:
        return v ** 2.0
    except OverflowError:
        return math.inf


def _ratio_squared(p: ModelParams, branch: Branch, side: str) -> float:
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    block = _block(p)
    if block.label.value is Phase.EXCEPTIONAL_POINT:
        return 1.0  # EP band: the ratios coalesce on the unit circle
    a = _ratios(block)[0 if branch is Branch.I else 1]
    if side == "left":
        a = -a.conjugate()  # left coefficient; same modulus by construction
    return _square_or_inf(abs(a))


def reduced_spectrum(
    p: ModelParams, branch: Branch, side: str = "right"
) -> ReducedSpectrum:
    """Reduced spin spectrum {lam, 1 - lam} of one eigenvector.

    gamma = 0 gives the product-state limit lam = 1 and the EP band (1/2, 1/2);
    the left and right eigenvectors of a branch share the same spectrum.
    """
    if p.gamma == 0.0:
        return ReducedSpectrum(1.0, 0.0, branch)
    a2 = _ratio_squared(p, branch, side)
    lam = 1.0 / (1.0 + a2)
    return ReducedSpectrum(lam, 1.0 - lam, branch)


# Where the smaller reduced eigenvalue is below this, the larger one's
# logarithm is taken as log1p(-small): ln of the rounded 1 - small carries an
# absolute error near 1e-16 against an entropy of order small ln(1 / small).
_NEAR_PRODUCT = 1e-3


def _reduced_pair(a2):
    """{lam, comp} = {1, a2} / (1 + a2) for a2 > 0 finite, a float or an
    array.  comp is a ratio, not 1 - lam, so tiny a2 keeps full relative
    accuracy."""
    return 1.0 / (1.0 + a2), a2 / (1.0 + a2)


def _binary_entropy(lam, comp, log):
    """-(lam ln lam + comp ln comp) with the given log, floats or arrays;
    accurate where neither is below _NEAR_PRODUCT."""
    return -(lam * log(lam) + comp * log(comp))


def _near_product_entropy(small, log, log1p):
    """Entropy of {small, 1 - small} for small < _NEAR_PRODUCT with the given
    log and log1p; floats or arrays."""
    return -(small * log(small) + (1.0 - small) * log1p(-small))


def entanglement_entropy(p: ModelParams, branch: Branch) -> float:
    """Entanglement entropy of one eigenvector branch, in nats.

    Within 1 ulp of ln 2 throughout the broken phase (|alpha|^2 = 1) and
    ln 2 in the EP band; 0 in the gamma -> 0 limit (returned at gamma = 0),
    which it approaches with full relative accuracy: where the smaller
    reduced eigenvalue is below 1e-3, the larger one's log is log1p.
    """
    if p.gamma == 0.0:
        return 0.0
    a2 = _ratio_squared(p, branch, "right")
    if a2 == 0.0 or math.isinf(a2):
        return 0.0
    lam, comp = _reduced_pair(a2)
    small = min(lam, comp)
    if small < _NEAR_PRODUCT:
        return _near_product_entropy(small, math.log, math.log1p)
    return _binary_entropy(lam, comp, math.log)
