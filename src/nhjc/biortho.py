"""Biorthogonal eigenvector ratios, metric operators, intertwiners, projectors.

A non-Hermitian block has distinct right and left eigenvectors,

    H |R_i> = R_i |R_i>,      H^dag |L_i> = conj(R_i) |L_i>,

biorthogonal since <L_i|R_j> = 0 for i != j.  The positive operator

    G = sum_i |L_i><L_i|

is well defined once each pair is scaled to <L_i|R_i> = 1 with
||L_i|| = ||R_i||; the spectral projectors need no such scaling.  In the
unbroken phase G is a genuine metric: H is pseudo-Hermitian,
H = G^-1 H^dag G, the intertwiner g = sqrt(G) maps H to a Hermitian
isospectral partner h = g H g^-1, and <psi|G|psi> is conserved under
exp(-iHt).  In the broken phase the same construction yields a
positive G that is no longer a similarity to a Hermitian problem; h-tilde
stays non-Hermitian, G-norms grow and the residual ||H - G^-1 H^dag G|| is
of order one.  ||G|| diverges as |delta - delta_c| to the power -1/2 on
both sides of the exceptional point.

The pairs themselves are not public: `eigenvector_ratios` gives right
(1, a_i) and left (1, -conj a_i), `projectors` forms rho_i from them, and
`metric` and `intertwiner` use the closed form of G.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    PhaseLabel,
    _Block,
    _block,
    _center,
    _finite,
    _in_band,
    _square,
    _unchecked,
    critical_gamma,
)

__all__ = [
    "MetricBundle",
    "eigenvector_ratios",
    "metric",
    "intertwiner",
    "projectors",
    "metric_divergence_exponent",
    "sqrt_hpd",
]


@dataclass(frozen=True)
class MetricBundle:
    """Metric G, intertwiner g = sqrt(G), its inverse, and h = g H g^-1.

    Each matrix is a complex 2x2 array.
    """

    G: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    h: np.ndarray
    phase: PhaseLabel


_COALESCE = "eigenvectors coalesce near the exceptional point (discriminant {d:.3e})"


def eigenvector_ratios(p: ModelParams) -> tuple[complex, complex]:
    """Second-over-first component ratios of the two right eigenvectors.

    The ratios are the roots of delta a^2 + (epsilon - omega) a + delta = 0,
    i.e. a = [(omega - epsilon) +- sqrt(D)] / (2 gamma sqrt(n+1)), and their
    product is exactly 1.  On the unbroken side the nearly-cancelling branch
    is recovered from that product so both ratios keep full relative
    accuracy down to gamma -> 0.

    Raises ValueError at gamma = 0, where the block is decoupled,
    ExceptionalPointError inside the EP band, where the two ratios coalesce,
    and ValueError naming a ratio that is not finite.
    """
    if p.gamma == 0.0:
        raise ValueError("eigenvector ratios are undefined at gamma = 0")
    ratios = _ratios(_block(p, _COALESCE))
    for name, a in zip(("a_I", "a_II"), ratios):
        if not cmath.isfinite(a):
            raise ValueError(f"eigenvector ratio {name} = {a} is not finite at {p}")
    return ratios


def _ratios(block: _Block) -> tuple[complex, complex]:
    """eigenvector_ratios unchecked, of a coupled block off the EP band; kept."""
    if block.ratios is None:
        b, two_delta, root = block.b, block.t, block.root
        if root.imag != 0.0:
            # broken phase: |b + root| = |b - root|, no cancellation either way
            block.ratios = (b + root) / two_delta, (b - root) / two_delta
        elif b >= 0.0:
            a_one = (b + root.real) / two_delta
            block.ratios = a_one, 1.0 / a_one
        else:
            a_two = (b - root.real) / two_delta
            block.ratios = 1.0 / a_two, a_two
    return block.ratios


def _metric_entries(b, t, d, sqrt=np.sqrt, biggest=np.maximum, smallest=np.minimum,
                    copysign=np.copysign):
    """Entries (diag, off) of metric()'s G = [[diag, off], [off, diag]] from
    b, t and d = D outside the EP band: arrays with the numpy defaults, Python
    floats with math.sqrt, max, min and math.copysign, the same bits either
    way.  -sgn(b t) min(|b|, |t|) is -sgn(b) t where d > 0 and -sgn(t) b where
    d < 0, signed zeros included; |d| > 1e-10 max(b^2, t^2) keeps diag below 1e5."""
    root = sqrt(abs(d))
    small = smallest(abs(b), abs(t))
    return biggest(abs(b), abs(t)) / root, -copysign(small, b * t) / root


def _metric_norm(b, t, d):
    """||G||_F over _metric_entries; also the sweep's metric_norm column."""
    diag, off = _metric_entries(b, t, d)
    return np.sqrt(2.0 * (diag * diag + off * off))


def _entries(block: _Block) -> tuple[float, float]:
    """_metric_entries of a block off the EP band, as Python floats; kept.
    G = I where t = 0, with the off-diagonal zero signed as _metric_entries
    signs it, which |b| / sqrt(D) would miss where D = 0 or b**2 is subnormal."""
    if block.entries is None:
        b, t = block.b, block.t
        if t == 0.0:
            block.entries = 1.0, -math.copysign(0.0, b * t)
        else:
            d = block.label.discriminant
            block.entries = _metric_entries(b, t, d, math.sqrt, max, min, math.copysign)
    return block.entries


def _symmetric(diag, off) -> np.ndarray:
    return np.array((diag, off, off, diag), dtype=complex).reshape(2, 2)


def metric(p: ModelParams) -> np.ndarray:
    """Metric G = sum_i |L_i><L_i| of the biorthogonally normalized lefts.

    With b = omega - epsilon and t = 2 gamma sqrt(n+1), G is
    [[|b|, -sgn(b) t], [-sgn(b) t, |b|]] / sqrt(D) unbroken and
    [[|t|, -sgn(t) b], [-sgn(t) b, |t|]] / sqrt(-D) broken (Mostafazadeh,
    J. Math. Phys. 43, 205 (2002)): det G = 1, G = I at gamma = 0, and
    ||G|| diverges like |delta - delta_c|**-0.5 toward the EP.
    """
    return _symmetric(*_entries(_block(p, _COALESCE)))


def sqrt_hpd(m) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite 2x2 matrix.

    Closed form (M + s I) / sqrt(tr M + 2 s) with s = sqrt(det M) (Levinger,
    Math. Mag. 53, 222 (1980)).  Raises ValueError when the input is not a
    finite 2x2 matrix, is not Hermitian or is not positive definite.
    """
    try:
        m = np.asarray(m, dtype=complex)
    except OverflowError:  # an int past the float range
        raise ValueError("expected a finite 2x2 matrix, got an int past the float range") from None
    if m.shape != (2, 2) or not np.isfinite(m).all():
        raise ValueError(f"expected a finite 2x2 matrix, got shape {m.shape}")
    big = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    if big > 2.0**500:
        # the closed form squares the entries: take the root of m / 4**k, an
        # exact scaling by a power of two, and scale it back by 2**k
        k = math.frexp(big)[1] // 2
        return sqrt_hpd(m * math.ldexp(1.0, -2 * k)) * math.ldexp(1.0, k)
    scale = float(np.linalg.norm(m))
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian")
    a = m[0, 0].real
    d = m[1, 1].real
    b = 0.5 * (m[0, 1] + m[1, 0].conjugate())  # hermitize roundoff
    det = a * d - (b.real * b.real + b.imag * b.imag)
    if det <= 0.0 or a + d <= 0.0:
        raise ValueError(f"determinant {det} and trace {a + d} must be positive")
    s = math.sqrt(det)
    root = np.array([[a + s, b], [b.conjugate(), d + s]], dtype=complex)
    return root / math.sqrt(a + d + 2.0 * s)


def intertwiner(p: ModelParams) -> MetricBundle:
    """Metric bundle (G, g, g^-1, h) with g = sqrt(G) and h = g H g^-1.

    det G = 1: g = (G + I) / sqrt(tr G + 2) (Levinger) and g^-1 = adj(g).
    With H = c I + [[-b, t], [-t, b]] / 2, h = c I + [[-x, y], [-y, x]] for
    x = (diag b + off t) / 2 and y = (off b + diag t) / 2: Hermitian (the
    diagonal spectrum) in the unbroken phase, non-Hermitian yet isospectral
    to H in the broken phase.
    """
    block = _block(p, _COALESCE)
    diag, off = _entries(block)
    scale = math.sqrt(2.0 * diag + 2.0)
    g_diag, g_off = (diag + 1.0) / scale, off / scale
    center = _center(p, block)
    x = 0.5 * (diag * block.b + off * block.t)
    y = 0.5 * (off * block.b + diag * block.t)
    if not (math.isfinite(center - x) and math.isfinite(center + x) and math.isfinite(y)):
        raise ValueError("matrix entries must be finite")
    # G, g, g^-1 and h as the four (2, 2) blocks of one array, each
    # C-contiguous and apart from the others
    G, g, g_inv, h = np.array(
        (diag, off, off, diag, g_diag, g_off, g_off, g_diag,
         g_diag, -g_off, -g_off, g_diag, center - x, y, -y, center + x),
        dtype=complex,
    ).reshape(4, 2, 2)
    return _unchecked(MetricBundle, {"G": G, "g": g, "g_inv": g_inv, "h": h, "phase": block.label})


def projectors(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors rho_i = |R_i><L_i| / <L_i|R_i>.

    Trace one, idempotent, mutually annihilating, and complete; independent
    of how the eigenvector pairs are scaled, so each is formed from its pair
    as built: right (1, a_i) and left (1, -conj a_i) of eigenvector_ratios,
    or both divided by a_i and -conj a_i where |a_i| > 1.  They are
    biorthogonal since the left partner of branch i belongs to H^dag's
    eigenvalue conj(R_i).  At gamma = 0 they are the unit vectors, branch I
    on the larger diagonal entry.

    Raises ExceptionalPointError inside the EP band, where the block is
    defective.
    """
    block = _block(p, _COALESCE)
    if p.gamma == 0.0:
        # decoupled block: the Hamiltonian is already diagonal
        e1 = np.array([1.0 + 0.0j, 0.0 + 0.0j])
        e2 = np.array([0.0 + 0.0j, 1.0 + 0.0j])
        pairs = [(e1, e1), (e2, e2)] if p.epsilon > p.omega else [(e2, e2), (e1, e1)]
    else:
        pairs = []
        for a in _ratios(block):
            # where |a| > 1 the same vectors divided by a and -conj a, written
            # with the reciprocal ratio w = 1/a, so that their overlap 1 - w^2
            # cannot overflow as gamma -> 0 (|1 - a^2| = |a|^2 |1 - w^2|)
            if abs(a) > 1.0:
                w = 1.0 / a
                right = np.array([w, 1.0], dtype=complex)
                left = np.array([-np.conj(w), 1.0], dtype=complex)
            else:
                right = np.array([1.0, a], dtype=complex)
                left = np.array([1.0, -np.conj(a)], dtype=complex)
            pairs.append((right, left))
    out = []
    for right, left in pairs:
        c = complex(np.vdot(left, right))  # 1 - a^2 or 1 - w^2, never 0 off the EP
        out.append(_finite(np.outer(right, left.conj()) / c))
    return out[0], out[1]


# metric_divergence_exponent fits this many offsets |delta - delta_c| per
# side, spaced geometrically on this window; the signed offsets
# delta - delta_c of each side, the offsets' logs less their mean and the
# sum of their squares are formed once
_EXPONENT_POINTS = 20
_EXPONENT_WINDOW = (1e-4, 1e-1)
_EXPONENT_OFFSETS = np.geomspace(*_EXPONENT_WINDOW, _EXPONENT_POINTS)
_EXPONENT_SIDES = {"below": -_EXPONENT_OFFSETS, "above": _EXPONENT_OFFSETS}
_EXPONENT_LOGS = np.log(_EXPONENT_OFFSETS)
_EXPONENT_LOGS -= _EXPONENT_LOGS.sum() / _EXPONENT_LOGS.size  # the bits of .mean()
_EXPONENT_VAR = float(np.dot(_EXPONENT_LOGS, _EXPONENT_LOGS))


def _fit_slope(p: ModelParams, delta_c: float, root_n1: float, signed: np.ndarray):
    """The OLS slope over the signed offsets of one side, from one array
    pass over their offset blocks; None where some block has a square past
    the float range or lies in the EP band, so metric() refuses it.

    The block of offset x is ModelParams(omega, epsilon, (delta_c + x) /
    root_n1, n), formed elementwise with the operations of _form_block, and
    its band and norm are _in_band's and _metric_norm's.  Every fit coupling
    is positive, since delta_c exceeds the largest offset.
    """
    gammas = (delta_c + signed) / root_n1
    b = p.omega - p.epsilon
    try:
        b2 = float(b**2)
        g2 = list(map(_square, gammas.tolist()))
    except OverflowError:
        return None
    n1 = p.n + 1
    # a product is monotone, so the largest 4 gamma**2 (n+1) bounds the rest
    # and the array products below cannot overflow
    if not (math.isfinite(b2) and math.isfinite(4.0 * max(g2) * n1)):
        return None
    c2 = 4.0 * np.array(g2) * float(n1)  # as Python's float * int converts n1, at any size
    d = b2 - c2
    if _in_band(b2, c2, d, True, np.maximum).any():
        return None
    # float(b) as Python's int / float converts an int b
    ly = np.log(_metric_norm(float(b), 2.0 * root_n1 * gammas, d))
    # OLS slope of log ||G||_F against the offsets' centred logs; the mean
    # as a sum over the size keeps the bits of ly.mean() without its Python layer
    return float(np.dot(_EXPONENT_LOGS, ly - ly.sum() / ly.size) / _EXPONENT_VAR)


def metric_divergence_exponent(p: ModelParams, side: str = "below") -> float:
    """Log-log slope of ||G||_F against |delta - delta_c| near the EP.

    Samples 20 geometrically spaced offsets in [1e-4, 1e-1] on the
    requested side of delta_c = |omega - epsilon| / 2 and fits an OLS slope
    in one array pass over their offset blocks, without forming p's own
    block; the divergence exponent is -1/2 on both sides.  Raises ValueError
    on either side when delta_c <= 1e-1: the 'below' window would reach or
    cross gamma = 0, and the 'above' window would reach 2 delta_c, past the
    range where ||G||_F follows the -1/2 power (at delta_c = 0, G = I and
    nothing diverges).  Every offset block that metric() would refuse, by
    an overflowing square or the EP band, makes this raise its error.
    """
    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    root_n1 = math.sqrt(p.n + 1)
    delta_c = root_n1 * critical_gamma(p)
    if delta_c <= _EXPONENT_WINDOW[1]:
        low, high = _EXPONENT_WINDOW
        window, reach = {
            "below": ("-", "reaches gamma = 0"),
            "above": ("+", "leaves the -1/2 asymptote"),
        }[side]
        raise ValueError(
            f"the '{side}' window delta_c {window} [{low:g}, {high:g}] {reach}:"
            f" delta_c = |omega - epsilon| / 2 = {delta_c!r} must exceed {high:g}"
        )
    signed = _EXPONENT_SIDES[side]
    slope = _fit_slope(p, delta_c, root_n1, signed)
    if slope is None:
        # _fit_slope refuses exactly where metric() refuses a block: rebuilt
        # in order, the first such block raises its error
        for x in signed.tolist():
            _block(ModelParams(p.omega, p.epsilon, (delta_c + x) / root_n1, p.n), _COALESCE)
    return slope
