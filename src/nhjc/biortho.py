"""Biorthogonal eigensystems, metric operators, intertwiners, projectors.

A non-Hermitian block has distinct right and left eigenvectors,

    H |R_i> = R_i |R_i>,      H^dag |L_i> = conj(R_i) |L_i>,

which become a biorthogonal system once normalized to <L_i|R_j> = delta_ij.
That condition still leaves a scale freedom per pair; here it is fixed
symmetrically, ||L_i|| = ||R_i||, which makes the positive operator

    G = sum_i |L_i><L_i|

well defined.  In the unbroken phase G is a genuine metric: H is
pseudo-Hermitian, H = G^-1 H^dag G, the intertwiner g = sqrt(G) maps H to a
Hermitian isospectral partner h = g H g^-1, and <psi|G|psi> is conserved
under exp(-iHt).  In the broken phase the same construction yields a
positive G that is no longer a similarity to a Hermitian problem; h-tilde
stays non-Hermitian and G-norms grow.  ||G|| diverges as |delta - delta_c|
to the power -1/2 on both sides of the exceptional point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSamplesError,
    NonPositiveDataError,
    NotHermitianError,
    NotPositiveDefiniteError,
    WrongPhaseError,
    ZeroCouplingError,
)
from .model import (
    ModelParams,
    Phase,
    PhaseLabel,
    Spectrum,
    _finite,
    _root,
    _spectrum,
    build_block,
    critical_gamma,
)

__all__ = [
    "BiorthoSystem",
    "MetricBundle",
    "eigenvector_ratios",
    "eigensystem",
    "metric",
    "intertwiner",
    "projectors",
    "pseudo_hermiticity_residual",
    "metric_divergence_exponent",
    "sqrt_hpd",
    "loglog_slope",
]


@dataclass(frozen=True)
class BiorthoSystem:
    """Paired left/right eigenvectors of one block."""

    right_I: np.ndarray
    right_II: np.ndarray
    left_I: np.ndarray
    left_II: np.ndarray
    eigenvalues: Spectrum

    def pairs(self):
        return ((self.right_I, self.left_I), (self.right_II, self.left_II))


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

    Raises ZeroCouplingError at gamma = 0, where the block is decoupled,
    ExceptionalPointError inside the EP band, where the two ratios coalesce,
    and ValueError naming a ratio that is not finite.
    """
    if p.gamma == 0.0:
        raise ZeroCouplingError("eigenvector ratios are undefined at gamma = 0")
    ratios = _ratios(p, _root(p, _COALESCE)[1])
    for name, a in zip(("a_I", "a_II"), ratios):
        if not cmath.isfinite(a):
            raise ValueError(f"eigenvector ratio {name} = {a} is not finite at {p}")
    return ratios


def _coupled_ratios(p: ModelParams) -> tuple[complex, complex] | None:
    """eigenvector_ratios unchecked, for entropy: None in the EP band."""
    label, root = _root(p)
    return None if label.value is Phase.EXCEPTIONAL_POINT else _ratios(p, root)


def _ratios(p: ModelParams, root: complex) -> tuple[complex, complex]:
    b = p.omega - p.epsilon
    two_delta = 2.0 * math.sqrt(p.n + 1) * p.gamma
    if root.imag != 0.0:
        # broken phase: |b + root| = |b - root|, no cancellation either way
        return (b + root) / two_delta, (b - root) / two_delta
    if b >= 0.0:
        a_one = (b + root.real) / two_delta
        return a_one, 1.0 / a_one
    a_two = (b - root.real) / two_delta
    return 1.0 / a_two, a_two


def eigensystem(p: ModelParams) -> BiorthoSystem:
    """Biorthogonally normalized left/right eigenvector pairs of one block.

    Pairing follows the eigenvalues: the left partner of branch i is the
    eigenvector of H^dag with eigenvalue conj(R_i), which guarantees
    <L_i|R_j> = 0 off the diagonal.  The pairs are scaled to
    <L_i|R_i> = 1 with the symmetric convention ||L_i|| = ||R_i||; the
    relative phase lands on the right vector.

    Raises
    ------
    ExceptionalPointError
        Inside the tolerance band, where the block is defective.
    """
    return _system(p, _root(p, _COALESCE)[1])


def _system(p: ModelParams, root: complex) -> BiorthoSystem:
    eigenvalues = _spectrum(p, root)
    if p.gamma == 0.0:
        # decoupled block: the Hamiltonian is already diagonal
        e1 = np.array([1.0 + 0.0j, 0.0 + 0.0j])
        e2 = np.array([0.0 + 0.0j, 1.0 + 0.0j])
        if p.epsilon > p.omega:
            rights = [e1, e2]
        else:
            rights = [e2, e1]
        lefts = [v.copy() for v in rights]
        return BiorthoSystem(rights[0], rights[1], lefts[0], lefts[1], eigenvalues)

    rights, lefts = [], []
    for a in _ratios(p, root):
        # right (1, a) and left (1, -conj a); where |a| > 1 the same vectors
        # divided by a and -conj a, written with the reciprocal ratio w = 1/a,
        # so that their overlap 1 - w^2 cannot overflow as gamma -> 0
        # (|1 - a^2| = |a|^2 |1 - w^2|)
        if abs(a) > 1.0:
            w = 1.0 / a
            right = np.array([w, 1.0], dtype=complex)
            left = np.array([-np.conj(w), 1.0], dtype=complex)
        else:
            right = np.array([1.0, a], dtype=complex)
            left = np.array([1.0, -np.conj(a)], dtype=complex)
        c = complex(np.vdot(left, right))  # 1 - a^2 or 1 - w^2, never 0 off the EP
        scale = 1.0 / math.sqrt(abs(c))
        lefts.append(left * scale)
        rights.append(right * (c.conjugate() / abs(c)) * scale)
    return BiorthoSystem(rights[0], rights[1], lefts[0], lefts[1], eigenvalues)


def _metric_entries(b, t, d):
    """Entries (diag, off) of metric()'s G = [[diag, off], [off, diag]] from
    b, t and d = D outside the EP band, floats or arrays.  -sgn(b t) min(|b|, |t|)
    is -sgn(b) t where d > 0 and -sgn(t) b where d < 0, signed zeros included;
    |d| > 1e-10 max(b^2, t^2) keeps diag below 1e5."""
    root = np.sqrt(abs(d))
    small = np.minimum(abs(b), abs(t))
    return np.maximum(abs(b), abs(t)) / root, -np.copysign(small, b * t) / root


def _metric_norm(b, t, d):
    """||G||_F over _metric_entries; also the sweep's metric_norm column."""
    diag, off = _metric_entries(b, t, d)
    return np.sqrt(2.0 * (diag * diag + off * off))


def _metric_arguments(p: ModelParams, ep_message: str = _COALESCE):
    """(label, b, t, D) of one block; raises as _root(p, ep_message) does."""
    label = _root(p, ep_message)[0]
    return label, p.omega - p.epsilon, 2.0 * math.sqrt(p.n + 1) * p.gamma, label.discriminant


def _symmetric(diag, off) -> np.ndarray:
    return np.array([[diag, off], [off, diag]], dtype=complex)


def metric(p: ModelParams) -> np.ndarray:
    """Metric G = sum_i |L_i><L_i| of the biorthogonally normalized lefts.

    With b = omega - epsilon and t = 2 gamma sqrt(n+1), G is
    [[|b|, -sgn(b) t], [-sgn(b) t, |b|]] / sqrt(D) unbroken and
    [[|t|, -sgn(t) b], [-sgn(t) b, |t|]] / sqrt(-D) broken (Mostafazadeh,
    J. Math. Phys. 43, 205 (2002)): det G = 1, G = I at gamma = 0, and
    ||G|| diverges like |delta - delta_c|**-0.5 toward the EP.
    """
    _, *arguments = _metric_arguments(p)
    return _symmetric(*_metric_entries(*arguments))


def sqrt_hpd(m) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite 2x2 matrix.

    Closed form (M + s I) / sqrt(tr M + 2 s) with s = sqrt(det M) (Levinger,
    Math. Mag. 53, 222 (1980)).  Raises NotHermitianError /
    NotPositiveDefiniteError when the input fails the respective precondition.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2) or not np.isfinite(m).all():
        raise ValueError(f"expected a finite 2x2 matrix, got shape {m.shape}")
    scale = float(np.linalg.norm(m))
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(scale, 1.0):
        raise NotHermitianError("matrix is not Hermitian")
    a = m[0, 0].real
    d = m[1, 1].real
    b = 0.5 * (m[0, 1] + m[1, 0].conjugate())  # hermitize roundoff
    det = a * d - (b.real * b.real + b.imag * b.imag)
    if det <= 0.0 or a + d <= 0.0:
        raise NotPositiveDefiniteError(f"determinant {det} and trace {a + d} must be positive")
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
    label, b, t, d = _metric_arguments(p)
    diag, off = _metric_entries(b, t, d)
    scale = math.sqrt(2.0 * diag + 2.0)
    g_diag, g_off = (diag + 1.0) / scale, off / scale
    center = 0.5 * (2 * p.n + 1) * p.omega
    x = 0.5 * (diag * b + off * t)
    y = 0.5 * (off * b + diag * t)
    h = _finite(np.array([[center - x, y], [-y, center + x]], dtype=complex))
    return MetricBundle(
        _symmetric(diag, off), _symmetric(g_diag, g_off), _symmetric(g_diag, -g_off), h, label
    )


def projectors(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors rho_i = |R_i><L_i| / <L_i|R_i>.

    Trace one, idempotent, mutually annihilating, and complete; independent
    of how the eigenvector pairs are scaled.
    """
    system = eigensystem(p)
    out = []
    for right, left in system.pairs():
        c = complex(np.vdot(left, right))
        out.append(_finite(np.outer(right, left.conj()) / c))
    return out[0], out[1]


def pseudo_hermiticity_residual(p: ModelParams) -> float:
    """Frobenius norm of H - G^-1 H^dag G; ~1e-14 in the unbroken phase.

    Raises WrongPhaseError in the broken phase, where G intertwines H with
    the wrong sign structure and the residual is O(1) by construction.
    """
    label, *arguments = _metric_arguments(p, "metric is singular at the exceptional point")
    if label.value is Phase.BROKEN:
        raise WrongPhaseError("H is pseudo-Hermitian under G only in the unbroken phase")
    diag, off = _metric_entries(*arguments)
    h = build_block(p)
    # det G = 1, so G^-1 = adj(G)
    return float(np.linalg.norm(h - _symmetric(diag, -off) @ h.conj().T @ _symmetric(diag, off)))


# metric_divergence_exponent fits this many offsets |delta - delta_c|,
# spaced geometrically on this window
_EXPONENT_POINTS = 20
_EXPONENT_WINDOW = (1e-4, 1e-1)


def metric_divergence_exponent(p: ModelParams, side: str = "below") -> float:
    """Log-log slope of ||G||_F against |delta - delta_c| near the EP.

    Samples 20 geometrically spaced offsets in [1e-4, 1e-1] on the
    requested side of delta_c = |omega - epsilon| / 2 and fits an OLS slope;
    the divergence exponent is -1/2 on both sides.  Raises ValueError on
    either side when delta_c <= 1e-1: the 'below' window would reach or
    cross gamma = 0, and the 'above' window would reach 2 delta_c, past the
    range where ||G||_F follows the -1/2 power (at delta_c = 0, G = I and
    nothing diverges).
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
    sign = -1.0 if side == "below" else 1.0
    offsets = np.geomspace(*_EXPONENT_WINDOW, _EXPONENT_POINTS)
    blocks = [ModelParams(p.omega, p.epsilon, (delta_c + sign * x) / root_n1, p.n)
              for x in offsets.tolist()]
    # each block raises what metric() raises there; the norms take one array pass
    _, b, t, d = zip(*map(_metric_arguments, blocks))
    return loglog_slope(offsets, _metric_norm(np.array(b), np.array(t), np.array(d)))


def loglog_slope(xs, ys) -> float:
    """Ordinary least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 3:
        raise InsufficientSamplesError(f"need at least 3 samples, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0) or not (
        np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    ):
        raise NonPositiveDataError("log-log fit needs positive finite data")
    lx = np.log(xs)
    ly = np.log(ys)
    lx -= lx.mean()
    var = float(np.dot(lx, lx))
    if var == 0.0:
        raise InsufficientSamplesError("all x values coincide")
    return float(np.dot(lx, ly - ly.mean()) / var)
