"""Invariant-subspace blocks of a non-Hermitian Jaynes-Cummings model.

The Hamiltonian

    H = (epsilon/2) sigma_z + omega a^dag a + gamma (sigma_+ a - sigma_- a^dag)

conserves the total excitation number, so apart from the decoupled ground
state |0, down> the Hilbert space splits into two-dimensional invariant
subspaces spanned by |n, up> and |n+1, down>.  On the (n+1)-th subspace the
Hamiltonian restricts to the 2x2 block

    H_{n+1} = [[epsilon/2 + n omega,       gamma sqrt(n+1)      ],
               [-gamma sqrt(n+1),  -epsilon/2 + (n+1) omega]]

whose spectrum is real for (omega - epsilon)^2 > 4 gamma^2 (n+1), a complex
conjugate pair for the opposite sign, and defective on the boundary (the
exceptional point).  Everything in this package works on these blocks, where
all quantities are available in closed form.

The discriminant D, its exceptional-point band, the phase and sqrt(D) are
formed once per ModelParams, on first use, and kept on it; every scalar
function reads them through `_root`.  A D past the float range is never
kept: it raises ValueError on every call.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ExceptionalPointError

__all__ = [
    "Branch",
    "Phase",
    "PhaseLabel",
    "ModelParams",
    "Spectrum",
    "build_block",
    "spectrum_closed_form",
    "classify_phase",
    "critical_gamma",
    "ground_state_energy",
]


class Branch(Enum):
    """Eigenvalue branch: I carries the '+' root, II the '-' root."""

    I = "I"
    II = "II"


class Phase(Enum):
    """Spectral phase of one block."""

    UNBROKEN = "Unbroken"
    BROKEN = "Broken"
    EXCEPTIONAL_POINT = "ExceptionalPoint"


# -_FLOAT_MAX <= x <= _FLOAT_MAX: x is finite, tested exactly for an int of
# any size (where math.isfinite overflows) and false for NaN
_FLOAT_MAX = sys.float_info.max


def _is_block_index(n) -> bool:
    """n is a whole, non-negative real number (not a bool)."""
    # type first, and finiteness before int(), which raises its own errors on
    # inf and nan; an int is whole at any size
    return (
        not isinstance(n, bool)
        and isinstance(n, numbers.Real)
        and (isinstance(n, int) or -_FLOAT_MAX <= n <= _FLOAT_MAX and n == int(n))
        and n >= 0
    )


def _successor_is_exact(n) -> bool:
    """n + 1, which the closed forms take, is exact in n's own type and within
    the float range, for a block index n."""
    if isinstance(n, int):
        return n + 1 <= _FLOAT_MAX
    if isinstance(n, np.integer):  # compared with the maximum, where n + 1 would wrap
        return n < np.iinfo(n.dtype).max
    return n + 1 <= _FLOAT_MAX and int(n + 1) == int(n) + 1


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one invariant subspace.

    Parameters
    ----------
    omega : float
        Oscillator frequency (hbar = 1).
    epsilon : float
        Two-level splitting.
    gamma : float
        Spin-oscillator coupling.  Negative values are allowed; every
        phase-related quantity depends on gamma**2 only.
    n : int
        Block index; the block spans |n, up> and |n+1, down>.
    """

    omega: float
    epsilon: float
    gamma: float
    n: int = 0

    def __post_init__(self):
        for name in ("omega", "epsilon", "gamma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not (_is_block_index(self.n) and _successor_is_exact(self.n)):
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")

    def __getstate__(self):
        # the memo that `_root` keeps is derived from the fields: pickles and
        # copies omit it
        return {name: value for name, value in self.__dict__.items() if name != _MEMO}


def _finite(m: np.ndarray) -> np.ndarray:
    """m itself; ValueError if an entry overflowed to inf or nan."""
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue pair of one block."""

    eigenvalue_I: complex
    eigenvalue_II: complex


@dataclass(frozen=True)
class PhaseLabel:
    """Phase classification together with the discriminant that produced it."""

    value: Phase
    discriminant: float


def build_block(p: ModelParams) -> np.ndarray:
    """Hamiltonian block on the (n+1)-th invariant subspace, a complex 2x2 array."""
    d = math.sqrt(p.n + 1) * p.gamma
    m = np.array(
        [
            [0.5 * p.epsilon + p.n * p.omega, d],
            [-d, -0.5 * p.epsilon + (p.n + 1) * p.omega],
        ],
        dtype=complex,
    )
    return _finite(m)


# The attribute under which a ModelParams keeps its (PhaseLabel, root).
_MEMO = "_root_memo"


def _form_root(p: ModelParams) -> tuple[PhaseLabel, complex]:
    """Phase label and sqrt(D) of one block, from one evaluation of D.

    The squares (omega - epsilon)**2 and 4 gamma**2 (n+1) are formed once;
    D is their difference and the EP band is |D| <= 1e-10 times the largest
    of 1 and either square.  The root is +i sqrt(|D|) on the broken side.
    Raises ValueError when a square is not a finite float.
    """
    try:
        b2 = (p.omega - p.epsilon) ** 2
        c2 = 4.0 * p.gamma**2 * (p.n + 1)
        finite = math.isfinite(b2) and math.isfinite(c2)
    except OverflowError:  # a float square, or an int square past the float range
        finite = False
    if not finite:
        raise ValueError(
            f"discriminant: (omega - epsilon)**2 - 4 gamma**2 (n+1) overflows at {p}"
        )
    d = b2 - c2
    if abs(d) <= 1e-10 * max(1.0, b2, c2):
        phase = Phase.EXCEPTIONAL_POINT
    else:
        phase = Phase.UNBROKEN if d > 0.0 else Phase.BROKEN
    root = complex(math.sqrt(d), 0.0) if d >= 0.0 else complex(0.0, math.sqrt(-d))
    return PhaseLabel(phase, d), root


def _root(p: ModelParams, ep_message: str | None = None) -> tuple[PhaseLabel, complex]:
    """Phase label and sqrt(D) of one block, formed on first use and kept on p.

    A ValueError from `_form_root` keeps nothing, so it recurs on every call.
    Given ep_message, raises ExceptionalPointError(ep_message) inside the EP
    band on every call, with a `{d}` field filled by D.
    """
    # a plain attribute, not functools.cached_property, which before Python
    # 3.12 takes a lock on every miss and builds p.__dict__: the exponent
    # fit's offset blocks are each used once
    memo = getattr(p, _MEMO, None)
    if memo is None:
        memo = _form_root(p)
        object.__setattr__(p, _MEMO, memo)
    if ep_message is not None and memo[0].value is Phase.EXCEPTIONAL_POINT:
        raise ExceptionalPointError(ep_message.format(d=memo[0].discriminant))
    return memo


def _center(p: ModelParams) -> float:
    """Spectral centre (2n+1) omega / 2 of a block; ValueError where it overflows."""
    try:
        center = 0.5 * (2 * p.n + 1) * p.omega
    except OverflowError:  # 2n + 1 past the float range
        center = math.inf
    if not math.isfinite(center):
        raise ValueError(f"spectral centre (2n+1) omega / 2 overflows at {p}")
    return center


def _spectrum(p: ModelParams, root: complex) -> Spectrum:
    center = _center(p)
    half_root = 0.5 * root
    return Spectrum(center + half_root, center - half_root)


def spectrum_closed_form(p: ModelParams) -> Spectrum:
    """Closed-form block eigenvalues (2n+1) omega / 2 +- sqrt(D) / 2.

    Branch I is the '+' root.  In the broken phase the pair is exactly
    complex conjugate with Im(eigenvalue_I) > 0.
    """
    return _spectrum(p, _root(p)[1])


def classify_phase(p: ModelParams) -> PhaseLabel:
    """Label the spectral phase, with a relative tolerance band at the EP."""
    return _root(p)[0]


def critical_gamma(p: ModelParams) -> float:
    """Coupling magnitude at which this block hits its exceptional point.

    Depends on (omega, epsilon, n) only; p.gamma is ignored.  Raises
    ValueError where |omega - epsilon| overflows.
    """
    b = abs(p.omega - p.epsilon)
    if math.isinf(b):
        raise ValueError(f"critical_gamma: |omega - epsilon| overflows at {p}")
    return b / (2.0 * math.sqrt(p.n + 1))


def ground_state_energy(p: ModelParams) -> float:
    """Energy -epsilon/2 of the decoupled global ground state |0, down>."""
    return -0.5 * p.epsilon
