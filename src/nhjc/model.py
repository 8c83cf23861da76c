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
exceptional point) unless gamma = 0.  Everything in this package works on
these blocks, where all quantities are available in closed form.

Each ModelParams keeps one private record of its block's scalars (`_Block`),
formed on first use; every scalar function reads them through `_block`.  A
D past the float range, an overflowing centre and the EP band's
ExceptionalPointError are never kept: they raise on every call.  The EP
band itself is `_in_band`, the one test that the record, the sweep
kernel and the metric exponent fit call.
"""

from __future__ import annotations

import math
import numbers
import operator
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


# The cap on the cells of one sweep, published as scan.MAX_CELLS:
# a SweepSpec refuses grids with more cells than this
# (len(n_list) * steps1 * steps2), and dynamics.default_time_grid more
# points, before anything is allocated
MAX_CELLS = 10**7

# -_FLOAT_MAX <= x <= _FLOAT_MAX: x is finite, tested exactly for an int of
# any size (where math.isfinite overflows) and false for NaN
_FLOAT_MAX = sys.float_info.max

# v -> v ** 2.0: the libm pow call behind the scalar code's `x ** 2`, which
# differs from x * x in the last bit for about 0.08% of inputs
_square = (2.0).__rpow__


def _real(x):
    """x by the package's one rule for a number: any numbers.Real but a bool,
    in the float range.  An int or float is returned as it is, any other
    real as float(x), so nothing is compared in a numpy type.  None where x
    is not a number; NaN where it is one that is not finite."""
    if type(x) is float or type(x) is int:  # ahead of the slower ABC checks
        return x if -_FLOAT_MAX <= x <= _FLOAT_MAX else math.nan
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return None
    try:
        x = float(x)
    except OverflowError:  # a Fraction or an int subclass past the float range
        return math.nan
    return x if math.isfinite(x) else math.nan


def _integral(n) -> int | None:
    """n as a Python int where it is a whole number by the same rule, else
    None: operator.index for integer types (of any size), an integral
    _real for the other reals.  The callers bound its size and sign."""
    if type(n) is int:  # ahead of the slower ABC checks
        return n
    if isinstance(n, numbers.Integral) and not isinstance(n, bool):
        return operator.index(n)
    x = _real(n)  # a float, NaN or None here
    return int(x) if x is not None and x.is_integer() and x == n else None


def _rechecked(self, state: dict) -> None:
    """__setstate__ of ModelParams, scan.Axis and scan.SweepSpec: an
    unpickled state, also one written before they were checked when built,
    passes the same checks and conversion as the constructor."""
    vars(self).update(state)
    self.__post_init__()


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
        Block index; the block spans |n, up> and |n+1, down>.  Stored as a
        Python int: 2.0 and np.int64(2) are kept as 2.  The energies are
        numbers by `_real`, kept as an int or float.
    """

    omega: float
    epsilon: float
    gamma: float
    n: int = 0

    def __post_init__(self):
        omega, epsilon, gamma, n = self.omega, self.epsilon, self.gamma, self.n
        if (type(omega) is float and type(epsilon) is float and type(gamma) is float
                and type(n) is int and -_FLOAT_MAX <= omega <= _FLOAT_MAX
                and -_FLOAT_MAX <= epsilon <= _FLOAT_MAX and -_FLOAT_MAX <= gamma <= _FLOAT_MAX
                and 0 <= n and n + 1 <= _FLOAT_MAX):
            return  # each field is already what the checks below would keep
        for name in ("omega", "epsilon", "gamma"):
            value = getattr(self, name)
            x = _real(value)
            if x is None or math.isnan(x):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, x)
        n = _integral(self.n)
        if n is None or n < 0 or n + 1 > _FLOAT_MAX:
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")
        object.__setattr__(self, "n", n)  # so n + 1 and 2n + 1 are exact at any size

    def __getstate__(self):
        # pickles and copies omit the record that `_block` derives from the fields
        return {name: value for name, value in self.__dict__.items() if name != _MEMO}

    __setstate__ = _rechecked


def _unchecked(cls, state: dict):
    """An instance of the frozen dataclass cls holding state, a field
    name -> value map, without running __init__ or __post_init__: for values
    that already are what cls's checks would keep."""
    obj = object.__new__(cls)
    obj.__dict__.update(state)
    return obj


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


# The attribute under which a ModelParams keeps its _Block.
_MEMO = "_block_memo"


class _Block:
    """Scalars of one block, kept on its ModelParams: label (D and its phase),
    b = omega - epsilon, t = 2 gamma sqrt(n+1) and root = sqrt(D) from the
    start; center, ratios and the metric's entries None until first formed."""

    __slots__ = ("label", "b", "t", "root", "center", "ratios", "entries")

    def __init__(self, label: PhaseLabel, b, t: float, root: complex):
        self.label, self.b, self.t, self.root = label, b, t, root
        self.center = self.ratios = self.entries = None


def _in_band(b2, c2, d, coupled, biggest=max):
    """Whether D = b2 - c2 of a coupled block is in the EP band,
    |D| <= 1e-10 max(b2, c2): floats with the builtin max, arrays with
    np.maximum.

    Relative, so it does not depend on the energy unit while a square is
    normal; floored at the smallest normal float, below which subnormal
    squares are too coarse to measure |D| against.  A decoupled block is
    never in the band: at omega == epsilon it is the diabolic point
    (n + 1/2) omega I, degenerate but diagonalizable.
    """
    return (abs(d) <= 1e-10 * biggest(biggest(b2, c2), sys.float_info.min)) & coupled


def _form_block(p: ModelParams) -> _Block:
    """The record of one block, from one evaluation of D.

    The squares (omega - epsilon)**2 and 4 gamma**2 (n+1) are formed once;
    D is their difference and `_in_band` decides the EP band; outside it the
    phase is Unbroken where D >= 0 (the diabolic point included), and the
    root is +i sqrt(|D|) where D < 0.  Raises ValueError when a square is
    not a finite float.
    """
    b = p.omega - p.epsilon
    try:
        b2 = b**2
        c2 = 4.0 * p.gamma**2 * (p.n + 1)
        finite = math.isfinite(b2) and math.isfinite(c2)
    except OverflowError:  # a float square, or an int square past the float range
        finite = False
    if not finite:
        raise ValueError(
            f"discriminant: (omega - epsilon)**2 - 4 gamma**2 (n+1) overflows at {p}"
        )
    d = b2 - c2
    if _in_band(b2, c2, d, p.gamma != 0.0):
        phase = Phase.EXCEPTIONAL_POINT
    else:
        phase = Phase.UNBROKEN if d >= 0.0 else Phase.BROKEN
    root = complex(math.sqrt(d), 0.0) if d >= 0.0 else complex(0.0, math.sqrt(-d))
    return _Block(PhaseLabel(phase, d), b, 2.0 * math.sqrt(p.n + 1) * p.gamma, root)


def _block(p: ModelParams, ep_message: str | None = None) -> _Block:
    """The record of one block, formed on first use and kept on p.

    A ValueError from `_form_block` keeps nothing, so it recurs on every call.
    Given ep_message, raises ExceptionalPointError(ep_message) inside the EP
    band on every call, with a `{d}` field filled by D.
    """
    # a plain attribute, not functools.cached_property, which before Python
    # 3.12 takes a lock on every miss and builds p.__dict__
    block = getattr(p, _MEMO, None)
    if block is None:
        block = _form_block(p)
        object.__setattr__(p, _MEMO, block)
    if ep_message is not None and block.label.value is Phase.EXCEPTIONAL_POINT:
        raise ExceptionalPointError(ep_message.format(d=block.label.discriminant))
    return block


def _center(p: ModelParams, block: _Block) -> float:
    """Spectral centre (2n+1) omega / 2, kept; ValueError on every call where it overflows."""
    center = block.center
    if center is None:
        try:
            center = 0.5 * (2 * p.n + 1) * p.omega
        except OverflowError:  # 2n + 1 past the float range
            center = math.inf
        if not math.isfinite(center):
            raise ValueError(f"spectral centre (2n+1) omega / 2 overflows at {p}")
        block.center = center
    return center


def spectrum_closed_form(p: ModelParams) -> Spectrum:
    """Closed-form block eigenvalues (2n+1) omega / 2 +- sqrt(D) / 2.

    Branch I is the '+' root.  In the broken phase the pair is exactly
    complex conjugate with Im(eigenvalue_I) > 0.
    """
    block = _block(p)
    center = _center(p, block)
    half_root = 0.5 * block.root
    return Spectrum(center + half_root, center - half_root)


def classify_phase(p: ModelParams) -> PhaseLabel:
    """Label the spectral phase, with a relative tolerance band at the EP."""
    return _block(p).label


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
