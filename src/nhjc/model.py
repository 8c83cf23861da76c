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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Branch",
    "Phase",
    "PhaseLabel",
    "ModelParams",
    "Spectrum",
    "build_block",
    "sqrt_discriminant",
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


def _is_block_index(n) -> bool:
    """n is a whole, non-negative real number (not a bool)."""
    # type and finiteness first: int() raises its own errors on inf, nan and strings
    return (
        not isinstance(n, bool)
        and isinstance(n, numbers.Real)
        and math.isfinite(n)
        and n == int(n)
        and n >= 0
    )


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
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not _is_block_index(self.n):
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")

    @property
    def delta(self) -> float:
        """Effective coupling delta_{n+1} = sqrt(n+1) * gamma."""
        return math.sqrt(self.n + 1) * self.gamma

    @property
    def discriminant(self) -> float:
        """(omega - epsilon)**2 - 4 gamma**2 (n+1); its sign selects the phase."""
        return (self.omega - self.epsilon) ** 2 - 4.0 * self.gamma**2 * (self.n + 1)

    @property
    def ep_tolerance(self) -> float:
        """Half-width of the relative tolerance band around the exceptional point."""
        return 1e-10 * max(
            1.0, (self.omega - self.epsilon) ** 2, 4.0 * self.gamma**2 * (self.n + 1)
        )


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

    def branch(self, which: Branch) -> complex:
        return self.eigenvalue_I if which is Branch.I else self.eigenvalue_II


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


def sqrt_discriminant(p: ModelParams) -> complex:
    """Square root of the discriminant, +i sqrt(|D|) on the broken side."""
    d = p.discriminant
    if d >= 0.0:
        return complex(math.sqrt(d), 0.0)
    return complex(0.0, math.sqrt(-d))


def spectrum_closed_form(p: ModelParams) -> Spectrum:
    """Closed-form block eigenvalues (2n+1) omega / 2 +- sqrt(D) / 2.

    Branch I is the '+' root.  In the broken phase the pair is exactly
    complex conjugate with Im(eigenvalue_I) > 0.
    """
    center = 0.5 * (2 * p.n + 1) * p.omega
    half_root = 0.5 * sqrt_discriminant(p)
    return Spectrum(center + half_root, center - half_root)


def classify_phase(p: ModelParams) -> PhaseLabel:
    """Label the spectral phase, with a relative tolerance band at the EP."""
    d = p.discriminant
    if abs(d) <= p.ep_tolerance:
        return PhaseLabel(Phase.EXCEPTIONAL_POINT, d)
    return PhaseLabel(Phase.UNBROKEN if d > 0.0 else Phase.BROKEN, d)


def critical_gamma(p: ModelParams) -> float:
    """Coupling magnitude at which this block hits its exceptional point.

    Depends on (omega, epsilon, n) only; p.gamma is ignored.
    """
    return abs(p.omega - p.epsilon) / (2.0 * math.sqrt(p.n + 1))


def ground_state_energy(p: ModelParams) -> float:
    """Energy -epsilon/2 of the decoupled global ground state |0, down>."""
    return -0.5 * p.epsilon
