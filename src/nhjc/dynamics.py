"""No-jump conditional evolution on one invariant subspace.

Between quantum jumps the conditional density matrix obeys

    d rho / dt = -i (Heff rho - rho Heff^dag),

and on a block the effective Hamiltonian is similar to

    Heff = shift * I + i Gamma sigma_y,      shift = (2n+1) omega / 2,

with Gamma = sqrt(-D)/2 real in the broken phase and Gamma = i Lambda,
Lambda = sqrt(D)/2, in the unbroken phase; both rates are |sqrt(D)| / 2 of
the one root that `model` forms per block.  The Pauli matrices act on the
two-dimensional invariant subspace {|n, up>, |n+1, down>}, so the Bloch
vector below is a coordinate on that subspace, not the lab-frame spin.

States are carried as rho = (weight/2)(I + r . sigma).  Broken phase:
rho(t) = S rho S with S = cosh(Gamma t) I + sinh(Gamma t) sigma_y, the trace
D(t) = cosh(2 Gamma t) + r_y sinh(2 Gamma t) grows and the normalized state
purifies toward the sigma_y = +1 eigenstate (r_y = -1 is the unstable fixed
point).  Unbroken phase: S = exp(i Lambda t sigma_y) is unitary, the weight
stays 1 and the (r_x, r_z) components rotate with period pi / Lambda.
A weight past the float range (2 Gamma t beyond about 710) raises
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _FLOAT_MAX, MAX_CELLS, ModelParams, Phase, _block, _center, _integral, _real, _unchecked,
)

__all__ = [
    "BlochState",
    "EffectiveGenerator",
    "effective_generator",
    "evolve_no_jump",
    "default_time_grid",
]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# numpy's one native float64 dtype: BlochState copies an array of it as it is
_FLOAT64 = np.dtype(float)
_MAX_LENGTH = 1.0 + 1e-9  # the longest Bloch vector that BlochState keeps: 1, to roundoff


def _length(x, y, z, sqrt=math.sqrt):
    """sqrt(x*x + y*y + z*z): Python floats, or arrays with np.sqrt, the same bits."""
    return sqrt(x * x + y * y + z * z)


def _components(r) -> tuple[float, float, float]:
    """The three components of a Bloch vector given as anything but a
    float64 array, as Python floats, each read by _real, so NaN where one is
    not finite; ValueError where r does not hold three numbers."""
    try:
        x, y, z = r
    except (TypeError, ValueError):  # not iterable, or not three items
        raise ValueError(f"Bloch vector must have 3 components, got {r!r}") from None
    components = _real(x), _real(y), _real(z)
    if None in components:
        raise ValueError(f"Bloch vector components must be real numbers, got {r!r}")
    return tuple(map(float, components))


def _check_state(x: float, y: float, z: float, weight, given) -> None:
    """BlochState's checks: ValueError unless the components, Python floats,
    are finite with _length <= _MAX_LENGTH, and weight, a number by _real
    (None where given is not one), is finite and >= 0."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("Bloch vector must be finite")
    length = _length(x, y, z)
    if length > _MAX_LENGTH:
        raise ValueError(f"Bloch vector length {length} exceeds 1")
    if weight is None or not 0.0 <= weight <= _FLOAT_MAX:
        raise ValueError(f"weight must be finite and non-negative, got {given}")


@dataclass(frozen=True)
class BlochState:
    """State rho = (weight/2)(I + r . sigma) on one invariant subspace.

    r is kept as a float64 array.  Given as anything but a float64 array,
    each component is read as ModelParams reads its energies, so a string,
    bool, None or complex component raises ValueError.
    """

    r: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        # the components as three Python floats: numpy's reductions cost
        # more than the checks
        r = self.r
        if type(r) is np.ndarray and r.dtype is _FLOAT64:
            if r.shape != (3,):
                raise ValueError(f"Bloch vector must have 3 components, got shape {r.shape}")
            x, y, z = r.tolist()
            r = r.copy()
        else:
            x, y, z = _components(r)
            r = np.array((x, y, z))
        weight = _real(self.weight)
        _check_state(x, y, z, weight, self.weight)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "weight", weight)

    def matrix(self) -> np.ndarray:
        """The 2x2 density matrix (Hermitian, trace = weight)."""
        rx, ry, rz = self.r
        return 0.5 * self.weight * (
            np.eye(2, dtype=complex) + rx * _SIGMA_X + ry * _SIGMA_Y + rz * _SIGMA_Z
        )


@dataclass(frozen=True)
class EffectiveGenerator:
    """Parameters of Heff = shift * I + i Gamma sigma_y on block n.

    rate is Gamma > 0 in the broken phase and Lambda >= 0 in the unbroken
    phase, where Gamma = i Lambda; Lambda = 0 only on a decoupled block
    with D = 0, the diabolic point omega == epsilon, gamma = 0.  Raises
    ValueError unless n is a block index (kept as an int), is_broken a bool
    or numpy.bool_ (kept as a bool), and rate >= 0 and shift are numbers as
    ModelParams reads its energies (kept as an int or float).
    """

    n: int
    rate: float
    shift: float
    is_broken: bool

    def __post_init__(self):
        n = _integral(self.n)
        if n is None or n < 0 or n + 1 > _FLOAT_MAX:
            raise ValueError(f"effective generator: n must be a non-negative integer, got {self.n!r}")
        if not isinstance(self.is_broken, (bool, np.bool_)):
            raise ValueError(f"effective generator: is_broken must be a bool, got {self.is_broken!r}")
        rate, shift = _real(self.rate), _real(self.shift)
        if rate is None or not rate >= 0.0:
            raise ValueError(
                f"effective generator: rate must be finite and >= 0, got {self.rate!r}"
            )
        if shift is None or math.isnan(shift):
            raise ValueError(f"effective generator: shift must be finite, got {self.shift!r}")
        kept = {"n": n, "rate": rate, "shift": shift, "is_broken": bool(self.is_broken)}
        for name, value in kept.items():
            object.__setattr__(self, name, value)

    def matrix(self) -> np.ndarray:
        """The 2x2 generator; isospectral to the Hamiltonian block."""
        big_gamma = self.rate if self.is_broken else 1j * self.rate
        return self.shift * np.eye(2, dtype=complex) + 1j * big_gamma * _SIGMA_Y


def effective_generator(p: ModelParams) -> EffectiveGenerator:
    """Effective no-jump generator of one block.

    Raises ExceptionalPointError inside the tolerance band, where the
    similarity to shift * I + i Gamma sigma_y breaks down, and ValueError
    where the shift overflows.
    """
    block = _block(p, "no-jump generator is defective at the exceptional point")
    # the fields EffectiveGenerator's checks would keep: p's int n, a finite
    # rate |sqrt(D)| / 2 >= 0, a finite float centre and a bool
    return _unchecked(EffectiveGenerator, {
        "n": p.n, "rate": 0.5 * abs(block.root), "shift": _center(p, block),
        "is_broken": block.label.value is Phase.BROKEN,
    })


def _broken_flow(ch, sh, rx, ry, rz):
    """Weight D and normalized Bloch vector after S = cosh I + sinh sigma_y,
    from ch = cosh(2 Gamma t) and sh = sinh(2 Gamma t), floats or arrays."""
    d = ch + ry * sh
    return d, rx / d, (sh + ry * ch) / d, rz / d


def _unbroken_rotation(ct, st, rx, ry, rz):
    """Bloch vector rotated in the (x, z) plane by the angle with cosine ct
    and sine st, floats or arrays."""
    return rx * ct - rz * st, ry, rx * st + rz * ct


def evolve_no_jump(gen: EffectiveGenerator, rho0: BlochState, t: float) -> BlochState:
    """Unnormalized conditional state at time t.

    Broken phase: weight picks up D(t) = cosh(2 Gamma t) + r_y sinh(2 Gamma t)
    and the Bloch vector flows toward (0, 1, 0).  Unbroken phase: weight is
    unchanged and (r_x, r_z) rotate by the angle 2 Lambda t.  Raises ValueError
    for a t that is not a number >= 0, when cosh(2 Gamma t) or the
    angle overflows, and when D cancels to 0 or below (r_y = -1 from 2 Gamma t
    of about 19), with BlochState's messages where the state is not one.
    The result is built from checked Python floats, without BlochState's
    type dispatch.
    """
    time = _real(t)
    if time is None or not time >= 0.0:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    angle = 2.0 * gen.rate * time
    if math.isinf(angle):
        raise ValueError(f"2 * rate * t overflows at rate {gen.rate} and t = {t}")
    rx, ry, rz = rho0.r.tolist()
    weight = rho0.weight
    if gen.is_broken:
        try:
            ch = math.cosh(angle)
            sh = math.sinh(angle)
        except OverflowError:
            raise ValueError(
                f"no-jump weight overflows: cosh(2 Gamma t) at 2 Gamma t = {angle}"
            ) from None
        # D >= exp(-2 Gamma t) = cosh - sinh > 0 for |r_y| <= 1, so a D that
        # reads <= 0 has cancelled at r_y = -1
        if not ch + ry * sh > 0.0:
            raise ValueError(f"no-jump weight cancels to 0 at r_y = -1, 2 Gamma t = {angle}")
        # Python floats: the bits of numpy's
        d, rx, ry, rz = _broken_flow(ch, sh, rx, ry, rz)
        weight *= d
    else:
        rx, ry, rz = _unbroken_rotation(math.cos(angle), math.sin(angle), rx, ry, rz)
    _check_state(rx, ry, rz, weight, weight)
    return _unchecked(BlochState, {"r": np.array((rx, ry, rz)), "weight": weight})


def default_time_grid(gen: EffectiveGenerator, points: int = 500) -> np.ndarray:
    """Uniform grid on [0, 5 / rate]; rate = Gamma or Lambda as appropriate.

    Raises ValueError unless the rate is positive with 5 / rate finite, and
    points is an integer of an integer type from 2 up to the sweep cap
    MAX_CELLS, checked before anything is allocated.  A decoupled block at
    omega == epsilon has rate 0: nothing evolves there, so no time scale.
    """
    if not (gen.rate > 0.0 and math.isfinite(5.0 / gen.rate)):  # an int or float rate
        raise ValueError(f"time grid: rate must be positive with 5 / rate finite, got {gen.rate!r}")
    count = _integral(points)
    if count is None or not 2 <= count <= MAX_CELLS or not hasattr(points, "__index__"):
        raise ValueError(
            f"time grid: points must be an integer >= 2 and <= {MAX_CELLS}, got {points!r}"
        )
    return np.linspace(0.0, 5.0 / gen.rate, count)
