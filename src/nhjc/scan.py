"""Parameter sweeps over the phase diagram and their CSV/JSON exports.

A sweep walks one or two axes (gamma, epsilon, omega, delta, delta_sq, or
time t), classifies the phase at every grid point and evaluates the
requested quantities.  Cells inside the exceptional-point band keep their
label and eigenvalues but omit the quantities that need eigenvectors or a
diagonalizable generator (metric norm, survival, Bloch components); the
entropy limit ln 2 is still reported there.

Every quantity is a closed form of the cell's own parameters, so a sweep is
evaluated column by column: one numpy pass over the grid tiled over the
block indices.  The entropy, the metric norm and the no-jump flow and
rotation are written once, in + - * / and sqrt, by entropy, biortho and
dynamics; the kernel passes them columns and its libm functions, which it
calls once per distinct value of a column (_elementwise), since grids
repeat their axis values.  _base forms the phase and spectrum, and one
function per quantity its columns from them (_EXTRAS).  The phase,
spectrum and ratios stay twins of model and biortho, for the reasons
_base, _entropy and _metric list.  The scalar functions remain the
per-point reference; the columns match them bit for bit.

A sweep result is a SweepTable: the axis coordinates, n, phase,
discriminant, both eigenvalues and each extra quantity as arrays, with a
mask per extra for the cells that omit it.  Indexing it yields PhaseCell,
built only then, and iterating it indexes each row.  run_sweep, read_csv
and read_json return it, and the exporters and plots.render_svg accept
nothing else: they read its columns.  Axis and SweepSpec check their fields
when built, and a SweepSpec refuses grids of more than MAX_CELLS cells
before anything is allocated.

Exports are deterministic: fixed row order (block index outermost, then
axis2-major, then axis1), fixed column order, floats printed with 17
significant digits so CSV and JSON round-trip byte-for-byte.  CSV is plain
comma-separated text that never needs quoting, and read_csv accepts that
dialect only: a quoted field is an error.  Both writers work column by
column and spell each distinct value of a column once, since grids repeat
axis values and the spectrum repeats its real parts, in one call per
column: CSV spells a float v as "%.17g" % v, through float.__format__(v,
".17g"), the same correctly rounded conversion; JSON as json.dumps(v).
Where eigenvalue_II_im is 0.0 - eigenvalue_I_im bit for bit, as in every
sweep and every file read back from one, its text comes from
eigenvalue_I_im's: a leading "-" dropped, the text of +0.0 and NaN kept,
"-" put before any other.  export_csv joins each chunk of rows in one
call, and export_json writes each cell as one join of the fields it holds,
giving the text json.dump(indent=2, sort_keys=True) gives.  _float_columns
and its inverse _table are the one map between a table and its named float
columns, for the writers, the readers and plots.

read_csv parses the body in one np.loadtxt call, the phase as a
fixed-width text field, and counts no fields itself when that call
succeeds.  Where the text is not plain ASCII or holds a NUL, numpy rejects
a line or a value or skips a blank line, or a phase name or an n is bad, it
counts the fields of each line and falls back to the per-value path that
read_json shares: float() and int() on each value, so every file reads as
it would value by value and a bad line or value is named with its line.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import warnings
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .biortho import _metric_norm
from .dynamics import _MAX_LENGTH, _broken_flow, _length, _unbroken_rotation
from .entropy import (
    _NEAR_PRODUCT,
    _binary_entropy,
    _near_product_entropy,
    _reduced_pair,
    _square_or_inf,
)
from .errors import EmptySweepError, SpecValidationError, SweepFileError
from .model import (
    MAX_CELLS, ModelParams, Phase, Spectrum, _in_band, _integral, _real, _rechecked, _square,
)

__all__ = [
    "AXIS_NAMES",
    "QUANTITIES",
    "Axis",
    "SweepSpec",
    "PhaseCell",
    "SweepTable",
    "MAX_CELLS",
    "run_sweep",
    "export_csv",
    "export_json",
    "read_csv",
    "read_json",
    "spec_to_dict",
    "spec_from_dict",
]

AXIS_NAMES = ("gamma", "epsilon", "omega", "delta", "delta_sq", "t")
QUANTITIES = ("eigenvalues", "phase", "metric_norm", "entropy", "survival", "bloch")

# export_csv joins and writes this many rows at a time, so the text of a
# large sweep is never held in memory at once
_CSV_CHUNK_ROWS = 512

_BASE_COLUMNS = (
    "n",
    "phase",
    "discriminant",
    "eigenvalue_I_re",
    "eigenvalue_I_im",
    "eigenvalue_II_re",
    "eigenvalue_II_im",
)


def _sequence(value, key: str) -> tuple:
    """tuple(value); SpecValidationError naming key where value is not
    iterable, or is a str or bytes, which tuple() would split into characters."""
    with contextlib.suppress(TypeError):
        if not isinstance(value, (str, bytes)):
            return tuple(value)
    raise SpecValidationError(f"{key}: expected a list, got {type(value).__name__}")


@dataclass(frozen=True)
class Axis:
    """One sweep axis: `steps` points spaced uniformly on [min, max].

    Checked when built: a name of AXIS_NAMES, finite bounds kept as
    model._real reads them with min < max (min not negative on a delta_sq
    or t axis), and steps a whole number in [2, MAX_CELLS] kept as an int.
    The messages of its SpecValidationError cannot name axis1 or axis2.
    """

    name: str
    min: float
    max: float
    steps: int

    def __post_init__(self):
        problems = [] if self.name in AXIS_NAMES else [f"name: {self.name!r} not in {AXIS_NAMES}"]
        lo, hi = _real(self.min), _real(self.max)
        for end, value, x in (("min", self.min, lo), ("max", self.max, hi)):
            if x is None:
                problems.append(f"{end}: expected a real number, got {value!r}")
        if lo is not None and hi is not None:
            if math.isnan(lo) or math.isnan(hi):
                problems.append("min/max must be finite")
            elif not lo < hi:
                problems.append(f"min {lo} must be < max {hi}")
            if self.name in ("delta_sq", "t") and lo < 0.0:
                problems.append(f"{self.name} must be non-negative")
        steps = _integral(self.steps)
        if steps is None:
            problems.append(f"steps: expected an integer, got {self.steps!r}")
        elif steps < 2:
            problems.append(f"steps: need at least 2, got {steps}")
        elif steps > MAX_CELLS:
            problems.append(f"steps: {steps} points exceed the cap of {MAX_CELLS}")
        if problems:
            raise SpecValidationError("; ".join(problems))
        vars(self).update(min=lo, max=hi, steps=steps)

    __setstate__ = _rechecked

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a sweep.

    fixed supplies the parameters not overridden by an axis; n_list (default
    just fixed.n) runs the sweep per block index; initial_bloch seeds the
    dynamics quantities when a t axis is present, and its length is held to
    dynamics.BlochState's rule.

    Checked when built, with one SpecValidationError listing every problem.
    Besides the per-field checks, the grid may hold at most MAX_CELLS cells
    (len(n_list) * axis1.steps * axis2.steps), so an oversized sweep is
    refused before anything is allocated.  The sequences are kept as
    tuples, n_list as ints and initial_bloch as model._real reads it.
    """

    fixed: ModelParams
    axis1: Axis
    axis2: Axis | None = None
    quantities: tuple[str, ...] = ("phase",)
    n_list: tuple[int, ...] = ()
    initial_bloch: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        problems = []
        quantities = _sequence(self.quantities, "quantities")
        raw_n = _sequence(self.n_list, "n_list")
        n_list = tuple(map(_integral, raw_n))
        r = tuple(map(_real, _sequence(self.initial_bloch, "initial_bloch")))
        cells = max(1, len(n_list))
        names = []
        for label, axis in (("axis1", self.axis1), ("axis2", self.axis2)):
            if isinstance(axis, Axis):
                names.append(axis.name)
                cells *= axis.steps
            elif axis is not None or label == "axis1":
                problems.append(f"{label}: expected an Axis, got {type(axis).__name__}")
        if len(names) == 2 and names[0] == names[1]:
            problems.append("axis2.name: must differ from axis1.name")
        if not quantities:
            problems.append("quantities: must not be empty")
        unknown = [q for q in quantities if q not in QUANTITIES]
        if unknown:
            problems.append(f"quantities: unknown {unknown}, allowed {QUANTITIES}")
        if ("survival" in quantities or "bloch" in quantities) and "t" not in names:
            problems.append("quantities: survival/bloch require a 't' axis")
        # a block index must fit the table's int64 n column
        for raw, n in zip(raw_n, n_list):
            if n is None or n < 0:
                problems.append(f"n_list: entries must be non-negative integers, got {raw!r}")
            elif n >= 2**63:
                problems.append(f"n_list: block indices must be below 2**63, got {n}")
        if not isinstance(self.fixed, ModelParams):
            problems.append(f"fixed: expected a ModelParams, got {type(self.fixed).__name__}")
        elif not n_list and self.fixed.n >= 2**63:
            problems.append(f"fixed.n: block indices must be below 2**63, got {self.fixed.n}")
        if cells > MAX_CELLS:
            problems.append(f"grid: {cells} cells exceed the cap of {MAX_CELLS}")
        if len(r) != 3 or any(x is None or math.isnan(x) for x in r):
            problems.append("initial_bloch: need 3 finite components")
        elif _length(*map(float, r)) > _MAX_LENGTH:  # BlochState's rule, on the sweep's floats
            problems.append("initial_bloch: length must not exceed 1")
        if problems:
            raise SpecValidationError("; ".join(problems))
        vars(self).update(quantities=quantities, n_list=n_list, initial_bloch=r)

    __setstate__ = _rechecked


@dataclass(frozen=True)
class PhaseCell:
    """One evaluated grid point."""

    coords: tuple[float, ...]
    axis_names: tuple[str, ...]
    n: int
    phase: Phase
    discriminant: float
    eigenvalues: Spectrum
    extras: dict[str, float] = field(default_factory=dict)


_PHASES = tuple(Phase)  # the phase code of a table indexes this
_PHASE_NAMES = tuple(p.value for p in _PHASES)
_PHASE_CODE = {name: k for k, name in enumerate(_PHASE_NAMES)}


def _complex(re, im) -> np.ndarray:
    # re + 1j * im would turn a -0.0 real part into 0.0
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


class SweepTable:
    """A sweep result held as columns; indexing and iteration yield PhaseCell.

    Columns, one entry per cell in row order: `coords` (one float array per
    name in `axis_names`), `n`, `phase` (codes indexing `tuple(Phase)`:
    0 unbroken, 1 broken, 2 exceptional point), `discriminant`,
    `eigenvalue_I` and `eigenvalue_II` (complex).  `extras` maps each extra
    quantity to a float array and `omitted` maps the same keys to bool
    arrays marking the cells that omit the value, so an omitted value stays
    distinct from a stored NaN; a key every cell omits is dropped.

    `len(t)` counts the cells, `t[i]` (an integer, negative from the end)
    builds the PhaseCell of a row only when asked, iteration indexes each
    row in turn, and two tables are `==` when they hold the same cells.
    """

    __slots__ = (
        "axis_names", "coords", "n", "phase", "discriminant",
        "eigenvalue_I", "eigenvalue_II", "extras", "omitted",
    )

    def __init__(self, axis_names, coords, n, phase, discriminant,
                 eigenvalue_I, eigenvalue_II, extras, omitted):
        self.axis_names = tuple(axis_names)
        self.coords = tuple(np.asarray(c, dtype=float) for c in coords)
        self.n = np.asarray(n, dtype=np.int64)
        self.phase = np.asarray(phase, dtype=np.int8)
        self.discriminant = np.asarray(discriminant, dtype=float)
        self.eigenvalue_I = np.asarray(eigenvalue_I, dtype=complex)
        self.eigenvalue_II = np.asarray(eigenvalue_II, dtype=complex)
        masks = {k: np.asarray(m, dtype=bool) for k, m in omitted.items()}
        kept = [k for k in extras if not masks[k].all()]
        self.extras = {k: np.asarray(extras[k], dtype=float) for k in kept}
        self.omitted = {k: masks[k] for k in kept}

    def __len__(self) -> int:
        return self.n.size

    def __repr__(self) -> str:
        return f"<SweepTable: {len(self)} cells over {self.axis_names}>"

    def _arrays(self):
        return (*self.coords, self.n, self.phase, self.discriminant,
                self.eigenvalue_I, self.eigenvalue_II)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, index):
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("SweepTable index out of range")
        return PhaseCell(
            tuple(c.item(i) for c in self.coords), self.axis_names, self.n.item(i),
            _PHASES[self.phase.item(i)], self.discriminant.item(i),
            Spectrum(self.eigenvalue_I.item(i), self.eigenvalue_II.item(i)),
            {k: v.item(i) for k, v in self.extras.items() if not self.omitted[k].item(i)},
        )

    def __eq__(self, other):
        if not isinstance(other, SweepTable):
            return NotImplemented
        if self is other or len(self) == len(other) == 0:
            return True
        return (
            len(self) == len(other)
            and self.axis_names == other.axis_names
            and self.extras.keys() == other.extras.keys()
            and all(map(np.array_equal, self._arrays(), other._arrays()))
            and all(
                np.array_equal(m, other.omitted[k])
                and np.array_equal(self.extras[k][~m], other.extras[k][~m])
                for k, m in self.omitted.items()
            )
        )


def _float_columns(table: SweepTable) -> dict[str, np.ndarray]:
    """The float columns of a table by file column name: the axes,
    discriminant, the eigenvalue parts and the extras."""
    return {
        **dict(zip(table.axis_names, table.coords)),
        "discriminant": table.discriminant,
        "eigenvalue_I_re": table.eigenvalue_I.real,
        "eigenvalue_I_im": table.eigenvalue_I.imag,
        "eigenvalue_II_re": table.eigenvalue_II.real,
        "eigenvalue_II_im": table.eigenvalue_II.imag,
        **table.extras,
    }


def _table(axis_names, floats, n, code, omitted) -> SweepTable:
    """Inverse of _float_columns, given n, the phase codes and each extra's omitted mask."""
    return SweepTable(
        axis_names, [floats[a] for a in axis_names], n, code, floats["discriminant"],
        _complex(floats["eigenvalue_I_re"], floats["eigenvalue_I_im"]),
        _complex(floats["eigenvalue_II_re"], floats["eigenvalue_II_im"]),
        {k: floats[k] for k in omitted}, omitted,
    )


def _levels(column: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of an 8-byte numeric column and the index of each
    entry's value among them.  Values are told apart by their bits, so 0.0
    and -0.0, which spell differently, stay distinct."""
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    return bits.view(column.dtype).tolist(), index


def _elementwise(fn, x: np.ndarray, quantity: str, what: str) -> np.ndarray:
    """fn over every entry of a float column through Python floats, raising
    SpecValidationError on overflow.

    Used for `** 2`, log, log1p, cosh and sinh: numpy's versions differ from
    the libm calls of the scalar functions in the last bit for some inputs.
    fn is called once per distinct value of _levels, since grids repeat
    their axis values, so the result is what fn gives entry by entry, -0.0
    and NaN payloads included.
    """
    distinct, index = _levels(x)
    try:
        values = np.fromiter(map(fn, distinct), dtype=float, count=len(distinct))
    except OverflowError:
        raise SpecValidationError(f"{quantity}: {what} overflows on this grid") from None
    return values[index]


def _base(spec: SweepSpec, n: np.ndarray, grid: list[tuple[str, np.ndarray]]):
    """D, its EP band, the phase codes and the spectrum over the whole grid.

    n is each cell's block index.  Returns the discriminant and eigenvalue
    parts by file column name, and by name the arrays that the functions of
    _EXTRAS read.  These stay twins of model's code, each for its reason:

    - the discriminant squares: the builtin `_square` maps about 13% faster
      than a Python function, and the error names the square that overflowed;
    - the spectral centre: one expression;
    - phase and eigenvalue assembly: model builds Phase and complex, this
      builds int8 codes and re/im parts that keep -0.0.
    """
    params = {
        name: np.full(n.size, float(getattr(spec.fixed, name)))
        for name in ("omega", "epsilon", "gamma")
    }
    sqrt_n1 = np.sqrt(n + 1)
    t = None
    for name, values in grid:  # a later axis wins, as in the scalar path
        if name == "delta":
            params["gamma"] = values / sqrt_n1
        elif name == "delta_sq":
            params["gamma"] = np.sqrt(values / (n + 1))
        elif name == "t":
            t = values
        else:
            params[name] = values
    omega, gamma = params["omega"], params["gamma"]
    b = omega - params["epsilon"]

    # model._form_block: D, its EP band and classify_phase
    b2 = _elementwise(_square, b, "discriminant", "(omega - epsilon)**2")
    c2 = 4.0 * _elementwise(_square, gamma, "discriminant", "gamma**2") * (n + 1)
    d = b2 - c2
    if not np.isfinite(d).all():
        raise SpecValidationError("discriminant: 4 gamma**2 (n+1) overflows on this grid")
    coupled = gamma != 0.0
    at_ep = _in_band(b2, c2, d, coupled, np.maximum)
    code = np.where(at_ep, 2, np.where(d >= 0.0, 0, 1))

    # spectrum_closed_form: center +- sqrt(D) / 2
    root = np.sqrt(np.abs(d))
    real_root = d >= 0.0
    half = 0.5 * root
    half_re = np.where(real_root, half, 0.0)
    half_im = np.where(real_root, 0.0, half)
    center = 0.5 * (2 * n + 1) * omega
    if not np.isfinite(center).all():
        raise SpecValidationError(
            "eigenvalues: spectral centre (2n+1) omega / 2 overflows on this grid"
        )
    floats = {
        "discriminant": d,
        "eigenvalue_I_re": center + half_re, "eigenvalue_I_im": 0.0 + half_im,
        "eigenvalue_II_re": center - half_re, "eigenvalue_II_im": 0.0 - half_im,
    }
    coupling = 2.0 * sqrt_n1 * gamma
    return floats, dict(b=b, d=d, root=root, real_root=real_root, half=half, t=t,
                        coupling=coupling, coupled=coupled, at_ep=at_ep, code=code)


def _entropy(spec, keys, b, root, coupling, real_root, coupled, at_ep, **_) -> dict:
    """entropy_I and entropy_II, ln 2 in the EP band, with libm log and log1p
    once per distinct value.  Twins of biortho and entropy, each for its reason:

    - ratio selection: biortho gives complex ratios, this needs moduli;
    - the near-product entropy switch: entropy branches per value, this masks.
    """
    def log(x):
        return _elementwise(math.log, x, "entropy", "log")

    def log1p(x):
        return _elementwise(math.log1p, x, "entropy", "log1p")

    # biortho.eigenvector_ratios: real ratios with product 1 where the root is
    # real, (b +- i root) / coupling where it is imaginary, modulus 1 at the EP
    lead = np.where(b >= 0.0, b + root, b - root) / coupling
    other = 1.0 / lead
    modulus = np.hypot(b / coupling, root / coupling)
    columns = {}
    for key, leads in zip(keys, (b >= 0.0, b < 0.0)):
        a_abs = np.where(real_root, np.abs(np.where(leads, lead, other)), modulus)
        a_abs = np.where(coupled, np.where(at_ep, 1.0, a_abs), 0.0)
        a2 = _elementwise(_square_or_inf, a_abs, "entropy", "|alpha|**2")
        live = (a2 != 0.0) & ~np.isinf(a2)  # else the product state: entropy 0
        lam, comp = _reduced_pair(a2[live])
        small = np.minimum(lam, comp)
        near = small < _NEAR_PRODUCT
        values = _binary_entropy(lam, comp, log)
        values[near] = _near_product_entropy(small[near], log, log1p)
        columns[key] = np.zeros(at_ep.size)
        columns[key][live] = values
    return columns


def _metric(spec, keys, b, d, coupling, coupled, at_ep, **_) -> dict:
    """metric_norm, NaN in the EP band.  A twin of biortho for one reason:

    - G = I at gamma = 0: biortho keeps its entries, this needs only the norm sqrt(2).
    """
    norm = np.where(coupled, _metric_norm(b, coupling, d), math.sqrt(2.0))
    return {keys[0]: np.where(at_ep, math.nan, norm)}


def _no_jump(spec, keys, half, t, code, at_ep, **_) -> dict:
    """survival and the Bloch components, NaN in the EP band: evolve_no_jump
    from effective_generator, cosh/sinh of 2 Gamma t on the broken side (libm,
    once per distinct value), a rotation by 2 Lambda t on the unbroken side."""
    r0 = [float(r) for r in spec.initial_bloch]
    angle = 2.0 * half * t
    # evolve_no_jump's tests in its order, on the same bits: 2 Gamma t,
    # cosh and sinh, then D = cosh + r_y sinh, which cancels at r_y = -1
    if np.isinf(angle[~at_ep]).any():
        raise SpecValidationError("survival/bloch: 2 Gamma t overflows on this grid")
    broken, unbroken = code == 1, code == 0
    ch = _elementwise(math.cosh, angle[broken], "survival/bloch", "cosh(2 Gamma t)")
    sh = _elementwise(math.sinh, angle[broken], "survival/bloch", "sinh(2 Gamma t)")
    on_broken = _broken_flow(ch, sh, *r0)
    if not (on_broken[0] > 0.0).all():
        raise SpecValidationError(
            "survival/bloch: no-jump weight cancels to 0 at r_y = -1 on this grid"
        )
    turn = angle[unbroken]
    on_unbroken = (1.0, *_unbroken_rotation(np.cos(turn), np.sin(turn), *r0))
    columns = {}
    for key, flowed, turned in zip(keys, on_broken, on_unbroken):
        columns[key] = np.full(at_ep.size, math.nan)
        columns[key][broken] = flowed
        columns[key][unbroken] = turned
        if not np.isfinite(columns[key][~at_ep]).all():
            raise SpecValidationError(f"survival/bloch: {key} not finite on this grid")
    # 1 - |r|**2 scales by 1 / D**2: a start just past length 1 can end past the bound
    x, y, z = (columns[k][~at_ep] for k in keys[1:])
    if (_length(x, y, z, np.sqrt) > _MAX_LENGTH).any():
        raise SpecValidationError("survival/bloch: Bloch vector length exceeds 1 on this grid")
    return columns


# Each extra quantity: its columns, in the order a cell's extras list them,
# whether exceptional-point cells keep them (the ln 2 limit), and the function
# that forms them from _base.  The functions run in this order, each at most
# once and given the columns of every quantity it serves, so survival and bloch
# share one _no_jump call.
_EXTRAS = {
    "entropy": (("entropy_I", "entropy_II"), True, _entropy),
    "metric_norm": (("metric_norm",), False, _metric),
    "survival": (("survival",), False, _no_jump),
    "bloch": (("bloch_x", "bloch_y", "bloch_z"), False, _no_jump),
}
# The only extra columns or fields a sweep file may hold.
_EXTRA_NAMES = frozenset(k for keys, _, _ in _EXTRAS.values() for k in keys)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid; rows ordered n-major, then axis2, then axis1.

    The grid is tiled over the block indices and evaluated at once by
    column functions (numpy arrays, with the few operations whose numpy
    versions differ from libm done in Python once per distinct value):
    _base, then each requested quantity's function of _EXTRAS, whose
    temporaries go when it returns.  The result is a SweepTable of those
    columns: no PhaseCell is built until the table is indexed or iterated.
    Exceptional-point cells keep their label, eigenvalues and entropy but
    omit metric_norm, survival and bloch.  Raises SpecValidationError,
    naming the quantity, when a value overflows on the grid, and where the
    no-jump weight of a cell cancels to 0 or its Bloch vector ends past
    length 1, as evolve_no_jump does.
    """
    n_list = spec.n_list or (spec.fixed.n,)
    axes = [a for a in (spec.axis1, spec.axis2) if a is not None]
    names = tuple(a.name for a in axes)
    # uint64, so that 2n + 1 and n + 1 stay exact for every int64 block index
    n, *coords = (c.ravel() for c in np.meshgrid(
        np.array(n_list, dtype=np.uint64), *(a.values() for a in reversed(axes)), indexing="ij"
    ))
    coords.reverse()
    with np.errstate(all="ignore"):
        floats, base = _base(spec, n, list(zip(names, coords)))
        for fn in dict.fromkeys(_EXTRAS[q][2] for q in _EXTRAS if q in spec.quantities):
            keys = [k for columns, _, f in _EXTRAS.values() if f is fn for k in columns]
            floats.update(fn(spec, keys, **base))
    code, at_ep = base["code"], base["at_ep"]
    del base  # free the base's arrays before the table's are built
    omitted = {k: np.zeros_like(at_ep) if _EXTRAS[q][1] else at_ep
               for q in spec.quantities if q in _EXTRAS for k in _EXTRAS[q][0]}
    return _table(names, {**dict(zip(names, coords)), **floats}, n, code, omitted)


def _require_table(table, action: str) -> None:
    """ValueError unless table is a SweepTable; EmptySweepError if it has no cells."""
    if not isinstance(table, SweepTable):
        raise ValueError(f"expected a SweepTable, got {type(table).__name__}")
    if not len(table):
        raise EmptySweepError(f"no cells to {action}")


def _opened(target, mode: str):
    """A stream as is, left open on exit, or a path opened in mode and closed on exit."""
    if hasattr(target, "write"):
        return contextlib.nullcontext(target)
    return open(target, mode, newline="")


def _gathered(text: list[str], index: np.ndarray) -> list[str]:
    """text[index[i]] for each entry i."""
    return np.array(text, dtype=object)[index].tolist()


def _formatted(column: np.ndarray, spell, omitted: np.ndarray | None = None) -> list[str]:
    """The text of each value of an 8-byte numeric column, "" where omitted.

    spell maps the list of the column's distinct values to their texts, so
    each distinct value is spelled once, in one call per column.
    """
    values, index = _levels(column)
    text = spell(values)
    if omitted is not None:
        text.append("")
        index = np.where(omitted, len(text) - 1, index)
    return _gathered(text, index)


def _negated(values: list[float], text: list[str]) -> list[str]:
    """The text of 0.0 - v for each value v from the text of v, for a
    spelling that writes -v as "-" and v's text: a leading "-" goes, +0.0
    and NaN (0.0 - v is +0.0 or NaN again) keep theirs, the rest gain one."""
    return [
        t[1:] if t[0] == "-" else t if v == 0.0 or v != v else "-" + t
        for v, t in zip(values, text)
    ]


def _csv_floats(values: list[float]) -> list[str]:
    """"%.17g" % v for each value: float.__format__ reaches the same
    correctly rounded conversion in less time per value."""
    return list(map(float.__format__, values, repeat(".17g")))


# json.dumps spells a float by float.__repr__, except the non-finite ones
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: list[float]) -> list[str]:
    """json.dumps' text of each value."""
    return [_JSON_NONFINITE.get(t, t) for t in map(float.__repr__, values)]


def _spelled(table: SweepTable, spell, phases) -> dict[str, list[str]]:
    """Each column of a table as text, by name: spell(distinct values) for
    the floats, str(n), phases[code] for the phase, "" for an omitted extra.

    Where eigenvalue_II_im is 0.0 - eigenvalue_I_im bit for bit, as in every
    sweep (the broken phase's pair c +- i sqrt(-D) / 2), its text is formed
    from eigenvalue_I_im's distinct texts by _negated, right after that
    column, instead of spelling its values again.
    """
    floats = _float_columns(table)
    with np.errstate(invalid="ignore"):  # a signalling NaN
        mirrored = np.array_equal(
            np.subtract(0.0, floats["eigenvalue_I_im"]).view(np.int64),
            floats["eigenvalue_II_im"].view(np.int64),
        )
    if mirrored:
        del floats["eigenvalue_II_im"]
    columns = {}
    for k, c in floats.items():
        if k == "eigenvalue_I_im" and mirrored:
            values, index = _levels(c)
            text = spell(values)
            columns[k] = _gathered(text, index)
            # free eigenvalue_I_im's texts before gathering eigenvalue_II_im's
            text = _negated(values, text)
            del values
            columns["eigenvalue_II_im"] = _gathered(text, index)
            del index, text
        else:
            columns[k] = _formatted(c, spell, table.omitted.get(k))
    columns["n"] = _formatted(table.n, lambda values: list(map(str, values)))
    columns["phase"] = list(map(phases.__getitem__, table.phase.tolist()))
    return columns


def export_csv(table: SweepTable, path) -> None:
    """Write a SweepTable as CSV to a path or a text stream.

    Fields are separated by "," and lines end in "\\n".  No field is
    quoted, since none needs it: the fields are %.17g floats, block indices,
    phase names, and empty fields for the quantities EP cells omit.  Each
    distinct value of a column is formatted once, all of them before the
    target is opened, and each chunk of rows is written by one join.
    Raises ValueError for anything but a SweepTable and EmptySweepError for
    a table with no cells.
    """
    _require_table(table, "export")
    header = [*table.axis_names, *_BASE_COLUMNS, *sorted(table.extras)]
    spelled = _spelled(table, _csv_floats, _PHASE_NAMES)
    width = len(header)
    with _opened(path, "w") as stream:
        stream.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            chunk = [spelled[k][start:start + _CSV_CHUNK_ROWS] for k in header]
            # field, ",", field, ",", ..., field, "\n" for each row of the chunk
            flat = (["", ","] * (width - 1) + ["", "\n"]) * len(chunk[0])
            for i, column in enumerate(chunk):
                flat[2 * i::2 * width] = column
            stream.write("".join(flat))


def _parsed(fn, raw, field: str, where) -> list:
    """fn over a column of raw values; a value it rejects names its row."""
    try:
        return list(map(fn, raw))
    except (TypeError, ValueError, KeyError, OverflowError):
        for k, value in enumerate(raw):
            try:
                fn(value)
            except (TypeError, ValueError, KeyError, OverflowError):
                raise SweepFileError(f"{where(k)}: bad {field} {value!r}") from None
        raise


def _float_or_omitted(value) -> float:
    return math.nan if value == "" else float(value)


def _parse_table(axis_names, column, extra_keys, where) -> SweepTable:
    """A table from raw columns: column(key) lists one value per row, "" for
    an omitted extra; where(k) names row k in error messages."""
    n = _parsed(int, column("n"), "n", where)
    if n and not 0 <= min(n) <= max(n) < 2**63:  # a block index that fits the int64 column
        k = next(k for k, v in enumerate(n) if not 0 <= v < 2**63)
        raise SweepFileError(f"{where(k)}: bad n {column('n')[k]!r}")
    # columns are checked in this order: the first bad one is named
    floats = {k: _parsed(float, column(k), k, where) for k in (*_BASE_COLUMNS[3:], *axis_names)}
    code = _parsed(_PHASE_CODE.__getitem__, column("phase"), "phase", where)
    floats["discriminant"] = _parsed(float, column("discriminant"), "discriminant", where)
    floats.update((k, _parsed(_float_or_omitted, column(k), k, where)) for k in extra_keys)
    omitted = {k: [v == "" for v in column(k)] for k in extra_keys}
    return _table(axis_names, floats, n, code, omitted)


# numpy's dtype for each CSV column.  The phase is read into 17 characters,
# one more than the longest name (ExceptionalPoint), so a name that numpy
# cuts to fit, such as ExceptionalPointXY, can never read as a valid one.
# The extras stay text (object fields), since an omitted value is "".
_CSV_KINDS = {"n": np.int64, "phase": "U17", **dict.fromkeys(_EXTRA_NAMES, object)}


def _loaded(header, body, n_axes) -> SweepTable | None:
    """The table of body lines parsed by numpy's C text reader in one call,
    or None where the per-line and per-value checks must decide: a line
    with the wrong number of fields or a blank one, a value numpy rejects,
    an unknown phase name, a negative n.  Call it on ASCII text without
    NUL, which numpy would drop from the end of a phase name."""
    dtype = [(name, _CSV_KINDS.get(name, float)) for name in header]
    extra_keys = header[n_axes + len(_BASE_COLUMNS):]
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" as an int64 with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            # a body of blank lines reads as no rows, which the count below refuses
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=1, dtype=dtype)
        if len(rows) != len(body):  # numpy skips blank lines
            return None
        # copies, so the table keeps none of the rows' text fields alive
        floats = {k: rows[k].copy() for k, kind in dtype if kind is float}
        floats.update((k, list(map(_float_or_omitted, rows[k].tolist()))) for k in extra_keys)
    except ValueError:
        return None
    code = np.full(len(rows), -1, dtype=np.int8)
    for k, name in enumerate(_PHASE_NAMES):
        code[rows["phase"] == name] = k
    if (code < 0).any() or (rows["n"] < 0).any():
        return None
    omitted = {k: rows[k] == "" for k in extra_keys}
    return _table(header[:n_axes], floats, rows["n"].copy(), code, omitted)


def read_csv(path) -> SweepTable:
    """Parse a file produced by export_csv back into a SweepTable.

    Reads exactly what export_csv writes: unquoted fields separated by ",",
    lines ending in "\\n" or "\\r\\n".  The header names 1 or 2 axes from
    AXIS_NAMES, then the base columns, then extras that run_sweep writes,
    each column once.  Malformed input (a bad header, a line with the wrong
    number of fields, a bad value such as a negative n, a quoted field)
    raises SweepFileError naming the header or the line.

    The body is parsed by one np.loadtxt call, which also refuses a line
    with the wrong number of fields.  Where numpy rejects a line or a value,
    skips a blank line, or the result needs checking value by value, the
    fields of each line are counted and the per-value path that read_json
    shares decides instead, so every input reads as float() and int() read
    it, and a bad line or value is named with its line number.
    """
    with _opened(path, "r") as stream:
        text = stream.read()
    # numpy strips "\x1f" as a space, reads some non-ASCII letters as digits
    # of an int64 and drops a NUL from the end of a phase name, where float(),
    # int() and the phase names refuse all three
    plain = text.isascii() and "\x1f" not in text and "\x00" not in text
    lines = text.splitlines()
    del text
    if not lines:
        raise EmptySweepError("empty CSV")
    header, body = lines[0].split(","), lines[1:]
    missing = [c for c in _BASE_COLUMNS if c not in header]
    if missing:
        raise SweepFileError(f"CSV header: missing column(s) {', '.join(missing)}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise SweepFileError(f"CSV header: repeated column(s) {', '.join(repeated)}")
    n_axes = header.index("n")
    axes = header[:n_axes]
    if not 1 <= n_axes <= 2 or not set(axes) <= set(AXIS_NAMES):
        raise SweepFileError(f"CSV header: need 1 or 2 axes of {AXIS_NAMES}, got {axes}")
    extra_at = n_axes + len(_BASE_COLUMNS)
    if tuple(header[n_axes:extra_at]) != _BASE_COLUMNS:
        raise SweepFileError(f"CSV header: expected {','.join(_BASE_COLUMNS)} after the axes")
    unknown = [c for c in header[extra_at:] if c not in _EXTRA_NAMES]
    if unknown:
        raise SweepFileError(f"CSV header: unknown column(s) {', '.join(unknown)}")
    if body and plain:
        table = _loaded(header, body, n_axes)
        if table is not None:
            return table
    width = len(header)
    commas = list(map(str.count, body, repeat(",")))
    if commas.count(width - 1) != len(body):
        k = next(k for k, c in enumerate(commas) if c != width - 1)
        fields = commas[k] + 1 if body[k] else 0
        raise SweepFileError(f"line {k + 2}: {fields} fields, the header has {width}")
    values = ",".join(body).split(",") if body else []
    del lines, body  # the values hold the same text; free the lines before parsing
    columns = {name: values[i::width] for i, name in enumerate(header)}
    return _parse_table(
        axes, columns.__getitem__, header[extra_at:], lambda k: f"line {k + 2}"
    )


def spec_to_dict(spec: SweepSpec) -> dict:
    """JSON-ready SweepSpec (the `meta` object), its numbers as the spec keeps them."""
    return {
        "fixed": asdict(spec.fixed),
        "axes": [asdict(a) for a in (spec.axis1, spec.axis2) if a is not None],
        "quantities": list(spec.quantities),
        "n_list": list(spec.n_list),
        "initial_bloch": list(spec.initial_bloch),
    }


def _number(value, field: str) -> float:
    """A config number (model._real) as a float; bools, strings and non-finite values raise."""
    x = _real(value)
    if x is None or math.isnan(x):
        raise SpecValidationError(f"{field} must be a finite real number, got {value!r}")
    return float(x)


def _integer(value, field: str) -> int:
    """A config whole number (model._integral) as an int, where int() would cut 1.5 and True."""
    n = _integral(value)
    if n is None:
        raise SpecValidationError(f"{field}: expected an integer, got {value!r}")
    return n


def _params_from_dict(fixed) -> ModelParams:
    """The fixed parameters of a config; defaults omega 1, epsilon 5, gamma 1, n 0."""
    if not isinstance(fixed, dict):
        raise SpecValidationError("fixed: expected an object")
    n = _integer(fixed.get("n", 0), "fixed.n")
    omega, epsilon, gamma = (
        _number(fixed.get(name, default), f"fixed: {name}")
        for name, default in (("omega", 1.0), ("epsilon", 5.0), ("gamma", 1.0))
    )
    try:
        return ModelParams(omega, epsilon, gamma, n)
    except ValueError as exc:
        raise SpecValidationError(f"fixed: {exc}") from exc


def spec_from_dict(data: dict) -> SweepSpec:
    """Inverse of spec_to_dict; also accepts CLI config files."""
    if not isinstance(data, dict):
        raise SpecValidationError("config: expected a JSON object")
    params = _params_from_dict(data.get("fixed", {}))
    raw_axes = data.get("axes", [])
    if not isinstance(raw_axes, list) or not 1 <= len(raw_axes) <= 2:
        raise SpecValidationError("axes: need a list of 1 or 2 axis objects")
    axes = []
    for i, raw in enumerate(raw_axes, start=1):
        try:
            name, lo, hi, steps = str(raw["name"]), raw["min"], raw["max"], raw["steps"]
        except (KeyError, TypeError) as exc:
            raise SpecValidationError(f"axes[{i}]: {exc!r}") from exc
        lo, hi = _number(lo, f"axes[{i}]: min"), _number(hi, f"axes[{i}]: max")
        steps = _integer(steps, f"axes[{i}].steps")
        try:
            axes.append(Axis(name, lo, hi, steps))
        except SpecValidationError as exc:  # an Axis cannot name its place in the config
            raise SpecValidationError(f"axes[{i}]: {exc}") from exc
    bloch = _sequence(data.get("initial_bloch", (0.0, 0.0, 1.0)), "initial_bloch")
    return SweepSpec(
        fixed=params,
        axis1=axes[0],
        axis2=axes[1] if len(axes) == 2 else None,
        quantities=data.get("quantities", ("phase",)),
        n_list=data.get("n_list", ()),
        initial_bloch=[_number(x, "initial_bloch: each component") for x in bloch],
    )


def export_json(table: SweepTable, path, spec: SweepSpec) -> None:
    """Write a SweepTable plus a `meta` object echoing the sweep spec as JSON
    to a path or a text stream.

    The text is what json.dump(indent=2, sort_keys=True) writes for an
    object {"cells": [one object per cell], "meta": spec_to_dict(spec)},
    where a cell leaves out the extras it omits.  It is assembled from the
    columns: each distinct value of a column is spelled once, and each cell
    is one join of the fields it holds.  The text is complete before the
    target is opened.  Raises ValueError for anything but a SweepTable and
    EmptySweepError for a table with no cells.
    """
    _require_table(table, "export")
    columns = _spelled(table, _json_floats, [json.dumps(name) for name in _PHASE_NAMES])
    keys = sorted(columns)
    heads = [f"\n      {json.dumps(k)}: " for k in keys]
    # a cell joins its present fields: only an omitted extra is spelled ""
    cells = ",\n".join(
        "    {" + ",".join([head + v for head, v in zip(heads, row) if v]) + "\n    }"
        for row in zip(*(columns[k] for k in keys))
    )
    meta = json.dumps(spec_to_dict(spec), indent=2, sort_keys=True).replace("\n", "\n  ")
    with _opened(path, "w") as stream:
        stream.write('{\n  "cells": [\n')
        stream.write(cells)
        stream.write(f'\n  ],\n  "meta": {meta}\n}}\n')


def read_json(path) -> tuple[SweepTable, SweepSpec]:
    """Parse a file produced by export_json back into (table, spec).

    Malformed input (text that is not JSON or nests too deep, no `meta` or
    one that spec_from_dict refuses, a cell without a field or with one
    run_sweep never writes, a bad value, a bool or a string where a number
    belongs, an n that is not a whole number) raises SweepFileError naming
    the field or the cell.
    """
    with _opened(path, "r") as stream:
        try:
            payload = json.load(stream)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise SweepFileError(f"JSON: {exc}") from exc
    for key, kind in (("meta", dict), ("cells", list)):
        if not isinstance(payload, dict) or not isinstance(payload.get(key), kind):
            raise SweepFileError(f"JSON: missing or malformed field {key!r}")
    objs = payload["cells"]
    try:
        spec = spec_from_dict(payload["meta"])
    except SpecValidationError as exc:
        raise SweepFileError(f"meta: {exc}") from exc
    axis_names = tuple(a.name for a in (spec.axis1, spec.axis2) if a is not None)
    known = (*axis_names, *_BASE_COLUMNS)
    numeric = _EXTRA_NAMES.union(known).difference(("phase", "n"))
    for k, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise SweepFileError(f"cells[{k}]: expected an object")
        missing = [f for f in known if f not in obj]
        if missing:
            raise SweepFileError(f"cells[{k}]: missing field(s) {', '.join(missing)}")
        # int() and float() would take 1.5 as n = 1, true as 1.0 and "1_0" as 10.0
        bad = [f for f, v in obj.items()
               if isinstance(v, bool) or (f == "n" and (_integral(v) is None or v < 0))
               or (f in numeric and type(v) not in (int, float))]
        if bad:
            raise SweepFileError(f"cells[{k}]: bad {bad[0]} {obj[bad[0]]!r}")
    extra_keys = sorted(set().union(*objs).difference(known))
    unknown = set(extra_keys).difference(_EXTRA_NAMES)
    if unknown:
        k = next(k for k, obj in enumerate(objs) if not unknown.isdisjoint(obj))
        names = ", ".join(sorted(unknown.intersection(objs[k])))
        raise SweepFileError(f"cells[{k}]: unknown field(s) {names}")
    table = _parse_table(
        axis_names,
        lambda key: [obj.get(key, "") for obj in objs],
        extra_keys,
        lambda k: f"cells[{k}]",
    )
    return table, spec
