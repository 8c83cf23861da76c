"""Parameter sweeps over the phase diagram and their CSV/JSON exports.

A sweep walks one or two axes (gamma, epsilon, omega, delta, delta_sq, or
time t), classifies the phase at every grid point and evaluates the
requested quantities.  Cells inside the exceptional-point band keep their
label and eigenvalues but omit the quantities that need eigenvectors or a
diagonalizable generator (metric norm, survival, Bloch components); the
entropy limit ln 2 is still reported there.

Every quantity is a closed form of the cell's own parameters, so a sweep is
evaluated column by column: one numpy pass per block index over the whole
grid, repeating the operations of the scalar functions in model, entropy,
biortho and dynamics.  Those functions remain the per-point reference; the
columns match them bit for bit, metric_norm to rounding.

Exports are deterministic: fixed row order (block index outermost, then
axis2-major, then axis1), fixed column order, floats printed with 17
significant digits so CSV and JSON round-trip byte-for-byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySweepError, SpecValidationError
from .model import ModelParams, Phase, Spectrum

__all__ = [
    "AXIS_NAMES",
    "QUANTITIES",
    "Axis",
    "SweepSpec",
    "PhaseCell",
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


@dataclass(frozen=True)
class Axis:
    """One sweep axis: `steps` points spaced uniformly on [min, max]."""

    name: str
    min: float
    max: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a sweep.

    fixed supplies the parameters not overridden by an axis; n_list (default
    just fixed.n) runs the sweep per block index; initial_bloch seeds the
    dynamics quantities when a t axis is present.
    """

    fixed: ModelParams
    axis1: Axis
    axis2: Axis | None = None
    quantities: tuple[str, ...] = ("phase",)
    n_list: tuple[int, ...] = ()
    initial_bloch: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def validate(self) -> None:
        problems = []
        axes = [("axis1", self.axis1)]
        if self.axis2 is not None:
            axes.append(("axis2", self.axis2))
        for label, axis in axes:
            if not isinstance(axis, Axis):
                problems.append(f"{label}: expected an Axis, got {type(axis).__name__}")
                continue
            if axis.name not in AXIS_NAMES:
                problems.append(f"{label}.name: {axis.name!r} not in {AXIS_NAMES}")
            if not (math.isfinite(axis.min) and math.isfinite(axis.max)):
                problems.append(f"{label}: min/max must be finite")
            elif not axis.min < axis.max:
                problems.append(f"{label}: min {axis.min} must be < max {axis.max}")
            if axis.steps < 2:
                problems.append(f"{label}.steps: need at least 2, got {axis.steps}")
            if axis.name == "delta_sq" and axis.min < 0.0:
                problems.append(f"{label}: delta_sq must be non-negative")
            if axis.name == "t" and axis.min < 0.0:
                problems.append(f"{label}: t must be non-negative")
        if self.axis2 is not None and isinstance(self.axis2, Axis) and isinstance(
            self.axis1, Axis
        ):
            if self.axis1.name == self.axis2.name:
                problems.append("axis2.name: must differ from axis1.name")
        if not self.quantities:
            problems.append("quantities: must not be empty")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            problems.append(f"quantities: unknown {unknown}, allowed {QUANTITIES}")
        axis_names = {a.name for _, a in axes if isinstance(a, Axis)}
        if {"survival", "bloch"} & set(self.quantities) and "t" not in axis_names:
            problems.append("quantities: survival/bloch require a 't' axis")
        for n in self.n_list:
            if isinstance(n, bool) or n != int(n) or n < 0:
                problems.append(f"n_list: entries must be non-negative integers, got {n!r}")
        r = self.initial_bloch
        if len(r) != 3 or not all(math.isfinite(float(x)) for x in r):
            problems.append("initial_bloch: need 3 finite components")
        elif math.hypot(*map(float, r)) > 1.0 + 1e-9:
            problems.append("initial_bloch: length must not exceed 1")
        if problems:
            raise SpecValidationError("; ".join(problems))


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


_PHASES = (Phase.UNBROKEN, Phase.BROKEN, Phase.EXCEPTIONAL_POINT)

# Extra columns per quantity, in the order a cell's extras list them.
_EXTRA_KEYS = {
    "metric_norm": ("metric_norm",),
    "entropy": ("entropy_I", "entropy_II"),
    "survival": ("survival",),
    "bloch": ("bloch_x", "bloch_y", "bloch_z"),
}
# The only extras that exceptional-point cells keep (the ln 2 limit).
_KEPT_AT_EP = frozenset({"entropy_I", "entropy_II"})


def _elementwise(fn, x: np.ndarray, quantity: str, what: str) -> np.ndarray:
    """fn over every entry through Python floats, raising on overflow.

    Used for `** 2`, log, cosh and sinh: numpy's versions differ from the
    libm calls of the scalar functions in the last bit for some inputs.
    """
    try:
        return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)
    except OverflowError:
        raise SpecValidationError(f"{quantity}: {what} overflows on this grid") from None


# v -> v ** 2.0: the libm pow call behind the scalar code's `x ** 2`, which
# differs from x * x in the last bit for about 0.08% of inputs
_square = (2.0).__rpow__


def _square_or_inf(v: float) -> float:
    # entropy._ratio_squared: |alpha|**2 overflows only as gamma -> 0
    try:
        return v ** 2.0
    except OverflowError:
        return math.inf


def _binary_entropy(a2: np.ndarray) -> np.ndarray:
    # entropy._binary_entropy_from_ratio over a column
    out = np.zeros_like(a2)
    live = (a2 != 0.0) & ~np.isinf(a2)
    x = a2[live]
    lam = 1.0 / (1.0 + x)
    comp = x / (1.0 + x)
    log_lam = _elementwise(math.log, lam, "entropy", "log")
    log_comp = _elementwise(math.log, comp, "entropy", "log")
    out[live] = -(lam * log_lam + comp * log_comp)
    return out


def _grid_columns(spec: SweepSpec, n: int, grid: list[tuple[str, np.ndarray]]):
    """Every column of block n over the whole grid, as lists in grid order.

    Each column repeats the floating-point operations of the scalar function
    it stands for (classify_phase, spectrum_closed_form, entanglement_entropy,
    effective_generator + evolve_no_jump), so it matches them bit for bit;
    metric_norm follows metric() to within rounding.  Returns (phases,
    discriminant, (eigenvalue_I, eigenvalue_II), extras by key); extras
    that EP-band cells omit hold NaN there.
    """
    size = grid[0][1].size
    params = {
        name: np.full(size, float(getattr(spec.fixed, name)))
        for name in ("omega", "epsilon", "gamma")
    }
    t = None
    for name, values in grid:  # a later axis wins, as in the scalar path
        if name == "delta":
            params["gamma"] = values / math.sqrt(n + 1)
        elif name == "delta_sq":
            params["gamma"] = np.sqrt(values / (n + 1))
        elif name == "t":
            t = values
        else:
            params[name] = values
    omega, gamma = params["omega"], params["gamma"]
    b = omega - params["epsilon"]

    # ModelParams.discriminant / ep_tolerance and classify_phase
    b2 = _elementwise(_square, b, "discriminant", "(omega - epsilon)**2")
    c2 = 4.0 * _elementwise(_square, gamma, "discriminant", "gamma**2") * (n + 1)
    d = b2 - c2
    if not np.isfinite(d).all():
        raise SpecValidationError("discriminant: 4 gamma**2 (n+1) overflows on this grid")
    at_ep = np.abs(d) <= 1e-10 * np.maximum(1.0, np.maximum(b2, c2))
    code = np.where(at_ep, 2, np.where(d > 0.0, 0, 1))

    # spectrum_closed_form: center +- sqrt_discriminant / 2
    root = np.sqrt(np.abs(d))
    real_root = d >= 0.0
    half = 0.5 * root
    half_re = np.where(real_root, half, 0.0)
    half_im = np.where(real_root, 0.0, half)
    center = 0.5 * (2 * n + 1) * omega
    eigen = []
    for part_re, part_im in ((center + half_re, 0.0 + half_im), (center - half_re, 0.0 - half_im)):
        z = np.empty(size, dtype=complex)
        z.real, z.imag = part_re, part_im
        eigen.append(z.tolist())

    wanted = set(spec.quantities)
    columns: dict[str, np.ndarray] = {}
    coupled = gamma != 0.0
    if wanted & {"metric_norm", "entropy"}:
        # biortho.eigenvector_ratios: real ratios with product 1 where the
        # root is real, (b +- i root) / two_delta where it is imaginary
        two_delta = np.where(coupled, 2.0 * math.sqrt(n + 1) * gamma, 1.0)
        lead_is_one = b >= 0.0
        lead = np.where(lead_is_one, b + root, b - root) / two_delta
        other = 1.0 / lead
        ratios = (np.where(lead_is_one, lead, other), np.where(lead_is_one, other, lead))
        ratio_re = b / two_delta
        ratio_im = root / two_delta
    if "entropy" in wanted:
        modulus = np.hypot(ratio_re, ratio_im)
        for key, a in zip(("entropy_I", "entropy_II"), ratios):
            a_abs = np.where(coupled, np.where(real_root, np.abs(a), modulus), 0.0)
            a2 = np.fromiter(map(_square_or_inf, a_abs.tolist()), dtype=float, count=size)
            columns[key] = _binary_entropy(a2)
    if "metric_norm" in wanted:
        # biortho.metric: G = sum_i |L_i><L_i| with L_i = (1, -conj a_i) / sqrt|1 - a_i^2|,
        # or (-conj w, 1) / sqrt|1 - w^2| with w = 1 / a_i where |a_i| > 1
        g00 = g11 = g01 = 0.0
        for sign, a in zip((1.0, -1.0), ratios):
            z = np.empty(size, dtype=complex)
            z.real = np.where(real_root, a, ratio_re)
            z.imag = np.where(real_root, 0.0, sign * ratio_im)
            flip = np.abs(z) > 1.0
            w = np.where(flip, 1.0 / z, z)
            scale = 1.0 / np.sqrt(np.abs(1.0 - w * w))
            other = -np.conj(w) * scale
            first = np.where(flip, other, scale)
            second = np.where(flip, scale, other)
            g00 = g00 + (first * np.conj(first)).real
            g11 = g11 + (second * np.conj(second)).real
            g01 = g01 + first * np.conj(second)
        norm = np.sqrt(g00 * g00 + g11 * g11 + 2.0 * (g01 * np.conj(g01)).real)
        norm = np.where(coupled, norm, math.sqrt(2.0))  # G = I when decoupled
        if not np.isfinite(norm[~at_ep]).all():
            raise SpecValidationError("metric_norm: not finite on this grid")
        columns["metric_norm"] = np.where(at_ep, math.nan, norm)
    if wanted & {"survival", "bloch"}:
        # evolve_no_jump from effective_generator: cosh/sinh of 2 Gamma t on
        # the broken side, a rotation by 2 Lambda t on the unbroken side
        rx, ry, rz = (float(r) for r in spec.initial_bloch)
        angle = 2.0 * half * t
        broken = code == 1
        unbroken = code == 0
        ch = _elementwise(math.cosh, angle[broken], "survival/bloch", "cosh(2 Gamma t)")
        sh = _elementwise(math.sinh, angle[broken], "survival/bloch", "sinh(2 Gamma t)")
        weight = ch + ry * sh
        ct, st = np.cos(angle[unbroken]), np.sin(angle[unbroken])
        dyn = {k: np.full(size, math.nan) for k in ("survival", "bloch_x", "bloch_y", "bloch_z")}
        for key, on_broken, on_unbroken in (
            ("survival", weight, 1.0),
            ("bloch_x", rx / weight, rx * ct - rz * st),
            ("bloch_y", (sh + ry * ch) / weight, ry),
            ("bloch_z", rz / weight, rx * st + rz * ct),
        ):
            dyn[key][broken] = on_broken
            dyn[key][unbroken] = on_unbroken
            if not np.isfinite(dyn[key][~at_ep]).all():
                raise SpecValidationError(f"survival/bloch: {key} not finite on this grid")
        for q in ("survival", "bloch"):
            if q in wanted:
                columns.update((k, dyn[k]) for k in _EXTRA_KEYS[q])

    extras = {}
    for q in spec.quantities:
        for key in _EXTRA_KEYS.get(q, ()):
            extras.setdefault(key, columns[key].tolist())
    phases = [_PHASES[k] for k in code.tolist()]
    return phases, d.tolist(), eigen, extras


def run_sweep(spec: SweepSpec) -> list[PhaseCell]:
    """Evaluate the grid; rows ordered n-major, then axis2, then axis1.

    Each block index is evaluated over the whole grid at once by a column
    kernel (numpy arrays, with the few operations whose numpy versions
    differ from libm done per element), then unpacked into cells.
    Exceptional-point cells keep their label, eigenvalues and entropy but
    omit metric_norm, survival and bloch.  Raises SpecValidationError,
    naming the quantity, when a value overflows on the grid.
    """
    spec.validate()
    n_list = tuple(spec.n_list) or (spec.fixed.n,)
    axes = [a for a in (spec.axis1, spec.axis2) if a is not None]
    axis_names = tuple(a.name for a in axes)
    axis_values = [a.values() for a in axes]
    if len(axes) == 1:
        grid = [(axis_names[0], axis_values[0])]
        coords = [(v,) for v in axis_values[0].tolist()]
    else:
        first, second = axis_values
        grid = [
            (axis_names[0], np.tile(first, second.size)),
            (axis_names[1], np.repeat(second, first.size)),
        ]
        firsts = first.tolist()
        coords = [(v1, v2) for v2 in second.tolist() for v1 in firsts]
    cells = []
    for n in map(int, n_list):
        with np.errstate(all="ignore"):
            phases, disc, (eig_I, eig_II), extras = _grid_columns(spec, n, grid)
        keys = tuple(extras)
        kept = [key in _KEPT_AT_EP for key in keys]
        rows = zip(*extras.values()) if keys else [()] * len(coords)
        for coord, phase, d, e_I, e_II, row in zip(coords, phases, disc, eig_I, eig_II, rows):
            if phase is Phase.EXCEPTIONAL_POINT:
                row_extras = {k: v for k, v, keep in zip(keys, row, kept) if keep}
            else:
                row_extras = dict(zip(keys, row))
            cells.append(
                PhaseCell(coord, axis_names, n, phase, d, Spectrum(e_I, e_II), row_extras)
            )
    return cells


def _columns(cells: list[PhaseCell]) -> list[str]:
    extra_keys = sorted({k for c in cells for k in c.extras})
    return list(cells[0].axis_names) + list(_BASE_COLUMNS) + extra_keys


def _check_cells(cells) -> None:
    if not cells:
        raise EmptySweepError("no cells to export")
    names = cells[0].axis_names
    if any(c.axis_names != names for c in cells):
        raise ValueError("cells come from sweeps with different axes")


def _open_for(target, mode: str):
    if hasattr(target, "write"):
        return target, False
    return open(target, mode, newline="" if "b" not in mode else None), True


def export_csv(cells: list[PhaseCell], path) -> None:
    """Write cells as RFC-4180 CSV; EP-omitted quantities become empty fields.

    Each row is one %-format applied to the cell's fields, with a format per
    set of extras present.  The fields are %.17g floats, block indices and
    phase names, none of which needs CSV quoting.
    """
    _check_cells(cells)
    columns = _columns(cells)
    n_axes = len(cells[0].axis_names)
    extra_keys = columns[n_axes + len(_BASE_COLUMNS):]
    base = ",".join(["%.17g"] * n_axes + ["%s", "%s"] + ["%.17g"] * 5)
    layouts: dict[tuple, tuple[str, list[str]]] = {}
    lines = []
    stream, owned = _open_for(path, "w")
    try:
        csv.writer(stream, lineterminator="\n").writerow(columns)
        for cell in cells:
            extras = cell.extras
            layout = layouts.get(tuple(extras))
            if layout is None:
                fields = [base] + ["%.17g" if k in extras else "" for k in extra_keys]
                layout = layouts[tuple(extras)] = (
                    ",".join(fields) + "\n",
                    [k for k in extra_keys if k in extras],
                )
            row_format, keys = layout
            e_I = cell.eigenvalues.eigenvalue_I
            e_II = cell.eigenvalues.eigenvalue_II
            lines.append(row_format % (
                *cell.coords, cell.n, cell.phase.value, cell.discriminant,
                e_I.real, e_I.imag, e_II.real, e_II.imag,
                *[extras[k] for k in keys],
            ))
            if len(lines) == _CSV_CHUNK_ROWS:
                stream.write("".join(lines))
                lines.clear()
        stream.write("".join(lines))
    finally:
        if owned:
            stream.close()


def read_csv(path) -> list[PhaseCell]:
    """Parse a file produced by export_csv back into cells."""
    stream, owned = _open_for(path, "r")
    try:
        rows = list(csv.reader(stream))
    finally:
        if owned:
            stream.close()
    if not rows:
        raise EmptySweepError("empty CSV")
    header = rows[0]
    n_axes = header.index("n")
    axis_names = tuple(header[:n_axes])
    extra_keys = header[n_axes + len(_BASE_COLUMNS):]
    cells = []
    for row in rows[1:]:
        rec = dict(zip(header, row))
        extras = {k: float(rec[k]) for k in extra_keys if rec[k] != ""}
        cells.append(
            PhaseCell(
                coords=tuple(float(v) for v in row[:n_axes]),
                axis_names=axis_names,
                n=int(rec["n"]),
                phase=Phase(rec["phase"]),
                discriminant=float(rec["discriminant"]),
                eigenvalues=Spectrum(
                    complex(float(rec["eigenvalue_I_re"]), float(rec["eigenvalue_I_im"])),
                    complex(float(rec["eigenvalue_II_re"]), float(rec["eigenvalue_II_im"])),
                ),
                extras=extras,
            )
        )
    return cells


def spec_to_dict(spec: SweepSpec) -> dict:
    """JSON-ready representation of a SweepSpec (the `meta` object)."""
    axes = [
        {"name": a.name, "min": a.min, "max": a.max, "steps": a.steps}
        for a in (spec.axis1, spec.axis2)
        if a is not None
    ]
    return {
        "fixed": {
            "omega": spec.fixed.omega,
            "epsilon": spec.fixed.epsilon,
            "gamma": spec.fixed.gamma,
            "n": spec.fixed.n,
        },
        "axes": axes,
        "quantities": list(spec.quantities),
        "n_list": list(spec.n_list),
        "initial_bloch": list(spec.initial_bloch),
    }


def _whole(value, field: str) -> int:
    """A config value that must be a whole number, as an int.

    Bools, fractions and non-numbers raise instead of being cut by int().
    """
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise SpecValidationError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def _params_from_dict(fixed) -> ModelParams:
    """The fixed parameters of a config; defaults omega 1, epsilon 5, gamma 1, n 0."""
    if not isinstance(fixed, dict):
        raise SpecValidationError("fixed: expected an object")
    n = _whole(fixed.get("n", 0), "fixed.n")
    try:
        return ModelParams(
            omega=float(fixed.get("omega", 1.0)),
            epsilon=float(fixed.get("epsilon", 5.0)),
            gamma=float(fixed.get("gamma", 1.0)),
            n=n,
        )
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"fixed: {exc}") from exc


def _sequence(data: dict, key: str, default):
    value = data.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise SpecValidationError(f"{key}: expected a list, got {type(value).__name__}")
    return value


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
            name, lo, hi = str(raw["name"]), float(raw["min"]), float(raw["max"])
            steps = raw["steps"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecValidationError(f"axes[{i}]: {exc!r}") from exc
        axes.append(Axis(name, lo, hi, _whole(steps, f"axes[{i}].steps")))
    quantities = data.get("quantities", ("phase",))
    if not isinstance(quantities, (list, tuple)) or not all(isinstance(q, str) for q in quantities):
        raise SpecValidationError("quantities: expected a list of names")
    n_list = tuple(_whole(n, "n_list") for n in _sequence(data, "n_list", ()))
    try:
        initial_bloch = tuple(float(x) for x in _sequence(data, "initial_bloch", (0.0, 0.0, 1.0)))
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(str(exc)) from exc
    spec = SweepSpec(
        fixed=params,
        axis1=axes[0],
        axis2=axes[1] if len(axes) == 2 else None,
        quantities=tuple(quantities),
        n_list=n_list,
        initial_bloch=initial_bloch,
    )
    spec.validate()
    return spec


def _cell_to_obj(cell: PhaseCell, extra_keys: list[str]) -> dict:
    obj = dict(zip(cell.axis_names, cell.coords))
    obj["n"] = cell.n
    obj["phase"] = cell.phase.value
    obj["discriminant"] = cell.discriminant
    obj["eigenvalue_I_re"] = cell.eigenvalues.eigenvalue_I.real
    obj["eigenvalue_I_im"] = cell.eigenvalues.eigenvalue_I.imag
    obj["eigenvalue_II_re"] = cell.eigenvalues.eigenvalue_II.real
    obj["eigenvalue_II_im"] = cell.eigenvalues.eigenvalue_II.imag
    for key in extra_keys:
        if key in cell.extras:
            obj[key] = cell.extras[key]
    return obj


def export_json(cells: list[PhaseCell], path, spec: SweepSpec) -> None:
    """Write cells plus a `meta` object echoing the sweep spec."""
    _check_cells(cells)
    extra_keys = sorted({k for c in cells for k in c.extras})
    payload = {
        "meta": spec_to_dict(spec),
        "cells": [_cell_to_obj(c, extra_keys) for c in cells],
    }
    stream, owned = _open_for(path, "w")
    try:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    finally:
        if owned:
            stream.close()


def read_json(path) -> tuple[list[PhaseCell], SweepSpec]:
    """Parse a file produced by export_json back into (cells, spec)."""
    stream, owned = _open_for(path, "r")
    try:
        payload = json.load(stream)
    finally:
        if owned:
            stream.close()
    spec = spec_from_dict(payload["meta"])
    axis_names = tuple(a.name for a in (spec.axis1, spec.axis2) if a is not None)
    known = set(axis_names) | set(_BASE_COLUMNS)
    cells = []
    for obj in payload["cells"]:
        extras = {k: float(v) for k, v in obj.items() if k not in known}
        cells.append(
            PhaseCell(
                coords=tuple(float(obj[a]) for a in axis_names),
                axis_names=axis_names,
                n=int(obj["n"]),
                phase=Phase(obj["phase"]),
                discriminant=float(obj["discriminant"]),
                eigenvalues=Spectrum(
                    complex(obj["eigenvalue_I_re"], obj["eigenvalue_I_im"]),
                    complex(obj["eigenvalue_II_re"], obj["eigenvalue_II_im"]),
                ),
                extras=extras,
            )
        )
    return cells, spec
