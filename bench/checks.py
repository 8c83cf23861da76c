"""Output checks for the benchmark, independent of the code under test.

The phase, entropy and survival oracles recompute the closed forms with
numpy from the sweep spec alone; the eigenvalue oracle diagonalizes a block
built here with numpy.linalg.  None of them calls nhjc.  All checks run
outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

LN2 = math.log(2.0)

# First 16 hex digits of the sha256 of each preset output (ROADMAP "Recent").
GOLDENS = {
    "fig1.csv": "184322a8a78b2e29",
    "fig1.json": "2ea49d027d7acfab",
    "fig3.csv": "e25ff7489bff950e",
    "fig3.json": "ff0e45e5a5d6f213",
    "fig2a.csv": "a693e5abdb30fc25",
    "fig2d.csv": "7486d2217f034766",
    "fig2a.svg": "07b0808852700827",
    "dynamics.csv": "9ceec7f7610ce01d",
    "exponent.txt": "5fce419822ce78e8",
}

# Acceptance-gate tolerances (tests/test_acceptance.py, criteria 5, 7, 8).
ENTROPY_TOL = 1e-12
SURVIVAL_RTOL = 1e-10
UNBROKEN_WEIGHT_TOL = 1e-12
EXPONENT_RANGE = (-0.52, -0.48)


def golden_problem(name: str, data: bytes) -> str | None:
    """Mismatch message when `data` does not hash to the golden for `name`."""
    got = hashlib.sha256(data).hexdigest()[:16]
    want = GOLDENS[name]
    if got != want:
        return f"{name}: sha256 prefix {got}, golden {want}"
    return None


def phase_labels(omega, epsilon, gamma, n) -> np.ndarray:
    """Phase label per point, with the relative EP band of the model."""
    b2 = (omega - epsilon) ** 2
    c2 = 4.0 * gamma**2 * (n + 1)
    disc = b2 - c2
    tol = 1e-10 * np.maximum(1.0, np.maximum(b2, c2))
    return np.where(
        np.abs(disc) <= tol, "ExceptionalPoint", np.where(disc > 0.0, "Unbroken", "Broken")
    )


def grid_points(spec) -> list[tuple[int, dict[str, np.ndarray]]]:
    """Per block index, the parameters of every cell in export row order.

    Rows run n-major, then axis2, then axis1; the returned arrays hold the
    axis coordinates plus omega, epsilon, gamma (and t when swept).
    """
    axes = [a for a in (spec.axis1, spec.axis2) if a is not None]
    values = [np.linspace(a.min, a.max, a.steps) for a in axes]
    if len(axes) == 2:
        second, first = np.meshgrid(values[1], values[0], indexing="ij")
        columns = {axes[0].name: first.ravel(), axes[1].name: second.ravel()}
    else:
        columns = {axes[0].name: values[0]}
    size = next(iter(columns.values())).size
    out = []
    for n in tuple(spec.n_list) or (spec.fixed.n,):
        params = {
            "omega": np.full(size, float(spec.fixed.omega)),
            "epsilon": np.full(size, float(spec.fixed.epsilon)),
            "gamma": np.full(size, float(spec.fixed.gamma)),
        }
        for name, col in columns.items():
            if name == "delta":
                params["gamma"] = col / math.sqrt(n + 1)
            elif name == "delta_sq":
                params["gamma"] = np.sqrt(col / (n + 1))
            else:
                params[name] = col
        params["coords"] = [columns[a.name] for a in axes]
        out.append((n, params))
    return out


def sweep_problems(spec, cells) -> list[str]:
    """Row order, coordinates and phase labels against the numpy oracle,
    plus the entropy plateau and survival closed form where requested."""
    problems: list[str] = []
    blocks = grid_points(spec)
    expected_rows = sum(p["omega"].size for _, p in blocks)
    if len(cells) != expected_rows:
        return [f"{len(cells)} cells, expected {expected_rows}"]
    row = 0
    r_y = float(spec.initial_bloch[1])
    for n, params in blocks:
        labels = phase_labels(params["omega"], params["epsilon"], params["gamma"], n)
        b2 = (params["omega"] - params["epsilon"]) ** 2
        disc = b2 - 4.0 * params["gamma"] ** 2 * (n + 1)
        for k in range(labels.size):
            cell = cells[row]
            row += 1
            coords = tuple(float(c[k]) for c in params["coords"])
            if cell.n != n or tuple(cell.coords) != coords:
                problems.append(f"row {row}: n/coords {cell.n} {cell.coords}, expected {n} {coords}")
            label = labels[k]
            if cell.phase.value != label:
                problems.append(f"row {row}: phase {cell.phase.value}, oracle {label}")
                continue
            extras = cell.extras
            if "entropy" in spec.quantities and label == "Broken":
                for key in ("entropy_I", "entropy_II"):
                    if abs(extras.get(key, math.nan) - LN2) > ENTROPY_TOL:
                        problems.append(f"row {row}: {key} {extras.get(key)} off the ln 2 plateau")
            if "survival" in spec.quantities and label != "ExceptionalPoint":
                got = extras.get("survival", math.nan)
                if label == "Broken":
                    rate = 2.0 * 0.5 * math.sqrt(-disc[k]) * params["t"][k]
                    want = math.cosh(rate) + r_y * math.sinh(rate)
                    ok = abs(got - want) <= SURVIVAL_RTOL * max(1.0, abs(want))
                else:
                    want = 1.0
                    ok = abs(got - want) <= UNBROKEN_WEIGHT_TOL
                if not ok:
                    problems.append(f"row {row}: survival {got}, closed form {want}")
            if len(problems) > 20:
                return problems
    return problems


def csv_label_problems(path: str, spec) -> list[str]:
    """Parse an exported CSV with the csv module and compare its coordinate
    and phase columns with the oracle."""
    with open(path, newline="") as stream:
        rows = csv.reader(stream)
        header = next(rows)
        axis_names = [a.name for a in (spec.axis1, spec.axis2) if a is not None]
        at = [header.index(name) for name in axis_names]
        at_n, at_phase = header.index("n"), header.index("phase")
        problems = []
        count = 0
        for n, params in grid_points(spec):
            labels = phase_labels(params["omega"], params["epsilon"], params["gamma"], n)
            for k in range(labels.size):
                fields = next(rows, None)
                if fields is None:
                    return [f"{path}: ends after {count} rows"]
                count += 1
                coords = [float(fields[i]) for i in at]
                if int(fields[at_n]) != n or coords != [float(c[k]) for c in params["coords"]]:
                    problems.append(f"{path} row {count}: coordinates {coords}")
                if fields[at_phase] != labels[k]:
                    problems.append(f"{path} row {count}: phase {fields[at_phase]}, oracle {labels[k]}")
                if len(problems) > 20:
                    return problems
        if next(rows, None) is not None:
            problems.append(f"{path}: more rows than the grid has")
    return problems


def block_matrix(omega: float, epsilon: float, gamma: float, n: int) -> np.ndarray:
    """Hamiltonian block on the (n+1)-th subspace, built without nhjc."""
    d = math.sqrt(n + 1) * gamma
    return np.array(
        [[0.5 * epsilon + n * omega, d], [-d, -0.5 * epsilon + (n + 1) * omega]],
        dtype=complex,
    )


def eigenvalue_problem(omega, epsilon, gamma, n, pair, tol) -> str | None:
    """Compare a closed-form eigenvalue pair with numpy.linalg.eigvals.

    `tol` is relative to the block's Frobenius norm; of the two ways to pair
    the eigenvalues, the one with the smaller worst error is used.
    """
    m = block_matrix(omega, epsilon, gamma, n)
    a, b = np.linalg.eigvals(m)
    x, y = pair
    err = min(max(abs(a - x), abs(b - y)), max(abs(a - y), abs(b - x)))
    limit = tol * max(1.0, float(np.linalg.norm(m)))
    if not err <= limit:
        return f"eigenvalues {pair} differ from eigvals {(a, b)} by {err:.3g} > {limit:.3g}"
    return None
