"""The three benchmark workloads and their seeded inputs.

A workload is a fixed list of requests making up one pass.  Each request
fills an `out` dict when called and has a check that inspects that dict
afterwards, outside the timed region.  nhjc functions are always looked up
as module attributes at call time, so the traced run sees every call.

- figures: the CLI path that regenerates the paper's figures.  Cells are
  cheap (phase labels), so formatting, parsing, SVG rendering and option
  resolution dominate; seed-independent.
- physics_sweeps: library sweeps across the exceptional point for a seeded
  family of (omega, epsilon, n).  Per-cell physics dominates.
- pointwise: the scalar API on seeded draws, without `scan`.  Fixed shares
  of EP-band draws (documented ExceptionalPointError) and of draws that
  overflow (undocumented OverflowError, counted as failed).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from nhjc import biortho, cli, dynamics, entropy, model, scan

import checks


@dataclass
class Request:
    label: str
    run: Callable[[dict], None]
    check: Callable[[dict], list]
    # Inputs on which a documented ValueError is an acceptable outcome.
    hard: bool = False


@dataclass
class Workload:
    name: str
    requests: list[Request]
    cells_per_pass: int
    sizes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# figures


def _preset_spec(name: str):
    return scan.spec_from_dict(cli.PRESETS[name])


def _dynamics_spec():
    # what `nhjc dynamics --gamma 4 --r0 0,0,1` sweeps: 500 points on [0, 5/rate]
    p = model.ModelParams(1.0, 5.0, 4.0, 0)
    grid = dynamics.default_time_grid(dynamics.effective_generator(p))
    return scan.spec_from_dict({
        "fixed": {"omega": 1.0, "epsilon": 5.0, "gamma": 4.0, "n": 0},
        "axes": [{"name": "t", "min": float(grid[0]), "max": float(grid[-1]),
                  "steps": len(grid)}],
        "quantities": ["survival", "bloch"],
        "initial_bloch": [0.0, 0.0, 1.0],
    })


def _cell_count(spec) -> int:
    steps = spec.axis1.steps * (spec.axis2.steps if spec.axis2 is not None else 1)
    return steps * max(1, len(spec.n_list))


def _cli_request(argv: list[str], path: str, golden: str | None, oracle_spec=None) -> Request:
    def run(out):
        out["rc"] = cli.cli_main(argv + ["--out", path])

    def check(out):
        if out["rc"] != 0:
            return [f"{' '.join(argv)}: exit code {out['rc']}"]
        problems = []
        if golden is not None:
            with open(path, "rb") as stream:
                problem = checks.golden_problem(golden, stream.read())
            if problem:
                problems.append(problem)
        if oracle_spec is not None:
            problems += checks.csv_label_problems(path, oracle_spec)
        return problems

    return Request(" ".join(argv), run, check)


def _read_request(path: str, spec_factory, as_json: bool) -> Request:
    def run(out):
        out["read"] = scan.read_json(path) if as_json else scan.read_csv(path)

    def check(out):
        spec = spec_factory()
        expected = scan.run_sweep(spec)
        got = out["read"]
        if as_json:
            got, got_spec = got
            if got_spec != spec:
                return [f"read_json {os.path.basename(path)}: spec differs"]
        if got != expected:
            return [f"read {os.path.basename(path)}: cells differ from the sweep"]
        return []

    return Request("read " + os.path.basename(path), run, check)


def figures(seed: int, out_dir: str) -> Workload:
    del seed  # the presets are fixed
    reqs = []
    cells = 0
    jobs = [("spectrum", "fig1", "csv"), ("spectrum", "fig1", "json"),
            ("entropy", "fig3", "csv"), ("entropy", "fig3", "json")]
    jobs += [("phase-map", f"fig2{c}", "csv") for c in "abcd"]
    for command, preset, fmt in jobs:
        name = f"{preset}.{fmt}"
        path = os.path.join(out_dir, name)
        oracle = _preset_spec(preset) if preset in ("fig2b", "fig2c") else None
        reqs.append(_cli_request(
            [command, "--preset", preset, "--format", fmt], path,
            name if name in checks.GOLDENS else None, oracle))
        reqs.append(_read_request(path, lambda p=preset: _preset_spec(p), fmt == "json"))
        cells += _cell_count(_preset_spec(preset))
    reqs.append(_cli_request(["phase-map", "--preset", "fig2a", "--format", "svg"],
                             os.path.join(out_dir, "fig2a.svg"), "fig2a.svg"))
    cells += _cell_count(_preset_spec("fig2a"))
    dyn = os.path.join(out_dir, "dynamics.csv")
    reqs.append(_cli_request(["dynamics", "--gamma", "4", "--r0", "0,0,1"], dyn, "dynamics.csv"))
    reqs.append(_read_request(dyn, _dynamics_spec, False))
    cells += _cell_count(_dynamics_spec())
    reqs.append(_cli_request(["exponent"], os.path.join(out_dir, "exponent.txt"), "exponent.txt"))
    return Workload("figures", reqs, cells, {"requests": len(reqs)})


# ---------------------------------------------------------------------------
# physics_sweeps

FAMILY_SIZE = 6
EP_GRID = (60, 50)   # gamma steps x epsilon steps
DYN_GRID = (60, 50)  # t steps x gamma steps


def _sweep_request(label: str, spec, path: str) -> Request:
    def run(out):
        cells = scan.run_sweep(spec)
        scan.export_csv(cells, path)
        out["cells"] = cells

    def check(out):
        return checks.sweep_problems(spec, out["cells"])

    return Request(label, run, check)


def physics_family(seed: int) -> list[tuple[float, float, int, tuple]]:
    """(omega, epsilon, n, initial Bloch vector) per member of the family.

    |omega - epsilon| is kept in [1, 4], so every grid below spans the EP.
    """
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(FAMILY_SIZE):
        omega = float(rng.uniform(0.5, 2.0))
        gap = float(rng.uniform(1.0, 4.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        n = int(rng.integers(0, 6))
        r = rng.normal(size=3)
        r *= float(rng.uniform(0.0, 1.0)) / float(np.linalg.norm(r))
        family.append((omega, omega - gap, n, tuple(float(x) for x in r)))
    return family


def physics_sweeps(seed: int, out_dir: str) -> Workload:
    reqs = []
    cells = 0
    for i, (omega, epsilon, n, r0) in enumerate(physics_family(seed)):
        gap = abs(omega - epsilon)
        g_c = gap / (2.0 * math.sqrt(n + 1))
        fixed = model.ModelParams(omega, epsilon, g_c, n)
        ep_spec = scan.SweepSpec(
            fixed=fixed,
            axis1=scan.Axis("gamma", 0.1 * g_c, 2.0 * g_c, EP_GRID[0]),
            axis2=scan.Axis("epsilon", epsilon - 0.5 * gap, epsilon + 0.5 * gap, EP_GRID[1]),
            quantities=("metric_norm", "entropy", "phase"),
        )
        # at gamma = 2 g_c, Gamma = (sqrt 3 / 2) gap; t reaches 2 Gamma t = 6
        t_max = 3.0 / (0.5 * math.sqrt(3.0) * gap)
        dyn_spec = scan.SweepSpec(
            fixed=fixed,
            axis1=scan.Axis("t", 0.0, t_max, DYN_GRID[0]),
            axis2=scan.Axis("gamma", 0.1 * g_c, 2.0 * g_c, DYN_GRID[1]),
            quantities=("survival", "bloch"),
            initial_bloch=r0,
        )
        reqs.append(_sweep_request(f"ep-grid {i}", ep_spec, os.path.join(out_dir, f"ep-{i}.csv")))
        reqs.append(_sweep_request(f"dyn-grid {i}", dyn_spec, os.path.join(out_dir, f"dyn-{i}.csv")))
        cells += EP_GRID[0] * EP_GRID[1] + DYN_GRID[0] * DYN_GRID[1]
    return Workload("physics_sweeps", reqs, cells, {"sweeps": len(reqs)})


# ---------------------------------------------------------------------------
# pointwise

POINTS = 4000
# Fixed shares of hard draws, independent of the seed.
EP_BAND_POINTS = 160        # |D| inside the EP band: ExceptionalPointError
T_OVERFLOW_POINTS = 40      # broken phase at 2 Gamma t in [720, 1000]
GAMMA_OVERFLOW_POINTS = 40  # |gamma| ~ 1e200: the discriminant overflows
# Normal draws that also fit the divergence exponent on both sides of the
# EP.  These are the slowest requests by design, so the tail percentile lands
# inside one population instead of on the edge of sporadic host stalls.
FIT_POINTS = 20


@dataclass(frozen=True)
class Point:
    omega: float
    epsilon: float
    gamma: float
    n: int
    t: float
    r0: np.ndarray
    kind: str  # normal, ep_band, t_overflow or gamma_overflow
    fit: bool = False


def _bloch(rng) -> np.ndarray:
    r = rng.normal(size=3)
    return r * (float(rng.uniform(0.0, 1.0)) / float(np.linalg.norm(r)))


def _normal_draw(rng, broken: bool, min_gap: float = 0.0):
    while True:
        omega = float(rng.uniform(-3.0, 3.0))
        epsilon = float(rng.uniform(-5.0, 5.0))
        gamma = float(rng.uniform(0.05, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        n = int(rng.integers(0, 6))
        b2 = (omega - epsilon) ** 2
        c2 = 4.0 * gamma**2 * (n + 1)
        d = b2 - c2
        # keep a margin from the EP band, as the acceptance gate's draws do
        if abs(d) < 1e-3 * max(1.0, b2, c2) or (d < 0.0) != broken:
            continue
        if abs(omega - epsilon) < min_gap:
            continue
        return omega, epsilon, gamma, n, d


def pointwise_points(seed: int) -> list[Point]:
    rng = np.random.default_rng(seed)
    points = []
    normal = POINTS - EP_BAND_POINTS - T_OVERFLOW_POINTS - GAMMA_OVERFLOW_POINTS
    for i in range(normal):
        broken = i % 2 == 1
        fit = i < FIT_POINTS
        if fit:
            # delta_c = |omega - epsilon| / 2 >= 1.5 keeps the fit window
            # (offsets up to 0.1) well inside one phase
            omega, epsilon, gamma, n, d = _normal_draw(rng, broken, min_gap=3.0)
        else:
            omega, epsilon, gamma, n, d = _normal_draw(rng, broken)
        if broken:
            rate = math.sqrt(-d)  # 2 Gamma
            t = float(rng.uniform(0.0, 6.0 / rate))
        else:
            t = float(rng.uniform(0.0, 10.0))
        points.append(Point(omega, epsilon, gamma, n, t, _bloch(rng), "normal", fit))
    for _ in range(EP_BAND_POINTS):
        omega = float(rng.uniform(-3.0, 3.0))
        epsilon = omega + float(rng.uniform(0.5, 5.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        n = int(rng.integers(0, 6))
        gamma = abs(omega - epsilon) / (2.0 * math.sqrt(n + 1))
        gamma *= 1.0 if rng.random() < 0.5 else -1.0
        points.append(Point(omega, epsilon, gamma, n, 1.0, _bloch(rng), "ep_band"))
    for _ in range(T_OVERFLOW_POINTS):
        omega, epsilon, gamma, n, d = _normal_draw(rng, broken=True)
        t = float(rng.uniform(720.0, 1000.0)) / math.sqrt(-d)
        points.append(Point(omega, epsilon, gamma, n, t, _bloch(rng), "t_overflow"))
    for _ in range(GAMMA_OVERFLOW_POINTS):
        omega = float(rng.uniform(-3.0, 3.0))
        epsilon = float(rng.uniform(-5.0, 5.0))
        gamma = float(rng.uniform(1.0, 9.0)) * 1e200 * (1.0 if rng.random() < 0.5 else -1.0)
        n = int(rng.integers(0, 6))
        points.append(Point(omega, epsilon, gamma, n, 1.0, _bloch(rng), "gamma_overflow"))
    order = rng.permutation(len(points))
    return [points[k] for k in order]


def _run_point(pt: Point, out: dict) -> None:
    p = model.ModelParams(pt.omega, pt.epsilon, pt.gamma, pt.n)
    out["label"] = model.classify_phase(p)
    out["spectrum"] = model.spectrum_closed_form(p)
    out["entropy"] = (
        entropy.entanglement_entropy(p, model.Branch.I),
        entropy.entanglement_entropy(p, model.Branch.II),
    )
    out["metric"] = biortho.metric(p)
    out["bundle"] = biortho.intertwiner(p)
    out["projectors"] = biortho.projectors(p)
    gen = dynamics.effective_generator(p)
    out["state"] = dynamics.evolve_no_jump(gen, dynamics.BlochState(pt.r0), pt.t)
    if pt.fit:
        out["slopes"] = (
            biortho.metric_divergence_exponent(p, "below"),
            biortho.metric_divergence_exponent(p, "above"),
        )


def _point_check(pt: Point, out: dict) -> list[str]:
    if pt.kind == "gamma_overflow":
        return []  # the oracle overflows as well; any documented outcome is fine
    problems = []
    oracle = str(checks.phase_labels(pt.omega, pt.epsilon, pt.gamma, pt.n))
    if "label" in out and out["label"].value.value != oracle:
        problems.append(f"{pt}: phase {out['label'].value.value}, oracle {oracle}")
    if "spectrum" in out:
        spec = out["spectrum"]
        # eigvals of a defective block is only accurate to sqrt(machine eps)
        tol = 1e-6 if pt.kind == "ep_band" else 1e-10
        problem = checks.eigenvalue_problem(
            pt.omega, pt.epsilon, pt.gamma, pt.n,
            (spec.eigenvalue_I, spec.eigenvalue_II), tol)
        if problem:
            problems.append(f"{pt}: {problem}")
    lo, hi = checks.EXPONENT_RANGE
    for slope in out.get("slopes", ()):
        if not lo <= slope <= hi:
            problems.append(f"{pt}: divergence exponent {slope}")
    return problems


def pointwise(seed: int, out_dir: str) -> Workload:
    del out_dir  # the scalar API writes nothing
    reqs = []
    for k, pt in enumerate(pointwise_points(seed)):
        reqs.append(Request(
            f"point {k} ({pt.kind})",
            lambda out, pt=pt: _run_point(pt, out),
            lambda out, pt=pt: _point_check(pt, out),
            hard=pt.kind != "normal",
        ))
    return Workload("pointwise", reqs, POINTS, {
        "points": POINTS, "ep_band": EP_BAND_POINTS, "t_overflow": T_OVERFLOW_POINTS,
        "gamma_overflow": GAMMA_OVERFLOW_POINTS, "exponent_fits": FIT_POINTS,
    })


WORKLOADS = {"figures": figures, "physics_sweeps": physics_sweeps, "pointwise": pointwise}
