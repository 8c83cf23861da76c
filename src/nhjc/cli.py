"""Command-line interface.

Subcommands map onto the library surface: `spectrum`, `phase-map`, `metric`,
`entropy` and `dynamics` run sweeps and export CSV/JSON/SVG; `exponent`
fits the metric divergence exponent.  Options are resolved in the order
defaults < --preset < --config file < explicit flags: a later layer replaces
a key, except `fixed`, which merges key by key, and a null value means not
set, so the key takes its default.  `exponent` reads only `fixed`.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .biortho import metric_divergence_exponent
from .dynamics import default_time_grid, effective_generator
from .errors import SpecValidationError
from .plots import render_svg
from .scan import _opened, _params_from_dict, export_csv, export_json, run_sweep, spec_from_dict

__all__ = ["build_parser", "cli_main", "main", "PRESETS"]

_DEFAULT_QUANTITIES = {
    "spectrum": ["eigenvalues", "phase"],
    "phase-map": ["phase"],
    "metric": ["metric_norm", "phase"],
    "entropy": ["entropy", "phase"],
    "dynamics": ["survival", "bloch"],
}

# Canonical figure sweeps.  fig2x rasters share omega = 1 and differ in the
# block index; fig3 realizes the half-open grid (0, 16] for delta^2.
PRESETS = {
    "fig1": {
        "fixed": {"omega": 1.0, "epsilon": 5.0, "n": 0},
        "axes": [{"name": "delta", "min": 0.0, "max": 4.0, "steps": 400}],
        "quantities": ["eigenvalues", "phase"],
    },
    "fig3": {
        "fixed": {"omega": 1.0, "epsilon": 5.0, "n": 0},
        "axes": [{"name": "delta_sq", "min": 16.0 / 500.0, "max": 16.0, "steps": 500}],
        "quantities": ["entropy", "phase"],
    },
}
for _i, _name in enumerate(("fig2a", "fig2b", "fig2c", "fig2d")):
    PRESETS[_name] = {
        "fixed": {"omega": 1.0, "n": _i},
        "axes": [
            {"name": "gamma", "min": 0.0, "max": 3.0, "steps": 200},
            {"name": "epsilon", "min": -5.0, "max": 7.0, "steps": 200},
        ],
        "quantities": ["phase"],
    }


# an error is reported on one line, whatever text it quotes: the line
# breaks in it are written escaped
_ONE_LINE = str.maketrans({"\n": "\\n", "\r": "\\r"})


def _report(kind: str, message) -> None:
    print(f"nhjc: {kind}: {str(message).translate(_ONE_LINE)}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # usage errors are validation errors (exit 1); exit 2 is reserved for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        _report("error", message)
        raise SystemExit(1)


def _fields(flag: str, text: str, form: str, sep: str, kinds) -> list:
    """A flag's text split at sep, each field read in turn by its kind;
    SpecValidationError naming the flag and the form it expects."""
    parts = text.split(sep)
    if len(parts) != len(kinds):
        raise SpecValidationError(f"{flag} expects {form}, got {text!r}")
    try:
        return [kind(x) for kind, x in zip(kinds, parts)]
    except ValueError as exc:
        raise SpecValidationError(f"{flag} {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--omega", type=float, default=None, help="oscillator frequency (default 1)")
    common.add_argument("--epsilon", type=float, default=None, help="two-level splitting (default 5)")
    common.add_argument("--gamma", type=float, default=None, help="coupling (default 1)")
    common.add_argument("--n", type=int, default=None, help="block index (default 0)")
    common.add_argument(
        "--grid",
        action="append",
        metavar="AXIS:MIN:MAX:STEPS",
        help="sweep axis (repeat for 2-d); axes: gamma, epsilon, omega, delta, delta_sq, t",
    )
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument(
        "--format", choices=("csv", "json", "svg"), default="csv", help="output format"
    )
    common.add_argument("--config", default=None, help="JSON config file mirroring the sweep spec")
    common.add_argument(
        "--preset", choices=sorted(PRESETS), default=None, help="named canonical sweep"
    )

    parser = _Parser(prog="nhjc", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common], help="eigenvalue branches along a 1-d grid")
    sub.add_parser("phase-map", parents=[common], help="phase labels on a 2-d grid")
    sub.add_parser("metric", parents=[common], help="metric norm along a grid")
    sub.add_parser("entropy", parents=[common], help="entanglement entropy along a grid")
    dyn = sub.add_parser("dynamics", parents=[common], help="no-jump evolution over time")
    dyn.add_argument("--r0", default=None, metavar="X,Y,Z", help="initial Bloch vector (default 0,0,1)")
    sub.add_parser("exponent", parents=[common], help="metric divergence exponent fit")
    return parser


def _resolved(args) -> dict:
    """The options of a run from its layers, defaults < preset < config < flags.

    A later layer replaces a key, except `fixed`, which merges key by key.
    A null value means not set: the key takes its default, whatever an
    earlier layer gave it.
    """
    config = {}
    if args.config:
        with open(args.config) as stream:
            try:
                config = json.load(stream)
            except (ValueError, RecursionError) as exc:  # a missing file stays an OSError
                raise SpecValidationError(f"config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise SpecValidationError("config: expected a JSON object")
    name = args.preset or config.get("preset")
    if name is not None and (not isinstance(name, str) or name not in PRESETS):
        raise SpecValidationError(f"preset: unknown {name!r}, allowed {sorted(PRESETS)}")
    fixed = {k: getattr(args, k) for k in ("omega", "epsilon", "gamma", "n")}
    flags = {"fixed": {k: v for k, v in fixed.items() if v is not None}}
    if args.grid:
        kinds = (str, float, float, int)
        grids = (_fields("--grid", g, "AXIS:MIN:MAX:STEPS", ":", kinds) for g in args.grid)
        flags["axes"] = [dict(zip(("name", "min", "max", "steps"), grid)) for grid in grids]
    if getattr(args, "r0", None) is not None:
        flags["initial_bloch"] = _fields("--r0", args.r0, "X,Y,Z", ",", (float,) * 3)
    merged: dict = {}
    for layer in (PRESETS.get(name, {}), config, flags):
        for key, value in layer.items():
            if key == "fixed" and value is not None:
                if not isinstance(value, dict):
                    raise SpecValidationError("fixed: expected a JSON object")
                value = {**(merged.get("fixed") or {}), **value}
                value = {k: v for k, v in value.items() if v is not None}
            merged[key] = value
    defaults = {"quantities": _DEFAULT_QUANTITIES.get(args.command)}
    return defaults | {k: v for k, v in merged.items() if v is not None}


def _run(args) -> None:
    options = _resolved(args)
    command = args.command
    # not `args.out or sys.stdout`: --out "" names no file and must fail as i/o
    target = sys.stdout if args.out is None else args.out
    if command == "exponent":
        p = _params_from_dict(options.get("fixed", {}))
        lines = [
            f"slope_below = {metric_divergence_exponent(p, 'below'):.6f}",
            f"slope_above = {metric_divergence_exponent(p, 'above'):.6f}",
        ]
        with _opened(target, "w") as stream:
            stream.write("\n".join(lines) + "\n")
        return
    axes = options.get("axes", [])  # {} or 0 is for spec_from_dict to reject
    if axes == [] and command == "dynamics":
        # no grid given: 500 points on [0, 5/rate] for the fixed parameters
        gen = effective_generator(_params_from_dict(options.get("fixed", {})))
        grid = default_time_grid(gen)
        axes = options["axes"] = [
            {"name": "t", "min": float(grid[0]), "max": float(grid[-1]), "steps": len(grid)}
        ]
    if axes == []:
        raise SpecValidationError(f"{command}: needs --grid or --preset")
    # counted before spec_from_dict, which would name `axes` for three --grid flags
    if isinstance(axes, list) and len(axes) != 1 + (command == "phase-map"):
        if command == "phase-map":
            raise SpecValidationError("phase-map: needs exactly two --grid axes")
        raise SpecValidationError(f"{command}: needs exactly one --grid axis")
    spec = spec_from_dict(options)
    table = run_sweep(spec)
    if args.format == "csv":
        export_csv(table, target)
    elif args.format == "json":
        export_json(table, target, spec)
    else:
        render_svg(table, target, kind="raster" if command == "phase-map" else command, spec=spec)


# built by the first cli_main call and reused: parse_args keeps no state
# between calls, and usage and help text go to sys.stderr and sys.stdout as
# they are at the time of the call
_parser: argparse.ArgumentParser | None = None


def cli_main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of exiting."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        _run(args)
        return 0
    except OSError as exc:
        _report("i/o error", exc)
        return 2
    except ValueError as exc:
        _report("error", exc)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
