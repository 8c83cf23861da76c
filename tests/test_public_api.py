"""The package-level public names of nhjc, pinned.

A change that adds or removes a public name must edit this list, so the
count shows in its diff.  The package also carries no dead code: no module
imports a name it never loads, and every private module-level name is
loaded somewhere in the package.
"""

import ast
import pathlib
import types

import nhjc

PUBLIC_NAMES = [
    "Axis",
    "BlochState",
    "Branch",
    "EffectiveGenerator",
    "EmptySweepError",
    "ExceptionalPointError",
    "LN2",
    "MetricBundle",
    "ModelParams",
    "Phase",
    "PhaseCell",
    "PhaseLabel",
    "ReducedSpectrum",
    "SpecValidationError",
    "Spectrum",
    "SweepFileError",
    "SweepSpec",
    "SweepTable",
    "build_block",
    "classify_phase",
    "critical_gamma",
    "default_time_grid",
    "effective_generator",
    "eigenvector_ratios",
    "entanglement_entropy",
    "evolve_no_jump",
    "export_csv",
    "export_json",
    "ground_state_energy",
    "intertwiner",
    "metric",
    "metric_divergence_exponent",
    "projectors",
    "read_csv",
    "read_json",
    "reduced_spectrum",
    "render_svg",
    "run_sweep",
    "spectrum_closed_form",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(nhjc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 39


# --- dead code ----------------------------------------------------------------

SRC = pathlib.Path(nhjc.__file__).parent


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_no_module_imports_a_name_it_never_loads():
    # __init__.py imports to re-export; a __future__ import is a compiler flag
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        loaded = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_module_level_name_is_loaded_in_the_package():
    modules = _modules()
    loaded = set().union(*map(_loaded_names, modules.values()))
    # a private name may also be reached as an attribute, module._name
    loaded |= {
        node.attr for tree in modules.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for target in targets for t in ast.walk(target)
                           if isinstance(t, ast.Name)]
            else:
                continue
            unused += [
                f"{name}: {d}" for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in loaded
            ]
    assert unused == []
