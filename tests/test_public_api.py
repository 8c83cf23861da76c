"""The package-level public names of nhjc, pinned.

A change that adds or removes a public name must edit this list, so the
count shows in its diff.
"""

import types

import nhjc

PUBLIC_NAMES = [
    "Axis",
    "BiorthoSystem",
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
    "eigensystem",
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
    assert len(PUBLIC_NAMES) == 41
