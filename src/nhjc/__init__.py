"""Non-Hermitian Jaynes-Cummings blocks: spectra, metrics, dynamics, entropy.

The package works on the 2x2 invariant subspaces of the Hamiltonian
(epsilon/2) sigma_z + omega a^dag a + gamma (sigma_+ a - sigma_- a^dag):
closed-form spectra and phase classification around the exceptional points,
eigenvector ratios, spectral projectors and the metric/intertwiner
construction, no-jump conditional dynamics, spin-oscillator entanglement
entropy, and parameter sweeps with CSV/JSON/SVG export (see the `nhjc`
command-line tool).
"""

from .biortho import (
    MetricBundle,
    eigenvector_ratios,
    intertwiner,
    metric,
    metric_divergence_exponent,
    projectors,
)
from .dynamics import (
    BlochState,
    EffectiveGenerator,
    default_time_grid,
    effective_generator,
    evolve_no_jump,
)
from .entropy import (
    LN2,
    ReducedSpectrum,
    entanglement_entropy,
    reduced_spectrum,
)
from .errors import (
    EmptySweepError,
    ExceptionalPointError,
    SpecValidationError,
    SweepFileError,
)
from .model import (
    Branch,
    ModelParams,
    Phase,
    PhaseLabel,
    Spectrum,
    build_block,
    classify_phase,
    critical_gamma,
    ground_state_energy,
    spectrum_closed_form,
)
from .plots import render_svg
from .scan import (
    Axis,
    PhaseCell,
    SweepSpec,
    SweepTable,
    export_csv,
    export_json,
    read_csv,
    read_json,
    run_sweep,
)

__version__ = "0.1.0"
