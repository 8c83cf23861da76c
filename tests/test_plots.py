"""Tests for the deterministic SVG rendering."""

import contextlib
import dataclasses
import hashlib
import io
import xml.etree.ElementTree as ET

import pytest

from nhjc.cli import cli_main
from nhjc.model import ModelParams
from nhjc.plots import render_svg
from nhjc.scan import Axis, SweepSpec, export_csv, read_csv, run_sweep

FIXED = ModelParams(1.0, 5.0, 1.0, 0)


def spectrum_cells():
    spec = SweepSpec(
        fixed=FIXED,
        axis1=Axis("delta", 0.0, 4.0, 40),
        quantities=("eigenvalues", "phase"),
    )
    return run_sweep(spec), spec


def raster_cells():
    spec = SweepSpec(
        fixed=FIXED,
        axis1=Axis("gamma", 0.0, 3.0, 12),
        axis2=Axis("epsilon", -5.0, 7.0, 10),
        quantities=("phase",),
    )
    return run_sweep(spec), spec


def render_to_string(cells, **kwargs):
    buf = io.StringIO()
    render_svg(cells, buf, **kwargs)
    return buf.getvalue()


def test_line_plot_is_valid_svg(tmp_path):
    cells, spec = spectrum_cells()
    path = tmp_path / "spectrum.svg"
    render_svg(cells, path, kind="spectrum", spec=spec)
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert "polyline" in body
    for label in ("Re I", "Re II", "Im I", "Im II"):
        assert label in body
    # the sweep crosses delta = 2, so the EP marker line is drawn
    assert 'stroke-dasharray="4,4"' in body


def test_raster_plot_tiles_every_cell(tmp_path):
    cells, spec = raster_cells()
    text = render_to_string(cells, kind="raster", spec=spec)
    ET.fromstring(text)
    # one background rect, one tile per cell, plus legend swatches
    assert text.count("<rect") >= len(cells) + 1
    assert "unbroken" in text and "broken" in text
    assert 'stroke-dasharray="5,3"' in text  # analytic boundary overlay


def test_kind_auto_dispatch():
    cells, spec = raster_cells()
    assert render_to_string(cells, kind="auto", spec=spec) == render_to_string(
        cells, kind="raster", spec=spec
    )
    line_cells, line_spec = spectrum_cells()
    assert render_to_string(line_cells, kind="auto", spec=line_spec) == render_to_string(
        line_cells, kind="spectrum", spec=line_spec
    )
    entropy_spec = SweepSpec(
        fixed=FIXED, axis1=Axis("delta_sq", 0.1, 16.0, 20), quantities=("entropy",)
    )
    entropy_text = render_to_string(run_sweep(entropy_spec), kind="auto", spec=entropy_spec)
    assert "S I" in entropy_text and "S II" in entropy_text
    for kind, axis, quantities in (
        ("metric", Axis("delta", 0.0, 1.9, 20), ("metric_norm",)),
        ("dynamics", Axis("t", 0.0, 1.0, 25), ("bloch",)),
    ):
        spec = SweepSpec(fixed=ModelParams(1.0, 5.0, 4.0, 0), axis1=axis, quantities=quantities)
        table = run_sweep(spec)
        assert render_to_string(table, kind="auto", spec=spec) == render_to_string(
            table, kind=kind, spec=spec
        )


def _cli_svg(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv + ["--format", "svg"]) == 0
    return out.getvalue()


# sha256 prefixes of the line plots: the CLI's four kinds and a Bloch-only
# table drawn with kind "auto", so each kind's series, their order, labels
# and NaN gaps keep their bytes
LINE_PLOTS = {
    "spectrum": (lambda: _cli_svg(["spectrum", "--preset", "fig1"]), "30bd4812f24ff952"),
    "entropy": (lambda: _cli_svg(["entropy", "--preset", "fig3"]), "8943867899ac227d"),
    # the EP cell at gamma = 2 omits its metric norm
    "metric": (lambda: _cli_svg(["metric", "--grid", "gamma:0:4:401"]), "74b36dffee0849c8"),
    "dynamics": (
        lambda: _cli_svg(["dynamics", "--gamma", "4", "--r0", "0,0,1"]), "64ded259110e6b05"
    ),
    "bloch only": (
        lambda: render_to_string(run_sweep(BLOCH_ONLY), spec=BLOCH_ONLY), "e8752d5effc414df"
    ),
}
BLOCH_ONLY = SweepSpec(
    fixed=ModelParams(1.0, 5.0, 4.0, 0),
    axis1=Axis("t", 0.0, 1.0, 50),
    quantities=("bloch",),
    initial_bloch=(0.3, -0.4, 0.5),
)


@pytest.mark.parametrize("name", sorted(LINE_PLOTS))
def test_line_plot_matches_pin(name):
    render, prefix = LINE_PLOTS[name]
    assert hashlib.sha256(render().encode()).hexdigest()[:16] == prefix


def test_dynamics_and_metric_kinds():
    dyn_spec = SweepSpec(
        fixed=ModelParams(1.0, 5.0, 4.0, 0),
        axis1=Axis("t", 0.0, 1.0, 25),
        quantities=("survival", "bloch"),
    )
    text = render_to_string(run_sweep(dyn_spec), kind="dynamics", spec=dyn_spec)
    ET.fromstring(text)
    for label in ("D(t)", "r_x", "r_y", "r_z"):
        assert label in text
    metric_spec = SweepSpec(
        fixed=FIXED, axis1=Axis("delta", 0.0, 1.9, 20), quantities=("metric_norm",)
    )
    text = render_to_string(run_sweep(metric_spec), kind="metric", spec=metric_spec)
    assert "|G|" in text


def test_rendering_is_deterministic(tmp_path):
    cells, spec = raster_cells()
    one = tmp_path / "one.svg"
    two = tmp_path / "two.svg"
    render_svg(cells, one, kind="raster", spec=spec)
    render_svg(cells, two, kind="raster", spec=spec)
    assert one.read_bytes() == two.read_bytes()


def test_raster_requires_two_axes():
    cells, spec = spectrum_cells()
    with pytest.raises(ValueError):
        render_to_string(cells, kind="raster", spec=spec)


def test_raster_requires_one_block_index():
    spec = dataclasses.replace(raster_cells()[1], n_list=(0, 1))
    with pytest.raises(ValueError, match="^SVG rendering expects a single block index$"):
        render_to_string(run_sweep(spec), kind="raster", spec=spec)


@pytest.mark.parametrize("kind", ["auto", "spectrum", "entropy", "metric", "dynamics"])
def test_line_plots_require_one_block_index(kind):
    # one polyline per series would run from the last block's end back to the first's start
    spec = SweepSpec(FIXED, Axis("t", 0.0, 1.0, 5), n_list=(0, 1),
                     quantities=("entropy", "metric_norm", "survival", "bloch"))
    with pytest.raises(ValueError, match="^SVG rendering expects a single block index$"):
        render_to_string(run_sweep(spec), kind=kind, spec=spec)


def test_unknown_kind_raises():
    cells, spec = spectrum_cells()
    with pytest.raises(ValueError, match="^unknown plot kind 'pie'$"):
        render_to_string(cells, kind="pie", spec=spec)


def _boundary(text):
    return [line for line in text.splitlines() if 'stroke-dasharray="5,3"' in line]


def test_epsilon_gamma_raster_overlays_its_boundary_only_with_a_spec():
    spec = SweepSpec(FIXED, Axis("epsilon", -5.0, 7.0, 10), Axis("gamma", 0.0, 3.0, 12))
    table = run_sweep(spec)
    with_spec, without = render_to_string(table, spec=spec), render_to_string(table)
    # gamma_c = |omega - epsilon| / 2 is one branch over the whole epsilon axis
    (line,) = _boundary(with_spec)
    assert len(line.split('points="')[1].split()) == 10
    assert not _boundary(without)
    assert without.splitlines() == [x for x in with_spec.splitlines() if x != line]


def test_epsilon_line_plot_has_no_ep_marker():
    spec = SweepSpec(FIXED, Axis("epsilon", -5.0, 7.0, 30), quantities=("metric_norm",))
    table = run_sweep(spec)
    text = render_to_string(table, spec=spec)
    assert 'stroke-dasharray="4,4"' not in text
    assert text == render_to_string(table)


def _first_row(spec):
    """The first cell of a sweep as a one-row table, read back from its CSV."""
    buf = io.StringIO()
    export_csv(run_sweep(spec), buf)
    return read_csv(io.StringIO("".join(buf.getvalue().splitlines(True)[:2])))


def test_one_row_tables_span_unit_ranges():
    # one point: the x range is [x, x + 1], the y range [y - 0.5, y + 0.5]
    spec = SweepSpec(FIXED, Axis("delta", 0.0, 1.9, 20), quantities=("metric_norm",))
    text = render_to_string(_first_row(spec), spec=spec)
    ET.fromstring(text)
    assert 'points="70.00,250.00"' in text  # |G| = sqrt 2 at delta = 0
    for tick in (">0<", ">1<", ">0.914214<", ">1.91421<"):
        assert tick in text
    # one tile fills the plot, its axes span +-0.5 around its centre, and
    # one boundary point draws no line
    _, spec = raster_cells()
    text = render_to_string(_first_row(spec), spec=spec)
    ET.fromstring(text)
    assert '<rect x="70.00" y="28.00" width="706.00" height="444.00" fill="#4878cf"/>' in text
    for tick in (">-0.5<", ">0.5<", ">-5.5<", ">-4.5<"):
        assert tick in text
    assert not _boundary(text)
