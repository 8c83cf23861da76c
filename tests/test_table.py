"""The column table that run_sweep, read_csv and read_json return.

A SweepTable must read exactly like the list of PhaseCell it stands for, and
every exporter must write the same bytes for the table as for that list.
"""

import io
import math

import numpy as np
import pytest

from nhjc.cli import PRESETS
from nhjc.dynamics import default_time_grid, effective_generator
from nhjc.model import ModelParams, Phase
from nhjc.plots import render_svg
from nhjc.scan import (
    Axis,
    PhaseCell,
    SweepSpec,
    SweepTable,
    export_csv,
    export_json,
    read_csv,
    read_json,
    run_sweep,
    spec_from_dict,
)

from helpers import reference_csv

FIXED = ModelParams(1.0, 5.0, 1.0, 0)


def _dynamics_spec():
    # what `nhjc dynamics --gamma 4 --r0 0,0,1` sweeps
    grid = default_time_grid(effective_generator(ModelParams(1.0, 5.0, 4.0, 0)))
    return SweepSpec(
        ModelParams(1.0, 5.0, 4.0, 0),
        Axis("t", float(grid[0]), float(grid[-1]), len(grid)),
        quantities=("survival", "bloch"),
    )


SPECS = {name: spec_from_dict(preset) for name, preset in PRESETS.items()}
SPECS["dynamics"] = _dynamics_spec()
# delta = 2 is the EP of the n = 0 block: that cell omits metric_norm
SPECS["metric_entropy_ep"] = SweepSpec(
    FIXED, Axis("delta", 0.0, 4.0, 41), quantities=("metric_norm", "entropy", "phase")
)
# EP cells on a two-axis grid omit survival and bloch
SPECS["dynamics_ep"] = SweepSpec(
    FIXED, Axis("t", 0.0, 1.0, 6), Axis("delta", 1.0, 3.0, 5), quantities=("survival", "bloch")
)
SPECS["n_list"] = SweepSpec(
    ModelParams(0.5, -1.5, 1.0, 0),
    Axis("gamma", 0.0, 2.0, 41),
    quantities=("eigenvalues", "phase", "entropy"),
    n_list=(0, 1, 3),
)


def _csv(cells):
    buf = io.StringIO()
    export_csv(cells, buf)
    return buf.getvalue()


def _json(cells, spec):
    buf = io.StringIO()
    export_json(cells, buf, spec)
    return buf.getvalue()


def _svg(cells, spec):
    buf = io.StringIO()
    render_svg(cells, buf, spec=spec)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_round_trip_and_list_exports(name):
    spec = SPECS[name]
    table = run_sweep(spec)
    assert isinstance(table, SweepTable)
    cells = list(table)
    text = _csv(table)
    assert read_csv(io.StringIO(text)) == table
    assert _csv(cells) == text
    payload = _json(table, spec)
    back, back_spec = read_json(io.StringIO(payload))
    assert back == table and back_spec == spec
    assert _json(cells, spec) == payload
    assert _svg(cells, spec) == _svg(table, spec)


def test_table_reads_as_its_list_of_cells():
    table = run_sweep(SPECS["metric_entropy_ep"])
    cells = list(table)
    assert len(table) == len(cells) == 41
    assert all(isinstance(c, PhaseCell) for c in cells)
    assert table[0] == cells[0] and table[-1] == cells[-1] and table[-41] == cells[0]
    assert table[np.int64(20)] == cells[20]
    assert table[3:9] == cells[3:9] and table[::-7] == cells[::-7]
    assert isinstance(table[3:9], SweepTable)
    assert table[40:100] == cells[40:] and len(table[41:]) == 0 and table[41:] == []
    for i in (41, -42):
        with pytest.raises(IndexError):
            table[i]
    assert table == cells and cells == table and not table != cells
    assert table != cells[:-1] and table != tuple(cells)
    ep = table[20]
    assert ep.phase is Phase.EXCEPTIONAL_POINT and set(ep.extras) == {"entropy_I", "entropy_II"}
    assert type(ep.discriminant) is float and type(ep.eigenvalues.eigenvalue_I) is complex
    assert type(ep.coords[0]) is float and type(ep.n) is int
    assert table.index(ep) == 20 and ep in table


def _with(table, **columns):
    fields = dict(
        axis_names=table.axis_names, coords=table.coords, n=table.n, phase=table.phase,
        discriminant=table.discriminant, eigenvalue_I=table.eigenvalue_I,
        eigenvalue_II=table.eigenvalue_II, extras=table.extras, omitted=table.omitted,
    )
    fields.update(columns)
    return SweepTable(**fields)


def test_tables_differing_in_one_place_compare_unequal():
    table = run_sweep(SPECS["metric_entropy_ep"])
    assert _with(table) == table
    # the EP cell's metric_norm is stored as NaN instead of omitted
    stored_nan = _with(table, omitted={k: np.zeros(len(table), bool) for k in table.extras})
    assert np.isnan(stored_nan.extras["metric_norm"][20])
    assert stored_nan != table and table != stored_nan
    assert "metric_norm" in stored_nan[20].extras and "metric_norm" not in table[20].extras
    shifted = table.coords[0].copy()
    shifted[7] = np.nextafter(shifted[7], np.inf)
    assert _with(table, coords=(shifted,)) != table
    assert list(_with(table, coords=(shifted,))) != list(table)


def test_omitted_everywhere_is_no_column():
    # a grid inside the EP band: every cell omits metric_norm
    spec = SweepSpec(FIXED, Axis("gamma", 2.0 - 1e-11, 2.0 + 1e-11, 3), quantities=("metric_norm",))
    table = run_sweep(spec)
    assert set(table.phase.tolist()) == {2} and "metric_norm" not in table.extras
    assert read_csv(io.StringIO(_csv(table))) == table


def test_results_keep_the_benchmark_contract():
    """What bench/checks.py, bench/workloads.py and bench/spans.py use."""
    spec = SPECS["dynamics_ep"]
    swept = run_sweep(spec)
    back = read_csv(io.StringIO(_csv(swept)))
    back_json, _ = read_json(io.StringIO(_json(swept, spec)))
    for result in (swept, back, back_json):
        assert len(result) == 30
        cell = result[7]
        assert cell.n == 0 and cell.coords == (0.2, 1.5)
        assert cell.phase.value in ("Unbroken", "Broken", "ExceptionalPoint")
        assert {"survival", "bloch_x"} <= cell.extras.keys()
        phases = [c.phase.value for c in result]
        assert phases.count("ExceptionalPoint") == 6
        assert sum({"survival", "bloch_z"} <= c.extras.keys() for c in result) == 24
        assert not result != swept
    other = run_sweep(SPECS["metric_entropy_ep"])
    assert back != other and back_json != other


# formatted by bit pattern: 0.0 and -0.0 print differently, NaN and the
# extremes must survive %.17g and float() unchanged
_EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1)


def _edge_table():
    def edges(shift):
        return np.roll(np.array(_EDGES), shift)

    def pair(re, im):  # re + 1j * im would turn inf parts into NaN
        z = np.empty(size, complex)
        z.real, z.imag = edges(re), edges(im)
        return z

    size = len(_EDGES)
    omitted = np.zeros(size, bool)
    omitted[1] = True  # beside the NaN that metric_norm stores in cell 0
    metric = edges(-2)
    return SweepTable(
        ("gamma", "t"), [edges(0), edges(1)], [0, 0, 0, 0, 3, 3, 3, 3],
        [0, 1, 2, 0, 1, 2, 0, 1], edges(3), pair(4, 5), pair(6, 7),
        {"metric_norm": metric, "entropy_I": edges(-1)},
        {"metric_norm": omitted, "entropy_I": np.zeros(size, bool)},
    )


def _bits(table):
    """float.hex of every stored float, omitted masks, n and phase codes."""
    floats = [*table.coords, table.discriminant, table.eigenvalue_I.real,
              table.eigenvalue_I.imag, table.eigenvalue_II.real, table.eigenvalue_II.imag]
    floats += [table.extras[k][~table.omitted[k]] for k in sorted(table.extras)]
    return (
        [[float.hex(v) for v in c.tolist()] for c in floats],
        {k: m.tolist() for k, m in table.omitted.items()},
        table.n.tolist(),
        table.phase.tolist(),
    )


def test_csv_matches_the_per_value_rule_on_edge_columns():
    table = _edge_table()
    assert "\n-0,0," in _csv(table)  # cell 1: gamma -0.0, t 0.0
    for part in (table, table[:1], table[5:6]):
        for cells in (part, list(part)):
            text = _csv(cells)
            assert text == reference_csv(cells)
            assert _bits(read_csv(io.StringIO(text))) == _bits(part)
