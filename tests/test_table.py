"""The column table that run_sweep, read_csv and read_json return.

Indexing and iterating a SweepTable yield the PhaseCell of each row, the
exporters round-trip it exactly, and they accept nothing but a table.  The
column-wise writers and reader face per-value oracles from helpers on edge
values and edge tokens.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhjc.cli import PRESETS
from nhjc.dynamics import default_time_grid, effective_generator
from nhjc.errors import EmptySweepError, SweepFileError
from nhjc.model import ModelParams, Phase
from nhjc.plots import render_svg
from nhjc.scan import (
    AXIS_NAMES,
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

from helpers import reference_csv, reference_json, reference_read_csv

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


def _csv(table):
    buf = io.StringIO()
    export_csv(table, buf)
    return buf.getvalue()


def _json(table, spec):
    buf = io.StringIO()
    export_json(table, buf, spec)
    return buf.getvalue()


def _svg(table, spec):
    buf = io.StringIO()
    render_svg(table, buf, spec=spec)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_round_trip(name):
    spec = SPECS[name]
    table = run_sweep(spec)
    assert isinstance(table, SweepTable)
    assert read_csv(io.StringIO(_csv(table))) == table
    back, back_spec = read_json(io.StringIO(_json(table, spec)))
    assert back == table and back_spec == spec


def test_table_yields_its_cells():
    table = run_sweep(SPECS["metric_entropy_ep"])
    cells = list(table)
    assert len(table) == len(cells) == 41
    assert all(isinstance(c, PhaseCell) for c in cells)
    assert table[0] == cells[0] and table[-1] == cells[-1] and table[-41] == cells[0]
    assert table[np.int64(20)] == cells[20]
    for i in (41, -42):
        with pytest.raises(IndexError):
            table[i]
    ep = table[20]
    assert ep.phase is Phase.EXCEPTIONAL_POINT and set(ep.extras) == {"entropy_I", "entropy_II"}
    assert type(ep.discriminant) is float and type(ep.eigenvalues.eigenvalue_I) is complex
    assert type(ep.coords[0]) is float and type(ep.n) is int
    assert ep in table


_WRITERS = {
    "export_csv": _csv,
    "export_json": lambda table: _json(table, SPECS["fig1"]),
    "render_svg": lambda table: _svg(table, None),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_writers_take_only_a_table_with_cells(writer):
    write = _WRITERS[writer]
    for other in (list(run_sweep(SPECS["fig1"])), "fig1.csv", None):
        with pytest.raises(ValueError, match="expected a SweepTable"):
            write(other)
    header_only = read_csv(io.StringIO(_csv(run_sweep(SPECS["fig1"])).splitlines()[0] + "\n"))
    with pytest.raises(EmptySweepError):
        write(header_only)


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


def _edge_table(rows=slice(None)):
    """The edge values rolled through every column; only `rows` of them if given."""
    def edges(shift):
        return np.roll(np.array(_EDGES), shift)[rows]

    def pair(re, im):  # re + 1j * im would turn inf parts into NaN
        z = np.empty(len(edges(re)), complex)
        z.real, z.imag = edges(re), edges(im)
        return z

    size = len(_EDGES)
    omitted = np.zeros(size, bool)
    omitted[1] = True  # beside the NaN that metric_norm stores in cell 0
    return SweepTable(
        ("gamma", "t"), [edges(0), edges(1)], np.array([0, 0, 0, 0, 3, 3, 3, 3])[rows],
        np.array([0, 1, 2, 0, 1, 2, 0, 1])[rows], edges(3), pair(4, 5), pair(6, 7),
        {"metric_norm": edges(-2), "entropy_I": edges(-1)},
        {"metric_norm": omitted[rows], "entropy_I": np.zeros(size, bool)[rows]},
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
    for part in (table, _edge_table(rows=slice(0, 1)), _edge_table(rows=slice(5, 6))):
        text = _csv(part)
        assert text == reference_csv(part)
        assert _bits(read_csv(io.StringIO(text))) == _bits(part)


def test_json_matches_json_dumps_on_edge_columns():
    # cell 1 omits metric_norm beside a stored NaN entropy_I
    table = _edge_table()
    assert math.isnan(table.extras["entropy_I"][1]) and table.omitted["metric_norm"][1]
    for part in (table, _edge_table(rows=slice(0, 1)), _edge_table(rows=slice(1, 2))):
        assert _json(part, SPECS["fig1"]) == reference_json(part, SPECS["fig1"])
    big_n = _with(_edge_table(rows=slice(0, 4)), n=np.array([0, 1, 2**31, 2**62]))
    assert _json(big_n, SPECS["fig1"]) == reference_json(big_n, SPECS["fig1"])


# axis names that sort before the base keys (delta), between them (epsilon,
# gamma, omega) and after them (t), on grids whose EP cells omit extras
_JSON_SPECS = {
    "delta": SPECS["metric_entropy_ep"],
    "omega": SweepSpec(FIXED, Axis("omega", 0.0, 9.0, 10), quantities=("metric_norm", "entropy")),
    "t_delta": SPECS["dynamics_ep"],
    "gamma_t": SweepSpec(
        FIXED, Axis("gamma", 1.0, 3.0, 5), Axis("t", 0.0, 1.0, 3),
        quantities=("survival", "bloch", "metric_norm"), n_list=(0, 3),
    ),
    "epsilon_delta_sq": SweepSpec(
        FIXED, Axis("epsilon", -3.0, 5.0, 9), Axis("delta_sq", 0.0, 8.0, 5),
        quantities=("entropy", "metric_norm"),
    ),
}


@pytest.mark.parametrize("name", sorted(_JSON_SPECS))
def test_json_matches_json_dumps_on_omitted_keys(name):
    spec = _JSON_SPECS[name]
    table = run_sweep(spec)
    assert table.omitted and any(m.any() for m in table.omitted.values())
    assert _json(table, spec) == reference_json(table, spec)


# fig-style rows: two axes, n_list (0, 1), every phase
_CSV_TABLE = run_sweep(SweepSpec(
    FIXED, Axis("gamma", 0.0, 4.0, 5), Axis("epsilon", 1.0, 9.0, 3), n_list=(0, 1),
))
# field tokens by column kind: what numpy and float()/int() read alike,
# read apart (1_0, Arabic-Indic digits, "\x1f", which numpy strips as a
# space, and "\u01ff1", which numpy's int64 parser reads as 4631), or both
# refuse
_FLOAT_TOKENS = (
    "1_0", "\u0661", "\u0661.5", "+nan", "-nan", "nan", "-inf", "Infinity", "1e999",
    "-1e999", "1e-400", "5e-324", "-0", "+1", " 1 ", "\xa01", "1\x1f", "\x1f1",
    "0x10", "", "x", "1.5.", "1e", '"1"',
)
_TOKENS = {
    "phase": (" Unbroken", "Unbroken ", '"Unbroken"', "ExceptionalPointX", "ExceptionalPoint",
              "Broken", "unbroken", "", "\x1fBroken"),
    "n": ("+1", "1.0", "-1", "-0", " 1", "1 ", str(2**63), str(2**63 - 1), str(-2**63),
          "1_0", "1e3", "\u0661", "\u01ff1", "\x1f1", "0x1", "", "nan"),
    "metric_norm": _FLOAT_TOKENS,
}


def _column_bits(table):
    floats = [*table.coords, table.discriminant, table.eigenvalue_I.real,
              table.eigenvalue_I.imag, table.eigenvalue_II.real, table.eigenvalue_II.imag]
    floats += [table.extras[k] for k in sorted(table.extras)]
    return (
        table.axis_names, sorted(table.extras),
        [c.view(np.uint64).tolist() for c in floats],
        table.n.tolist(), table.phase.tolist(),
        {k: m.tolist() for k, m in table.omitted.items()},
    )


def _outcome(read, text):
    try:
        return _column_bits(read(text))
    except SweepFileError as exc:
        return str(exc)


def _agree(text):
    got = _outcome(lambda t: read_csv(io.StringIO(t)), text)
    assert got == _outcome(reference_read_csv, text), text
    return got


def _swapped(text, line, column, token):
    lines = text.splitlines()
    fields = lines[line].split(",")
    fields[column] = token
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", [
    "gamma", "epsilon", "n", "phase", "discriminant", "eigenvalue_I_re",
    "eigenvalue_II_im", "metric_norm",
])
def test_read_csv_matches_the_per_value_reader_on_edge_tokens(name):
    table = _CSV_TABLE
    if name == "metric_norm":
        # an EP grid: the EP cells' metric_norm fields are empty
        table = run_sweep(SPECS["metric_entropy_ep"])
    text = _csv(table)
    assert not isinstance(_agree(text), str)
    column = text.splitlines()[0].split(",").index(name)
    outcomes = set()
    for token in _TOKENS.get(name, _FLOAT_TOKENS):
        for line in (1, len(table) // 2, len(table)):
            outcomes.add(isinstance(_agree(_swapped(text, line, column, token)), str))
    assert outcomes == {True, False}  # some tokens read, some are refused
    crlf = text.replace("\n", "\r\n")
    assert _agree(crlf) == _agree(text)


def test_read_csv_names_the_value_the_per_value_reader_names():
    text = _csv(_CSV_TABLE)
    n_column = text.splitlines()[0].split(",").index("n")
    # a negative n on line 2 and a non-integer on line 4: int() fails first
    two = _swapped(_swapped(text, 1, n_column, "-1"), 3, n_column, "1.0")
    assert _agree(two) == "line 4: bad n '1.0'"
    # numpy refuses 1_0 in an axis column; a later bad phase is still named
    both = _swapped(_swapped(text, 1, 0, "1_0"), 5, 3, "Sideways")
    assert _agree(both) == "line 6: bad phase 'Sideways'"


def _relined(text, line, fn):
    lines = text.splitlines()
    lines[line] = fn(lines[line])
    return "\n".join(lines) + "\n"


# Inputs that numpy's one-call parse reads or skips without complaint, or
# refuses, where the per-line and per-value checks must decide.  numpy drops
# a NUL from the end of a fixed-width phase, cuts a long phase to 17
# characters, skips a blank line and refuses a line with the wrong number of
# fields; each must give the message of the checks, pinned here.
_GUARDED = [
    (lambda t: _swapped(t, 2, 3, "Broken\x00"), "line 3: bad phase 'Broken\\x00'"),
    (lambda t: _swapped(t, 2, 3, "Bro\x00ken"), "line 3: bad phase 'Bro\\x00ken'"),
    (lambda t: _swapped(t, 30, 3, "\x00Unbroken"), "line 31: bad phase '\\x00Unbroken'"),
    (lambda t: _swapped(t, 4, 3, "ExceptionalPointX"), "line 5: bad phase 'ExceptionalPointX'"),
    (lambda t: _swapped(t, 4, 3, "ExceptionalPoint" + "X" * 8),
     "line 5: bad phase 'ExceptionalPointXXXXXXXX'"),
    (lambda t: _swapped(t, 4, 3, "Broken" + " " * 11), "line 5: bad phase 'Broken           '"),
    (lambda t: _relined(t, 1, "\n".__add__), "line 2: 0 fields, the header has 9"),
    (lambda t: _relined(t, 3, "\n".__add__), "line 4: 0 fields, the header has 9"),
    (lambda t: _relined(t, 30, lambda s: s + "\n"), "line 32: 0 fields, the header has 9"),
    (lambda t: _relined(t, 3, " \n".__add__), "line 4: 1 fields, the header has 9"),
    (lambda t: _relined(t, 1, lambda s: s + ",1"), "line 2: 10 fields, the header has 9"),
    (lambda t: _relined(t, 7, lambda s: s + ",1"), "line 8: 10 fields, the header has 9"),
    (lambda t: _relined(t, 7, lambda s: s.rsplit(",", 1)[0]), "line 8: 8 fields, the header has 9"),
    (lambda t: _relined(t, 30, lambda s: s.rsplit(",", 1)[0]),
     "line 31: 8 fields, the header has 9"),
]


@pytest.mark.parametrize("k", range(len(_GUARDED)))
def test_read_csv_guards_send_numpy_blind_spots_to_the_checks(k):
    edit, message = _GUARDED[k]
    assert _agree(edit(_csv(_CSV_TABLE))) == message


# --- round trips on generated tables ----------------------------------------

_ROUND_TRIP = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# the edge values weighted in beside arbitrary floats, so signed zeros, NaN
# and the extremes turn up in most tables
_cell_values = st.one_of(st.sampled_from(_EDGES), st.floats())
_EXTRA_COLUMNS = (
    "metric_norm", "entropy_I", "entropy_II", "survival", "bloch_x", "bloch_y", "bloch_z"
)


@st.composite
def _tables(draw):
    rows = draw(st.integers(1, 6))

    def column(values=_cell_values):
        return draw(st.lists(values, min_size=rows, max_size=rows))

    def complex_column():
        z = np.empty(rows, complex)  # re + 1j * im would turn inf parts into NaN
        z.real, z.imag = column(), column()
        return z

    axis_names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=2, unique=True))
    extras = draw(st.lists(st.sampled_from(_EXTRA_COLUMNS), max_size=3, unique=True))
    return SweepTable(
        axis_names,
        [column() for _ in axis_names],
        column(st.integers(0, 2**63 - 1)),
        column(st.integers(0, 2)),
        column(),
        complex_column(),
        complex_column(),
        {k: column() for k in extras},
        {k: column(st.booleans()) for k in extras},
    )


@_ROUND_TRIP
@given(_tables())
def test_csv_round_trips_generated_tables(table):
    back = read_csv(io.StringIO(_csv(table)))
    assert back.axis_names == table.axis_names and _bits(back) == _bits(table)


@_ROUND_TRIP
@given(_tables())
def test_json_round_trips_generated_tables(table):
    spec = SweepSpec(FIXED, *(Axis(name, 0.0, 1.0, 2) for name in table.axis_names))
    back, back_spec = read_json(io.StringIO(_json(table, spec)))
    assert back_spec == spec
    assert back.axis_names == table.axis_names and _bits(back) == _bits(table)
