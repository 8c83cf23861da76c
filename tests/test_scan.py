"""Tests for parameter sweeps and their CSV/JSON exports."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from nhjc.entropy import LN2
from nhjc.errors import EmptySweepError, SpecValidationError, SweepFileError
from nhjc.model import ModelParams, Phase, spectrum_closed_form
from nhjc.scan import (
    AXIS_NAMES,
    MAX_CELLS,
    QUANTITIES,
    Axis,
    SweepSpec,
    export_csv,
    export_json,
    read_csv,
    read_json,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
)

FIXED = ModelParams(1.0, 5.0, 1.0, 0)


def simple_spec(**overrides):
    base = dict(
        fixed=FIXED,
        axis1=Axis("delta", 0.0, 4.0, 5),
        quantities=("eigenvalues", "phase"),
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_axis_values():
    np.testing.assert_allclose(Axis("gamma", 0.0, 1.0, 5).values(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_validation_rejects_bad_axes():
    with pytest.raises(SpecValidationError, match="axis1.name"):
        simple_spec(axis1=Axis("coupling", 0.0, 1.0, 5)).validate()
    with pytest.raises(SpecValidationError, match="min"):
        simple_spec(axis1=Axis("gamma", 2.0, 1.0, 5)).validate()
    with pytest.raises(SpecValidationError, match="steps"):
        simple_spec(axis1=Axis("gamma", 0.0, 1.0, 1)).validate()
    with pytest.raises(SpecValidationError, match="finite"):
        simple_spec(axis1=Axis("gamma", 0.0, math.inf, 5)).validate()
    with pytest.raises(SpecValidationError, match="^axis1: min/max must be finite$"):
        simple_spec(axis1=Axis("gamma", 0, 10**400, 5)).validate()  # past the float range
    with pytest.raises(SpecValidationError, match="delta_sq"):
        simple_spec(axis1=Axis("delta_sq", -1.0, 1.0, 5)).validate()
    with pytest.raises(SpecValidationError, match="t must"):
        simple_spec(axis1=Axis("t", -1.0, 1.0, 5)).validate()
    with pytest.raises(SpecValidationError, match="differ"):
        simple_spec(
            axis1=Axis("gamma", 0.0, 1.0, 5), axis2=Axis("gamma", 0.0, 2.0, 5)
        ).validate()
    with pytest.raises(SpecValidationError, match="^axis2: expected an Axis, got tuple$"):
        simple_spec(axis2=("epsilon", 0.0, 1.0, 5)).validate()


def test_validation_rejects_non_integer_steps():
    for steps in (3.7, True, "5"):
        with pytest.raises(SpecValidationError, match=r"axis1\.steps: expected an integer"):
            simple_spec(axis1=Axis("gamma", 0.0, 1.0, steps)).validate()
    simple_spec(axis1=Axis("gamma", 0.0, 1.0, np.int64(5))).validate()


def test_validation_rejects_non_numeric_bounds():
    for axis, field in [
        (Axis("gamma", "0", 1.0, 3), "min"),
        (Axis("t", 0.0, None, 3), "max"),
        (Axis("delta_sq", 0.0, 1 + 0j, 3), "max"),
    ]:
        with pytest.raises(SpecValidationError, match=rf"^axis1\.{field}: expected a real number"):
            simple_spec(axis1=axis).validate()
    # each bound is named, and the steps check still runs beside them
    with pytest.raises(SpecValidationError) as info:
        simple_spec(axis1=Axis("gamma", "0", "1", 1)).validate()
    for field in ("axis1.min: ", "axis1.max: ", "axis1.steps: "):
        assert field in str(info.value)


def test_validation_caps_total_cells():
    # checked by validation only: none of these grids is allocated
    big = Axis("gamma", 0.0, 1.0, 10**6)
    with pytest.raises(SpecValidationError, match="grid: 1000000000000 cells exceed the cap"):
        simple_spec(axis1=big, axis2=Axis("epsilon", 0.0, 1.0, 10**6)).validate()
    at_cap = simple_spec(axis1=Axis("gamma", 0.0, 1.0, 10**4), axis2=Axis("epsilon", 0.0, 1.0, 10**3))
    assert 10**4 * 10**3 == MAX_CELLS
    at_cap.validate()
    with pytest.raises(SpecValidationError, match="cap"):
        dataclasses.replace(at_cap, n_list=(0, 1)).validate()


def test_block_indices_fit_the_int64_n_column():
    too_big = r"block indices must be below 2\*\*63, got "
    with pytest.raises(SpecValidationError, match=f"^n_list: {too_big}{2**63}$"):
        simple_spec(n_list=(0, 2**63)).validate()
    with pytest.raises(SpecValidationError, match=f"^fixed.n: {too_big}{10**30}$"):
        simple_spec(fixed=ModelParams(1.0, 5.0, 1.0, 10**30)).validate()
    # past the float range too: refused by value, without an OverflowError
    with pytest.raises(SpecValidationError, match=f"^n_list: {too_big}{10**400}$"):
        simple_spec(n_list=(10**400,)).validate()
    with pytest.raises(SpecValidationError, match="^fixed: expected a ModelParams, got NoneType$"):
        simple_spec(fixed=None).validate()
    # up to the last int64, 2n + 1 and n + 1 stay exact in the kernel
    n_list = (2**62 + 1, 2**63 - 1)
    table = run_sweep(simple_spec(n_list=n_list))
    assert table.n.tolist() == [n for n in n_list for _ in range(5)]
    for cell in table:
        p = ModelParams(1.0, 5.0, cell.coords[0] / math.sqrt(cell.n + 1), cell.n)
        assert cell.eigenvalues == spectrum_closed_form(p)


def test_validation_rejects_bad_quantities_and_state():
    with pytest.raises(SpecValidationError, match="unknown"):
        simple_spec(quantities=("phase", "norm")).validate()
    with pytest.raises(SpecValidationError, match="empty"):
        simple_spec(quantities=()).validate()
    with pytest.raises(SpecValidationError, match="require a 't' axis"):
        simple_spec(quantities=("survival",)).validate()
    with pytest.raises(SpecValidationError, match="n_list"):
        simple_spec(n_list=(0, -2)).validate()
    with pytest.raises(SpecValidationError, match="initial_bloch"):
        simple_spec(initial_bloch=(0.0, 0.0, 2.0)).validate()
    with pytest.raises(SpecValidationError, match="initial_bloch"):
        simple_spec(initial_bloch=(0.0, math.nan, 0.0)).validate()
    with pytest.raises(SpecValidationError, match="^initial_bloch: need 3 finite components$"):
        simple_spec(initial_bloch=(10**400, 0, 0)).validate()
    # several problems are reported together
    with pytest.raises(SpecValidationError, match="axis1.name.*quantities"):
        simple_spec(axis1=Axis("bad", 0.0, 1.0, 5), quantities=("nope",)).validate()


def test_run_sweep_single_axis_order():
    cells = run_sweep(simple_spec())
    assert len(cells) == 5
    assert [c.coords[0] for c in cells] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert all(c.axis_names == ("delta",) for c in cells)
    assert all(c.n == 0 for c in cells)
    phases = [c.phase for c in cells]
    assert phases == [
        Phase.UNBROKEN,
        Phase.UNBROKEN,
        Phase.EXCEPTIONAL_POINT,
        Phase.BROKEN,
        Phase.BROKEN,
    ]


def test_run_sweep_two_axis_order():
    spec = SweepSpec(
        fixed=FIXED,
        axis1=Axis("gamma", 0.0, 1.0, 2),
        axis2=Axis("epsilon", 0.0, 2.0, 3),
        quantities=("phase",),
    )
    cells = run_sweep(spec)
    # axis2-major: axis1 varies fastest
    assert [c.coords for c in cells] == [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, 1.0),
        (1.0, 1.0),
        (0.0, 2.0),
        (1.0, 2.0),
    ]
    assert cells[0].axis_names == ("gamma", "epsilon")


def test_run_sweep_n_list_outermost():
    spec = simple_spec(n_list=(0, 3))
    cells = list(run_sweep(spec))
    assert [c.n for c in cells] == [0] * 5 + [3] * 5
    # the delta axis fixes delta, so the discriminant is the same for every n
    for a, b in zip(cells[:5], cells[5:]):
        assert a.discriminant == b.discriminant
        assert a.phase == b.phase
        # but the eigenvalue center (2n+1)/2 moves
        assert math.isclose(
            b.eigenvalues.eigenvalue_I.real - a.eigenvalues.eigenvalue_I.real, 3.0
        )


def test_delta_sq_axis_conversion():
    spec = SweepSpec(
        fixed=FIXED,
        axis1=Axis("delta_sq", 1.0, 9.0, 3),
        quantities=("phase", "entropy"),
    )
    cells = run_sweep(spec)
    # discriminant = 16 - 4 delta^2, up to the sqrt/square round trip
    assert [c.discriminant for c in cells] == pytest.approx([12.0, -4.0, -20.0], abs=1e-13)
    assert abs(cells[2].extras["entropy_I"] - LN2) < 1e-15


def test_exceptional_point_cells_omit_vector_quantities():
    spec = SweepSpec(
        fixed=FIXED,
        axis1=Axis("delta", 1.9, 2.1, 3),
        quantities=("metric_norm", "entropy", "phase"),
    )
    cells = run_sweep(spec)
    assert cells[1].phase is Phase.EXCEPTIONAL_POINT
    assert "metric_norm" not in cells[1].extras
    assert abs(cells[1].extras["entropy_I"] - LN2) < 1e-15
    for cell in (cells[0], cells[2]):
        assert cell.extras["metric_norm"] > 3.0  # near the EP the metric is large


def test_time_axis_dynamics_quantities():
    spec = SweepSpec(
        fixed=ModelParams(1.0, 5.0, 4.0, 0),
        axis1=Axis("t", 0.0, 0.5, 3),
        quantities=("survival", "bloch"),
        initial_bloch=(0.0, 0.0, 1.0),
    )
    cells = run_sweep(spec)
    big_gamma = math.sqrt(12.0)
    for cell in cells:
        t = cell.coords[0]
        assert math.isclose(cell.extras["survival"], math.cosh(2.0 * big_gamma * t), rel_tol=1e-12)
        assert math.isclose(cell.extras["bloch_y"], math.tanh(2.0 * big_gamma * t), rel_tol=1e-12)
    assert cells[0].extras["bloch_z"] == 1.0


def test_csv_header_and_roundtrip(tmp_path):
    spec = simple_spec(quantities=("eigenvalues", "phase", "entropy", "metric_norm"))
    cells = run_sweep(spec)
    path = tmp_path / "sweep.csv"
    export_csv(cells, path)
    text = path.read_text()
    header = text.splitlines()[0]
    assert header == (
        "delta,n,phase,discriminant,eigenvalue_I_re,eigenvalue_I_im,"
        "eigenvalue_II_re,eigenvalue_II_im,entropy_I,entropy_II,metric_norm"
    )
    # the EP row leaves metric_norm empty but keeps the entropy
    ep_row = text.splitlines()[3]
    assert ep_row.startswith("2,") and ep_row.endswith(",")
    back = read_csv(path)
    assert len(back) == len(cells)
    for got, want in zip(back, cells):
        assert got == want  # %.17g float fields round-trip exactly


def test_csv_string_matches_file(tmp_path):
    cells = run_sweep(simple_spec())
    path = tmp_path / "sweep.csv"
    export_csv(cells, path)
    buf = io.StringIO()
    export_csv(cells, buf)
    assert buf.getvalue() == path.read_text()


def test_csv_accepts_stream():
    cells = run_sweep(simple_spec())
    buf = io.StringIO()
    export_csv(cells, buf)
    assert read_csv(io.StringIO(buf.getvalue())) == cells


_CSV_HEADER = (
    "delta,n,phase,discriminant,eigenvalue_I_re,eigenvalue_I_im,eigenvalue_II_re,eigenvalue_II_im"
)
_CSV_ROW = "0,0,Unbroken,16,3,0,-2,0"
_QUOTED = '"Unbroken"'


def test_export_rejects_an_empty_table(tmp_path):
    empty = read_csv(io.StringIO(f"{_CSV_HEADER}\n"))
    with pytest.raises(EmptySweepError):
        export_csv(empty, tmp_path / "empty.csv")
    assert not (tmp_path / "empty.csv").exists()


@pytest.mark.parametrize(
    "text, match",
    [
        (f"{_CSV_HEADER}\n{_CSV_ROW}\n0,0,Unbroken\n", "line 3: 3 fields"),
        (f"{_CSV_HEADER}\n{_CSV_ROW},1\n", "line 2: 9 fields"),
        (f"{_CSV_HEADER.replace(',phase', '')}\n0,0,16,3,0,-2,0\n", "missing column.*phase"),
        (f"{_CSV_HEADER.replace(',n,', ',')}\n0,Unbroken,16,3,0,-2,0\n", "missing column.*n"),
        (f"{_CSV_HEADER}\n{_CSV_ROW.replace('Unbroken', 'Sideways')}\n", "line 2: bad phase 'Sideways'"),
        (f"{_CSV_HEADER}\n{_CSV_ROW.replace(',16,', ',x,')}\n", "line 2: bad discriminant 'x'"),
        (f"{_CSV_HEADER}\n{_CSV_ROW}\n\n{_CSV_ROW}\n", "line 3: 0 fields"),
        # fields are never quoted, so a quote is part of the value
        (f"{_CSV_HEADER}\n{_CSV_ROW.replace('Unbroken', _QUOTED)}\n", f"line 2: bad phase '{_QUOTED}'"),
        # 8 + 7 + 9 fields: the right total, but line 3 is short
        (f"{_CSV_HEADER}\n{_CSV_ROW}\n{_CSV_ROW[:-2]}\n{_CSV_ROW},1\n", "line 3: 7 fields"),
        # the axis columns are 1 or 2 names from AXIS_NAMES, and no column repeats
        (f"{_CSV_HEADER[len('delta,'):]}\n{_CSV_ROW[len('0,'):]}\n", r"CSV header: .* got \[\]"),
        (f"gamma,{_CSV_HEADER.replace('delta', 'gamma')}\n1,{_CSV_ROW}\n", "header: repeated column.* gamma"),
        (f"{_CSV_HEADER},n\n{_CSV_ROW},1\n", "header: repeated column.* n"),
        (f"{_CSV_HEADER},survival,survival\n{_CSV_ROW},1,2\n", "header: repeated column.* survival"),
        (f"{_CSV_HEADER},survival,bogus\n{_CSV_ROW},1,2\n", "CSV header: unknown column.* bogus$"),
        (f"{_CSV_HEADER.replace('delta', 'bogus')}\n{_CSV_ROW}\n", "CSV header: .*'bogus'"),
        (f"gamma,t,{_CSV_HEADER}\n1,2,{_CSV_ROW}\n", "CSV header: .*'gamma', 't', 'delta'"),
        # the base columns follow the axes in their fixed order
        (
            f"{_CSV_HEADER.replace('phase,discriminant', 'discriminant,phase')}\n0,0,16,Unbroken,3,0,-2,0\n",
            "^CSV header: expected n,phase,discriminant,eigenvalue_I_re,eigenvalue_I_im,"
            "eigenvalue_II_re,eigenvalue_II_im after the axes$",
        ),
        (f"{_CSV_HEADER}\n{_CSV_ROW}\n{_CSV_ROW.replace('0,0,', '0,-1,', 1)}\n", "line 3: bad n '-1'"),
        # past the int64 n column
        (f"{_CSV_HEADER}\n{_CSV_ROW.replace('0,0,', '0,9223372036854775808,', 1)}\n",
         "line 2: bad n '9223372036854775808'"),
    ],
)
def test_read_csv_names_the_malformed_row_or_column(text, match):
    with pytest.raises(SweepFileError, match=match):
        read_csv(io.StringIO(text))


def test_read_csv_line_ends_and_header_only():
    text = f"{_CSV_HEADER}\n{_CSV_ROW}\n{_CSV_ROW.replace('0,0,', '1,0,', 1)}\n"
    table = read_csv(io.StringIO(text))
    assert len(table) == 2 and table[1].coords == (1.0,)
    assert read_csv(io.StringIO(text.replace("\n", "\r\n"))) == table
    empty = read_csv(io.StringIO(f"{_CSV_HEADER}\n"))
    assert len(empty) == 0 and empty.axis_names == ("delta",)
    # not even a header
    with pytest.raises(EmptySweepError, match="^empty CSV$"):
        read_csv(io.StringIO(""))


def _json_payload(**changes):
    spec = simple_spec()
    buf = io.StringIO()
    export_json(run_sweep(spec), buf, spec)
    payload = json.loads(buf.getvalue())
    payload.update(changes)
    return payload


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"cells": []}, "'meta'"),
        ([], "'meta'"),
        (_json_payload(cells=None), "'cells'"),
        (_json_payload(cells=[1]), r"cells\[0\]: expected an object"),
        (_json_payload(cells=[{"delta": 0.0, "n": 0}]), r"cells\[0\]: missing field.*phase"),
        (
            _json_payload(cells=[dict(_json_payload()["cells"][0], phase="Sideways")]),
            r"cells\[0\]: bad phase 'Sideways'",
        ),
        (
            _json_payload(cells=[dict(_json_payload()["cells"][0], n=1.5)]),
            r"cells\[0\]: bad n 1\.5",
        ),
        (
            # a whole number past the int64 n column
            _json_payload(cells=[dict(_json_payload()["cells"][0], n=2**63)]),
            rf"cells\[0\]: bad n {2**63}",
        ),
        (
            _json_payload(cells=[dict(_json_payload()["cells"][0], discriminant=True)]),
            r"cells\[0\]: bad discriminant True",
        ),
        (
            # a whole number past the float range
            _json_payload(cells=[dict(_json_payload()["cells"][0], discriminant=10**400)]),
            rf"cells\[0\]: bad discriminant {10**400}",
        ),
        (
            _json_payload(
                cells=[*_json_payload()["cells"][:2], {**_json_payload()["cells"][0], "bogus": 1}]
            ),
            r"cells\[2\]: unknown field.* bogus$",
        ),
        (
            # n + 1 is past the float range
            _json_payload(meta=dict(_json_payload()["meta"], fixed={"n": 10**400})),
            rf"^meta: fixed: n must be a non-negative integer, got {10**400}$",
        ),
        # a str is the file's text: json.load gives up on the nesting
        ("[" * 200_000, "JSON: maximum recursion depth exceeded"),
        ('{"meta": ', "JSON: Expecting value"),
    ],
)
def test_read_json_names_the_malformed_field(payload, match):
    text = payload if isinstance(payload, str) else json.dumps(payload)
    with pytest.raises(SweepFileError, match=match):
        read_json(io.StringIO(text))


def test_json_roundtrip_and_meta(tmp_path):
    spec = simple_spec(quantities=("eigenvalues", "phase", "entropy"))
    cells = run_sweep(spec)
    path = tmp_path / "sweep.json"
    export_json(cells, path, spec)
    payload = json.loads(path.read_text())
    assert payload["meta"] == spec_to_dict(spec)
    assert len(payload["cells"]) == len(cells)
    back_cells, back_spec = read_json(path)
    assert back_spec == spec
    assert back_cells == cells


def test_json_ep_cells_omit_vector_quantities(tmp_path):
    spec = simple_spec(quantities=("metric_norm", "phase"))
    cells = run_sweep(spec)
    path = tmp_path / "sweep.json"
    export_json(cells, path, spec)
    payload = json.loads(path.read_text())
    ep = [c for c in payload["cells"] if c["phase"] == "ExceptionalPoint"]
    assert len(ep) == 1 and "metric_norm" not in ep[0]


def test_exports_are_deterministic(tmp_path):
    spec = simple_spec(quantities=("eigenvalues", "phase", "entropy"))
    blobs = []
    for run in range(2):
        cells = run_sweep(spec)
        csv_path = tmp_path / f"run{run}.csv"
        json_path = tmp_path / f"run{run}.json"
        export_csv(cells, csv_path)
        export_json(cells, json_path, spec)
        blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert blobs[0] == blobs[1]
    # write -> read -> write is also byte-stable
    cells, spec_back = read_json(tmp_path / "run0.json")
    again = tmp_path / "again.json"
    export_json(cells, again, spec_back)
    assert again.read_bytes() == blobs[0][1]


def test_spec_dict_roundtrip():
    spec = SweepSpec(
        fixed=ModelParams(2.0, -1.0, 0.5, 1),
        axis1=Axis("gamma", 0.0, 3.0, 7),
        axis2=Axis("epsilon", -5.0, 7.0, 9),
        quantities=("phase", "entropy"),
        n_list=(0, 2),
        initial_bloch=(0.0, 1.0, 0.0),
    )
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_defaults():
    spec = spec_from_dict({"axes": [{"name": "gamma", "min": 0.0, "max": 1.0, "steps": 4}]})
    assert spec.fixed == ModelParams(1.0, 5.0, 1.0, 0)
    assert spec.quantities == ("phase",)
    assert spec.axis2 is None
    assert spec.initial_bloch == (0.0, 0.0, 1.0)


def test_spec_from_dict_errors():
    with pytest.raises(SpecValidationError, match="JSON object"):
        spec_from_dict([1, 2])
    with pytest.raises(SpecValidationError, match="axes"):
        spec_from_dict({})
    with pytest.raises(SpecValidationError, match="axes"):
        spec_from_dict({"axes": [{}, {}, {}]})
    with pytest.raises(SpecValidationError, match=r"axes\[1\]"):
        spec_from_dict({"axes": [{"name": "gamma", "min": 0.0}]})
    with pytest.raises(SpecValidationError, match="fixed"):
        spec_from_dict({"fixed": {"omega": "fast"}, "axes": [{"name": "gamma", "min": 0, "max": 1, "steps": 3}]})
    with pytest.raises(SpecValidationError, match="^fixed: expected an object$"):
        spec_from_dict({"fixed": 3, "axes": [{"name": "gamma", "min": 0, "max": 1, "steps": 3}]})


def test_spec_from_dict_type_errors():
    axes = [{"name": "gamma", "min": 0.0, "max": 1.0, "steps": 3}]
    with pytest.raises(SpecValidationError, match="quantities"):
        spec_from_dict({"axes": axes, "quantities": 5})
    with pytest.raises(SpecValidationError, match="quantities"):
        spec_from_dict({"axes": axes, "quantities": [["phase"]]})
    with pytest.raises(SpecValidationError, match="n_list"):
        spec_from_dict({"axes": axes, "n_list": 3})
    with pytest.raises(SpecValidationError, match="initial_bloch"):
        spec_from_dict({"axes": axes, "initial_bloch": "xyz"})
    # whole numbers are not cut down by int()
    for n_list in ([1.5], [True], ["2"]):
        with pytest.raises(SpecValidationError, match="n_list"):
            spec_from_dict({"axes": axes, "n_list": n_list})
    for steps in (3.7, True, math.inf):
        with pytest.raises(SpecValidationError, match=r"axes\[1\]\.steps"):
            spec_from_dict({"axes": [dict(axes[0], steps=steps)]})
    for n in (1.5, False):
        with pytest.raises(SpecValidationError, match=r"fixed\.n"):
            spec_from_dict({"axes": axes, "fixed": {"n": n}})
    spec = spec_from_dict({"axes": [dict(axes[0], steps=3.0)], "n_list": [2.0]})
    assert spec.axis1.steps == 3 and spec.n_list == (2,)


def test_run_sweep_overflow_names_the_quantity():
    with pytest.raises(SpecValidationError, match="^discriminant:"):
        run_sweep(simple_spec(axis1=Axis("gamma", 0.0, 1e200, 3)))
    with pytest.raises(SpecValidationError, match="^discriminant:"):
        # gamma**2 is finite, 4 gamma**2 (n+1) is not
        run_sweep(simple_spec(axis1=Axis("gamma", 0.0, 1e154, 3)))
    with pytest.raises(SpecValidationError, match="^survival/bloch:"):
        run_sweep(
            SweepSpec(
                fixed=ModelParams(1.0, 5.0, 4.0, 0),
                axis1=Axis("t", 0.0, 1000.0, 10),
                quantities=("survival",),
            )
        )
    # (2n+1) omega / 2 rounds to inf at omega = 1.7e308, n = 3
    with pytest.raises(SpecValidationError, match=r"^eigenvalues: spectral centre \(2n\+1\) "):
        run_sweep(simple_spec(axis1=Axis("gamma", 0.0, 1.0, 3),
                              fixed=ModelParams(1.7e308, 1.7e308, 1.0, 3)))


def test_axis_and_quantity_registries():
    assert AXIS_NAMES == ("gamma", "epsilon", "omega", "delta", "delta_sq", "t")
    assert QUANTITIES == ("eigenvalues", "phase", "metric_norm", "entropy", "survival", "bloch")
