"""Tests for parameter sweeps and their CSV/JSON exports."""

import dataclasses
import io
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhjc.dynamics import BlochState, effective_generator, evolve_no_jump
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

from test_kernel_search import _CANCELLED, _RATE

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
    # an Axis checks itself when built, without the axis1/axis2 prefix it cannot know
    with pytest.raises(SpecValidationError, match="^name: 'coupling' not in "):
        Axis("coupling", 0.0, 1.0, 5)
    # a descending or empty range, which .values() would return as a grid
    with pytest.raises(SpecValidationError, match=r"^min 2\.0 must be < max 1\.0$"):
        Axis("gamma", 2.0, 1.0, 5)
    with pytest.raises(SpecValidationError, match=r"^min 1\.0 must be < max 1\.0$"):
        Axis("gamma", 1.0, 1.0, 3)
    with pytest.raises(SpecValidationError, match="steps"):
        Axis("gamma", 0.0, 1.0, 1)
    with pytest.raises(SpecValidationError, match="finite"):
        Axis("gamma", 0.0, math.inf, 5)
    with pytest.raises(SpecValidationError, match="^min/max must be finite$"):
        Axis("gamma", 0, 10**400, 5)  # past the float range
    with pytest.raises(SpecValidationError, match="delta_sq"):
        Axis("delta_sq", -1.0, 1.0, 5)
    with pytest.raises(SpecValidationError, match="^t must be non-negative$"):
        Axis("t", -1.0, 1.0, 5)
    with pytest.raises(SpecValidationError, match="differ"):
        simple_spec(
            axis1=Axis("gamma", 0.0, 1.0, 5), axis2=Axis("gamma", 0.0, 2.0, 5)
        )
    with pytest.raises(SpecValidationError, match="^axis2: expected an Axis, got tuple$"):
        simple_spec(axis2=("epsilon", 0.0, 1.0, 5))


def test_validation_rejects_non_integer_steps():
    for steps in (3.7, True, "5"):
        with pytest.raises(SpecValidationError, match=r"^steps: expected an integer"):
            Axis("gamma", 0.0, 1.0, steps)
    simple_spec(axis1=Axis("gamma", 0.0, 1.0, np.int64(5)))
    # a whole float is a whole number, as config files and ModelParams' n read it
    assert len(run_sweep(simple_spec(axis1=Axis("gamma", 0.0, 1.0, 3.0)))) == 3


def test_validation_rejects_non_numeric_bounds():
    for axis, field in [
        (("gamma", "0", 1.0, 3), "min"),
        (("t", 0.0, None, 3), "max"),
        (("delta_sq", 0.0, 1 + 0j, 3), "max"),
        # a bool is not a number, as ModelParams refuses a bool energy
        (("gamma", False, True, 3), "min"),
    ]:
        with pytest.raises(SpecValidationError, match=rf"^{field}: expected a real number"):
            Axis(*axis)
    # each bound is named, and the steps check still runs beside them
    with pytest.raises(SpecValidationError) as info:
        Axis("gamma", "0", "1", 1)
    for field in ("min: ", "max: ", "steps: "):
        assert field in str(info.value)


def test_validation_caps_total_cells():
    # checked by validation only: none of these grids is allocated
    big = Axis("gamma", 0.0, 1.0, 10**6)
    with pytest.raises(SpecValidationError, match="grid: 1000000000000 cells exceed the cap"):
        simple_spec(axis1=big, axis2=Axis("epsilon", 0.0, 1.0, 10**6))
    at_cap = simple_spec(axis1=Axis("gamma", 0.0, 1.0, 10**4), axis2=Axis("epsilon", 0.0, 1.0, 10**3))
    assert 10**4 * 10**3 == MAX_CELLS
    with pytest.raises(SpecValidationError, match="cap"):
        dataclasses.replace(at_cap, n_list=(0, 1))


def test_block_indices_fit_the_int64_n_column():
    too_big = r"block indices must be below 2\*\*63, got "
    with pytest.raises(SpecValidationError, match=f"^n_list: {too_big}{2**63}$"):
        simple_spec(n_list=(0, 2**63))
    with pytest.raises(SpecValidationError, match=f"^fixed.n: {too_big}{10**30}$"):
        simple_spec(fixed=ModelParams(1.0, 5.0, 1.0, 10**30))
    # past the float range too: refused by value, without an OverflowError
    with pytest.raises(SpecValidationError, match=f"^n_list: {too_big}{10**400}$"):
        simple_spec(n_list=(10**400,))
    with pytest.raises(SpecValidationError, match="^fixed: expected a ModelParams, got NoneType$"):
        simple_spec(fixed=None)
    # up to the last int64, 2n + 1 and n + 1 stay exact in the kernel
    n_list = (2**62 + 1, 2**63 - 1)
    table = run_sweep(simple_spec(n_list=n_list))
    assert table.n.tolist() == [n for n in n_list for _ in range(5)]
    for cell in table:
        p = ModelParams(1.0, 5.0, cell.coords[0] / math.sqrt(cell.n + 1), cell.n)
        assert cell.eigenvalues == spectrum_closed_form(p)


def test_validation_rejects_bad_quantities_and_state():
    with pytest.raises(SpecValidationError, match="unknown"):
        simple_spec(quantities=("phase", "norm"))
    with pytest.raises(SpecValidationError, match="empty"):
        simple_spec(quantities=())
    with pytest.raises(SpecValidationError, match="require a 't' axis"):
        simple_spec(quantities=("survival",))
    with pytest.raises(SpecValidationError, match="n_list"):
        simple_spec(n_list=(0, -2))
    with pytest.raises(SpecValidationError, match="initial_bloch"):
        simple_spec(initial_bloch=(0.0, 0.0, 2.0))
    with pytest.raises(SpecValidationError, match="initial_bloch"):
        simple_spec(initial_bloch=(0.0, math.nan, 0.0))
    with pytest.raises(SpecValidationError, match="^initial_bloch: need 3 finite components$"):
        simple_spec(initial_bloch=(10**400, 0, 0))
    for bloch in ((0, 0, 1j), (0, 0, None), ("0", "0", "1"), (0, 0, True)):
        with pytest.raises(SpecValidationError, match="^initial_bloch: need 3 finite components$"):
            simple_spec(initial_bloch=bloch)
    # a field that is not a sequence is named, where len() raised TypeError
    for field, value in (("quantities", None), ("n_list", None), ("n_list", 3),
                         ("initial_bloch", None)):
        with pytest.raises(SpecValidationError, match=f"^{field}: expected a list"):
            simple_spec(**{field: value})
    # several problems are reported together
    with pytest.raises(SpecValidationError, match="^axis2.name: must differ .*; quantities: unknown .*; n_list"):
        simple_spec(axis2=Axis("delta", 0.0, 1.0, 5), quantities=("nope",), n_list=(-1,))
    with pytest.raises(SpecValidationError, match="^name: 'bad' not in .*; steps: need at least 2"):
        Axis("bad", 0.0, 1.0, 1)


# Lengths within an ulp of the bound 1 + 1e-9, where math.hypot and
# BlochState's sqrt(x*x + y*y + z*z) fall on opposite sides of it: BlochState
# keeps the first and refuses the second, and so does SweepSpec
_KEPT_BLOCH = (-0.3386863615663403, -0.8159057145425621, 0.4686036869954672)
_REFUSED_BLOCH = (-0.6253638710299323, -0.7800267299404978, -0.021870788481265988)


def _accepts(build, r) -> bool:
    try:
        build(r)
    except ValueError:
        return False
    return True


def _spec_from_bloch(r):
    return simple_spec(initial_bloch=r)


def test_initial_bloch_follows_the_bloch_state_length_rule():
    assert _accepts(BlochState, _KEPT_BLOCH) and _accepts(_spec_from_bloch, _KEPT_BLOCH)
    assert not _accepts(BlochState, _REFUSED_BLOCH)
    with pytest.raises(SpecValidationError, match="^initial_bloch: length must not exceed 1$"):
        _spec_from_bloch(_REFUSED_BLOCH)


def _near_bound(direction, ulps):
    """direction scaled to length 1 + 1e-9, then moved by ulps in the scale."""
    length = math.sqrt(sum(x * x for x in direction))
    scale = 1.0 + 1e-9
    for _ in range(abs(ulps)):
        scale = math.nextafter(scale, math.copysign(math.inf, ulps))
    return tuple(x / length * scale for x in direction)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.builds(
    _near_bound,
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: max(map(abs, v)) > 1e-3),
    st.integers(-4, 4),
))
@example(_KEPT_BLOCH)
@example(_REFUSED_BLOCH)
def test_initial_bloch_accepts_exactly_what_bloch_state_accepts(r):
    assert _accepts(_spec_from_bloch, r) == _accepts(BlochState, r)


@pytest.mark.parametrize("gamma, t_max", [
    (1.0, 0.5),  # unbroken: a rotation
    (4.0, 1.0),  # broken: D(t) >= 1 at t = 0, 0.5 and 1
])
def test_sweep_dynamics_at_the_kept_length_match_evolve_no_jump(gamma, t_max):
    p = ModelParams(1.0, 5.0, gamma, 0)
    spec = SweepSpec(p, Axis("t", 0.0, t_max, 3), quantities=("survival", "bloch"),
                     initial_bloch=_KEPT_BLOCH)
    table = run_sweep(spec)
    gen, rho0 = effective_generator(p), BlochState(_KEPT_BLOCH)
    for i, t in enumerate(spec.axis1.values().tolist()):
        state = evolve_no_jump(gen, rho0, t)
        expected = [state.weight, *state.r.tolist()]
        got = [table.extras[k][i] for k in ("survival", "bloch_x", "bloch_y", "bloch_z")]
        assert list(map(float.hex, map(float, got))) == list(map(float.hex, expected))


def test_sweep_refuses_an_evolved_state_that_evolve_no_jump_refuses():
    # 1 - |r|**2 scales by 1 / D**2: at t = 0.25 on the broken block D < 1,
    # and the kept start's length passes the bound
    p = ModelParams(1.0, 5.0, 4.0, 0)
    with pytest.raises(ValueError, match="^Bloch vector length .* exceeds 1$"):
        evolve_no_jump(effective_generator(p), BlochState(_KEPT_BLOCH), 0.25)
    spec = SweepSpec(p, Axis("t", 0.0, 0.5, 3), quantities=("survival",),
                     initial_bloch=_KEPT_BLOCH)
    with pytest.raises(SpecValidationError,
                       match="^survival/bloch: Bloch vector length exceeds 1 on this grid$"):
        run_sweep(spec)


# each extra quantity's columns, in the order a cell lists them
_COLUMNS = {
    "eigenvalues": (), "phase": (), "metric_norm": ("metric_norm",),
    "entropy": ("entropy_I", "entropy_II"), "survival": ("survival",),
    "bloch": ("bloch_x", "bloch_y", "bloch_z"),
}


def test_quantity_order_orders_the_extras_and_nothing_else():
    # gamma = 2 is the EP of the block: every extra but entropy is omitted there
    p = ModelParams(1.0, 5.0, 4.0, 0)
    axes = dict(axis1=Axis("t", 0.0, 1.0, 4), axis2=Axis("gamma", 0.0, 4.0, 5))
    r0 = (0.3, -0.4, 0.5)
    table = run_sweep(SweepSpec(p, **axes, quantities=QUANTITIES, initial_bloch=r0))
    for quantities in (QUANTITIES[::-1], QUANTITIES[3:] + QUANTITIES[:3]):
        permuted = run_sweep(SweepSpec(p, **axes, quantities=quantities, initial_bloch=r0))
        assert permuted == table
        want = [k for q in quantities for k in _COLUMNS[q]]
        assert list(permuted.extras) == list(permuted.omitted) == want
        for k in want:
            assert permuted.extras[k].tobytes() == table.extras[k].tobytes(), k
            assert np.array_equal(permuted.omitted[k], table.omitted[k]), k
    # survival and bloch share one no-jump pass; asked alone, survival is the same
    alone = run_sweep(SweepSpec(p, **axes, quantities=("survival",), initial_bloch=r0))
    assert list(alone.extras) == ["survival"]
    assert alone.extras["survival"].tobytes() == table.extras["survival"].tobytes()
    assert np.array_equal(alone.omitted["survival"], table.omitted["survival"])
    # the cancel grid of the kernel search refuses with the same message in any order
    t = Axis("t", 19.0 / (2.0 * _RATE), 19.0000001 / (2.0 * _RATE), 2)
    for quantities in (("survival", "bloch"), ("bloch", "survival"), QUANTITIES[::-1]):
        spec = SweepSpec(p, t, quantities=quantities, initial_bloch=(0.0, -1.0, 0.0))
        with pytest.raises(SpecValidationError) as info:
            run_sweep(spec)
        assert str(info.value) == _CANCELLED


def test_axes_and_specs_are_checked_when_built():
    # steps past the cell cap, not whole, or below 2: .values() never sees them
    for steps in (2**63, MAX_CELLS + 1, 1.5, 1):
        with pytest.raises(SpecValidationError, match="^steps: "):
            Axis("gamma", 0.0, 1.0, steps)
    with pytest.raises(SpecValidationError, match="^t must be non-negative$"):
        Axis("t", -1.0, 1.0, 3)
    with pytest.raises(SpecValidationError, match="^name: 'coupling' not in "):
        Axis("coupling", 0.0, 1.0, 3)
    with pytest.raises(SpecValidationError, match="^quantities: survival/bloch require a 't' axis$"):
        simple_spec(quantities=("survival",))
    spec = simple_spec(axis2=Axis("gamma", 0.0, 1.0, 3))
    with pytest.raises(SpecValidationError, match="^axis2.name: must differ from axis1.name$"):
        dataclasses.replace(spec, axis2=Axis("delta", 0.0, 1.0, 3))


def test_axes_and_specs_keep_their_fields_converted():
    axis = Axis("gamma", 0, np.float32(0.5), np.int64(3))
    assert type(axis.steps) is int and axis.steps == 3
    # bounds as model._real reads them: an int stays an int
    assert type(axis.min) is int and type(axis.max) is float and axis.max == 0.5
    assert Axis("gamma", 0.0, 1.0, 3.0).steps == 3
    spec = simple_spec(quantities=["phase"], n_list=[np.int64(2), 3.0], initial_bloch=[0, 0, 1])
    assert spec.quantities == ("phase",)
    assert spec.n_list == (2, 3) and all(type(n) is int for n in spec.n_list)
    assert spec.initial_bloch == (0, 0, 1)


def test_unpickled_axes_and_specs_pass_the_constructor_checks():
    spec = simple_spec(axis2=Axis("gamma", 0, 1, 3), n_list=(0, 2))
    assert pickle.loads(pickle.dumps(spec)) == spec
    # a state written before the fields were converted when built
    axis = Axis.__new__(Axis)
    axis.__setstate__({"name": "gamma", "min": np.float32(0.5), "max": 1, "steps": 3.0})
    assert axis == Axis("gamma", 0.5, 1, 3) and type(axis.steps) is int
    old = SweepSpec.__new__(SweepSpec)
    old.__setstate__(dict(vars(spec), quantities=["phase"], n_list=[np.int64(1)]))
    assert old.quantities == ("phase",) and old.n_list == (1,) and type(old.n_list[0]) is int
    assert len(run_sweep(old)) == 15
    with pytest.raises(SpecValidationError, match="^steps: expected an integer, got 3.5$"):
        Axis.__new__(Axis).__setstate__(dict(vars(axis), steps=3.5))


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
        # float() would read these strings as 0.5, NaN and 10.0, and "" as an
        # omitted extra, which export_json never writes
        (
            _json_payload(cells=[dict(_json_payload()["cells"][0], delta="0.5")]),
            r"^cells\[0\]: bad delta '0\.5'$",
        ),
        (
            _json_payload(cells=[dict(_json_payload()["cells"][0], discriminant=" nan ")]),
            r"^cells\[0\]: bad discriminant ' nan '$",
        ),
        (
            _json_payload(cells=[dict(_json_payload()["cells"][0], eigenvalue_I_re="1_0")]),
            r"^cells\[0\]: bad eigenvalue_I_re '1_0'$",
        ),
        (
            _json_payload(cells=[dict(_json_payload()["cells"][0], metric_norm="")]),
            r"^cells\[0\]: bad metric_norm ''$",
        ),
        (
            # missing before bad, bad before unknown
            _json_payload(cells=[{"delta": "0.5", "n": 0}]),
            r"^cells\[0\]: missing field\(s\) phase,",
        ),
        (
            _json_payload(cells=[
                {**_json_payload()["cells"][0], "bogus": "1"},
                dict(_json_payload()["cells"][0], delta="0.5"),
            ]),
            r"^cells\[1\]: bad delta '0\.5'$",
        ),
        (
            _json_payload(cells=[{**_json_payload()["cells"][0], "bogus": "1"}]),
            r"^cells\[0\]: unknown field\(s\) bogus$",
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
    # numpy numbers are written as the Python numbers they equal, which json can encode
    numpy_spec = dataclasses.replace(
        spec, axis1=Axis("gamma", np.float32(0.0), np.int64(3), np.uint8(7)), n_list=(np.int64(0), 2.0)
    )
    assert json.dumps(spec_to_dict(numpy_spec)) == json.dumps(spec_to_dict(spec))


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
    # what an Axis refuses is named with its place in the config
    gamma = {"name": "gamma", "min": 0, "max": 1, "steps": 3}
    with pytest.raises(SpecValidationError, match=r"^axes\[2\]: name: 'coupling' not in "):
        spec_from_dict({"axes": [gamma, dict(gamma, name="coupling")]})
    with pytest.raises(SpecValidationError, match=r"^axes\[1\]: steps: need at least 2, got 1$"):
        spec_from_dict({"axes": [dict(gamma, steps=1)]})
    with pytest.raises(SpecValidationError, match=r"^axes\[2\]: min 2\.0 must be < max 1\.0$"):
        spec_from_dict({"axes": [gamma, dict(gamma, name="delta", min=2, max=1)]})


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
    # a string is not read character by character: "" is not an empty n_list
    for key, value in (("quantities", "phase"), ("n_list", ""), ("initial_bloch", "001"),
                       ("n_list", b"\x01")):
        kind = type(value).__name__
        with pytest.raises(SpecValidationError, match=f"^{key}: expected a list, got {kind}$"):
            spec_from_dict({"axes": axes, key: value})
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
    # bools and strings are not numbers: float() read "1_0" as 10.0
    for value in (True, "1_0", "1"):
        with pytest.raises(SpecValidationError, match="^fixed: omega must be a finite real number"):
            spec_from_dict({"axes": axes, "fixed": {"omega": value}})
        with pytest.raises(SpecValidationError, match=r"^axes\[1\]: min must be a finite real"):
            spec_from_dict({"axes": [dict(axes[0], min=value)]})
        with pytest.raises(SpecValidationError, match="^initial_bloch: each component must be"):
            spec_from_dict({"axes": axes, "initial_bloch": [0, 0, value]})
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
