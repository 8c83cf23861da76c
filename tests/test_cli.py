"""End-to-end tests for the command line interface."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nhjc
from nhjc.cli import PRESETS, cli_main
from nhjc.model import Phase
from nhjc.scan import AXIS_NAMES, read_csv, read_json


def run_cli(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_to_stdout(capsys):
    code, out, err = run_cli(capsys, ["spectrum", "--grid", "delta:0:4:5"])
    assert code == 0 and err == ""
    cells = read_csv(io.StringIO(out))
    assert len(cells) == 5
    assert cells[0].axis_names == ("delta",)
    assert [c.phase.value for c in cells] == [
        "Unbroken",
        "Unbroken",
        "ExceptionalPoint",
        "Broken",
        "Broken",
    ]


def test_default_fixed_parameters(capsys):
    # defaults omega=1, epsilon=5, gamma=1, n=0: discriminant 16 at delta=0
    code, out, _ = run_cli(capsys, ["spectrum", "--grid", "delta:0:1:2"])
    assert code == 0
    cells = read_csv(io.StringIO(out))
    assert cells[0].discriminant == 16.0


def test_flag_overrides(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--epsilon", "7", "--grid", "delta:0:1:2"]
    )
    assert code == 0
    assert read_csv(io.StringIO(out))[0].discriminant == 36.0


def test_preset_fig1(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--preset", "fig1"])
    assert code == 0
    cells = read_csv(io.StringIO(out))
    assert len(cells) == 400
    assert cells[0].coords == (0.0,)
    assert cells[-1].coords == (4.0,)
    broken = [c for c in cells if c.phase.value == "Broken"]
    assert broken and all(c.coords[0] > 2.0 for c in broken)


def test_preset_fig3_json(capsys):
    code, out, _ = run_cli(capsys, ["entropy", "--preset", "fig3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 500
    axis = payload["meta"]["axes"][0]
    assert axis["name"] == "delta_sq"
    assert math.isclose(axis["min"], 16.0 / 500.0)
    assert axis["max"] == 16.0
    # entropy is reported everywhere, including the EP cell
    assert all("entropy_I" in c for c in payload["cells"])


def test_preset_fig2a_svg(capsys):
    code, out, _ = run_cli(capsys, ["phase-map", "--preset", "fig2a", "--format", "svg"])
    assert code == 0
    ET.fromstring(out)
    assert out.count("<rect") >= 200 * 200


def test_flags_override_preset(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--preset", "fig1", "--n", "2"])
    assert code == 0
    cells = read_csv(io.StringIO(out))
    assert all(c.n == 2 for c in cells)


def test_config_file_and_precedence(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "fixed": {"epsilon": 3.0},
                "axes": [{"name": "delta", "min": 0.0, "max": 1.0, "steps": 2}],
            }
        )
    )
    code, out, _ = run_cli(capsys, ["spectrum", "--config", str(config)])
    assert code == 0
    assert read_csv(io.StringIO(out))[0].discriminant == 4.0  # (1-3)^2
    # explicit flags still win over the config file
    code, out, _ = run_cli(
        capsys, ["spectrum", "--config", str(config), "--epsilon", "7"]
    )
    assert code == 0
    assert read_csv(io.StringIO(out))[0].discriminant == 36.0


def test_config_can_name_a_preset(capsys, tmp_path):
    config = tmp_path / "preset.json"
    config.write_text(json.dumps({"preset": "fig1"}))
    code, out, _ = run_cli(capsys, ["spectrum", "--config", str(config)])
    assert code == 0
    assert len(read_csv(io.StringIO(out))) == 400


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, ["spectrum", "--grid", "delta:0:4:5", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert len(read_csv(target)) == 5


def test_dynamics_default_time_grid(capsys):
    code, out, _ = run_cli(capsys, ["dynamics", "--gamma", "4"])
    assert code == 0
    cells = read_csv(io.StringIO(out))
    assert len(cells) == 500
    assert cells[0].axis_names == ("t",)
    assert math.isclose(cells[-1].coords[0], 5.0 / math.sqrt(12.0), rel_tol=1e-12)
    assert math.isclose(
        cells[-1].extras["survival"],
        math.cosh(2.0 * math.sqrt(12.0) * cells[-1].coords[0]),
        rel_tol=1e-10,
    )


def test_dynamics_at_the_diabolic_point(capsys):
    # decoupled at omega == epsilon: rate 0, so no default time grid, and a
    # given grid evolves nothing
    argv = ["dynamics", "--omega", "2", "--epsilon", "2", "--gamma", "0"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("nhjc: error: time grid: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, [*argv, "--grid", "t:0:1:3"])
    assert (code, err) == (0, "")
    cells = read_csv(io.StringIO(out))
    assert [cell.phase for cell in cells] == [Phase.UNBROKEN] * 3
    assert all(cell.extras["survival"] == 1.0 for cell in cells)


def test_dynamics_r0_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["dynamics", "--gamma", "4", "--grid", "t:0:1:3", "--r0", "0,-1,0"]
    )
    assert code == 0
    cells = read_csv(io.StringIO(out))
    big_gamma = math.sqrt(12.0)
    for cell in cells:
        assert math.isclose(
            cell.extras["survival"],
            math.exp(-2.0 * big_gamma * cell.coords[0]),
            rel_tol=1e-10,
        )


def test_exponent_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["exponent"])
    assert code == 0
    lines = out.strip().splitlines()
    values = {}
    for line in lines:
        key, _, value = line.partition(" = ")
        values[key] = float(value)
    assert set(values) == {"slope_below", "slope_above"}
    for slope in values.values():
        assert -0.52 < slope < -0.48
    target = tmp_path / "slopes.txt"
    code, _, _ = run_cli(capsys, ["exponent", "--out", str(target)])
    assert code == 0
    assert target.read_text() == out


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, ["spectrum", "--badflag"])[0] == 1
    assert run_cli(capsys, ["no-such-command"])[0] == 1
    assert run_cli(capsys, ["spectrum", "--preset", "fig9"])[0] == 1
    assert run_cli(capsys, [])[0] == 1


def test_parser_reuse_writes_to_the_streams_of_each_call(capsys):
    # cli_main builds its parser once; a parser first used under other
    # streams must still write usage and help to those of the current call
    elsewhere = io.StringIO()
    with contextlib.redirect_stdout(elsewhere), contextlib.redirect_stderr(elsewhere):
        assert cli_main(["spectrum", "--badflag"]) == 1
        assert cli_main(["--help"]) == 0
    assert elsewhere.getvalue().count("usage: nhjc") == 2
    for _ in range(2):
        code, out, err = run_cli(capsys, ["spectrum", "--badflag"])
        assert code == 1 and out == "" and err.startswith("usage: nhjc ")
        code, out, err = run_cli(capsys, ["--help"])
        assert code == 0 and err == "" and out.startswith("usage: nhjc")
        code, out, err = run_cli(capsys, ["dynamics", "--help"])
        assert code == 0 and err == "" and "--r0" in out


def test_validation_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, ["spectrum"])
    assert code == 1 and "needs --grid or --preset" in err
    code, _, err = run_cli(capsys, ["spectrum", "--grid", "delta:0:4"])
    assert code == 1 and "AXIS:MIN:MAX:STEPS" in err
    code, _, err = run_cli(capsys, ["spectrum", "--grid", "gamma:a:1:3"])
    assert code == 1
    assert err == "nhjc: error: --grid 'gamma:a:1:3': could not convert string to float: 'a'\n"
    code, _, err = run_cli(
        capsys, ["phase-map", "--grid", "gamma:0:3:4"]
    )
    assert code == 1 and "exactly two" in err
    code, _, err = run_cli(
        capsys,
        ["spectrum", "--grid", "delta:0:4:5", "--grid", "epsilon:0:1:5"],
    )
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(
        capsys, ["dynamics", "--gamma", "4", "--grid", "t:0:1:3", "--r0", "0,0"]
    )
    assert code == 1 and "--r0" in err
    code, _, err = run_cli(
        capsys, ["dynamics", "--gamma", "4", "--grid", "t:0:1:3", "--r0", "a,0,1"]
    )
    assert code == 1
    assert err == "nhjc: error: --r0 'a,0,1': could not convert string to float: 'a'\n"
    # a degenerate fixed point cannot seed the default time grid
    code, _, err = run_cli(capsys, ["dynamics", "--gamma", "2"])
    assert code == 1
    # a block index past the float range, and a spectral centre that overflows
    for argv, message in (
        (["exponent", "--n", str(10**400)], f"fixed: n must be a non-negative integer, got {10**400}"),
        (
            ["spectrum", "--grid", "gamma:0:1:3", "--omega", "1.7e308", "--epsilon", "1.7e308",
             "--n", "3"],
            "eigenvalues: spectral centre (2n+1) omega / 2 overflows on this grid",
        ),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (1, "", f"nhjc: error: {message}\n")


def test_sweep_overflow_exits_one(capsys):
    # (1e200)**2 overflows in the discriminant
    code, out, err = run_cli(capsys, ["metric", "--grid", "gamma:0:1e200:3"])
    assert code == 1 and out == ""
    assert err.startswith("nhjc: error: discriminant:") and err.count("\n") == 1
    # cosh(2 Gamma t) overflows once 2 Gamma t > 710
    code, out, err = run_cli(capsys, ["dynamics", "--gamma", "4", "--grid", "t:0:1000:10"])
    assert code == 1 and out == ""
    assert err.startswith("nhjc: error: survival/bloch:") and err.count("\n") == 1


def test_oversized_grid_exits_one(capsys):
    # 10^12 cells: refused by validation before any array is allocated
    argv = ["phase-map", "--grid", "gamma:0:1:1000000", "--grid", "epsilon:0:1:1000000"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("nhjc: error: grid:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, config, field",
    [
        (
            "spectrum",
            {"quantities": 5, "axes": [{"name": "delta", "min": 0, "max": 1, "steps": 2}]},
            "quantities",
        ),
        ("spectrum", {"fixed": [1]}, "fixed"),
        ("spectrum", {"axes": 5}, "axes"),
        ("spectrum", {"preset": ["fig1"]}, "preset"),
        ("exponent", {"fixed": {"omega": [1]}}, "fixed"),
        (
            "spectrum",
            {"n_list": [1.5], "axes": [{"name": "delta", "min": 0, "max": 1, "steps": 3}]},
            "n_list",
        ),
        (
            "spectrum",
            {"axes": [{"name": "delta", "min": 0, "max": 1, "steps": 3.7}]},
            "axes[1].steps",
        ),
        ("exponent", {"fixed": {"n": 1.5}}, "fixed.n"),
        ("dynamics", {"fixed": {"gamma": 4, "n": True}}, "fixed.n"),
        # whole numbers past the float range
        ("exponent", {"fixed": {"omega": 10**400}}, "fixed"),
        ("spectrum", {"axes": [{"name": "delta", "min": 0, "max": 10**400, "steps": 3}]}, "axes[1]"),
        (
            "dynamics",
            {"axes": [{"name": "t", "min": 0, "max": 1, "steps": 3}], "initial_bloch": [10**400, 0, 0]},
            "initial_bloch",
        ),
    ],
)
def test_config_type_errors_exit_one(capsys, tmp_path, command, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert code == 1 and out == ""
    assert err.startswith(f"nhjc: error: {field}:")


def test_io_errors_exit_two(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["spectrum", "--config", str(tmp_path / "missing.json")]
    )
    assert code == 2 and "i/o error" in err
    code, _, err = run_cli(
        capsys,
        ["spectrum", "--grid", "delta:0:4:5", "--out", str(tmp_path / "no" / "dir.csv")],
    )
    assert code == 2 and "i/o error" in err
    # an empty --out names no file; it does not mean stdout
    code, out, err = run_cli(capsys, ["spectrum", "--grid", "delta:0:4:5", "--out", ""])
    assert code == 2 and out == "" and "i/o error" in err


@pytest.mark.parametrize(
    "content", [b"{bad", b'{"fixed": "\xff"}', b"[" * 100000], ids=["json", "utf-8", "nesting"]
)
def test_unparsable_config_names_the_file(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, ["spectrum", "--config", str(path)])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"nhjc: error: config {path}: ")
    # a directory, like a missing file, stays an i/o error
    code, _, err = run_cli(capsys, ["spectrum", "--config", str(tmp_path)])
    assert code == 2 and "i/o error" in err


def test_failed_export_leaves_out_file_untouched(capsys, tmp_path):
    # every cell lies in the EP band and omits metric_norm: nothing to plot
    target = tmp_path / "f.svg"
    target.write_bytes(b"earlier output\n")
    argv = ["metric", "--omega", "1", "--epsilon", "5", "--grid",
            "gamma:1.99999999999:2.00000000001:3", "--format", "svg", "--out", str(target)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == "nhjc: error: no data to plot for kind 'metric'\n"
    assert target.read_bytes() == b"earlier output\n"


def test_json_roundtrip_through_cli(capsys, tmp_path):
    target = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys,
        ["metric", "--grid", "delta:0.1:1.9:7", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    cells, spec = read_json(target)
    assert len(cells) == 7
    assert spec.quantities == ("metric_norm", "phase")


def test_preset_registry_complete():
    assert set(PRESETS) == {"fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig3"}
    for name in ("fig2a", "fig2b", "fig2c", "fig2d"):
        assert [a["name"] for a in PRESETS[name]["axes"]] == ["gamma", "epsilon"]


def test_console_script_entry_point():
    # the child imports the same nhjc as this process, installed or not
    src = os.path.dirname(os.path.dirname(nhjc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "nhjc.cli", "spectrum", "--grid", "gamma:0:3:4"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0].startswith("gamma,n,phase")



_PRESETS_BEFORE = copy.deepcopy(PRESETS)
_G = ["--grid", "delta:0:4:5"]
_T = ["--gamma", "4", "--grid", "t:0:1:3"]
_AXES = [{"name": "delta", "min": 0.0, "max": 1.0, "steps": 3}]

# id, argv, the config file (None for no --config), and either the first 16
# hex digits of the stdout's sha256 or "error:<field>" for an exit-1 run whose
# one stderr line starts "nhjc: error: <field>:".
_LAYER_ROWS = [
    # defaults < preset: the preset's quantities replace the command default
    ("defaults", ["spectrum", *_G], None, "0164517b7a6bf8c9"),
    ("preset-over-defaults", ["metric", "--preset", "fig1"], None, "184322a8a78b2e29"),
    # preset < config: fixed merges by key; axes and quantities are replaced
    (
        "config-over-preset",
        ["spectrum", "--preset", "fig1"],
        {"fixed": {"n": 2}, "axes": _AXES, "quantities": ["metric_norm"]},
        "5c54675214ffbeb0",
    ),
    # config < flags: a flag replaces one fixed key, --grid replaces the axes
    (
        "flags-over-config",
        ["spectrum", "--epsilon", "7", "--grid", "gamma:0:2:3"],
        {"fixed": {"epsilon": 3.0, "omega": 2.0}, "axes": _AXES},
        "0fccbe280cbdec1c",
    ),
    # --preset wins over the config's "preset", which is then never checked
    ("preset-flag-over-config", ["spectrum", "--preset", "fig1"], {"preset": "fig3"},
     "184322a8a78b2e29"),
    ("preset-flag-over-bad-config", ["spectrum", "--preset", "fig1"], {"preset": ["x"]},
     "184322a8a78b2e29"),
    ("config-preset", ["spectrum"], {"preset": "fig1", "fixed": {"epsilon": 4.0}},
     "444a6b9f88594a28"),
    ("n-list", ["spectrum", *_G], {"n_list": [0, 2]}, "24a1d983a8343286"),
    ("initial-bloch", ["dynamics", *_T], {"initial_bloch": [1.0, 0.0, 0.0]}, "19e891a042ac30e5"),
    ("r0-over-config", ["dynamics", *_T, "--r0", "0,-1,0"], {"initial_bloch": [1.0, 0.0, 0.0]},
     "3b61058154693880"),
    # null in the config: the key takes its default, whatever the preset gave it
    ("null-quantities", ["spectrum", *_G], {"quantities": None}, "0164517b7a6bf8c9"),
    ("null-quantities-over-preset", ["metric", "--preset", "fig1"], {"quantities": None},
     "6faa7c79bbe4042b"),
    ("null-initial-bloch", ["dynamics", *_T], {"initial_bloch": None}, "3e2415959b853806"),
    ("null-preset", ["spectrum", *_G], {"preset": None}, "0164517b7a6bf8c9"),
    ("null-axes", ["spectrum", *_G], {"axes": None}, "0164517b7a6bf8c9"),
    ("null-axes-over-preset", ["spectrum", "--preset", "fig1"], {"axes": None}, "error:spectrum"),
    ("null-n-list", ["spectrum", *_G], {"n_list": None}, "0164517b7a6bf8c9"),
    ("null-fixed", ["spectrum", *_G], {"fixed": None}, "0164517b7a6bf8c9"),
    # a null inside fixed: that key takes its default, whatever the preset gave it
    ("null-fixed-key", ["spectrum", *_G], {"fixed": {"omega": None}}, "0164517b7a6bf8c9"),
    ("null-fixed-gamma", ["spectrum", "--grid", "delta:0:1:3"], {"fixed": {"gamma": None}},
     "8de73e386debe0ba"),
    ("no-config-gamma", ["spectrum", "--grid", "delta:0:1:3"], None, "8de73e386debe0ba"),
    # fig2b with n = 0 is fig2a
    ("null-n-over-preset", ["phase-map", "--preset", "fig2b"], {"fixed": {"n": None}},
     "a693e5abdb30fc25"),
    # exponent reads only fixed
    ("exponent-fixed", ["exponent", "--preset", "fig1"], {"fixed": {"n": 1}, "quantities": 5},
     "5fce419822ce78e8"),
    ("exponent-list-axes", ["exponent"], {"axes": [1, 2, 3]}, "5fce419822ce78e8"),
    ("exponent-bad-axes", ["exponent"], {"axes": 5}, "5fce419822ce78e8"),
    # axes: empty, not a list (unread where --grid replaces it), or the wrong count
    ("empty-axes", ["spectrum"], {"axes": []}, "error:spectrum"),
    ("dynamics-empty-axes", ["dynamics", "--gamma", "4"], {"axes": []}, "9ceec7f7610ce01d"),
    ("dynamics-object-axes", ["dynamics", "--gamma", "4"], {"axes": {}}, "error:axes"),
    ("number-axes", ["spectrum", *_G], {"axes": 5}, "0164517b7a6bf8c9"),
    ("three-axes", ["spectrum", *_G, *_G, *_G], None, "error:spectrum"),
    ("one-axis-phase-map", ["phase-map", *_G], None, "error:phase-map"),
    ("config-not-object", ["spectrum"], [], "error:config"),
    ("fixed-not-object", ["spectrum", *_G], {"fixed": [1]}, "error:fixed"),
    ("unknown-preset", ["spectrum"], {"preset": "fig9"}, "error:preset"),
]


@pytest.mark.parametrize(
    "argv, config, expect", [pytest.param(*row, id=name) for name, *row in _LAYER_ROWS]
)
def test_option_layers(capsys, tmp_path, argv, config, expect):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    if expect.startswith("error:"):
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"nhjc: error: {expect[6:]}:")
    else:
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == expect
    assert PRESETS == _PRESETS_BEFORE


# the values a config's numeric fields are searched over: JSON numbers of
# every size, bools, strings, null and lists
_JSON_VALUE = st.one_of(
    st.integers(-3, 60),
    st.floats(-10.0, 10.0),
    st.floats(),
    st.integers(-(2**1100), 2**1100),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(-3, 3), st.floats()), max_size=3),
)
# counts stay small, or far past the cell cap: a grid within the cap is allocated
_JSON_COUNT = st.one_of(
    st.integers(-3, 40),
    st.floats(-3.0, 40.0),
    st.sampled_from([10**400, 1e300, math.inf, math.nan]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=3),
)
_AXIS = st.fixed_dictionaries(
    {"name": st.sampled_from(AXIS_NAMES), "min": _JSON_VALUE, "max": _JSON_VALUE, "steps": _JSON_COUNT}
)
_COMMANDS = ["spectrum", "phase-map", "metric", "entropy", "dynamics", "exponent"]


@st.composite
def _command_and_config(draw):
    """A command and a config with as many axes as the command takes."""
    command = draw(st.sampled_from(_COMMANDS))
    axes = 2 if command == "phase-map" else 1
    return command, draw(st.fixed_dictionaries({}, optional={
        "fixed": st.fixed_dictionaries({}, optional={
            "omega": _JSON_VALUE, "epsilon": _JSON_VALUE, "gamma": _JSON_VALUE, "n": _JSON_COUNT,
        }),
        "axes": st.lists(_AXIS, min_size=axes, max_size=axes),
        "n_list": st.lists(_JSON_COUNT, max_size=3),
        "initial_bloch": st.lists(_JSON_VALUE, min_size=3, max_size=3),
    }))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=_command_and_config(), output=st.sampled_from(["csv", "json", "svg"]))
def test_config_search_exits_with_a_code_and_one_error_line(tmp_path_factory, drawn, output):
    # cli_main never raises: it exits 0, or 1 or 2 with one error line
    command, config = drawn
    path = tmp_path_factory.getbasetemp() / "search.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, "--config", str(path), "--format", output])
    assert code in (0, 1, 2), (config, code)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("nhjc: error: "), config
