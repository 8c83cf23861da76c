"""Preset outputs pinned by sha256: refactors must keep the exported bytes.

The prefixes are the first 16 hex digits of each file's sha256.  The
benchmark checks a subset of these values; a deliberate change of output
format updates them here and there together.
"""

import hashlib
import json
import random

import pytest

from nhjc.cli import cli_main

GOLDENS = {
    "fig1.csv": (["spectrum", "--preset", "fig1", "--format", "csv"], "184322a8a78b2e29"),
    "fig1.json": (["spectrum", "--preset", "fig1", "--format", "json"], "2ea49d027d7acfab"),
    "fig3.csv": (["entropy", "--preset", "fig3", "--format", "csv"], "e25ff7489bff950e"),
    "fig3.json": (["entropy", "--preset", "fig3", "--format", "json"], "ff0e45e5a5d6f213"),
    "fig2a.csv": (["phase-map", "--preset", "fig2a", "--format", "csv"], "a693e5abdb30fc25"),
    "fig2b.csv": (["phase-map", "--preset", "fig2b", "--format", "csv"], "fd1208081bf30e54"),
    "fig2c.csv": (["phase-map", "--preset", "fig2c", "--format", "csv"], "7a81aed03e285377"),
    "fig2d.csv": (["phase-map", "--preset", "fig2d", "--format", "csv"], "7486d2217f034766"),
    "fig2a.svg": (["phase-map", "--preset", "fig2a", "--format", "svg"], "07b0808852700827"),
    "dynamics.csv": (["dynamics", "--gamma", "4", "--r0", "0,0,1"], "9ceec7f7610ce01d"),
    "exponent.txt": (["exponent"], "5fce419822ce78e8"),
    "exponent-n2.txt": (["exponent", "--omega", "3", "--n", "2"], "a468162b9ad137ea"),
    # line 202 is the EP cell, whose metric_norm field is empty
    "metric.csv": (["metric", "--grid", "gamma:0:4:401", "--format", "csv"], "a6e027235c842e83"),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_golden(name, tmp_path):
    argv, prefix = GOLDENS[name]
    target = tmp_path / name
    assert cli_main(argv + ["--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest()[:16] == prefix


# the nine goldens that the CLI's own options produce
CLI_GOLDENS = (
    "fig1.csv", "fig1.json", "fig3.csv", "fig3.json", "fig2a.csv", "fig2d.csv",
    "fig2a.svg", "dynamics.csv", "exponent.txt",
)


def test_goldens_hold_when_runs_share_a_process(tmp_path):
    # cli_main reuses one parser: an option given in one run must not reach
    # the next.  Each golden runs twice, in shuffled order, after a run that
    # sets --r0, --omega, --n, --grid or --config.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fixed": {"omega": 2.0, "n": 1}}))
    detours = [
        ["dynamics", "--gamma", "4", "--r0", "0,1,0"],
        ["exponent", "--omega", "3", "--n", "2"],
        ["phase-map", "--config", str(config), "--grid", "gamma:0:1:3", "--grid", "epsilon:0:1:3"],
        ["spectrum", "--preset", "fig1", "--config", str(config), "--format", "json"],
    ]
    names = list(CLI_GOLDENS) * 2
    random.Random(13).shuffle(names)
    for k, name in enumerate(names):
        assert cli_main(detours[k % len(detours)] + ["--out", str(tmp_path / "detour")]) == 0
        argv, prefix = GOLDENS[name]
        if name == "dynamics.csv" and k % 2:
            argv = argv[:-2]  # without --r0, the default 0,0,1 gives the same bytes
        target = tmp_path / name
        assert cli_main(argv + ["--out", str(target)]) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest()[:16] == prefix, (k, name)
