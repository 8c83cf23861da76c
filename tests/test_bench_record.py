"""Tests for the check mode of tools/bench_record.py."""

import copy
import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RUN = {"workload": "pointwise", "seed": 1, "trace": 0, "correct": True, "failed": 0}
GOOD = {
    "revision": "0123456789abcdef0123456789abcdef01234567",
    "dirty": [],
    "runs": [RUN, dict(RUN, trace=1)],
    "claim": {"pairs": [{"first": "parent", "parent": RUN, "change": RUN}]},
}


def _check(tmp_path, bench) -> int:
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(bench))
    return bench_record.check([str(path)])


def test_a_clean_record_of_correct_runs_passes(tmp_path):
    assert _check(tmp_path, GOOD) == 0


def _broken(edit):
    bench = copy.deepcopy(GOOD)
    edit(bench)
    return bench


@pytest.mark.parametrize("edit", [
    lambda b: b.pop("revision"),
    lambda b: b.update(revision="HEAD"),
    lambda b: b.update(dirty=[" M src/nhjc/biortho.py"]),
    lambda b: b.update(runs=[], claim={}),
    lambda b: b["runs"][1].update(correct=False),
    lambda b: b["runs"][0].update(failed=3),
    lambda b: b["claim"]["pairs"][0]["parent"].update(correct="true"),
    lambda b: b["claim"]["pairs"][0]["change"].pop("failed"),
])
def test_a_record_without_a_clean_revision_or_with_a_bad_run_fails(tmp_path, edit, capsys):
    assert _check(tmp_path, _broken(edit)) == 1
    assert "bench_record: " in capsys.readouterr().err


def test_no_files_fails():
    assert bench_record.check([]) == 1


def test_committed_bench_files_pass_the_check():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    assert bench_record.check(paths) == 0
