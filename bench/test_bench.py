"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


@pytest.mark.parametrize(
    "n, p",
    [(19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    values = [float(i) for i in range(n, 0, -1)]
    chosen, value = stats.tail_percentile(values)
    assert chosen == p
    if n >= 20:
        assert sum(v > value for v in values) >= 10
    assert value == stats.percentile(values, p)


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50.0) == 3.0
    assert stats.percentile(values, 75.0) == 4.0
    assert stats.percentile(values, 100.0) == 5.0
    assert stats.percentile([7.0], 99.9) == 7.0


def test_self_time_subtracts_union_of_children():
    # 0: root [0, 10]; 1 and 2 overlap; 3 sticks out past the root's end;
    # 4 is a grandchild inside 1.
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    selfs = spans.self_times(start, end, parent)
    # covered by children of 0: [1, 5] and [8, 10] -> 6
    assert selfs == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_times_of_nested_request_add_up_to_busy_time():
    # two requests, properly nested as a stack-based recorder produces them
    name_id = [0, 1, 2, 2, 0, 1]
    start = [0.0, 0.5, 0.6, 1.0, 3.0, 3.2]
    end = [2.0, 1.8, 0.9, 1.5, 4.0, 3.9]
    parent = [-1, 0, 1, 1, -1, 4]
    request = [0, 0, 0, 0, 1, 1]
    selfs = spans.self_times(start, end, parent)
    assert spans.request_balance(name_id, start, end, request, selfs) == pytest.approx(0.0)
    totals = spans.layer_totals(["request", "a", "b"], name_id, start, end, selfs)
    assert totals["b"][0] == 2
    assert totals["b"][1] == pytest.approx(0.8)
    assert totals["a"][2] == pytest.approx(1.3 - 0.8 + 0.7)


def test_recorder_wraps_every_name_a_caller_looks_up(tmp_path):
    import nhjc.biortho
    import nhjc.cli
    import nhjc.scan

    original = nhjc.biortho.metric
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert nhjc.scan.metric is nhjc.biortho.metric
        assert nhjc.scan.metric is not original
        assert nhjc.cli.run_sweep is nhjc.scan.run_sweep
        with rec.request_span():
            assert nhjc.cli.cli_main(
                ["metric", "--grid", "gamma:0.1:1:5", "--out", str(tmp_path / "m.csv")]) == 0
    finally:
        rec.uninstall()
    assert nhjc.scan.metric is original
    names = [rec.names[i] for i in rec.name_id]
    assert names[:3] == ["request", "cli.cli_main", "scan.run_sweep"]
    assert names.count("biortho.metric") == 5
    # biortho.metric is called from scan, so its parent is a run_sweep span
    first = names.index("biortho.metric")
    assert names[rec.parent[first]] == "scan.run_sweep"
    assert rec.counters["scan.export_csv.bytes"] == os.path.getsize(tmp_path / "m.csv")
    assert rec.counters["scan.cells.unbroken"] == 5


def test_golden_check_fails_on_one_flipped_byte(tmp_path):
    import nhjc.cli

    path = tmp_path / "fig1.csv"
    assert nhjc.cli.cli_main(["spectrum", "--preset", "fig1", "--out", str(path)]) == 0
    data = bytearray(path.read_bytes())
    assert checks.golden_problem("fig1.csv", bytes(data)) is None
    data[len(data) // 2] ^= 0x01
    assert checks.golden_problem("fig1.csv", bytes(data)) is not None


def test_phase_oracle_matches_the_model_band():
    from nhjc.model import ModelParams, classify_phase

    for omega, eps, gamma, n in [(1.0, 5.0, 1.0, 0), (1.0, 5.0, 3.0, 0), (1.0, 5.0, 2.0, 0),
                                 (0.5, -1.0, 0.3, 3)]:
        want = classify_phase(ModelParams(omega, eps, gamma, n)).value.value
        assert str(checks.phase_labels(omega, eps, gamma, n)) == want


def test_seeded_inputs_repeat_and_keep_fixed_shares():
    import workloads

    a = workloads.pointwise_points(3)
    b = workloads.pointwise_points(3)
    c = workloads.pointwise_points(4)
    assert [(p.omega, p.gamma, p.t, p.kind) for p in a] == [(p.omega, p.gamma, p.t, p.kind) for p in b]
    assert [p.omega for p in a] != [p.omega for p in c]
    for pts in (a, c):
        kinds = [p.kind for p in pts]
        assert len(pts) == workloads.POINTS
        assert kinds.count("ep_band") == workloads.EP_BAND_POINTS
        assert kinds.count("t_overflow") == workloads.T_OVERFLOW_POINTS
        assert kinds.count("gamma_overflow") == workloads.GAMMA_OVERFLOW_POINTS
        assert sum(p.fit for p in pts) == workloads.FIT_POINTS
    for p in a:
        if p.kind == "ep_band":
            assert str(checks.phase_labels(p.omega, p.epsilon, p.gamma, p.n)) == "ExceptionalPoint"
    assert workloads.physics_family(3) == workloads.physics_family(3)
    assert workloads.physics_family(3) != workloads.physics_family(4)


def test_gauge_scales_by_the_probes_around_a_request():
    import gauge

    host = gauge.Gauge()
    host.times = [0.0, 1.0, 2.0]
    host.values = [gauge.REFERENCE_S, 2 * gauge.REFERENCE_S, 4 * gauge.REFERENCE_S]
    # a request started between the first two probes ran at 1.5x slowdown
    assert host.scale(0.5) == pytest.approx(1 / 1.5)
    assert host.scale(1.5) == pytest.approx(1 / 3.0)
    # after the last probe only that probe brackets it
    assert host.scale(2.5) == pytest.approx(0.25)
