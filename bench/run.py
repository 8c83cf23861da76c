"""nhjc benchmark: one workload, timed end to end, or traced per module.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

The package is imported from ./src, never from an installed copy.  Each run
is one single-threaded, closed-loop client: a request starts when the
previous one has finished.  A run measures

- setup: several fresh interpreters that import nhjc.cli and build the CLI
  parser (setup_s is their median wall time);
- one untimed warm-up pass over the workload's requests;
- timed passes until --seconds of request time have been spent.

Every request's output is checked after it returns, outside its timing.
End-to-end times are scaled to a fixed host speed with probes taken between
requests (see gauge.py); the raw figures are printed beside them.  With
--trace 1 half of the time goes to untraced passes and half to passes with
a span recorder installed (see spans.py); the per-layer figures are raw and
per traced pass.  Human-readable lines come first; the last line of stdout
is the JSON result.  Spans and a copy of the result go to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import gauge
import spans
import stats

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_STARTS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import nhjc.cli\n"
    "nhjc.cli.build_parser()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, nhjc.cli.__file__)\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup() -> dict:
    """Median wall time of fresh interpreters importing nhjc.cli and building
    the parser, scaled by the probes taken just before and after each start;
    the first start, which writes bytecode caches, is discarded."""
    walls, raw, numpy_s, nhjc_s = [], [], [], []
    for i in range(SETUP_STARTS + 1):
        before = gauge.probe()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        speed = gauge.REFERENCE_S / (0.5 * (before + gauge.probe()))
        if proc.returncode != 0:
            raise RuntimeError(f"setup start failed: {proc.stderr.strip()}")
        np_s, nh_s, where = proc.stdout.split()
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise RuntimeError(f"nhjc imported from {where}, not from {SRC}")
        if i == 0:
            continue
        walls.append(wall * speed)
        raw.append(wall)
        numpy_s.append(float(np_s))
        nhjc_s.append(float(nh_s))
    return {
        "setup_s": statistics.median(walls),
        "setup_raw_s": statistics.median(raw),
        "numpy_import_s": statistics.median(numpy_s),
        "nhjc_import_s": statistics.median(nhjc_s),
    }


class PassResult:
    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.check_failed = 0
        self.expected_errors = 0
        self.problems: list[str] = []


def run_pass(workload, host: gauge.Gauge, recorder=None) -> PassResult:
    """One closed-loop pass over the workload's requests.

    Host-speed probes run between requests, never inside one.
    """
    res = PassResult()
    for req in workload.requests:
        host.maybe_probe()
        out: dict = {}
        error = None
        t0 = time.perf_counter()
        try:
            if recorder is None:
                req.run(out)
            else:
                with recorder.request_span():
                    req.run(out)
        except Exception as exc:  # noqa: BLE001 - every request must be accounted for
            error = exc
        elapsed = time.perf_counter() - t0
        res.starts.append(t0)
        res.latencies.append(elapsed)
        res.wall += elapsed
        res.attempted += 1
        if error is not None and not (req.hard and isinstance(error, ValueError)):
            res.failed += 1
            if len(res.problems) < 10:
                res.problems.append(f"{req.label}: {type(error).__name__}: {error}")
            continue
        if error is not None:
            res.expected_errors += 1
        if recorder is None:
            problems = req.check(out)
        else:
            with recorder.suspended():
                problems = req.check(out)
        if problems:
            res.failed += 1
            res.check_failed += 1
            res.problems.extend(problems[: max(0, 10 - len(res.problems))])
    host.probe()
    return res


def timed_passes(workload, seconds: float, host: gauge.Gauge, recorder=None) -> list[PassResult]:
    """Passes until `seconds` of request time have been measured (at least one)."""
    results = []
    spent = 0.0
    while not results or spent < seconds:
        results.append(run_pass(workload, host, recorder))
        spent += results[-1].wall
    return results


def scaled(passes, host: gauge.Gauge) -> list[list[float]]:
    """Each pass's request latencies scaled to the reference host speed."""
    return [
        [lat * host.scale(t) for t, lat in zip(p.starts, p.latencies)] for p in passes
    ]


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def end_to_end(workload, setup, passes, host: gauge.Gauge, peak_rss_kib: int) -> tuple[dict, dict]:
    per_pass = scaled(passes, host)
    walls = [sum(lat) for lat in per_pass]
    latencies = [x for lat in per_pass for x in lat]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall = statistics.median(walls)
    raw_wall = statistics.median(p.wall for p in passes)
    raw_latencies = [x for p in passes for x in p.latencies]
    tail_p, tail = stats.tail_percentile(latencies)
    raw_tail = stats.percentile(raw_latencies, tail_p)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (wall, "s"),
        "cells_per_s": (workload.cells_per_pass / wall, "1/s"),
        "request_p50_ms": (1e3 * stats.percentile(latencies, 50.0), "ms"),
        "request_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {SETUP_STARTS} fresh starts; raw {setup['setup_raw_s']:.6g} s",
        "wall_s": f"median of {len(walls)} timed passes; raw {raw_wall:.6g} s",
        "cells_per_s": f"{workload.cells_per_pass} cells or points per pass",
        "request_p50_ms": f"of {len(latencies)} requests; raw "
                          f"{1e3 * stats.percentile(raw_latencies, 50.0):.6g} ms",
        "request_tail_ms": f"p{tail_p:g} of {len(latencies)} requests; raw {1e3 * raw_tail:.6g} ms",
        "peak_rss_mb": "ru_maxrss of the workload process after the timed passes",
        "ok_frac": f"failed_frac {failed / attempted:.6g}: {failed} of {attempted} requests failed",
    }
    return metrics, notes


def per_layer(setup, untraced, traced, recorder, host: gauge.Gauge) -> tuple[dict, dict]:
    selfs = spans.self_times(recorder.start, recorder.end, recorder.parent)
    worst = spans.request_balance(
        recorder.name_id, recorder.start, recorder.end, recorder.request, selfs)
    total_busy = sum(p.wall for p in traced)
    if worst > 1e-9 + 1e-6 * total_busy:
        raise RuntimeError(f"self times do not add up to request busy time (off by {worst:.3g} s)")
    totals = spans.layer_totals(recorder.names, recorder.name_id, recorder.start, recorder.end, selfs)
    k = float(len(traced))
    counters = {key: value / k for key, value in recorder.counters.items()}
    m: dict = {
        "setup.numpy_import_s": (setup["numpy_import_s"], "s"),
        "setup.nhjc_import_s": (setup["nhjc_import_s"], "s"),
    }

    def layer(name, *fields):
        calls, busy, own = (x / k for x in totals.get(name, (0, 0.0, 0.0)))
        nbytes = counters.get(name + ".bytes", 0.0)
        values = {
            "calls": (calls, "count"),
            "busy_s": (busy, "s"),
            "self_s": (own, "s"),
            "us_per_call": (1e6 * busy / calls if calls else 0.0, "us"),
            "bytes": (nbytes, "B"),
            "mb_per_s": (nbytes / busy / 1e6 if busy else 0.0, "MB/s"),
        }
        for f in fields:
            m[f"{name}.{f}"] = values[f]

    layer("cli.cli_main", "calls", "busy_s", "self_s")
    layer("scan.run_sweep", "calls", "busy_s", "self_s")
    evaluated = counters.get("scan.cells.evaluated", 0.0)
    sweep_busy = totals.get("scan.run_sweep", (0, 0.0, 0.0))[1] / k
    m["scan.run_sweep.us_per_cell"] = (1e6 * sweep_busy / evaluated if evaluated else 0.0, "us")
    layer("scan.export_csv", "busy_s", "bytes", "mb_per_s")
    layer("scan.export_json", "busy_s", "bytes", "mb_per_s")
    layer("scan.read_csv", "busy_s", "mb_per_s")
    layer("scan.read_json", "busy_s", "mb_per_s")
    for phase in ("unbroken", "broken", "ep"):
        m[f"scan.cells.{phase}"] = (counters.get(f"scan.cells.{phase}", 0.0), "count")
    useful = counters.get("scan.cells.useful", 0.0)
    m["scan.useful_cell_ratio"] = (useful / evaluated if evaluated else 0.0, "ratio")
    layer("plots.render_svg", "calls", "busy_s", "bytes")
    layer("model.classify_phase", "calls", "busy_s")
    layer("model.spectrum_closed_form", "calls", "busy_s")
    for fn in ("metric", "intertwiner", "projectors", "metric_divergence_exponent"):
        layer(f"biortho.{fn}", "calls", "busy_s", "us_per_call")
    layer("entropy.entanglement_entropy", "calls", "busy_s", "us_per_call")
    for fn in ("effective_generator", "evolve_no_jump"):
        layer(f"dynamics.{fn}", "calls", "busy_s", "us_per_call")
    for fn in ("sqrt_hpd", "inv2", "loglog_slope"):
        layer(f"numerics.{fn}", "calls", "busy_s")
    plain = statistics.median(sum(lat) for lat in scaled(untraced, host))
    with_spans = statistics.median(sum(lat) for lat in scaled(traced, host))
    m["trace.overhead_frac"] = ((with_spans - plain) / plain, "ratio")
    m["pointwise.expected_errors"] = (
        statistics.median(p.expected_errors for p in untraced), "count")
    notes = {
        "trace": f"{len(untraced)} untraced and {len(traced)} traced passes, "
                 f"{len(recorder.start)} spans; per-layer values are per traced pass",
    }
    if recorder.missing:
        notes["missing"] = "not found, reported as 0: " + ", ".join(sorted(recorder.missing))
    return m, notes


def export_sizes(out_dir: str) -> dict:
    return {
        name: os.path.getsize(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "physics_sweeps", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nhjc", "__init__.py")):
        print(f"bench: no nhjc sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    setup = measure_setup()
    import nhjc

    if not os.path.abspath(nhjc.__file__).startswith(SRC + os.sep):
        print(f"bench: nhjc imported from {nhjc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    # The harness's own objects (inputs, closures) stay out of the
    # collector's way, so GC pauses reflect only what nhjc allocates.
    gc.collect()
    gc.freeze()

    host = gauge.Gauge()
    warmup = run_pass(workload, host)
    if args.trace == 0:
        timed = timed_passes(workload, args.seconds, host)
        counted = timed
    else:
        untraced = timed_passes(workload, args.seconds / 2, host)
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            traced = timed_passes(workload, args.seconds / 2, host, recorder)
        finally:
            recorder.uninstall()
        counted = untraced + traced
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace == 0:
        metrics, notes = end_to_end(workload, setup, timed, host, peak_rss_kib)
    else:
        metrics, notes = per_layer(setup, untraced, traced, recorder, host)
        recorder.write(os.path.join(OUT, f"spans-{args.workload}.txt"))

    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    check_failed = sum(p.check_failed for p in [warmup] + counted)
    problems = list(dict.fromkeys(q for p in [warmup] + counted for q in p.problems))[:20]
    facts = machine_facts()
    facts.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cells_per_pass": workload.cells_per_pass,
        "requests_per_pass": len(workload.requests), "sizes": workload.sizes,
        "bytes_per_export": export_sizes(out_dir),
    })

    print(f"nhjc benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:>16.6g} {unit:6s} {note}")
    for key in ("trace", "missing"):
        if key in notes:
            print(f"  {notes[key]}")
    for problem in problems:
        print(f"  problem: {problem}")
    result = {
        "correct": check_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as stream:
        json.dump({"facts": facts, "problems": problems, **result}, stream, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
