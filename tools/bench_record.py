"""Record a BENCH_<pr>.json from the benchmark harness, or check recorded ones.

Record, from the repository root with src/ and bench/ committed:

    python3 tools/bench_record.py --out BENCH_29.json --against cddd760

This runs the unchanged bench/run.py on each workload for BENCHMARK.json's
run_seconds with --trace 0 on seeds 1, 2 and 3, then once with --trace 1 on
seed 1.
Each run leaves .bench_out/result-<workload>-trace<k>.json, which is copied
to .bench_out/record/ before the next run overwrites it.  The file holds
the git revision, the machine facts, every run with its call's wall
seconds, the median and minimum of each end-to-end metric per workload,
the traced per-layer rows, and the rows known to misread.

With --against REV it also makes the paired runs behind a speed claim:
ten pairs of pointwise runs at seed 91 and --trace 0, alternating which
side runs first.  The parent side runs from a `git archive` of REV
unpacked into .bench_build/REV, with that directory as its working
directory.  At 20 s a record takes about 9 minutes of wall time on 2
cores, and the claim about 13 minutes more.

Check, as CI does:

    python3 tools/bench_record.py --check

loads every BENCH_*.json in the repository root (or the files named) and
fails unless each names a committed revision and every run in it reports
correct: true and failed: 0.

Standard library only; it imports nothing from src/ or bench/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("figures", "physics_sweeps", "pointwise")
SEEDS = (1, 2, 3)
TRACED_SEED = 1
CLAIM_WORKLOAD, CLAIM_SEED, CLAIM_PAIRS = "pointwise", 91, 10

# Rows of today's harness that do not read what their names say, each with
# its cause; the zero rows are listed as this record read them.
MISREAD = [
    {
        "rows": ["pointwise peak_rss_mb"],
        "cause": "bench/run.py keeps a start time and a latency for every request "
                 "(PassResult.starts and .latencies), about 85 B each, so the peak "
                 "grows with run length and throughput, not with the library's memory",
    },
    {
        "rows": ["cli.cli_main.self_s", "trace.overhead_frac"],
        "cause": "in traced runs spans._count_cells builds every PhaseCell of each "
                 "table inside the cli_main span, which inflates both",
    },
]
ZERO_ROWS = [
    (WORKLOADS, ("numerics.",),
     "spans.TARGETS still names nhjc.numerics, a module that no longer exists"),
    (("figures", "physics_sweeps"), ("model.", "entropy.", "dynamics."),
     "the sweep kernel calls none of the wrapped model, entropy and dynamics functions"),
]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.rstrip()


def _run(root: str, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One bench/run.py call in `root`; its result file with the call's wall seconds."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(trace)]
    start = time.perf_counter()
    subprocess.run(command, cwd=root, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    path = os.path.join(root, ".bench_out", f"result-{workload}-trace{trace}.json")
    with open(path) as stream:
        result = json.load(stream)
    keep = os.path.join(root, ".bench_out", "record")
    os.makedirs(keep, exist_ok=True)
    shutil.copy(path, os.path.join(keep, f"result-{workload}-trace{trace}-seed{seed}.json"))
    facts = result.pop("facts")
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, correct {result['correct']}, "
          f"failed {result['failed']}", file=sys.stderr, flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "call_wall_s": wall,
            "facts": facts, **result}


def _value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def _summary(runs: list[dict], names: list[str]) -> dict:
    return {
        name: {"median": statistics.median(values), "min": min(values), "runs": values}
        for name in names
        for values in [[_value(run, name) for run in runs]]
    }


def _claim(rev: str, seconds: float, metrics: dict) -> dict:
    """Paired runs of REV's archive and this checkout, alternating which goes first."""
    parent = os.path.join(ROOT, ".bench_build", rev)
    shutil.rmtree(parent, ignore_errors=True)
    os.makedirs(parent)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", parent], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench_record: git archive {rev} failed")
    sides = {"parent": parent, "change": ROOT}
    runs = []
    for k in range(CLAIM_PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = _run(sides[side], CLAIM_WORKLOAD, CLAIM_SEED, 0, seconds)
        runs.append(pair)
    summary = {}
    for name, better in metrics.items():
        parent_values = [_value(pair["parent"], name) for pair in runs]
        change_values = [_value(pair["change"], name) for pair in runs]
        sign = -1.0 if better == "lower" else 1.0
        summary[name] = {
            "parent_median": statistics.median(parent_values),
            "parent_quartiles": statistics.quantiles(parent_values, n=4),
            "change_median": statistics.median(change_values),
            "change_quartiles": statistics.quantiles(change_values, n=4),
            "median_ratio": statistics.median(c / p for c, p in zip(change_values, parent_values)),
            "change_wins": sum(sign * (c - p) > 0.0 for c, p in zip(change_values, parent_values)),
        }
    return {"against": _git("rev-parse", rev), "workload": CLAIM_WORKLOAD, "seed": CLAIM_SEED,
            "seconds": seconds, "pairs": runs, "summary": summary}


def record(path: str, against: str | None) -> int:
    dirty = _git("status", "--porcelain", "--", "src", "bench")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        declared = json.load(stream)
    e2e = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            runs.append(_run(ROOT, workload, seed, 0, seconds))
        runs.append(_run(ROOT, workload, TRACED_SEED, 1, seconds))
    facts = {key: runs[0]["facts"][key] for key in ("python", "numpy", "nproc", "cpu")}
    facts["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    facts["sys.dont_write_bytecode"] = sys.dont_write_bytecode
    end_to_end, per_layer = {}, {}
    misread = list(MISREAD)
    for workload in WORKLOADS:
        untraced = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        end_to_end[workload] = _summary(untraced, list(e2e))
        traced = next(r for r in runs if r["workload"] == workload and r["trace"] == 1)
        per_layer[workload] = {name: m["value"] for name, m in traced["metrics"].items()}
    for workloads, prefixes, cause in ZERO_ROWS:
        rows = [f"{workload} {name}" for workload in workloads
                for name, value in per_layer[workload].items()
                if name.startswith(prefixes) and value == 0.0]
        if rows:
            misread.append({"rows": rows, "cause": cause})
    out = {
        "revision": _git("rev-parse", "HEAD"),
        "dirty": dirty.splitlines(),
        "command": f"bench/run.py --seconds {seconds:g}",
        "seeds": list(SEEDS),
        "traced_seed": TRACED_SEED,
        "facts": facts,
        "units": {name: m["unit"] for run in runs for name, m in run["metrics"].items()},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "misread": misread,
        "runs": runs,
    }
    if against:
        out["claim"] = _claim(against, seconds, e2e)
    with open(path, "w") as stream:
        json.dump(out, stream, indent=1)
        stream.write("\n")
    return check([path])


def check(paths: list[str]) -> int:
    """0 if every file names a clean 40-hex revision and every run in it,
    the claim's pairs included, reports correct: true and failed: 0."""
    if not paths:
        print("bench_record: no BENCH_*.json to check", file=sys.stderr)
        return 1
    problems = []
    for path in paths:
        with open(path) as stream:
            bench = json.load(stream)
        if not re.fullmatch(r"[0-9a-f]{40}", str(bench.get("revision"))):
            problems.append(f"{path}: no revision")
        if bench.get("dirty"):
            problems.append(f"{path}: src/ or bench/ differed from the revision: {bench['dirty']}")
        runs = list(bench.get("runs", []))
        for pair in bench.get("claim", {}).get("pairs", []):
            runs += [pair["parent"], pair["change"]]
        if not runs:
            problems.append(f"{path}: no runs")
        for run in runs:
            if run.get("correct") is not True or run.get("failed") != 0:
                problems.append(f"{path}: {run.get('workload')} seed {run.get('seed')} trace "
                                f"{run.get('trace')}: correct {run.get('correct')}, "
                                f"failed {run.get('failed')}")
    for problem in problems:
        print(f"bench_record: {problem}", file=sys.stderr)
    if not problems:
        print(f"bench_record: {len(paths)} file(s) checked")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs="*", metavar="FILE",
                        help="check these files (default: every BENCH_*.json) and exit")
    parser.add_argument("--out", help="the BENCH_<pr>.json to write")
    parser.add_argument("--against", metavar="REV", help="also run paired claim runs of REV")
    args = parser.parse_args(argv)
    if args.check is not None:
        return check(args.check or sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))))
    if not args.out:
        parser.error("one of --out or --check is required")
    return record(args.out, args.against)


if __name__ == "__main__":
    sys.exit(main())
