"""In-memory span recorder for the traced benchmark run.

Each public nhjc function listed in TARGETS is replaced, in every nhjc module
that holds a reference to it, by a wrapper that records one span per call:
name, start, end, parent span and request id.  `scan` imports `metric`,
`entanglement_entropy` and the others by name, so the wrapper has to be
installed at every name a caller looks up, not only in the defining module.

Spans live in flat arrays while the run is going and are written to disk
once, after the last timed pass.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

# (layer.function, defining module, attribute); the layer is the module name.
TARGETS = (
    ("cli.cli_main", "nhjc.cli", "cli_main"),
    ("scan.run_sweep", "nhjc.scan", "run_sweep"),
    ("scan.export_csv", "nhjc.scan", "export_csv"),
    ("scan.export_json", "nhjc.scan", "export_json"),
    ("scan.read_csv", "nhjc.scan", "read_csv"),
    ("scan.read_json", "nhjc.scan", "read_json"),
    ("plots.render_svg", "nhjc.plots", "render_svg"),
    ("model.classify_phase", "nhjc.model", "classify_phase"),
    ("model.spectrum_closed_form", "nhjc.model", "spectrum_closed_form"),
    ("biortho.metric", "nhjc.biortho", "metric"),
    ("biortho.intertwiner", "nhjc.biortho", "intertwiner"),
    ("biortho.projectors", "nhjc.biortho", "projectors"),
    ("biortho.metric_divergence_exponent", "nhjc.biortho", "metric_divergence_exponent"),
    ("entropy.entanglement_entropy", "nhjc.entropy", "entanglement_entropy"),
    ("dynamics.effective_generator", "nhjc.dynamics", "effective_generator"),
    ("dynamics.evolve_no_jump", "nhjc.dynamics", "evolve_no_jump"),
    ("numerics.sqrt_hpd", "nhjc.numerics", "sqrt_hpd"),
    ("numerics.inv2", "nhjc.numerics", "inv2"),
    ("numerics.loglog_slope", "nhjc.numerics", "loglog_slope"),
)

REQUEST = "request"

# Argument position of the output target, for functions whose bytes we count.
_WRITE_TARGET = {"scan.export_csv": 1, "scan.export_json": 1, "plots.render_svg": 1}
_READ_SOURCE = {"scan.read_csv": 0, "scan.read_json": 0}
# Extra columns each requested sweep quantity adds to a cell.
_QUANTITY_KEYS = {
    "metric_norm": {"metric_norm"},
    "entropy": {"entropy_I", "entropy_II"},
    "survival": {"survival"},
    "bloch": {"bloch_x", "bloch_y", "bloch_z"},
}


def _position(target):
    """Byte offset of a writable stream, or None when it cannot tell."""
    if hasattr(target, "write"):
        try:
            return target.tell()
        except (OSError, ValueError):
            return None
    return None


def _file_size(target) -> int:
    if isinstance(target, (str, os.PathLike)) and os.path.exists(target):
        return os.path.getsize(target)
    return 0


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class SpanRecorder:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.names: list[str] = [REQUEST] + [t[0] for t in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._request_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: set[str] = set()

    # -- recording ---------------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @contextmanager
    def request_span(self):
        """Root span of one benchmark request; nested spans share its id."""
        self._request_id += 1
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        open_, close = self._open, self._close
        if name in _WRITE_TARGET:
            pos = _WRITE_TARGET[name]

            def wrapper(*args, **kwargs):
                target = _arg(args, kwargs, pos, "path")
                before = _position(target)
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
                    after = _position(target)
                    if before is not None and after is not None:
                        self.count(name + ".bytes", after - before)
                    else:
                        self.count(name + ".bytes", _file_size(target))
        elif name in _READ_SOURCE:
            pos = _READ_SOURCE[name]

            def wrapper(*args, **kwargs):
                self.count(name + ".bytes", _file_size(_arg(args, kwargs, pos, "path")))
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        elif name == "scan.run_sweep":

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                self._count_cells(_arg(args, kwargs, 0, "spec"), result)
                return result
        else:

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        return wrapper

    def _count_cells(self, spec, cells) -> None:
        wanted = set()
        for q in spec.quantities:
            wanted |= _QUANTITY_KEYS.get(q, set())
        by_phase = {"Unbroken": 0, "Broken": 0, "ExceptionalPoint": 0}
        useful = 0
        for cell in cells:
            by_phase[cell.phase.value] += 1
            if wanted <= cell.extras.keys():
                useful += 1
        self.count("scan.cells.unbroken", by_phase["Unbroken"])
        self.count("scan.cells.broken", by_phase["Broken"])
        self.count("scan.cells.ep", by_phase["ExceptionalPoint"])
        self.count("scan.cells.evaluated", len(cells))
        self.count("scan.cells.useful", useful)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Replace every nhjc reference to each target by its wrapper.

        The references are found once; later calls reapply the same wrappers.
        """
        if not self._patches:
            for name, module_name, attr in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "nhjc" or mod_name.startswith("nhjc.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    @contextmanager
    def suspended(self):
        """Run output checks without recording the nhjc calls they make."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- output ------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write a JSON header with the span names, then one line per span:
        name index, parent index, request id, start and end in seconds."""
        with open(path, "w") as stream:
            stream.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                stream.write(
                    "%d %d %d %.9f %.9f\n"
                    % (self.name_id[i], self.parent[i], self.request[i],
                       self.start[i], self.end[i])
                )


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it covered by its children.

    Children may overlap one another; the covered part is the length of the
    union of their intervals, clipped to the parent's interval.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        kids = children.get(i)
        if kids:
            intervals = sorted(
                (max(start[k], lo), min(end[k], hi)) for k in kids
            )
            cur_lo, cur_hi = intervals[0]
            for a, b in intervals[1:]:
                if a > cur_hi:
                    covered += max(0.0, cur_hi - cur_lo)
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            covered += max(0.0, cur_hi - cur_lo)
        out.append((hi - lo) - covered)
    return out


def request_balance(name_id, start, end, request, selfs, request_name_id=0) -> float:
    """Largest |sum of self times - root busy time| over all requests.

    With properly nested spans the self times of one request's spans add up
    exactly to the busy time of its root span; anything else means spans
    were lost or mis-parented.
    """
    busy: dict[int, float] = {}
    total: dict[int, float] = {}
    for i in range(len(start)):
        rid = request[i]
        total[rid] = total.get(rid, 0.0) + selfs[i]
        if name_id[i] == request_name_id:
            busy[rid] = busy.get(rid, 0.0) + (end[i] - start[i])
    worst = 0.0
    for rid, value in total.items():
        worst = max(worst, abs(value - busy.get(rid, 0.0)))
    return worst


def layer_totals(names, name_id, start, end, selfs) -> dict[str, tuple[int, float, float]]:
    """(calls, busy seconds, self seconds) summed per span name."""
    calls = [0] * len(names)
    busy = [0.0] * len(names)
    own = [0.0] * len(names)
    for i in range(len(start)):
        nid = name_id[i]
        calls[nid] += 1
        busy[nid] += end[i] - start[i]
        own[nid] += selfs[i]
    return {names[k]: (calls[k], busy[k], own[k]) for k in range(len(names))}
