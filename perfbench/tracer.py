"""Span recorder that traces primeavg from the outside.

`install(trace_dir)` wraps the public functions of each primeavg layer module
and numpy's FFT entry points.  No file under ``src/`` changes: the wrappers are
bound into every namespace that reaches a layer from outside it.

* Names copied by ``from .multiplier import approximant_profile`` into another
  module are rebound to the wrapper.
* Attribute access on a layer module (``from .expsums import x`` inside a
  function, pickling by reference) returns the wrapper.
* Calls inside a layer read the module's globals and stay unwrapped, so hot
  intra-layer loops (``expsums.height`` is called millions of times) cost
  nothing extra.  The few functions in ``COUNTED`` are also rebound in their
  own module, because their intra-layer calls are counted.

Each wrapped call is a span ``[id, parent, layer, name, start, end, attrs]``.
An FFT call is a span of layer ``fft`` whose attrs name the layer it is
charged to: the layer of the innermost open span.  Spans stay in memory and
are appended, as one JSON line with the process's CPU time so far, to
``<trace_dir>/spans-<pid>.jsonl`` whenever the outermost open span of a
process ends.  Pool workers forked inside a span inherit the
wrappers; their root spans name that span as parent, so self time can be
computed across processes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
import types

LAYERS = ("tables", "expsums", "multiplier", "highlow", "scans", "fixtures", "cli")

# Functions whose calls from inside their own layer are traced too.  The
# private scan cells are included because they are what pool workers run.
COUNTED = {
    "multiplier": ("a_hat_uniform_grid", "a_hat_profile", "approximant_profile"),
    "highlow": ("hi_hat_profile", "lo_hat_profile"),
    "scans": ("_improving_cell", "_maximal_cell"),
}

# One-dimensional FFT entry points; the real ones are listed so that a switch
# to rfft is still counted.
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")


class Recorder:
    """Per-process span state; a forked child resets it in `_after_fork`."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.forked = False
        self.inherited = None  # (span id, layer) open in the parent at fork
        self.stack: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self.count = 0
        self.seen_tables: set[int] = set()

    def _after_fork(self) -> None:
        top = self.stack[-1] if self.stack else self.inherited
        self.pid = os.getpid()
        self.forked = True
        self.inherited = top
        self.stack = []
        self.spans = []
        self.count = 0

    def open(self, layer: str) -> tuple[str, tuple[str, str] | None]:
        """Push a span; return its id and the (id, layer) of its parent."""
        parent = self.stack[-1] if self.stack else self.inherited
        self.count += 1
        sid = f"{self.pid}.{self.count}"
        self.stack.append((sid, layer))
        return sid, parent

    def close(self, sid, parent, layer, name, start, end, attrs) -> None:
        self.stack.pop()
        self.spans.append([sid, parent[0] if parent else None, layer, name, start, end, attrs])
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        record = {"pid": self.pid, "forked": self.forked, "cpu_s": time.process_time()}
        with open(os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl"), "a") as fh:
            fh.write(json.dumps({**record, "spans": self.spans}, separators=(",", ":")) + "\n")
        self.spans = []


_REC: Recorder | None = None


def _table_note(args, result):
    new = id(result) not in _REC.seen_tables
    _REC.seen_tables.add(id(result))
    return {"new": new, "entries": int(result.bound) + 1}


# Per-function attributes kept on the span: (bound arguments, result) -> dict.
NOTES = {
    "tables.build_tables": _table_note,
    "expsums.verify_progression_ramanujan": lambda a, r: {"tuples": int(r[1])},
    "expsums.verify_gauss_upsilon": lambda a, r: {"tuples": int(r[1])},
    "multiplier.a_hat_uniform_grid": lambda a, r: {"points": int(a["count"])},
    "multiplier.a_hat_profile": lambda a, r: {"points": int(a["M"])},
    "multiplier.approximant_profile": lambda a, r: {"points": int(a["M"])},
    "scans.improving_scan": lambda a, r: {"workers": int(a.get("workers", 1))},
    "scans.maximal_scan": lambda a, r: {"workers": int(a.get("workers", 1))},
    "fixtures.measure_fixture": lambda a, r: {"label": str(a["name"])},
}


def _wrap(layer: str, fn):
    name = f"{layer}.{fn.__name__}"
    note = NOTES.get(name)
    sig = inspect.signature(fn) if note else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _REC
        sid, parent = rec.open(layer)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(sid, parent, layer, name, start, time.perf_counter(), None)
            raise
        end = time.perf_counter()
        attrs = None
        if note is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = note(bound.arguments, result)
        rec.close(sid, parent, layer, name, start, end, attrs)
        return result

    return wrapper


def _fft_points(name: str, args, kwargs) -> int:
    """Points transformed: transform length times the number of transforms."""
    import numpy as np

    shape = np.shape(args[0] if args else kwargs["a"])
    size = math.prod(shape)
    if not shape:
        return size
    n = args[1] if len(args) > 1 else kwargs.get("n")
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    length = shape[axis]
    if n is None:
        n = 2 * (length - 1) if name in ("irfft", "hfft") else length
    return int(n) * (size // length if length else 1)


def _wrap_fft(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _REC
        sid, parent = rec.open("fft")
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            attrs = {
                "charged": parent[1] if parent else "other",
                "points": _fft_points(name, args, kwargs),
            }
            rec.close(sid, parent, "fft", f"fft.{name}", start, end, attrs)

    return wrapper


class _LayerModule(types.ModuleType):
    """Module type whose attribute reads return the boundary wrappers."""

    _boundary: dict[tuple[str, str], object] = {}

    def __getattribute__(self, attr):
        modname = types.ModuleType.__getattribute__(self, "__name__")
        wrapper = _LayerModule._boundary.get((modname, attr))
        if wrapper is not None:
            return wrapper
        return types.ModuleType.__getattribute__(self, attr)


def install(trace_dir: str) -> None:
    """Wrap every primeavg layer and numpy's FFT; spans go to trace_dir."""
    global _REC
    import numpy.fft

    _REC = Recorder(trace_dir)
    os.register_at_fork(after_in_child=lambda: _REC._after_fork())

    originals: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"primeavg.{layer}")
        names = [
            k for k, v in vars(mod).items()
            if inspect.isfunction(v) and v.__module__ == mod.__name__ and not k.startswith("_")
        ]
        names += [k for k in COUNTED.get(layer, ()) if k.startswith("_") and hasattr(mod, k)]
        for attr in names:
            fn = vars(mod)[attr]
            wrapper = _wrap(layer, fn)
            originals[id(fn)] = wrapper
            _LayerModule._boundary[(mod.__name__, attr)] = wrapper
            if attr in COUNTED.get(layer, ()):
                setattr(mod, attr, wrapper)
        mod.__class__ = _LayerModule

    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "primeavg" or modname.startswith("primeavg.")):
            continue
        space = types.ModuleType.__getattribute__(mod, "__dict__")
        for attr, value in list(space.items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and (mod.__name__, attr) not in _LayerModule._boundary:
                space[attr] = wrapper

    for name in FFT_FUNCS:
        setattr(numpy.fft, name, _wrap_fft(name, getattr(numpy.fft, name)))


# ---------------------------------------------------------------------------
# Reading spans back


def load(trace_dir: str) -> tuple[list[list], dict[int, dict]]:
    """All spans under trace_dir, and the last flush record of each pid."""
    spans, procs = [], {}
    for entry in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, entry)) as fh:
            for line in fh:
                record = json.loads(line)
                spans += record.pop("spans")
                procs[record["pid"]] = record
    return spans, procs


def self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap (pool workers run side by side), so the covered part
    is the length of the union of the children's intervals, clipped to the
    parent's own interval.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted((max(a, start), min(b, end)) for a, b in children.get(sid, ())):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


PROFILE_FUNCS = ("multiplier.a_hat_profile", "multiplier.approximant_profile")
HIGHLOW_PROFILES = ("highlow.hi_hat_profile", "highlow.lo_hat_profile")
CELLS = ("scans._improving_cell", "scans._maximal_cell")
SCANS = ("scans.improving_scan", "scans.maximal_scan")
VERIFY_SUITES = ("expsums.verify_progression_ramanujan", "expsums.verify_gauss_upsilon")


def layer_metrics(spans: list[list], procs: dict[int, dict]) -> dict[str, float]:
    """Per-layer self times and work counters of one traced run.

    Sums run over every process of the run; `tables.builds` counts table
    objects new to the process that asked for them.
    """
    own = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    pool_capacity = 0.0
    for sid, _, layer, name, start, end, attrs in spans:
        attrs = attrs or {}
        add(f"{layer}.self_s", own[sid])
        if layer == "fft":
            add(f"{attrs['charged']}.fft_calls", 1)
            add(f"{attrs['charged']}.fft_points", attrs["points"])
            continue
        add(f"{layer}.calls", 1)
        if name == "tables.build_tables":
            add("tables.build_s", end - start)
            if attrs.get("new"):
                add("tables.builds", 1)
                add("tables.entries_sieved", attrs["entries"])
        elif name in VERIFY_SUITES:
            add("expsums.verify_tuples", attrs.get("tuples", 0))
        elif name == "multiplier.a_hat_uniform_grid":
            add("multiplier.grid_points", attrs.get("points", 0))
        elif name in PROFILE_FUNCS:
            add("multiplier.profile_builds", 1)
            add("multiplier.profile_points", attrs.get("points", 0))
        elif name in HIGHLOW_PROFILES:
            add("highlow.profile_builds", 1)
        elif name in CELLS:
            add("scans.cells", 1)
        elif name in SCANS and attrs.get("workers", 1) > 1:
            pool_capacity += attrs["workers"] * (end - start)
        elif name == "fixtures.measure_fixture" and "label" in attrs:
            add(f"fixtures.recipe_s.{attrs['label']}", end - start)
    worker_cpu = sum(p["cpu_s"] for p in procs.values() if p["forked"])
    m["scans.worker_cpu_s"] = worker_cpu
    m["scans.parallel_eff"] = worker_cpu / pool_capacity if pool_capacity else 0.0
    return m
