"""Spans and counters recorded from outside fueterlab, and the per-layer
metrics computed from them.

`traced(tracer)` replaces each probed public function in every fueterlab
module namespace that binds it (and each probed method on its class) with a
wrapper that records a span and updates counters, and puts the originals back
on exit.  A span is [name, start, end, parent, thread]; the times come from
`time.perf_counter`, which on Linux reads the system-wide monotonic clock, so
spans written by traced CLI child processes line up with the parent's pass
window.

A span's time metric is named after the span with `_s` appended.  It is the
span's self time, attributed exclusively along the timeline: while a span has
an open child it gets nothing, and an interval in which k innermost spans are
open (the CLI `norms` thread pool) gives each of them 1/k of it.  In one thread
this is the span's duration minus the part its children cover, and in every
case the self times plus `trace.unattributed_s` add up to the pass's wall time.

Loading it imports only the stdlib, so the orchestrator can read the metric
names without numpy; the counting hooks import numpy when they run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = [
    ("fields.poly_eval_s", "s"),
    ("fields.poly_points", "count"),
    ("fields.evals_per_node", "ratio"),
    ("fields.fld1_save_s", "s"),
    ("fields.fld1_load_s", "s"),
    ("fields.fld1_bytes", "bytes"),
    ("fields.energy_s", "s"),
    ("fields.identity_s", "s"),
    ("monotone.ball_s", "s"),
    ("monotone.ball_calls", "count"),
    ("monotone.scan_self_s", "s"),
    ("norms.hl_maximal_s", "s"),
    ("norms.hl_maximal_calls", "count"),
    ("norms.conv_count", "count"),
    ("norms.lorentz_s", "s"),
    ("poisson.solve_s", "s"),
    ("poisson.solve_calls", "count"),
    ("poisson.step_self_s", "s"),
    ("poisson.fixed_point_self_s", "s"),
    ("poisson.w21_s", "s"),
    ("poisson.iterations", "count"),
    ("bubbletree.slice_select_s", "s"),
    ("bubbletree.slice_maps", "count"),
    ("bubbletree.slice_admissible_frac", "ratio"),
    ("bubbletree.concentration_s", "s"),
    ("bubbletree.theta_s", "s"),
    ("bubbletree.extract_s", "s"),
    ("bubbletree.neck_s", "s"),
    ("bubbletree.quantize_self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Spans recorded by code rather than by a probe.
IMPORT_SPAN = "cli.import"


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.grid_stack = []  # grids of the open monotone calls, innermost last
        self.touched = {}  # id -> (grid, mask of the nodes evaluated on it)
        self.grid_nodes = 0  # distinct nodes evaluated in absorbed child processes
        self._stacks = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's outermost span is caused by the main thread's
            # innermost open span
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        rec = [name, time.perf_counter(), None, parent, tid]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def current(self):
        """Name of this thread's innermost open span, or None."""
        stack = self._stacks.get(threading.get_ident())
        return self.spans[stack[-1]][0] if stack else None

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def mark_evaluated(self, pts):
        """Mark the nodes of the innermost open grid inside the bounding box
        of `pts`.  The ball passes evaluate whole slab windows, which are
        boxes, so the marked nodes are the distinct nodes evaluated."""
        if not self.grid_stack:
            return
        import numpy as np

        u = self.grid_stack[-1]
        if id(u) not in self.touched:
            self.touched[id(u)] = (u, np.zeros(u.shape, dtype=bool))
        first = u.axis_coords()[0]
        box = []
        for a in range(pts.shape[-1]):
            lo, hi = np.rint((np.array([pts[..., a].min(), pts[..., a].max()]) - first) / u.h)
            box.append(slice(int(lo), int(hi) + 1))
        self.touched[id(u)][1][tuple(box)] = True

    def dump(self):
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "grid_nodes": self.grid_nodes + sum(int(m.sum()) for _, m in self.touched.values()),
        }

    def absorb(self, dump):
        """Add the dump of a traced child process, re-basing its parents."""
        base = len(self.spans)
        for name, start, end, parent, tid in dump["spans"]:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base, tid])
        for k, v in dump["counts"].items():
            self.counts[k] += v
        self.grid_nodes += dump["grid_nodes"]


# ---------------------------------------------------------------------------
# probes: (span name or None for counting only, "module:attr[.method]", hook)


def _points(tracer, args, kwargs, out):
    import numpy as np

    pts = np.asarray(args[1] if len(args) > 1 else kwargs["pts"])
    tracer.count("fields.poly_points", math.prod(pts.shape[:-1]))
    tracer.mark_evaluated(pts)


def _fld1_bytes(u):
    return 8 * math.prod(u.shape) * u.target_dim


def _saved(tracer, args, kwargs, out):
    tracer.count("fields.fld1_bytes", _fld1_bytes(args[0]))


def _loaded(tracer, args, kwargs, out):
    tracer.count("fields.fld1_bytes", _fld1_bytes(out))


def _ball(tracer, args, kwargs, out):
    tracer.count("monotone.ball_calls")


def _maximal(tracer, args, kwargs, out):
    from fueterlab.norms import _maximal_radii

    tracer.count("norms.hl_maximal_calls")
    tracer.count("norms.conv_count", len(_maximal_radii(args[0])))


def _solve(tracer, args, kwargs, out):
    tracer.count("poisson.solve_calls")


def _fixed_point(tracer, args, kwargs, out):
    tracer.count("poisson.iterations", out[1]["iterations"])


def _slice_select(tracer, args, kwargs, out):
    from fueterlab.bubbletree import slice_select

    bound = inspect.signature(slice_select).bind(*args, **kwargs)
    bound.apply_defaults()
    grid_n = bound.arguments["grid_n"]
    tracer.count("bubbletree.slices_admissible",
                 round(out.admissible_fraction * grid_n * grid_n))


def _slice_map(tracer, args, kwargs, out):
    tracer.count("bubbletree.slice_maps")
    if tracer.current() == "bubbletree.slice_select":
        tracer.count("bubbletree.slices_attempted")


PROBES = [
    ("fields.poly_eval", "fueterlab.fields:FueterPolynomialMap.value", _points),
    ("fields.fld1_save", "fueterlab.fields:save_fld1", _saved),
    ("fields.fld1_load", "fueterlab.fields:load_fld1", _loaded),
    ("fields.energy", "fueterlab.fields:dirichlet_energy", None),
    ("fields.identity", "fueterlab.fields:energy_identity_defects", None),
    ("fields.identity", "fueterlab.fields:differential", None),
    ("monotone.ball", "fueterlab.monotone:monotonicity_defect", _ball),
    ("monotone.ball", "fueterlab.monotone:ratio_profile", _ball),
    ("monotone.ball", "fueterlab.monotone:energy_ratio", _ball),
    ("monotone.scan_self", "fueterlab.monotone:eps_regularity_scan", None),
    ("norms.hl_maximal", "fueterlab.norms:hl_maximal", _maximal),
    ("norms.lorentz", "fueterlab.norms:lorentz_21", None),
    ("norms.lorentz", "fueterlab.norms:lorentz_2inf", None),
    ("poisson.solve", "fueterlab.poisson:poisson_solve", _solve),
    ("poisson.step_self", "fueterlab.poisson:contraction_step", None),
    ("poisson.fixed_point_self", "fueterlab.poisson:fixed_point_solve", _fixed_point),
    ("poisson.w21", "fueterlab.poisson:w21_norm", None),
    ("bubbletree.slice_select", "fueterlab.bubbletree:slice_select", _slice_select),
    (None, "fueterlab.bubbletree:ConcentratingSequence.slice_map", _slice_map),
    ("bubbletree.concentration", "fueterlab.bubbletree:concentration_scale", None),
    ("bubbletree.theta", "fueterlab.bubbletree:defect_density", None),
    ("bubbletree.extract", "fueterlab.bubbletree:rescale_and_extract", None),
    ("bubbletree.neck", "fueterlab.bubbletree:neck_view", None),
    ("bubbletree.neck", "fueterlab.bubbletree:neck_scan", None),
    ("bubbletree.quantize_self", "fueterlab.bubbletree:quantize", None),
    ("cli.self", "fueterlab.cli:main", None),
]


# calls whose first argument is the grid the evaluated points belong to
GRID_CALLS = {"monotone.ball", "monotone.scan_self"}


def _wrap(tracer, name, fn, hook):
    grid = name in GRID_CALLS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if grid:
            tracer.grid_stack.append(args[0])
        idx = tracer.open(name) if name is not None else None
        try:
            out = fn(*args, **kwargs)
        finally:
            if idx is not None:
                tracer.close(idx)
            if grid:
                tracer.grid_stack.pop()
        if hook is not None:
            hook(tracer, args, kwargs, out)
        return out

    return wrapper


def _fueterlab_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "fueterlab" or k.startswith("fueterlab."))]


def install(tracer):
    """Wrap every probe in every namespace that binds it; returns the
    (namespace, attribute, original) triples that `restore` puts back."""
    for mod in ("quat", "exterior", "fields", "monotone", "norms", "poisson",
                "bubbletree", "cli"):
        importlib.import_module("fueterlab." + mod)
    saved = []
    for name, target, hook in PROBES:
        modname, attr = target.split(":")
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            saved.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, name, original, hook))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, original, hook)
        for ns in _fueterlab_modules():
            for key, value in list(vars(ns).items()):
                if value is original:
                    saved.append((ns, key, original))
                    setattr(ns, key, wrapper)
    return saved


def restore(saved):
    for ns, key, original in reversed(saved):
        setattr(ns, key, original)


@contextmanager
def traced(tracer):
    saved = install(tracer)
    try:
        yield tracer
    finally:
        restore(saved)


# ---------------------------------------------------------------------------
# attribution


def attribute(spans, t0, t1):
    """Exclusive self time per span name within the window [t0, t1], and the
    time no span covers.  `spans` are [name, start, end, parent, thread]
    records whose parent indexes the same list."""
    events = []
    for i, (_, start, end, _, _) in enumerate(spans):
        start, end = max(start, t0), min(end, t1)
        if start < end:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()
    active = [False] * len(spans)
    open_children = [0] * len(spans)
    leaves = set()
    own = defaultdict(float)
    covered = 0.0
    prev = t0
    for t, starting, i in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for j in leaves:
                own[spans[j][0]] += share
            covered += t - prev
        prev = t
        p = spans[i][3]
        if starting:
            active[i] = True
            leaves.add(i)
            if p is not None and active[p]:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active[i] = False
            leaves.discard(i)
            if p is not None and active[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return dict(own), (t1 - t0) - covered


def layer_metrics(dump, t0, t1):
    """Per-layer metrics of one traced pass spanning [t0, t1]."""
    own, unattributed = attribute(dump["spans"], t0, t1)
    counts = dump["counts"]
    out = {}
    for metric, _ in LAYER_METRICS:
        if metric.endswith("_s") and not metric.startswith("trace."):
            out[metric] = own.pop(metric[:-2], 0.0)
        elif not metric.startswith("trace."):
            out[metric] = counts.get(metric, 0.0)
    if own:
        raise ValueError(f"spans without a metric: {sorted(own)}")
    nodes = dump["grid_nodes"]
    out["fields.evals_per_node"] = counts.get("fields.poly_points", 0.0) / nodes if nodes else 0.0
    attempted = counts.get("bubbletree.slices_attempted", 0.0)
    out["bubbletree.slice_admissible_frac"] = (
        counts.get("bubbletree.slices_admissible", 0.0) / attempted if attempted else 0.0
    )
    out["trace.wall_s"] = t1 - t0
    out["trace.unattributed_s"] = unattributed
    return out
