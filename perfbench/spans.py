"""Spans and counters placed around warplab's public calls, from outside.

`install(tracer)` wraps every probe point listed in PROBES and returns a
function that puts the originals back.  A function probe replaces the name
in every warplab module that bound it (`from .halfplane import
orbit_distance` in harness, orbits, ... as well as in halfplane itself), so
no caller keeps the unwrapped object; a probe marked `local` replaces it in
its own module only (scipy's `quad` and `brentq` as halfplane imported
them, not as dimension or grushin did).  Method probes replace the class
attribute.

Coarse public calls record spans; hot inner calls (h evaluation, jet
powers, quadrature) only count.  Spans stay in memory and are written by
the caller when the run ends.
"""

import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


class Tracer:
    """Spans [name, start, end, parent index, run id] and named counters."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._open = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def to_json(self):
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


# -- hooks: extra counts taken at a probe, beyond its call count ------------

def _c_float_calls(tr, args):
    return tr.counts["piecewise.c_float.calls"]


def _float_query_in_mp(prefix):
    """Counts float-argument calls, and those answered in mpmath: the value
    came back as an mpf (the query was promoted), or the float path took the
    bridge constant's magnitude with mpmath.log10 (Segment.c_float)."""
    import mpmath

    def after(tr, args, out, c_float_before):
        if isinstance(args[1], (float, int)):
            tr.counts[prefix + ".float_calls"] += 1
            if (isinstance(out.value, mpmath.mpf)
                    or tr.counts["piecewise.c_float.calls"] > c_float_before):
                tr.counts[prefix + ".mp_calls"] += 1
    return after


def _quad_neval(tr, args, out, _):
    if len(out) >= 3 and isinstance(out[2], dict):
        tr.counts["halfplane.quad.neval"] += out[2]["neval"]


def _cache_bytes(tr, args, out, _):
    # append rewrites the whole file, so every call writes its full size
    tr.counts["cache.bytes_written"] += os.path.getsize(args[0].path)


def _memo_hit(tr, args):
    l = args[1]
    l = abs(int(l)) if abs(l) < 2**53 else abs(l)
    if l in args[0].entries:
        tr.counts["orbits.table_distance.hits"] += 1


def _grid_nodes(tr, args, out, _):
    tr.counts["gridpath.nodes"] += out.nodes


def _step_too_large(tr, exc):
    from warplab.christoffel import StepTooLarge

    if isinstance(exc, StepTooLarge):
        tr.counts["christoffel.step_too_large.count"] += 1


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str  # "name" or "Class.method"
    metric: str
    span: bool = False
    local: bool = False
    before: object = None
    after: object = None
    error: object = None


PROBES = (
    Probe("warplab.piecewise", "Segment.jet", "piecewise.segment_jet",
          before=_c_float_calls, after=_float_query_in_mp("piecewise.segment_jet")),
    Probe("warplab.piecewise", "Segment.c_float", "piecewise.c_float"),
    Probe("warplab.smoothing", "Blend.jet", "smoothing.blend_jet",
          before=_c_float_calls, after=_float_query_in_mp("smoothing.blend_jet")),
    Probe("warplab.smoothing", "smooth", "smoothing.smooth", span=True),
    Probe("warplab.smoothing", "certification_grid", "smoothing.certification_grid", span=True),
    Probe("warplab.smoothing", "certify_positive_ricci", "smoothing.certify_positive_ricci",
          span=True),
    Probe("warplab.smoothing", "verify_observation", "smoothing.verify_observation", span=True),
    Probe("warplab.jets", "Jet2.__pow__", "jets.pow"),
    Probe("warplab.ladder", "build_scale_ladder", "ladder.build_scale_ladder", span=True),
    Probe("warplab.construction_io", "save_construction", "construction_io.save_construction",
          span=True),
    Probe("warplab.halfplane", "orbit_distance", "halfplane.orbit_distance", span=True),
    Probe("warplab.halfplane", "delta_v_of_c", "halfplane.delta_v_of_c"),
    Probe("warplab.halfplane", "solve_turning_point", "halfplane.solve_turning_point"),
    Probe("warplab.halfplane", "quad", "halfplane.quad", local=True, after=_quad_neval),
    Probe("warplab.halfplane", "brentq", "halfplane.brentq", local=True),
    Probe("warplab.halfplane", "axis_count_at_radius", "halfplane.axis_count_at_radius",
          span=True),
    Probe("warplab.halfplane", "verify_delta_v_monotone", "halfplane.verify_delta_v_monotone",
          span=True),
    Probe("warplab.warping", "WarpingFunction.__call__", "warping.call"),
    Probe("warplab.dimension", "build_capacity_profile", "dimension.build_capacity_profile",
          span=True),
    Probe("warplab.dimension", "fit_growth_constants", "dimension.fit_growth_constants",
          span=True),
    Probe("warplab.dimension", "hausdorff_content", "dimension.hausdorff_content", span=True),
    Probe("warplab.cache", "OrbitCache.append", "cache.append", span=True, after=_cache_bytes),
    Probe("warplab.cache", "OrbitCache.load", "cache.load", span=True),
    Probe("warplab.orbits", "OrbitTable.distance", "orbits.table_distance", before=_memo_hit),
    Probe("warplab.orbits", "growth_slope", "orbits.growth_slope", span=True),
    Probe("warplab.curvature", "ricci_report", "curvature.ricci_report", span=True),
    Probe("warplab.grushin", "convergence_report", "grushin.convergence_report", span=True),
    Probe("warplab.grushin", "grushin_distance", "grushin.grushin_distance"),
    Probe("warplab.christoffel", "ricci_numeric_oracle", "christoffel.ricci_numeric_oracle",
          span=True, error=_step_too_large),
    Probe("warplab.gridpath", "dijkstra_distance_oracle", "gridpath.dijkstra_distance_oracle",
          span=True, after=_grid_nodes),
)


def _wrap(tr, fn, probe):
    calls = probe.metric + ".calls"
    name = probe.metric if probe.span else None
    before, after, error = probe.before, probe.after, probe.error

    def wrapper(*args, **kwargs):
        tr.counts[calls] += 1
        token = before(tr, args) if before is not None else None
        idx = tr.begin(name) if name else None
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if error is not None:
                error(tr, exc)
            raise
        finally:
            if idx is not None:
                tr.end(idx)
        if after is not None:
            after(tr, args, out, token)
        return out

    wrapper.__name__ = getattr(fn, "__name__", probe.attr)
    wrapper.__qualname__ = getattr(fn, "__qualname__", probe.attr)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tr):
    """Wrap every probe; return a function that restores the originals."""
    undo = []
    for probe in PROBES:
        mod = sys.modules.get(probe.module) or __import__(probe.module, fromlist=["_"])
        if "." in probe.attr:
            cls_name, meth = probe.attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tr, orig, probe))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(mod, probe.attr)
        wrapper = _wrap(tr, orig, probe)
        holders = [mod] if probe.local else [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "warplab" or n.startswith("warplab."))
        ]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, orig))

    def restore():
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)
    return restore


# -- aggregation -------------------------------------------------------------

def self_times(spans):
    """Seconds per span name, each span less the part its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return out


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))]


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(trace):
    """Per-layer metrics of one traced run, keyed as BENCHMARK.json names them."""
    c = trace["counts"]
    spans = trace["spans"]
    self_s = self_times(spans)
    dur = defaultdict(list)
    for name, start, end, _, _ in spans:
        dur[name].append(end - start)

    def calls(metric):
        return c.get(metric + ".calls", 0)

    m = {}
    for probe in PROBES:
        m[probe.metric + ".calls"] = calls(probe.metric)
        if probe.span:
            m[probe.metric + ".s"] = self_s.get(probe.metric, 0.0)
    for prefix in ("piecewise.segment_jet", "smoothing.blend_jet"):
        base = c.get(prefix + ".float_calls", 0)
        m[prefix + ".float_calls"] = base
        m[prefix + ".mp_share"] = _ratio(c.get(prefix + ".mp_calls", 0), base)
    od = dur["halfplane.orbit_distance"]
    m["halfplane.orbit_distance.ms_p50"] = 1e3 * percentile(od, 50)
    m["halfplane.orbit_distance.ms_p99"] = 1e3 * percentile(od, 99)
    m["halfplane.delta_v_per_distance"] = _ratio(
        calls("halfplane.delta_v_of_c"), calls("halfplane.orbit_distance"))
    m["halfplane.quad.neval"] = c.get("halfplane.quad.neval", 0)
    m["cache.bytes_written"] = c.get("cache.bytes_written", 0)
    m["orbits.memo_hit_ratio"] = _ratio(
        c.get("orbits.table_distance.hits", 0), calls("orbits.table_distance"))
    m["curvature.ricci_report.us_p50"] = 1e6 * percentile(dur["curvature.ricci_report"], 50)
    m["christoffel.ricci_numeric_oracle.ms_p50"] = 1e3 * percentile(
        dur["christoffel.ricci_numeric_oracle"], 50)
    m["christoffel.step_too_large.count"] = c.get("christoffel.step_too_large.count", 0)
    m["gridpath.nodes"] = c.get("gridpath.nodes", 0)
    return m
