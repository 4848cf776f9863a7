"""In-memory span aggregation around the library's layer boundaries.

The tracer wraps public entry points of each prophecke layer from the
outside (class attributes and module globals are replaced in the pass
process; the library source is not touched).  Spans are not stored one
by one: each finished span is folded into an aggregate keyed by
(trace id, boundary, parent boundary) holding count, inclusive time and
self time.  Boundaries that need latency percentiles also feed a
log-bucketed histogram.  Hot boundaries whose cost is a dict probe or a
table lookup (field ops, ProPElt equality, cached lengths) only count
calls, since timing them would cost more than the work itself.
"""

from __future__ import annotations

import math
from time import perf_counter

# Histogram resolution: 32 buckets per factor of two (about 2.2 % wide).
_BUCKETS_PER_OCTAVE = 32


class Tracer:
    def __init__(self):
        self.trace_id = "setup"
        self._stack = [["<root>", 0.0]]
        self.spans: dict = {}  # (trace_id, name, parent) -> [count, inclusive_s, self_s]
        self.hists: dict = {}  # name -> {bucket: count}
        self._counts: dict = {}  # name -> [count]

    def wrap(self, name: str, fn, latency: bool = False):
        """Return fn wrapped in a span named `name`."""
        stack, spans, clock, tracer = self._stack, self.spans, perf_counter, self
        hist = self.hists.setdefault(name, {}) if latency else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (tracer.trace_id, name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if hist is not None and dur > 0:
                    b = math.floor(math.log2(dur) * _BUCKETS_PER_OCTAVE)
                    hist[b] = hist.get(b, 0) + 1

        return traced

    def count(self, name: str, fn):
        """Return fn wrapped in a bare call counter named `name`."""
        cell = self._counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def reset_counts(self):
        for cell in self._counts.values():
            cell[0] = 0
        for hist in self.hists.values():
            hist.clear()

    def calls(self, name: str) -> int:
        return self._counts[name][0]

    def totals(self, name: str, phase: str = "run"):
        """(count, inclusive_s, self_s) of a boundary summed over every
        parent; phase "setup" covers context construction, "run" every
        suite trace."""
        n, incl, slf = 0, 0.0, 0.0
        for (tid, nm, _), (c, i, s) in self.spans.items():
            if nm == name and (tid == "setup") == (phase == "setup"):
                n, incl, slf = n + c, incl + i, slf + s
        return n, incl, slf

    def percentile_us(self, name: str, pct: float) -> float:
        """Latency percentile from the histogram, at the bucket's geometric
        midpoint; 0 when the boundary was never entered."""
        hist = self.hists.get(name, {})
        total = sum(hist.values())
        if not total:
            return 0.0
        rank = math.ceil(pct / 100 * total)
        for b in sorted(hist):
            rank -= hist[b]
            if rank <= 0:
                break
        return 2 ** ((b + 0.5) / _BUCKETS_PER_OCTAVE) * 1e6

    def table(self):
        """The aggregate span table, one row per (trace, boundary, parent)."""
        return [
            {"trace": tid, "span": nm, "parent": par, "count": c,
             "inclusive_s": round(i, 6), "self_s": round(s, 6)}
            for (tid, nm, par), (c, i, s) in sorted(self.spans.items())
        ]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the prophecke package in spans and
    counters.  Must run before the context is built."""
    from prophecke import cosets, gf, hecke, propweyl, rootdata, topmod, weyl

    def patch(owner, attr, wrapper, name, **kw):
        setattr(owner, attr, wrapper(name, getattr(owner, attr), **kw))

    span, count = tracer.wrap, tracer.count

    patch(gf.FieldSpec, "__init__", span, "gf.build")
    patch(gf.FieldElt, "__mul__", count, "gf.mul")
    patch(gf.FieldElt, "__add__", count, "gf.add")

    # from_json is a classmethod; the bound original is wrapped and the
    # wrapper stored as a staticmethod so class-level calls keep working.
    rootdata.RootDatum.from_json = staticmethod(
        span("rootdata.build", rootdata.RootDatum.from_json)
    )

    patch(weyl.WeylGroup, "__init__", span, "weyl.build")
    patch(weyl.ExtAffWeylElt, "__mul__", span, "weyl.mul")
    patch(weyl.ExtAffWeylElt, "length", count, "weyl.length")
    patch(weyl.ExtAffWeylElt, "reduced_word", count, "weyl.reduced_word")

    patch(propweyl.ProPWeyl, "__init__", span, "propweyl.build")
    patch(propweyl.ProPWeyl, "mul", span, "propweyl.mul")
    patch(propweyl.ProPWeyl, "inv", span, "propweyl.inv")
    patch(propweyl.ProPElt, "__eq__", count, "propweyl.eq")

    patch(hecke.HeckeAlgebra, "basis_mul", span, "hecke.basis_mul")
    patch(hecke.HeckeAlgebra, "mul", span, "hecke.mul", latency=True)
    patch(hecke.HeckeAlgebra, "iota", span, "hecke.iota")

    patch(topmod.TopModule, "act", span, "topmod.act", latency=True)
    patch(topmod.TopModule, "_act_basis", count, "topmod.act_basis")

    # support_mul recurses through its module global, so the recursion is
    # traced too; verify calls it through the module attribute.
    patch(cosets, "support_mul", span, "cosets.support_mul")
    patch(cosets, "g_profile", span, "cosets.g_profile")
