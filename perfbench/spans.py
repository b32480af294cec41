"""Layer spans recorded from outside the package.

`Tracer.install` replaces each traced entry point with a wrapper in every
limitlab module namespace that holds it, so calls between modules and
recursive calls through a module global are seen too.  Spans of one request
stay in memory with their parent's id until the request ends; then each
span's self time (its duration minus the time its child spans cover) is
added to its layer.  A call counts towards a layer only when it enters the
layer from outside, so recursion inside a layer is one call.  The entry
points of `sets` call each other on every membership test and every
normalization, so a call made from inside an open `sets` span is part of
that span rather than a span of its own; that keeps the tracing cost down.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> (module, entry points); a name a later version drops is skipped
LAYERS = {
    "dsl.parse": ("limitlab.dsl", ("parse_fn", "parse_set")),
    "poly.isolate_roots": ("limitlab.poly", ("isolate_roots",)),
    "poly.refine_root": ("limitlab.poly", ("refine_root",)),
    "functions.isolate_superlevel": ("limitlab.functions", ("isolate_superlevel",)),
    "sets.normalize": ("limitlab.sets", ("normalize", "_normal")),
    "sets.window_trace": ("limitlab.sets", ("window_trace",)),
    "sets.contains": ("limitlab.sets", ("contains", "piece_contains")),
    "analyzers.measure": ("limitlab.analyzers", ("measure", "trace_measure")),
    "analyzers.density": ("limitlab.analyzers", ("density_at",)),
    "analyzers.cardinality": ("limitlab.analyzers", ("cardinality", "cardinality_of_pieces")),
    "limits.check": ("limitlab.limits", ("check",)),
    "decompose.decompose": ("limitlab.decompose", ("decompose",)),
    "decompose.verify": ("limitlab.decompose", ("verify_decomposition",)),
    "sampling.sample_points": ("limitlab.sampling", ("sample_points",)),
    "oracle.mc_measure": ("limitlab.oracle", ("mc_measure",)),
}

# evidence prefixes of undecidable `check` verdicts
UNDECIDABLE_REASONS = (
    ("sandwich", "sandwich sides disagree"),
    ("density", "density asymptotics"),
    ("algebra", "set algebra"),
)


def _limitlab_modules():
    return sorted(
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "limitlab" or name.startswith("limitlab."))
    )


def find_caches() -> dict:
    """Every functools cache defined in a limitlab module, by
    `<module>.<function>`; found by scanning so renamed or removed caches
    simply drop out."""
    out = {}
    for name, mod in _limitlab_modules():
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", None) == name:
                out[f"{name.partition('.')[2] or name}.{attr}"] = obj
    return out


class Tracer:
    def __init__(self, unsupported: type):
        self.unsupported = unsupported
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, layer, start, end
        self.stack: list[tuple[int, str]] = [(0, "request")]
        self.next_id = 1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.part_ns: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        """Wrap every entry point in LAYERS."""
        modules = _limitlab_modules()
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules.get(modname)
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                wrapped = self._wrap(layer, orig)
                for _, mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def _wrap(self, layer: str, fn):
        tracer = self
        in_sets = layer.startswith("sets.")
        observe = {"limits.check": self._observe_check, "oracle.mc_measure": self._observe_mc}.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = tracer.stack[-1]
            if parent_layer == layer or (in_sets and parent_layer.startswith("sets.")):
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            tracer.stack.append((sid, layer))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except tracer.unsupported:
                if in_sets:
                    tracer.counts["sets.unsupported_intersection"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, layer, start, end))
                tracer.calls[layer] += 1
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_check(self, verdict) -> None:
        if verdict.status != "undecidable":
            return
        for reason, prefix in UNDECIDABLE_REASONS:
            if prefix in verdict.evidence:
                self.counts[f"limits.undecidable.{reason}"] += 1
                return
        self.counts["limits.undecidable.other"] += 1

    def _observe_mc(self, estimate) -> None:
        self.counts["oracle.samples"] += estimate.samples

    def end_request(self, part: str) -> None:
        """Turn the spans of a finished request (or follow-up) into
        per-layer self time."""
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        for sid, _, layer, start, end in self.spans:
            own = end - start - covered[sid]
            self.self_ns[layer] += own
            self.part_ns[part][layer] += own
        self.spans.clear()

    def shares(self) -> dict[str, dict[str, float]]:
        """Each module's share of traced self time, for requests, follow-ups
        and both."""
        out = {}
        for part, per_layer in [("all", self.self_ns), *sorted(self.part_ns.items())]:
            by_module: dict[str, int] = defaultdict(int)
            for layer, ns in per_layer.items():
                by_module[layer.split(".")[0]] += ns
            total = sum(by_module.values()) or 1
            out[part] = {m: round(ns / total, 4) for m, ns in sorted(by_module.items(), key=lambda kv: -kv[1])}
        return out
