"""Spans around the calls into each layer of `pointfree`, recorded from
outside the package.

`Tracer.install` replaces every public function named in LAYERS with a
wrapper, at every module attribute that is bound to it: the defining
module and every `from ... import` copy (for example
`pointfree.theories.enumerate_frame` and `pointfree.evt.eval_interval`).
Two constructors are wrapped on their class: `DistLattice.__init__` (table
building) and `FrameHom.__post_init__` (the homomorphism check).

A span is [name, start, end, parent index, query id, amounts].  Direct
self-recursion (`eval_point` calls itself through its module global) is
folded into the outer span, so a count is the number of calls made from
another function.
"""

import functools
import gzip
import importlib
import json
import time

# layer -> [(function, amounts(args, result) -> {suffix: number} or None)]
LAYERS = {
    "cli": [("main", None)],
    "theories": [("parse_theory", None), ("compile_theory", None),
                 ("models", None)],
    "presentations": [
        ("parse_presentation_text", None),
        ("stabilize", lambda a, r: {"rules": len(r.covers)}),
        ("saturate", None)],
    "frames": [
        ("enumerate_frame", lambda a, r: {"elements": len(r[0].elements)}),
        ("points", lambda a, r: {"count": len(r)}),
        ("is_compact_presentation", None),
        ("coproduct", lambda a, r: {"tensor_elements": len(r[0].elements)}),
        ("is_hausdorff", None)],
    "order": [("parse_lattice_text", None), ("prime_filters", None),
              ("birkhoff_iso", None)],
    "reals": [
        ("parse_expr", None),
        ("eval_interval",
         lambda a, r: {"denominator_bits": max(
             r.lo.denominator.bit_length(), r.hi.denominator.bit_length())}),
        ("eval_point",
         lambda a, r: {"denominator_bits": r.denominator.bit_length()})],
    "evt": [
        ("evt_maximize", lambda a, r: {"nodes": r[0].nodes_expanded,
                                       "cover_boxes": len(r[1].intervals)}),
        ("locate", None), ("positive_witness", None),
        ("cover_certificate", None), ("cut_validate", None)],
}

# (layer, class, method, span name, amounts(args) after the call)
METHODS = [
    ("order", "DistLattice", "__init__", "order.DistLattice",
     lambda a: {"table_entries": len(a[0].meet_table)
                + len(a[0].join_table)}),
    ("frames", "FrameHom", "__post_init__", "frames.FrameHom", None),
]

MAXED = {"denominator_bits"}  # amounts aggregated by max, the rest by sum


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = -1
        self._restore = []

    def _wrap(self, name, fn, amounts, method=False):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if amounts is not None:
                span[5] = amounts(args) if method else amounts(args, result)
            return result
        return traced

    def install(self, package):
        """Wrap the layer functions of an imported package in place."""
        mods = {layer: importlib.import_module(f"{package}.{layer}")
                for layer in LAYERS}
        for layer, funcs in LAYERS.items():
            for fname, amounts in funcs:
                orig = getattr(mods[layer], fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig, amounts)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        for layer, cls_name, meth, name, amounts in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig, amounts, method=True))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def layer_metrics(self):
        """Per span name: calls, self time, and summed (or maxed) amounts.
        Self time is a span's duration minus its recorded children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, amounts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0})
            agg["calls"] += 1
            agg["s"] += (end - start) - child[i]
            for key, value in (amounts or {}).items():
                if key in MAXED:
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path):
        """All spans as gzipped JSON lines, times in seconds."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
