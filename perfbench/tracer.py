"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of each pgforge module,
and the public methods of its classes, with a wrapper that records a span
whenever a call crosses from one layer into another.  The modules bind
each other's functions with `from ... import`, so a function is replaced
in every pgforge module namespace that holds it, not only where it is
defined.  Calls that stay inside one layer pass straight through, so a
layer's self time is the time its boundary spans cover minus the time of
the spans they caused in other layers.

Spans are kept in memory (up to a fixed number) and written out by
`write()` when the run ends.  Named counters count specific functions on
every call, nested or not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYER_OF_MODULE = {
    "pgforge.kernel": "kernel",
    "pgforge._pykernel": "kernel",
    "pgforge._ckernel": "kernel",
    "pgforge.core": "core",
    "pgforge.subgroups": "subgroups",
    "pgforge.structure": "structure",
    "pgforge.autos": "autos",
    "pgforge.cohomology": "cohomology",
    "pgforge.corpus": "corpus",
    "pgforge.harness": "harness",
    "pgforge.cli": "cli",
}
LAYERS = ("kernel", "core", "subgroups", "structure", "autos", "cohomology",
          "corpus", "harness", "cli")

# classes whose public methods are wrapped, with the dunders that do work
CLASSES = {
    "pgforge.core": {"PcPresentation": ("__init__",),
                     "Element": ("__mul__", "__pow__")},
    "pgforge.subgroups": {"Subgroup": (), "QuotientGroup": ("__init__",)},
    "pgforge.autos": {"Automorphism": ("__init__",)},
    "pgforge.cohomology": {"GModule": ("__init__",), "CrossedHom": ()},
    "pgforge.corpus": {"CorpusEntry": ()},
}

# the boundary-crossing call counts that are reported; other layers' counts
# are kept but have named counters that say more
REPORTED_CALLS = ("kernel.calls", "structure.calls")

ELEMENT_OPS = ("__mul__", "__pow__", "inverse", "conjugate", "commutator", "order")

# layers whose spans are too many to keep; their calls are still counted and
# timed, only the individual span records are not stored
UNRECORDED = ("kernel", "core")
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.counts = {f"{layer}.calls": 0 for layer in LAYERS}
        self.counts.update({
            "core.parses": 0, "core.consistency_checks": 0, "core.element_ops": 0,
            "subgroups.closures": 0, "subgroups.memberships": 0,
            "subgroups.enumerations": 0, "subgroups.enumerations_repeated": 0,
            "autos.searches": 0, "autos.maps_validated": 0, "autos.witnesses": 0,
            "autos.inner_tests": 0, "cohomology.modules": 0,
            "cohomology.cocycles": 0, "corpus.validations": 0,
            "harness.checks": 0, "cli.commands": 0,
        })
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.spans = []
        self.spans_dropped = 0
        self._enumerated = set()
        # frame: [layer, start, child time, span id]
        self._stack = [["bench", 0.0, 0.0, 0]]
        self._next_id = 1
        self._request = 0
        self._installed = []

    # -- span bookkeeping ----------------------------------------------------

    def begin_request(self, request_id):
        """Spans recorded from now on belong to this benchmark operation."""
        self._request = request_id

    def _wrap(self, layer, qualname, fn, is_gen):
        stack = self._stack
        counts = self.counts
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter
        calls_key = f"{layer}.calls"
        record = layer not in UNRECORDED
        tracer = self

        def enter():
            counts[calls_key] += 1
            if record:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                # children of an unrecorded span name its nearest recorded
                # ancestor as their parent
                sid = stack[-1][3]
            stack.append([layer, clock(), 0.0, sid])

        def leave():
            end = clock()
            _, start, child, sid = stack.pop()
            dur = end - start
            self_s[layer] += dur - child
            parent = stack[-1]
            parent[2] += dur
            if record:
                if len(spans) < MAX_SPANS:
                    spans.append((sid, parent[3], tracer._request, layer,
                                  qualname, start, end))
                else:
                    tracer.spans_dropped += 1

        if is_gen:
            def wrapper(*args, **kwargs):
                if stack[-1][0] == layer:
                    yield from fn(*args, **kwargs)
                    return
                enter()
                try:
                    it = fn(*args, **kwargs)
                finally:
                    leave()
                while True:
                    enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()

        return functools.wraps(fn)(wrapper)

    def _counted(self, key, fn, weigh=None):
        """Count every call of fn (or the weight of its result)."""
        counts = self.counts

        if weigh is None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[key] += weigh(out)
                return out

        return functools.wraps(fn)(wrapper)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the program's public functions; returns self."""
        modules = {}
        for modname in LAYER_OF_MODULE:
            try:
                modules[modname] = importlib.import_module(modname)
            except ImportError:  # the compiled kernel is optional
                pass
        replace = {}  # id(original) -> wrapped

        def wrap_function(modname, name, fn):
            layer = LAYER_OF_MODULE[modname]
            w = self._special(modname, name, fn)
            w = self._wrap(layer, f"{modname}.{name}", w,
                           inspect.isgeneratorfunction(fn))
            replace[id(fn)] = (fn, w)

        for modname, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if modname == "pgforge.kernel":
                    # the kernel module re-exports the backend's functions
                    wrap_function(modname, name, obj)
                elif getattr(obj, "__module__", None) == modname:
                    wrap_function(modname, name, obj)
        for modname, classes in CLASSES.items():
            mod = modules[modname]
            layer = LAYER_OF_MODULE[modname]
            for cname, dunders in classes.items():
                cls = getattr(mod, cname)
                for name, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj):
                        continue
                    if name.startswith("_") and name not in dunders:
                        continue
                    w = self._special(f"{modname}.{cname}", name, obj)
                    w = self._wrap(layer, f"{modname}.{cname}.{name}", w,
                                   inspect.isgeneratorfunction(obj))
                    setattr(cls, name, w)
                    self._installed.append((cls, name, obj))
                    if name == "membership":
                        # `__contains__ = membership` aliases the function
                        setattr(cls, "__contains__", w)
                        self._installed.append((cls, "__contains__", obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._installed.append((mod, name, obj))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _special(self, where, name, fn):
        """Named counters for the functions the per-layer metrics count."""
        c = self._counted
        if where == "pgforge.core" and name == "parse_presentation":
            return c("core.parses", fn)
        if where == "pgforge.core.PcPresentation" and name == "consistency_check":
            return c("core.consistency_checks", fn)
        if where == "pgforge.core.Element" and name in ELEMENT_OPS:
            return c("core.element_ops", fn)
        if where == "pgforge.subgroups" and name == "subgroup_closure":
            return c("subgroups.closures", fn)
        if where == "pgforge.subgroups.Subgroup" and name == "membership":
            return c("subgroups.memberships", fn)
        if where == "pgforge.subgroups" and name == "enumerate_subgroups":
            return self._enumeration_counter(fn)
        if where == "pgforge.autos" and name == "search_order_p_automorphisms":
            return c("autos.searches", c("autos.witnesses", fn, weigh=len))
        if where == "pgforge.autos" and name in ("powerful_quotient_witness",
                                                 "cohomological_witness"):
            return c("autos.witnesses", fn, weigh=lambda w: 1)
        if where == "pgforge.autos" and name == "validation_error":
            return c("autos.maps_validated", fn)
        if where == "pgforge.autos" and name == "is_inner":
            return c("autos.inner_tests", fn)
        if where == "pgforge.cohomology" and name == "module_of":
            return c("cohomology.modules", fn)
        if where == "pgforge.cohomology" and name == "z1":
            return c("cohomology.cocycles", fn, weigh=len)
        if where == "pgforge.corpus.CorpusEntry" and name == "validate":
            return c("corpus.validations", fn)
        if where == "pgforge.harness" and name == "run_check":
            return c("harness.checks", fn, weigh=len)
        if where == "pgforge.cli" and name == "main":
            return c("cli.commands", fn)
        return fn

    def _enumeration_counter(self, fn):
        counts = self.counts
        seen = self._enumerated

        def wrapper(G, *args, **kwargs):
            counts["subgroups.enumerations"] += 1
            key = G._key
            if key in seen:
                counts["subgroups.enumerations_repeated"] += 1
            seen.add(key)
            return fn(G, *args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- results -----------------------------------------------------------------

    def metrics(self):
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        for key, value in self.counts.items():
            if not key.endswith(".calls") or key in REPORTED_CALLS:
                out[key] = value
        validated = self.counts["autos.maps_validated"]
        out["autos.witness_yield"] = (
            self.counts["autos.witnesses"] / validated if validated else 0.0
        )
        return out

    def write(self, path):
        """Write the kept spans as JSON lines, after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "fields": ["id", "parent", "request", "layer", "name", "start", "end"],
                "spans_kept": len(self.spans),
                "spans_dropped": self.spans_dropped,
                "unrecorded_layers": list(UNRECORDED),
            }) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
