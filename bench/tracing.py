"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` wraps every traced function in every ``orbifold.*``
module namespace that holds it, so calls through a by-name import
(``genfun`` imports ``geometric_factor``; ``cli`` imports nearly everything)
are caught as well as calls through the defining module.  Nothing in the
package changes on disk; the wrappers live only in the traced interpreter.

Each span records its traced name, its parent span on the same thread, its
start and end, and an optional count (term pairs of a series product,
window slots of an engine result).  Spans stay in memory, one list per
thread, because the series engines may run on a thread pool; ``report``
reduces them once the repetition is over.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter

LAYERS = ("intlattice", "stackyfan", "exact", "geometry", "sheafdata",
          "genfun", "cli")

# (module, attribute path, traced name); the traced name is
# "<layer>.<function>" and methods of one class may share a name.
TRACED = (
    ("intlattice", "smith_normal_form", "intlattice.smith_normal_form"),
    ("intlattice", "integer_kernel", "intlattice.integer_kernel"),
    ("intlattice", "hermite_row_basis", "intlattice.hermite_row_basis"),
    ("intlattice", "lattices_equal", "intlattice.lattices_equal"),
    ("stackyfan", "wps_fan", "stackyfan.wps_fan"),
    ("stackyfan", "hirzebruch_fan", "stackyfan.hirzebruch_fan"),
    ("stackyfan", "projective_bundle", "stackyfan.projective_bundle"),
    ("stackyfan", "fans_equal_up_to_ray_order",
     "stackyfan.fans_equal_up_to_ray_order"),
    ("exact", "HalfExpLaurent.__init__", "exact.HalfExpLaurent.init"),
    ("exact", "HalfExpLaurent.__mul__", "exact.HalfExpLaurent.mul"),
    ("exact", "geometric_factor", "exact.geometric_factor"),
    ("exact", "Cyclotomic.root_power", "exact.Cyclotomic"),
    ("exact", "Cyclotomic.zero", "exact.Cyclotomic"),
    ("exact", "Cyclotomic.one", "exact.Cyclotomic"),
    ("exact", "Cyclotomic.__add__", "exact.Cyclotomic"),
    ("exact", "Cyclotomic.__sub__", "exact.Cyclotomic"),
    ("exact", "Cyclotomic.__mul__", "exact.Cyclotomic"),
    ("exact", "Cyclotomic.inverse", "exact.Cyclotomic"),
    ("exact", "Cyclotomic.rational_part", "exact.Cyclotomic"),
    ("geometry", "derive_params", "geometry.derive_params"),
    ("geometry", "euler_characteristic", "geometry.euler_characteristic"),
    ("geometry", "hilbert_polynomial", "geometry.hilbert_polynomial"),
    ("geometry", "modified_hilbert_polynomial",
     "geometry.modified_hilbert_polynomial"),
    ("geometry", "modified_euler_characteristic",
     "geometry.modified_euler_characteristic"),
    ("sheafdata", "stability_check", "sheafdata.stability_check"),
    ("sheafdata", "rank2_c1_chi", "sheafdata.rank2_c1_chi"),
    ("genfun", "rank1_series", "genfun.rank1_series"),
    ("genfun", "vb_to_tf", "genfun.vb_to_tf"),
    ("genfun", "rank2_vb_csets", "genfun.rank2_vb_csets"),
    ("genfun", "rank2_vb_r0", "genfun.rank2_vb_r0"),
    ("genfun", "rank2_vb_closed_p12", "genfun.rank2_vb_closed_p12"),
    ("genfun", "rank2_vb_lambda", "genfun.rank2_vb_lambda"),
    ("genfun", "crosscheck", "genfun.crosscheck"),
    ("cli", "main", "cli.main"),
)

ENGINES = ("genfun.rank2_vb_csets", "genfun.rank2_vb_r0",
           "genfun.rank2_vb_closed_p12", "genfun.rank2_vb_lambda")

OP_SPAN = "bench.op"


def _term_pairs(args, result):
    return len(args[0].terms) * len(args[1].terms)


def _window_slots(args, result):
    return (result.max2exp - result.min2exp) // 2 + 1


COUNTERS = {"exact.HalfExpLaurent.mul": _term_pairs}
COUNTERS.update((name, _window_slots) for name in ENGINES)


class Tracer:
    """Records spans around the traced functions while ``active`` is true."""

    def __init__(self):
        self.names = [OP_SPAN]
        self._index = {OP_SPAN: 0}
        self.active = False
        self._local = threading.local()
        # (thread ident, span list); a list, since idents of ended pool
        # threads may be reused
        self._threads = []
        self._lock = threading.Lock()

    def _spans(self):
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._threads.append((threading.get_ident(), spans))
        return spans

    def wrap(self, fn, name):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans = self._spans()
            stack = self._local.stack
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[slot] = (idx, parent, t0, t1, 0)
            if counter is not None:
                spans[slot] = (idx, parent, t0, t1, counter(args, result))
            return result

        return traced

    def install(self, modules):
        """Wrap each traced function wherever a module binds it by name.

        ``modules`` maps module names (``"orbifold.genfun"``) to modules.
        """
        for modname, attr, name in TRACED:
            home = modules["orbifold." + modname]
            if "." in attr:
                owner_name, meth = attr.split(".")
                owner = getattr(home, owner_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    raw = classmethod(self.wrap(raw.__func__, name))
                else:
                    raw = self.wrap(raw, name)
                setattr(owner, meth, raw)
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def op(self, fn, args):
        """Call one top-level operation inside an op span.

        Spans are recorded only while an operation runs, so the checks and
        the operation generator, which run between operations, leave none.
        """
        spans = self._spans()
        stack = self._local.stack
        slot = len(spans)
        spans.append(None)
        stack.append(slot)
        self.active = True
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.active = False
            stack.pop()
            spans[slot] = (0, -1, t0, t1, 0)

    def report(self):
        """Reduce the spans to per-name totals.

        Returns ``(per_name, main_self_s, min_self_s)``.  per_name maps each
        traced name to ``[self_s, calls, count, inclusive_s]``.  main_self_s
        sums the self times on the main thread, which must add up to the
        traced wall time.  min_self_s is the smallest self time seen; it is
        negative only if the nesting bookkeeping is wrong.
        """
        per_name = {name: [0.0, 0, 0, 0.0] for name in self.names}
        main_ident = threading.main_thread().ident
        main_self = 0.0
        min_self = 0.0
        for ident, spans in self._threads:
            child = [0.0] * len(spans)
            for idx, parent, t0, t1, count in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for (idx, parent, t0, t1, count), kids in zip(spans, child):
                own = (t1 - t0) - kids
                min_self = min(min_self, own)
                row = per_name[self.names[idx]]
                row[0] += own
                row[1] += 1
                row[2] += count
                row[3] += t1 - t0
                if ident == main_ident:
                    main_self += own
        return per_name, main_self, min_self


def layer_metrics(per_name):
    """Per-layer metrics named ``<layer>.<function>.<stat>`` plus totals."""
    out = {}
    for name, (self_s, calls, count, inclusive) in per_name.items():
        if name == OP_SPAN:
            continue
        out[name + ".self_s"] = self_s
        out[name + ".calls"] = calls
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(
            row[0] for name, row in per_name.items()
            if name.startswith(layer + "."))
    out["exact.HalfExpLaurent.mul.term_pairs"] = \
        per_name["exact.HalfExpLaurent.mul"][2]
    slots = sum(per_name[name][2] for name in ENGINES)
    engine_s = sum(per_name[name][3] for name in ENGINES)
    out["genfun.window_slots"] = slots
    out["genfun.slots_per_s"] = slots / engine_s if engine_s else 0.0
    return out
