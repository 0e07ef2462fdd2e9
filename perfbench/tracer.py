"""Span tracing from outside the program: wraps bendlab's public functions
at every module namespace where they are bound, records one span per call
with the id of the item it belongs to, and keeps the spans in memory until
the run ends.

A span's self time is its duration minus the part covered by its child
spans; the wrapper's own bookkeeping for a child is counted as the child's,
so it does not inflate the parent's self time. The untraced runs import this
module but install nothing.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import weakref
from array import array
from time import perf_counter

# (module, attribute path, span name). A class path wraps its __init__ (the
# build); a dotted path wraps a method on the class.
SPANS = (
    ("words", "parse_word", "words.parse_word"),
    ("words", "fox_derivative", "words.fox_derivative"),
    ("reps", "validate_representation", "reps.validate_representation"),
    ("reps", "Representation.evaluate", "reps.evaluate"),
    ("reps", "Representation.conjugated", "reps.conjugated"),
    ("reps", "first_order_evaluate", "reps.first_order_evaluate"),
    ("modules", "CoefficientModule", "modules.CoefficientModule"),
    ("modules", "CoefficientModule.action", "modules.action"),
    ("modules", "CoefficientModule.to_coordinates", "modules.to_coordinates"),
    ("modules", "CoefficientModule.invariants_dim", "modules.invariants_dim"),
    ("cohomology", "CocycleSpace", "cohomology.CocycleSpace"),
    ("cohomology", "CocycleSpace.word_row", "cohomology.word_row"),
    ("cohomology", "CocycleSpace.parabolic_kernel_dim",
     "cohomology.parabolic_kernel_dim"),
    ("cohomology", "CocycleSpace.cuspidal_defect", "cohomology.cuspidal_defect"),
    ("cohomology", "h1_report", "cohomology.h1_report"),
    ("cohomology", "peripheral_invariant_dims",
     "cohomology.peripheral_invariant_dims"),
    ("cohomology", "class_span_dim", "cohomology.class_span_dim"),
    ("cohomology", "cocycle_eval", "cohomology.cocycle_eval"),
    ("linalg", "rref_rank", "linalg.rref_rank"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "in_column_space", "linalg.in_column_space"),
    ("linalg", "rank_of_vectors", "linalg.rank_of_vectors"),
    ("linalg", "RationalMatrix.inverse", "linalg.inverse"),
    ("linalg", "RationalMatrix.det", "linalg.det"),
    ("linalg", "RationalMatrix.__mul__", "linalg.__mul__"),
    ("linalg", "FloatMatrix.rank", "linalg.FloatMatrix.rank"),
    ("complexes", "build_system", "complexes.build_system"),
    ("complexes", "bending_dimension", "complexes.bending_dimension"),
    ("bending", "centralizer_generator", "bending.centralizer_generator"),
    ("bending", "hnn_first_order", "bending.hnn_first_order"),
    ("bending", "tangent_cocycle", "bending.tangent_cocycle"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)


def per_layer_metric_units() -> dict[str, str]:
    """Every metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update({"modules.action.repeat_ratio": "ratio",
                  "linalg.rref_rank.max_rows": "count",
                  "linalg.rref_rank.max_cols": "count",
                  "linalg.rref_rank.max_in_bits": "bits",
                  "trace.untraced_items_per_s": "1/s",
                  "trace.traced_items_per_s": "1/s",
                  "trace.overhead_pct": "%"})
    return units


class Tracer:
    """Records spans while ``recording`` is true; see the module docstring."""

    def __init__(self):
        self.recording = False
        self.item = -1
        self._stack: list[list] = []   # [child seconds, span id] per open span
        self._next_id = 0
        self._patched: list[tuple] = []
        # completed spans, one entry per array
        self.span_id = array("q")
        self.parent_id = array("q")
        self.span_item = array("q")
        self.span_name = array("h")
        self.start = array("d")
        self.duration = array("d")
        self.self_time = array("d")
        # counters measured at the same boundaries
        self.action_calls = 0
        self.action_repeats = 0
        self._action_seen = weakref.WeakKeyDictionary()
        self.rref_max = {"rows": 0, "cols": 0, "bits": 0}

    # --- installation ---

    def install(self, package) -> None:
        """Wrap every span target of the imported ``package`` (bendlab)."""
        bound = [m for name, m in sys.modules.items()
                 if m is not None and (name == package.__name__
                                       or name.startswith(package.__name__ + "."))]
        for index, (module_name, path, _) in enumerate(SPANS):
            module = sys.modules[f"{package.__name__}.{module_name}"]
            head, _, method = path.partition(".")
            target = getattr(module, head)
            if isinstance(target, type):
                attr = method or "__init__"
                original = target.__dict__[attr]
                self._patch(target, attr, self._wrap(index, original, attr))
                continue
            wrapper = self._wrap(index, target, path)
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, fn, attr: str):
        inspect = {"action": self._inspect_action,
                   "rref_rank": self._inspect_rref}.get(attr)
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            if inspect is not None:
                inspect(args)
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t1 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                tracer._record(sid, stack[-1][1] if stack else -1, index,
                               t1, t2 - t1, t2 - t1 - frame[0])
                if stack:
                    stack[-1][0] += perf_counter() - t0
        return span

    def _record(self, sid, parent, index, start, duration, self_time) -> None:
        self.span_id.append(sid)
        self.parent_id.append(parent)
        self.span_item.append(self.item)
        self.span_name.append(index)
        self.start.append(start)
        self.duration.append(duration)
        self.self_time.append(self_time)

    def _inspect_action(self, args) -> None:
        module, element = args[0], args[1]
        seen = self._action_seen.setdefault(module, set())
        self.action_calls += 1
        if element in seen:
            self.action_repeats += 1
        else:
            seen.add(element)

    def _inspect_rref(self, args) -> None:
        m = args[0]
        bits = 0
        for i in range(m.rows):
            for x in m.row(i):
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        peak = self.rref_max
        peak["rows"] = max(peak["rows"], m.rows)
        peak["cols"] = max(peak["cols"], m.cols)
        peak["bits"] = max(peak["bits"], bits)

    # --- results ---

    def per_layer(self, items) -> dict[str, float]:
        """Per span: the median over ``items`` of its per-item self time (ms)
        and of its per-item call count; plus the boundary counters."""
        index = {item: k for k, item in enumerate(items)}
        n = len(SPANS)
        self_ms = [[0.0] * len(items) for _ in range(n)]
        calls = [[0] * len(items) for _ in range(n)]
        for item, name, st in zip(self.span_item, self.span_name, self.self_time):
            k = index.get(item)
            if k is not None:
                self_ms[name][k] += st * 1000.0
                calls[name][k] += 1
        out = {}
        for s, name in enumerate(SPAN_NAMES):
            out[f"{name}.self_ms"] = statistics.median(self_ms[s]) if items else 0.0
            out[f"{name}.calls"] = statistics.median(calls[s]) if items else 0
        out["modules.action.repeat_ratio"] = (
            self.action_repeats / self.action_calls if self.action_calls else 0.0)
        out["linalg.rref_rank.max_rows"] = self.rref_max["rows"]
        out["linalg.rref_rank.max_cols"] = self.rref_max["cols"]
        out["linalg.rref_rank.max_in_bits"] = self.rref_max["bits"]
        return out

    def write(self, path, header: str) -> None:
        """All spans as gzipped tab-separated text, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(header + "\n")
            fh.write("span\tparent\titem\tname\tstart_s\tduration_ms\tself_ms\n")
            for row in zip(self.span_id, self.parent_id, self.span_item,
                           self.span_name, self.start, self.duration,
                           self.self_time):
                sid, parent, item, name, start, dur, st = row
                fh.write(f"{sid}\t{parent}\t{item}\t{SPAN_NAMES[name]}\t"
                         f"{start:.9f}\t{dur * 1000:.6f}\t{st * 1000:.6f}\n")
