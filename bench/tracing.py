"""Spans around syzdepth's public functions, installed from the outside.

A traced function is replaced, in every syzdepth module that refers to it,
by a wrapper that records a span (name, start, end, parent).  Counted
functions only record their calls, because they are called too often or
return lazy iterators.  Nothing in syzdepth itself is changed; uninstall()
puts the original functions back.  A function that a later version of the
library renames or removes is skipped, and its metrics read 0.
"""

from __future__ import annotations

import sys
import time

# Functions timed with spans, named "module.function"; loading the input and
# writing the output share the span "cli.io".
SPANNED = ("complexes.check_exactness_on_box", "complexes.taylor_complex",
           "complexes.minimize", "complexes.eliahou_kervaire", "complexes.lift_through",
           "complexes.mapping_cone", "linalg.rank_mod_p", "linalg.rref",
           "freemod.graded_piece", "groebner.hilbert_slice_check", "groebner.buchberger",
           "groebner.initial_module", "syzygy.verify_theorem_main",
           "syzygy.verify_boundary_gb", "syzygy.compose_cone_gb", "stanley.exact_sdepth",
           "stanley.char_poset", "stanley.validate_partition", "stanley.ideal_sdepth",
           "blocks.squarefree_partition", "cli.load_ideal", "cli.write_output")
SPAN_NAMES = {"cli.load_ideal": "cli.io", "cli.write_output": "cli.io"}
COUNTED = ("linalg.exact_rank", "groebner.normal_form", "stanley.interval_points",
           "blocks.lifted_f")


def _is_nonzero(vector) -> bool:
    is_zero = getattr(vector, "is_zero", None)
    return not is_zero() if callable(is_zero) else bool(vector)


class Tracer:
    """Collects spans of one operation at a time and folds them into totals."""

    def __init__(self):
        self.installed = []  # (module, attribute, original)
        self.totals = {}     # span name -> [self seconds, calls]
        self.counts = {}     # counter name -> int
        self.spans = []      # (name, start, end, parent index) of the current op
        self.stack = []      # indices into spans
        self.searched = set()  # ideal_sdepth spans that reached exact_sdepth

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "syzdepth" or name.startswith("syzdepth."))]
        targets = {}
        for qualified in SPANNED:
            original = self._lookup(qualified)
            if original is not None:
                span = SPAN_NAMES.get(qualified, qualified)
                targets[id(original)] = (original, self._span_wrapper(original, span))
        for qualified in COUNTED:
            original = self._lookup(qualified)
            if original is not None:
                targets[id(original)] = (original, self._count_wrapper(original, qualified))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self.installed.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed = []

    @staticmethod
    def _lookup(qualified):
        module_name, func = qualified.split(".")
        module = sys.modules.get(f"syzdepth.{module_name}")
        return getattr(module, func, None) if module is not None else None

    def _span_wrapper(self, func, name):
        spans, stack, counts, searched = self.spans, self.stack, self.counts, self.searched
        clock = time.perf_counter
        is_exact = name == "stanley.exact_sdepth"
        is_buchberger = name == "groebner.buchberger"
        is_exactness = name == "complexes.check_exactness_on_box"
        is_poset = name == "stanley.char_poset"

        def wrapper(*args, **kwargs):
            if is_buchberger and any(spans[i][0] == "groebner.initial_module" for i in stack):
                counts["groebner.buchberger.in_initial"] = (
                    counts.get("groebner.buchberger.in_initial", 0) + 1)
            if is_exact:
                searched.update(i for i in stack if spans[i][0] == "stanley.ideal_sdepth")
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if is_exactness:
                counts[name + ".degrees"] = (counts.get(name + ".degrees", 0)
                                             + getattr(result, "degrees_checked", 0))
            elif is_poset:
                counts[name + ".points"] = (counts.get(name + ".points", 0)
                                            + len(getattr(result, "points", ())))
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_wrapper(self, func, name):
        counts = self.counts
        nonzero = name == "groebner.normal_form"

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            result = func(*args, **kwargs)
            if nonzero and _is_nonzero(result):
                counts[name + ".nonzero"] = counts.get(name + ".nonzero", 0) + 1
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- per-operation bookkeeping ----------------------------------------

    def start_op(self):
        self.spans.clear()
        self.stack.clear()
        self.searched.clear()

    def finish_op(self, scale: float) -> float:
        """Fold the operation's spans into totals; self times are multiplied
        by scale (reference seconds per second).  Returns the covered time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start - child[i]) * scale
            covered += own
            entry = self.totals.setdefault(name, [0.0, 0])
            entry[0] += own
            entry[1] += 1
        self.counts["stanley.ideal_sdepth.searched"] = (
            self.counts.get("stanley.ideal_sdepth.searched", 0) + len(self.searched))
        return covered

    # -- results -----------------------------------------------------------

    def self_s(self, name):
        return self.totals.get(name, [0.0, 0])[0]

    def calls(self, name):
        if name in self.totals:
            return self.totals[name][1]
        return self.counts.get(name, 0)

    def count(self, key):
        return self.counts.get(key, 0)
