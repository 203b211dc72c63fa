"""Spans and counters around the public functions of each `spindim` module.

The package imports several functions by name (`edcalc` and `cli` take
`build_char_data`, `merkurjev_index_bound` and `ConcreteField2` that
way), so a function is wrapped by replacing every module-level binding
of it in every loaded `spindim` module.  `ConcreteField2.mul` and
`GroupElement.__add__` are counted on their classes.  `build_char_data`
is wrapped outside its `lru_cache`, and its hit ratio is read from
`cache_info()`.  Spans stay in memory until `summary()`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# module -> public functions that get a span
SPANNED = {
    "abelian": ("smith_normal_form", "subgroup_span"),
    "spinlat": ("build_char_data", "orbits_on_faithful", "free_transitive_check"),
    "repdim": ("divisibility_report", "merkurjev_index_bound"),
    "edcalc": ("ed_value", "ed_table"),
    "qform2": ("block_normalize_with_basis", "witt_decompose", "equivalent_ff",
               "classify_form", "arf", "pfister_build", "min_poly_for"),
    "invariants": ("symbol_normalize", "invariant_f"),
    "cli": ("run",),
}
# module -> functions only counted: they run thousands of times per request
COUNTED = {"qform2": ("evaluate",)}


class Tracer:
    """Records spans as (name, start, end, parent index) tuples."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap the functions listed in SPANNED and COUNTED, and count
        field multiplications and group additions.  `spindim.cli` must
        already be imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "spindim" or name.startswith("spindim.")]
        for table, make, suffix in ((SPANNED, self.span, ""),
                                    (COUNTED, self.counted, ".calls")):
            for mod_name, fns in table.items():
                home = sys.modules[f"spindim.{mod_name}"]
                for fn_name in fns:
                    orig = getattr(home, fn_name)
                    wrapped = make(f"{mod_name}.{fn_name}{suffix}", orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self._set(mod, attr, wrapped)
        abelian = sys.modules["spindim.abelian"]
        qform2 = sys.modules["spindim.qform2"]
        self._set(abelian.GroupElement, "__add__",
                  self.counted("abelian.group_adds", abelian.GroupElement.__add__))
        self._set(qform2.ConcreteField2, "mul",
                  self.counted("qform2.field_muls", qform2.ConcreteField2.mul))
        self._cache = sys.modules["spindim.spinlat"].build_char_data.__wrapped__
        self._cache_before = self._cache.cache_info()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-function call counts and self times, the counters, and the
        build_char_data cache lookups made since install()."""
        out = dict(self.counts)
        out.update(self_times(self.spans))
        for name, _, _, _ in self.spans:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        info = self._cache.cache_info()
        out["spinlat.build_char_data.hits"] = info.hits - self._cache_before.hits
        out["spinlat.build_char_data.misses"] = (
            info.misses - self._cache_before.misses)
        return out


def self_times(spans) -> dict:
    """name.self_s summed over spans: each span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        key = f"{name}.self_s"
        out[key] = out.get(key, 0.0) + (end - start) - inner
    return out
