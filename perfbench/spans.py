"""Spans and counts around wgfair's public functions, installed from outside.

A Tracer rebinds module and class attributes of the library with wrappers.
The library reaches its own functions through module attributes (``fc.``,
``ds.``, ``ps.``) and module globals, so every call goes through a wrapper
while the tracer is installed.  ``uninstall`` puts the originals back.

A span records (name, start, end, parent).  Self time is a span's duration
minus the durations of its child spans.  Counts that need the arguments or
the returned object are taken after the span closes, and the time they take
is left out of every span, so bookkeeping does not show up as library time.
Hot cache lookups are counted only.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


def composable_pairs(cat):
    """Number of composable pairs (g, f) of a category, from its endpoints."""
    into, out = Counter(cat.tgt), Counter(cat.src)
    return sum(n * out[y] for y, n in into.items())


class Tracer:
    """Wrappers plus the spans and counts they record; inactive until install."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []
        self._excluded = 0.0
        self._distinct = {}
        self._cat_by_id = {}
        self._cat_by_value = {}
        self.active = False

    def clock(self):
        return time.perf_counter() - self._excluded

    # -- installing ----------------------------------------------------------

    def install(self, targets):
        """targets: (owner, attribute, metric name, kind, extra) tuples.

        kind is "span" or "count"; extra(tracer, args, result) adds named
        counts after a span ends.
        """
        for owner, attr, name, kind, extra in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            wrap = self._span if kind == "span" else self._count
            setattr(owner, attr, wrap(fn, name, extra))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _span(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, self.clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = self.clock()
            if extra is not None:
                t0 = time.perf_counter()
                extra(self, args, result)
                self._excluded += time.perf_counter() - t0
            return result
        return wrapper

    def _count(self, fn, name, extra):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- helpers for extras --------------------------------------------------

    def note_distinct(self, name, key):
        """Remember key among the distinct keys seen by name."""
        self._distinct.setdefault(name, set()).add(key)

    def cat_key(self, cat):
        """Small integer naming a category by value (endpoints, identities, composites).

        Keyed by object first, keeping the object alive, so each category is
        read once; equal categories built separately get the same integer.
        """
        held = self._cat_by_id.get(id(cat))
        if held is not None:
            return held[1]
        by_tgt = {}
        for f, y in enumerate(cat.tgt):
            by_tgt.setdefault(y, []).append(f)
        table = tuple(cat.compose(g, f) for g in range(cat.n_mor)
                      for f in by_tgt.get(cat.src[g], ()))
        value = (cat.n_obj, tuple(cat.src), tuple(cat.tgt), tuple(cat.identity), table)
        key = self._cat_by_value.setdefault(value, len(self._cat_by_value))
        self._cat_by_id[id(cat)] = (cat, key)
        return key

    def functor_key(self, fun):
        return (self.cat_key(fun.source), self.cat_key(fun.target),
                tuple(fun.obj_map), tuple(fun.mor_map))

    # -- reporting -----------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child[i])
        return totals

    def distinct_counts(self):
        return {name: len(keys) for name, keys in self._distinct.items()}

    def dump(self, path, meta):
        """Write spans and counts as JSON."""
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "span_fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "distinct": self.distinct_counts()}, fh)
