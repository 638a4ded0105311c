"""In-memory span tracer that wraps digseg's functions from outside.

Each traced function is replaced, for the duration of `Tracer.installed()`,
by a wrapper on the module or class attribute its callers look up (for
example `digseg.greedy.best_move`, looked up by `greedy.sweep` on every
call).  A wrapper records one span per call: name, start, end, the enclosing
span and the solve it belongs to.  Spans are kept in flat arrays and turned
into per-name totals only when the run ends.  Nothing inside `src/` changes.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Hook:
    """One traced attribute: `owner.attr` becomes a span named `name`.

    `kind` is "function" for a plain module or class function, "classmethod"
    for a classmethod.  `count` optionally maps (args, result) to a dict of
    counter increments recorded at the same boundary.
    """

    name: str
    owner: Any
    attr: str
    kind: str = "function"
    count: Optional[Callable[[tuple, Any], dict]] = None


class Tracer:
    """Records spans and counters; single-threaded, one per traced phase."""

    def __init__(self, hooks: list[Hook], clock=time.perf_counter):
        self.hooks = hooks
        self.clock = clock
        self.names = [h.name for h in hooks]
        self.name_col = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, int], int] = defaultdict(int)
        self.solve_id = -1
        self._stack: list[int] = []

    def _wrap(self, name_id: int, hook: Hook, fn):
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_col.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.solve.append(self.solve_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook.count is not None:
                for key, inc in hook.count(args, result).items():
                    self.counters[(key, self.solve_id)] += inc
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook's attribute for the duration of the block."""
        saved = []
        try:
            for name_id, hook in enumerate(self.hooks):
                if hook.kind == "classmethod":
                    original = hook.owner.__dict__[hook.attr]
                    patched = classmethod(self._wrap(name_id, hook, original.__func__))
                else:
                    original = getattr(hook.owner, hook.attr)
                    patched = self._wrap(name_id, hook, original)
                saved.append((hook, original))
                setattr(hook.owner, hook.attr, patched)
            yield self
        finally:
            for hook, original in reversed(saved):
                setattr(hook.owner, hook.attr, original)

    # -- results ---------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        """Columns of the span table, plus duration and self time per span."""
        # copies, so the arrays stay free to grow while the results live on
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        return {
            "name": np.array(self.name_col, dtype=np.int64),
            "parent": parent,
            "solve": np.array(self.solve, dtype=np.int64),
            "start": start,
            "end": end,
            "duration": duration,
            "self": self_times(duration, parent),
        }

    def totals(self, scale: Optional[dict[int, float]] = None) -> dict[str, dict[str, float]]:
        """Per-name calls, inclusive seconds and self seconds.

        `scale`, if given, maps solve ids to a time factor: only spans of
        those solves count, and their seconds are multiplied by the factor.
        """
        cols = self.span_arrays()
        if scale is None:
            factor = np.ones(cols["name"].size)
        else:
            factor = np.array([scale.get(s, 0.0) for s in cols["solve"].tolist()])
        keep = factor > 0
        names = cols["name"][keep]
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        incl = np.bincount(names, weights=(cols["duration"] * factor)[keep], minlength=size)
        own = np.bincount(names, weights=(cols["self"] * factor)[keep], minlength=size)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def per_solve_counts(self) -> dict[int, dict[str, int]]:
        """Calls per name and counter totals, keyed by solve id."""
        cols = self.span_arrays()
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name_id, solve in zip(cols["name"].tolist(), cols["solve"].tolist()):
            out[solve][self.names[name_id] + ".calls"] += 1
        for (key, solve), value in self.counters.items():
            out[solve][key] += value
        return {s: dict(c) for s, c in out.items()}

    def counter(self, key: str, solves=None) -> int:
        return sum(
            v for (k, s), v in self.counters.items() if k == key and (solves is None or s in solves)
        )

    def save(self, path) -> None:
        """Write the span table (names as an index) to an `.npz` file."""
        cols = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread with strict nesting, so a span's children are
    disjoint intervals inside it and their durations simply add up.
    """
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child
