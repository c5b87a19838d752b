"""Traced run: span recorders around the public functions of each ncgb layer.

The wrappers live here, in the benchmark, and are installed by replacing
module attributes for the length of a traced pass; no file of the program
changes.  Modules import their helpers by name (``engine`` does
``from .division import normal_remainder``), so each wrapper replaces the
name in the module that *calls* it, e.g. ``ncgb.engine.normal_remainder``,
and ``uninstall`` restores every replaced attribute.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written once, at the end of the run.  Self time is a span's
duration minus the time its child spans cover; calls run on one thread
and nest, so the children of a span never overlap.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

# (module, attribute, span name, phase).  ``phase`` marks the engine entry
# points: counts taken inside them are attributed to that phase.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_problem", "cli.parse", None),
    ("cli", "buchberger", "engine.complete", "complete"),
    ("cli", "interreduce", "engine.interreduce", "interreduce"),
    ("cli", "verify_groebner", "engine.verify", "verify"),
    ("engine", "nontrivial_obstructions", "obstructions.construct", None),
    ("engine", "s_polynomial", "obstructions.spoly", None),
    ("engine", "multiply_criterion", "criteria.m", None),
    ("engine", "leading_word_criterion", "criteria.f", None),
    ("engine", "tail_reduction", "criteria.tail", None),
    ("engine", "backward_criterion", "criteria.bk", None),
    ("engine", "normal_remainder", "division.reduce", None),
    ("engine", "divide", "division.reduce", None),
    ("engine", "sandwich", "polynomial.sandwich", None),
    ("engine", "add_scaled", "polynomial.add_scaled", None),
    ("engine", "leading", "polynomial.leading", None),
    ("engine", "make_monic", "polynomial.make_monic", None),
    ("obstructions", "sandwich", "polynomial.sandwich", None),
    ("obstructions", "add_scaled", "polynomial.add_scaled", None),
    ("obstructions", "leading", "polynomial.leading", None),
    ("obstructions", "overlaps", "words.overlap", None),
    ("obstructions", "proper_borders", "words.overlap", None),
]
QUEUE_METHODS = ("push", "pop_smallest")


class Tracer:
    """Span and count recorder for one set of imported ncgb modules."""

    def __init__(self, modules):
        self.modules = modules          # short name -> module object
        self.names = []                 # span name table
        self._ids = {}
        self.counts = Counter()         # boundary counts; the caller resets it
        self.phase = None
        self._undo = []
        self.reset()

    def reset(self):
        """Drop all recorded spans."""
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, phase, hook):
        def wrapper(*args, **kwargs):
            outer = self.phase
            if phase is not None:
                self.phase = phase
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                self.phase = outer
            if hook is not None:
                hook(args, result, phase or outer)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken at the layer boundaries ----------------------------------

    def _count_complete(self, args, result, phase):
        basis, stats = result
        self.counts["gb"] += len(basis)
        self.counts["truncated"] += stats.truncated_discards

    def _count_interreduce(self, args, result, phase):
        self.counts["rgb"] += len(result)

    def _count_construct(self, args, result, phase):
        self.counts["constructed"] += len(result)
        if phase == "complete":
            self.counts["tot"] += len(result)

    def _count_spoly(self, args, result, phase):
        if phase == "complete":
            self.counts["sel"] += 1

    def _count_reduce(self, args, result, phase):
        remainder = getattr(result, "remainder", result)
        c = self.counts
        c["in_terms"] += len(args[0])
        c["out_terms"] += len(remainder)
        if not remainder:
            c["division_zero"] += 1
            if phase == "complete":
                c["zero"] += 1

    def _count_criterion(self, kind):
        attr = f"removed_{kind}"

        def hook(args, result, phase):
            self.counts[kind] += getattr(result, attr)
        return hook

    def _hook_for(self, name):
        hooks = {
            "engine.complete": self._count_complete,
            "engine.interreduce": self._count_interreduce,
            "obstructions.construct": self._count_construct,
            "obstructions.spoly": self._count_spoly,
            "division.reduce": self._count_reduce,
        }
        if name.startswith("criteria."):
            return self._count_criterion(name.split(".", 1)[1])
        return hooks.get(name)

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every target that exists; a later version may drop a helper."""
        for module, attr, name, phase in TARGETS:
            mod = self.modules[module]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, phase, self._hook_for(name)))
        queue = getattr(self.modules["engine"], "ObstructionQueue", None)
        for attr in QUEUE_METHODS if queue is not None else ():
            fn = queue.__dict__.get(attr)
            if fn is not None:
                self._undo.append((queue, attr, fn))
                setattr(queue, attr, self._wrap(fn, "engine.select", None, None))

    def uninstall(self):
        while self._undo:
            obj, attr, fn = self._undo.pop()
            setattr(obj, attr, fn)

    # -- analysis ------------------------------------------------------------

    def summarize(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        The inclusive total counts only outermost spans of a name, so a
        wrapped function reached again below itself is not counted twice.
        """
        n = len(self.start)
        names, name, parent = self.names, self.name, self.parent
        dur = [self.end[k] - self.start[k] for k in range(n)]
        own = list(dur)
        for k in range(n):
            p = parent[k]
            if p >= 0:
                own[p] -= dur[k]
        calls, incl, selfs = Counter(), Counter(), Counter()
        for k in range(n):
            label = names[name[k]]
            calls[label] += 1
            selfs[label] += own[k]
            if not _has_ancestor(parent, name, parent[k], name[k]):
                incl[label] += dur[k]
        return {label: (calls[label], incl[label] / 1e9, selfs[label] / 1e9)
                for label in calls}

    def write(self, path):
        """All spans as tab-separated name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for k in range(len(self.start)):
                fh.write(f"{names[self.name[k]]}\t{self.start[k]}\t{self.end[k]}\t"
                         f"{self.parent[k]}\n")


def _has_ancestor(parent, name, k, wanted):
    while k >= 0:
        if name[k] == wanted:
            return True
        k = parent[k]
    return False
