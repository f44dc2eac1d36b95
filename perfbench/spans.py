"""In-memory span tracer that wraps questkg's public functions from outside.

A traced function is replaced, on its module or class, by a wrapper that
records one span per call: (name, start, end, parent span, run id).  Spans
live in flat int64 arrays while the run is going and are written out once
it ends.  Self time is a span's duration minus the time its direct children
cover; calls are single-threaded and nested, so that cover is the sum of the
children's durations.

Nothing here changes what a wrapped function computes, so a traced run must
produce the same trajectory hashes as an untraced one.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []            # name id -> span name
        self._ids = {}
        self.name_of = array("q")  # per span
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.counts = defaultdict(int)   # counters kept beside the spans
        self._stack = []
        self._patches = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr, name, observe=None):
        """Replace owner.attr with a span-recording wrapper.

        observe(args, kwargs, result, counts) runs after the span closes and
        may only read its arguments; it feeds the ratio counters.
        """
        original = owner.__dict__[attr]
        nid = self.name_id(name)
        stack, counts = self._stack, self.counts
        name_of, start, end = self.name_of, self.start, self.end
        parent, run = self.parent, self.run
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, counts)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- analysis -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64))

    def per_name(self):
        """name -> (calls, total_ns, self_ns), plus the number of spans whose
        children cover more time than the span itself lasted."""
        names, start, end, parent = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=duration, minlength=n)
        own = np.bincount(names, weights=duration - cover, minlength=n)
        stats = {name: (int(calls[i]), float(total[i]), float(own[i]))
                 for i, name in enumerate(self.names)}
        return stats, int((cover > duration).sum())

    def calls_in_runs(self, name, runs):
        """Number of `name` spans whose run id is in `runs` (a range)."""
        if name not in self._ids:
            return 0
        names = self.arrays()[0]
        run = np.frombuffer(self.run, dtype=np.int64)
        return int(((names == self._ids[name]) & (run >= runs.start)
                    & (run < runs.stop)).sum())

    def child_calls(self, child, parent_name):
        """Number of `child` spans whose direct parent is a `parent_name`
        span."""
        if child not in self._ids or parent_name not in self._ids:
            return 0
        names, _, _, parent = self.arrays()
        mask = (names == self._ids[child]) & (parent >= 0)
        return int((names[parent[mask]] == self._ids[parent_name]).sum())

    def write(self, path):
        rows = zip(self.run, self.name_of, self.start, self.end, self.parent)
        with open(path, "w") as fh:
            fh.write("span\trun\tname\tstart_ns\tend_ns\tparent\n")
            for i, (run, nid, start, end, parent) in enumerate(rows):
                fh.write(f"{i}\t{run}\t{self.names[nid]}\t{start}\t{end}\t"
                         f"{parent}\n")
