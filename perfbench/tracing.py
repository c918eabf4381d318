"""Per-layer spans, timed from outside the program.

Nothing under `src/` knows about this file. Module functions are patched
in the module that calls them (`router.pre_process`, and the names
`preprocess` imports from `matching`), and methods are patched on the
engine instance and on its two `EdgeOracle` instances. Spans nest on a
stack, so each span's self time is its duration minus its children's.
Spans are folded into per-name totals as they close, which keeps memory
flat over hundreds of thousands of oracle calls.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from expander_routing import preprocess, router


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)   # span name -> seconds, children included
        self.self_s = defaultdict(float)  # span name -> seconds, children excluded
        self.calls = Counter()            # span name -> closed spans; also plain counts
        self.peaks = Counter()            # gauge name -> highest sample
        self._stack = []                  # open spans: [name, seconds of closed children]
        self._find_removes = {}           # side -> [calls, seconds] inside the open find

    def _close(self, name, frame, dt):
        self._stack.pop()
        self.total[name] += dt
        self.self_s[name] += dt - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dt

    def wrap(self, fn, name):
        stack = self._stack

        def traced(*args):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                self._close(name, frame, perf_counter() - t0)

        return traced

    @contextmanager
    def setup_spans(self):
        """Patch the preprocessing pipeline for the engines built inside."""
        patches = [
            (router, "pre_process", "preprocess.total"),
            (preprocess, "eulerian_orient", "preprocess.orient"),
            (preprocess, "split_regular", "preprocess.split"),
            (preprocess, "perfect_matching_edges", "matching.perfect"),
            (preprocess, "one_factor", "matching.one_factor"),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for (module, attr, name), (_, _, fn) in zip(patches, saved):
                setattr(module, attr, self.wrap(fn, name))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def instrument(self, engine):
        """Patch one engine's request methods and its two oracles."""
        engine.find_path = self._wrap_find(engine.find_path)
        engine.remove_path = self.wrap(engine.remove_path, "router.remove")
        engine.verify = self.wrap(engine.verify, "router.verify")
        for side, oracle in (("out", engine.out_oracle), ("in", engine.in_oracle)):
            self._instrument_oracle(side, oracle)

    def _wrap_find(self, find_path):
        """A find span that files its oracle removals as hand-back or rollback.

        Removals made while a find is open are held per side until the
        find returns (hand-back of unused tree edges) or raises (rollback).
        """
        traced = self.wrap(find_path, "router.find")

        def find(a, b):
            self._find_removes = {"out": [0, 0.0], "in": [0, 0.0]}
            failed = True
            try:
                rec = traced(a, b)
                failed = False
                return rec
            finally:
                kind = "rollback" if failed else "handback"
                for side, (calls, secs) in self._find_removes.items():
                    self.calls["oracle.%s.%s" % (side, kind)] += calls
                    self.total["oracle.%s.%s" % (side, kind)] += secs
                self._find_removes = {}

        return find

    def _instrument_oracle(self, side, oracle):
        prefix = "oracle." + side
        add = self.wrap(oracle.add_edge, prefix + ".add")
        remove = self.wrap(oracle.remove_edge, prefix + ".remove")
        low = oracle.low

        def add_edge(v):
            if low[v]:
                self.calls[prefix + ".add_buffered"] += 1
            return add(v)

        def remove_edge(e):
            t0 = perf_counter()
            try:
                return remove(e)
            finally:
                dt = perf_counter() - t0
                pending = self._find_removes.get(side)
                if pending is None:
                    self.calls[prefix + ".release"] += 1
                    self.total[prefix + ".release"] += dt
                else:
                    pending[0] += 1
                    pending[1] += dt

        oracle.add_edge = add_edge
        oracle.remove_edge = remove_edge
        oracle.find_alternating_walk = self.wrap(oracle.find_alternating_walk, prefix + ".walk")
        oracle.audit = self.wrap(oracle.audit, prefix + ".audit")

    def sample(self, engine):
        """Record the oracle gauges after a request."""
        for side, oracle in (("out", engine.out_oracle), ("in", engine.in_oracle)):
            for gauge, value in (
                ("low", sum(oracle.low)),
                ("b", len(oracle.b)),
                ("sat", sum(oracle.sat)),
            ):
                key = "oracle.%s.%s_peak" % (side, gauge)
                if value > self.peaks[key]:
                    self.peaks[key] = value

