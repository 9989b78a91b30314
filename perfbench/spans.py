"""Spans around the calls into each ``jrom`` module, installed from outside.

Nothing under ``src/`` is edited: ``install`` swaps module attributes for
timing wrappers and ``uninstall`` puts the originals back.  Every span
records its self time (its duration minus the time of the spans it
caused), so a ``World`` built while ``make_ready`` runs a ``<clinit>`` is
counted apart from one built by the differential check.
"""

import gc
import time
from collections import Counter

from jrom import classfile as cf
from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import linker as lk
from jrom import pipeline as pl
from jrom import romizer as rz
from jrom import verify as vf

READY = "lifecycle.ready"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = Counter()        # span name -> summed self time
        self.calls = Counter()         # span name -> number of spans
        self.counts = Counter()        # counters taken at the same boundaries
        self.captured = {}             # results the counters are read from
        self._stack = []               # open spans: [name, start, child_s]
        self._saved = []               # (owner, attribute, original)
        self._gc_start = None

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.captured.clear()

    def in_ready(self):
        return any(frame[0] == READY for frame in self._stack)

    def span(self, name, fn, *args, **kwargs):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            dur = end - frame[1]
            key = name
            if name in ("verify.exec", "verify.world") and self.in_ready():
                key = name + ".clinit"
            self.self_s[key] += dur - frame[2]
            self.calls[key] += 1
            if self._stack:
                self._stack[-1][2] += dur

    def _patch(self, owner, attr, name, after=None):
        """Wrap owner.attr in a span called ``name`` (None: no span)."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if name is None:
                result = orig(*args, **kwargs)
            else:
                result = self.span(name, orig, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _gc(self, phase, info):
        """Collector time and full collections inside the romize call."""
        if phase == "start":
            if self._stack and self._stack[0][0] == "cli":
                self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.self_s["gc"] += self.clock() - self._gc_start
            self.counts["gc.full"] += info["generation"] == 2
            self._gc_start = None

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        tracer = self
        gc.callbacks.append(self._gc)

        def parsed(_, data):
            tracer.counts["classfile.bytes"] += len(data)

        def keep(key):
            def store(result, *_):
                tracer.captured[key] = result
            return store

        self._patch(cf, "parse_class", "classfile.parse", parsed)
        for fn in ("build_pool", "prelink_pass1", "prelink_pass2"):
            self._patch(cp, fn, "constpool.prelink")
        self._patch(cp, "pack", "constpool.pack")
        self._patch(lc.Loader, "ensure_loaded", "lifecycle.load")
        self._patch(lc, "make_ready", READY)
        self._patch(lk, "link", "linker.link")
        self._patch(pl.Pipeline, "ready_all", None, keep("ready_failures"))
        self._patch(pl.Pipeline, "link_all", None, keep("link_failures"))
        self._patch(pl.Pipeline, "verify_all", "verify.verify",
                    keep("verify_outcome"))
        self._patch(vf, "world_digest", "verify.digest")
        self._patch(rz, "emit_image", "romizer.emit")
        self._patch(pl.Pipeline, "build_report", "romizer.report")
        self._patch(rz.FootprintReport, "to_table", "romizer.report")
        self._patch(rz, "load_image", "romizer.load_image")

        # fuel used per Machine gives the instruction count without the
        # per-instruction trace callback; only the open Machine is held
        machine_cls, world_cls = vf.Machine, vf.World
        machines = []

        class CountingMachine(machine_cls):
            def __init__(self, world, fuel):
                super().__init__(world, fuel)
                machines.append((self, fuel))

        class TimedWorld(world_cls):
            def __init__(self, *args, **kwargs):
                tracer.span("verify.world", super().__init__, *args, **kwargs)

        orig_execute = vf.execute

        def execute(*args, **kwargs):
            depth = len(machines)
            outcome = None
            try:
                outcome = tracer.span("verify.exec", orig_execute,
                                      *args, **kwargs)
                return outcome
            finally:
                suffix = ".clinit" if tracer.in_ready() else ""
                while len(machines) > depth:
                    machine, fuel = machines.pop()
                    tracer.counts["verify.instructions" + suffix] += \
                        fuel - machine.fuel
                if outcome is not None and outcome.kind == "fuel":
                    tracer.counts["verify.fuel_outs"] += 1

        for owner, attr, new in ((vf, "Machine", CountingMachine),
                                 (vf, "World", TimedWorld),
                                 (vf, "execute", execute)):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self):
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
