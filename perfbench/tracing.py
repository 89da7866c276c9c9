"""Layer tracing from outside the library.

Nothing in ``src/`` is changed.  The traced run reaches each layer through
what that layer already exposes:

* the codec: a subclass of the context's own codec class, put in with
  ``dataclasses.replace(ctx, codec=...)``, so ``isinstance`` checks and the
  class attributes (``caches_bounds``, ``NOMINAL_ENTRY_BYTES``) still hold;
* augmentation: the context's ``AugSpec`` with counting ``lift`` and
  ``combine``;
* module boundaries: each module's names for the functions it imports from
  the modules below it are swapped for span-recording wrappers while the
  traced pass runs, and restored after.  Only the importing module's name
  is swapped, so a lower module's own recursion stays unwrapped and each
  span marks one call across a boundary;
* ``fork2``: call counts only, since its span would also cover the
  recursion it runs.

A span is (name, start, end, parent, bytes), kept in memory and written
out when the run ends.  Spans are only taken inside a timed library call,
so the oracle's own reads of the trees never show up.
"""

import dataclasses
import inspect as pyinspect
import time
import types
from collections import Counter

# module -> the modules below it whose functions it calls
LOWER = {"ordmap": ("core",),
         "sequence": ("core", "ordmap"),
         "augment": ("core", "ordmap"),
         "graphstore": ("core", "ordmap", "augment")}
FORK2_USERS = ("core", "ordmap", "sequence")


class Tracer:
    def __init__(self, entry):
        self.entry = entry            # op kind -> name of the layer call
        self.active = False
        self.spans = []
        self.stack = []
        self.counts = Counter()

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0, nbytes=0):
        t1 = time.perf_counter_ns()
        self.stack.pop()
        self.spans[idx] = (name, t0, t1, parent, nbytes)

    def begin(self, kind):
        """Open the root span of one timed library call."""
        self.active = True
        name = self.entry[kind]
        idx, parent = self._open(name)
        self._root = (idx, parent, name, time.perf_counter_ns())

    def end(self):
        self._close(*self._root)
        self.active = False

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx, parent = self._open(name)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0)
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- contexts ---------------------------------------------------------

    def codec(self, codec):
        """An instance of a subclass of codec's class, with spans."""
        tracer = self
        base = type(codec)

        def payload_bytes(self, payload, count):
            if isinstance(payload, (bytes, bytearray)):
                return len(payload)
            return self.NOMINAL_ENTRY_BYTES * count

        def encode(self, entries):
            if not tracer.active:
                return base.encode(self, entries)
            idx, parent = tracer._open("encoding.encode")
            t0 = time.perf_counter_ns()
            payload = b""
            try:
                payload = base.encode(self, entries)
                return payload
            finally:
                tracer._close(idx, parent, "encoding.encode", t0,
                              payload_bytes(self, payload, len(entries)))

        def decode(self, payload, count):
            if not tracer.active:
                return base.decode(self, payload, count)
            idx, parent = tracer._open("encoding.decode")
            t0 = time.perf_counter_ns()
            try:
                return base.decode(self, payload, count)
            finally:
                tracer._close(idx, parent, "encoding.decode", t0,
                              payload_bytes(self, payload, count))

        cls = type("Traced" + base.__name__, (base,),
                   {"encode": encode, "decode": decode})
        traced = object.__new__(cls)
        traced.__dict__.update(vars(codec))
        return traced

    def context(self, ctx):
        aug = ctx.aug
        if aug is not None:
            aug = dataclasses.replace(
                aug, lift=self.counter("augment.lift", aug.lift),
                combine=self.counter("augment.combine", aug.combine))
        return dataclasses.replace(ctx, codec=self.codec(ctx.codec), aug=aug)

    # -- module boundaries ------------------------------------------------

    def patch(self, bt):
        """Wrap the boundary imports; returns a function that undoes it."""
        undo = []

        def swap(mod, name, new):
            undo.append((mod, name, getattr(mod, name)))
            setattr(mod, name, new)

        for modname, lower in LOWER.items():
            mod = getattr(bt, modname)
            lower_full = {f"{bt.__name__}.{m}": m for m in lower}
            for name, obj in list(vars(mod).items()):
                if (pyinspect.isfunction(obj)
                        and obj.__module__ in lower_full
                        and not pyinspect.isgeneratorfunction(obj)):
                    short = lower_full[obj.__module__]
                    swap(mod, name, self.span(f"{short}.{name}", obj))
            # a module reached as an attribute gets a wrapped stand-in
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.ModuleType)
                        and obj.__name__ in lower_full):
                    swap(mod, name, self._module_proxy(obj, lower_full[obj.__name__]))
        for modname in FORK2_USERS:
            mod = getattr(bt, modname)
            if hasattr(mod, "fork2"):
                swap(mod, "fork2", self.counter("parallel.fork2", mod.fork2))

        def restore():
            for mod, name, old in reversed(undo):
                setattr(mod, name, old)
        return restore

    def _module_proxy(self, mod, short):
        proxy = types.ModuleType(mod.__name__)
        for name, obj in vars(mod).items():
            if (pyinspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not pyinspect.isgeneratorfunction(obj)):
                obj = self.span(f"{short}.{name}", obj)
            setattr(proxy, name, obj)
        return proxy

    # -- output -----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("idx\tname\tstart_ns\tend_ns\tparent\tbytes\n")
            for i, (name, t0, t1, parent, nb) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\t{nb}\n")


def summarize(spans):
    """Per span name: calls, self ns and bytes; and per span the index of
    its root, so work can be charged to the call that caused it."""
    n = len(spans)
    child = [0] * n
    root = [0] * n
    for i, (name, t0, t1, parent, nb) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            root[i] = root[parent]
        else:
            root[i] = i
    calls, self_ns, nbytes = Counter(), Counter(), Counter()
    for i, (name, t0, t1, parent, nb) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += t1 - t0 - child[i]
        nbytes[name] += nb
    return calls, self_ns, nbytes, root
