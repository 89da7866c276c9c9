"""Instrumentation counters.

A single process-wide tally of structural events, read by the test suite and
the benchmark harness:

  allocations  fresh node objects created (regular or flat)
  reclaims     nodes whose owner count dropped to zero and were reclaimed
  live         currently live node count (gauge)
  unfolds      conversions of a flat node into expanded regular-node form;
               only the public ``unfold`` makes them
  folds        flat-node constructions
  decodes      block reads by ``core._columns``, ``core._values`` and
               ``core._edit_keys``, one per block: a value column read in
               place through a codec ``view`` (``_values``) counts too,
               but a point read or a block edit through a ``view`` does
               not
  reused       always 0: node shells are never recycled, every node is a
               fresh allocation.  Kept so that counter snapshots keep their
               keys for the readers that compare them (the benchmark
               reports it as ``nodes.reused_per_op``).

Counts are exact for single-threaded operation.  When an internal worker pool
is active, instrumentation increments may lose the occasional update (they are
plain integer bumps); owner counts themselves are always updated under a lock
in that case, so reclamation stays exact.
"""


class Counters:
    __slots__ = ("allocations", "reclaims", "live", "unfolds", "folds",
                 "decodes", "reused")

    def __init__(self):
        self.reset()

    def reset(self):
        self.allocations = 0
        self.reclaims = 0
        self.live = 0
        self.unfolds = 0
        self.folds = 0
        self.decodes = 0
        self.reused = 0

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"Counters({inner})"


counters = Counters()


def reset_counters():
    counters.reset()
