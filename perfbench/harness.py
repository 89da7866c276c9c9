"""Closed-loop client, statistics and plain-Python reference gauges.

One client sends operations one at a time and waits for each result (a
closed loop).  Operations come in rounds: a round is a fixed multiset of
operation kinds in a seeded, shuffled order, and the loop only stops at a
round boundary.  So every run holds the same mix of kinds, and a median
over a class of kinds always falls at the same rank of that mix.

Only the library call is timed.  Generating a round, checking a result
against the oracle and the reference gauges all run outside the timed
region.

A shared 2-core host (Python 3.11.7) switched between a fast and a slow
state every few seconds (find medians of 100 against 190 us, second by
second).  A plain-Python loop shaped like the library's hot path (slice a
bytes buffer, ``int.from_bytes``, build tuples) slows in step: find's time
over the loop's stayed within 2.52-2.67 in both states, where a sorted
merge of ints ranged 1.6-2.2.  So that loop, the decode-loop gauge, runs
right before every library call (a burst of them after a long call), and
each call's time is scaled to a machine on which the loop takes
``NOMINAL_PROBE_NS``, from the loops run on either side of the call.  The
end-to-end timings are adjusted this way; the raw timings are kept beside
them.
"""

import gc
import random
import resource
import statistics
import time
from bisect import bisect_left, insort

READ, WRITE = "read", "write"
REF_KINDS = ("ref.dict_find", "ref.bisect_insort", "ref.sorted_merge",
             "ref.decode_loop")
PROBE = "ref.decode_loop"

# The other gauges per round: cheap enough to interleave with every round,
# frequent enough that each run has a few dozen samples.
REF_PER_ROUND = {"ref.dict_find": 2, "ref.bisect_insort": 2,
                 "ref.sorted_merge": 1}
# A call's speed comes from the SPEED_SIDE probes just before it and the
# SPEED_SIDE just after: close to it, yet enough to smooth the gauge's own
# jitter.  A long call may straddle a change of phase; taking the mean of
# the two sides then errs by at most half the jump.
SPEED_SIDE = 5
# One probe runs before each call and L / BURST_PER_NS (at most MAX_BURST)
# right after a call of L ns, so a long call has probes close on both sides.
BURST_PER_NS = 10_000_000
MAX_BURST = 9
NOMINAL_PROBE_NS = 100_000
PROBE_ENTRIES = 160
MERGE_RUN = 2000


def p50(xs):
    return statistics.median(xs) if xs else 0.0


def pct(xs, q):
    """Nearest-rank percentile; None unless ten samples lie beyond it."""
    n = len(xs)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    ys = sorted(xs)
    return ys[min(n - 1, int(q * n))]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RefGauges:
    """Fixed plain-Python work timed between the library's operations.

    They share the interpreter and the machine with the library but not its
    code, so a slow phase of the machine shows in them too.
    """

    def __init__(self, seed):
        rng = random.Random(seed)
        keys = rng.sample(range(800_000), 100_000)
        self.table = {k: k for k in keys}
        self.probes = [rng.randrange(800_000) for _ in range(256)]
        self.sorted = sorted(keys)
        self.fresh = [rng.randrange(800_000) for _ in range(32)]
        self.left = sorted(rng.sample(range(1_000_000), MERGE_RUN))
        self.right = sorted(rng.sample(range(1_000_000), MERGE_RUN))
        self.buf = b"".join(rng.getrandbits(64).to_bytes(8, "little")
                            for _ in range(2 * PROBE_ENTRIES))
        self.samples = {k: [] for k in REF_KINDS}
        self.probe_t = []       # when each probe ran
        self.probe_ns = []      # how long it took

    def burst(self, n):
        for _ in range(n):
            self.run(PROBE)

    def speed(self, t0, t1):
        """Factor that scales a time measured over [t0, t1] to the nominal
        machine: from the probes run on either side of that interval."""
        ts, ns = self.probe_t, self.probe_ns
        i, j = bisect_left(ts, t0), bisect_left(ts, t1)
        sides = [statistics.median(side) for side in
                 (ns[max(0, i - SPEED_SIDE):i], ns[j:j + SPEED_SIDE]) if side]
        return NOMINAL_PROBE_NS / statistics.fmean(sides)

    def run(self, kind):
        clock = time.perf_counter_ns
        if kind == "ref.dict_find":
            table = self.table
            t0 = clock()
            for k in self.probes:
                table.get(k)
            self.samples[kind].append((clock() - t0) / 1e3 / len(self.probes))
        elif kind == "ref.bisect_insort":
            lst = self.sorted
            t0 = clock()
            for k in self.fresh:
                insort(lst, k)
            dt = clock() - t0
            for k in self.fresh:
                del lst[bisect_left(lst, k)]
            self.samples[kind].append(dt / 1e3 / len(self.fresh))
        elif kind == "ref.sorted_merge":
            a, b = self.left, self.right
            t0 = clock()
            out = []
            i = j = 0
            na, nb = len(a), len(b)
            while i < na and j < nb:
                if a[i] <= b[j]:
                    out.append(a[i]); i += 1
                else:
                    out.append(b[j]); j += 1
            out.extend(a[i:])
            out.extend(b[j:])
            self.samples[kind].append((clock() - t0) / 1e6)
        else:
            buf = self.buf
            t0 = clock()
            out = []
            for p in range(0, len(buf), 16):
                out.append((int.from_bytes(buf[p:p + 8], "little"),
                            int.from_bytes(buf[p + 8:p + 16], "little")))
            t1 = clock()
            self.probe_t.append(t1)
            self.probe_ns.append(t1 - t0)
            self.samples[kind].append((t1 - t0) / 1e3)

    def metrics(self):
        s = self.samples
        return {"ref.dict_find_us_p50": (p50(s["ref.dict_find"]), "us"),
                "ref.bisect_insort_us_p50": (p50(s["ref.bisect_insort"]), "us"),
                "ref.sorted_merge_ms_p50": (p50(s["ref.sorted_merge"]), "ms"),
                "ref.decode_loop_us_p50": (p50(s["ref.decode_loop"]), "us")}


class GcClock:
    """Time the cyclic collector spends, through gc.callbacks."""

    def __init__(self):
        self.ns = 0
        self._t0 = None

    def _cb(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        elif self._t0 is not None:
            self.ns += time.perf_counter_ns() - self._t0
            self._t0 = None

    def __enter__(self):
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._cb)


class Stream:
    """Runs rounds of a workload and keeps every sample.

    ``count_nodes`` records the library's counter deltas around each call
    (the traced run needs them; the untraced run skips the cost).
    ``fingerprints`` keeps a cheap fingerprint of every result, so two
    passes over the same plan can be compared op by op.
    """

    def __init__(self, wl, counters, seed, ref, count_nodes=False,
                 fingerprints=False, tracer=None, log=None):
        self.wl = wl
        self.counters = counters
        self.rng = random.Random(seed)
        self.ref = ref
        self.count_nodes = count_nodes
        self.tracer = tracer
        self.log = log
        self.samples = {k: [] for k in wl.kinds}       # raw ns
        self.adjusted = {k: [] for k in wl.kinds}      # ns at nominal speed
        self.rounds = []    # adjusted (ops, op_ns, write_entries, write_ns)
        self.calls = []     # (kind, t0, t1, entries, round) of recorded calls
        self.node_deltas = dict.fromkeys(counters.snapshot(), 0)
        self.prints = [] if fingerprints else None
        self.attempted = 0
        self.failed = 0
        self.op_ns = 0

    def plan(self):
        ops = self.wl.plan_round(self.rng)
        for kind, n in REF_PER_ROUND.items():
            for _ in range(n):
                ops.insert(self.rng.randrange(len(ops) + 1), (kind, None))
        return ops

    def run_round(self, record=True):
        wl, clock, counters = self.wl, time.perf_counter_ns, self.counters
        tracer = self.tracer
        for kind, args in self.plan():
            if kind in REF_KINDS:
                self.ref.run(kind)
                continue
            self.attempted += 1
            self.ref.burst(1)
            before = counters.snapshot() if self.count_nodes else None
            if tracer is not None:
                tracer.begin(kind)
            t0 = clock()
            try:
                result = wl.call(kind, args)
            except Exception as exc:  # a failed op is counted, not fatal
                if tracer is not None:
                    tracer.end()
                self._fail(kind, f"raised {type(exc).__name__}: {exc}")
                continue
            dt = clock() - t0
            if tracer is not None:
                tracer.end()
            self.ref.burst(min(MAX_BURST, dt // BURST_PER_NS))
            if before is not None:
                after = counters.snapshot()
                for k, v in after.items():
                    self.node_deltas[k] += v - before[k]
            problem = wl.check(kind, args, result)
            if problem:
                self._fail(kind, problem)
            if self.prints is not None:
                self.prints.append((kind, wl.fingerprint(kind, result)))
            wl.retire(kind, result)
            self.op_ns += dt
            if record:
                entries = wl.entries(kind, args) if wl.kinds[kind] == WRITE else 0
                self.calls.append((kind, t0, t0 + dt, entries, len(self.rounds)))
        if record:
            self.rounds.append(None)

    def finish(self):
        """Adjust every recorded call for machine speed."""
        per_round = [[0, 0, 0, 0] for _ in self.rounds]
        for kind, t0, t1, entries, r in self.calls:
            dt = t1 - t0
            adj = dt * self.ref.speed(t0, t1)
            self.samples[kind].append(dt)
            self.adjusted[kind].append(adj)
            agg = per_round[r]
            agg[0] += 1
            agg[1] += adj
            if entries:
                agg[2] += entries
                agg[3] += adj
        self.rounds = [tuple(a) for a in per_round]

    def _fail(self, kind, why):
        self.failed += 1
        if self.log is not None and self.failed <= 5:
            self.log(f"{self.wl.name}: {kind} failed: {why}")

    def class_samples(self, cls):
        return [x for k, xs in self.adjusted.items()
                if self.wl.kinds[k] == cls for x in xs]

    def end_to_end(self):
        """Speed-adjusted metrics from the recorded rounds."""
        reads = self.class_samples(READ)
        writes = self.class_samples(WRITE)
        ops_rate = [ops / (ns / 1e9) for ops, ns, _, _ in self.rounds if ns]
        w_rate = [e / (ns / 1e9) for _, _, e, ns in self.rounds if ns]
        return {"ops_per_s": (p50(ops_rate), "1/s"),
                "read_us_p50": (p50(reads) / 1e3, "us"),
                "write_us_p50": (p50(writes) / 1e3, "us"),
                "entries_per_s": (p50(w_rate), "1/s")}

    def per_kind(self):
        """{kind: (samples, raw p50 us, raw p99 us or None, adjusted p50 us)}."""
        out = {}
        for kind, xs in self.samples.items():
            if xs:
                p99 = pct(xs, 0.99)
                out[kind] = (len(xs), p50(xs) / 1e3,
                             None if p99 is None else p99 / 1e3,
                             p50(self.adjusted[kind]) / 1e3)
        return out
