"""``point``: single-entry reads and updates on one identity-coded map.

A map of 10^5 entries (identity codec, B=128, keys dense in an 8x range)
receives finds (about half of them hits), next_entry and rank probes,
~100-entry key_range reads, and single inserts and removes.  Each update
makes a new version that replaces the current one; the last few versions
stay alive as snapshots, so updates really share structure with live
trees.  Inserts are half new keys and half overwrites, and removes match
new-key inserts, so the map keeps its size for the whole run.

Codec decode and the leaf/join path of point updates dominate here; the
bulk merge code is not reached.
"""

import random
from bisect import bisect_left, bisect_right, insort
from collections import deque

from gen import KEY_SPACE_FACTOR, VALUE_BITS, pairs
from harness import READ, WRITE

N = 100_000
BLOCK = 128
RANGE_SPAN = 800          # ~100 entries at the map's key density
SNAPSHOTS = 4

# One round: the find/next/rank cluster is 16 of 18 reads and inserts are
# 8 of 12 writes, so each class median sits inside one cluster.
ROUND = {"find": 12, "next_entry": 2, "rank": 2, "key_range": 2,
         "insert_new": 4, "insert_update": 4, "remove": 4}


class Point:
    name = "point"
    kinds = {"find": READ, "next_entry": READ, "rank": READ,
             "key_range": READ, "insert_new": WRITE,
             "insert_update": WRITE, "remove": WRITE}
    entry = {"find": "ordmap.find", "next_entry": "ordmap.next_entry",
             "rank": "ordmap.rank", "key_range": "ordmap.key_range",
             "insert_new": "ordmap.insert", "insert_update": "ordmap.insert",
             "remove": "ordmap.remove"}
    owns_all_nodes = True

    def __init__(self, bt, seed):
        self.bt = bt
        self.om = bt.ordmap
        self.ctx = bt.make_context(block_size=BLOCK, encoding="identity")
        rng = random.Random(seed)
        self.key_space = KEY_SPACE_FACTOR * N
        self.pairs = pairs(rng, N, self.key_space)

    # -- set-up -----------------------------------------------------------

    def build(self):
        return self.om.build(self.ctx, self.pairs)

    def discard(self, tree):
        self.bt.release(tree)

    def start(self, tree):
        self.cur = tree
        # (version, probe key, value that version must hold for the key)
        self.ring = deque([(tree, None, None)])
        self.oracle = dict(self.pairs)
        self.keys = sorted(self.oracle)
        self.problems = []

    def contexts(self):
        return {"ctx": self.ctx}

    def use_contexts(self, ctxs):
        self.ctx = ctxs["ctx"]

    # -- the stream -------------------------------------------------------

    def plan_round(self, rng):
        keys, oracle, space = self.keys, self.oracle, self.key_space
        ops = []
        for _ in range(ROUND["find"]):
            k = keys[rng.randrange(len(keys))] if rng.random() < 0.5 \
                else rng.randrange(space)
            ops.append(("find", k))
        for kind in ("next_entry", "rank"):
            ops += [(kind, rng.randrange(space)) for _ in range(ROUND[kind])]
        for _ in range(ROUND["key_range"]):
            lo = rng.randrange(space)
            ops.append(("key_range", (lo, lo + RANGE_SPAN)))
        taken = set()
        for _ in range(ROUND["insert_new"]):
            k = rng.randrange(space)
            while k in oracle or k in taken:
                k = rng.randrange(space)
            taken.add(k)
            ops.append(("insert_new", (k, rng.getrandbits(VALUE_BITS))))
        for kind in ("insert_update", "remove"):
            for _ in range(ROUND[kind]):
                k = keys[rng.randrange(len(keys))]
                while k in taken:
                    k = keys[rng.randrange(len(keys))]
                taken.add(k)
                ops.append((kind, (k, rng.getrandbits(VALUE_BITS))))
        rng.shuffle(ops)
        return ops

    def call(self, kind, a):
        om, ctx, t = self.om, self.ctx, self.cur
        if kind == "find":
            return om.find(ctx, t, a)
        if kind == "next_entry":
            return om.next_entry(ctx, t, a)
        if kind == "rank":
            return om.rank(ctx, t, a)
        if kind == "key_range":
            return om.key_range(ctx, t, a[0], a[1])
        if kind == "remove":
            return om.remove(ctx, t, a[0])
        return om.insert(ctx, t, a[0], a[1])

    def check(self, kind, a, res):
        oracle, keys = self.oracle, self.keys
        if kind == "find":
            want = oracle.get(a)
            return None if res == want else f"find({a}) = {res}, want {want}"
        if kind == "next_entry":
            i = bisect_right(keys, a)
            want = (keys[i], oracle[keys[i]]) if i < len(keys) else None
            return None if res == want else f"next_entry({a}) = {res}, want {want}"
        if kind == "rank":
            want = bisect_left(keys, a)
            return None if res == want else f"rank({a}) = {res}, want {want}"
        if kind == "key_range":
            lo, hi = a
            want = [(k, oracle[k]) for k in
                    keys[bisect_left(keys, lo):bisect_right(keys, hi)]]
            got = self.bt.to_list(self.ctx, res)
            return None if got == want else f"key_range{a}: {len(got)} entries, want {len(want)}"
        k, v = a
        old = oracle.get(k)
        if kind == "remove":
            if old is not None:
                del oracle[k]
                del keys[bisect_left(keys, k)]
        else:
            if old is None:
                insort(keys, k)
            oracle[k] = v
        self._new_version(res, k, old)
        got = self.om.find(self.ctx, res, k)
        if got != oracle.get(k) or self.bt.tree_size(res) != len(oracle):
            return f"{kind}({k}): version holds {got}, size {self.bt.tree_size(res)}"
        return None

    def _new_version(self, tree, key, old_value):
        # The version being replaced must keep the key's old value.
        prev = self.ring.pop()[0]
        self.ring.append((prev, key, old_value))
        self.ring.append((tree, None, None))
        self.cur = tree
        if len(self.ring) > SNAPSHOTS:
            self._drop_snapshot()

    def _drop_snapshot(self):
        tree, k, v = self.ring.popleft()
        got = self.om.find(self.ctx, tree, k)
        self.bt.release(tree)
        if got != v:
            self.problems.append(f"snapshot lost key {k}: holds {got}, want {v}")

    def retire(self, kind, res):
        if kind == "key_range":
            self.bt.release(res)

    def entries(self, kind, a):
        return 1

    def fingerprint(self, kind, res):
        if kind == "key_range" or self.kinds[kind] == WRITE:
            return hash(self.bt.inspect.structure_digest(self.ctx, res))
        return res

    # -- after the stream -------------------------------------------------

    def probe_trees(self):
        """(context, tree) pairs the space metrics are read from."""
        return [(self.ctx, self.cur)], self.bt.tree_size(self.cur)

    def digest(self):
        return hash(self.bt.inspect.structure_digest(self.ctx, self.cur))

    def finish(self):
        """Final checks; releases every handle.  Returns the problems."""
        bt = self.bt
        try:
            bt.check_tree(self.ctx, self.cur)
        except bt.InvariantViolation as exc:
            self.problems.append(f"final tree: {exc}")
        if bt.to_list(self.ctx, self.cur) != sorted(self.oracle.items()):
            self.problems.append("final tree differs from the oracle")
        while len(self.ring) > 1:
            self._drop_snapshot()
        bt.release(self.ring.pop()[0])
        return self.problems
