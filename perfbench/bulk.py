"""``bulk``: set algebra, batch updates and traversals on whole trees.

A delta-coded map A of 10^5 entries (B=128) meets smaller operands of
~10^4 entries: maps for union, union_efficient, intersection and
difference, batches for multi_insert and multi_delete.  A itself goes
through filter, map_values and reduce.  A 10^5-element object-codec
sequence goes through append, subseq, seq_map and seq_reduce.

Every operation starts from the same A and the same sequence, so the run
is stationary: op costs do not drift with how many rounds a machine
manages.  The second operand of each op is drawn from a small pool, which
lets an exact result be checked once against the oracle and later results
be compared with it by structure digest.

Split/join/rebuild, block encode and the flatten-merge base case dominate
here; the point-search path is not reached.
"""

import random

from gen import KEY_SPACE_FACTOR, pairs
from harness import READ, WRITE

N = 100_000
M = 10_000
BLOCK = 128
POOL = 2
PIECE = 2_000
SUBSEQ = 10_000

# Batch updates run twice per round, so the write median falls among the
# batch updates and map_values (ranks 4-8 of 13 by cost), not in a gap.
WRITES = ("union", "union_efficient", "intersection", "difference",
          "multi_insert", "multi_insert", "multi_delete", "multi_delete",
          "filter", "map_values", "append", "subseq", "seq_map")
# reduce is 3 of 4 reads, so the read median sits inside one cluster.
READS = ("reduce", "reduce", "reduce", "seq_reduce")


def _plus(a, b):
    return a + b


def _flip(v):
    return v ^ 1


def _affine(x):
    return 3 * x + 1


def _even_key(e):
    return e[0] % 2 == 0


class Bulk:
    name = "bulk"
    kinds = dict([(k, WRITE) for k in WRITES] + [(k, READ) for k in READS])
    entry = {"union": "ordmap.union",
             "union_efficient": "ordmap.union_efficient",
             "intersection": "ordmap.intersection",
             "difference": "ordmap.difference",
             "multi_insert": "ordmap.multi_insert",
             "multi_delete": "ordmap.multi_delete",
             "filter": "ordmap.filter", "map_values": "ordmap.map_values",
             "reduce": "ordmap.reduce", "append": "sequence.append",
             "subseq": "sequence.subseq", "seq_map": "sequence.seq_map",
             "seq_reduce": "sequence.seq_reduce"}
    owns_all_nodes = True

    def __init__(self, bt, seed):
        self.bt = bt
        self.ctx = bt.make_context(block_size=BLOCK, encoding="delta")
        self.sctx = bt.sequence.seq_context(block_size=BLOCK)
        rng = random.Random(seed)
        space = KEY_SPACE_FACTOR * N
        self.a_pairs = pairs(rng, N, space)
        self.b_pairs = [pairs(rng, M, space) for _ in range(POOL)]
        self.batches = [pairs(rng, M, space) for _ in range(POOL)]
        a_keys = [k for k, _ in self.a_pairs]
        # half the deleted keys are present in A, half are not
        self.del_keys = [rng.sample(a_keys, M // 2) +
                         [rng.randrange(space) for _ in range(M // 2)]
                         for _ in range(POOL)]
        self.elements = [rng.getrandbits(32) for _ in range(N)]
        self.pieces = [[rng.getrandbits(32) for _ in range(PIECE)]
                       for _ in range(POOL)]
        self.spans = []
        for _ in range(POOL):
            i = rng.randrange(N - SUBSEQ)
            self.spans.append((i, i + SUBSEQ))

    # -- set-up -----------------------------------------------------------

    def build(self):
        om, sq = self.bt.ordmap, self.bt.sequence
        return {"A": om.build(self.ctx, self.a_pairs),
                "B": [om.build(self.ctx, p) for p in self.b_pairs],
                "S": sq.seq_build(self.sctx, self.elements),
                "P": [sq.seq_build(self.sctx, p) for p in self.pieces]}

    def _handles(self, st):
        return [st["A"], st["S"]] + st["B"] + st["P"]

    def discard(self, st):
        for t in self._handles(st):
            self.bt.release(t)

    def start(self, st):
        self.st = st
        self.expected = {}        # (kind, j) -> verified digest or value
        self.problems = []
        self.probes = []

    def contexts(self):
        return {"ctx": self.ctx, "sctx": self.sctx}

    def use_contexts(self, ctxs):
        self.ctx, self.sctx = ctxs["ctx"], ctxs["sctx"]

    # -- the stream -------------------------------------------------------

    def plan_round(self, rng):
        ops = [(k, rng.randrange(POOL)) for k in WRITES + READS]
        rng.shuffle(ops)
        return ops

    def call(self, kind, j):
        om, sq, ctx, sctx, st = (self.bt.ordmap, self.bt.sequence, self.ctx,
                                 self.sctx, self.st)
        A, S = st["A"], st["S"]
        if kind in ("union", "union_efficient", "intersection", "difference"):
            return getattr(om, kind)(ctx, A, st["B"][j])
        if kind == "multi_insert":
            return om.multi_insert(ctx, A, self.batches[j])
        if kind == "multi_delete":
            return om.multi_delete(ctx, A, self.del_keys[j])
        if kind == "filter":
            return om.filter(ctx, A, _even_key)
        if kind == "map_values":
            return om.map_values(ctx, A, _flip)
        if kind == "reduce":
            return om.reduce(ctx, A, _plus, 0)
        if kind == "append":
            return sq.append(sctx, S, st["P"][j])
        if kind == "subseq":
            return sq.subseq(sctx, S, *self.spans[j])
        if kind == "seq_map":
            return sq.seq_map(sctx, S, _affine)
        return sq.seq_reduce(sctx, S, _plus, 0)

    def _want(self, kind, j):
        """The oracle's answer, from plain Python dicts, sets and lists."""
        a = dict(self.a_pairs)
        if kind in ("union", "union_efficient"):
            a.update(self.b_pairs[j])
            return sorted(a.items())
        if kind == "intersection":
            b = dict(self.b_pairs[j])
            return sorted((k, b[k]) for k in a.keys() & b.keys())
        if kind == "difference":
            b = dict(self.b_pairs[j])
            return sorted((k, a[k]) for k in a.keys() - b.keys())
        if kind == "multi_insert":
            a.update(self.batches[j])
            return sorted(a.items())
        if kind == "multi_delete":
            gone = set(self.del_keys[j])
            return sorted((k, v) for k, v in a.items() if k not in gone)
        if kind == "filter":
            return sorted((k, v) for k, v in a.items() if _even_key((k, v)))
        if kind == "map_values":
            return sorted((k, _flip(v)) for k, v in a.items())
        if kind == "reduce":
            return sum(a.values())
        if kind == "append":
            return self.elements + self.pieces[j]
        if kind == "subseq":
            i, k = self.spans[j]
            return self.elements[i:k]
        if kind == "seq_map":
            return [_affine(x) for x in self.elements]
        return sum(self.elements)

    def _seq_op(self, kind):
        return self.entry[kind].startswith("sequence.")

    def check(self, kind, j, res):
        if self.kinds[kind] == READ:
            want = self.expected.get((kind, j))
            if want is None:
                want = self.expected[(kind, j)] = self._want(kind, j)
            return None if res == want else f"{kind}[{j}] = {res}, want {want}"
        bt = self.bt
        ctx = self.sctx if self._seq_op(kind) else self.ctx
        digest = hash(bt.inspect.structure_digest(ctx, res))
        seen = self.expected.get((kind, j))
        if seen is not None:
            return None if digest == seen else f"{kind}[{j}]: result differs from the verified one"
        # First result of this (kind, operand): check it in full.
        if self._seq_op(kind):
            got = bt.sequence.to_elements(ctx, res)
        else:
            got = bt.to_list(ctx, res)
        if got != self._want(kind, j):
            return f"{kind}[{j}]: result differs from the oracle"
        try:
            bt.check_tree(ctx, res)
        except bt.InvariantViolation as exc:
            return f"{kind}[{j}]: {exc}"
        self.expected[(kind, j)] = digest
        return None

    def retire(self, kind, res):
        if self.kinds[kind] == WRITE:
            self.bt.release(res)

    def entries(self, kind, j):
        if kind in ("filter", "map_values"):
            return N
        if kind == "seq_map":
            return N
        if kind == "append":
            return PIECE
        if kind == "subseq":
            return SUBSEQ
        return M

    def fingerprint(self, kind, res):
        if self.kinds[kind] == READ:
            return res
        ctx = self.sctx if self._seq_op(kind) else self.ctx
        return hash(self.bt.inspect.structure_digest(ctx, res))

    # -- after the stream -------------------------------------------------

    def probe_trees(self):
        """Space is read from fixed results: a union, a multi_insert and an
        append, which all go through the join and node rules."""
        om, sq, st = self.bt.ordmap, self.bt.sequence, self.st
        self.probes = [
            (self.ctx, om.union(self.ctx, st["A"], st["B"][0])),
            (self.ctx, om.multi_insert(self.ctx, st["A"], self.batches[0])),
            (self.sctx, sq.append(self.sctx, st["S"], st["P"][0]))]
        return self.probes, sum(self.bt.tree_size(t) for _, t in self.probes)

    def digest(self):
        return hash(tuple(v for _, v in sorted(self.expected.items())))

    def finish(self):
        """Final checks; releases every handle.  Returns the problems."""
        bt = self.bt
        for ctx, t in [(self.ctx, self.st["A"]), (self.sctx, self.st["S"])]:
            try:
                bt.check_tree(ctx, t)
            except bt.InvariantViolation as exc:
                self.problems.append(f"input tree: {exc}")
        if bt.to_list(self.ctx, self.st["A"]) != sorted(self.a_pairs):
            self.problems.append("map A changed under the stream")
        if bt.sequence.to_elements(self.sctx, self.st["S"]) != self.elements:
            self.problems.append("sequence changed under the stream")
        for _, t in self.probes:
            bt.release(t)
        self.discard(self.st)
        return self.problems
