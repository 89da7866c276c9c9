"""``graph``: batch edge updates and traversals on the two-level store.

``graphstore`` with its defaults (B=64; an object-coded vertex tree
augmented with the edge count; delta-coded neighbor sets) holds a seeded
R-MAT graph of 2^15 vertex ids and 2x10^5 edges, about 2x10^4 vertices.
Degrees are skewed, so neighbor sets run from under one block to dozens.
The stream interleaves insert and delete batches of 10, 1000 and 10000
edges (with duplicates and self-loops), BFS from several sources,
``aug_range`` edge counts over vertex-id ranges, and ``degree``.  Each
delete batch removes the edges of an earlier insert batch of the same
round, so the graph grows by only ~1% over a run.

Two-level nested updates run here (an ``ordmap.union`` per touched vertex,
called from the vertex tree's combine), with the object codec,
augmentation and per-batch overhead.
"""

import random
from bisect import bisect_left, bisect_right, insort

from gen import RMat
from harness import READ, WRITE

SCALE = 15
EDGES = 200_000
# batch size -> (insert batches, delete batches) per round; each delete
# batch undoes one insert batch.  Inserts of 10 edges are 24 of 36 writes,
# so the write median sits inside that cluster, not between two.
BATCHES = {10: (24, 8), 1000: (1, 1), 10000: (1, 1)}
AUG_SPAN = 1 << (SCALE - 6)
# degree is 48 of 61 reads, for the same reason
ROUND_READS = {"degree": 48, "aug_range": 12, "bfs": 1}


class Graph:
    name = "graph"
    kinds = dict([(f"insert_b{b}", WRITE) for b in BATCHES] +
                 [(f"delete_b{b}", WRITE) for b in BATCHES] +
                 [(k, READ) for k in ROUND_READS])
    entry = dict([(f"insert_b{b}", "graphstore.insert_edges") for b in BATCHES] +
                 [(f"delete_b{b}", "graphstore.delete_edges") for b in BATCHES] +
                 [("degree", "graphstore.degree"), ("bfs", "graphstore.bfs"),
                  ("aug_range", "augment.aug_range")])
    # Edge trees are values of the vertex tree, and graphstore leaves their
    # lifetime to the garbage collector, not to the owner counts; only the
    # vertex trees are released.
    owns_all_nodes = False

    def __init__(self, bt, seed):
        self.bt = bt
        self.gs = bt.graphstore
        rng = random.Random(seed)
        self.rmat = RMat(rng, SCALE)
        self.edges = self.rmat.edges(rng, EDGES)

    # -- set-up -----------------------------------------------------------

    def build(self):
        return self.gs.from_edge_list(self.edges)

    def discard(self, g):
        self.bt.release(g.vertices)

    def start(self, g):
        self.g = g
        adj = {}
        for s, d in self.edges:
            adj.setdefault(s, set()).add(d)
            adj.setdefault(d, set())
        self.adj = adj
        self.vids = sorted(adj)
        self.total = sum(len(n) for n in adj.values())
        self.problems = []

    def contexts(self):
        return {"vctx": self.g.vctx, "ectx": self.g.ectx}

    def use_contexts(self, ctxs):
        self.g = self.gs.Graph(self.g.vertices, ctxs["vctx"], ctxs["ectx"])

    # -- the stream -------------------------------------------------------

    def plan_round(self, rng):
        ops, pairs = [], []
        for size, (n_ins, n_del) in BATCHES.items():
            for i in range(n_ins):
                ins = (f"insert_b{size}", self.rmat.batch(rng, size))
                ops.append(ins)
                if i < n_del:
                    pairs.append((ins, (f"delete_b{size}", ins[1])))
                    ops.append(pairs[-1][1])
        vids = self.vids
        for _ in range(ROUND_READS["degree"]):
            ops.append(("degree", vids[rng.randrange(len(vids))]))
        for _ in range(ROUND_READS["aug_range"]):
            lo = rng.randrange(1 << SCALE)
            ops.append(("aug_range", (lo, lo + AUG_SPAN)))
        for _ in range(ROUND_READS["bfs"]):
            src = vids[rng.randrange(len(vids))]
            while not self.adj[src]:
                src = vids[rng.randrange(len(vids))]
            ops.append(("bfs", src))
        rng.shuffle(ops)
        # a delete batch runs after the insert batch it undoes
        pos = {id(op): i for i, op in enumerate(ops)}
        for ins, dele in pairs:
            i, j = pos[id(ins)], pos[id(dele)]
            if j < i:
                ops[i], ops[j] = dele, ins
        return ops

    def call(self, kind, a):
        gs, g = self.gs, self.g
        if kind == "degree":
            return gs.degree(g, a)
        if kind == "aug_range":
            return self.bt.aug_range(g.vctx, g.vertices, a[0], a[1])
        if kind == "bfs":
            return gs.bfs(g, a)
        if kind.startswith("insert"):
            return gs.insert_edges(g, a)
        return gs.delete_edges(g, a)

    def check(self, kind, a, res):
        adj = self.adj
        if kind == "degree":
            want = len(adj[a])
            return None if res == want else f"degree({a}) = {res}, want {want}"
        if kind == "aug_range":
            lo, hi = a
            vids = self.vids
            want = sum(len(adj[v]) for v in
                       vids[bisect_left(vids, lo):bisect_right(vids, hi)])
            return None if res == want else f"aug_range{a} = {res}, want {want}"
        if kind == "bfs":
            want = _bfs(adj, a)
            return None if res == want else f"bfs({a}) reached {len(res)}, want {len(want)}"
        if kind.startswith("insert"):
            for s, d in a:
                if s not in adj:
                    adj[s] = set()
                    insort(self.vids, s)
                if d not in adj:
                    adj[d] = set()
                    insort(self.vids, d)
                if d not in adj[s]:
                    adj[s].add(d)
                    self.total += 1
        else:
            for s, d in a:
                if s in adj and d in adj[s]:
                    adj[s].discard(d)
                    self.total -= 1
        if res.vertices is not self.g.vertices:
            self.bt.release(self.g.vertices)
        self.g = res
        gs = self.gs
        if gs.edge_count(res) != self.total:
            return f"{kind}: {gs.edge_count(res)} edges, want {self.total}"
        if self.bt.tree_size(res.vertices) != len(adj):
            return f"{kind}: {self.bt.tree_size(res.vertices)} vertices, want {len(adj)}"
        for s in {s for s, _ in a}:
            if gs.neighbors(res, s) != sorted(adj[s]):
                return f"{kind}: neighbors of {s} differ from the oracle"
        return None

    def retire(self, kind, res):
        pass

    def entries(self, kind, a):
        return len(a)

    def fingerprint(self, kind, res):
        if kind == "bfs":
            return hash(tuple(sorted(res.items())))
        if self.kinds[kind] == WRITE:
            return (self.gs.edge_count(res), self.bt.tree_size(res.vertices),
                    self.bt.tree_bytes(res.vctx, res.vertices))
        return res

    # -- after the stream -------------------------------------------------

    def probe_trees(self):
        g = self.g
        trees = [(g.vctx, g.vertices)]
        trees += [(g.ectx, et) for _, et in self.bt.items(g.vctx, g.vertices)
                  if et is not None]
        return trees, self.gs.edge_count(g)

    def digest(self):
        g, digest = self.g, self.bt.inspect.structure_digest
        return hash(tuple((v, digest(g.ectx, et))
                          for v, et in self.bt.items(g.vctx, g.vertices)))

    def finish(self):
        """Final checks; releases the vertex tree.  Returns the problems."""
        bt, g = self.bt, self.g
        try:
            bt.check_tree(g.vctx, g.vertices)
            for _, et in bt.items(g.vctx, g.vertices):
                bt.check_tree(g.ectx, et)
        except bt.InvariantViolation as exc:
            self.problems.append(f"final graph: {exc}")
        want = {v: sorted(n) for v, n in self.adj.items()}
        if self.gs.adjacency(g) != want:
            self.problems.append("final graph differs from the oracle")
        bt.release(g.vertices)
        return self.problems


def _bfs(adj, src):
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist
