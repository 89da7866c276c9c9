"""Per-layer metrics of the traced run.

Every workload reports every metric, so the traced output has one fixed
set of names; a metric of a layer or call that the workload does not run
reads 0.  Timings of whole calls (``*_p50``, ``op.*``) come from the
untraced pass; spans, self times and callback counts from the traced pass;
node and fold counts from the library's own counters around each call,
which the run checks are equal in both passes.
"""

from harness import p50, pct
from tracing import summarize

ORDMAP_MS = {"intersection": "intersection", "difference": "difference",
             "union_efficient": "union_efficient",
             "multi_delete": "multi_delete", "filter": "filter",
             "map": "map_values", "reduce": "reduce"}
SEQUENCE = {"append_us_p50": ("append", 1e3), "subseq_us_p50": ("subseq", 1e3),
            "seq_map_ms_p50": ("seq_map", 1e6),
            "seq_reduce_ms_p50": ("seq_reduce", 1e6)}
GRAPH_BATCHES = (10, 1000, 10000)


def _p50(samples, kinds, scale):
    xs = [x for k in kinds for x in samples.get(k, ())]
    return p50(xs) / scale


def _p99(samples, kinds, scale):
    xs = [x for k in kinds for x in samples.get(k, ())]
    v = pct(xs, 0.99)
    return 0.0 if v is None else v / scale


def op_metrics(W, plain):
    """The per-call timings named after the operations themselves."""
    s = plain.samples
    m = {}
    m["op.find_us_p50"] = (_p50(s, ["find"], 1e3), "us")
    m["op.find_us_p99"] = (_p99(s, ["find"], 1e3), "us")
    ins = ["insert_new", "insert_update"]
    m["op.insert_us_p50"] = (_p50(s, ins, 1e3), "us")
    m["op.insert_us_p99"] = (_p99(s, ins, 1e3), "us")
    m["op.remove_us_p50"] = (_p50(s, ["remove"], 1e3), "us")
    m["op.range_us_p50"] = (_p50(s, ["key_range"], 1e3), "us")
    m["op.union_ms_p50"] = (_p50(s, ["union"], 1e6), "ms")
    m["op.multi_insert_ms_p50"] = (_p50(s, ["multi_insert"], 1e6), "ms")
    m["op.bulk_entries_per_s"] = (_write_rate(plain) if W.name == "bulk" else 0.0, "1/s")
    m["op.edges_per_s"] = (_write_rate(plain) if W.name == "graph" else 0.0, "1/s")
    m["op.bfs_ms_p50"] = (_p50(s, ["bfs"], 1e6), "ms")
    m["op.error_rate"] = (plain.failed / plain.attempted if plain.attempted else 0.0, "ratio")
    for name, kind in ORDMAP_MS.items():
        m[f"ordmap.{name}_ms_p50"] = (_p50(s, [kind], 1e6), "ms")
    m["augment.aug_range_us_p50"] = (_p50(s, ["aug_range"], 1e3), "us")
    for name, (kind, scale) in SEQUENCE.items():
        m[f"sequence.{name}"] = (_p50(s, [kind], scale), "us" if scale == 1e3 else "ms")
    for verb in ("insert", "delete"):
        for b in GRAPH_BATCHES:
            m[f"graphstore.{verb}_edges_ms_p50.b{b}"] = (_p50(s, [f"{verb}_b{b}"], 1e6), "ms")
    return m


def _write_rate(plain):
    """Entries the write calls took in, per raw second of those calls."""
    entries = ns = 0
    for _, t0, t1, n, _ in plain.calls:
        if n:
            entries += n
            ns += t1 - t0
    return entries / (ns / 1e9) if ns else 0.0


def layer_metrics(W, plain, traced_s, tracer, space, live):
    ops = plain.attempted
    calls, self_ns, nbytes, root = summarize(tracer.spans)
    spans = tracer.spans
    roots = [i for i, sp in enumerate(spans) if sp[3] < 0]
    root_ns = sum(spans[i][2] - spans[i][1] for i in roots)

    def per_op(x):
        return x / ops if ops else 0.0

    def us(name_list):
        return per_op(sum(self_ns[n] for n in name_list)) / 1e3

    def prefixed(prefix):
        return [n for n in calls if n.startswith(prefix)]

    m = {}
    enc = ["encoding.decode", "encoding.encode"]
    m["encoding.decode_calls_per_op"] = (per_op(calls["encoding.decode"]), "count")
    m["encoding.decode_us_per_op"] = (us(["encoding.decode"]), "us")
    m["encoding.encode_calls_per_op"] = (per_op(calls["encoding.encode"]), "count")
    m["encoding.encode_us_per_op"] = (us(["encoding.encode"]), "us")
    m["encoding.bytes_decoded_per_op"] = (per_op(nbytes["encoding.decode"]), "B")
    m["encoding.bytes_encoded_per_op"] = (per_op(nbytes["encoding.encode"]), "B")
    m["encoding.time_share"] = (sum(self_ns[n] for n in enc) / root_ns if root_ns else 0.0, "ratio")

    d = plain.node_deltas
    m["nodes.allocations_per_op"] = (per_op(d["allocations"]), "count")
    m["nodes.reclaims_per_op"] = (per_op(d["reclaims"]), "count")
    m["nodes.reused_per_op"] = (per_op(d["reused"]), "count")
    m["nodes.live_after_release"] = (live, "count")

    m["core.unfolds_per_op"] = (per_op(d["unfolds"]), "count")
    m["core.folds_per_op"] = (per_op(d["folds"]), "count")
    groups = {"join": ["core._join", "core._join2"], "split": ["core._split"],
              "rebuild": ["core._rebuild"]}
    for g, names in groups.items():
        m[f"core.{g}_calls_per_op"] = (per_op(sum(calls[n] for n in names)), "count")
        m[f"core.{g}_self_us_per_op"] = (us(names), "us")
    m["core.expose_calls_per_op"] = (
        per_op(calls["core._expose"] + calls["core._destructure"]), "count")
    m["core.self_us_per_op"] = (us(prefixed("core.")), "us")
    m["ordmap.self_us_per_op"] = (us(prefixed("ordmap.")), "us")

    # work charged to the op (root span) that caused it
    def under(root_name, span_name, measure):
        out = 0
        for i, sp in enumerate(spans):
            if sp[0] == span_name and spans[root[i]][0] == root_name:
                out += measure(sp)
        return out

    n_aug = sum(1 for i in roots if spans[i][0] == "augment.aug_range")
    decodes = under("augment.aug_range", "encoding.decode", lambda sp: 1)
    m["augment.decodes_per_aug_range"] = (decodes / n_aug if n_aug else 0.0, "count")
    m["augment.lift_calls_per_op"] = (per_op(tracer.counts["augment.lift"]), "count")
    m["augment.combine_calls_per_op"] = (per_op(tracer.counts["augment.combine"]), "count")

    n_ins = sum(1 for i in roots if spans[i][0] == "graphstore.insert_edges")
    unions = under("graphstore.insert_edges", "ordmap.union", lambda sp: 1)
    m["graphstore.edge_union_calls_per_batch"] = (unions / n_ins if n_ins else 0.0, "count")
    bfs_ns = sum(spans[i][2] - spans[i][1] for i in roots
                 if spans[i][0] == "graphstore.bfs")
    find_ns = under("graphstore.bfs", "ordmap.find", lambda sp: sp[2] - sp[1])
    m["graphstore.bfs_find_share"] = (find_ns / bfs_ns if bfs_ns else 0.0, "ratio")

    m["parallel.fork2_calls_per_op"] = (per_op(tracer.counts["parallel.fork2"]), "count")
    m.update({k: v for k, v in space.items() if k.startswith("inspect.")})
    m.update(op_metrics(W, plain))
    m["trace.overhead"] = (traced_s.op_ns / plain.op_ns if plain.op_ns else 0.0, "ratio")
    return m
