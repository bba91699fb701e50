"""Per-layer metrics from the traced run's spans and the server's ``/stats``.

Definitions (all over the traced timed phase unless noted):

* a layer's *self time* is its spans' durations minus the part covered
  by their child spans (same process, same thread);
* a *request* is one timed call of the workload (one row for
  ``edge_features``, one fixed group of frames for ``gateway_batched``
  and ``fleet_zipf``).  Its spans are the client spans under its
  ``request`` span, the server spans
  carrying its request ids (and their children), and the kernel span
  that scored it: the last kernel span to start, on the thread that
  resolved the request's future, before it was resolved;
* ``<layer>.share`` is that layer's self time summed over requests,
  divided by the summed request time.  Client and server layers of a
  pipelined request can overlap in time, so shares may sum past 1;
  ``trace.coverage`` is the union of a request's spans over its time;
* a metric of a layer the workload never reaches (or that a refactor
  removed) reads 0; counters come from ``/stats`` differences.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

import numpy as np

import harness
from spans import COMPLETE_EVENT

#: layers whose self time and share are reported for every workload
LAYERS = [
    "hd.encoder.encode",
    "core.inference_privacy.obfuscate",
    "backend.packed.pack.client",
    "client.prepare",
    "proto.send.client",
    "proto.decode.client",
    "proto.decode.server",
    "serve.api.submit",
    "serve.fleet.admit",
    "serve.artifact.load",
    "backend.packed.pack.server",
    "serve.engine.score",
    "serve.fleet.fused",
    "proto.send.server",
]
KERNELS = ("serve.engine.score", "serve.fleet.fused")
#: spans recorded on both sides; their layer names carry the side
BOTH_SIDES = ("proto.send", "proto.decode", "backend.packed.pack")
TRIGGERS = ("size", "eager", "deadline", "drain")
#: a workload whose spans cover less than this of its request time is flagged
MIN_COVERAGE = 0.90


class Spans:
    """One process's spans inside the timed window, with self times."""

    def __init__(self, rows, suffix: str, t0: float, t1: float):
        keep = [tuple(r) for r in rows if r[3] >= t0 and r[4] <= t1]
        self.by_id = {r[0]: r for r in keep}
        child_time = defaultdict(float)
        children = defaultdict(list)
        for r in keep:
            if r[1] in self.by_id:
                child_time[r[1]] += r[4] - r[3]
                children[r[1]].append(r[0])
        self.children = children
        self.self_time = {r[0]: (r[4] - r[3]) - child_time[r[0]] for r in keep}
        self.suffix = suffix
        self.spans = keep

    def layer(self, r) -> str:
        name = r[2]
        return f"{name}.{self.suffix}" if name in BOTH_SIDES else name

    def named(self, name):
        return [r for r in self.spans if r[2] == name]

    def subtree(self, sid):
        out, todo = [], [sid]
        while todo:
            s = todo.pop()
            out.append(self.by_id[s])
            todo.extend(self.children.get(s, ()))
        return out

    def inherited_rid(self, r) -> int:
        """A span's request id, or its nearest ancestor's."""
        while r is not None:
            if r[5]:
                return r[5]
            r = self.by_id.get(r[1])
        return 0

    def self_per_row(self, name) -> float:
        spans = self.named(name)
        rows = sum(r[6] for r in spans)
        return sum(self.self_time[r[0]] for r in spans) * 1e6 / rows if rows else 0.0

    def self_per_call(self, name) -> float:
        spans = self.named(name)
        return sum(self.self_time[r[0]] for r in spans) * 1e6 / len(spans) if spans else 0.0


def _pct(values, q) -> float:
    return harness.percentile(values, q) if len(values) else 0.0


def _union_within(intervals, lo, hi) -> float:
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _scheduler_totals(stats) -> dict:
    """Summed scheduler counters of every scheduler in a ``/stats`` reply."""
    out = defaultdict(float)

    def walk(node):
        if isinstance(node, dict):
            if "flushes" in node and "mean_batch_rows" in node:
                out["flushes"] += node["flushes"]
                out["rows"] += node["flushes"] * node["mean_batch_rows"]
                out["rejected"] += node.get("rejected", 0)
                out["expired"] += node.get("expired", 0)
                for k, v in node.get("flushes_by_trigger", {}).items():
                    out[f"trigger.{k}"] += v
                return
            for v in node.values():
                walk(v)

    walk(stats)
    return out


def _fleet_counters(stats) -> dict:
    fleet = stats.get("fleet") if isinstance(stats, dict) else None
    if not isinstance(fleet, dict):
        return {"hits": 0, "misses": 0, "evictions": 0}
    return {k: fleet.get(k, 0) for k in ("hits", "misses", "evictions")}


def per_layer(base, base_setup, phase, recorder, server,
              stats_before, stats_after, counters):
    """Every per-layer metric (fixed names) plus a human report."""
    t0 = phase.meter.t0
    t1 = t0 + phase.meter.wall_s
    cli = Spans(recorder.spans, "client", t0, t1)
    srv = Spans(server["spans"], "server", t0, t1)

    # -- which kernel span carried each request id ---------------------
    # A future already resolved when submit returns runs its callback on
    # the submitting thread; those fall back to every thread's kernels.
    kernels_by_tid = defaultdict(list)
    for r in sorted(srv.spans, key=lambda r: r[3]):
        if r[2] in KERNELS:
            kernels_by_tid[r[7]].append(r)
            kernels_by_tid[None].append(r)
    kernel_starts = {tid: [k[3] for k in ks] for tid, ks in kernels_by_tid.items()}
    carrier = {}
    for name, t, rid, tid in server["events"]:
        if name != COMPLETE_EVENT or not (t0 <= t <= t1):
            continue
        tid = tid if tid in kernel_starts else None
        i = bisect.bisect_right(kernel_starts.get(tid, []), t) - 1
        if i >= 0:
            carrier[rid] = kernels_by_tid[tid][i]

    # -- requests and the spans attributed to them ---------------------
    srv_by_rid = defaultdict(list)
    for r in srv.spans:
        if r[2] not in KERNELS:
            rid = srv.inherited_rid(r)
            if rid:
                srv_by_rid[rid].append(r)
    requests = []  # (start, end, client spans, server spans)
    for root in cli.named("request"):
        mine = [r for r in cli.subtree(root[0]) if r is not root]
        rids = {r[5] for r in mine if r[5]}
        theirs = [s for rid in rids for s in srv_by_rid.get(rid, ())]
        kern = {carrier[rid] for rid in rids if rid in carrier}
        requests.append((root[3], root[4], mine, theirs + list(kern)))

    total_time = sum(e - s for s, e, _, _ in requests)
    layer_self = defaultdict(float)
    covered = 0.0
    for start, end, mine, theirs in requests:
        for r in mine:
            layer_self[cli.layer(r)] += cli.self_time[r[0]]
        for r in theirs:
            layer_self[srv.layer(r)] += srv.self_time[r[0]]
        covered += _union_within([(r[3], r[4]) for r in mine + theirs], start, end)
    n_req = max(len(requests), 1)

    # -- reply wait: last send -> reply decode, minus client busy time --
    # The client is one thread, so its outermost spans below the request
    # spans are disjoint: sorted, they answer "busy between a and b" fast.
    outer = sorted((r[3], r[4]) for r in cli.spans if r[2] != "request" and (
        r[1] not in cli.by_id or cli.by_id[r[1]][2] == "request"))
    outer_starts = [a for a, _ in outer]
    sends = {r[5]: r for r in cli.named("proto.send") if r[5]}
    waits = []
    for r in cli.named("proto.decode"):
        s = sends.get(r[5])
        if s is not None and r[3] > s[4]:
            lo, hi = s[4], r[3]
            i = max(bisect.bisect_left(outer_starts, lo) - 1, 0)
            busy = 0.0
            while i < len(outer) and outer[i][0] < hi:
                busy += max(0.0, min(outer[i][1], hi) - max(outer[i][0], lo))
                i += 1
            waits.append((hi - lo - busy) * 1e6)

    # -- queue wait: submit returns -> start of the carrying kernel ------
    submit_end = {srv.inherited_rid(r): r[4] for r in srv.named("serve.api.submit")}
    qwaits = [max(0.0, (carrier[rid][3] - end) * 1e6)
              for rid, end in submit_end.items() if rid in carrier]

    sched0, sched1 = _scheduler_totals(stats_before), _scheduler_totals(stats_after)
    d = {k: sched1.get(k, 0) - sched0.get(k, 0) for k in set(sched0) | set(sched1)}
    f0, f1 = _fleet_counters(stats_before), _fleet_counters(stats_after)
    hits, misses = f1["hits"] - f0["hits"], f1["misses"] - f0["misses"]
    admits = [(r[4] - r[3]) * 1e6 for r in srv.named("serve.fleet.admit")]
    loads = [(r[4] - r[3]) * 1e6 for r in map(tuple, server["spans"])
             if r[2] == "serve.artifact.load"]
    prepare_time = sum(r[4] - r[3] for r in cli.named("client.prepare"))

    overhead = (base.rows_ok / base.meter.wall_s) / (
        phase.rows_ok / phase.meter.wall_s) - 1.0
    coverage = covered / total_time if total_time else 0.0

    us, frac, count = "us", "fraction", "count"
    m = {
        "latency_p95_ms": (harness.percentile(base.latencies_ms, 95), "ms"),
        "hd.encoder.encode_us_per_row": (cli.self_per_row("hd.encoder.encode"), us),
        "core.inference_privacy.obfuscate_us_per_row": (
            cli.self_per_row("core.inference_privacy.obfuscate"), us),
        "backend.packed.pack_us_per_row": (cli.self_per_row("backend.packed.pack"), us),
        "client.prepare_share": (prepare_time / total_time if total_time else 0.0, frac),
        "proto.send_us_per_frame.client": (cli.self_per_call("proto.send"), us),
        "proto.send_us_per_frame.server": (srv.self_per_call("proto.send"), us),
        "proto.decode_us_per_frame.client": (cli.self_per_call("proto.decode"), us),
        "proto.decode_us_per_frame.server": (srv.self_per_call("proto.decode"), us),
        "client.reply_wait_us_p50": (_pct(waits, 50), us),
        "client.reply_wait_us_p99": (_pct(waits, 99), us),
        "serve.api.submit_us_per_request": (srv.self_per_call("serve.api.submit"), us),
        "serve.scheduler.queue_wait_us_p50": (_pct(qwaits, 50), us),
        "serve.scheduler.queue_wait_us_p99": (_pct(qwaits, 99), us),
        "serve.scheduler.batch_rows_mean": (
            d.get("rows", 0) / d["flushes"] if d.get("flushes") else 0.0, "rows"),
        "serve.scheduler.flushes": (d.get("flushes", 0), count),
        **{f"serve.scheduler.flushes_by_trigger.{t}": (d.get(f"trigger.{t}", 0), count)
           for t in TRIGGERS},
        "serve.scheduler.rejected": (d.get("rejected", 0), count),
        "serve.scheduler.expired": (d.get("expired", 0), count),
        "serve.engine.score_us_per_row": (srv.self_per_row("serve.engine.score"), us),
        "serve.fleet.fused_us_per_row": (srv.self_per_row("serve.fleet.fused"), us),
        "serve.fleet.admit_us_p50": (_pct(admits, 50), us),
        "serve.fleet.admit_us_p99": (_pct(admits, 99), us),
        "serve.fleet.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, frac),
        "serve.fleet.misses": (misses, count),
        "serve.fleet.evictions": (f1["evictions"] - f0["evictions"], count),
        "serve.artifact.load_us": (float(np.mean(loads)) if loads else 0.0, us),
        "server.busy_share": (base.meter.server_cpu_s / base.meter.wall_s, frac),
        "client.retries": (counters["retries"], count),
        "client.reconnects": (counters["reconnects"], count),
        **{f"setup.{k}": (v, "s") for k, v in base_setup.phases.items()},
        **{f"{layer}.self_us_per_request": (layer_self[layer] * 1e6 / n_req, us)
           for layer in LAYERS},
        **{f"{layer}.share": (layer_self[layer] / total_time if total_time else 0.0, frac)
           for layer in LAYERS},
        "trace.coverage": (coverage, frac),
        "trace.low_coverage": (float(coverage < MIN_COVERAGE), "flag"),
        "trace.overhead": (overhead, frac),
        "failed_share": (phase.failed / phase.attempted, frac),
    }
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
    report = {
        "traced_requests": len(requests),
        "client_spans": len(cli.spans),
        "server_spans": len(srv.spans),
        "other_triggers": {k: v for k, v in d.items()
                           if k.startswith("trigger.") and k[8:] not in TRIGGERS},
    }
    if coverage < MIN_COVERAGE:
        report["warning"] = (
            f"spans cover {coverage:.1%} of the measured request time "
            f"(< {MIN_COVERAGE:.0%}): the rest is outside every traced layer")
    return metrics, report
