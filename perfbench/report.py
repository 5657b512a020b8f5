"""Turn a finished :class:`workloads.Run` into named metrics with units.

End-to-end metrics come from untraced runs; per-layer metrics from traced
runs (``--trace 1``).  Both lists here match ``BENCHMARK.json``.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Tuple

from model import percentile

#: name -> unit (all lower-is-better except ops_per_s).
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"), ("ops_per_s", "1/s"),
    ("create_p50_ms", "ms"), ("create_p95_ms", "ms"),
    ("find_p50_ms", "ms"), ("query_p50_ms", "ms"), ("rank_p50_ms", "ms"),
    ("read_p50_ms", "ms"), ("mount_ms", "ms"),
    ("write_amp", "ratio"), ("space_amp", "ratio"), ("peak_rss_mb", "MB"),
]

KINDS = ("create", "find", "query", "rank", "read")
WRITE_KINDS = ("create", "append", "delete", "tag", "untag", "probe")

PER_LAYER: List[Tuple[str, str]] = [
    ("fulltext.add_document_us", "us"),
    ("btree.codec_us", "us"), ("btree.puts_per_create", "count"),
    ("btree.gets_per_rank", "count"),
    ("integrity.frame_us", "us"), ("integrity.verifications_per_rank", "count"),
    ("recovery.log_us", "us"), ("recovery.commit_us", "us"),
    ("recovery.pages_logged_per_create", "count"),
    ("recovery.wal_bytes_per_create", "B"),
    ("recovery.checkpoints_per_1k_creates", "count"),
    ("recovery.checkpoint_us", "us"), ("recovery.replay_us", "us"),
    ("recovery.replayed_pages", "count"), ("recovery.syncs_per_ack", "ratio"),
    ("recovery.commit_batch_mean", "count"), ("recovery.idle_flushes_per_ack", "ratio"),
    ("storage.blocks_written_per_create", "count"),
    ("storage.blocks_read_per_op", "count"), ("storage.device_us", "us"),
    ("osd.write_us", "us"), ("osd.read_us", "us"), ("osd.mount_us", "us"),
    ("cache.pool_hit_ratio", "ratio"), ("cache.pool_misses_per_op", "count"),
    ("cache.query_hit_ratio", "ratio"), ("cache.ranked_hit_ratio", "ratio"),
    ("core.plan_us", "us"),
    ("query.wand_us", "us"), ("query.docs_scored_per_rank", "count"),
    ("query.pruned_per_rank", "count"), ("query.postings_scanned_per_query", "count"),
    ("index.kv_entries_scanned_per_find", "count"),
    ("telemetry.observes_per_op", "count"), ("telemetry.observe_us", "us"),
    ("telemetry.timed_lock_us", "us"),
    ("serve.decode_us", "us"), ("serve.encode_us", "us"),
    ("serve.executor_wait_us", "us"), ("serve.ack_wait_us", "us"),
    ("concurrency.txn_wait_us", "us"),
] + [(f"residual.{kind}_us", "us") for kind in KINDS] \
  + [(f"overhead.{kind}_us", "us") for kind in KINDS]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(run) -> Dict[str, float]:
    lat = run.latencies
    rate = (run.loop_ops / run.wall_s if run.workload == "served"
            else run.loop_ops / run.busy_s)
    return {
        "setup_s": run.setup_s,
        "ops_per_s": rate,
        "create_p50_ms": statistics.median(lat["create"]) * 1e3,
        "create_p95_ms": percentile(lat["create"], 0.95) * 1e3,
        "find_p50_ms": statistics.median(lat["find"]) * 1e3,
        "query_p50_ms": statistics.median(lat["query"]) * 1e3,
        "rank_p50_ms": statistics.median(lat["rank"]) * 1e3,
        "read_p50_ms": statistics.median(lat["read"]) * 1e3,
        "mount_ms": statistics.median(run.mount_s) * 1e3,
        "write_amp": run.device_bytes_written / run.user_bytes,
        "space_amp": run.space_amp,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run) -> Dict[str, float]:
    self_s, calls, op_self, op_calls = run.tracer.totals()
    m_self, _, _, _ = run.mount_tracer.totals()
    stats, counts = run.stats, run.counts
    served = run.workload == "served"
    traced_n = {kind: len(run.traced[kind]) for kind in run.traced}
    n_traced = counts["traced_requests"] if served else sum(traced_n.values())
    all_ops = sum(n for kind, n in counts.items() if kind != "traced_requests")
    writes = sum(counts[kind] for kind in WRITE_KINDS)
    creates = counts["create"]

    def per_op_us(layer: str) -> float:
        return _ratio(self_s[layer], n_traced) * 1e6

    def per_kind(kind: str, layer: str) -> float:
        return _ratio(op_calls[(kind, layer)], traced_n.get(kind, 0))

    out = {
        "fulltext.add_document_us": per_op_us("fulltext.add_document"),
        "btree.codec_us": per_op_us("btree.codec"),
        "btree.puts_per_create": per_kind("create", "btree.put"),
        "btree.gets_per_rank": per_kind("rank", "btree.get"),
        "integrity.frame_us": per_op_us("integrity.frame"),
        "integrity.verifications_per_rank": per_kind("rank", "integrity.frame"),
        "recovery.log_us": per_op_us("recovery.log"),
        "recovery.commit_us": per_op_us("recovery.commit"),
        "recovery.pages_logged_per_create": per_kind("create", "recovery.log"),
        "recovery.wal_bytes_per_create": _ratio(stats["create_wal_bytes"], creates),
        "recovery.checkpoints_per_1k_creates": _ratio(stats["checkpoints"], creates) * 1e3,
        # one checkpoint = one pool flush + one journal checkpoint
        "recovery.checkpoint_us": _ratio(self_s["recovery.checkpoint"],
                                         calls["recovery.checkpoint"] / 2) * 1e6,
        "recovery.replay_us": _ratio(m_self["recovery.replay"], len(run.mount_s)) * 1e6,
        "recovery.replayed_pages": statistics.median(run.replayed_pages),
        "recovery.syncs_per_ack": _ratio(stats["syncs"], writes),
        "recovery.commit_batch_mean": _ratio(stats["batch_sum"], stats["batch_count"]),
        "recovery.idle_flushes_per_ack": _ratio(stats["idle_flushes"], writes),
        "storage.blocks_written_per_create": _ratio(stats["blocks_written"], creates),
        "storage.blocks_read_per_op": _ratio(stats["blocks_read"], all_ops),
        "storage.device_us": per_op_us("storage.device"),
        "osd.write_us": per_op_us("osd.write"),
        "osd.read_us": per_op_us("osd.read"),
        "osd.mount_us": _ratio(m_self["osd.mount"], len(run.mount_s)) * 1e6,
        "cache.pool_hit_ratio": _ratio(stats["pool_hits"],
                                       stats["pool_hits"] + stats["pool_misses"]),
        "cache.pool_misses_per_op": _ratio(stats["pool_misses"], all_ops),
        "cache.query_hit_ratio": _ratio(stats["query_hits"],
                                        stats["query_hits"] + stats["query_misses"]),
        "cache.ranked_hit_ratio": _ratio(stats["ranked_hits"],
                                         stats["ranked_hits"] + stats["ranked_misses"]),
        "core.plan_us": per_op_us("core.plan"),
        "query.wand_us": per_op_us("query.wand"),
        "query.docs_scored_per_rank": _ratio(stats["docs_scored"], counts["rank"]),
        "query.pruned_per_rank": _ratio(stats["pruned"], counts["rank"]),
        "query.postings_scanned_per_query": _ratio(stats["postings_scanned"],
                                                   counts["find"] + counts["query"]),
        "index.kv_entries_scanned_per_find": _ratio(stats["kv_scanned"], counts["find"]),
        "telemetry.observes_per_op": _ratio(calls["telemetry.observe"], n_traced),
        "telemetry.observe_us": per_op_us("telemetry.observe"),
        "telemetry.timed_lock_us": per_op_us("telemetry.timed_lock"),
        "serve.decode_us": per_op_us("serve.decode"),
        "serve.encode_us": per_op_us("serve.encode"),
        "serve.executor_wait_us": _ratio(self_s["serve.executor_wait"],
                                         calls["serve.executor_wait"]) * 1e6,
        "serve.ack_wait_us": _ratio(self_s["serve.ack_wait"], calls["serve.ack_wait"]) * 1e6,
        "concurrency.txn_wait_us": _ratio(stats["txn_wait_us"], all_ops),
    }
    # Residual: time of each kind no layer span covers.  In process it is the
    # root span's self time; served, it is the client latency minus the layer
    # time attributed to the kind (engine threads), an even share of the
    # protocol and executor time, and the create's ack wait.
    shared = sum(self_s[layer] for layer in ("serve.decode", "serve.encode",
                                             "serve.executor_wait"))
    for kind in KINDS:
        n = traced_n.get(kind, 0)
        if not served:
            value = _ratio(op_self[(kind, "residual")], op_calls[(kind, "residual")])
        elif n:
            covered = sum(t for (op, _), t in op_self.items() if op == kind)
            if kind == "create":
                covered += self_s["serve.ack_wait"]
            value = statistics.fmean(run.traced[kind]) - covered / n - _ratio(shared, n_traced)
        else:
            value = 0.0
        out[f"residual.{kind}_us"] = value * 1e6
        both = run.traced[kind] and run.plain[kind]
        out[f"overhead.{kind}_us"] = (
            (statistics.fmean(run.traced[kind]) - statistics.fmean(run.plain[kind])) * 1e6
            if both else 0.0)
    return out
