"""Per-layer metrics from the traced pass's spans.

A layer is a module of ``src/repro``; every metric here is either a span's
*self time* (its interval minus what its children cover) divided by a
count taken at the same boundary, or such a count.  ``README.md`` holds
the glossary and says which end-to-end metric each one should move.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.net import binary
from repro.net.client import RemoteLQP

from harness import Phase, System
from workloads import REMOTE_CONCURRENCY, WIRE_CHUNK_TUPLES
from tracing import SpanRecord, covered, link_orphans, self_times

__all__ = ["layer_metrics", "write_trace"]

#: Times the direct codec / JSON-wire measurements are repeated (median).
CODEC_REPEATS = 3


def write_trace(path: Path, records: Sequence[SpanRecord]) -> None:
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json()) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _add_cursor_fetch(records: List[SpanRecord]) -> List[SpanRecord]:
    """Replace each op's ``cursor.read`` (the whole blocking read, mostly
    waiting for the query) by ``cursor.fetch``: the part of it after the
    federation's last ``execute`` or ``cache.probe`` stage ended — "time
    inside fetchall()/chunks() once the result is complete"."""
    ready: Dict[int, float] = defaultdict(float)
    for record in records:
        if record.name in ("execute", "cache.probe"):
            ready[record.query] = max(ready[record.query], record.end)
    out = []
    for record in records:
        if record.name != "cursor.read":
            out.append(record)
            continue
        start = min(max(record.start, ready[record.query]), record.end)
        out.append(
            SpanRecord("cursor.fetch", start, record.end, record.id, record.parent,
                       record.query, record.attributes)
        )
    return out


def _nest_pqp_rows(records: List[SpanRecord]) -> None:
    """The concurrent engine runs PQP rows on the coordinator without
    making the row span ambient, so spans opened inside one arrive as its
    *siblings* under ``execute``.  PQP rows run one at a time on that
    thread: hang each such span off the PQP row whose interval holds it."""
    rows: Dict[str, List[SpanRecord]] = defaultdict(list)
    for record in records:
        if record.name == "execute.row" and record.attributes.get("location") == "PQP":
            rows[record.parent].append(record)
    for record in records:
        if record.name == "execute.row":
            continue
        for row in rows.get(record.parent, ()):
            if row.start <= record.start and record.end <= row.end:
                record.parent = row.id
                break


def _unattributed(records: Sequence[SpanRecord]) -> float:
    """Share of operation time that no layer span covers.  The op span and
    the federation's ``query`` root are containers, not layers."""
    by_query: Dict[int, List[SpanRecord]] = defaultdict(list)
    for record in records:
        by_query[record.query].append(record)
    total = uncovered = 0.0
    for spans in by_query.values():
        op = next((s for s in spans if s.name == "op"), None)
        if op is None or op.attributes.get("kind") != "read":
            continue
        layers = [(s.start, s.end) for s in spans if s.name not in ("op", "query")]
        total += op.duration
        uncovered += op.duration - covered(op.start, op.end, layers)
    return _ratio(uncovered, total)


def _join_pairs_per_result(records: Sequence[SpanRecord]) -> float:
    """Pairs the product formed over tuples that survived the restrict
    right after it (same plan row): the join's wasted-work ratio."""
    siblings: Dict[str, List[SpanRecord]] = defaultdict(list)
    for record in records:
        siblings[record.parent].append(record)
    pairs = survivors = 0
    for record in records:
        if record.name != "kernels.product":
            continue
        following = [
            other for other in siblings[record.parent]
            if other.name == "kernels.restrict" and other.start >= record.end
        ]
        if following:
            pairs += int(record.attributes.get("tuples_out", 0))
            survivors += int(min(following, key=lambda s: s.start).attributes["tuples_out"])
    return _ratio(pairs, max(survivors, 1)) if pairs else 0.0


def _codec_direct(system: System) -> Dict[str, float]:
    """``scan_remote`` only: the binary encoder called directly on one
    source's relation in this process (the server child's encode, which
    runs off our interpreter lock), and the same retrieve forced to the
    JSON v1 wire, so the byte ratio prints beside the wall clock."""
    name, url = sorted(system.server_urls.items())[0]
    relation = system.dataset.databases[name].relation("ORG")
    encodes, scans = [], []
    for _ in range(CODEC_REPEATS):
        began = time.perf_counter()
        for _payload in binary.relation_chunk_payloads(0, relation, WIRE_CHUNK_TUPLES):
            pass
        encodes.append(time.perf_counter() - began)
    with RemoteLQP(url, concurrency=REMOTE_CONCURRENCY, wire_format="json") as remote:
        received = remote.transport_stats().bytes_received
        for _ in range(CODEC_REPEATS):
            began = time.perf_counter()
            shipped = remote.retrieve("ORG")
            scans.append(time.perf_counter() - began)
        received = remote.transport_stats().bytes_received - received
    tuples = relation.cardinality
    if shipped.cardinality != tuples:
        raise RuntimeError(f"JSON retrieve shipped {shipped.cardinality} of {tuples} tuples")
    return {
        "net.encode_us_per_tuple": statistics.median(encodes) / tuples * 1e6,
        "net.json_scan_us_per_tuple": statistics.median(scans) / tuples * 1e6,
        "net.json_bytes_per_tuple": received / (CODEC_REPEATS * tuples),
    }


def layer_metrics(
    system: System,
    baseline: Sequence[Phase],
    traced: Sequence[Phase],
    orphans,
    before: Dict[str, int],
    after: Dict[str, int],
) -> Tuple[Dict[str, float], Dict[str, object], List[SpanRecord]]:
    records = [record for phase in traced for record in phase.records]
    records += link_orphans(records, orphans)
    records = _add_cursor_fetch(records)
    _nest_pqp_rows(records)
    self_times(records)

    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[Tuple[str, str], float] = defaultdict(float)
    for record in records:
        self_s[record.name] += record.self_time
        total_s[record.name] += record.duration
        calls[record.name] += 1
        for key in ("tuples", "tuples_in", "tuples_out", "bytes", "rows"):
            value = record.attributes.get(key)
            if isinstance(value, (int, float)):
                counts[record.name, key] += value

    reads = sum(phase.reads for phase in traced)
    writes = after["invalidations"] - before["invalidations"]
    returned = sum(phase.rows_returned for phase in traced)
    shipped = after["shipped"] - before["shipped"]
    op_s = sum(r.duration for r in records if r.name == "op" and r.attributes.get("kind") == "read")
    ops = sum(1 for r in records if r.name == "op")

    def us(seconds: float, per: float) -> float:
        return _ratio(seconds * 1e6, per)

    def kernel(name: str, per: str = "tuples_in") -> float:
        return us(self_s[f"kernels.{name}"], counts[f"kernels.{name}", per])

    traced_mean = statistics.fmean(v for phase in traced for v in phase.latencies)
    baseline_mean = statistics.fmean(v for phase in baseline for v in phase.latencies)
    values = {
        "translate.us_per_query": us(self_s["translate"], reads),
        "analyze.us_per_query": us(self_s["analyze"], reads),
        "plan.us_per_query": us(self_s["plan"], reads),
        "optimize.us_per_query": us(self_s["optimize"], reads),
        "calibrate.observe_us_per_query": us(self_s["calibrate.observe"], reads),
        "fingerprint.us_per_query": us(self_s["fingerprint"], reads),
        "cache.lookup_us": us(self_s["cache.lookup"], calls["cache.lookup"]),
        "cache.store_us_per_query": us(total_s["cache.store"], reads),
        "cache.invalidate_us_per_write": us(total_s["cache.invalidate"], writes),
        "cache.hit_fraction": _ratio(sum(p.cache_hits for p in traced), reads),
        "cache.splice_fraction": _ratio(sum(p.cache_splices for p in traced), reads),
        "cache.evictions": after["evictions"] - before["evictions"],
        "cache.entries_invalidated_per_write": _ratio(
            after["invalidated"] - before["invalidated"], writes
        ),
        "backends.sqlite_us_per_tuple": us(
            self_s["backends.sqlite"], counts["backends.sqlite", "tuples"]
        ),
        "lqp.tuples_examined_per_result": _ratio(shipped, returned),
        "lqp.retrieve_us_per_tuple": us(self_s["lqp.verb"], counts["lqp.verb", "tuples"]),
        "lqp.tuples_shipped_per_query": _ratio(shipped, reads),
        "net.scan_us_per_tuple": us(self_s["net.scan"], counts["net.scan", "tuples"]),
        "net.decode_us_per_tuple": us(self_s["net.decode"], counts["net.decode", "tuples_out"]),
        "net.encode_us_per_tuple": 0.0,
        "net.bytes_per_tuple": _ratio(
            counts["net.decode", "bytes"], counts["net.decode", "tuples_out"]
        ),
        "net.json_scan_us_per_tuple": 0.0,
        "net.json_bytes_per_tuple": 0.0,
        "net.retries": after["retries"] - before["retries"],
        "net.timeouts": after["timeouts"] - before["timeouts"],
        "materialize.us_per_tuple": us(self_s["materialize"], counts["materialize", "tuples_in"]),
        "kernels.hash_merge_us_per_tuple": kernel("hash_merge"),
        "kernels.project_us_per_tuple": kernel("project"),
        "kernels.restrict_us_per_tuple": kernel("restrict"),
        "kernels.product_us_per_pair": kernel("product", "tuples_out"),
        "kernels.coalesce_us_per_tuple": kernel("coalesce"),
        "kernels.join_pairs_per_result": _join_pairs_per_result(records),
        "execute.us_per_query": us(total_s["execute"], reads),
        "execute.rows_per_query": _ratio(counts["execute", "rows"], reads),
        "execute.busy_us_per_query.lqp": us(sum(p.busy_lqp for p in traced), reads),
        "execute.busy_us_per_query.pqp": us(sum(p.busy_pqp for p in traced), reads),
        "execute.dispatch_us_per_query": us(self_s["execute"], reads),
        "service.handoff_us_per_query": us(self_s["op"] + total_s["service.submit"], reads),
        "cursor.fetch_us_per_tuple": us(self_s["cursor.fetch"], returned),
        "obs.spans_per_query": _ratio(len(records), ops),
        "obs.trace_overhead_fraction": traced_mean / baseline_mean - 1.0,
        "trace.unattributed_fraction": _unattributed(records),
    }
    if system.server_urls:
        values.update(_codec_direct(system))
    detail = {
        "samples": reads,
        "traced_ops": ops,
        "baseline_mean_ms": baseline_mean * 1e3,
        "traced_mean_ms": traced_mean * 1e3,
        #: Each layer's self time as a share of traced read-operation time.
        "share_of_op_time": {
            name: round(_ratio(seconds, op_s), 4)
            for name, seconds in sorted(self_s.items(), key=lambda item: -item[1])
            if name != "op" and seconds > 0
        },
    }
    return values, detail, records
