"""Per-layer metrics of one traced phase.

Times come from the spans (means per call, ``_self_`` metrics net of
child spans); counts and virtual seconds come from the phase's counter
deltas.  Denominators: *records* made durable in the phase (recovered,
on site-recovery), *reads* (``read`` and ``read_verified`` requests) and
*ops* (service requests).  A layer the workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Dict

from repro.recovery import RecoveryStage

from perfbench.probes import Tracer
from perfbench.stats import p50, ratio
from perfbench.workloads import Phase


def per_layer(tracer: Tracer, phase: Phase) -> Dict[str, float]:
    spans = tracer.aggregate()
    counts = tracer.counts
    delta = phase.delta
    records, reads, ops = phase.records, phase.reads, phase.requests

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def mean_ms(name: str, key: str = "total_s") -> float:
        return ratio(spans[name][key], calls(name)) * 1e3 if calls(name) \
            else 0.0

    def durations_ms(name: str):
        return [d * 1e3 for d in spans[name]["durations"]] if calls(name) \
            else [0.0]

    scpu_wall = sum(entry["total_s"] for name, entry in spans.items()
                    if name.startswith("scpu."))
    written = counts.get("worm.records_written", 0.0)
    hits, misses = delta("client.memo_hits"), delta("client.memo_misses")
    metrics = {
        "service.codec_ms": ratio(
            spans.get("service.codec", {}).get("total_s", 0.0), ops) * 1e3,
        "service.handle_self_ms": mean_ms("service.handle", "self_s"),
        "service.deferred_ratio": ratio(delta("service.deferred"),
                                        delta("service.requests")),
        "service.rejected_ratio": ratio(delta("service.rejected"),
                                        delta("service.requests")),
        "service.defer_wait_s": ratio(delta("service.defer_wait_s"),
                                      delta("service.defer_waits")),
        "sharded.records_per_vr": ratio(written, calls("worm.write")),
        "sharded.flush_ms": mean_ms("sharded.flush"),
        "sharded.read_self_ms": mean_ms("sharded.read", "self_s"),
        "worm.write_self_ms": mean_ms("worm.write", "self_s"),
        "worm.read_self_ms": mean_ms("worm.read", "self_s"),
        "worm.maintenance_p50_ms": p50(durations_ms("worm.maintenance")),
        "worm.maintenance_max_ms": max(durations_ms("worm.maintenance")),
        "worm.strengthened": counts.get("worm.strengthened", 0.0),
        "auth.on_write_ms": mean_ms("auth.on_write"),
        "auth.prove_ms": mean_ms("auth.prove"),
        "auth.proof_bytes_per_read": ratio(counts.get("auth.proof_bytes", 0),
                                           counts.get("auth.proofs", 0)),
        "client.verify_read_ms": mean_ms("client.verify_read"),
        "client.sig_memo_hit_ratio": ratio(hits, hits + misses),
        "scpu.crossings_per_record": ratio(delta("scpu.crossings"), records),
        "scpu.bytes_crossed_per_record": ratio(delta("scpu.bytes"), records),
        "scpu.virtual_s_per_record": ratio(delta("scpu.virtual_s"), records),
        "scpu.wall_ms_per_record": ratio(scpu_wall, records) * 1e3,
        "rsa.signs_per_record": ratio(calls("rsa.sign"), records),
        "rsa.sign_ms": mean_ms("rsa.sign"),
        "rsa.verifies_per_read": ratio(calls("rsa.verify"), reads),
        "rsa.verify_ms": mean_ms("rsa.verify"),
        "block_store.gets_per_read": ratio(
            tracer.under("block_store.get", "worm.read"), reads),
        "block_store.get_ms": mean_ms("block_store.get"),
        "block_store.gets_per_write": ratio(
            tracer.under("block_store.get", "worm.write"), written),
        "block_store.put_ms": mean_ms("block_store.put"),
        "disk.charges_per_op": ratio(delta("disk.charges"), ops),
        "disk.virtual_s_per_record": ratio(delta("disk.virtual_s"), records),
        "journal.append_ms": mean_ms("journal.append"),
        "replication.pump_p50_ms": p50(durations_ms("replication.pump")),
        "replication.pump_max_ms": max(durations_ms("replication.pump")),
        "obs.bus_calls_per_op": ratio(counts.get("obs.bus_calls", 0), ops),
    }
    for stage in RecoveryStage.ORDER:
        metrics[f"recovery.{stage}_s"] = (
            spans[f"recovery.{stage}"]["total_s"]
            if calls(f"recovery.{stage}") else 0.0)
    metrics["recovery.total_s"] = sum(
        metrics[f"recovery.{stage}_s"] for stage in RecoveryStage.ORDER)
    return metrics
