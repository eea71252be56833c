"""Run one workload of the wall-clock service benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no probe installed.
``--trace 1`` runs the workload's fixed request prefix twice — once
bare, once with every layer probed — and reports the per-layer metrics
and the tracing overhead; its spans go to ``.perfbench-out/``.

Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit 0
when every answer checked out, 1 on any correctness miss, 2 when the run
could not be made.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that repeat exactly for a seed (counts and virtual
#: time); later changes may cite them as counts.
DETERMINISTIC = (
    "service.deferred_ratio", "service.rejected_ratio",
    "service.defer_wait_s", "sharded.records_per_vr", "worm.strengthened",
    "auth.proof_bytes_per_read", "client.sig_memo_hit_ratio",
    "scpu.crossings_per_record", "scpu.bytes_crossed_per_record",
    "scpu.virtual_s_per_record", "rsa.signs_per_record",
    "rsa.verifies_per_read", "block_store.gets_per_read",
    "block_store.gets_per_write", "disk.charges_per_op",
    "disk.virtual_s_per_record", "replication.bytes_shipped_per_user_byte",
    "obs.bus_calls_per_op",
)


def catalogue(section: str) -> Dict[str, str]:
    """Metric name -> unit, for one section of ``BENCHMARK.json``.

    The benchmark's metric names and units are declared there only; a run
    that produces a different set of metrics fails (:func:`check_catalogue`).
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {metric["name"]: metric["unit"] for metric in declared}


def timed_setup(workload, material, repeats: int, tracer=None):
    """Set up *repeats* times; returns the last site and every duration."""
    from perfbench.loops import clock

    durations = []
    site = None
    for _ in range(repeats):
        site = None  # release the previous site before building the next
        gc.collect()
        clock.maybe_tick()
        start = clock()
        site = workload.setup(material, tracer)
        durations.append(clock() - start)
    gc.collect()
    return site, durations


def measure(workload, material):
    """The untraced run: end-to-end metrics, setup_s, correctness."""
    from perfbench.loops import Client, clock, peak_rss_mb
    from perfbench.stats import p50
    from perfbench.workloads import Sample

    samples, setups = [], []
    # Site recovery repeats whole drills, since each recovery consumes its
    # site; the others set up several times and run one timed phase on
    # the last site.
    drills = workload.name == "site-recovery"
    for _ in range(workload.drills() if drills else 1):
        site, durations = timed_setup(
            workload, material, 1 if drills else workload.setup_repeats)
        setups.extend(durations)
        main = Client(site.service)
        phase = workload.drive(site, main, fixed=False)
        audit = Client(site.service)
        start = clock()
        workload.verify(site, audit)
        samples.append(Sample(site, phase, main, audit, clock() - start))
    metrics = {"setup_s": p50(setups)}
    metrics.update(workload.end_to_end(samples))
    metrics.setdefault("peak_rss_mb", peak_rss_mb())
    clients = [c for s in samples for c in (s.main, s.audit)]
    clients += [s.site.loader for s in samples
                if getattr(s.site, "loader", None) is not None]
    extra = {"failed_ratio": (sum(len(c.failures) for c in clients)
                              / sum(c.attempted for c in clients))}
    if drills:
        extra["recovery_s"] = p50([s.phase.wall for s in samples])
    return metrics, clients, extra


def trace(workload, material, spans_path: Path):
    """The traced run: per-layer metrics and the tracing overhead.

    Both passes send the workload's fixed request prefix, so their counts
    repeat exactly; the first installs no probe at all and is the
    baseline the tracing overhead is measured against.
    """
    from perfbench.layers import per_layer
    from perfbench.loops import Client
    from perfbench.probes import Tracer
    from perfbench.stats import P99_MIN_SAMPLES, p99, ratio

    site, _ = timed_setup(workload, material, 1)
    bare = Client(site.service)
    bare_phase = workload.drive(site, bare, fixed=True)
    clients = [bare, Client(site.service)]
    workload.verify(site, clients[-1])
    site = None

    tracer = Tracer()
    tracer.install_primitives()
    try:
        site, _ = timed_setup(workload, material, 1, tracer)
        probed = Client(site.service, tracer)
        tracer.clear()
        phase = workload.drive(site, probed, fixed=True, tracer=tracer)
        metrics = per_layer(tracer, phase)
        tracer.write(spans_path)
    finally:
        tracer.unpatch()
    clients += [probed, Client(site.service)]
    workload.verify(site, clients[-1])
    if getattr(site, "loader", None) is not None:
        clients.append(site.loader)
    metrics["replication.bytes_shipped_per_user_byte"] = ratio(
        site.bus.counter("replication.bytes_shipped"),
        getattr(site, "user_bytes", 0))
    metrics["bench.generator_late_p99_ms"] = (
        p99(bare.late) * 1e3 if len(bare.late) >= P99_MIN_SAMPLES else 0.0)
    metrics["bench.trace_overhead_ratio"] = phase.busy / bare_phase.busy - 1
    metrics["bench.failed_ratio"] = ratio(
        sum(len(c.failures) for c in clients),
        sum(c.attempted for c in clients))
    return metrics, clients


def check_catalogue(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    """Stop the run if it produced other metrics than it declares."""
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        undeclared = sorted(set(metrics) - set(units))
        print(f"run.py: metrics differ from BENCHMARK.json: missing "
              f"{missing}, undeclared {undeclared}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The benchmark's own directory must not shadow anything.
    sys.path[:] = [p for p in sys.path
                   if Path(p or ".").resolve() != ROOT / "perfbench"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.provision import provision
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    material = provision(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        spans = (ROOT / ".perfbench-out"
                 / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics, clients = trace(workload, material, spans)
        units = catalogue("per_layer")
        check_catalogue(metrics, units)
        for name in units:
            mark = "  (count: repeats exactly)" if name in DETERMINISTIC else ""
            print(f"  {name:42s} {metrics[name]:14.6g} {units[name]}{mark}")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, clients, extra = measure(workload, material)
        units = catalogue("end_to_end")
        check_catalogue(metrics, units)
        for name in units:
            print(f"  {name:24s} {metrics[name]:14.6g} {units[name]}")
        for name, value in extra.items():
            unit = "s" if name.endswith("_s") else "1"
            print(f"  {name:24s} {value:14.6g} {unit}")
        from perfbench.loops import clock
        seen = clock.history
        if seen:
            print(f"  host slowness: median {statistics.median(seen):.3f}, "
                  f"range {min(seen):.3f}-{max(seen):.3f} over {len(seen)} "
                  "readings")

    failures = [f for c in clients for f in c.failures]
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": sum(c.attempted for c in clients),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
