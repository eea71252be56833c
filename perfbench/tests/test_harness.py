"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import time

import pytest

from repro.service import ServiceResponse

from perfbench import loops, probes
from perfbench.layers import per_layer
from perfbench.loops import Client, HostClock, Schedule
from perfbench.probes import Tracer, self_times
from perfbench.provision import provision
from perfbench.run import DETERMINISTIC, ROOT, catalogue
from perfbench.stats import (P99_MIN_SAMPLES, TooFewSamples, p50, p99,
                             percentile)
from perfbench.workloads import ComplianceDay, Ingest, Phase, counters


# ------------------------------------------------------------- percentiles

def test_nearest_rank_percentiles():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert percentile(values, 100) == 1000
    assert p50([3.0, 1.0, 2.0]) == 2.0


def test_p99_needs_its_minimum_sample_count():
    with pytest.raises(TooFewSamples):
        p99([1.0] * (P99_MIN_SAMPLES - 1))
    assert p99([1.0] * P99_MIN_SAMPLES) == 1.0
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_p99_is_the_median_of_chunk_p99s():
    # A burst of 40 slow samples in the first of three chunks: 1.3% of
    # the run, enough to move a plain p99, but only one chunk's.
    burst = [50.0] * 40 + [1.0] * 960
    values = burst + [1.0] * 1000 + [1.0] * 1000
    assert percentile(values, 99) == 50.0
    assert p99(values) == 1.0
    # A slow path present all the time moves every chunk, so it shows.
    steady = ([2.0] * 20 + [1.0] * 980) * 3
    assert p99(steady) == 2.0
    # One chunk below two full ones: the plain p99.
    assert p99(burst + [1.0] * 500) == percentile(burst + [1.0] * 500, 99)


# ------------------------------------------------- open-loop due-time latency

class _StallingService:
    """Answers at once, except that the first request stalls."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    def handle(self, request):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        return ServiceResponse(status=200, headers={}, body={},
                               request_id=request.request_id)


def test_open_loop_latency_counts_from_the_due_time(monkeypatch):
    # Plain wall time: no host-speed readings during the test.
    monkeypatch.setattr(loops, "clock", HostClock(interval=float("inf")))
    stall = 0.05
    client = Client(_StallingService(stall))
    schedule = Schedule(wall_per_virtual=0.005)  # one event every 5 ms
    for at in range(5):
        schedule.push(float(at), "read")

    def handle(at, kind, data, due):
        client.send("read", "tenant-0", {"locator": "x"}, due=due)

    schedule.run(handle)
    latencies, late = client.samples["read"], client.late
    # Requests due during the stall started late, and their latency
    # includes that wait: it is measured from the due time.
    assert late[0] < stall / 2
    assert all(wait > stall - 0.005 * at - 0.002
               for at, wait in enumerate(late[1:4], start=1))
    assert all(lat >= wait for lat, wait in zip(latencies, late))
    assert latencies[1] > stall - 0.005 - 0.002
    # A closed-loop send would have timed only the service time.
    closed = Client(_StallingService(0.0))
    closed.send("read", "tenant-0", {"locator": "x"})
    assert closed.samples["read"][0] < stall / 2 and not closed.late


def test_malformed_429_counts_as_a_failure():
    class Refusing:
        def handle(self, request):
            return ServiceResponse(status=429, headers={}, problem=None,
                                   request_id=request.request_id)

    client = Client(Refusing())
    client.send("write", "tenant-0", {"payload": b"x"})
    assert client.failures and "malformed 429" in client.failures[0]


# -------------------------------------------------------------- host clock

def test_host_clock_rescales_by_the_reference_task(monkeypatch):
    wall = [0.0]
    monkeypatch.setattr(loops, "_wall", lambda: wall[0])

    def half_speed_task():
        wall[0] += 2 * HostClock.NOMINAL

    monkeypatch.setattr(loops, "reference_task", half_speed_task)
    clock = HostClock(interval=0.1)
    wall[0] = 0.05
    clock.maybe_tick()  # too soon for a reading
    assert clock() == 0.05 and not clock.history
    wall[0] = 0.1
    clock.maybe_tick()
    assert clock.slowness == pytest.approx(2.0)
    # The reading itself is not counted ...
    assert clock() == pytest.approx(0.1)
    # ... and wall time now counts half, as on a host twice as fast.
    wall[0] += 0.2
    assert clock() == pytest.approx(0.2)


# ---------------------------------------------------------- metric catalogue

def test_metric_names_agree_with_benchmark_json():
    per_layer_names = catalogue("per_layer")
    assert set(per_layer(Tracer(), Phase())) <= set(per_layer_names)
    assert set(DETERMINISTIC) <= set(per_layer_names)
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for name in [*catalogue("end_to_end"), *per_layer_names]:
        assert f"`{name}`" in readme, name


# ----------------------------------------------------------- span self time

def test_self_time_subtracts_direct_children():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 7]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_records_nested_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(probes, "_clock", lambda: float(next(ticks)))
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    tracer.request_id = 7
    outer()
    spans = tracer.aggregate()
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert spans["outer"]["calls"] == 1 and spans["inner"]["calls"] == 2
    assert spans["outer"]["total_s"] == 5.0
    assert spans["outer"]["self_s"] == 3.0
    assert spans["inner"]["self_s"] == 2.0
    assert list(tracer.request) == [7, 7, 7]
    assert tracer.under("inner", "outer") == 2


def test_class_probes_are_restored():
    from repro.crypto.rsa import RsaPrivateKey
    original = RsaPrivateKey.__dict__["sign"]
    tracer = Tracer()
    tracer.install_primitives()
    assert RsaPrivateKey.__dict__["sign"] is not original
    tracer.unpatch()
    assert RsaPrivateKey.__dict__["sign"] is original


# ------------------------------------------------------ seed determinism

class _ShortIngest(Ingest):
    trace_requests = 24


@pytest.fixture(scope="module")
def material():
    return provision(5)


def test_provisioning_is_a_function_of_the_seed(material):
    assert provision(5) == material
    assert provision(6)["s"] != material["s"]


def test_same_seed_same_request_stream():
    day = ComplianceDay(3, 15.0)._arrivals()
    assert day == ComplianceDay(3, 15.0)._arrivals()
    assert day != ComplianceDay(4, 15.0)._arrivals()


def _traced_ingest(material):
    tracer = Tracer()
    tracer.install_primitives()
    try:
        workload = _ShortIngest(5, 1.0)
        site = workload.setup(material, tracer)
        client = Client(site.service, tracer)
        tracer.clear()
        phase = workload.drive(site, client, fixed=True, tracer=tracer)
        metrics = per_layer(tracer, phase)
    finally:
        tracer.unpatch()
    return site, phase, metrics


def test_same_seed_same_counts(material):
    first_site, first, first_metrics = _traced_ingest(material)
    second_site, second, second_metrics = _traced_ingest(material)
    assert list(first_site.ledger.values()) == list(
        second_site.ledger.values())
    for name in ("scpu.crossings", "scpu.bytes", "scpu.virtual_s",
                 "disk.charges", "disk.virtual_s", "host.virtual_s"):
        assert first.delta(name) == second.delta(name), name
    for name in DETERMINISTIC:
        if name in first_metrics:
            assert first_metrics[name] == second_metrics[name], name
    assert first_metrics["rsa.signs_per_record"] > 0
    assert counters(first_site)["scpu.crossings"] > 0
