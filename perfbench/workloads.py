"""The four workloads: set-up, timed phase, correctness, measurements.

Each workload builds its site from seed-provisioned keys, drives its
request stream through the service front door, then checks every answer
it was given (see ``README.md`` for why each workload exists).  Virtual
time moves only by each workload's schedule, so admission outcomes and
every count repeat exactly for a seed; only wall timings vary.

A workload exposes these steps to the runner:

* ``setup(material, tracer)`` — build and pre-populate one site;
* ``drive(site, client, fixed, tracer)`` — the timed phase, returning a
  :class:`Phase`; with ``fixed`` a closed loop sends the short prefix the
  traced and tracing-overhead passes share, instead of the run's full
  amount of work;
* ``verify(site, client)`` — the correctness epilogue;
* ``end_to_end(samples)`` — the end-to-end metrics of the run.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.locator import RecordLocator
from repro.obs import TelemetryBus
from repro.perf import crossing_totals
from repro.recovery import RecoveryStage, SiteRecovery
from repro.service import TenantConfig
from repro.sim.manual_clock import ManualClock

from perfbench.deploy import (TENANTS, Site, build_site, build_store,
                              drain_replication)
from perfbench.loops import Client, Schedule, clock
from perfbench.probes import Tracer
from perfbench.stats import p50, p99

DAY = 86_400.0
HOUR = 3_600.0
LONG_RETENTION = 7 * 365 * DAY


@dataclass
class Phase:
    """What one timed phase did, on both clocks."""

    wall: float = 0.0
    busy: float = 0.0
    requests: int = 0
    records: int = 0
    reads: int = 0
    virtual_s: float = 0.0
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)

    def delta(self, name: str) -> float:
        return self.after.get(name, 0.0) - self.before.get(name, 0.0)

    def close(self, site: "Site", client: "Client", start: float,
              requests: int) -> "Phase":
        """Record the phase's end: wall time, requests and counter deltas."""
        self.wall = clock() - start
        self.requests = requests
        self.busy = client.busy
        self.after = counters(site)
        self.virtual_s = (virtual_seconds(self.after)
                          - virtual_seconds(self.before))
        return self


@dataclass
class Sample:
    """One timed phase, with the client that drove it and the one that
    checked it afterwards (``audit_wall``: the check's wall time)."""

    site: Site
    phase: Phase
    main: Client
    audit: Client
    audit_wall: float


def ms(seconds: float) -> float:
    return seconds * 1e3


def counters(site: Site) -> Dict[str, float]:
    """Counts and virtual seconds of the site the service fronts now.

    Reads meters and counters directly (never through a probe), so a
    traced pass does not count its own bookkeeping.
    """
    store = site.service.store
    crossings, crossed = crossing_totals(store)
    out = {"scpu.crossings": float(crossings), "scpu.bytes": float(crossed)}
    for device in ("scpu", "host", "disk"):
        out[f"{device}.virtual_s"] = 0.0
        out[f"{device}.charges"] = 0.0
    for shard in store.shards:
        for device in ("scpu", "host", "disk"):
            meter = getattr(shard, device).meter
            out[f"{device}.virtual_s"] += meter.total_seconds
            out[f"{device}.charges"] += meter.operation_count
    out["client.memo_hits"] = float(site.client.sig_cache_hits)
    out["client.memo_misses"] = float(site.client.sig_cache_misses)
    # Class-level calls: a traced pass counts calls on the bus instance.
    for name in ("service.requests", "service.deferred", "service.rejected",
                 "replication.bytes_shipped"):
        out[name] = TelemetryBus.counter(site.bus, name)
    wait = TelemetryBus.histogram(site.bus, "service.defer_wait_seconds")
    out["service.defer_waits"] = float(wait.count) if wait else 0.0
    out["service.defer_wait_s"] = wait.total if wait else 0.0
    return out


def virtual_seconds(snapshot: Dict[str, float]) -> float:
    return sum(snapshot[f"{d}.virtual_s"] for d in ("scpu", "host", "disk"))


class Workload:
    name = ""
    #: Requests in the fixed prefix the traced passes send.
    trace_requests = 0
    #: Set-ups per run; ``setup_s`` is their median.  Cheap set-ups are
    #: repeated more, since a single one is a few tens of milliseconds.
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}-{purpose}-{self.seed}")

    def requests(self, fixed: bool) -> int:
        """How many requests a closed-loop timed phase sends.

        A fixed amount of work, in proportion to ``seconds``, rather than
        as many requests as fit in ``seconds``: the program keeps per-
        operation records, so its memory and garbage-collection work grow
        with the requests served, and a time-bound run would turn every
        change in speed into a change in that work too.
        """
        if fixed:
            return self.trace_requests
        return max(round(self.REQUESTS_PER_SECOND * self.seconds),
                   self.MIN_REQUESTS)


# ----------------------------------------------------------------- ingest


class Ingest(Workload):
    """Closed loop of writes over four tenants (the paper's write path)."""

    name = "ingest"
    trace_requests = 1000
    setup_repeats = 9
    REQUESTS_PER_SECOND = 200  # about one second of work each, per second
    MIN_REQUESTS = 1300        # enough single writes for a p99
    GROUP_COMMIT = 8
    PUMP_EVERY = 32          # requests between replication cycles
    #: Virtual seconds between requests.  At one a second each shard
    #: re-signs its window statement (every 120 virtual seconds) on about
    #: one write in 30: those writes carry a third signature and make up
    #: the write tail.
    STEP = 1.0
    BATCH_SHARE = 0.15
    BATCH = 8
    SIZES = (512, 1024, 4096)

    def setup(self, material, tracer: Optional[Tracer] = None) -> Site:
        # Admission sized so that every write is accepted.
        tenants = [TenantConfig(name, rate=1e9, burst=10 ** 9)
                   for name in TENANTS]
        site = build_site(material, tenants, self.GROUP_COMMIT,
                          replicated=True, tracer=tracer)
        site.ledger = {}
        site.user_bytes = 0
        return site

    def drive(self, site: Site, client: Client, fixed: bool,
              tracer: Optional[Tracer] = None) -> Phase:
        rng = self.rng("requests")
        phase = Phase(before=counters(site))
        start = clock()
        for sent in range(1, self.requests(fixed) + 1):
            tenant = rng.choice(TENANTS)
            count = self.BATCH if rng.random() < self.BATCH_SHARE else 1
            payloads = [rng.randbytes(rng.choice(self.SIZES))
                        for _ in range(count)]
            params = {"retention_seconds": LONG_RETENTION}
            if count == 1:
                operation = "write"
                params["payload"] = payloads[0]
            else:
                operation = "write_batch"
                params["payloads"] = payloads
            response = client.send(operation, tenant, params)
            if client.expect(response, operation, (201,)):
                body = response.body
                locators = body.get("locators") or [body["locator"]]
                if len(locators) != count:
                    client.fail(f"{operation} acknowledged {len(locators)} "
                                f"of {count} records")
                site.ledger.update(zip(locators, payloads))
                site.user_bytes += sum(map(len, payloads))
                phase.records += len(locators)
            site.advance(self.STEP)
            if sent % self.PUMP_EVERY == 0:
                site.pump.pump()
        return phase.close(site, client, start, sent)

    def verify(self, site: Site, client: Client) -> None:
        site.service.flush()
        drain_replication(site)
        read_back(site, client, site.ledger.items())
        check_books(site, client)

    def end_to_end(self, samples: List[Sample]) -> Dict[str, float]:
        (sample,) = samples
        phase, writes = sample.phase, sample.main.samples["write"]
        # Ingest makes no reads while timed: its read latencies are those
        # of the read-back that checks every acknowledged write.
        reads = sample.audit.samples
        return {
            "ops_per_s": phase.requests / phase.wall,
            "records_per_s": phase.records / phase.wall,
            "write_p50_ms": ms(p50(writes)),
            "write_p99_ms": ms(p99(writes)),
            "read_p50_ms": ms(p50(reads["read"])),
            "read_verified_p50_ms": ms(p50(reads["read_verified"])),
            "read_verified_p99_ms": ms(p99(reads["read_verified"])),
            "virtual_records_per_s": phase.records / phase.virtual_s,
        }


def read_back(site: Site, client: Client, ledger, step: float = 0.0) -> None:
    """Every acknowledged write reads back byte-identical and verifies."""
    for locator, payload in ledger:
        tenant = locator.split("/", 1)[0]
        for operation in ("read", "read_verified"):
            site.advance(step)
            response = client.send(operation, tenant, {"locator": locator})
            if not client.expect(response, operation, (200,)):
                continue
            if response.body["payload"] != payload:
                client.fail(f"{operation} {locator}: payload mismatch")
            if response.body["status"] != "active":
                client.fail(f"{operation} {locator}: "
                            f"{response.body['status']}")


def check_books(site: Site, client: Client) -> None:
    for problem in site.service.reconcile():
        client.fail(f"reconcile: {problem}")
    if site.service.store.pending_count:
        client.fail(f"{site.service.store.pending_count} records still "
                    "pending after the drain")


# ------------------------------------------------------------- audit-read


class AuditRead(Workload):
    """Closed loop of verified and unverified reads over a fixed corpus.

    16,384 x 1 KiB records in 512 VRs of 32: about 1,000 distinct
    signatures, four times the client's 256-entry verified-signature
    memo, so roughly half the proof checks miss it.
    """

    name = "audit-read"
    trace_requests = 3000
    REQUESTS_PER_SECOND = 1000
    MIN_REQUESTS = 3000
    VRS = 512
    PER_VR = 32
    RECORD = 1024
    STEP = 0.001             # virtual seconds between requests

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        #: Corpus-load measurements of every set-up in this run.
        self.load_latencies: List[float] = []
        self.load_rates: List[float] = []

    def setup(self, material, tracer: Optional[Tracer] = None) -> Site:
        tenants = [TenantConfig(name, rate=1e9, burst=10 ** 9)
                   for name in TENANTS]
        site = build_site(material, tenants, self.PER_VR, tracer=tracer)
        rng = self.rng("corpus")
        loader = Client(site.service)
        before = virtual_seconds(counters(site))
        start = clock()
        site.corpus = []
        for index in range(self.VRS):
            tenant = TENANTS[index % len(TENANTS)]
            payloads = [rng.randbytes(self.RECORD)
                        for _ in range(self.PER_VR)]
            response = loader.send("write_batch", tenant, {
                "payloads": payloads, "retention_seconds": LONG_RETENTION})
            if not loader.expect(response, "write_batch", (201,)):
                raise RuntimeError(f"corpus load failed: {loader.failures}")
            site.corpus.extend(zip([tenant] * self.PER_VR,
                                   response.body["locators"], payloads))
            site.advance(self.STEP)
        wall = clock() - start
        records = self.VRS * self.PER_VR
        self.load_latencies.extend(loader.samples["write_batch"])
        self.load_rates.append(records / wall)
        site.load_virtual_rate = records / (
            virtual_seconds(counters(site)) - before)
        return site

    def drive(self, site: Site, client: Client, fixed: bool,
              tracer: Optional[Tracer] = None) -> Phase:
        rng = self.rng("reads")
        phase = Phase(before=counters(site))
        start = clock()
        for sent in range(1, self.requests(fixed) + 1):
            tenant, locator, payload = site.corpus[
                rng.randrange(len(site.corpus))]
            operation = "read_verified" if rng.random() < 0.5 else "read"
            response = client.send(operation, tenant, {"locator": locator})
            if client.expect(response, operation, (200,)):
                if response.body["payload"] != payload:
                    client.fail(f"{operation} {locator}: payload mismatch")
                if response.body["status"] != "active":
                    client.fail(f"{operation} {locator}: inactive")
            site.advance(self.STEP)
        phase.reads = sent
        return phase.close(site, client, start, sent)

    def verify(self, site: Site, client: Client) -> None:
        # The corpus is checked one VR at a time against the store (every
        # record of every VR, and every VR's proof): reading 16,384
        # records through the service would take longer than the run.
        store = site.service.store
        by_vr: Dict[Tuple[int, int], Dict[int, bytes]] = {}
        for _, locator, payload in site.corpus:
            resolved = RecordLocator.unpack(locator.split("/", 1)[1])
            by_vr.setdefault((resolved.shard_id, resolved.sn), {})[
                resolved.record_index] = payload
        for (shard_id, sn), records in by_vr.items():
            result = store.shard(shard_id).read(sn)
            verified = site.client.verify_read(result, sn)
            if verified.status != "active":
                client.fail(f"VR {shard_id}:{sn} is {verified.status}")
            for index, payload in records.items():
                if result.records[index] != payload:
                    client.fail(f"record {shard_id}:{sn}:{index} differs")
        check_books(site, client)

    def end_to_end(self, samples: List[Sample]) -> Dict[str, float]:
        (sample,) = samples
        phase, reads = sample.phase, sample.main.samples
        # Audit-read writes only while loading its corpus: its write and
        # record rates are those of the load, over every set-up.
        return {
            "ops_per_s": phase.requests / phase.wall,
            "records_per_s": p50(self.load_rates),
            "write_p50_ms": ms(p50(self.load_latencies)),
            "write_p99_ms": ms(p99(self.load_latencies)),
            "read_p50_ms": ms(p50(reads["read"])),
            "read_verified_p50_ms": ms(p50(reads["read_verified"])),
            "read_verified_p99_ms": ms(p99(reads["read_verified"])),
            "virtual_records_per_s": sample.site.load_virtual_rate,
        }


# --------------------------------------------------------- compliance-day


class ComplianceDay(Workload):
    """One virtual day, compressed into ``seconds`` of wall time, open loop.

    Three tenants send the day's traffic at a diurnal rate, as sessions
    that arrive on a schedule: a strong write, then verified and plain
    reads of a hot set of recent records that fits the memo.  Every
    seventh write has a short retention and is expired when it runs out.
    The fourth tenant, an archiver with a small admission rate, bursts
    weak writes: writes beyond its bucket defer (202, redeemed later), and
    past its backlog cap get a 429 that the client retries after
    Retry-After, doubled on each repeat.  Every 15 virtual minutes a
    group-commit flush and one maintenance slice (strengthening, refresh,
    expiry) run on the same thread.  Each tenant's client redeems its
    tickets one at a time.
    """

    name = "compliance-day"
    setup_repeats = 5
    GROUP_COMMIT = 8
    #: Relative session rate per hour of the day.  The day is compressed
    #: about 4,000-fold and the p99s need 1,000 writes and 1,000 verified
    #: reads, so the diurnal swing is mild.
    HOURLY = (0.8, 0.8, 0.8, 0.8, 0.8, 0.9, 1.0, 1.1, 1.2, 1.2, 1.2, 1.2,
              1.2, 1.2, 1.2, 1.2, 1.2, 1.1, 1.0, 1.0, 0.9, 0.9, 0.8, 0.8)
    SESSIONS = 1010          # normal sessions over the day, one write each
    VERIFIED_PER_SESSION = 2.24
    READS_PER_SESSION = 0.26
    SHORT_EVERY = 7          # every seventh normal write expires soon
    SHORT_RETENTION = 2 * HOUR
    LAST_SHORT_HOUR = 19     # so every short record expires before the burst
    NORMAL = TENANTS[:3]
    ARCHIVER = TENANTS[3]
    BURST_AT = 22 * HOUR
    BURST_SECONDS = 600.0
    BURST_WRITES = 40        # against the archiver's 8-token bucket
    SLICE_EVERY = 900.0
    HOT_SET = 64             # 64 one-record VRs: ~128 signatures < memo
    RECORD = 1024

    def tenant_configs(self) -> List[TenantConfig]:
        normal = [TenantConfig(name, rate=0.1, burst=16) for name in
                  self.NORMAL]
        return normal + [TenantConfig(self.ARCHIVER, rate=1 / 180.0,
                                      burst=8, max_deferred=16)]

    def setup(self, material, tracer: Optional[Tracer] = None) -> Site:
        site = build_site(material, self.tenant_configs(), self.GROUP_COMMIT,
                          tracer=tracer)
        rng = self.rng("hot-set")
        loader = Client(site.service)
        site.hot = deque(maxlen=self.HOT_SET)
        site.durable = {}       # scoped locator -> payload (long retention)
        site.expiring = {}      # scoped locator -> payload (short retention)
        for index in range(self.HOT_SET):
            tenant = self.NORMAL[index % len(self.NORMAL)]
            payload = rng.randbytes(self.RECORD)
            response = loader.send("write", tenant, {
                "payload": payload, "retention_seconds": LONG_RETENTION})
            if not loader.expect(response, "write", (201,)):
                raise RuntimeError(f"hot-set load failed: {loader.failures}")
            site.hot.append((tenant, response.body["locator"], payload))
            site.durable[response.body["locator"]] = payload
            site.advance(10.0)
        site.loader = loader
        site.advance(HOUR)  # refill the buckets before the day starts
        return site

    def _arrivals(self) -> List[Tuple[float, str, object]]:
        """The day's events: timing and mix fixed, contents seeded.

        Sessions are paced evenly within each hour at that hour's rate,
        with the reads spread evenly over them; the seed picks tenants,
        payloads and read targets.  A session's write is timed from the
        session's due time, so anything that stalls the thread delays it;
        its reads follow back to back and are timed from their own send,
        so they measure the read path rather than the host's caches going
        cold between sessions.  Keeping the shape of the day fixed keeps
        seeds comparable.
        """
        rng = self.rng("arrivals")
        total = sum(self.HOURLY)
        events = []
        writes = verified = reads = 0
        for hour, weight in enumerate(self.HOURLY):
            count = round(self.SESSIONS * weight / total)
            for index in range(count):
                writes += 1
                short = (hour <= self.LAST_SHORT_HOUR
                         and writes % self.SHORT_EVERY == 0)
                follow = []
                while verified < writes * self.VERIFIED_PER_SESSION - 0.5:
                    verified += 1
                    follow.append(("read_verified", rng.random()))
                while reads < writes * self.READS_PER_SESSION - 0.5:
                    reads += 1
                    follow.append(("read", rng.random()))
                events.append(((hour + (index + 0.5) / count) * HOUR,
                               "session", ((rng.choice(self.NORMAL),
                                            rng.randbytes(self.RECORD),
                                            "strong", short), follow)))
        for index in range(self.BURST_WRITES):
            t = self.BURST_AT + (index + 0.5) / self.BURST_WRITES \
                * self.BURST_SECONDS
            events.append((t, "write", (self.ARCHIVER,
                                        rng.randbytes(self.RECORD), "weak",
                                        False)))
        slices = int(DAY / self.SLICE_EVERY)
        events.extend(((i + 1) * self.SLICE_EVERY - 1.0, "slice", None)
                      for i in range(slices))
        return events

    def drive(self, site: Site, client: Client, fixed: bool,
              tracer: Optional[Tracer] = None) -> Phase:
        schedule = Schedule(self.seconds / DAY)
        for at, kind, data in self._arrivals():
            schedule.push(at, kind, data)
        day0 = site.service.now
        service = site.service
        # Per tenant: tickets awaiting redemption, oldest first, and
        # whether that tenant's redeem is already scheduled.
        tickets = {tenant: deque() for tenant in TENANTS}
        redeeming = set()
        phase = Phase(before=counters(site))

        refusals: Dict[int, int] = {}
        slices: List[float] = []  # time of each maintenance slice

        def later(at: float, kind: str, data: object) -> None:
            # The day ends on time; what is left over (tickets, refused
            # writes) is settled by verify().
            if at < DAY:
                schedule.push(at, kind, data)

        def retry_refused(response, at, kind, data) -> None:
            """Honour Retry-After, doubling it on each repeated refusal."""
            if response.status != 429:
                refusals.pop(id(data), None)
                return
            count = refusals.get(id(data), 0)
            refusals[id(data)] = count + 1
            delay = float(response.headers["Retry-After"]) * 2 ** min(count, 4)
            later(at + delay, kind, data)

        def write(at, data, due):
            tenant, payload, strength, short = data
            retention = self.SHORT_RETENTION if short else LONG_RETENTION
            response = client.send("write", tenant, {
                "payload": payload, "retention_seconds": retention,
                "strength": strength}, due=due)
            if response.status == 201:
                self._file(site, schedule, at, tenant,
                           response.body["locator"], payload, short)
                phase.records += 1
            elif response.status == 202:
                tickets[tenant].append((response.body["ticket"], payload,
                                        short))
                if tenant not in redeeming:
                    redeeming.add(tenant)
                    later(at + self.SLICE_EVERY, "redeem", tenant)
            else:
                client.expect(response, "write", (), ("backlog-full",))
                retry_refused(response, at, "write", data)

        def read(kind, pick):
            tenant, locator, payload = site.hot[int(pick * len(site.hot))]
            response = client.send(kind, tenant, {"locator": locator})
            phase.reads += 1
            if (client.expect(response, kind, (200,))
                    and response.body["payload"] != payload):
                client.fail(f"{kind} {locator}: payload mismatch")

        def redeem(at, tenant, due):
            ticket, payload, short = tickets[tenant][0]
            response = client.send("redeem", tenant, {"ticket": ticket},
                                   due=due)
            if response.status == 200:
                refusals.pop(id(tenant), None)
                tickets[tenant].popleft()
                self._file(site, schedule, at, tenant,
                           response.body["locator"], payload, short)
                phase.records += 1
                if tickets[tenant]:
                    later(at + 1.0, "redeem", tenant)
                else:
                    redeeming.discard(tenant)
            elif response.status == 202:  # not group-committed yet
                later(at + self.SLICE_EVERY, "redeem", tenant)
            else:
                client.expect(response, "redeem", (), ("rate-limited",))
                retry_refused(response, at, "redeem", tenant)

        def expire(at, data, due):
            tenant, locator = data
            response = client.send("expire", tenant, {"locator": locator},
                                   due=due)
            if (client.expect(response, "expire", (200,), ("rate-limited",))
                    and response.body["outcome"] not in ("deleted",
                                                         "already")):
                client.fail(f"expire {locator}: {response.body['outcome']}")
            retry_refused(response, at, "expire", data)

        def handle(at, kind, data, due):
            site.advance(day0 + at - service.now)
            if kind == "session":
                first, follow = data
                write(at, first, due)
                for read_kind, pick in follow:
                    read(read_kind, pick)
            elif kind == "write":
                write(at, data, due)
            elif kind == "redeem":
                redeem(at, data, due)
            elif kind == "expire":
                expire(at, data, due)
            else:
                begun = clock()
                service.flush()
                service.store.maintenance()
                slices.append(clock() - begun)

        requests_before = client.attempted
        start = schedule.run(handle)
        phase.close(site, client, start, client.attempted - requests_before)
        phase.busy += sum(slices)
        site.tickets = [(tenant, *entry)
                        for tenant, queue in tickets.items()
                        for entry in queue]
        return phase

    def _file(self, site: Site, schedule: Schedule, at: float, tenant: str,
              locator: str, payload: bytes, short: bool) -> None:
        if short:
            site.expiring[locator] = payload
            if at + self.SHORT_RETENTION < DAY:
                schedule.push(at + self.SHORT_RETENTION + 1.0, "expire",
                              (tenant, locator))
        else:
            site.durable[locator] = payload
            if tenant in self.NORMAL:
                site.hot.append((tenant, locator, payload))

    def verify(self, site: Site, client: Client) -> None:
        service = site.service
        service.flush()
        for tenant, ticket, payload, short in site.tickets:
            while True:
                response = client.send("redeem", tenant, {"ticket": ticket})
                if response.status != 429:
                    break
                site.advance(float(response.headers["Retry-After"]))
            if client.expect(response, "redeem", (200,)):
                # Short-retention records redeemed this late may already
                # have expired; they are checked for their deletion proof.
                held = site.expiring if short else site.durable
                held[response.body["locator"]] = payload
        # Checked against the store: the day's buckets would make a full
        # read-back through the service a long wait in virtual time.
        store = service.store
        for locator, payload in site.durable.items():
            resolved = RecordLocator.unpack(locator.split("/", 1)[1])
            result = store.read(resolved)
            verified = site.client.verify_read(result, resolved.sn)
            if (verified.status != "active"
                    or result.records[resolved.record_index] != payload):
                client.fail(f"{locator}: lost or altered")
        for locator in site.expiring:
            resolved = RecordLocator.unpack(locator.split("/", 1)[1])
            verified = site.client.verify_read(store.read(resolved),
                                               resolved.sn)
            if verified.status != "deleted":
                client.fail(f"{locator}: {verified.status}, not deleted")
        check_books(site, client)

    def end_to_end(self, samples: List[Sample]) -> Dict[str, float]:
        (sample,) = samples
        phase, main = sample.phase, sample.main.samples
        # The schedule fixes the day's wall time, so the rates are taken
        # over the time the thread spent serving: requests, flushes and
        # maintenance slices.
        return {
            "ops_per_s": phase.requests / phase.busy,
            "records_per_s": phase.records / phase.busy,
            "write_p50_ms": ms(p50(main["write"])),
            "write_p99_ms": ms(p99(main["write"])),
            "read_p50_ms": ms(p50(main["read"])),
            "read_verified_p50_ms": ms(p50(main["read_verified"])),
            "read_verified_p99_ms": ms(p99(main["read_verified"])),
            "virtual_records_per_s": phase.records / phase.virtual_s,
        }


# ---------------------------------------------------------- site-recovery


class SiteLoss(Workload):
    """The primary site is lost and rebuilt on a standby.

    Set-up ingests through the service with the replicated journal and
    pump (writes defer into group commit, so the dead site leaves a
    pending tail and open tickets), drains the pump and drops the
    primary.  Timed: a fresh standby, ``SiteRecovery.step()`` through
    every stage, ``WormService.promote`` and the promoted service's first
    verified read.
    """

    name = "site-recovery"
    SECONDS_PER_DRILL = 5.0    # about one drill's wall time
    GROUP_COMMIT = 8
    RECORDS = 2048
    RECORD = 1024
    PUMP_EVERY = 64
    STEP = 0.0005            # virtual seconds between ingest writes
    READ_STEP = 0.1          # one admission token per request afterwards
    RATE = 10.0

    def drills(self) -> int:
        """Drills per run: in proportion to ``seconds``, at least three."""
        return max(3, round(self.seconds / self.SECONDS_PER_DRILL))

    def setup(self, material, tracer: Optional[Tracer] = None) -> Site:
        # A bucket this small defers nearly every write into group commit.
        tenants = [TenantConfig(name, rate=self.RATE, burst=1,
                                max_deferred=64) for name in TENANTS]
        site = build_site(material, tenants, self.GROUP_COMMIT,
                          replicated=True, tracer=tracer)
        rng = self.rng("ingest")
        loader = Client(site.service)
        site.ledger = {}
        site.tickets = {}
        # A seed-chosen tail below one group commit is left pending.
        records = self.RECORDS + 1 + self.seed % (self.GROUP_COMMIT - 1)
        for sent in range(1, records + 1):
            tenant = rng.choice(TENANTS)
            payload = rng.randbytes(self.RECORD)
            response = loader.send("write", tenant, {
                "payload": payload, "retention_seconds": LONG_RETENTION})
            if response.status == 201:
                site.ledger[response.body["locator"]] = payload
            elif loader.expect(response, "write", (202,)):
                site.tickets[response.body["ticket"]] = (tenant, payload)
            site.advance(self.STEP)
            if sent % self.PUMP_EVERY == 0:
                site.pump.pump()
        if loader.failures or not site.ledger:
            raise RuntimeError(f"ingest failed: {loader.failures}")
        drain_replication(site)
        site.records = records
        site.user_bytes = records * self.RECORD
        site.loader = loader
        site.pump = None  # the primary site is gone
        return site

    def drive(self, site: Site, client: Client, fixed: bool,
              tracer: Optional[Tracer] = None) -> Phase:
        service = site.service
        # The standby's meters start at zero; the bus and client carry on.
        phase = Phase(before={
            name: value for name, value in counters(site).items()
            if name.split(".")[0] not in ("scpu", "host", "disk")})
        start = clock()
        standby = build_store(site.keyring, ManualClock(service.now),
                              site.bus, self.GROUP_COMMIT, tracer=tracer)
        recovery = SiteRecovery(site.replica, standby, site.ca, obs=site.bus)
        while recovery.stage != RecoveryStage.DONE:
            clock.maybe_tick()
            if tracer is None:
                recovery.step()
            else:
                with tracer.span(f"recovery.{recovery.stage}"):
                    recovery.step()
        report = recovery.report()
        service.promote(standby, report)
        site.advance(self.READ_STEP)
        locator, payload = next(iter(site.ledger.items()))
        response = client.send("read_verified", locator.split("/", 1)[0],
                               {"locator": locator})
        phase.wall = clock() - start
        if (client.expect(response, "read_verified", (200,))
                and response.body["payload"] != payload):
            client.fail("first verified read: payload mismatch")
        if not report.complete or report.unverifiable:
            client.fail(f"recovery incomplete: {report.unverifiable}")
        phase.requests = phase.reads = 1
        phase.busy = phase.wall
        phase.records = site.records
        phase.after = counters(site)
        phase.virtual_s = report.rto_seconds
        return phase

    def verify(self, site: Site, client: Client) -> None:
        """No acknowledged write is lost: redeem every ticket the dead
        site issued, then read back and verify every record."""
        ledger = dict(site.ledger)
        for ticket, (tenant, payload) in site.tickets.items():
            site.advance(self.READ_STEP)
            response = client.send("redeem", tenant, {"ticket": ticket})
            if client.expect(response, "redeem", (200,)):
                ledger[response.body["locator"]] = payload
        if len(ledger) != site.records:
            client.fail(f"{site.records - len(ledger)} acknowledged "
                        "writes lost")
        read_back(site, client, ledger.items(), step=self.READ_STEP)
        check_books(site, client)

    def end_to_end(self, samples: List[Sample]) -> Dict[str, float]:
        # Every drill contributes: its set-up ingest's writes, its timed
        # recovery, and the read-back through the promoted service.
        writes = [t for s in samples for t in s.site.loader.samples["write"]]
        reads = [t for s in samples for t in s.audit.samples["read"]]
        verified = [t for s in samples
                    for t in s.audit.samples["read_verified"]]
        recovery_s = p50([s.phase.wall for s in samples])
        phase = samples[0].phase
        return {
            "ops_per_s": (sum(s.audit.attempted for s in samples)
                          / sum(s.audit_wall for s in samples)),
            "records_per_s": phase.records / recovery_s,
            "write_p50_ms": ms(p50(writes)),
            "write_p99_ms": ms(p99(writes)),
            "read_p50_ms": ms(p50(reads)),
            "read_verified_p50_ms": ms(p50(verified)),
            "read_verified_p99_ms": ms(p99(verified)),
            "virtual_records_per_s": phase.records / phase.virtual_s,
        }


WORKLOADS = {cls.name: cls for cls in (Ingest, AuditRead, ComplianceDay,
                                       SiteLoss)}
