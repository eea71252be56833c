"""The deployed configuration every workload runs on.

Four shards, the paper's window authentication, seed-provisioned
paper-sized keys and a :class:`~repro.obs.TelemetryBus` attached (as
``tenant-bench`` has).  Stores are assembled through the public
constructors — one ``StrongWormStore(config=StoreConfig(scpu=...,
block_store=...))`` per shard, then ``ShardedWormStore(stores, config)``
— so the traced run can hand in probed devices on exactly the same path
the untraced run uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import StoreConfig
from repro.core.sharded import ShardedWormStore
from repro.core.worm import StrongWormStore
from repro.hardware.scpu import SecureCoprocessor
from repro.obs import TelemetryBus
from repro.recovery import (ReplicaSite, ReplicatedIntentJournal,
                            ReplicationPump, ReplicationTransport)
from repro.service import TenantConfig, WormService
from repro.sim.manual_clock import ManualClock
from repro.storage.block_store import MemoryBlockStore
from repro.storage.journal import MemoryIntentJournal

from perfbench.provision import load_ca, load_keyring
from perfbench.probes import TracedBlockStore, TracedScpu, Tracer

SHARDS = 4
AUTH_SCHEME = "windows"
TENANTS = tuple(f"tenant-{i}" for i in range(4))


class _ServiceTime:
    """The verifying client's clock: whatever site the service fronts.

    After :meth:`WormService.promote` the service answers from the
    rebuilt site, and so must the client's freshness checks.
    """

    service: Optional[WormService] = None

    @property
    def now(self) -> float:
        return self.service.now


@dataclass
class Site:
    """One stood-up site and its service.

    Workloads hang their own bookkeeping on it (the ledger of what was
    acknowledged, the corpus, open tickets, ...).
    """

    keyring: object
    ca: object
    bus: TelemetryBus
    service: WormService
    client: object
    pump: Optional[ReplicationPump] = None
    replica: Optional[ReplicaSite] = None

    def advance(self, seconds: float) -> None:
        """Move virtual time (the service's current site) forward."""
        if seconds > 0:
            self.service.store.advance_clocks(seconds)


def build_store(keyring, clock, bus: TelemetryBus, group_commit_size: int,
                journal=None, tracer: Optional[Tracer] = None
                ) -> ShardedWormStore:
    config = StoreConfig(shard_count=SHARDS, auth_scheme=AUTH_SCHEME,
                         group_commit_size=group_commit_size,
                         observe=bus, journal=journal)
    template = config.per_shard()
    stores = []
    for _ in range(SHARDS):
        scpu = SecureCoprocessor(keyring=keyring, clock=clock)
        blocks = MemoryBlockStore()
        if tracer is not None:
            scpu = TracedScpu(scpu, tracer)
            blocks = TracedBlockStore(blocks, tracer)
        stores.append(StrongWormStore(
            config=template.replace(scpu=scpu, block_store=blocks)))
    store = ShardedWormStore(stores, config)
    if tracer is not None:
        tracer.install_sharded(store)
    return store


def build_site(material, tenants: Sequence[TenantConfig],
               group_commit_size: int, replicated: bool = False,
               tracer: Optional[Tracer] = None) -> Site:
    """Load the keys and stand up one site and its service."""
    keyring = load_keyring(material)
    ca = load_ca(material)
    clock = ManualClock()
    bus = TelemetryBus()
    if tracer is not None:
        tracer.install_bus(bus)
    journal = pump = replica = transport = None
    if replicated:
        transport = ReplicationTransport(obs=bus)
        replica = ReplicaSite()
        journal = ReplicatedIntentJournal(MemoryIntentJournal(), transport,
                                          replica, clock=clock, obs=bus)
        if tracer is not None:
            tracer.patch(journal, "append",
                         tracer.wrap("journal.append", journal.append))
    store = build_store(keyring, clock, bus, group_commit_size,
                        journal=journal, tracer=tracer)
    if replicated:
        pump = ReplicationPump(store, transport, replica, ca=ca, obs=bus)
        if tracer is not None:
            tracer.patch(pump, "pump",
                         tracer.wrap("replication.pump", pump.pump))
    service_time = _ServiceTime()
    client = store.make_client(ca, clock=service_time)
    service = WormService(store, tenants=tenants, client=client)
    service_time.service = service
    if tracer is not None:
        tracer.patch(service, "handle",
                     tracer.wrap("service.handle", service.handle))
    return Site(keyring=keyring, ca=ca, bus=bus, service=service,
                client=client, pump=pump, replica=replica)


def drain_replication(site: Site, tick: float = 2.0,
                      cycles: int = 200) -> None:
    """Pump until the standby has acknowledged everything shipped."""
    for _ in range(cycles):
        site.advance(tick)
        site.pump.pump()
        if (site.pump.unacked_count == 0
                and site.pump.transport.in_flight == 0):
            return
    raise RuntimeError("replication did not drain")
