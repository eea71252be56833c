"""Outside-in probes for the traced run: spans, counters and proxies.

Nothing here edits the program.  A :class:`Tracer` wraps the public entry
points of each layer at run start (instance attributes for per-object
entry points, class attributes for the RSA primitives and the client) and
records one span per call: name, start, end, parent span and request id,
in flat arrays kept in memory and written out when the run ends.

The SCPU and the block store are probed through the constructors the
store already offers: :class:`TracedScpu` is an
:class:`~repro.hardware.device.ScpuLike` proxy and
:class:`TracedBlockStore` a :class:`~repro.storage.block_store.BlockStore`,
both handed to ``StoreConfig(scpu=..., block_store=...)``.  The SCPU proxy
keeps the card as ``.inner`` so :func:`repro.perf.crossing_totals` still
finds the card's meter.

A layer's *self time* is its span minus the part covered by its child
spans (:func:`self_times`).
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence

from repro.core.client import WormClient
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.hardware.device import ScpuLike
from repro.storage.block_store import BlockStore

_clock = time.perf_counter

#: Telemetry-bus methods whose calls ``obs.bus_calls`` counts.
BUS_METHODS = ("inc", "observe", "event", "span", "device_charge",
               "counter", "histogram", "gauge_value", "declare_counter",
               "declare_histogram", "register_gauge")


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest (a child starts and ends inside its parent, as calls do on
    one thread), so subtracting direct children's full durations removes
    exactly the interval they cover.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.request_id = -1
        self.counts: Dict[str, float] = {}
        self._restore: List[tuple] = []
        self.clear()

    def clear(self) -> None:
        """Forget everything recorded so far (e.g. spans of the set-up)."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: List[int] = []
        self.counts = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, n: float = 1.0) -> None:
        self.counts[counter] = self.counts.get(counter, 0.0) + n

    # -- recording -------------------------------------------------------------

    def _begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* recording one *name* span per call."""
        name_id = self._id(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, counter: str, fn: Callable) -> Callable:
        """*fn* bumping *counter* per call (counted, not timed)."""
        add = self.add

        def counted(*args, **kwargs):
            add(counter)
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr``; class attributes are restored by :meth:`unpatch`."""
        if isinstance(owner, type):
            self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install_primitives(self) -> None:
        """Class-level probes: RSA sign/verify and the client's proof check."""
        for owner, attr, name in ((RsaPrivateKey, "sign", "rsa.sign"),
                                  (RsaPublicKey, "verify", "rsa.verify"),
                                  (WormClient, "verify_read",
                                   "client.verify_read")):
            self.patch(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def install_bus(self, bus) -> None:
        for method in BUS_METHODS:
            self.patch(bus, method,
                       self.count_calls("obs.bus_calls", getattr(bus, method)))

    def install_sharded(self, store) -> None:
        """Probe a sharded store, its shards and their auth schemes."""
        for method in ("read", "write", "write_batch", "submit", "flush"):
            self.patch(store, method,
                       self.wrap(f"sharded.{method}", getattr(store, method)))
        maintenance = self.wrap("worm.maintenance", store.maintenance)

        def traced_maintenance(*args, **kwargs):
            summary = maintenance(*args, **kwargs)
            self.add("worm.strengthened", summary.get("strengthened", 0))
            return summary

        self.patch(store, "maintenance", traced_maintenance)
        for shard in store.shards:
            self.install_shard(shard)

    def install_shard(self, shard) -> None:
        write = self.wrap("worm.write", shard.write)

        def traced_write(records, *args, **kwargs):
            self.add("worm.records_written", len(records))
            return write(records, *args, **kwargs)

        self.patch(shard, "write", traced_write)
        self.patch(shard, "read", self.wrap("worm.read", shard.read))
        auth = shard.auth
        self.patch(auth, "on_write", self.wrap("auth.on_write", auth.on_write))
        prove = self.wrap("auth.prove", auth.prove)

        def traced_prove(*args, **kwargs):
            status, proof = prove(*args, **kwargs)
            with self.span("bench.probe"):
                self.add("auth.proofs")
                self.add("auth.proof_bytes", auth.proof_size_bytes(proof))
            return status, proof

        self.patch(auth, "prove", traced_prove)

    # -- results ------------------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, object]]:
        """Per span name: call count, inclusive and self seconds, durations."""
        own = self_times(self.start, self.end, self.parent)
        out: Dict[str, Dict[str, object]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                   "durations": []} for name in self.names}
        for index, name_id in enumerate(self.name):
            entry = out[self.names[name_id]]
            duration = self.end[index] - self.start[index]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own[index]
            entry["durations"].append(duration)
        return out

    def under(self, child: str, ancestor: str) -> int:
        """How many *child* spans ran inside some *ancestor* span."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        child_id, ancestor_id = self._ids[child], self._ids[ancestor]
        found = 0
        for index, name_id in enumerate(self.name):
            if name_id != child_id:
                continue
            parent = self.parent[index]
            while parent >= 0 and self.name[parent] != ancestor_id:
                parent = self.parent[parent]
            found += parent >= 0
        return found

    def write(self, path: Path) -> None:
        """Spans as JSON lines: index, name, start, end, parent index and
        request id (-1 outside a request)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, name_id in enumerate(self.name):
                out.write(json.dumps([index, self.names[name_id],
                                      self.start[index], self.end[index],
                                      self.parent[index],
                                      self.request[index]]))
                out.write("\n")


def _scpu_methods() -> List[str]:
    return [name for name, value in vars(ScpuLike).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, property)]


class TracedScpu:
    """``ScpuLike`` proxy: one span per trust-boundary call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        for name in _scpu_methods():
            setattr(self, name, tracer.wrap(f"scpu.{name}",
                                            getattr(inner, name)))

    def __getattr__(self, name: str):
        # Properties (clock, meter, ...) and card-private helpers.
        return getattr(self.inner, name)


class TracedBlockStore(BlockStore):
    """A block store whose ``get`` and ``put`` record spans."""

    def __init__(self, inner: BlockStore, tracer: Tracer) -> None:
        self.inner = inner
        self._get = tracer.wrap("block_store.get", inner.get)
        self._put = tracer.wrap("block_store.put", inner.put)

    def put(self, data: bytes) -> str:
        return self._put(data)

    def get(self, key: str) -> bytes:
        return self._get(key)

    def overwrite(self, key: str, data: bytes) -> None:
        self.inner.overwrite(key, data)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def keys(self):
        return self.inner.keys()

    def size_of(self, key: str) -> int:
        return self.inner.size_of(key)

    def unchecked_overwrite(self, key: str, data: bytes) -> None:
        self.inner.unchecked_overwrite(key, data)
