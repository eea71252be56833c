"""The load generator's side of the wire.

Every request travels the path of the ``serve`` transport: the client
encodes a JSON request line, the server decodes it with
``ServiceRequest.from_dict``, answers through ``WormService.handle`` and
encodes ``ServiceResponse.to_dict``; the client decodes the answer.  A
request's latency runs from its send time (closed loop) or its due time
(open loop) to the decoded response.  Encoding the request line is the
client's own work and happens before the clock starts.

One process, one thread, one request outstanding at a time.

Every duration the benchmark reports is read from :data:`clock`, a
:class:`HostClock`: wall time rescaled to the speed of a fixed reference
host, so that other tenants of a shared machine slowing it down for
seconds at a time do not show up as changes in the program.
"""

from __future__ import annotations

import base64
import heapq
import json
import random
import resource
import statistics
import time
from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.service import ServiceRequest, ServiceResponse

from perfbench.probes import Tracer

_wall = time.perf_counter

_reference = random.Random(0)
_BLOB = _reference.randbytes(1024)
_MODULUS = _reference.getrandbits(1024) | (1 << 1023) | 1
_BASE, _EXPONENT = _reference.getrandbits(1000), _reference.getrandbits(24)


def reference_task() -> None:
    """A fixed piece of pure-Python work that never touches the program.

    Half of its time is codec-like interpreter work (JSON and base64 of
    1 KiB payloads, small dicts and lists), half big-integer arithmetic
    modulo a 1024-bit number: the two kinds of work the program spends its
    wall time on, which a busy shared host slows by different amounts.
    """
    for index in range(40):
        document = {"operation": "read", "request_id": f"r{index}",
                    "params": {"payload": base64.b64encode(_BLOB).decode(),
                               "tags": [str(tag) for tag in range(8)]}}
        json.loads(json.dumps(document))
    for _ in range(5):
        pow(_BASE, _EXPONENT, _MODULUS)


class HostClock:
    """Wall time rescaled to the speed of a fixed reference host.

    Between requests, at most every ``interval`` wall seconds,
    :meth:`maybe_tick` times :func:`reference_task`.  The host's
    *slowness* is the median of the last three such readings over
    :data:`NOMINAL`, and the clock advances by wall time divided by the
    slowness.  On a shared machine other tenants slow this process by up
    to about 1.8x for seconds at a time; that slows the reference task
    too, so it cancels, while a change to the program does not touch the
    reference task and shows in full.
    The readings themselves are not counted: the clock stands still while
    the task runs, so a reading never lengthens a request, a phase or a
    set-up.
    """

    #: The reference host's time for :func:`reference_task`; it sets the
    #: scale only.  Near the task's median time on a 2-core x86-64 Xeon at
    #: 2.1 GHz with CPython 3.11 (its fastest there was 1.06 ms).
    NOMINAL = 1.4e-3

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.slowness = 1.0
        self.readings: deque = deque(maxlen=3)
        #: Every slowness the run has seen, for its report.
        self.history: List[float] = []
        self._base = 0.0
        self._base_wall = _wall()

    def __call__(self) -> float:
        return self._base + (_wall() - self._base_wall) / self.slowness

    def tick(self) -> None:
        now = self()
        begun = _wall()
        reference_task()
        done = _wall()
        self.readings.append(done - begun)
        self.slowness = statistics.median(self.readings) / self.NOMINAL
        self.history.append(self.slowness)
        self._base, self._base_wall = now, done

    def maybe_tick(self) -> None:
        if _wall() - self._base_wall >= self.interval:
            self.tick()


clock = HostClock()


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

RATELIMIT_HEADERS = ("RateLimit-Limit", "RateLimit-Remaining",
                     "RateLimit-Reset")


def request_line(operation: str, tenant: str, params: Dict[str, object],
                 request_id: str) -> str:
    return json.dumps(ServiceRequest(operation=operation, tenant=tenant,
                                     params=params,
                                     request_id=request_id).to_dict())


def well_formed_429(response: ServiceResponse) -> bool:
    """A coded problem, honest RateLimit headers, and a Retry-After."""
    problem = response.problem
    return (response.status == 429 and problem is not None
            and bool(problem.code) and problem.status == 429
            and problem.type.endswith(problem.code)
            and all(name in response.headers for name in RATELIMIT_HEADERS)
            and "Retry-After" in response.headers)


class Client:
    """Sends requests, keeps latency samples, counts failures."""

    def __init__(self, service, tracer: Optional[Tracer] = None) -> None:
        self.service = service
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.late: List[float] = []
        self.attempted = 0
        self.busy = 0.0
        self.failures: List[str] = []

    def send(self, operation: str, tenant: str, params: Dict[str, object],
             due: Optional[float] = None) -> ServiceResponse:
        """One request; *due* (a ``clock()`` reading) makes it open-loop."""
        self.attempted += 1
        line = request_line(operation, tenant, params, f"r{self.attempted}")
        start = clock()
        if self.tracer is None:
            request = ServiceRequest.from_dict(json.loads(line))
            reply = json.dumps(self.service.handle(request).to_dict())
            response = ServiceResponse.from_dict(json.loads(reply))
        else:
            response = self._send_traced(line)
        done = clock()
        clock.maybe_tick()
        self.busy += done - start
        if due is None:
            self.samples[operation].append(done - start)
        else:
            self.late.append(max(0.0, start - due))
            self.samples[operation].append(done - due)
        if response.status >= 500:
            self.fail(f"{operation} answered {response.status}")
        elif response.status == 429 and not well_formed_429(response):
            self.fail(f"malformed 429: {response.to_dict()}")
        return response

    def _send_traced(self, line: str) -> ServiceResponse:
        tracer = self.tracer
        tracer.request_id = self.attempted
        with tracer.span("request"):
            with tracer.span("service.codec"):
                request = ServiceRequest.from_dict(json.loads(line))
            answer = self.service.handle(request)
            with tracer.span("service.codec"):
                reply = json.dumps(answer.to_dict())
                response = ServiceResponse.from_dict(json.loads(reply))
        tracer.request_id = -1
        return response

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def expect(self, response: ServiceResponse, operation: str,
               statuses: Iterable[int], refusals: Iterable[str] = ()) -> bool:
        """True for a success in *statuses*; refusals coded *refusals*
        are expected (False); anything else is a failure (False)."""
        if response.status in statuses:
            return True
        code = response.problem.code if response.problem else None
        if code not in refusals:
            self.fail(f"{operation} answered {response.status} {code}")
        return False


def wait_until(deadline: float) -> None:
    """Spin until ``clock() >= deadline``, reading the host's speed.

    Spinning rather than sleeping keeps the core busy between requests,
    so an idle gap does not let the processor slow down before the next
    request arrives.  The clock stands still during a reading, so a
    reading never makes a request late.
    """
    while clock() < deadline:
        clock.maybe_tick()


class Schedule:
    """Open-loop event queue in virtual time, paced in wall time.

    Events are ``(virtual_time, kind, data)``; :meth:`run` hands each to
    the caller's handler once its wall-clock due time has come, however
    late the previous event finished.  Handlers may push new events.
    """

    def __init__(self, wall_per_virtual: float) -> None:
        self.wall_per_virtual = wall_per_virtual
        self._heap: List[Tuple[float, int, str, object]] = []
        self._seq = 0

    def push(self, at: float, kind: str, data: object = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, data))

    def run(self, handle) -> float:
        """Drive every event; returns the wall start (``clock()``)."""
        start = clock()
        while self._heap:
            at, _, kind, data = heapq.heappop(self._heap)
            due = start + at * self.wall_per_virtual
            wait_until(due)
            handle(at, kind, data, due)
        return start
