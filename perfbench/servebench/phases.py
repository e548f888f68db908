"""The measured phases: an open loop and a one-client closed loop.

The open loop is this thread alone, sending each query at its scheduled
Poisson time regardless of completions; every query is timed from its
*scheduled* send, so a stall also charges the queries it delayed.  The
closed loop is one client that sends its next event only after the
previous one completed.  On the streaming workload both loops send an
update only once every earlier query has completed; the engine serves
every later query after the update, so every query's graph version is
known.

Completion times are taken in the future's done-callback, which the
engine's dispatcher runs right after resolving the future.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from servebench.setup import Server
from servebench.traffic import Event


@dataclass
class Query:
    """One measured query and what became of it."""

    request_id: int
    nodes: np.ndarray
    version: int
    scheduled: float
    sent: float = 0.0
    done: float = 0.0
    future: Optional[Future] = None
    logits: Optional[np.ndarray] = None
    error: Optional[BaseException] = None
    mismatch: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatch

    @property
    def latency_ms(self) -> float:
        return (self.done - self.scheduled) * 1e3


@dataclass
class Update:
    """One measured update: submit time, resolve time, version produced."""

    submitted: float
    version: int
    resolved: float = 0.0
    future: Optional[Future] = None

    @property
    def latency_ms(self) -> float:
        return (self.resolved - self.submitted) * 1e3


@dataclass
class Phase:
    """The record of one phase."""

    queries: List[Query] = field(default_factory=list)
    updates: List[Update] = field(default_factory=list)
    #: Per query: actual send minus the time it could first be sent (its
    #: schedule, or the resolve time of an update it had to wait for).
    send_lag_ms: List[float] = field(default_factory=list)
    seconds: float = 0.0
    #: ``(queries, seconds)`` of each stretch merged by ``extend``.
    stretches: List[Tuple[List[Query], float]] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return sum(query.ok for query in self.queries)

    def extend(self, other: "Phase") -> None:
        """Append another stretch of the same phase."""
        self.queries += other.queries
        self.updates += other.updates
        self.send_lag_ms += other.send_lag_ms
        self.seconds += other.seconds
        self.stretches.append((other.queries, other.seconds))

    def stretch_qps(self) -> List[float]:
        """Successful queries per second of each merged stretch."""
        return [sum(query.ok for query in queries) / seconds
                for queries, seconds in self.stretches]


class _Client:
    """Sends trace events to the engine and keeps their records."""

    def __init__(self, server: Server, phase: Phase,
                 on_submit: Optional[Callable[[int], None]] = None):
        self.server = server
        self.phase = phase
        self.on_submit = on_submit
        self.version = server.graph.version
        self._settled = 0

    def update(self, event: Event, wait: bool) -> float:
        """Submit one update; returns when the client may send again.

        Queries still queued when an update arrives would be served after
        it (the engine applies updates before the batch it takes in the
        same round), so the update first waits for earlier queries to
        finish.  Queries sent after it are served after it, so the open
        loop need not wait for the update itself (``wait=False``); the
        engine applies updates in order, one version each.
        """
        for record in self.phase.queries[self._settled:]:
            record.future.exception()
        self._settled = len(self.phase.queries)
        self.version += 1
        record = Update(time.perf_counter(), self.version)

        def finished(_future: Future, record: Update = record) -> None:
            record.resolved = time.perf_counter()

        record.future = self.server.engine.submit_update(event.delta)
        record.future.add_done_callback(finished)
        self.server.applied.append((event.delta, self.version))
        self.phase.updates.append(record)
        if wait:
            record.future.result()
        return time.perf_counter()

    def query(self, event: Event, scheduled: float, request_id: int) -> Query:
        record = Query(request_id, event.nodes, self.version, scheduled)

        def finished(_future: Future, record: Query = record) -> None:
            record.done = time.perf_counter()

        if self.on_submit is not None:
            self.on_submit(request_id)
        record.sent = time.perf_counter()
        record.future = self.server.engine.submit(event.nodes)
        record.future.add_done_callback(finished)
        self.phase.queries.append(record)
        return record


def _wait_for_callbacks(phase: Phase) -> None:
    # A future wakes its waiters just before running its done-callbacks.
    for record in phase.queries:
        while record.done == 0.0:
            time.sleep(0)
    for update in phase.updates:
        while update.resolved == 0.0:
            time.sleep(0)


def _collect(phase: Phase) -> None:
    for update in phase.updates:
        version = update.future.result()
        if version != update.version:
            raise RuntimeError(f"an update produced graph version {version}, "
                               f"expected {update.version}")
        update.future = None
    _wait_for_callbacks(phase)
    for record in phase.queries:
        try:
            record.logits = record.future.result().logits
        except Exception as error:  # a failed request is counted, not raised
            record.error = error
        record.future = None


def open_loop(server: Server, offsets: np.ndarray, first_id: int = 0,
              on_submit: Optional[Callable[[int], None]] = None) -> Phase:
    """Send one query per scheduled offset (Poisson arrivals)."""
    phase = Phase()
    client = _Client(server, phase, on_submit)
    start = time.perf_counter() + 0.01
    ready = start
    sent = 0
    while sent < offsets.shape[0]:
        event = server.trace.next_event()
        if event.is_update:
            ready = client.update(event, wait=False)
            continue
        scheduled = start + float(offsets[sent])
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record = client.query(event, scheduled, first_id + sent)
        phase.send_lag_ms.append((record.sent - max(scheduled, ready)) * 1e3)
        sent += 1
    for record in phase.queries:
        record.future.exception()  # wait for the whole phase to drain
    phase.seconds = time.perf_counter() - start
    _collect(phase)
    return phase


def closed_loop(server: Server, seconds: float, first_id: int = 0,
                max_queries: Optional[int] = None,
                on_submit: Optional[Callable[[int], None]] = None) -> Phase:
    """One client, back to back, for ``seconds`` (or ``max_queries``)."""
    phase = Phase()
    client = _Client(server, phase, on_submit)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if max_queries is None:
            if time.perf_counter() >= deadline:
                break
        elif len(phase.queries) >= max_queries:
            break
        event = server.trace.next_event()
        if event.is_update:
            client.update(event, wait=True)
            continue
        now = time.perf_counter()
        record = client.query(event, now, first_id + len(phase.queries))
        record.future.exception()
    phase.seconds = time.perf_counter() - start
    _collect(phase)
    return phase
