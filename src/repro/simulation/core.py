"""The simulator event loop.

:class:`Simulator` owns simulated time and a pending-event queue of
triggered events, a binary heap (``heapq``) of ``(time, sequence, event)``
entries.  Events are processed in ``(time, sequence)`` order, making runs
fully deterministic: two events triggered for the same instant are
processed in the order they were scheduled.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf as _INF
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.simulation.events import PENDING, AllOf, AnyOf, Event, Timeout
from repro.simulation.process import Process
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import Tracer, global_tracer

__all__ = ["Simulator", "StopSimulation"]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


def _raise_stop(event: Event) -> None:
    """Sentinel callback for ``run(until=event)``.

    A module-level function instead of a per-run closure: ``run`` is called
    once per benchmark phase, but the callback travels with the event and a
    fresh closure per call is allocation the hot path does not need.
    """
    raise StopSimulation(event)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's :class:`RngRegistry`.  Every source
        of randomness in a model should draw from ``sim.rng`` streams so a
        run is reproducible from this single value.
    trace:
        When True, a :class:`Tracer` collects structured records that models
        emit via :meth:`record`.
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self._now: float = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = count()
        self._flush: List[Any] = []
        self._running = False
        #: Freelist of recycled fast-lane events (see :meth:`lane_acquire`).
        self._lane_free: List[Event] = []
        self.rng = RngRegistry(seed)
        # trace=True gets a private tracer; otherwise fall back to the
        # process-wide tracer when one is installed (see ``--trace-out``).
        self.tracer: Optional[Tracer] = Tracer() if trace else global_tracer()

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduler introspection -------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue)

    # -- event factories ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Wrap a generator into a running simulated :class:`Process`."""
        return Process(self, generator, name=name)

    def spawn_batch(
        self, generators: Iterable[Generator], name: str = ""
    ) -> List[Process]:
        """Spawn a wave of processes on one shared bootstrap event.

        Event-order identical to calling :meth:`process` in a loop at one
        instant: per-process bootstraps would occupy consecutive queue
        slots and dispatch back-to-back, each resuming its process —
        exactly what one shared bootstrap's callback list replays, in the
        same order, before any event the resumed processes themselves
        scheduled (those carry later sequence numbers either way).  What
        the batch saves is the per-process heap insertion and the
        per-process ``f"{name}:start"`` string build, which at
        100k-process waves is a measurable slice of spawn cost.

        All processes share ``name`` (or fall back to their generator's
        ``__name__``), so per-process name formatting is the caller's
        choice, not an obligation.
        """
        bootstrap = Event(self, name=(name + ":start") if name else "batch:start")
        processes = [
            Process(self, generator, name=name, bootstrap=bootstrap)
            for generator in generators
        ]
        if not processes:
            return processes
        bootstrap._ok = True
        bootstrap._value = None
        self._enqueue_triggered(bootstrap)
        return processes

    def lane_acquire(self) -> Event:
        """Take a recycled *fast-lane* event from the freelist.

        A lane event is a plain :class:`Event` whose owner re-arms it for
        successive delays by resetting ``_value`` to ``PENDING``, installing
        its own callback list, and calling :meth:`_schedule` directly — the
        fused-delay mechanism of the metadata fast path
        (:class:`~repro.daos.client._FastDriver`).  Recycling through the
        simulator-wide freelist means a storm of fast metadata ops allocates
        O(concurrent ops) events instead of three fresh Timeouts per op.

        The caller owns the event until :meth:`lane_release`; lane events
        must never be exposed to other waiters.
        """
        free = self._lane_free
        if free:
            return free.pop()
        return Event(self, name="fastlane")

    def lane_release(self, event: Event) -> None:
        """Return a lane event taken with :meth:`lane_acquire` to the freelist."""
        self._lane_free.append(event)

    def settled(self) -> bool:
        """True when no pending event is scheduled for the current instant.

        This is the guard the metadata fast path uses before eliding a
        resource/lock grant event: when the instant is settled, nothing else
        can observe (or be reordered against) the intermediate grant, so
        continuing inline is indistinguishable from dispatching the grant
        through the queue.  With a foreign event pending at ``now`` the fast
        path falls back to the event-based grant, preserving exact
        ``(time, seq)`` interleaving.
        """
        return self.peek() > self._now

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling (internal API used by events) ---------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        """Enqueue ``event`` to be processed at ``now + delay``."""
        heappush(self._queue, (self._now + delay, next(self._seq), event))

    def _enqueue_triggered(self, event: Event) -> None:
        """Enqueue an event that was just triggered for immediate processing."""
        heappush(self._queue, (self._now, next(self._seq), event))

    def request_flush(self, callback: Any) -> None:
        """Run ``callback()`` once at the end of the current instant.

        The callback fires after every event scheduled for the current
        simulated time has been processed — i.e. just before time would
        advance (or the queue empties, or a ``run`` deadline is reached).
        Callbacks run in request order and are one-shot; a callback may
        request further flushes, which fold into the same instant if no
        intervening event moved time forward.

        This is how the flow network coalesces an entire instant's worth of
        arrivals and departures into a single rate solve: zero-duration
        intermediate states are unobservable, so batching is free.
        """
        self._flush.append(callback)

    # -- tracing -------------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Emit a trace record if tracing is enabled (no-op otherwise)."""
        if self.tracer is not None:
            self.tracer.record(self._now, kind, fields)

    # -- execution -----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until simulated time reaches that instant;
        * an :class:`Event` — run until the event is processed, returning its
          value (or raising its exception if it failed).
        """
        if self._running:
            raise RuntimeError("simulator is already running (no re-entrant run())")
        self._running = True
        try:
            if until is None:
                self._dispatch()
                return None
            if isinstance(until, Event):
                sentinel = until
                try:
                    # An already-processed event runs the callback (and so
                    # raises) right here, before any dispatch.
                    sentinel.add_callback(_raise_stop)
                    self._dispatch()
                except StopSimulation as stop:
                    event = stop.args[0]
                    if event._ok:
                        return event._value
                    event.defuse()
                    raise event.value
                raise RuntimeError(
                    f"simulation ran out of events before {sentinel!r} triggered"
                )
            # numeric deadline
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})"
                )
            self._dispatch(deadline)
            self._now = deadline
            return None
        finally:
            self._running = False

    def _dispatch(self, deadline: Optional[float] = None) -> None:
        """Drain the queue (up to ``deadline``).

        The loop body is written out here rather than factored into a
        per-event method: one bound-method call per event adds up over the
        tens of millions of events a paper-scale run processes, and
        hoisting the queue/pop lookups is worth ~15% of dispatch cost.
        """
        flush = self._flush
        queue = self._queue
        pop = heappop
        while True:
            if flush and (not queue or queue[0][0] > self._now):
                # End of the current instant: run the one-shot flush
                # callbacks before time advances (or the run ends).
                callbacks = flush[:]
                del flush[:]
                for callback in callbacks:
                    callback()
                continue
            if not queue:
                return
            if deadline is not None and queue[0][0] > deadline:
                return
            when, _, event = pop(queue)
            self._now = when

            if event._value is PENDING:
                # A time-scheduled event (Timeout) firing now: assume its value.
                event._value = event._delayed_value

            callbacks = event.callbacks
            event.callbacks = None
            assert callbacks is not None, "event processed twice"
            for callback in callbacks:
                callback(event)

            if not event._ok and not event._defused:
                # Nobody handled the failure: surface it rather than dropping it.
                raise event._value
