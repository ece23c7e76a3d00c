"""Simulator event-loop behaviour: ordering, run modes, determinism."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import Simulator
from repro.simulation.core import StopSimulation


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_time(sim):
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_process_in_time_order(sim):
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_break_by_schedule_order(sim):
    order = []
    for tag in range(5):
        sim.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
    sim.run()
    assert order == list(range(5))


def test_same_instant_ties_dispatch_fifo(sim):
    """50 same-instant ties fire in scheduling order, and zero-delay
    follow-ups scheduled at that instant fire after every tie already
    pending, again in scheduling order."""
    order = []

    def tie(tag):
        order.append(tag)
        sim.timeout(0.0).add_callback(lambda e: order.append(("after", tag)))

    for tag in range(50):
        sim.timeout(1.0).add_callback(lambda e, t=tag: tie(t))
    sim.run()
    assert order == list(range(50)) + [("after", t) for t in range(50)]
    assert sim.now == 1.0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_random_schedule_dispatches_by_due_time_then_schedule_order(seed):
    """A seeded random schedule dispatches in (due time, scheduling order).

    The workload mixes same-instant ties, sub-millisecond spacing,
    multi-second gaps, and callbacks that schedule further timeouts
    (including zero-delay same-instant follow-ups) mid-run.  The expected
    order is computed independently of the simulator: every timeout is
    keyed by its due time and a counter bumped when it is created.
    """
    rng = random.Random(seed)
    sim = Simulator()
    keys = []  # (due, schedule index, label) for every timeout created
    log = []

    def schedule(delay, label, depth):
        keys.append((sim.now + delay, len(keys), label))
        sim.timeout(delay).add_callback(lambda e: fire(label, depth))

    def fire(label, depth):
        log.append((sim.now, label))
        if depth > 0:
            delay = rng.choice([0.0, 0.0, 0.00007, 0.5])
            schedule(delay, label + "+", depth - 1)

    delays = [0.0, 0.0001, 0.0001, 0.003, 0.25, 1.0, 1.0, 7.5]
    for i in range(200):
        delay = rng.choice(delays)
        if rng.random() < 0.2:
            schedule(delay, f"c{i}", rng.randint(1, 3))
        else:
            schedule(delay, f"e{i}", 0)
    assert sim.pending == 200
    sim.run()
    assert sim.pending == 0
    assert log == [(due, label) for due, _, label in sorted(keys)]


def test_run_until_time_stops_exactly(sim):
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(1))
    sim.timeout(5.0).add_callback(lambda e: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0


def test_run_until_past_deadline_rejected(sim):
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_value(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    result = sim.run(until=sim.process(proc(sim)))
    assert result == "done"
    assert sim.now == 1.0


def test_run_until_event_raises_its_failure(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=sim.process(proc(sim)))


def test_run_until_processed_event_returns_value_again(sim):
    timeout = sim.timeout(1, value=42)
    assert sim.run(until=timeout) == 42
    sim.timeout(5)
    # The event is already processed: same answer, and nothing dispatched.
    assert sim.run(until=timeout) == 42
    assert sim.now == 1


def test_run_until_processed_failed_event_raises_its_failure(sim):
    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    process = sim.process(proc(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=process)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=process)


def test_run_until_never_triggered_event_errors(sim):
    pending = sim.event()
    sim.timeout(1.0)
    with pytest.raises(RuntimeError, match="ran out of events"):
        sim.run(until=pending)


def test_unhandled_failed_event_surfaces(sim):
    event = sim.event()
    event.fail(ValueError("lost failure"))
    with pytest.raises(ValueError, match="lost failure"):
        sim.run()


def test_defused_failure_does_not_surface(sim):
    event = sim.event()
    event.fail(ValueError("handled"))
    event.defuse()
    sim.run()  # no raise


def test_peek_reports_next_event_time(sim):
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_no_reentrant_run(sim):
    def proc(sim):
        with pytest.raises(RuntimeError, match="already running"):
            sim.run()
        yield sim.timeout(0.1)

    sim.process(proc(sim))
    sim.run()


def test_determinism_same_seed_same_trace():
    def trace_run(seed):
        sim = Simulator(seed=seed)
        log = []

        def worker(sim, name):
            rng = sim.rng.stream("delays")
            for _ in range(10):
                yield sim.timeout(float(rng.uniform(0.0, 1.0)))
                log.append((sim.now, name))

        for name in ("a", "b", "c"):
            sim.process(worker(sim, name))
        sim.run()
        return log

    assert trace_run(42) == trace_run(42)
    assert trace_run(42) != trace_run(43)


def test_record_noop_without_tracer(sim):
    sim.record("kind", value=1)  # must not raise
    assert sim.tracer is None


def test_record_with_tracer():
    sim = Simulator(trace=True)
    sim.record("op", value=1)
    assert len(sim.tracer) == 1
    assert sim.tracer.records[0].kind == "op"
    assert sim.tracer.records[0]["value"] == 1


def test_stop_simulation_is_an_exception():
    assert issubclass(StopSimulation, Exception)
