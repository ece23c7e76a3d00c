"""Scalar vs vectorized solver: bitwise equivalence.

The vectorized arena solver is only admissible because every one of its
floating-point operations reproduces the scalar water-filling kernel bit
for bit — the repo's golden digests hash event timestamps, so a 1-ulp
drift anywhere fails determinism checks.  These tests run identical
randomised workloads under ``solver="scalar"``, ``"vector"`` and
``"auto"`` (which switches modes mid-run around the ``_VEC_ON`` /
``_VEC_OFF`` thresholds) and require *exact* float equality of every
completion time.  Topologies include ``capacity_fn`` links, write-amplified
paths (the same link repeated within one path), pathless rate-capped
flows, and waves of flows on identical paths.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.network.flow import _VEC_OFF, _VEC_ON, FlowNetwork
from repro.simulation import Simulator
from tests.network.test_flow_reference import assert_matches_reference


def _staircase(n_flows):
    """Deterministic capacity function: throughput degrades with load."""
    return 120.0 / (1.0 + 0.25 * n_flows)


def _run(seed, n_flows, solver, shared=False):
    """Run a seeded random workload; return the list of completion times.

    The topology mixes plain links, a ``capacity_fn`` link, and paths with
    a repeated link (write amplification: that flow consumes the link's
    bandwidth twice).  Flow count is pushed past ``_VEC_ON`` so ``"auto"``
    crosses into the arena and back out as the population drains.  With
    ``shared``, most flows draw from a few path templates instead (N
    ensemble writers on one client-to-engine path), so flows join paths
    that already carry traffic and leave them while siblings continue.
    """
    rng = random.Random(seed)
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver)
    links = [net.add_link(f"l{i}", 40.0 + 15.0 * i) for i in range(8)]
    links.append(net.add_link("fn", 150.0, capacity_fn=_staircase))
    templates = [
        [links[0], links[2], links[5]],
        [links[1], links[3]],
        [links[4], links[6], links[6]],
        [links[8], links[0]],
    ]
    done = []
    ends = [None] * n_flows

    def submit(slot, delay, path, size, rate_cap):
        yield sim.timeout(delay)
        flow = yield net.transfer(path, size, rate_cap=rate_cap)
        ends[slot] = flow.end_time

    for slot in range(n_flows):
        delay = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
        kind = rng.random()
        if kind < 0.08:
            # Pathless flow: progress bounded only by its rate cap.
            path, rate_cap = [], rng.choice([5.0, 20.0, 80.0])
        elif shared and kind < 0.75:
            path = rng.choice(templates)
            rate_cap = rng.choice([math.inf, math.inf, 25.0])
        else:
            path = rng.sample(links, rng.randint(1, 4))
            if kind < 0.25:
                # Write amplification: one link appears twice in the path.
                path = path + [rng.choice(path)]
            rate_cap = rng.choice([math.inf, math.inf, 30.0, 90.0])
        size = rng.choice([64.0, 256.0, 1024.0, 4096.0])
        done.append(sim.process(submit(slot, delay, path, size, rate_cap)))
    sim.run(until=sim.all_of(done))
    assert net.active_flows == 0
    assert None not in ends
    return ends, net


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_scalar_vector_auto_bitwise_identical(seed):
    scalar, net_s = _run(seed, 140, solver="scalar")
    vector, net_v = _run(seed, 140, solver="vector")
    auto, net_a = _run(seed, 140, solver="auto")
    assert scalar == vector  # exact: no tolerance
    assert scalar == auto
    assert net_s.solver_runs == net_v.solver_runs == net_a.solver_runs
    # The workload is big enough that the pinned-vector run actually used
    # the arena, and the scalar run never did.
    assert net_v.mode_switches >= 1
    assert net_s.mode_switches == 0


def test_auto_crosses_threshold_both_ways():
    """The equivalence above exercises a genuine mid-run mode round-trip."""
    _, net = _run(seed=7, n_flows=160, solver="auto")
    assert net.mode_switches >= 2  # entered and left the arena


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_identical_path_workload_bitwise_identical(seed):
    scalar, _ = _run(seed, 150, solver="scalar", shared=True)
    vector, net_v = _run(seed, 150, solver="vector", shared=True)
    auto, _ = _run(seed, 150, solver="auto", shared=True)
    assert scalar == vector == auto
    assert net_v.mode_switches >= 1


def test_identical_path_wave():
    """A synchronised wave on two paths: same end times in every mode."""

    def run(solver):
        sim = Simulator()
        net = FlowNetwork(sim, solver=solver)
        a = net.add_link("a", 100.0)
        b = net.add_link("b", 80.0)
        c = net.add_link("c", 60.0)
        done = [
            net.transfer([a, b] if i % 2 == 0 else [b, c], 64.0 + (i % 5))
            for i in range(300)
        ]
        assert net.active_flows == 300
        sim.run(until=sim.all_of(done))
        assert net.active_flows == 0
        return [e.value.end_time for e in done]

    assert run("scalar") == run("vector") == run("auto")


def test_mid_flight_join_and_leave_exact():
    """Flows joining a busy path mid-transfer stay bit-identical."""

    def run(solver):
        sim = Simulator()
        net = FlowNetwork(sim, solver=solver)
        a = net.add_link("a", 30.0)
        b = net.add_link("b", 45.0)
        ends = []

        def late(delay, size):
            yield sim.timeout(delay)
            flow = yield net.transfer([a, b], size)
            ends.append(flow.end_time)

        procs = [sim.process(late(0.0, 90.0)), sim.process(late(0.0, 150.0))]
        procs.append(sim.process(late(2.5, 60.0)))  # joins mid-flight
        procs.append(sim.process(late(6.0, 30.0)))  # joins after a leave
        sim.run(until=sim.all_of(procs))
        return ends

    assert run("scalar") == run("vector")


def _expected_pairs(net):
    """Link-pair counts over the distinct paths of the arena's flows."""
    pairs = {}
    for path in {flow.path for flow in net._active if flow.pos >= 0}:
        idxs = [link.idx for link in path]
        for i, a in enumerate(idxs[:-1]):
            for b in idxs[i + 1 :]:
                key = (a, b) if a <= b else (b, a)
                pairs[key] = pairs.get(key, 0) + 1
    return pairs


def test_pair_adjacency_exists_only_in_vector_mode():
    """Scalar mode keeps no adjacency; vector mode keeps an exact one.

    Drives ``auto`` across ``_VEC_ON`` and back twice, changing the path
    mix between crossings, and at every probe checks the adjacency against
    the arena's live paths and the rates against the reference solver.
    """
    rng = random.Random(11)
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", 50.0 + 7.0 * i) for i in range(10)]
    seen_modes = []

    def probe():
        if net._recompute_pending:
            return
        if net._vector:
            pairs = _expected_pairs(net)
            assert net._pairs == pairs
            pad = net._pad
            marked = set(zip(*net._adjb[:pad, :pad].nonzero()))
            assert marked == {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
        else:
            assert net._pairs == {}
            assert not net._adjb.any()
        assert_matches_reference(net)
        seen_modes.append(net._vector)

    def wave(n, lo, hi):
        # A wave on multi-link paths drawn from links[lo:hi] (mostly one
        # flow per path, so departures retire pairs), with staggered sizes
        # so the population drains gradually through _VEC_OFF.
        done = []
        for i in range(n):
            path = rng.sample(links[lo:hi], rng.randint(2, 3))
            done.append(net.transfer(path, 40.0 + 3.0 * i))
        return done

    def driver():
        # Scalar-mode churn on many distinct paths.
        for _ in range(4):
            done = wave(_VEC_OFF - 4, 0, 6)
            yield sim.timeout(0.05)
            probe()
            yield sim.all_of(done)
            probe()
        for lo, hi in ((0, 6), (4, 10)):
            done = wave(_VEC_ON + 20, lo, hi)
            yield sim.timeout(0.25)
            if lo:
                # Evictions retire arena paths too.
                net.evict_flows(net.flows()[::3])
            while not all(event.triggered for event in done):
                probe()
                yield sim.timeout(0.25)

    sim.run(until=sim.process(driver()))
    assert net.mode_switches == 4
    assert True in seen_modes and False in seen_modes
    assert net._pairs == {}


def test_leaving_the_arena_keeps_same_instant_arrivals():
    """Flows that arrive at the instant the arena is left keep their bytes.

    A completion wave drains ``auto`` below ``_VEC_OFF`` and the resumed
    processes start new flows at that same instant, before the flush could
    ingest them.  Leaving vector mode must not overwrite those arrivals'
    state with arena columns they never had.
    """

    def run(solver):
        sim = Simulator()
        net = FlowNetwork(sim, solver=solver)
        link = net.add_link("l", 100.0)
        ends = []

        def proc(i):
            yield net.transfer([link], 10.0)
            if i < 3:
                flow = yield net.transfer([link], 50.0)
                ends.append(flow.end_time)

        procs = [sim.process(proc(i)) for i in range(_VEC_ON + 24)]
        sim.run(until=sim.all_of(procs))
        return ends, net.mode_switches

    scalar, _ = run("scalar")
    auto, switches = run("auto")
    assert switches == 2
    assert auto == scalar == [13.5, 13.5, 13.5]
