"""Max-min fair fluid-flow bandwidth sharing.

Every bulk data movement in the simulation is a :class:`Flow` across a path
of :class:`Link` objects.  Concurrent flows share link capacity according to
*max-min fairness* computed by progressive filling (water-filling), the
classical model of how congestion-controlled transports divide a network.
Per-flow rate caps model single-stream transport limits (e.g. a single OFI
TCP stream saturating at ~3.1 GiB/s regardless of link capacity).

Whenever a flow starts or finishes, rates are recomputed and every active
flow's completion time is rescheduled.  Between recomputations rates are
constant, so progress is exact (no per-packet events), which keeps the event
count proportional to the number of transfers rather than the number of
bytes.

Performance notes (the kernel fast path, see ``repro bench``):

* **Same-instant batching.**  All flow-set changes at one simulated
  timestamp — a synchronised wave of arrivals, a batch of completions, and
  the replacement flows those completions trigger — are coalesced into one
  dirty set, and the solver runs **once per instant** via the simulator's
  end-of-instant flush hook (:meth:`Simulator.request_flush`).  The
  zero-duration intermediate rate states a change-by-change solver would
  produce are unobservable (no time passes between them), so completion
  times are bit-identical while synchronised waves cost O(1) solves instead
  of O(flows-per-wave).  ``solver_runs`` vs ``flow_changes`` measures this.
* **Scoped recomputation.**  A batch of changes only perturbs the connected
  component of links/flows it touches; rates outside that component are
  left untouched.  Within a component the arithmetic is the exact
  water-filling recurrence — results are bit-identical to the reference
  algorithm (see ``tests/network/test_flow_reference.py``).
* **One flat kernel per mode.**  The scalar mode solves with
  :meth:`FlowNetwork._compute_rates` and the vector mode with
  :meth:`FlowNetwork._solve_vector`, both per flow.  Coalescing flows that
  share a (path, rate cap) into one solver row was tried and removed: in
  the Field I/O contention regime (fig4, ~11 flows per scope) such groups
  merge almost nothing (10.6 groups per 11.3 flows), the grouped scalar
  kernel cost 115 µs per solve against 65 µs flat, and the per-transfer
  group upkeep was ~4% of that workload's profile; in the vector regime
  the two kernels were within noise.  What remains is per *distinct path*
  and costs one dict lookup per transfer: a cached :class:`_Route` holds
  the path's distinct links with their multiplicities (the scalar kernel
  initialises and bounds over those, debiting per occurrence) and its
  link-index column (what the arena copies in).
* **Vectorized solving.**  Above ``_VEC_ON`` concurrent flows the network
  migrates its hot state into a compact numpy arena: per-flow
  remaining/rate/deadline arrays are kept dense by swap-deleting completed
  flows, and each flow's path lives in one row of a fixed-stride incidence
  matrix padded with a sentinel "link" whose fair share is pinned to +inf.
  Progress debits, completion scans, component discovery, and the
  water-filling rounds are then a handful of whole-array operations each —
  no per-flow Python.  Every floating-point operation matches the scalar
  path bit for bit (see ``tests/network/test_flow_vector.py``); the scalar
  path remains available as ``FlowNetwork(sim, solver="scalar")``.

Determinism is a hard constraint: identical seeds produce bit-identical
timestamp logs, guarded by golden digests in
``tests/bench/test_determinism.py``.
"""

from __future__ import annotations

import math
from itertools import count
from operator import attrgetter
from sys import intern as _sintern
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.core import Simulator
from repro.simulation.events import Event

__all__ = ["Link", "Flow", "FlowNetwork"]

#: Flows with fewer remaining bytes than this are considered complete.
#: Well below one byte, comfortably above double-precision noise for the
#: byte counts (<= 2**50) and rates used here.
_EPSILON_BYTES = 1e-3

_INF = math.inf

#: Active-flow population at which the network migrates its hot state into
#: the numpy arena (and back below ``_VEC_OFF``).  The wide hysteresis band
#: keeps workloads that hover around the boundary from thrashing between
#: representations.
_VEC_ON = 96
_VEC_OFF = 24

#: Minimum scoped-component size for the vectorized water-filling pass;
#: smaller perturbed components are cheaper in the scalar solver even while
#: the arena is active.
_VEC_SOLVE_MIN = 40


#: C-level sort key for completion ordering (hot at 100k-flow batches).
_fid_of = attrgetter("fid")


class Link:
    """A unidirectional capacity-limited network element.

    ``capacity`` is in bytes/second.  A link knows the flows currently
    crossing it (mapped to their path multiplicity); the :class:`FlowNetwork`
    updates this mapping and uses it during rate computation.

    ``capacity_fn``, if given, makes the capacity depend on the number of
    concurrent flows: ``effective = min(capacity, capacity_fn(n_flows))``.
    This models transports whose aggregate throughput varies with stream
    count (e.g. kernel TCP over a fast fabric, Table 2 of the paper).
    """

    __slots__ = (
        "name",
        "capacity",
        "capacity_fn",
        "flows",
        "idx",
        # Memoised capacity_fn evaluations (the provider curves are pure
        # functions of the stream count, which repeats heavily).
        "_fn_cache",
        # Water-filling working state, valid within one scalar recompute
        # (_epoch stamps which recompute initialised it).
        "_cap_left",
        "_n_unfixed",
        "_share",
        "_epoch",
    )

    def __init__(
        self, name: str, capacity: float, capacity_fn=None, idx: int = -1
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        self.capacity_fn = capacity_fn
        self.idx = idx
        self._fn_cache: Dict[int, float] = {}
        # Insertion-ordered mapping flow -> occurrences of this link in the
        # flow's path (write amplification).  Deterministic iteration keeps
        # rate computation and tie-breaking reproducible run to run.
        self.flows: Dict["Flow", int] = {}
        self._cap_left = 0.0
        self._n_unfixed = 0
        self._share = 0.0
        self._epoch = -1

    def effective_capacity(self, n_flows: Optional[int] = None) -> float:
        """Capacity given ``n_flows`` concurrent streams (default: current)."""
        if n_flows is None:
            n_flows = len(self.flows)
        if self.capacity_fn is None:
            return self.capacity
        cached = self._fn_cache.get(n_flows)
        if cached is None:
            cached = min(self.capacity, float(self.capacity_fn(n_flows)))
            self._fn_cache[n_flows] = cached
        return cached

    @property
    def utilisation(self) -> float:
        """Instantaneous utilisation in [0, 1] given current flow rates.

        A flow listing this link more than once (write amplification)
        consumes capacity per occurrence, and is counted accordingly.
        """
        if not self.flows:
            return 0.0
        consumed = sum(f.rate * mult for f, mult in self.flows.items())
        return min(1.0, consumed / self.effective_capacity())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name!r} cap={self.capacity:.3g} B/s {len(self.flows)} flows>"


class _Route:
    """Per-distinct-path data shared by every flow on that path.

    ``occ`` lists the path's distinct links with their multiplicities (a
    write-amplified path lists one link twice); the scalar kernel and the
    link-membership upkeep walk it instead of the raw path.  ``idx`` is the
    path as link indices, the column the vector arena copies in.  ``live``
    counts this path's flows in the arena and drives the link-link
    adjacency, which exists only in vector mode.
    """

    __slots__ = ("occ", "idx", "live")

    def __init__(self, path: Tuple["Link", ...]) -> None:
        counts: Dict["Link", int] = {}
        for link in path:
            counts[link] = counts.get(link, 0) + 1
        self.occ: Tuple[Tuple["Link", int], ...] = tuple(counts.items())
        self.idx: List[int] = [link.idx for link in path]
        self.live = 0


class Flow:
    """One in-flight bulk transfer.

    Attributes of interest once finished: ``start_time``, ``end_time`` and
    ``mean_rate`` (bytes/second averaged over the flow's lifetime).

    While in flight, ``remaining``/``rate``/``deadline`` read through to
    wherever the owning network keeps its hot state (plain attributes in
    scalar mode, the numpy arena in vector mode).
    """

    __slots__ = (
        "fid",
        "name",
        "path",
        "size",
        "rate_cap",
        "start_time",
        "end_time",
        # Completion event; cleared (None) once it fires so a finished
        # flow and its event are not a reference cycle (see _on_wake).
        "done",
        # The :class:`_Route` of this flow's path, set at admission (None
        # for zero-byte flows, which never become active).
        "route",
        # Arena row while the vector arena holds this flow; -1 when the
        # scalar attributes are authoritative.
        "pos",
        "_net",
        # Scalar-mode hot state (authoritative while ``pos`` is -1).
        "_rem",
        "_rate",
        "_dl",
        # Per-round water-filling bound (scratch, valid within one round).
        "_bound",
    )

    def __init__(
        self,
        fid: int,
        path: Tuple[Link, ...],
        size: float,
        rate_cap: float,
        done: Event,
        name: str = "",
    ) -> None:
        self.fid = fid
        self.name = name
        self.path = path
        self.size = float(size)
        self.rate_cap = float(rate_cap)
        self.start_time: float = math.nan
        self.end_time: Optional[float] = None
        self.done = done
        self.route: Optional[_Route] = None
        self.pos = -1
        self._net: Optional["FlowNetwork"] = None
        self._rem = float(size)
        self._rate = 0.0
        self._dl: Optional[float] = None
        self._bound = 0.0

    @property
    def remaining(self) -> float:
        """Bytes left to move (as of the owning network's last advance)."""
        if self.pos >= 0:
            return float(self._net._rem_v[self.pos])
        return self._rem

    @property
    def rate(self) -> float:
        """Current allocated rate in bytes/second."""
        if self.pos >= 0:
            return float(self._net._rate_v[self.pos])
        return self._rate

    @property
    def deadline(self) -> Optional[float]:
        """Projected absolute completion time; None while unknown/finished.

        In vector mode this is derived on demand from the arena (the owning
        network does not materialise per-flow deadlines; only the earliest
        one matters for its wake-up timer).
        """
        if self.pos >= 0:
            net = self._net
            rate = float(net._rate_v[self.pos])
            if rate <= 0.0:
                return None
            return net._last_advance + float(net._rem_v[self.pos]) / rate
        return self._dl

    @property
    def mean_rate(self) -> float:
        """Average transfer rate over the flow lifetime (bytes/second)."""
        if self.end_time is None:
            raise RuntimeError("flow has not finished")
        elapsed = self.end_time - self.start_time
        if elapsed <= 0.0:
            return math.inf
        return self.size / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow #{self.fid} {self.name!r} {self.remaining:.0f}/{self.size:.0f} B "
            f"@ {self.rate:.3g} B/s>"
        )


class FlowNetwork:
    """Tracks active flows over a set of links and advances them in time.

    One instance serves the whole simulated cluster.  Links are created via
    :meth:`add_link`; transfers are started with :meth:`transfer`, which
    returns an event that succeeds (with the finished :class:`Flow`) once
    the last byte has moved.

    ``solver`` selects the water-filling implementation: ``"auto"``
    (default) migrates to the vectorized arena above ``_VEC_ON`` concurrent
    flows, ``"scalar"`` pins the pure-Python kernel, ``"vector"`` pins the
    arena from the first flow (both used by the equivalence tests).

    All solver modes are bit-identical.
    """

    def __init__(self, sim: Simulator, solver: str = "auto") -> None:
        if solver not in ("auto", "scalar", "vector"):
            raise ValueError(f"unknown solver mode {solver!r}")
        self.sim = sim
        self.solver = solver
        #: One :class:`_Route` per distinct path tuple ever transferred on
        #: (bounded by the topology's distinct paths).
        self._routes: Dict[Tuple[Link, ...], _Route] = {}
        #: Live path-less (rate-cap-only) flows; lets the vector scoper
        #: prove full coverage without gathering the whole arena.
        self._pathless_active = 0
        self.links: Dict[str, Link] = {}
        self._link_list: List[Link] = []
        self._fn_links: List[Link] = []
        self._active: Dict[Flow, None] = {}
        self._fid = count()
        self._last_advance: float = sim.now
        #: Links whose flow set changed since the last solve; their
        #: connected component is what the next solve rescopes to.
        self._dirty: Dict[Link, None] = {}
        #: Flows that arrived since the last solve.  Usually redundant
        #: with the dirty links, but a path-less (rate-cap-only) flow forms
        #: its own component and is only reachable through this seed set.
        self._dirty_flows: Dict[Flow, None] = {}
        #: The currently armed wake-up event; wake-ups from superseded
        #: solves no longer match and are ignored.
        self._wake_event: Optional[Event] = None
        #: Monotonic stamp marking which scalar solve initialised a link's
        #: water-filling working state.
        self._epoch = 0
        #: Whether this instant's solve is already queued with the
        #: simulator's end-of-instant flush.  All flow-set changes at one
        #: timestamp — however many generations of same-instant events they
        #: span — fold into that single solve.
        self._recompute_pending = False
        #: Statistics: total completed flows and bytes moved.
        self.completed_flows = 0
        self.completed_bytes = 0.0
        #: Flows cancelled via :meth:`evict_flows` (not counted as
        #: completed; their moved bytes are not in ``completed_bytes``).
        self.evicted_flows = 0
        #: Instrumentation: water-filling solver invocations and flow-set
        #: changes (arrivals + departures).  ``solver_runs`` well below
        #: ``flow_changes`` is the same-instant batching at work.
        self.solver_runs = 0
        self.vector_solves = 0
        self.flow_changes = 0
        self.mode_switches = 0
        # -- static link capacities (indexed by Link.idx) ------------------
        self._cap_a = np.zeros(0)
        # -- flow arena (compact; columns [0, _n_live) are the live flows) -
        self._vector = False
        self._n_live = 0
        self._flows_pos: List[Optional[Flow]] = []
        self._rem_v = np.zeros(0)
        self._rate_v = np.zeros(0)
        self._rcap_v = np.zeros(0)
        #: Incidence matrix, transposed: column i holds flow i's path as
        #: link indices, bottom-padded with the sentinel index ``_pad``
        #: (== len(links)).  The sentinel behaves as a link of infinite
        #: fair share, so padded columns need no masking anywhere.  The
        #: (stride, flows) orientation keeps the solver's per-round
        #: reductions running along the long contiguous axis.
        self._occ_t = np.zeros((4, 0), dtype=np.int64)
        self._stride = 4
        self._pad = 0
        #: Link-link co-traversal adjacency, kept only while the arena is
        #: active: ``_adjb[a, b]`` is True when some arena flow's path
        #: visits both links.  Every flow's path forms a clique here, so
        #: connected components of this tiny (#links x #links) graph match
        #: the flow-side components exactly — scoping BFS runs on it
        #: instead of re-gathering every flow column per round.  ``_pairs``
        #: counts the distinct live paths per link pair (keyed by the
        #: sorted index pair), so the bool matrix is touched only when a
        #: path's arena population goes 0 <-> 1.
        self._adjb = np.zeros((0, 0), dtype=bool)
        self._pairs: Dict[Tuple[int, int], int] = {}
        # -- solver scratch (reused across solves; sized on demand) -------
        self._sc_flat_i = np.zeros(0, dtype=np.int64)  # (stride+1, n) indices
        self._sc_flat_f = np.zeros(0)  # (stride+1, n) gathered shares
        self._sc_share = np.zeros(0)  # per-link shares ++ per-flow caps
        self._sc_capleft = np.zeros(0)
        self._sc_div = np.zeros(0)
        self._sc_seg = np.zeros(0, dtype=np.int64)
        self._sc_off = np.zeros(0, dtype=np.int64)
        self._sc_fold = np.zeros(0)
        self._sc_folded = np.zeros(0)
        self._sc_flow_f = np.zeros(0)  # per-flow float scratch (bounds, ...)
        self._sc_flow_f2 = np.zeros(0)  # per-flow float scratch (rates, ...)
        self._sc_flow_b = np.zeros(0, dtype=bool)  # per-flow bool scratch
        self._sc_ar = np.zeros(0, dtype=np.int64)  # 0..n arange

    # -- topology ------------------------------------------------------------
    def add_link(self, name: str, capacity: float, capacity_fn=None) -> Link:
        """Create and register a link; names must be unique."""
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        idx = len(self._link_list)
        link = Link(name, capacity, capacity_fn=capacity_fn, idx=idx)
        self.links[name] = link
        self._link_list.append(link)
        if idx >= self._cap_a.size:
            grown = np.zeros(max(64, 2 * self._cap_a.size))
            grown[: self._cap_a.size] = self._cap_a
            self._cap_a = grown
        self._cap_a[idx] = link.capacity
        if capacity_fn is not None:
            self._fn_links.append(link)
        if self._vector:
            # The sentinel pad index must stay one past the largest real
            # link index; re-point existing pad entries at the new sentinel
            # (their old value is exactly this link's index).
            live = self._occ_t[:, : self._n_live]
            live[live == self._pad] = idx + 1
            if idx >= self._adjb.shape[0]:
                grown = max(64, 2 * self._adjb.shape[0])
                adj = np.zeros((grown, grown), dtype=bool)
                old = self._adjb.shape[0]
                adj[:old, :old] = self._adjb
                self._adjb = adj
        self._pad = idx + 1
        return link

    # -- transfers -----------------------------------------------------------
    def transfer(
        self,
        path: Sequence[Link],
        nbytes: float,
        rate_cap: float = math.inf,
        name: str = "",
    ) -> Event:
        """Start a flow of ``nbytes`` along ``path``.

        Returns an event that succeeds with the :class:`Flow` when the
        transfer completes.  Zero-byte transfers complete on the next
        simulator step without touching the links.
        """
        if nbytes < 0:
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if rate_cap <= 0:
            raise ValueError(f"rate cap must be positive, got {rate_cap}")
        sim = self.sim
        now = sim._now
        # Interned: flows overwhelmingly reuse a handful of role names, so
        # a 100k-flow wave allocates a handful of strings instead of 100k.
        done = Event(sim, name=_sintern("flow:" + name) if name else "flow:")
        tpath = tuple(path)
        flow = Flow(next(self._fid), tpath, nbytes, rate_cap, done, name=name)
        flow.start_time = now
        if nbytes == 0:
            flow.end_time = now
            flow.done = None  # break the flow<->event cycle (see _on_wake)
            done.succeed(flow)
            return done
        if not tpath and not math.isfinite(rate_cap):
            raise ValueError("a flow needs a non-empty path or a finite rate cap")
        # The body below is the per-flow admission fast path: guards are
        # inlined (method calls cost real time at 100k flows/instant) and
        # the per-link multiplicity work is done once per distinct path.
        if now > self._last_advance:
            self._advance_to_now()
        self.flow_changes += 1
        flow._net = self
        self._active[flow] = None
        # Marking the flow dirty is enough to seed the recompute scope:
        # both _scope_scalar and _scope_vector expand from a dirty flow's
        # own path, so arrivals do not need per-link dirty marks.
        self._dirty_flows[flow] = None
        # Links hash by identity, so the link tuple itself is the route key.
        route = self._routes.get(tpath)
        if route is None:
            self._routes[tpath] = route = _Route(tpath)
        flow.route = route
        for link, mult in route.occ:
            link.flows[flow] = mult
        if not tpath:
            self._pathless_active += 1
        if not self._recompute_pending:
            self._recompute_pending = True
            self.sim.request_flush(self._flush_recompute)
        return done

    def admit_flows(
        self,
        specs: Sequence[Tuple],
        name: str = "",
    ) -> List[Event]:
        """Admit a whole wave of transfers in one batched call.

        ``specs`` is a sequence of ``(path, nbytes)``,
        ``(path, nbytes, rate_cap)`` or ``(path, nbytes, rate_cap, name)``
        tuples; ``name`` is the default flow name for specs that do not
        carry their own.  Returns the per-flow completion events in spec
        order.

        Bit-identical to calling :meth:`transfer` once per spec in the
        same order: fid assignment, ``_active``/link insertion orders and
        the single end-of-instant solve all match
        the sequential loop (same-instant batching already coalesces the
        solves — what this call strips is the per-flow method dispatch,
        argument validation re-entry, flush arming and name interning,
        which dominate admission cost at 100k flows per wave).
        """
        sim = self.sim
        now = sim._now
        default_ename = _sintern("flow:" + name) if name else "flow:"
        fids = self._fid
        active = self._active
        dirty_flows = self._dirty_flows
        routes = self._routes
        routes_get = routes.get
        events: List[Event] = []
        append = events.append
        # transfer() only advances progress when admitting a nonzero-size
        # flow; a batch must replicate that laziness — advancing for a
        # zero-byte-only batch would split later rate debits into two
        # steps, which is not bitwise the same as the one-step debit.
        advanced = now <= self._last_advance
        changes = 0
        for spec in specs:
            if len(spec) == 2:
                path, nbytes = spec
                rate_cap = _INF
                fname = name
            elif len(spec) == 3:
                path, nbytes, rate_cap = spec
                fname = name
            else:
                path, nbytes, rate_cap, fname = spec
            if nbytes < 0:
                raise ValueError(
                    f"transfer size must be non-negative, got {nbytes}"
                )
            if rate_cap <= 0:
                raise ValueError(f"rate cap must be positive, got {rate_cap}")
            if fname is name:
                ename = default_ename
            else:
                ename = _sintern("flow:" + fname) if fname else "flow:"
            done = Event(sim, name=ename)
            append(done)
            tpath = tuple(path)
            flow = Flow(next(fids), tpath, nbytes, rate_cap, done, name=fname)
            flow.start_time = now
            if nbytes == 0:
                flow.end_time = now
                flow.done = None  # break the cycle, as in transfer()
                done.succeed(flow)
                continue
            if not tpath and not math.isfinite(rate_cap):
                raise ValueError(
                    "a flow needs a non-empty path or a finite rate cap"
                )
            if not advanced:
                self._advance_to_now()
                advanced = True
            changes += 1
            flow._net = self
            active[flow] = None
            dirty_flows[flow] = None
            route = routes_get(tpath)
            if route is None:
                routes[tpath] = route = _Route(tpath)
            flow.route = route
            for link, mult in route.occ:
                link.flows[flow] = mult
            if not tpath:
                self._pathless_active += 1
        if changes:
            self.flow_changes += changes
            if not self._recompute_pending:
                self._recompute_pending = True
                sim.request_flush(self._flush_recompute)
        return events

    def evict_flows(self, flows: Sequence[Flow]) -> int:
        """Cancel a batch of in-flight flows in one arena operation.

        Mirrors a completion wave (:meth:`_on_wake`): each evicted flow
        leaves its links (and the arena), its ``end_time`` is
        stamped with the current instant, and its done event succeeds
        with the (partially transferred) flow — callers distinguish an
        eviction from a completion by ``flow.remaining > 0``.  Flows not
        currently active are skipped.  One end-of-instant solve serves the
        whole batch; large batches compact the vector arena in a single
        keep-mask pass.  Returns the number of flows evicted.
        """
        if self.sim._now > self._last_advance:
            self._advance_to_now()
        now = self.sim.now
        active = self._active
        # De-duplicated, order-preserving filter: double-listing a flow
        # must not evict it twice.
        victims = list(dict.fromkeys(f for f in flows if f in active))
        if not victims:
            return 0
        dirty = self._dirty
        batch = self._vector and len(victims) >= 64
        touched = {}
        for flow in victims:
            touched[flow.route] = None
        for route in touched:
            for link, _ in route.occ:
                dirty[link] = None
        rem_v = self._rem_v
        done_pos: List[int] = []
        for flow in victims:
            del active[flow]
            route = flow.route
            for link, _ in route.occ:
                link.flows.pop(flow, None)
            if not flow.path:
                self._pathless_active -= 1
            pos = flow.pos
            if pos >= 0:
                route.live -= 1
                if not route.live:
                    self._unregister_pairs(route)
                # Preserve the byte count the flow was cancelled at — the
                # arena column is about to be recycled.
                flow._rem = float(rem_v[pos])
                if batch:
                    done_pos.append(pos)
                    flow.pos = -1
                else:
                    self._evict(flow)
            flow._net = None
            flow._rate = 0.0
            flow._dl = None
            flow.end_time = now
        n_evicted = len(victims)
        self.flow_changes += n_evicted
        self.evicted_flows += n_evicted
        if batch:
            self._evict_batch(np.asarray(done_pos, dtype=np.int64))
        self._schedule_recompute()
        for flow in victims:
            done = flow.done
            flow.done = None  # break the flow<->event cycle (see _on_wake)
            done.succeed(flow)
        return n_evicted

    @property
    def active_flows(self) -> int:
        """Number of flows currently in flight."""
        return len(self._active)

    def flows(self) -> List["Flow"]:
        """The flows currently in flight, in admission order.

        The handles :meth:`evict_flows` takes; the list is a snapshot, so
        callers may evict while iterating it.
        """
        return list(self._active)

    # -- co-traversal adjacency (vector mode; per-route 0 <-> 1 transitions) -
    def _register_pairs(self, route: _Route) -> None:
        """Mark the route's path clique in the link-link adjacency.

        ``_pairs`` counts live *routes* (not flows) per link pair, so the
        bool matrix is touched only when a distinct path enters or leaves
        the arena — O(distinct paths) updates instead of O(flows).
        """
        pairs = self._pairs
        adjb = self._adjb
        idxs = route.idx
        for i in range(len(idxs) - 1):
            a = idxs[i]
            for b in idxs[i + 1 :]:
                key = (a, b) if a <= b else (b, a)
                seen = pairs.get(key, 0)
                if not seen:
                    adjb[a, b] = True
                    adjb[b, a] = True
                pairs[key] = seen + 1

    def _unregister_pairs(self, route: _Route) -> None:
        pairs = self._pairs
        adjb = self._adjb
        idxs = route.idx
        for i in range(len(idxs) - 1):
            a = idxs[i]
            for b in idxs[i + 1 :]:
                key = (a, b) if a <= b else (b, a)
                seen = pairs[key] - 1
                if seen:
                    pairs[key] = seen
                else:
                    del pairs[key]
                    adjb[a, b] = False
                    adjb[b, a] = False

    # -- arena bookkeeping ---------------------------------------------------
    def _ensure_capacity(self, n: int, pathlen: int) -> None:
        if pathlen > self._stride:
            # Grow to the exact path length: path lengths are small and
            # few-valued, and every extra stride row is pure sentinel
            # overhead in each solver round.
            occ = np.full(
                (pathlen, self._occ_t.shape[1]), self._pad, dtype=np.int64
            )
            occ[: self._stride] = self._occ_t
            self._occ_t = occ
            self._stride = pathlen
        if n > self._rem_v.size:
            grown = max(64, 2 * self._rem_v.size, n)
            for attr in ("_rem_v", "_rate_v", "_rcap_v"):
                old = getattr(self, attr)
                new = np.zeros(grown)
                new[: old.size] = old
                setattr(self, attr, new)
            occ = np.full((self._stride, grown), self._pad, dtype=np.int64)
            occ[:, : self._occ_t.shape[1]] = self._occ_t
            self._occ_t = occ
            self._flows_pos.extend([None] * (grown - len(self._flows_pos)))

    def _ingest(self, flow: Flow) -> None:
        """Append a flow to the arena (column ``_n_live``)."""
        route = flow.route
        if not route.live:
            self._register_pairs(route)
        route.live += 1
        length = len(route.idx)
        pos = self._n_live
        self._ensure_capacity(pos + 1, length)
        self._n_live = pos + 1
        self._flows_pos[pos] = flow
        flow.pos = pos
        self._rem_v[pos] = flow._rem
        self._rate_v[pos] = flow._rate
        self._rcap_v[pos] = flow.rate_cap
        column = self._occ_t[:, pos]
        if length:
            column[:length] = route.idx
        column[length:] = self._pad

    def _ingest_batch(self, flows: List[Flow]) -> None:
        """Append many flows to the arena with whole-array writes.

        A synchronised wave admits its entire population at one flush;
        per-flow :meth:`_ingest` pays ~6 numpy scalar writes each, while
        here the per-flow Python shrinks to position bookkeeping and the
        arrays land via bulk converts.  Occupancy columns are built once
        per distinct route in the batch and gathered out to the flows, so
        path index lists are never re-derived per flow.
        """
        pos0 = self._n_live
        end = pos0 + len(flows)
        routes = [flow.route for flow in flows]
        column = {route: j for j, route in enumerate(dict.fromkeys(routes))}
        column_of = np.fromiter(
            map(column.__getitem__, routes), dtype=np.int64, count=len(routes)
        )
        members = np.bincount(column_of, minlength=len(column)).tolist()
        for route, j in column.items():
            if not route.live:
                self._register_pairs(route)
            route.live += members[j]
        self._ensure_capacity(end, max(len(route.idx) for route in column))
        self._flows_pos[pos0:end] = flows
        for pos, flow in enumerate(flows, pos0):
            flow.pos = pos
        self._rem_v[pos0:end] = [flow._rem for flow in flows]
        self._rate_v[pos0:end] = [flow._rate for flow in flows]
        self._rcap_v[pos0:end] = [flow.rate_cap for flow in flows]
        columns = np.full((self._stride, len(column)), self._pad, dtype=np.int64)
        for route, j in column.items():
            if route.idx:
                columns[: len(route.idx), j] = route.idx
        self._occ_t[:, pos0:end] = columns.take(column_of, axis=1)
        self._n_live = end

    def _evict(self, flow: Flow) -> None:
        """Swap-delete a flow's arena column, keeping the arena compact."""
        pos = flow.pos
        last = self._n_live - 1
        if pos != last:
            mover = self._flows_pos[last]
            self._flows_pos[pos] = mover
            mover.pos = pos
            self._rem_v[pos] = self._rem_v[last]
            self._rate_v[pos] = self._rate_v[last]
            self._rcap_v[pos] = self._rcap_v[last]
            self._occ_t[:, pos] = self._occ_t[:, last]
        self._flows_pos[last] = None
        self._n_live = last
        flow.pos = -1

    def _evict_batch(self, done_pos: np.ndarray) -> None:
        """Compact the arena after a batch of completions in one pass.

        Stable compaction by boolean keep-mask: a storm's completion batch
        evicts tens of thousands of columns, where per-flow swap-deletes
        pay four numpy scalar copies each; here the arrays move in a
        handful of whole-array gathers and only the survivors' ``pos``
        fields are touched in Python.  Arena column order changes relative
        to swap-deleting, which is safe: all solver arithmetic and scans
        are order-independent, and completion *processing* order is fixed
        by the fid sort in ``_on_wake``, not by column order.
        """
        n = self._n_live
        keep = np.ones(n, dtype=bool)
        keep[done_pos] = False
        idx = keep.nonzero()[0]
        m = idx.size
        for name in ("_rem_v", "_rate_v", "_rcap_v"):
            a = getattr(self, name)
            a[:m] = a[idx]
        occ = self._occ_t
        occ[:, :m] = occ[:, idx]
        flows_pos = self._flows_pos
        live = 0
        # idx is ascending, so live <= pos: writes never clobber an unread
        # survivor.
        for pos in idx.tolist():
            mover = flows_pos[pos]
            flows_pos[live] = mover
            mover.pos = live
            live += 1
        for j in range(live, n):
            flows_pos[j] = None
        self._n_live = m

    def _enter_vector(self) -> None:
        # The co-traversal adjacency lives only in vector mode: start it
        # empty and let ingestion register each distinct path once.
        self._n_live = 0
        self._pad = len(self._link_list)
        size = max(64, self._pad)
        self._adjb = np.zeros((size, size), dtype=bool)
        self._pairs = {}
        if len(self._active) >= 64:
            self._ingest_batch(list(self._active))
        else:
            for flow in self._active:
                self._ingest(flow)
        self._vector = True
        self.mode_switches += 1

    def _exit_vector(self) -> None:
        rem, rate = self._rem_v, self._rate_v
        last_advance = self._last_advance
        flows_pos = self._flows_pos
        for flow in self._active:
            pos = flow.pos
            if pos < 0:
                # Arrived this instant, before the flush could ingest it:
                # its scalar attributes are still authoritative.
                continue
            flow._rem = float(rem[pos])
            flow._rate = float(rate[pos])
            # Same on-demand projection as Flow.deadline in vector mode.
            flow._dl = (
                last_advance + flow._rem / flow._rate
                if flow._rate > 0.0
                else None
            )
            flow.pos = -1
            flows_pos[pos] = None
            flow.route.live = 0
        self._adjb = np.zeros((0, 0), dtype=bool)
        self._pairs = {}
        self._n_live = 0
        self._vector = False
        self.mode_switches += 1

    def _manage_mode(self) -> None:
        if self.solver == "scalar":
            return
        n = len(self._active)
        if not self._vector:
            if n >= _VEC_ON or (self.solver == "vector" and n > 0):
                self._enter_vector()
        elif n < _VEC_OFF and self.solver != "vector":
            self._exit_vector()

    # -- internals -----------------------------------------------------------
    def _schedule_recompute(self) -> None:
        """Queue this instant's solve with the end-of-instant flush."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.request_flush(self._flush_recompute)

    def _flush_recompute(self) -> None:
        """Solve the instant's coalesced dirty set and re-arm the wake-up."""
        self._recompute_pending = False
        self._advance_to_now()  # no-op: the instant's first change advanced
        self._manage_mode()
        dirty = self._dirty
        dirty_flows = self._dirty_flows
        if dirty or dirty_flows:
            self._dirty = {}
            self._dirty_flows = {}
            if self._vector:
                active = self._active
                arrivals = [
                    flow
                    for flow in dirty_flows
                    if flow.pos < 0 and flow in active
                ]
                if len(arrivals) >= 64:
                    self._ingest_batch(arrivals)
                else:
                    for flow in arrivals:
                        self._ingest(flow)
                scope = self._scope_vector(dirty, dirty_flows)
                if scope is None or scope.size >= _VEC_SOLVE_MIN:
                    self._solve_vector(scope)
                elif scope.size:
                    # Tiny perturbed component: the scalar kernel wins even
                    # with the arena active (the two are bit-identical).
                    flows_pos = self._flows_pos
                    flows = [flows_pos[pos] for pos in scope]
                    self._compute_rates(flows)
                    rate = self._rate_v
                    for flow in flows:
                        rate[flow.pos] = flow._rate
            else:
                self._compute_rates(self._scope_scalar(dirty, dirty_flows))
        self._refresh_deadlines_and_arm()

    def _advance_to_now(self) -> None:
        """Debit progress on all active flows since the last solve instant.

        Rates were constant over the elapsed interval, so the debit is the
        exact ``remaining - rate * elapsed`` the reference kernel computes.
        Deadlines are refreshed en masse at the end-of-instant flush.
        """
        now = self.sim.now
        elapsed = now - self._last_advance
        if elapsed <= 0.0:
            return
        if self._vector:
            n = self._n_live
            if n:
                rem = self._rem_v[:n]
                rem -= self._rate_v[:n] * elapsed
        else:
            for flow in self._active:
                flow._rem = flow._rem - flow._rate * elapsed
        self._last_advance = now

    # -- component scoping ---------------------------------------------------
    def _scope_scalar(
        self, dirty: Dict[Link, None], dirty_flows: Dict[Flow, None]
    ) -> List[Flow]:
        """Flows in the connected component(s) of the dirty links.

        A batch of arrivals/departures can only change rates of flows
        sharing a link with a perturbed flow, transitively.  The list is in
        discovery order: :meth:`_compute_rates` is order-independent (every
        flow fixed in a round gets the same ``minimum``, and a link's
        debits are that many identical subtract/clamp steps), so no pass
        back through ``_active`` order is needed.
        """
        active = self._active
        seen_links = set(dirty)
        seen_flows = dict.fromkeys(flow for flow in dirty_flows if flow in active)
        n_active = len(active)
        queue: List[Link] = list(dirty)
        for flow in seen_flows:
            for link, _ in flow.route.occ:
                if link not in seen_links:
                    seen_links.add(link)
                    queue.append(link)
        pop = queue.pop
        while queue:
            if len(seen_flows) >= n_active:
                break
            link = pop()
            for flow in link.flows:
                if flow not in seen_flows:
                    seen_flows[flow] = None
                    for other, _ in flow.route.occ:
                        if other not in seen_links:
                            seen_links.add(other)
                            queue.append(other)
        return list(seen_flows)

    def _scope_vector(
        self, dirty: Dict[Link, None], dirty_flows: Dict[Flow, None]
    ) -> Optional[np.ndarray]:
        """Arena rows of the dirty links' connected component(s).

        BFS over the link-link co-traversal graph (``_adjb``): every flow's
        path is a clique there, so the link-side components of the
        bipartite flow/link graph coincide with the flow-side ones.  The
        expansion therefore runs entirely on #links-sized arrays; the live
        flows are gathered against the final link set exactly once.
        Returns None when the component covers every live flow, so callers
        can use whole-array views instead of fancy indexing.
        """
        n = self._n_live
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if len(dirty_flows) >= n:
            # A synchronised wave marks every live flow dirty; the component
            # is trivially total, so skip the BFS and the per-flow marking.
            live_dirty = 0
            for flow in dirty_flows:
                if flow.pos >= 0:
                    live_dirty += 1
            if live_dirty >= n:
                return None
        occ = self._occ_t
        pad = self._pad
        link_seen = np.zeros(pad + 1, dtype=bool)
        for link in dirty:
            link_seen[link.idx] = True
        # Path-less (rate-cap-only) flows are isolated single-flow
        # components; they never hit a link during the BFS, so collect
        # their rows separately and splice them into the result.
        isolated: List[int] = []
        for flow in dirty_flows:
            pos = flow.pos
            if pos < 0:
                continue
            if flow.path:
                link_seen[occ[:, pos]] = True
            else:
                isolated.append(pos)
        link_seen[pad] = False
        seen_l = link_seen[:pad]
        adjb = self._adjb[:pad, :pad]
        count = int(np.count_nonzero(seen_l))
        while count:
            # Expand from every seen link at once; re-including settled
            # rows costs nothing at #links scale and keeps the iteration
            # at four array ops.
            reach = adjb[seen_l].any(axis=0)
            seen_l |= reach
            grown = int(np.count_nonzero(seen_l))
            if grown == count:
                break
            count = grown
        if not isolated and not self._pathless_active:
            # Full-cover shortcut: with no path-less flows alive, the scope
            # is total iff every *occupied* link landed in the component —
            # checked over #links instead of gathering the whole arena.
            for link in self._link_list:
                if link.flows and not seen_l[link.idx]:
                    break
            else:
                return None
        # One flow gather against the settled link set.
        hit = link_seen[occ[:, :n]].any(axis=0)
        if isolated:
            hit[isolated] = True
        if int(np.count_nonzero(hit)) >= n:
            return None
        return hit.nonzero()[0]

    # -- wake-ups and completions --------------------------------------------
    def _refresh_deadlines_and_arm(self) -> None:
        """Recompute every active flow's projected completion, arm a wake.

        All deadlines are re-evaluated as ``now + remaining / rate`` at the
        flush instant — exactly the division the reference kernel performs
        after each advance — so completion wake-ups land on bit-identical
        times whichever mode computed them.
        """
        now = self.sim.now
        earliest = _INF
        if self._vector:
            n = self._n_live
            if n:
                rate = self._rate_v[:n]
                if self._sc_flow_f.size < n:
                    self._sc_flow_f = np.empty(max(64, 2 * n))
                left = self._sc_flow_f[:n]
                # Rates are positive for every live flow, so the plain
                # division is exact; a zero rate would surface as inf
                # (harmless, same as the masked path) or, with zero
                # remaining, as nan — caught below and recomputed the
                # careful way.
                np.divide(self._rem_v[:n], rate, out=left)
                # IEEE addition is monotone, so the flow minimising
                # remaining/rate also minimises now + remaining/rate, and
                # for that flow the sum below is the exact scalar-path
                # expression — no per-flow deadline array needed.
                shortest = float(np.minimum.reduce(left))
                if shortest != shortest:  # pragma: no cover - 0-rate guard
                    left.fill(_INF)
                    np.divide(self._rem_v[:n], rate, out=left, where=rate > 0.0)
                    shortest = float(np.minimum.reduce(left))
                if shortest != _INF:
                    earliest = now + shortest
        else:
            for flow in self._active:
                rate = flow._rate
                if rate > 0.0:
                    deadline = now + flow._rem / rate
                    flow._dl = deadline
                    if deadline < earliest:
                        earliest = deadline
                else:  # pragma: no cover - defensive; rates > 0 always
                    flow._dl = None
        if earliest == _INF:
            self._wake_event = None
            return
        delay = earliest - now
        if delay < 0.0:
            delay = 0.0
        wake = self.sim.timeout(delay, name="flownet:wake")
        wake.add_callback(self._on_wake)
        self._wake_event = wake

    def _on_wake(self, event: Event) -> None:
        if event is not self._wake_event:
            return  # a newer solve superseded this wake-up
        self._wake_event = None
        self._advance_to_now()
        now = self.sim.now
        if self._vector:
            n = self._n_live
            done_pos = (self._rem_v[:n] <= _EPSILON_BYTES).nonzero()[0]
            flows_pos = self._flows_pos
            finished = [flows_pos[pos] for pos in done_pos]
            # _active insertion order == ascending fid (fids are assigned
            # at insertion); completion processing must match the scalar
            # path's _active scan so done-event sequencing is identical.
            finished.sort(key=_fid_of)
        else:
            finished = [f for f in self._active if f._rem <= _EPSILON_BYTES]
        if not finished:  # pragma: no cover - defensive
            self._schedule_recompute()
            return
        active = self._active
        dirty = self._dirty
        # Above the threshold, arena columns are compacted in one vectorized
        # pass instead of one swap-delete per flow (see _evict_batch).
        batch = self._vector and len(finished) >= 64
        # Dirty-marking is per *route*: a 100k-flow completion batch touches
        # the same handful of links, so mark each link once up front.
        touched = {}
        for flow in finished:
            touched[flow.route] = None
        for route in touched:
            for link, _ in route.occ:
                dirty[link] = None
        completed_bytes = self.completed_bytes
        for flow in finished:
            active.pop(flow, None)
            route = flow.route
            for link, _ in route.occ:
                link.flows.pop(flow, None)
            if not flow.path:
                self._pathless_active -= 1
            if flow.pos >= 0:
                route.live -= 1
                if not route.live:
                    self._unregister_pairs(route)
                if batch:
                    flow.pos = -1
                else:
                    self._evict(flow)
            flow._net = None
            flow._rem = 0.0
            flow._rate = 0.0
            flow._dl = None
            flow.end_time = now
            # Sequential accumulation preserved bit-for-bit: same additions
            # in the same order as the per-flow form, via a local.
            completed_bytes += flow.size
        self.completed_bytes = completed_bytes
        self.flow_changes += len(finished)
        self.completed_flows += len(finished)
        if batch:
            self._evict_batch(done_pos)
        # The solve is deferred to the end-of-instant flush: completions
        # resume processes that often start replacement flows at this same
        # instant, and one solve serves the departures and the replacements.
        self._schedule_recompute()
        for flow in finished:
            done = flow.done
            # Clear the back-reference before triggering: the done event
            # holds the flow as its value, and ``flow.done`` pointing back
            # would make every completed transfer a reference cycle — 100k
            # cycles per wave is pure cyclic-GC load (gen2 pauses dominate
            # the storm benchmarks).  With the edge cut, refcounting frees
            # the whole wave as soon as the caller drops its events.
            flow.done = None
            done.succeed(flow)

    # -- water-filling -------------------------------------------------------
    def _compute_rates(self, flows: List[Flow]) -> None:
        """Progressive-filling max-min fair allocation with per-flow caps.

        Repeatedly: compute each link's fair share among its unfixed flows;
        each unfixed flow's bound is the minimum of its links' fair shares
        and its own cap; fix every flow whose bound equals the round's
        minimum bound; subtract fixed rates from link capacities.  This is
        the textbook water-filling algorithm, restricted to the perturbed
        component (``flows``) and evaluated with per-link running
        aggregates rather than per-recompute dicts.

        Initialisation and bounds walk each path's distinct links
        (:attr:`_Route.occ`); the capacity debit stays per occurrence.  The
        result does not depend on the order of ``flows``.
        """
        if not flows:
            return
        self.solver_runs += 1
        if self._pathless_active:
            # A path-less (rate-cap-only) flow is constrained by nothing:
            # its max-min rate is exactly its cap.  Fix it before filling so
            # the tie threshold can never collapse it onto an unrelated
            # component's bound that drifted within a ULP of the cap.
            filling = []
            for flow in flows:
                if flow.path:
                    filling.append(flow)
                else:
                    flow._rate = flow.rate_cap
            flows = filling
            if not flows:
                return
        self._epoch += 1
        epoch = self._epoch
        links: List[Link] = []
        for flow in flows:
            for link, mult in flow.route.occ:
                if link._epoch != epoch:
                    link._epoch = epoch
                    link._cap_left = (
                        link.capacity
                        if link.capacity_fn is None
                        else link.effective_capacity(len(link.flows))
                    )
                    link._n_unfixed = mult
                    links.append(link)
                else:
                    link._n_unfixed += mult

        unfixed = flows
        while unfixed:
            for link in links:
                n = link._n_unfixed
                if n > 0:
                    link._share = link._cap_left / n
            minimum = _INF
            for flow in unfixed:
                bound = flow.rate_cap
                for link, _ in flow.route.occ:
                    share = link._share
                    if share < bound:
                        bound = share
                flow._bound = bound
                if bound < minimum:
                    minimum = bound
            if minimum == _INF:  # pragma: no cover - guarded in transfer()
                raise AssertionError("unbounded flow rate: no cap and empty path")
            threshold = minimum * (1.0 + 1e-12)
            still_unfixed: List[Flow] = []
            for flow in unfixed:
                if flow._bound <= threshold:
                    flow._rate = minimum
                    for link in flow.path:
                        # Inlined max(left, 0.0) — this line runs once per
                        # (flow, link) per round and the builtin call
                        # dominated the barrier_burst profile.
                        left = link._cap_left - minimum
                        link._cap_left = left if left >= 0.0 else 0.0
                        link._n_unfixed -= 1
                else:
                    still_unfixed.append(flow)
            unfixed = still_unfixed

    def _solve_scratch(self, rows: int, n: int, n_pad: int) -> None:
        """Size the reusable solver scratch for a (rows x n) working set.

        The water-filling loop allocates nothing per round; everything it
        touches lives in these buffers, doubled on demand.
        """
        if self._sc_flat_i.size < rows * n:
            size = max(256, 2 * rows * n)
            self._sc_flat_i = np.empty(size, dtype=np.int64)
            self._sc_flat_f = np.empty(size)
        if self._sc_share.size < n_pad + n:
            self._sc_share = np.empty(max(256, 2 * (n_pad + n)))
        if self._sc_capleft.size < n_pad:
            size = max(64, 2 * n_pad)
            self._sc_capleft = np.empty(size)
            self._sc_div = np.empty(size)
            self._sc_seg = np.empty(size, dtype=np.int64)
            self._sc_off = np.empty(size, dtype=np.int64)
            self._sc_folded = np.empty(size)
        if self._sc_flow_f.size < n:
            self._sc_flow_f = np.empty(max(64, 2 * n))
        if self._sc_flow_f2.size < n:
            size = max(64, 2 * n)
            self._sc_flow_f2 = np.empty(size)
            self._sc_ar = np.arange(size, dtype=np.int64)

    def _solve_vector(self, scope: Optional[np.ndarray]) -> None:
        """Vectorized water-filling over the scoped arena columns.

        ``scope`` is an array of arena columns, or None for all live flows.
        Bit-identical to :meth:`_compute_rates`: shares are the same
        one-division-per-link quotients, per-flow bounds are pure minima
        (order-independent, with the pad sentinel's +inf share absorbed),
        every fixed flow receives the round minimum, and the per-link
        capacity debit replays the scalar path's subtract-then-clamp chain
        exactly — for a link whose flows fix ``k`` times in a round,
        ``np.subtract.reduceat`` left-folds the identical
        ``cap_left - minimum - minimum - ...`` sequence and a single final
        clamp equals clamping between steps, because the subtrahend is the
        same non-negative ``minimum`` throughout the round.

        The working set is a copied ``(stride + 1, n)`` index matrix: the
        path rows of the scope plus one row of per-flow "cap links" whose
        shares are the flows' own rate caps, so a single gather + axis-0
        min yields every bound.  Flows fixed in a round are *poisoned* —
        their column is repointed at the sentinel and their cap share at
        +inf — which removes them from all later rounds without any
        unfixed-mask bookkeeping, and makes the per-round per-link counts
        a straight ``bincount`` of the matrix itself.
        """
        self.solver_runs += 1
        self.vector_solves += 1
        stride = self._stride
        rows = stride + 1
        n_pad = self._pad + 1
        pad = n_pad - 1
        n = self._n_live if scope is None else scope.size
        self._solve_scratch(rows, n, n_pad)
        occT = self._sc_flat_i[: rows * n].reshape(rows, n)
        if scope is None:
            occT[:stride] = self._occ_t[:, :n]
        else:
            self._occ_t.take(scope, axis=1, out=occT[:stride])
        np.add(self._sc_ar[:n], n_pad, out=occT[stride])
        counts = np.bincount(occT[:stride].ravel(), minlength=n_pad)
        share_ext = self._sc_share[: n_pad + n]
        if scope is None:
            share_ext[n_pad:] = self._rcap_v[:n]
        else:
            self._rcap_v.take(scope, out=share_ext[n_pad:])
        cap_left = self._sc_capleft[:n_pad]
        cap_left[:pad] = self._cap_a[:pad]
        cap_left[pad] = _INF
        for link in self._fn_links:
            if counts[link.idx]:
                cap_left[link.idx] = link.effective_capacity(len(link.flows))
        div = self._sc_div[:n_pad]
        g = self._sc_flat_f[: rows * n].reshape(rows, n)
        bounds = self._sc_flow_f[:n]
        folded = self._sc_folded[:n_pad]
        offsets = self._sc_off[:n_pad]
        seg = self._sc_seg[:pad]
        rates = self._rate_v[:n] if scope is None else self._sc_flow_f2[:n]
        if self._sc_flow_b.size < n:
            self._sc_flow_b = np.empty(max(64, 2 * n), dtype=bool)
        fixed = self._sc_flow_b[:n]
        n_done = 0
        if self._pathless_active:
            # Path-less flows always run at exactly their cap (their column
            # gathers only the cap row); pre-fix and poison them so the tie
            # threshold never couples them to another component's bound.
            # Columns are left-packed, so row 0 == pad means an empty path
            # (with stride 0 every live flow is path-less).
            if stride:
                ppos = (occT[0] == pad).nonzero()[0]
            else:
                ppos = self._sc_ar[:n]
            if ppos.size:
                rates[ppos] = share_ext[n_pad:][ppos]
                occT[:, ppos] = pad
                n_done = int(ppos.size)
        while n_done < n:
            # Links with no unfixed flows get share == cap_left instead of
            # the scalar path's +inf, but no live column references them —
            # their flows are all poisoned — so the value is never read.
            np.maximum(counts, 1, out=div)
            np.divide(cap_left, div, out=share_ext[:n_pad])
            share_ext.take(occT, out=g)
            np.minimum.reduce(g, axis=0, out=bounds)
            minimum = float(np.minimum.reduce(bounds))
            if minimum == _INF:  # pragma: no cover - guarded in transfer()
                raise AssertionError("unbounded flow rate: no cap and empty path")
            np.less_equal(bounds, minimum * (1.0 + 1e-12), out=fixed)
            fpos = fixed.nonzero()[0]
            rates[fpos] = minimum
            n_done += fpos.size
            if n_done >= n:
                break  # the final round's capacity debit is dead scratch
            # Debit counts from just the fixed columns (gathered before the
            # poison below): k[l] is how many of the round's fixed flows
            # traverse link l — identical to diffing two full bincounts but
            # over a (stride, fixed) slice instead of the whole matrix.
            cols = occT[:stride].take(fpos, axis=1)
            k = np.bincount(cols.ravel(), minlength=n_pad)
            k[pad] = 0  # path padding lands here; the sentinel never pays
            np.subtract(counts, k, out=counts)
            # Poison every row of the fixed columns, cap row included: the
            # sentinel's share is +inf (cap_left[pad] survives each fold as
            # a single-element reduceat segment), so the repointed cap
            # entries gather +inf exactly like a dedicated cap poison.
            occT[:, fpos] = pad
            # One reduceat over segments [cap_left[l], m, m, ... (k times)]
            # folds every link's k exact repeated subtractions at once;
            # k == 0 links pass through their single-element segment.
            offsets[0] = 0
            np.add(k[:pad], 1, out=seg)
            seg.cumsum(out=offsets[1:])
            total = int(offsets[pad]) + 1
            if self._sc_fold.size < total:
                self._sc_fold = np.empty(max(1024, 2 * total))
            fold = self._sc_fold[:total]
            fold.fill(minimum)
            fold[offsets] = cap_left
            np.subtract.reduceat(fold, offsets, out=folded)
            # max(x, 0.0) matches the scalar "left if left >= 0.0 else 0.0"
            # clamp: the fold can't produce -0.0 (operands are >= +0.0 and
            # a - b rounds ties to +0.0), so the only divergence case never
            # occurs.
            np.maximum(folded, 0.0, out=cap_left)
        if scope is not None:
            self._rate_v[scope] = rates
