"""Per-layer host-time spans, recorded from outside the program.

:class:`LayerTracer` wraps the public functions at each layer boundary of
:mod:`repro` for the lifetime of a ``with`` block and restores them on
exit.  Every call of a wrapped function is a span; a wrapped *generator*
function (a simulated op driven with ``yield from``) gives one span per
resume, because between resumes the op is parked in the simulator and
costs no host time.  A span's self time is its duration minus the time
its child spans cover, so the self times of all layers add up to at most
the traced wall time; the rest is reported as ``unattributed``.

Spans are folded into per-boundary totals in memory as they close (a run
makes millions of them) and written out once, at the end.

Known gap: the fused-delay bodies of fast-path metadata ops run on pooled
driver events from the simulator's dispatch loop, not in the caller's
frame, and server-side processes are not wrapped, so their time shows up
as ``simulation`` self time until the program records its own spans.

The tracer does not install :mod:`repro.simulation.trace`, which would
switch the metadata fast path off.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.daos.client import DaosClient
from repro.daos.payload import Payload
from repro.fdb.fieldio import FieldIO
from repro.network.flow import FlowNetwork
from repro.posixfs.client import PosixClient
from repro.serving.gateway import Gateway
from repro.simulation.core import Simulator
from repro.workloads import fields

__all__ = ["LayerTracer", "LAYERS", "DAOS_OPS"]

#: Layers in report order.
LAYERS = (
    "simulation", "network.solve", "network.admit", "daos.client",
    "daos.payload", "posixfs.client", "fdb", "serving",
)

#: Public ``DaosClient`` ops (all generator functions) timed as the
#: storage-client layer: ``posixfs`` when called on a :class:`PosixClient`,
#: which overrides only their bodies.
DAOS_OPS = (
    "container_create", "container_open", "container_exists", "container_destroy",
    "kv_open", "kv_put", "kv_get", "kv_get_or_none", "kv_list", "kv_remove",
    "kv_put_many", "kv_get_many", "submit_multi",
    "array_create", "array_open", "array_close", "array_get_size",
    "array_punch", "array_set_size", "array_write", "array_read",
)

FIELDIO_OPS = ("write", "read", "write_many", "read_many", "read_request")


class LayerTracer:
    """Install span wrappers on enter, restore the originals on exit.

    ``totals`` maps ``"<layer>|<boundary>"`` to ``[self_seconds, spans]``;
    ``counts`` holds the call counters recorded at the same boundaries.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {
            "simulation.processes": 0,
            "simulation.flushes": 0,
            "network.transfers": 0,
            "daos.payload_digests": 0,
            "fdb.fields": 0,
            "serving.requests": 0,
        }
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []
        #: Open FieldIO spans; nested FieldIO calls add no fields.
        self._fdb_depth = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- span primitives -----------------------------------------------------------
    def _entry(self, layer: str, boundary: str) -> List[float]:
        return self.totals.setdefault(f"{layer}|{boundary}", [0.0, 0])

    def _timed_call(self, entry: List[float], fn: Callable) -> Callable:
        stack = self._stack

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry[0] += elapsed - stack.pop()
                entry[1] += 1
                if stack:
                    stack[-1] += elapsed

        return span

    def _drive(self, entry: List[float], gen, fdb: bool = False):
        """Re-yield ``gen``'s waits, timing each resume as one span."""
        stack = self._stack
        value = None
        error = None
        while True:
            stack.append(0.0)
            if fdb:
                self._fdb_depth += 1
            start = perf_counter()
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = perf_counter() - start
                entry[0] += elapsed - stack.pop()
                entry[1] += 1
                if stack:
                    stack[-1] += elapsed
                if fdb:
                    self._fdb_depth -= 1
            try:
                value = yield target
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the simulator; re-thrown below
                value = None
                error = exc

    def _driven(self, entry: List[float], gen, fdb: bool = False):
        driven = self._drive(entry, gen, fdb)
        driven.__name__ = gen.__name__
        return driven

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    # -- the layer boundaries --------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self._wrap_simulation()
        self._wrap_network()
        self._wrap_clients()
        self._wrap_payload()
        self._wrap_fieldio()
        self._wrap_serving()
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap_simulation(self) -> None:
        counts = self.counts
        run = self._timed_call(self._entry("simulation", "Simulator.run"), Simulator.run)
        process = self._timed_call(
            self._entry("simulation", "Simulator.process"), Simulator.process
        )
        batch = self._timed_call(
            self._entry("simulation", "Simulator.spawn_batch"), Simulator.spawn_batch
        )
        request_flush = Simulator.request_flush
        solve = self._entry("network.solve", "FlowNetwork flush")
        timed_call = self._timed_call

        def counted_process(sim, generator, name=""):
            counts["simulation.processes"] += 1
            return process(sim, generator, name)

        def counted_batch(sim, generators, name=""):
            processes = batch(sim, generators, name)
            counts["simulation.processes"] += len(processes)
            return processes

        def traced_flush(sim, callback):
            counts["simulation.flushes"] += 1
            if isinstance(getattr(callback, "__self__", None), FlowNetwork):
                callback = timed_call(solve, callback)
            return request_flush(sim, callback)

        self._patch(Simulator, "run", run)
        self._patch(Simulator, "process", counted_process)
        self._patch(Simulator, "spawn_batch", counted_batch)
        self._patch(Simulator, "request_flush", traced_flush)

    def _wrap_network(self) -> None:
        counts = self.counts
        transfer = self._timed_call(
            self._entry("network.admit", "FlowNetwork.transfer"), FlowNetwork.transfer
        )
        admit = self._timed_call(
            self._entry("network.admit", "FlowNetwork.admit_flows"), FlowNetwork.admit_flows
        )

        def counted_transfer(net, *args, **kwargs):
            counts["network.transfers"] += 1
            return transfer(net, *args, **kwargs)

        def counted_admit(net, specs, *args, **kwargs):
            counts["network.transfers"] += len(specs)
            return admit(net, specs, *args, **kwargs)

        self._patch(FlowNetwork, "transfer", counted_transfer)
        self._patch(FlowNetwork, "admit_flows", counted_admit)
        self._patch(FlowNetwork, "evict_flows", self._timed_call(
            self._entry("network.admit", "FlowNetwork.evict_flows"), FlowNetwork.evict_flows
        ))

    def _wrap_clients(self) -> None:
        for name in DAOS_OPS:
            daos = self._entry("daos.client", f"DaosClient.{name}")
            posix = self._entry("posixfs.client", f"PosixClient.{name}")

            def op(client, *args, _fn=DaosClient.__dict__[name], _daos=daos, _posix=posix,
                   **kwargs):
                entry = _posix if isinstance(client, PosixClient) else _daos
                return self._driven(entry, _fn(client, *args, **kwargs))
            self._patch(DaosClient, name, op)

    def _wrap_payload(self) -> None:
        counts = self.counts
        digest = self._timed_call(
            self._entry("daos.payload", "Payload.content_digest"), Payload.content_digest
        )

        def counted_digest(payload):
            counts["daos.payload_digests"] += 1
            return digest(payload)

        self._patch(Payload, "content_digest", counted_digest)
        pending = list(Payload.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "to_bytes" in cls.__dict__:
                self._patch(cls, "to_bytes", self._timed_call(
                    self._entry("daos.payload", f"{cls.__name__}.to_bytes"),
                    cls.__dict__["to_bytes"],
                ))
        original = fields.field_payload
        wrapped = self._timed_call(
            self._entry("daos.payload", "field_payload"), original
        )
        # Callers bind field_payload at import time: rebind it everywhere.
        for module in list(sys.modules.values()):
            if getattr(module, "field_payload", None) is original:
                self._patch(module, "field_payload", wrapped)

    def _wrap_fieldio(self) -> None:
        counts = self.counts
        for name in FIELDIO_OPS:
            original = FieldIO.__dict__[name]
            entry = self._entry("fdb", f"FieldIO.{name}")

            if name in ("write_many", "read_many"):
                def op(fio, items, *args, _fn=original, _entry=entry, **kwargs):
                    if not self._fdb_depth:
                        items = self._counting(items)
                    return self._driven(_entry, _fn(fio, items, *args, **kwargs), fdb=True)
            else:
                # read_request reads through FieldIO.read, which counts.
                step = 0 if name == "read_request" else 1

                def op(fio, *args, _fn=original, _entry=entry, _step=step, **kwargs):
                    if not self._fdb_depth:
                        counts["fdb.fields"] += _step
                    return self._driven(_entry, _fn(fio, *args, **kwargs), fdb=True)
            self._patch(FieldIO, name, op)

    def _counting(self, items):
        counts = self.counts
        for item in items:
            counts["fdb.fields"] += 1
            yield item

    def _wrap_serving(self) -> None:
        counts = self.counts
        serve = Gateway.serve
        entry = self._entry("serving", "Gateway.serve")

        def traced_serve(gateway, *args, **kwargs):
            counts["serving.requests"] += 1
            return self._driven(entry, serve(gateway, *args, **kwargs))

        self._patch(Gateway, "serve", traced_serve)

    # -- results -----------------------------------------------------------------------
    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer (every layer present, zero if unused)."""
        times = {layer: 0.0 for layer in LAYERS}
        for key, (self_s, _) in self.totals.items():
            times[key.split("|", 1)[0]] += self_s
        return times

    def boundaries(self) -> Dict[str, Dict[str, float]]:
        """Per-boundary span totals, the form written out at the end."""
        return {
            key: {"self_s": self_s, "spans": int(spans)}
            for key, (self_s, spans) in sorted(self.totals.items())
            if spans
        }
