"""The four benchmark workloads: set-up, measured phase and checked outputs.

Each workload is split at the point the benchmark starts its clock:

* ``setup`` builds the deployment and everything a user pays for before the
  experiment proper (``build_deployment``, ``FieldIO.bootstrap`` and, for
  ``product_serving``, archiving the catalogue) and generates the inputs
  from the seed;
* ``measure`` runs the simulated experiment and returns its simulated
  outputs, which ``digest`` hashes together with the merged ``OpStats`` of
  every storage client the run created.

Where a library function already is the whole experiment (Field I/O
pattern A, mdtest) it is called directly.  The serving and cycle drivers
restate the bodies of ``serving_point`` and ``cycle_point`` (the plain
rows: no QoS, no engine failure) so that their set-up can be kept out of
the clock; the cycle driver reuses that experiment's writer, reader and
forecast helpers.  The tests check that the restated drivers give the
same outputs as those functions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.bench.fieldio_bench import (
    Contention,
    FieldIOBenchParams,
    run_fieldio_pattern_a,
)
from repro.bench.mdtest import MdtestParams, run_mdtest
from repro.bench.runner import build_deployment
from repro.config import ClusterConfig
from repro.daos.rpc import merge_op_stats
from repro.experiments.common import latency_percentiles
from repro.experiments.operational_cycle import _cycle_forecast, _reader, _writer
from repro.fdb.fieldio import FieldIO
from repro.fdb.modes import FieldIOMode
from repro.serving.gateway import Gateway, GatewayConfig
from repro.units import GiB, KiB, MiB
from repro.workloads import fields
from repro.workloads.generator import serving_catalog, serving_request
from repro.workloads.zipf import TenantSpec, zipf_schedule

__all__ = ["WORKLOADS", "SIZES", "Deployment", "Workload", "digest"]


@dataclass
class Deployment:
    """One deployment plus every storage client created on it.

    ``clients`` is filled by a wrapper around ``system.make_client``;
    clients from index ``measured_from`` on were created in the measured
    phase and are the ones whose ops count towards ``ops_per_s``.
    """

    cluster: Any
    system: Any
    pool: Any
    clients: List[Any] = field(default_factory=list)
    measured_from: int = 0
    #: Workload state carried from set-up into the measured phase.
    state: Dict[str, Any] = field(default_factory=dict)

    @property
    def measured_clients(self) -> List[Any]:
        return self.clients[self.measured_from:]


def deploy(config: ClusterConfig, backend: str = "daos") -> Deployment:
    cluster, system, pool = build_deployment(config, backend=backend)
    deployment = Deployment(cluster, system, pool)
    make_client = system.make_client

    def collecting_make_client(address, middleware=None):
        client = make_client(address, middleware=middleware)
        deployment.clients.append(client)
        return client

    system.make_client = collecting_make_client
    return deployment


def _bootstrap(dep: Deployment) -> None:
    sim = dep.cluster.sim
    boot = dep.system.make_client(dep.cluster.client_addresses(1)[0])
    sim.run(until=sim.process(FieldIO.bootstrap(boot, dep.pool)))


# -- fieldio_contended ---------------------------------------------------------------

def _fieldio_setup(p: Dict[str, Any], seed: int) -> Deployment:
    config = ClusterConfig(
        n_server_nodes=p["servers"], n_client_nodes=p["clients"], seed=seed
    )
    return deploy(config)


def _fieldio_measure(dep: Deployment, p: Dict[str, Any]) -> Dict[str, Any]:
    # run_fieldio_pattern_a performs its own FieldIO.bootstrap (a handful
    # of ops); the point then stays the exact fig4 grid point.
    params = FieldIOBenchParams(
        mode=FieldIOMode.FULL,
        contention=Contention.HIGH,
        n_ops=p["n_ops"],
        field_size=p["field_size"],
        processes_per_node=p["ppn"],
        startup_skew=0.1,
    )
    result = run_fieldio_pattern_a(dep.cluster, dep.system, dep.pool, params)
    return {
        "log_digest": result.log.digest(),
        "records": len(result.log),
        "bytes": result.log.total_bytes,
        "write_gib_s": (result.summary.write_global or 0.0) / GiB,
        "read_gib_s": (result.summary.read_global or 0.0) / GiB,
    }


def _fieldio_check(out: Dict[str, Any], p: Dict[str, Any]) -> List[str]:
    procs = p["clients"] * p["ppn"]
    expected = 2 * procs * p["n_ops"]
    problems = []
    if out["records"] != expected:
        problems.append(f"{out['records']} I/O records, expected {expected}")
    if out["bytes"] != expected * p["field_size"]:
        problems.append(f"{out['bytes']} bytes moved, expected {expected * p['field_size']}")
    if not (out["write_gib_s"] > 0 and out["read_gib_s"] > 0):
        problems.append("non-positive bandwidth")
    return problems


def _fieldio_headline(out: Dict[str, Any]) -> str:
    return f"write {out['write_gib_s']:.4f} GiB/s, read {out['read_gib_s']:.4f} GiB/s"


# -- product_serving -----------------------------------------------------------------

def _serving_setup(p: Dict[str, Any], seed: int) -> Deployment:
    config = ClusterConfig(
        n_server_nodes=p["servers"], n_client_nodes=p["clients"], seed=seed
    )
    dep = deploy(config)
    _bootstrap(dep)
    sim = dep.cluster.sim
    catalog = serving_catalog(p["n_fields"])
    loader = FieldIO(dep.system.make_client(dep.cluster.client_addresses(1)[0]), dep.pool)
    size = p["field_size"]

    def load():
        for key in catalog:
            yield from loader.write(key, fields.field_payload(key, size))

    sim.run(until=sim.process(load(), name="serving:load"))
    dep.state["schedule"] = zipf_schedule(
        n_requests=p["n_requests"],
        rate=p["rate"],
        n_fields=p["n_fields"],
        exponent=1.2,
        tenants=[TenantSpec(f"t{i}") for i in range(p["n_tenants"])],
        seed=seed,
    )
    return dep


def _serving_measure(dep: Deployment, p: Dict[str, Any]) -> Dict[str, Any]:
    sim = dep.cluster.sim
    n_fields = p["n_fields"]
    gateway = Gateway(
        dep.cluster,
        dep.system,
        dep.pool,
        GatewayConfig(
            cache_capacity=int(p["cache_frac"] * n_fields * p["field_size"]),
            cache_ttl=None,
            replication=1,
            promote_threshold=16,
            workers_per_tenant=4,
            coalesce=False,
        ),
    )
    for index in range(p["n_tenants"]):
        gateway.add_tenant(f"t{index}")
    latencies: List[float] = []

    def user(arrival: float, tenant: str, request, index: int):
        outcome = yield from gateway.serve(tenant, request, worker=index)
        if not outcome["shed"]:
            latencies.append(sim.now - arrival)

    def traffic(start: float):
        for index, (offset, tenant, field_id) in enumerate(dep.state["schedule"]):
            arrival = start + offset
            if arrival > sim.now:
                yield sim.timeout(arrival - sim.now)
            request = serving_request(field_id, n_fields, span=1)
            sim.process(user(sim.now, tenant, request, index), name=f"serving:user{index}")

    start = sim.now
    sim.process(traffic(start), name="serving:traffic")
    sim.run()
    cache = gateway.cache
    out: Dict[str, Any] = {
        "latencies": latencies,
        "gateway": gateway.stats(),
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": cache.hit_rate,
        "evictions": cache.evictions,
        "duration": sim.now - start,
    }
    out.update(latency_percentiles(latencies))
    return out


def _serving_check(out: Dict[str, Any], p: Dict[str, Any]) -> List[str]:
    problems = []
    stats = out["gateway"]
    if stats["requests"] != p["n_requests"]:
        problems.append(f"{stats['requests']} requests served, expected {p['n_requests']}")
    if len(out["latencies"]) + stats["shed"] != p["n_requests"]:
        problems.append("served + shed requests do not add up to the schedule")
    if out["hits"] + out["misses"] != stats["fields"]:
        problems.append("cache hits + misses differ from fields served")
    return problems


def _serving_headline(out: Dict[str, Any]) -> str:
    return (
        f"p50 {out['p50'] * 1e3:.4f} ms, p99 {out['p99'] * 1e3:.4f} ms, "
        f"hit rate {out['hit_rate']:.4f}, shed {out['gateway']['shed']}"
    )


# -- operational_cycle ---------------------------------------------------------------

def _cycle_setup(p: Dict[str, Any], seed: int) -> Deployment:
    config = ClusterConfig(
        n_server_nodes=p["servers"], n_client_nodes=p["clients"], seed=seed
    )
    dep = deploy(config)
    _bootstrap(dep)
    return dep


def _cycle_measure(dep: Deployment, p: Dict[str, Any]) -> Dict[str, Any]:
    sim = dep.cluster.sim
    n_writers, n_readers = p["n_writers"], p["n_readers"]
    shape = (p["n_params"], p["n_levels"], p["n_steps"])
    size, reads = p["field_size"], p["reads_per_reader"]
    per_node = -(-(n_writers + n_readers) // p["clients"])
    addresses = dep.cluster.client_addresses(per_node)
    ios = [
        FieldIO(dep.system.make_client(addresses[i % len(addresses)]), dep.pool)
        for i in range(n_writers + n_readers)
    ]
    writer_ios, reader_ios = ios[:n_writers], ios[n_writers:]
    write_seconds = read_seconds = 0.0
    bytes_written = bytes_read = 0
    cycle_times: List[float] = []
    for cycle in range(p["n_cycles"]):
        forecast = _cycle_forecast(cycle, *shape)
        cycle_start = sim.now
        writers = sim.spawn_batch(
            (
                _writer(writer_ios[index], shard, size, p["write_batch"])
                for index, shard in enumerate(forecast.partition(n_writers))
            ),
            name=f"cycle{cycle}:writers",
        )
        readers = []
        if cycle > 0:
            previous = list(_cycle_forecast(cycle - 1, *shape).field_keys())
            readers = sim.spawn_batch(
                (
                    _reader(
                        reader_ios[index],
                        [previous[(index * reads + j) % len(previous)] for j in range(reads)],
                        size,
                        p["span"],
                    )
                    for index in range(n_readers)
                ),
                name=f"cycle{cycle}:readers",
            )
        sim.run(until=sim.all_of(writers))
        write_seconds += sim.now - cycle_start
        bytes_written += forecast.n_fields * size
        if readers:
            sim.run(until=sim.all_of(readers))
            read_seconds += sim.now - cycle_start
            bytes_read += n_readers * reads * size
        cycle_times.append(sim.now - cycle_start)
    sim.run()
    return {
        "cycle_times": cycle_times,
        "bytes_written": bytes_written,
        "bytes_read": bytes_read,
        "write_gib_s": bytes_written / write_seconds / GiB,
        "read_gib_s": bytes_read / read_seconds / GiB if read_seconds else 0.0,
        "multi_puts": sum(io.client.stats.get("kv_put_multi", 0) for io in writer_ios),
        "multi_gets": sum(io.client.stats.get("kv_get_multi", 0) for io in reader_ios),
    }


def _cycle_check(out: Dict[str, Any], p: Dict[str, Any]) -> List[str]:
    fields_per_cycle = p["n_params"] * p["n_levels"] * p["n_steps"]
    problems = []
    if out["bytes_written"] != p["n_cycles"] * fields_per_cycle * p["field_size"]:
        problems.append(f"{out['bytes_written']} bytes archived, expected a full catalogue per cycle")
    expected_read = (p["n_cycles"] - 1) * p["n_readers"] * p["reads_per_reader"] * p["field_size"]
    if out["bytes_read"] != expected_read:
        problems.append(f"{out['bytes_read']} bytes read, expected {expected_read}")
    if len(out["cycle_times"]) != p["n_cycles"]:
        problems.append("missing cycle times")
    return problems


def _cycle_headline(out: Dict[str, Any]) -> str:
    mean_ms = sum(out["cycle_times"]) / len(out["cycle_times"]) * 1e3
    return (
        f"write {out['write_gib_s']:.4f} GiB/s, read {out['read_gib_s']:.4f} GiB/s, "
        f"mean cycle {mean_ms:.4f} ms"
    )


# -- metadata_posixfs ----------------------------------------------------------------

def _mdtest_setup(p: Dict[str, Any], seed: int) -> Deployment:
    config = ClusterConfig(
        n_server_nodes=p["servers"], n_client_nodes=p["clients"], seed=seed
    )
    return deploy(config, backend="posixfs")


def _mdtest_measure(dep: Deployment, p: Dict[str, Any]) -> Dict[str, Any]:
    params = MdtestParams(
        processes_per_node=p["ppn"], files_per_process=p["files"], file_size=0
    )
    result = run_mdtest(dep.cluster, dep.system, dep.pool, params)
    return {
        "n_processes": result.n_processes,
        "phase_times": result.phase_times,
        "rates": {
            "create": result.create_rate,
            "stat": result.stat_rate,
            "remove": result.remove_rate,
        },
    }


def _mdtest_check(out: Dict[str, Any], p: Dict[str, Any]) -> List[str]:
    problems = []
    if out["n_processes"] != p["clients"] * p["ppn"]:
        problems.append(f"{out['n_processes']} processes, expected {p['clients'] * p['ppn']}")
    if not all(t > 0 for t in out["phase_times"].values()):
        problems.append("an mdtest phase took no simulated time")
    return problems


def _mdtest_headline(out: Dict[str, Any]) -> str:
    rates = out["rates"]
    return (
        f"create {rates['create']:.1f}/s, stat {rates['stat']:.1f}/s, "
        f"remove {rates['remove']:.1f}/s"
    )


# -- registry ------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Dict[str, Any], int], Deployment]
    measure: Callable[[Deployment, Dict[str, Any]], Dict[str, Any]]
    check: Callable[[Dict[str, Any], Dict[str, Any]], List[str]]
    headline: Callable[[Dict[str, Any]], str]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fieldio_contended", _fieldio_setup, _fieldio_measure,
                 _fieldio_check, _fieldio_headline),
        Workload("product_serving", _serving_setup, _serving_measure,
                 _serving_check, _serving_headline),
        Workload("operational_cycle", _cycle_setup, _cycle_measure,
                 _cycle_check, _cycle_headline),
        Workload("metadata_posixfs", _mdtest_setup, _mdtest_measure,
                 _mdtest_check, _mdtest_headline),
    )
}

#: Workload shapes.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the same code paths at a size the tests can afford.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fieldio_contended": dict(servers=4, clients=8, ppn=8, n_ops=60, field_size=1 * MiB),
        "product_serving": dict(
            servers=2, clients=4, n_fields=512, field_size=1 * MiB, cache_frac=0.15,
            n_tenants=4, rate=4000.0, n_requests=12500,
        ),
        "operational_cycle": dict(
            servers=2, clients=4, n_cycles=4, n_writers=64, n_readers=256,
            n_params=8, n_levels=8, n_steps=8, field_size=1 * MiB, write_batch=16,
            span=8, reads_per_reader=8,
        ),
        "metadata_posixfs": dict(servers=2, clients=4, ppn=16, files=200),
    },
    "tiny": {
        "fieldio_contended": dict(servers=1, clients=2, ppn=2, n_ops=4, field_size=64 * KiB),
        "product_serving": dict(
            servers=1, clients=2, n_fields=16, field_size=64 * KiB, cache_frac=0.25,
            n_tenants=2, rate=3000.0, n_requests=60,
        ),
        "operational_cycle": dict(
            servers=1, clients=2, n_cycles=2, n_writers=2, n_readers=4,
            n_params=2, n_levels=2, n_steps=2, field_size=64 * KiB, write_batch=4,
            span=2, reads_per_reader=2,
        ),
        "metadata_posixfs": dict(servers=1, clients=2, ppn=2, files=8),
    },
}


def merged_op_stats(dep: Deployment, measured_only: bool = False) -> Dict[str, Any]:
    clients = dep.measured_clients if measured_only else dep.clients
    return merge_op_stats(client.op_metrics for client in clients)


def digest(outputs: Dict[str, Any], op_stats: Dict[str, Any]) -> str:
    """SHA-256 over the simulated outputs and the merged per-op stats.

    ``json`` writes floats with ``repr``, which round-trips exactly, so two
    runs share a digest only if every simulated number is bit-identical.
    """
    document = {
        "outputs": outputs,
        "op_stats": {op: stats.as_dict() for op, stats in sorted(op_stats.items())},
    }
    text = json.dumps(document, sort_keys=True, default=_json_number)
    return hashlib.sha256(text.encode()).hexdigest()


def _json_number(value: Any) -> Any:
    # numpy scalars that are not float subclasses (integers) reach here.
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")
