"""One benchmark iteration in a fresh process: set up, measure, report.

``run.py`` starts this once per iteration, so that every iteration pays
the package import and starts with cold process-wide memos, as a user's
run of one experiment point does.  By hand::

    python3 perfbench/worker.py --workload fieldio_contended --seed 0 [--traced]

prints one JSON line with the set-up and measured-phase host times, the
op counts, the output digest and (``--traced``) the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Make the checkout's ``src/repro`` importable, and only that one."""
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported repro from {origin}, not from {SRC}")


def layer_metrics(tracer, dep, outputs, wall_s: float, flow_base) -> dict:
    """The per-layer metrics of one traced iteration."""
    from repro.posixfs.client import PosixClient

    self_s = tracer.layer_self_times()
    counts = tracer.counts
    net = dep.cluster.net
    solves = net.solver_runs - flow_base[0]
    ops = {"daos": [0, 0, 0], "posixfs": [0, 0, 0]}
    for client in dep.measured_clients:
        slot = ops["posixfs" if isinstance(client, PosixClient) else "daos"]
        for op, stats in client.op_metrics.items():
            slot[0] += stats.count
            slot[1] += stats.errors
            if "multi" in op:
                slot[2] += stats.count
    gateway = outputs.get("gateway", {})
    return {
        "simulation.self_s": self_s["simulation"],
        "simulation.processes": counts["simulation.processes"],
        "simulation.flushes": counts["simulation.flushes"],
        "network.solve_s": self_s["network.solve"],
        "network.solves": solves,
        "network.vector_solves": net.vector_solves - flow_base[1],
        "network.flow_changes": net.flow_changes - flow_base[2],
        "network.us_per_solve": self_s["network.solve"] / solves * 1e6 if solves else 0.0,
        "network.admit_s": self_s["network.admit"],
        "network.transfers": counts["network.transfers"],
        "daos.client_s": self_s["daos.client"],
        "daos.ops": ops["daos"][0],
        "daos.op_errors": ops["daos"][1],
        "daos.multi_ops": ops["daos"][2],
        "daos.payload_s": self_s["daos.payload"],
        "daos.payload_digests": counts["daos.payload_digests"],
        "posixfs.client_s": self_s["posixfs.client"],
        "posixfs.ops": ops["posixfs"][0],
        "fdb.fieldio_s": self_s["fdb"],
        "fdb.fields": counts["fdb.fields"],
        "serving.gateway_s": self_s["serving"],
        "serving.requests": counts["serving.requests"],
        "serving.cache_hit_rate": outputs.get("hit_rate", 0.0),
        "serving.cache_evictions": outputs.get("evictions", 0),
        "serving.shed": gateway.get("shed", 0),
        "unattributed_s": wall_s - sum(self_s.values()),
    }


def run_iteration(workload_name: str, seed: int, size: str, traced: bool,
                  start: float) -> dict:
    """Set up and measure one workload; ``start`` is when set-up began."""
    from scenarios import SIZES, WORKLOADS, digest, merged_op_stats

    workload = WORKLOADS[workload_name]
    params = SIZES[size][workload_name]
    dep = workload.setup(params, seed)
    setup_s = time.perf_counter() - start

    dep.measured_from = len(dep.clients)
    net = dep.cluster.net
    flow_base = (net.solver_runs, net.vector_solves, net.flow_changes)
    if traced:
        from spans import LayerTracer

        tracer = LayerTracer()
    else:
        tracer = nullcontext()
    gc.collect()
    with tracer:
        t0 = time.perf_counter()
        outputs = workload.measure(dep, params)
        wall_s = time.perf_counter() - t0

    measured = merged_op_stats(dep, measured_only=True)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": sum(s.count for s in measured.values()),
        # A lost create-or-open race (ContainerExistsError, handled by the
        # caller opening the container) is counted by OpStats as an error
        # but is not a failed operation of the workload.
        "op_errors": sum(s.errors for op, s in measured.items() if op != "container_create"),
        "create_races": measured["container_create"].errors if "container_create" in measured else 0,
        "shed": outputs.get("gateway", {}).get("shed", 0),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest(outputs, merged_op_stats(dep)),
        "headline": workload.headline(outputs),
        "problems": workload.check(outputs, params),
    }
    if traced:
        result["layers"] = layer_metrics(tracer, dep, outputs, wall_s, flow_base)
        result["boundaries"] = tracer.boundaries()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--import-only", action="store_true",
                        help="import the program and exit (warms bytecode caches)")
    args = parser.parse_args(argv)
    if args.import_only:
        _import_program()
        import scenarios  # noqa: F401

        return 0
    reference_s = reference_seconds()
    start = time.perf_counter()
    _import_program()
    result = run_iteration(args.workload, args.seed, args.size, args.traced, start)
    result["reference_s"] = reference_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
