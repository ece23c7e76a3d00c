"""End-to-end and per-layer benchmark of the simulator over four paper workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fieldio_contended --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all                 # every workload, one table each
    python3 perfbench/run.py --workload all --seed 0 --record   # re-record output digests

Each iteration runs in a fresh ``worker.py`` process (see there) with its
own ``PYTHONHASHSEED``; iterations repeat until ``--seconds`` is used up
and the medians are reported.  ``--trace 1`` alternates plain and traced
iterations and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output matched,
1 when an output check or digest failed, 2 on a usage error or when the
program's sources are missing.  See README.md for how to read the layer
table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import host_speed_scale, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

#: The workloads of ``scenarios.WORKLOADS``, named here because this process
#: never imports the program (see ``hostspeed``).
WORKLOAD_NAMES = (
    "fieldio_contended", "product_serving", "operational_cycle", "metadata_posixfs",
)

#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER_UNITS = {
    "simulation.self_s": "s", "simulation.processes": "count", "simulation.flushes": "count",
    "network.solve_s": "s", "network.solves": "count", "network.vector_solves": "count",
    "network.flow_changes": "count", "network.us_per_solve": "us",
    "network.admit_s": "s", "network.transfers": "count",
    "daos.client_s": "s", "daos.ops": "count", "daos.op_errors": "count",
    "daos.multi_ops": "count", "daos.payload_s": "s", "daos.payload_digests": "count",
    "posixfs.client_s": "s", "posixfs.ops": "count",
    "fdb.fieldio_s": "s", "fdb.fields": "count",
    "serving.gateway_s": "s", "serving.requests": "count",
    "serving.cache_hit_rate": "fraction", "serving.cache_evictions": "count",
    "serving.shed": "count",
    "unattributed_s": "s", "trace.wall_s": "s", "trace.overhead": "fraction",
}

#: Layer table rows: (label, self-time metric, count metrics shown beside it).
LAYER_ROWS = (
    ("simulation", "simulation.self_s", ("simulation.processes", "simulation.flushes")),
    ("network.solve", "network.solve_s",
     ("network.solves", "network.vector_solves", "network.us_per_solve")),
    ("network.admit", "network.admit_s", ("network.transfers", "network.flow_changes")),
    ("daos.client", "daos.client_s", ("daos.ops", "daos.op_errors", "daos.multi_ops")),
    ("daos.payload", "daos.payload_s", ("daos.payload_digests",)),
    ("posixfs.client", "posixfs.client_s", ("posixfs.ops",)),
    ("fdb", "fdb.fieldio_s", ("fdb.fields",)),
    ("serving", "serving.gateway_s",
     ("serving.requests", "serving.cache_hit_rate", "serving.cache_evictions", "serving.shed")),
    ("unattributed", "unattributed_s", ()),
)

ATTRIBUTED = tuple(row[1] for row in LAYER_ROWS if row[0] != "unattributed")


def predictions(workload: str, m: Dict[str, float]) -> List[tuple]:
    """The per-layer predictions stated with the benchmark, as (text, holds)."""
    largest = max(ATTRIBUTED, key=lambda name: m[name])
    checks = []
    if workload in ("fieldio_contended", "operational_cycle"):
        checks.append((f"network.solve_s is the largest attributed layer (largest: {largest})",
                       largest == "network.solve_s"))
    if workload == "metadata_posixfs":
        checks.append(("network.solve_s is about 0 (< 1% of the traced wall)",
                       m["network.solve_s"] < 0.01 * m["trace.wall_s"]))
    if workload == "product_serving":
        upper = m["daos.payload_s"] + m["fdb.fieldio_s"] + m["serving.gateway_s"]
        checks.append(("daos.payload_s + fdb.fieldio_s + serving.gateway_s > network.solve_s",
                       upper > m["network.solve_s"]))
    posix = m["posixfs.client_s"] > 0
    checks.append(("posixfs.client_s is non-zero only on metadata_posixfs",
                   posix == (workload == "metadata_posixfs")))
    return checks


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def run_worker(workload: str, seed: int, size: str, traced: bool, hashseed: int,
               timeout: float) -> dict:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--size", size]
    if traced:
        command.append("--traced")
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: iteration exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up(deadline: float) -> None:
    """Import the program once so the first timed iteration finds bytecode."""
    proc = subprocess.run([sys.executable, str(WORKER), "--workload", "-", "--seed", "0",
                           "--import-only"], cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"cannot import the program:\n{proc.stderr}")


def iterate(workload: str, seed: int, seconds: float, size: str, trace: bool,
            deadline: float) -> Dict[str, List[dict]]:
    """Run iterations until ``seconds`` are spent.

    At least three iterations, or two per mode when tracing, so that a
    traced run of the slowest workload still fits in about ``seconds``.

    Host-speed references are taken here before the first iteration and
    after each one, and by the worker before it imports the program; each
    iteration records the ``scale`` of the three around it.
    """
    modes = (False, True) if trace else (False,)
    runs: Dict[bool, List[dict]] = {mode: [] for mode in modes}
    durations: List[float] = []
    start = time.perf_counter()
    references = [reference_seconds()]
    index = 0
    while True:
        traced = modes[index % len(modes)]
        began = time.perf_counter()
        it = run_worker(workload, seed, size, traced, hashseed=index, timeout=deadline - began)
        references.append(reference_seconds())
        it["scale"] = host_speed_scale([references[-2], it["reference_s"], references[-1]])
        runs[traced].append(it)
        durations.append(time.perf_counter() - began)
        index += 1
        done = min(len(r) for r in runs.values()) >= (2 if trace else 3)
        next_cost = max(durations[-len(modes):])
        now = time.perf_counter()
        if done and (now - start + next_cost > seconds or now + next_cost > deadline):
            return {"plain": runs[False], "traced": runs.get(True, [])}


def load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def check_outputs(iterations: List[dict], recorded: Optional[str]) -> List[str]:
    """Output checks of every iteration, plus digest agreement."""
    problems = []
    for it in iterations:
        problems.extend(it["problems"])
    seen = sorted({it["digest"] for it in iterations})
    if len(seen) > 1:
        problems.append(f"outputs differ between iterations: digests {[d[:12] for d in seen]}")
    elif recorded is not None and seen[0] != recorded:
        problems.append(f"digest {seen[0][:12]} != recorded {recorded[:12]}")
    return problems


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(name: str, values: List[float], unit: str) -> str:
    q1, q3 = quartiles(values)
    return (f"  {name:<24} {statistics.median(values):>14.6g} {unit:<8} "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def measure_workload(workload: str, seed: int, seconds: float, size: str, trace: bool,
                     deadline: float) -> dict:
    runs = iterate(workload, seed, seconds, size, trace, deadline)
    plain, traced = runs["plain"], runs["traced"]
    every = plain + traced
    recorded = load_digests().get(size, {}).get(workload, {}).get(str(seed))
    problems = check_outputs(every, recorded)
    attempted = sum(it["ops"] for it in every)
    failed = sum(it["op_errors"] + it["shed"] for it in every)
    races = sum(it["create_races"] for it in every)

    print(f"== {workload}  seed {seed}  size {size}  "
          f"{len(plain)} plain + {len(traced)} traced iterations")
    print(f"  outputs: {plain[0]['headline']}")
    print(f"  digest {plain[0]['digest'][:16]}  "
          f"({'checked against the recorded digest' if recorded is not None else 'no recorded digest for this seed: checked across iterations'})")
    per_iteration = {
        "wall_s": [it["wall_s"] * it["scale"] for it in plain],
        "ops_per_s": [it["ops"] / (it["wall_s"] * it["scale"]) for it in plain],
        "setup_s": [it["setup_s"] * it["scale"] for it in plain],
        "peak_rss_mib": [it["peak_rss_mib"] for it in plain],
    }
    for name, values in per_iteration.items():
        print(summarise(name, values, END_TO_END_UNITS[name]))
    print(summarise("unscaled wall_s", [it["wall_s"] for it in plain], "s"))
    print(summarise("unscaled setup_s", [it["setup_s"] for it in plain], "s"))
    print(summarise("host speed scale", [it["scale"] for it in plain], "x"))
    print(f"  {'failed_frac':<24} {failed / max(attempted, 1):>14.6g} fraction "
          f"({failed} failed of {attempted} ops; {races} lost container-create races "
          "not counted)")
    metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
               for name, values in per_iteration.items()}

    if trace:
        layers = {
            name: statistics.median(
                it["layers"][name] * (it["scale"] if PER_LAYER_UNITS[name] in ("s", "us") else 1)
                for it in traced
            )
            for name in traced[0]["layers"]
        }
        layers["trace.wall_s"] = statistics.median(it["wall_s"] * it["scale"] for it in traced)
        layers["trace.overhead"] = layers["trace.wall_s"] / metrics["wall_s"]["value"] - 1.0
        print_layer_table(layers)
        for text, holds in predictions(workload, layers):
            print(f"  prediction {'holds' if holds else 'FAILS'}: {text}")
        write_spans(workload, seed, traced)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    for problem in problems:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_layer_table(m: Dict[str, float]) -> None:
    wall = m["trace.wall_s"]
    print(f"  layer table (traced wall {wall:.4f} s, trace overhead "
          f"{m['trace.overhead'] * 100:+.1f}%)")
    print(f"    {'layer':<16} {'self_s':>10} {'share':>7}  counts")
    for label, time_metric, count_metrics in LAYER_ROWS:
        counts = ", ".join(f"{c.split('.', 1)[1]}={m[c]:.6g}" for c in count_metrics)
        print(f"    {label:<16} {m[time_metric]:>10.4f} {m[time_metric] / wall:>7.1%}  {counts}")


def write_spans(workload: str, seed: int, traced: List[dict]) -> None:
    """Write the per-boundary span totals of every traced iteration."""
    out = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps([it["boundaries"] for it in traced], indent=1) + "\n")
    print(f"  span totals per boundary: {out.relative_to(ROOT)}")


def record(workloads: List[str], seed: int, size: str, deadline: float) -> None:
    digests = load_digests()
    for workload in workloads:
        it = run_worker(workload, seed, size, False, hashseed=0,
                        timeout=deadline - time.perf_counter())
        if it["problems"]:
            raise BenchError(f"{workload}: output check failed: {it['problems']}")
        digests.setdefault(size, {}).setdefault(workload, {})[str(seed)] = it["digest"]
        print(f"{workload} seed {seed}: {it['digest']}  ({it['headline']})")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code paths at test size")
    parser.add_argument("--record", action="store_true",
                        help="run one iteration per workload and record its output digest")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S * len(workloads)
    try:
        warm_up(deadline)
        if args.record:
            record(workloads, args.seed, args.size, deadline)
            return 0
        results = {w: measure_workload(w, args.seed, args.seconds, args.size,
                                       bool(args.trace), deadline)
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in results.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (results[workloads[0]]["metrics"] if len(workloads) == 1
                    else {w: r["metrics"] for w, r in results.items()}),
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
