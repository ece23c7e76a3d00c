"""Tests of the benchmark itself, at tiny workload sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from scenarios import SIZES, WORKLOADS  # noqa: E402
from spans import LAYERS, LayerTracer  # noqa: E402

from repro.simulation.core import Simulator  # noqa: E402

NAMES = sorted(WORKLOADS)


def _iteration(name: str, traced: bool, seed: int = 0) -> dict:
    return worker.run_iteration(name, seed, "tiny", traced, start=0.0)


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_traced_digest_matches(name):
    plain = _iteration(name, traced=False)
    traced = _iteration(name, traced=True)
    assert plain["problems"] == []
    assert plain["ops"] > 0
    assert plain["op_errors"] == 0 and plain["shed"] == 0
    assert traced["digest"] == plain["digest"]
    assert _iteration(name, traced=False)["digest"] == plain["digest"]


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_fit_in_traced_wall(name):
    traced = _iteration(name, traced=True)
    layers = traced["layers"]
    self_times = [v for k, v in layers.items() if k.endswith("_s") and k != "unattributed_s"]
    assert min(self_times) >= 0
    assert sum(self_times) <= traced["wall_s"]
    assert layers["unattributed_s"] == pytest.approx(traced["wall_s"] - sum(self_times))


def test_posixfs_time_only_on_posixfs():
    assert _iteration("metadata_posixfs", traced=True)["layers"]["posixfs.client_s"] > 0
    assert _iteration("fieldio_contended", traced=True)["layers"]["posixfs.client_s"] == 0


def test_digest_follows_seed():
    assert _iteration("product_serving", False, seed=0)["digest"] != \
        _iteration("product_serving", False, seed=1)["digest"]


def test_digest_stable_across_processes_and_hash_seeds():
    digests = {
        run.run_worker("operational_cycle", 3, "tiny", traced=False, hashseed=h, timeout=120)["digest"]
        for h in (0, 1, 12345)
    }
    assert len(digests) == 1


def test_tracer_restores_the_program():
    original = Simulator.__dict__["run"]
    with LayerTracer() as tracer:
        assert Simulator.__dict__["run"] is not original
    assert Simulator.__dict__["run"] is original
    assert set(tracer.layer_self_times()) == set(LAYERS)


def test_restated_drivers_match_experiment_points():
    from repro.experiments.operational_cycle import cycle_point
    from repro.experiments.product_serving import serving_point

    p = SIZES["tiny"]["operational_cycle"]
    dep = WORKLOADS["operational_cycle"].setup(p, 5)
    ours = WORKLOADS["operational_cycle"].measure(dep, p)
    theirs = cycle_point(seed=5, **{k: v for k, v in p.items()})
    assert ours["cycle_times"] == theirs["cycle_times"]
    assert ours["bytes_written"] == theirs["bytes_written"]
    assert (ours["multi_puts"], ours["multi_gets"]) == (theirs["multi_puts"], theirs["multi_gets"])

    p = SIZES["tiny"]["product_serving"]
    dep = WORKLOADS["product_serving"].setup(p, 5)
    ours = WORKLOADS["product_serving"].measure(dep, p)
    theirs = serving_point(
        servers=p["servers"], clients=p["clients"], seed=5, n_fields=p["n_fields"],
        field_size=p["field_size"], exponent=1.2, n_tenants=p["n_tenants"],
        rate=p["rate"], n_requests=p["n_requests"], span=1,
        cache_bytes=int(p["cache_frac"] * p["n_fields"] * p["field_size"]), ttl=None,
        replication=1, promote_threshold=16, workers=4, qos_rate=None, qos_burst=8.0,
        qos_depth=16,
    )
    for key in ("p50", "p95", "p99", "p999", "hits", "misses", "evictions", "duration"):
        assert ours[key] == theirs[key], key


def test_recorded_digest_mismatch_is_an_output_failure():
    it = {"digest": "a" * 64, "problems": []}
    assert run.check_outputs([it, it], recorded="a" * 64) == []
    assert run.check_outputs([it, it], recorded="b" * 64)
    assert run.check_outputs([it, dict(it, digest="c" * 64)], recorded=None)


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "metadata_posixfs",
         "--size", "tiny", "--seconds", "1", "--seed", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fieldio_contended",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_names_agree_with_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
