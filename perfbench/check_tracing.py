"""The benchmark's own tests: tracing must observe the program, not change it.

    python3 -m pytest perfbench/check_tracing.py

Runs from the root of a checkout and takes about two minutes: one
untraced and two traced passes of every workload.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import run
import workloads
from tracer import LAYER, Span, self_times

SEED = 3


@pytest.fixture(scope="module")
def passes():
    """workload -> (one untraced pass, two traced passes), same inputs."""
    deadline = time.perf_counter() + 900.0
    out = {}
    for workload in workloads.WORKLOADS:
        ops = None if workload == "operators" else workloads.cli_ops(workload, SEED)
        out[workload] = (run.run_pass(workload, SEED, ops, False, deadline),
                         [run.run_pass(workload, SEED, ops, True, deadline)
                          for _ in range(2)])
    return out


def _counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(passes, workload):
    plain, traced = passes[workload]
    for t in traced:
        assert t["outcomes"] == plain["outcomes"]
        # CLI `results` objects are compared by digest; library outputs by
        # their exact error against the closed forms
        assert t["digests"] == plain["digests"]
        assert t["health"] == plain["health"]
    if workload == "operators":
        assert len(plain["health"]) == 8
    else:
        # every call but the known plane-default crash produced a report
        missing = [name for name, digest in plain["digests"] if digest is None]
        assert len(missing) == (workload == "release")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(passes, workload):
    _, (first, second) = passes[workload]
    assert _counts(first["layers"])
    assert _counts(first["layers"]) == _counts(second["layers"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_traced_wall(passes, workload):
    _, traced = passes[workload]
    for t in traced:
        total = sum(v for k, v in t["layers"].items() if k.endswith(".self_s"))
        assert 0.0 < total <= t["wall_s"]


def test_every_per_layer_metric_is_measured(passes):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    emitted = {"trace.wall_s", "trace.overhead_s", "host.probe_s"}
    for plain, traced in passes.values():
        emitted |= set(plain["health"])
        for t in traced:
            emitted |= set(t["layers"])
    emitted.discard("cli.main.wall_s")  # reported as cli.overhead_s
    assert emitted == listed


def test_self_time_shares_overlapping_threads():
    spans = [Span("x", LAYER, 0.0, -1, 1, 10.0), Span("z", LAYER, 2.0, 0, 1, 4.0),
             Span("y", LAYER, 5.0, -1, 2, 15.0)]
    got = self_times(spans)
    assert got == pytest.approx({"x": 5.5, "z": 2.0, "y": 7.5})
    assert sum(got.values()) == pytest.approx(15.0)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(run.HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(run.ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
