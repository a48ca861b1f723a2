"""fraclap benchmark: workloads, metrics and output.

    python3 perfbench/run.py --workload release --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; `--workload all` runs the three workloads
in turn. Load shape: a closed loop with one client. One worker process runs
at a time and the next operation starts when the previous one returns.
Every pass starts a fresh interpreter with the OpenBLAS, OpenMP and MKL
thread counts pinned to 1, and each CLI call runs in a child forked from it
once `fraclap.cli` is imported, so no module-level cache carries over from
one call or pass to the next.

A run repeats whole passes of the workload while the next pass is expected
to end within `--seconds` (at least one pass). With `--trace 0` it prints
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead. The last line of stdout is the result object; the line
before it carries sample counts, the host-speed probe and the environment.
Everything a run records, spans included, goes to `.bench_out/`.
"""

import argparse
import collections
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 165.0  # every worker of a run is stopped by then
# worker.REFERENCES timed on an idle 2-core cloud VM (Python 3.11, numpy 2.4)
REFERENCE_S = {"interpreter": 0.027, "memory": 0.060}


class WorkerError(Exception):
    pass


def _worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    env.pop("FRACLAP_THREADS", None)
    return env


def _kill_group(pgid):
    """Kill every process left in a worker's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(script, stdin_text, deadline):
    """Run a script of this directory; return (seconds to its first line,
    the first line, the rest of stdout). The script and every child it forks
    share a new process group, which is killed at `deadline` and is gone
    when this returns."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, script)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_worker_env(), start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
    watchdog.start()
    try:
        proc.stdin.write(stdin_text)
        proc.stdin.close()
        proc.stdin = None
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        _kill_group(proc.pid)
        proc.wait()
        # children orphaned by a killed worker leave the group once reaped
        for _ in range(1000):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            _kill_group(proc.pid)
            time.sleep(0.01)
    if proc.returncode != 0:
        raise WorkerError("%s exited with %s: %s"
                          % (script, proc.returncode, err.strip()[-2000:]))
    return setup, ready, out


def run_worker(job, deadline):
    setup, ready, out = _spawn("worker.py", json.dumps(job), deadline)
    if ready.strip() != "ready":
        raise WorkerError("worker did not get ready: %r" % ready[:200])
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setup
    return report


def run_probe(deadline):
    _, line, _ = _spawn("probe.py", "", deadline)
    return json.loads(line)


def run_pass(workload, seed, ops, trace, deadline):
    """One pass: every operation of the workload, in one fresh worker."""
    if workload == "operators":
        job = {"kind": "library", "seed": seed}
        name = "operators"
    else:
        job = {"kind": "cli", "argvs": [op["argv"] for op in ops]}
        name = "%s pass" % workload
    job.update(src=os.path.join(ROOT, "src"), trace=trace,
               references=workloads.HOST_REFERENCES[workload])
    res = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "setups": [], "scaled_setups": [],
           "outcomes": [], "errors": [], "layers": collections.Counter(), "health": {},
           "digests": [], "spans": [], "ops": [], "refs": []}
    try:
        report = run_worker(job, deadline)
    except WorkerError as exc:
        res["outcomes"].append((name, False, False))
        res["errors"].append("%s: %s" % (name, exc))
        return res
    res["setups"].append(report["setup_s"])
    res["scaled_setups"] = [report["setup_s"] * _host_scale(report["refs"], 0)]
    res["refs"] = report["refs"]
    res["rss_mb"] = report["maxrss_mb"]
    for index, rec in enumerate(report["ops"]):
        res["wall_s"] += rec["wall_s"]
        res["cpu_s"] += rec["cpu_s"]
        res["ops"].append([rec.get("name") or " ".join(rec["argv"]),
                           rec["wall_s"], rec["cpu_s"], _host_scale(report["refs"], rec["ref"])])
        if workload == "operators":
            res["outcomes"] += workloads.judge_library(rec)
            if rec["err"] is not None:
                key = "err." + rec["health"]
                res["health"][key] = max(res["health"].get(key, 0.0), rec["err"])
        else:
            res["outcomes"] += workloads.judge_cli(ops[index], rec)
            res["digests"].append([" ".join(rec["argv"]), rec.get("digest")])
        if rec["error"] is not None:
            res["errors"].append(
                "%s: %s" % (rec.get("name") or " ".join(rec["argv"]), rec["error"]))
    res["layers"].update(report.get("layers", {}))
    res["spans"] = report.get("spans", [])
    if trace:
        layers = res["layers"]
        runners = sum(v for k, v in layers.items()
                      if k.startswith("cli.") and k.endswith(".wall_s") and k != "cli.main.wall_s")
        layers["cli.overhead_s"] = layers.get("cli.main.wall_s", 0.0) - runners
    return res


def _median(values):
    return statistics.median(values) if values else 0.0


def _host_scale(refs, k):
    """Factor that puts a call's times at the reference host speed.

    On a shared 2-core host other tenants' load changes the speed of
    everything that runs, CPU time included, by up to 1.8x within minutes.
    The worker times fixed reference tasks about once a second; a call that
    lies between samples k and k + 1 is scaled by REFERENCE_S over the
    median of samples k - 1 to k + 2, as a geometric mean over the
    workload's reference tasks."""
    window = refs[max(0, k - 1):k + 3]
    logs = [math.log(REFERENCE_S[kind] / _median([r[kind] for r in window]))
            for kind in window[0]]
    return math.exp(sum(logs) / len(logs))


def _typical_pass(passes, column, scaled=True):
    """Time of a typical pass: the sum over the pass's calls of each call's
    median over the run's passes, at the reference host speed if `scaled`."""
    complete = [p["ops"] for p in passes
                if p["ops"] and len(p["ops"]) == max(len(q["ops"]) for q in passes)]
    return sum(_median([ops[i][column] * (ops[i][3] if scaled else 1.0) for ops in complete])
               for i in range(len(complete[0]))) if complete else 0.0


def run_workload(workload, seed, seconds, trace, spec):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    host_probe = run_probe(deadline)
    ops = None if workload == "operators" else workloads.cli_ops(workload, seed)
    plain, traced, durations = [], [], []
    while True:
        t = time.perf_counter()
        plain.append(run_pass(workload, seed, ops, False, deadline))
        if trace:
            traced.append(run_pass(workload, seed, ops, True, deadline))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + _median(durations) > seconds:
            break

    passes = plain + traced
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(1 for _, ok, _ in outcomes if not ok)
    unexpected = sorted({name for name, ok, known in outcomes if not ok and not known})
    known = sorted({name for name, ok, known in outcomes if not ok and known})
    health = {}
    for p in passes:
        for key, value in p["health"].items():
            health[key] = max(health.get(key, 0.0), value)

    setups = [s for p in plain for s in p["setups"]]
    values = {
        "setup_s": _median([s for p in plain for s in p["scaled_setups"]]),
        "wall_s": _typical_pass(plain, 1),
        "cpu_s": _typical_pass(plain, 2),
        "peak_rss_mb": _median([p["rss_mb"] for p in plain]),
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {"setup_s": len(setups), "wall_s": len(plain), "cpu_s": len(plain),
               "peak_rss_mb": len(plain), "ok_frac": attempted,
               "ops_per_pass": len(plain[0]["ops"])}
    table = spec["end_to_end"]
    if trace:
        keys = set().union(*(p["layers"] for p in traced))
        values = {k: _median([p["layers"].get(k, 0.0) for p in traced]) for k in keys}
        values["trace.wall_s"] = _typical_pass(traced, 1, False)
        values["trace.overhead_s"] = values["trace.wall_s"] - _typical_pass(plain, 1, False)
        values["host.probe_s"] = host_probe["probe_s"]
        values.update(health)
        samples = {"traced_passes": len(traced), "untraced_passes": len(plain)}
        table = spec["per_layer"]

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in table}
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "samples": samples,
        "unscaled": {"setup_s": _median(setups), "wall_s": _typical_pass(plain, 1, False),
                     "cpu_s": _typical_pass(plain, 2, False)},
        "host_probe_s": host_probe["probe_s"], "env": host_probe["env"],
        "known_failures": known, "unexpected_failures": unexpected,
        "errors": sorted({e for p in passes for e in p["errors"]}),
        "health": health,
    }
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(summary, result=result,
                  passes=[{k: p[k] for k in ("wall_s", "cpu_s", "rss_mb", "setups",
                                              "digests", "ops", "refs")} for p in passes],
                  layers=[dict(p["layers"]) for p in traced],
                  spans=[[i] + s for i, p in enumerate(traced) for s in p["spans"]])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh)
    return summary, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that every worker group is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "fraclap", "cli.py")):
        sys.stderr.write("no fraclap sources under %s; run from a checkout\n" % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        summary, result = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        print(json.dumps(summary))
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
