"""One benchmark worker: a fresh interpreter that runs one pass of a workload.

The job arrives as one JSON object on stdin. The worker imports fraclap
from the checkout's `src/`, builds its inputs, prints `ready` (the parent
times set-up up to that line), runs the operations and prints one JSON line
with each operation's wall and CPU time and outcome, the peak RSS and, when
tracing, the layer summary and the spans.

A CLI pass runs each `cli.main(argv)` call in a child forked from the
worker right after `ready`. The child starts in the state a fresh
interpreter has once `fraclap.cli` is imported, and whatever it computes or
caches ends with it, so no call of a pass sees the work of another. A
library pass (`operators`) runs its calls in the worker itself.

Before the first call, and after a call once a second has passed since the
last sample, the worker times fixed reference tasks in a forked child, so
the parent can put each call's times at a fixed host speed.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy as np


def _cli_call(argv):
    from fraclap import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is an operation outcome, not a worker fault
        error = "%s: %s" % (type(exc).__name__, exc)
    record = {"argv": argv, "rc": rc, "error": error,
              "wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
    if rc == 2:
        record["error"] = stderr.getvalue().strip()
    elif error is None:
        results = json.loads(stdout.getvalue())["results"]
        record["digest"] = hashlib.sha256(
            json.dumps(results, sort_keys=True).encode()).hexdigest()
        record["checks"] = [[c["check"], c["status"]] for c in results.get("checks", ())]
    return record


def _forked(fn, *args):
    """Run fn(*args) in a forked child; return its JSON result and peak RSS in MB."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                out.write(json.dumps(fn(*args)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError("forked %s%r ended with status %d" % (fn.__name__, args, status))
    return json.loads(data), usage.ru_maxrss / 1024.0


def _traced_cli_call(argv, trace):
    tracer = _start_tracer() if trace else None
    record = _cli_call(argv)
    if tracer:
        record.update(_trace_report(tracer))
    return record


def _interpreter_loop(n):
    acc, table = 0.0, {}
    for i in range(n):
        table[i & 255] = acc
        acc += (i % 7) * 0.5 - table.get((i + 1) & 255, 0.0) * 1e-9
    return acc


def _interpreter_reference():
    small = np.random.default_rng(0).standard_normal(500)
    start = time.perf_counter()
    _interpreter_loop(50_000)
    for _ in range(400):
        small = np.real(np.fft.ifft(np.fft.fft(small) * 0.5)) * 2.0
    return time.perf_counter() - start


def _memory_reference():
    start = time.perf_counter()
    large = np.random.default_rng(0).standard_normal(3 ** 12)
    np.real(np.fft.ifft(np.fft.fft(large) * 0.5))
    return time.perf_counter() - start


# Samples of the host's speed, each a fixed task that never calls fraclap
# and uses FFT sizes (500, 3^12) fraclap never uses: interpreter work with
# many small FFTs (about 30 ms on an idle 2-core cloud VM), and a large
# FFT on freshly allocated memory (about 60 ms).
REFERENCES = {"interpreter": _interpreter_reference, "memory": _memory_reference}
REFERENCE_EVERY_S = 1.0


def _reference_sample(kinds):
    """Time each named reference once, in a forked child that leaves nothing behind."""
    return _forked(lambda: {k: REFERENCES[k]() for k in kinds})[0]


def _library_call(op, tracer):
    record = {"name": op.name, "health": op.health, "tol": op.tol,
              "error": None, "err": None, "ok": False}
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        out = op.run()
    except Exception as exc:
        record["error"] = "%s: %s" % (type(exc).__name__, exc)
    record["wall_s"] = time.perf_counter() - wall
    record["cpu_s"] = time.process_time() - cpu
    if record["error"] is None:
        with tracer.paused() if tracer else contextlib.nullcontext():
            err = op.gate(out)
        record["err"], record["ok"] = err, bool(err <= op.tol)
    return record


def _start_tracer():
    from tracer import Tracer, instrument
    return instrument(Tracer())


def _trace_report(tracer):
    return {"layers": tracer.summary(),
            "spans": [[s.name, s.kind, s.start, s.end, s.parent, s.thread]
                      for s in tracer.spans]}


def main():
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    import fraclap.cli  # noqa: F401  (set-up: the import every CLI call pays)

    if job["kind"] == "library":
        import library_ops
        ops = library_ops.build(job["seed"])
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    kinds = job["references"]
    refs, last_ref = [_reference_sample(kinds)], time.perf_counter()
    records = []

    def after_call(record, final):
        # a call lies between samples record["ref"] and record["ref"] + 1
        nonlocal last_ref
        record["ref"] = len(refs) - 1
        records.append(record)
        if final or time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append(_reference_sample(kinds))
            last_ref = time.perf_counter()

    if job["kind"] == "library":
        tracer = _start_tracer() if job["trace"] else None
        for index, op in enumerate(ops):
            after_call(_library_call(op, tracer), index == len(ops) - 1)
        report = {"ops": records,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer:
            report.update(_trace_report(tracer))
            report["spans"] = [[0] + s for s in report["spans"]]
    else:
        report = {"ops": records, "maxrss_mb": 0.0, "layers": {}, "spans": []}
        for index, argv in enumerate(job["argvs"]):
            record, rss = _forked(_traced_cli_call, argv, job["trace"])
            report["maxrss_mb"] = max(report["maxrss_mb"], rss)
            for key, value in record.pop("layers", {}).items():
                report["layers"][key] = report["layers"].get(key, 0) + value
            report["spans"] += [[index] + s for s in record.pop("spans", ())]
            after_call(record, index == len(job["argvs"]) - 1)
    report["refs"] = refs
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
