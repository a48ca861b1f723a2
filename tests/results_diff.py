"""Print every number of the CLI's `results` that differs between two trees.

    python tests/results_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository (a `git archive` copy or a
clone). The command lines are taken from CHANGE_TREE: the `release` and
`maps` argvs of `perfbench/workloads.cli_ops(workload, 5)` and every
`fraclap ... --out ci-out/...` line of `.github/workflows/tests.yml`, each
distinct argv once. Both trees run the same list through
`fraclap.cli.main`, in one fresh interpreter per tree whose `fraclap` is
imported from that tree's `src/`, inside a scratch directory that holds the
`ci-out/` the CI lines write to.

The output has one line per moved float,

    argv | key | parent -> change | rel R

where key is the path into `results` (a check is named by its id,
`.checks[08-stereo-transfer].value`, any other list entry by its index,
and the rows of a `--csv` table by `csv[row][column]`), and R is the change
relative to the larger magnitude. Any other difference (an exit code, a
status, a string, an int, the diagnostic of a rejected line,
`meta.warnings`, `meta.mobius_points` or any other `meta` field but the
timings and the headroom) is printed as
`argv | key | parent -> change | CHANGED`. The last line counts the argvs
whose results are identical.
"""

import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

SEED = 5
# meta fields that differ from run to run, or that restate result values
_VOLATILE_META = ("wall_clock_s", "check_seconds", "headroom")


def command_lines(tree):
    """The distinct argvs to compare, in order: cli_ops' `release` and
    `maps` lines at SEED, then the CI workflow's report-writing lines."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(tree, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [op["argv"] for w in ("release", "maps") for op in workloads.cli_ops(w, SEED)]
    with open(os.path.join(tree, ".github", "workflows", "tests.yml")) as fh:
        for line in fh:
            match = re.match(r"\s*fraclap\s+(.*--out ci-out/\S+.*)$", line)
            if match:
                argvs.append(shlex.split(match.group(1)))
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def collect(argvs):
    """{argv line: {"rc", "error", "results", "meta", "csv"}} for each argv,
    run in this process with the working directory as scratch space."""
    from fraclap import cli

    os.makedirs("ci-out", exist_ok=True)
    records = {}
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        path, table = _option(argv, "--out"), _option(argv, "--csv")
        text = _read(path) if path and rc != 2 else out.getvalue()
        report = json.loads(text) if text.strip() else {}
        rows = list(csv.reader(io.StringIO(_read(table)))) if table and rc != 2 else None
        meta = {k: v for k, v in report.get("meta", {}).items() if k not in _VOLATILE_META}
        # stderr holds the diagnostic of a rejected line, or the selftest's timings
        records[" ".join(argv)] = {"rc": rc, "error": err.getvalue() if rc == 2 else None,
                                   "results": report.get("results"), "meta": meta, "csv": rows}
    return records


def run_tree(tree, argvs):
    """The records of `argvs` on `tree`, from one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    with tempfile.TemporaryDirectory() as scratch:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--collect"],
                              input=json.dumps(argvs), capture_output=True, text=True,
                              env=env, cwd=scratch, check=True)
    return json.loads(proc.stdout)


def _leaves(obj, key=""):
    """(path, value) for every scalar inside a report's results."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], "%s.%s" % (key, k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            label = v["check"] if isinstance(v, dict) and "check" in v else i
            yield from _leaves(v, "%s[%s]" % (key, label))
    else:
        yield key, obj


def _number(value):
    """value as a float if it is one or a CSV cell that reads as one, else None."""
    if isinstance(value, float):
        return value
    try:
        return float(value) if isinstance(value, str) else None
    except ValueError:
        return None


def diff_lines(before, after):
    """The moved-float and changed lines, and the count of identical argvs."""
    lines, same = [], 0
    for argv in before:
        a, b = before[argv], after[argv]
        moved = []
        pairs = [("rc", a["rc"], b["rc"]), ("error", a["error"], b["error"])]
        pairs += [("meta." + k, a["meta"].get(k), b["meta"].get(k))
                  for k in sorted(set(a["meta"]) | set(b["meta"]))]
        for part, prefix in (("results", ""), ("csv", "csv")):
            old, new = dict(_leaves(a[part], prefix)), dict(_leaves(b[part], prefix))
            pairs += [(k, old.get(k), new.get(k)) for k in sorted(set(old) | set(new))]
        for key, old, new in pairs:
            if old == new:
                continue
            x, y = _number(old), _number(new)
            if x is not None and y is not None:
                rel = abs(y - x) / max(abs(x), abs(y))
                moved.append("%s | %s | %r -> %r | rel %.2g" % (argv, key, x, y, rel))
            else:
                moved.append("%s | %s | %r -> %r | CHANGED" % (argv, key, old, new))
        lines += moved
        same += not moved
    return lines, same


def main(argv):
    if argv == ["--collect"]:
        json.dump(collect(json.load(sys.stdin)), sys.stdout)
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    argvs = command_lines(argv[1])
    before, after = (run_tree(tree, argvs) for tree in argv)
    lines, same = diff_lines(before, after)
    for line in lines:
        print(line)
    print("identical results: %d of %d" % (same, len(argvs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
