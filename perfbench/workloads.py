"""What each workload runs and how its operations are judged.

`release` and `maps` are CLI workloads: every operation is one
`fraclap.cli.main(argv)` call in a fresh worker, as a user who types the
command pays a fresh interpreter each time. `operators` is a library
workload: one worker per pass runs the calls listed in `library_ops.py`.

The program sees only the generated inputs: the `--seed` values put on the
command lines here, and the fields `library_ops.build` samples.
"""

import numpy as np

WORKLOADS = ("release", "maps", "operators")

# checklist entries that fail on purpose; each has a passing companion
EXPECTED_FAIL = ("04a-inverse-quarter-kernels", "12b-bubbling-exponent",
                 "13b-counterexample-decay-v")
CHECK_IDS = (
    "01-circle-multiplier", "02-poisson-kernel-line", "03-line-closed-form",
    "04a-inverse-quarter-kernels", "04b-inverse-quarter-ratio",
    "05-pohozaev-line", "06-pohozaev-circle", "07-pohozaev-plane",
    "08-stereo-transfer", "09-commutator-compensation",
    "10-flow-convergence", "11-mobius-invariance", "12a-bubbling-monotone",
    "12b-bubbling-exponent", "13a-counterexample-decay-u",
    "13b-counterexample-decay-v", "13c-counterexample-decay-v-limit",
    "13d-counterexample-window", "14-lorentz-norms", "15-moment-operators",
)

# Known defect (ROADMAP item 5): `pohozaev --geometry plane` at its defaults
# raises out of cli.main instead of reporting. It runs exactly at its
# defaults and counts as a failed operation; it leaves `correct` true only
# while it fails in this known way.
PLANE_DEFECT = "ValueError: t=2 too large for the grid"

# Known defect: `flow` exits 1 when its finite-difference gradient check
# alone misses 1e-5 relative, as rare seeds make it do: `flow --n-modes 128
# --perturbation 0.2 --seed 339994981` gives 1.19e-5, while none of 395
# other seeds exceeded 5e-7. Such a call counts as failed and leaves
# `correct` true; any other failure of a flow call does not.
FLOW_FD_CHECK = "flow-gradient-fd"

# Flow seeds per (modes, perturbation) pair of `maps`. The iterations a
# flow takes to converge depend on its seed (sd about 13% of the work), so
# each pair draws its own seeds and a pass averages over 24 of them.
FLOW_SEEDS = 4

# The reference tasks (worker.REFERENCES) whose speed each workload's calls
# follow as the host's load changes. Timed alternately for three minutes
# on a 2-core cloud VM whose speed wandered by 1.5x, `flow` calls followed
# the interpreter task (log-log slope 0.85-0.99, correlation 0.9) and 2^20
# line operators the memory task (slope 0.95, correlation 0.91; slope 0.46
# against the interpreter task). Over 20 `release` passes, scaling by the
# memory task cut the spread of `selftest` and `stereo` (sd of log time
# 0.084 to 0.073 and 0.107 to 0.064); the interpreter task widened it.
HOST_REFERENCES = {"release": ("memory",), "maps": ("interpreter",),
                   "operators": ("memory",)}

RELEASE = (
    ("selftest",), ("kernel",), ("norms",), ("commutators",), ("pohozaev",),
    ("pohozaev", "--geometry", "line"), ("pohozaev", "--geometry", "plane"),
    ("stereo",), ("stereo", "--case", "random"), ("flow",), ("bubble",),
    ("counterexample",),
)


def cli_ops(workload, seed):
    """Operations of one pass of a CLI workload: dicts with argv and known defect."""
    rng = np.random.default_rng(seed)
    ops = []
    if workload == "release":
        for cmd in RELEASE:
            argv = list(cmd) + ["--seed", str(rng.integers(2 ** 31)), "--threads", "1"]
            known = PLANE_DEFECT if cmd == ("pohozaev", "--geometry", "plane") else None
            ops.append({"argv": argv, "known_defect": known})
        return ops
    for n_modes in ("128", "256", "512"):
        for amp in ("0.05", "0.2"):
            for s in rng.integers(2 ** 31, size=FLOW_SEEDS):
                ops.append(["flow", "--n-modes", n_modes, "--perturbation", amp,
                            "--seed", str(s), "--threads", "1"])
    ops.append(["bubble", "--k-max", "7", "--threads", "2"])
    for a in ("0.3", "0.6", "0.9"):
        ops.append(["pohozaev", "--preset", "mobius", "--a", a, "--threads", "1"])
    ops.append(["counterexample", "sweep", "--threads", "2"])
    return [{"argv": argv, "known_defect": None} for argv in ops]


def judge_cli(op, record):
    """Outcomes (name, ok, known) of one CLI call, checklist entries included."""
    name = " ".join(op["argv"])
    ok = record["error"] is None and record["rc"] == 0 and bool(record.get("checks"))
    failing = [c for c, status in record.get("checks") or () if status != "pass"]
    known = not ok and (
        (op["known_defect"] is not None
         and (record["error"] or "").startswith(op["known_defect"]))
        or (op["argv"][0] == "flow" and record["rc"] == 1
            and failing == [FLOW_FD_CHECK]))
    outcomes = [(name, ok, known)]
    if op["argv"][0] == "selftest":
        statuses = dict(record.get("checks") or ())
        for check_id in sorted(set(CHECK_IDS) | set(statuses)):
            want = "expected-fail" if check_id in EXPECTED_FAIL else "pass"
            outcomes.append((check_id, statuses.get(check_id) == want, False))
    return outcomes


def judge_library(record):
    return [(record["name"], record["error"] is None and record["ok"], False)]
