"""Command line front end: JSON reports plus CSV plot data.

Subcommands: kernel, norms, commutators, pohozaev, stereo, flow, bubble,
counterexample, selftest. Options come from flags or from an INI-style
config file ([common] section plus one section per subcommand; flags win).
Reports are deterministic for a fixed (config, seed, threads) triple: the
"results" object is byte-identical across reruns, while "meta" carries the
wall clock, config hash, and artifact version.

Exit codes: 0 when every enabled assertion lands as expected (checks marked
expect_pass=false count as expected when they fail), 1 on an assertion
mismatch, 2 on a configuration error with a machine-readable JSON line on
stderr and no outputs written.
"""

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import acceptance
from . import commutators
from . import counterexample
from . import fracops
from . import halfharmonic
from . import norms
from . import pohozaev
from .acceptance import CheckResult
from .geometry import (
    CircleGrid,
    Field,
    LineGrid,
    load_binary,
    load_csv,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Anything wrong with flags, the config file, or input data."""


# ---------------------------------------------------------------------------
# option plumbing


def _int_list(text):
    return tuple(int(p) for p in str(text).split(",") if p.strip())


def _float_list(text):
    return tuple(float(p) for p in str(text).split(",") if p.strip())


def _str_list(text):
    return tuple(p.strip() for p in str(text).split(",") if p.strip())


_PARSERS: Dict[str, Callable] = {
    "int": int,
    "float": float,
    "str": str,
    "path": str,
    "int-list": _int_list,
    "float-list": _float_list,
    "str-list": _str_list,
}


@dataclass(frozen=True)
class Option:
    name: str        # underscore form; the flag is --name-with-dashes
    kind: str
    default: object
    help: str
    choices: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Command:
    options: Tuple[Option, ...]
    runner: Callable
    help: str
    actions: Tuple[str, ...] = ()   # allowed positional action words


@dataclass(frozen=True)
class RunContext:
    seed: int
    threads: int
    config_hash: str
    # run-health entries a runner adds to the report's meta, outside results
    meta: dict = field(default_factory=dict)


def _coerce(opt: Option, raw, where: str):
    try:
        value = _PARSERS[opt.kind](raw)
    except (TypeError, ValueError):
        raise ConfigError("%s: cannot parse %r as %s for option %s"
                          % (where, raw, opt.kind, opt.name))
    if opt.choices and value not in opt.choices:
        raise ConfigError("%s: option %s must be one of %s, got %r"
                          % (where, opt.name, "/".join(opt.choices), value))
    return value


def _load_config_file(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (R vs r)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError("config file %s: %s" % (path, exc))
    known = {"common"} | set(_COMMANDS)
    for section in parser.sections():
        if section not in known:
            raise ConfigError("config file %s: unknown section [%s]" % (path, section))
    return parser


def _effective_options(command: str, args: argparse.Namespace,
                       file_cfg: Optional[configparser.ConfigParser]) -> dict:
    """Defaults, overridden by the config file section, overridden by flags."""
    spec = _COMMANDS[command]
    out = {}
    section = file_cfg[command] if file_cfg and file_cfg.has_section(command) else {}
    for key in section:
        if key not in {o.name for o in spec.options}:
            raise ConfigError("config section [%s]: unknown option %s" % (command, key))
    for opt in spec.options:
        value = opt.default
        if opt.name in section:
            value = _coerce(opt, section[opt.name], "config section [%s]" % command)
        flag_value = getattr(args, opt.name, None)
        if flag_value is not None:
            value = _coerce(opt, flag_value, "flag --%s" % opt.name.replace("_", "-"))
        out[opt.name] = value
    return out


def _common_value(name: str, flag_value, file_cfg, default, kind: str):
    value = default
    if file_cfg and file_cfg.has_section("common") and name in file_cfg["common"]:
        value = _coerce(Option(name, kind, default, ""), file_cfg["common"][name],
                        "config section [common]")
    if flag_value is not None:
        value = flag_value
    return value


# ---------------------------------------------------------------------------
# helpers shared by the runners


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _check(check_id, passed, value, target, expect_pass=True, note="", details=None):
    return CheckResult(check_id, bool(passed), float(value), target,
                       expect_pass=expect_pass, note=note, details=details or {})


# ---------------------------------------------------------------------------
# kernel


def _run_kernel(opts, ctx):
    t, n = opts["t"], opts["samples"]
    _require(t > 0.0, "kernel: t must be positive")
    _require(n >= 8 and n % 2 == 0, "kernel: samples must be even and at least 8")
    if opts["geometry"] == "line":
        _require(opts["half_width"] > 0.0, "kernel: half-width must be positive")
        grid = LineGrid(opts["half_width"], n)
        x = grid.nodes()
        g, dg_dt, dg_dx = fracops.poisson_kernel_line(t, x)
        header = ("x", "G", "dG_dt", "dG_dx")
        rows = np.column_stack([x, g, dg_dt, dg_dx])
        payload = {
            "geometry": "line", "t": t, "samples": n,
            "half_width": opts["half_width"],
            "midpoint_mass": float(grid.h * np.sum(g)),
            "peak": float(np.max(g)),
        }
    else:
        grid = CircleGrid(n_modes=n // 2)
        th = grid.nodes()
        f, df_dt, df_dth = fracops.poisson_kernel_circle(t, th)
        f_closed = fracops.poisson_kernel_circle_printed(t, th)[0]
        header = ("theta", "F", "dF_dt", "dF_dtheta", "F_closed_form")
        rows = np.column_stack([th, f, df_dt, df_dth, f_closed])
        ratio = f_closed / f
        payload = {
            "geometry": "circle", "t": t, "samples": n,
            "mass": float(grid.h * np.sum(f)),
            "closed_form_ratio": float(np.mean(ratio)),
            "closed_form_ratio_spread": float(np.max(ratio) - np.min(ratio)),
        }
    checks = [acceptance.check_poisson_kernel()]
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# norms


def _run_norms(opts, ctx):
    if opts["profile"] == "indicator":
        ell = opts["length"]
        _require(0.0 < ell < 20.0, "norms: length must sit inside the grid (0, 20)")
        grid = LineGrid(10.0, 1 << 12)
        x = grid.nodes()
        f = Field(grid, (np.abs(x) < ell / 2.0).astype(float)[:, None])
        row = (ell, float(np.sqrt(ell)), norms.lp_norm(f, 2.0),
               norms.lorentz_21(f), norms.lorentz_2inf(f))
        header = ("length", "sqrt_length", "l2", "l21", "l2inf")
        rows = np.array([row])
        payload = {"profile": "indicator", "length": ell,
                   "l2": row[2], "l21": row[3], "l2inf": row[4]}
    else:
        inner = opts["inner"]
        outers = opts["outer"]
        _require(inner > 0.0, "norms: inner radius must be positive")
        _require(all(r > inner for r in outers),
                 "norms: every outer radius must exceed the inner radius")
        _require(max(outers) <= 2000.0,
                 "norms: outer radius beyond the pinned grid half-width 2000")
        table = acceptance.inverse_sqrt_annuli(inner, outers)
        header = ("inner", "outer", "l2", "l21", "l2inf", "sqrt_2_log_ratio")
        rows = np.array(table)
        payload = {"profile": "inverse-sqrt", "inner": inner,
                   "outer": list(outers),
                   "l2inf": [r[4] for r in table],
                   "l2": [r[2] for r in table]}
    checks = [acceptance.check_lorentz_norms()]
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# commutators


def _run_commutators(opts, ctx):
    resolutions = opts["resolutions"]
    _require(all(r >= 8 and r % 2 == 0 for r in resolutions),
             "commutators: resolutions must be even and at least 8")
    report = commutators.compensation_report(tuple(resolutions), seed=ctx.seed)
    header = ("n_points", "t_l1")
    rows = np.array([(r["n_points"], r["t_l1"]) for r in report])
    payload = {"resolutions": list(resolutions),
               "t_l1": [float(r["t_l1"]) for r in report]}
    checks = [acceptance.check_commutators()]
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# pohozaev


def _run_pohozaev(opts, ctx):
    geometry, preset = opts["geometry"], opts["preset"]
    if geometry == "circle":
        _require(preset in ("identity-map", "mobius", "degree-2"),
                 "pohozaev: circle presets are identity-map, mobius, degree-2")
        grid = CircleGrid(n_modes=512)
        th = grid.nodes()
        if preset == "identity-map":
            u = halfharmonic.identity_map(grid)
        elif preset == "degree-2":
            u = Field(grid, np.stack([np.cos(2 * th), np.sin(2 * th)], axis=1))
        else:
            a = opts["a"]
            _require(-1.0 < a < 1.0, "pohozaev: mobius parameter needs |a| < 1")
            u = halfharmonic.mobius_compose(halfharmonic.identity_map(grid), a)
        rep = pohozaev.residual_circle(u)
        gap, dot = acceptance.moment_balance(rep)
        payload = {"geometry": "circle", "preset": preset,
                   "u_plus": [float(v) for v in rep.u_plus],
                   "u_minus": [float(v) for v in rep.u_minus],
                   "moment_gap": gap, "moment_dot": dot}
        if preset == "mobius":
            payload["a"] = opts["a"]
        tol = acceptance.POHOZAEV_CIRCLE_TOL
        checks = [_check("pohozaev-circle-residual", gap <= tol and dot <= tol,
                         max(gap, dot), "moment norm gap and dot product <= 1e-10")]
        header = ("component", "u_plus", "u_minus")
        rows = np.array([(j, rep.u_plus[j], rep.u_minus[j]) for j in range(2)])
        return payload, checks, (header, rows)

    if geometry == "line":
        _require(preset == "identity-map",
                 "pohozaev: the line geometry supports preset identity-map")
        t_values = opts["t_values"]
        _require(t_values and all(t > 0 for t in t_values),
                 "pohozaev: t-values must be positive")
        tv, lhs, rhs, target, rel = acceptance.pohozaev_line(t_values)
        payload = {"geometry": "line", "preset": preset,
                   "t_values": [float(t) for t in tv],
                   "lhs": [float(v) for v in lhs], "rhs": [float(v) for v in rhs],
                   "closed_form": [float(v) for v in target],
                   "max_relative_error": rel}
        checks = [_check("pohozaev-line-closed-form", rel <= acceptance.POHOZAEV_LINE_TOL, rel,
                         "both sides match 4 pi^2/(t+1)^4 within 1e-3")]
        header = ("t", "lhs", "rhs", "closed_form", "residual")
        rows = np.column_stack([tv, lhs, rhs, target, lhs - rhs])
        return payload, checks, (header, rows)

    _require(preset in acceptance.PLANE_PRESETS,
             "pohozaev: plane presets are " + ", ".join(acceptance.PLANE_PRESETS))
    t_values = opts["t_values"]
    _require(t_values and all(t > 0 for t in t_values),
             "pohozaev: t-values must be positive")
    rep, rel = acceptance.pohozaev_plane(preset, t_values)
    lhs, rhs = np.asarray(rep.lhs), np.asarray(rep.rhs)
    payload = {"geometry": "plane", "preset": preset,
               "t_values": [float(t) for t in t_values],
               "lhs": [float(v) for v in lhs], "rhs": [float(v) for v in rhs],
               "max_relative_residual": rel}
    checks = [_check("pohozaev-plane-residual", rel <= acceptance.POHOZAEV_PLANE_TOL, rel,
                     "relative residual <= 1e-4")]
    header = ("t", "lhs", "rhs", "residual")
    rows = np.column_stack([np.asarray(t_values), lhs, rhs, lhs - rhs])
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# stereo


def _run_stereo(opts, ctx):
    arc = opts["arc_halfwidth"]
    _require(0.0 < arc < 1.5, "stereo: arc-halfwidth must sit in (0, 1.5)")
    if opts["case"] == "closed-form":
        th, lhs, rhs, target, worst = acceptance.stereo_closed_form(arc)
        payload = {"case": "closed-form", "arc_halfwidth": arc,
                   "max_abs_error": worst,
                   "n_points_checked": int(th.size)}
        checks = [_check("stereo-closed-form", worst <= acceptance.STEREO_CLOSED_FORM_TOL, worst,
                         "both routes equal sin(t)/2 within 1e-6 outside the arc")]
        header = ("theta", "circle_route", "line_route", "target")
        rows = np.column_stack([th, lhs, rhs, target])
        return payload, checks, (header, rows)

    rep = acceptance.stereo_random(ctx.seed, arc)
    worst = float(rep["max_abs_residual"])
    payload = {"case": "random", "arc_halfwidth": arc,
               "max_abs_residual": worst,
               "max_relative_residual": float(rep["max_relative_residual"]),
               "n_points_checked": int(rep["n_points_checked"])}
    checks = [_check("stereo-two-route", worst <= acceptance.STEREO_TWO_ROUTE_TOL, worst,
                     "two-route agreement <= 1e-3 outside the arc")]
    header = ("max_abs_residual", "max_relative_residual", "n_points_checked")
    rows = np.array([(worst, rep["max_relative_residual"], rep["n_points_checked"])])
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# flow


def _load_field(path: str) -> Field:
    _require(os.path.exists(path), "flow: initial field not found: %s" % path)
    try:
        if path.endswith(".csv"):
            return load_csv(path)
        return load_binary(path)
    except Exception as exc:
        raise ConfigError("flow: cannot read field %s: %s" % (path, exc))


def _run_flow(opts, ctx):
    tol, max_iter = opts["tol"], opts["max_iter"]
    _require(tol > 0.0, "flow: tol must be positive")
    _require(max_iter >= 1, "flow: max-iter must be at least 1")

    default_recipe = not opts["initial"]
    if default_recipe:
        amp = opts["perturbation"]
        _require(0.0 < amp <= 0.5, "flow: perturbation must sit in (0, 0.5]")
        n_modes = opts["n_modes"]
        _require(n_modes >= 8, "flow: n-modes must be at least 8")
        u0 = halfharmonic.perturbed_identity(CircleGrid(n_modes=n_modes), amp, ctx.seed)
    else:
        u0 = _load_field(opts["initial"])
        _require(u0.is_circle() and u0.m == 2,
                 "flow: the initial field must be a 2-component circle field")
        off = float(np.max(np.abs(np.linalg.norm(u0.samples, axis=1) - 1.0)))
        _require(off <= 1e-6,
                 "flow: the initial field must take values on the unit circle "
                 "(max |u|-1 gap %.2e)" % off)

    fd_check = default_recipe and opts["perturbation"] <= 0.2
    states, violations, energy_gap, grad_rel = acceptance.flow_experiment(
        u0, tol, max_iter, fd_check)
    last = states[-1]
    ctx.meta.update(stalled=last.stalled, backtracks=last.backtracks)

    payload = {"iterations": int(last.iteration),
               "final_energy": float(last.energy),
               "el_residual": float(last.el_residual_norm),
               "energy_gap_from_2pi": float(energy_gap),
               "monotone_violations": violations,
               "recorded_states": len(states),
               "initial": opts["initial"] or ""}
    checks = [
        _check("flow-monotone", violations == 0, violations,
               "energy nonincreasing across recorded states"),
        _check("flow-converged", last.el_residual_norm <= tol,
               last.el_residual_norm, "final residual <= tol"),
    ]
    if fd_check:
        payload["gradient_fd_rel"] = float(grad_rel)
        checks.append(_check("flow-energy-target",
                             energy_gap <= acceptance.FLOW_ENERGY_TOL, energy_gap,
                             "final energy within 1e-4 of 2 pi"))
        checks.append(_check("flow-gradient-fd",
                             grad_rel <= acceptance.FLOW_GRADIENT_TOL, grad_rel,
                             "analytic derivative matches finite differences "
                             "within 1e-5 relative"))
    header = ("iteration", "energy", "el_residual", "step")
    rows = np.array([(s.iteration, s.energy, s.el_residual_norm, s.step)
                     for s in states])
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# bubble


def _run_bubble(opts, ctx):
    k_max, lam, big_r = opts["k_max"], opts["lam"], opts["big_r"]
    _require(1 <= k_max <= 8, "bubble: k-max must sit in 1..8")
    _require(lam >= 1.0, "bubble: lambda must be at least 1")
    _require(big_r > 0.0, "bubble: big-r must be positive")
    n_modes = opts["n_modes"]
    _require(n_modes >= 8, "bubble: n-modes must be at least 8")

    reports = acceptance.bubbling_reports(n_modes, k_max, lam, big_r, ctx.threads)
    entries = []
    table = []
    for rep in reports:
        entries.append({
            "a": float(rep.a),
            "dyadic_sup": None if rep.dyadic_sup is None else float(rep.dyadic_sup),
            "n_annuli": len(rep.annuli),
            "fit_exponent": None if rep.fit_exponent is None else float(rep.fit_exponent),
            "neck_l2_total": None if rep.neck_l2_total is None else float(rep.neck_l2_total),
            "energy_total": float(rep.energy_total),
        })
        for (inner, outer), l2, l21, l2inf in zip(rep.annuli, rep.l2, rep.l21, rep.l2inf):
            table.append((rep.a, inner, outer, l2, l21, l2inf))
    payload = {"lambda": lam, "big_r": big_r, "entries": entries}

    checks = []
    sups = [e["dyadic_sup"] for e in entries]
    if lam == 2.0 and big_r == 2.0 and len(sups) >= 2 and all(s is not None for s in sups):
        checks.append(_check("bubble-monotone", acceptance.strictly_decreasing(sups),
                             sups[-1], "dyadic sup strictly decreasing in k"))
        exps = [e["fit_exponent"] for e in entries if e["fit_exponent"] is not None]
        if exps:
            checks.append(_check(
                "bubble-exponent", acceptance.neck_exponents_ok(exps), exps[-1],
                "fitted neck exponent within 0.5 +- 0.15", expect_pass=False,
                note="gate-passing annuli are the far field of a single "
                     "bubble (exponent 3/2); see the selftest notes"))
    header = ("a", "inner", "outer", "l2", "l21", "l2inf")
    rows = np.array(table)
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# counterexample


def _run_counterexample(opts, ctx):
    n_values = opts["n"]
    r_values = opts["R"]
    _require(all(n >= 2 for n in n_values), "counterexample: n must be at least 2")
    _require(all(r >= 2.0 for r in r_values), "counterexample: R must be at least 2")
    _require(len(n_values) > 0 and len(r_values) > 0,
             "counterexample: need at least one n and one R")

    pairs = [(n, r) for n in n_values for r in r_values]
    feasible = [(n, r) for n, r in pairs if n > r * r]
    skipped = [{"n": n, "R": r, "reason": "degenerate annulus (needs n > R^2)"}
               for n, r in pairs if n <= r * r]
    _require(feasible, "counterexample: every (n, R) pair is degenerate")

    with ThreadPoolExecutor(max_workers=ctx.threads) as pool:
        reports = list(pool.map(lambda p: counterexample.neck_report(*p), feasible))

    rows = np.array([
        (r.n, r.big_r, r.c_n_numeric, r.c_n_paper, r.u_n_window_l2,
         r.neck_l2_omega, r.neck_l21_omega1, r.decay_slope_u, r.decay_slope_v,
         r.system_residual)
        for r in reports])
    header = ("n", "R", "c_n_numeric", "c_n_paper", "window_l2",
              "neck_l2", "neck_l21", "decay_slope_u", "decay_slope_v",
              "system_residual")
    payload = {
        "entries": [{
            "n": int(r.n), "R": float(r.big_r),
            "c_n_numeric": float(r.c_n_numeric), "c_n_paper": float(r.c_n_paper),
            "window_l2": float(r.u_n_window_l2),
            "neck_l2": float(r.neck_l2_omega),
            "neck_l21": float(r.neck_l21_omega1),
            "system_residual": float(r.system_residual),
        } for r in reports],
        "skipped": skipped,
        "decay_slope_u": float(reports[0].decay_slope_u),
        "decay_slope_v": float(reports[0].decay_slope_v),
    }

    slope_u = reports[0].decay_slope_u
    slope_v = reports[0].decay_slope_v
    checks = [
        _check("counterexample-decay-u", acceptance.decay_u_ok(slope_u), slope_u,
               "u potential log-log slope within -1.5 +- 0.05 on [10, 1e3]"),
        _check("counterexample-decay-v", acceptance.decay_v_ok(slope_v), slope_v,
               "v potential log-log slope within -1.25 +- 0.05 on [10, 1e3]",
               expect_pass=False,
               note="sign change near t = 10 plus a t^(-1/4) transient; the "
                    "selftest pins the asymptotic constant instead"),
    ]
    windows = [r.u_n_window_l2 for r in reports if r.n >= 100]
    if windows:
        checks.append(_check("counterexample-window", acceptance.window_ok(windows),
                             max(windows), "window norms in [1, 1.3] for n >= 100"))
    n_top = max(n for n, _ in feasible)
    ladder = sorted(r for n, r in feasible if n == n_top)
    if len(ladder) >= 3:
        neck = [next(rep.neck_l2_omega for rep in reports
                     if rep.n == n_top and rep.big_r == r) for r in ladder]
        slope = acceptance.neck_slope(ladder, neck)
        payload["neck_slope"] = slope
        # the -1/4 power law is asymptotic in n; at small n the logarithmic
        # corrections dominate the fit, so only assert it in its regime
        if n_top >= 1_000_000:
            checks.append(_check("counterexample-neck-slope",
                                 acceptance.neck_slope_ok(slope), slope,
                                 "neck L2 log-log slope within -0.25 +- 0.1 "
                                 "at the largest n"))
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# selftest


def _run_selftest(opts, ctx):
    only = opts["only"] or None
    results = acceptance.run_all(only)
    _require(results, "selftest: no checks match the requested prefixes")
    for r in results:
        sys.stderr.write(acceptance.format_line(r) + "\n")
    counts: Dict[str, int] = {}
    for r in results:
        counts[r.status] = counts.get(r.status, 0) + 1
    payload = {"n_checks": len(results), "counts": counts}
    header = ("check", "status", "value")
    rows = [(r.check_id, r.status, r.value) for r in results]
    return payload, list(results), (header, rows)


# ---------------------------------------------------------------------------
# command table

_COMMANDS: Dict[str, Command] = {
    "kernel": Command(
        options=(
            Option("geometry", "str", "line", "line or circle", ("line", "circle")),
            Option("t", "float", 1.0, "height parameter"),
            Option("samples", "int", 2048, "number of sample points"),
            Option("half_width", "float", 40.0, "line grid half-width"),
        ),
        runner=_run_kernel, actions=("eval",),
        help="evaluate Poisson kernels and their identities"),
    "norms": Command(
        options=(
            Option("profile", "str", "inverse-sqrt", "indicator or inverse-sqrt",
                   ("indicator", "inverse-sqrt")),
            Option("length", "float", 1.0, "indicator interval length"),
            Option("inner", "float", 0.1, "annulus inner radius"),
            Option("outer", "float-list", (1.0, 10.0, 100.0), "annulus outer radii"),
        ),
        runner=_run_norms,
        help="Lorentz and Lebesgue norms of the reference profiles"),
    "commutators": Command(
        options=(
            Option("resolutions", "int-list", (512, 1024, 2048, 4096, 8192),
                   "grid sizes for the compensation sweep"),
        ),
        runner=_run_commutators,
        help="compensation decay of the commutator operators"),
    "pohozaev": Command(
        options=(
            Option("geometry", "str", "circle", "line, circle, or plane",
                   ("line", "circle", "plane")),
            Option("preset", "str", "identity-map", "test map preset"),
            Option("a", "float", 0.6, "mobius parameter for the mobius preset"),
            Option("t_values", "float-list", (0.5, 1.0, 2.0, 5.0),
                   "heights for the line and plane identities"),
        ),
        runner=_run_pohozaev,
        help="weighted-moment identities on the line, circle, and plane"),
    "stereo": Command(
        options=(
            Option("case", "str", "closed-form", "closed-form or random",
                   ("closed-form", "random")),
            Option("arc_halfwidth", "float", 0.2, "excluded arc half-width"),
        ),
        runner=_run_stereo,
        help="two-route stereographic transfer of the half Laplacian"),
    "flow": Command(
        options=(
            Option("n_modes", "int", 128, "circle grid modes"),
            Option("perturbation", "float", 0.05, "tangent perturbation amplitude"),
            Option("tol", "float", 1e-6, "residual stopping tolerance"),
            Option("max_iter", "int", 20000, "iteration cap"),
            Option("initial", "path", "", "initial field file (.csv or binary)"),
        ),
        runner=_run_flow,
        help="projected gradient flow to a half-harmonic map"),
    "bubble": Command(
        options=(
            Option("k_max", "int", 4, "largest k in a = 1 - 10^-k"),
            Option("lam", "float", 2.0, "inner neck cutoff multiplier"),
            Option("big_r", "float", 2.0, "outer neck cutoff"),
            Option("n_modes", "int", 256, "circle grid modes"),
        ),
        runner=_run_bubble,
        help="neck diagnostics for the concentrating Moebius family"),
    "counterexample": Command(
        options=(
            Option("n", "int-list", (100, 10_000, 1_000_000), "scaling indices"),
            Option("R", "float-list", (4.0, 16.0, 64.0, 256.0), "annulus cutoffs"),
        ),
        runner=_run_counterexample, actions=("sweep",),
        help="sweep the scaling family's window and neck norms"),
    "selftest": Command(
        options=(
            Option("only", "str-list", (), "run only checks with these id prefixes"),
        ),
        runner=_run_selftest,
        help="run the full release checklist"),
}


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fraclap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="fraclap " + __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if spec.actions:
            p.add_argument("action", nargs="?", default=spec.actions[0],
                           help="one of: %s" % ", ".join(spec.actions))
        for opt in spec.options:
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name,
                           default=None, metavar=opt.kind.upper(), help=opt.help)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="INI config file; flags override it")
        p.add_argument("--seed", default=None, metavar="INT", help="RNG seed")
        p.add_argument("--threads", default=None, metavar="INT",
                       help="worker pool size (env FRACLAP_THREADS, then cores)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the JSON report here instead of stdout")
        p.add_argument("--csv", default=None, metavar="PATH",
                       help="write the plot-data table here")
    return parser


def _default_threads() -> int:
    env = os.environ.get("FRACLAP_THREADS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError("FRACLAP_THREADS must be an integer, got %r" % env)
        if value < 1:
            raise ConfigError("FRACLAP_THREADS must be at least 1")
        return value
    return os.cpu_count() or 1


def _config_hash(command: str, opts: dict, seed: int, threads: int) -> str:
    blob = json.dumps({"command": command, "options": opts, "seed": seed,
                       "threads": threads}, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(list(row))


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    spec = _COMMANDS[args.command]
    if spec.actions and args.action not in spec.actions:
        raise ConfigError("%s: unknown action %r (expected %s)"
                          % (args.command, args.action, "/".join(spec.actions)))

    file_cfg = _load_config_file(args.config) if args.config else None
    opts = _effective_options(args.command, args, file_cfg)
    seed = int(_common_value("seed", args.seed, file_cfg, 0, "int"))
    threads_raw = _common_value("threads", args.threads, file_cfg, None, "int")
    threads = int(threads_raw) if threads_raw is not None else _default_threads()
    if threads < 1:
        raise ConfigError("threads must be at least 1")

    hash_opts = dict(opts)
    ctx = RunContext(seed=seed, threads=threads,
                     config_hash=_config_hash(args.command, hash_opts, seed, threads))

    started = time.time()
    payload, checks, table = spec.runner(opts, ctx)
    if args.csv and table is None:
        raise ConfigError("%s: no table data for --csv" % args.command)

    results = dict(payload)
    results["checks"] = [c.to_dict() for c in checks]
    report = {
        "meta": {
            "command": args.command,
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "config_hash": ctx.config_hash,
            "seed": seed,
            "threads": threads,
            "wall_clock_s": round(time.time() - started, 3),
            **ctx.meta,
        },
        "results": results,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        _write_csv(args.csv, table[0], table[1])

    return 0 if all(c.ok for c in checks) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
