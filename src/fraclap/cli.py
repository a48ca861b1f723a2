"""Command line front end: JSON reports plus CSV plot data.

Subcommands: kernel, norms, commutators, pohozaev, stereo, flow, bubble,
counterexample, selftest. Options come from flags or from an INI-style
config file ([common] section plus one section per subcommand; flags win).
Reports are deterministic for a fixed (config, seed) pair: "results" is
byte-identical across reruns and thread counts (no subcommand starts threads),
while "meta" carries the wall clock, config hash, artifact version, --threads,
the numpy and scipy versions, and the count of warnings the run raised
(recorded instead of printed).

Exit codes: 0 when every enabled assertion lands as expected (checks marked
expect_pass=false count as expected when they fail), 1 on an assertion
mismatch, 2 on a configuration error, an input the library rejects, or a
report that would carry NaN or Infinity, with a machine-readable JSON line on
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
import warnings
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


def _list_of(parse):
    """Parser of a comma-separated list; blank items are skipped."""
    return lambda text: tuple(parse(p.strip()) for p in str(text).split(",") if p.strip())


_PARSERS: Dict[str, Callable] = {
    "int": int,
    "float": float,
    "str": str,
    "path": str,
    "int-list": _list_of(int),
    "float-list": _list_of(float),
    "str-list": _list_of(str),
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
    # run-health entries a runner adds to the report's meta, outside results
    meta: dict = field(default_factory=dict)


def _coerce(opt: Option, raw, where: str):
    try:
        value = _PARSERS[opt.kind](raw)
    except (TypeError, ValueError):
        raise ConfigError("%s: cannot parse %r as %s for option %s"
                          % (where, raw, opt.kind, opt.name))
    if opt.kind.endswith("-list") and not value:
        raise ConfigError("%s: option %s needs at least one value, got %r"
                          % (where, opt.name, raw))
    if opt.choices and value not in opt.choices:
        raise ConfigError("%s: option %s must be one of %s, got %r"
                          % (where, opt.name, "/".join(opt.choices), value))
    if opt.kind in ("float", "float-list") and not np.all(np.isfinite(value)):
        raise ConfigError("%s: option %s must be finite, got %r" % (where, opt.name, raw))
    return value


def _load_config_file(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (R vs r)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError("config file %s: %s" % (path, exc))
    known = {"common"} | set(_COMMANDS)
    for section in parser.sections():
        if section not in known:
            raise ConfigError("config file %s: unknown section [%s]" % (path, section))
    return parser


def _effective_options(command: str, args: argparse.Namespace,
                       file_cfg: Optional[configparser.ConfigParser]) -> dict:
    """Defaults, overridden by the config file section, overridden by flags,
    for the command's options and then the common ones."""
    out = {}
    for name, options in ((command, _COMMANDS[command].options), ("common", _COMMON)):
        section = file_cfg[name] if file_cfg and file_cfg.has_section(name) else {}
        for key in section:
            if key not in {o.name for o in options}:
                raise ConfigError("config section [%s]: unknown option %s" % (name, key))
        for opt in options:
            value = opt.default
            if opt.name in section:
                value = _coerce(opt, section[opt.name], "config section [%s]" % name)
            flag_value = getattr(args, opt.name, None)
            if flag_value is not None:
                value = _coerce(opt, flag_value, "flag --%s" % opt.name.replace("_", "-"))
            out[opt.name] = value
    return out


# ---------------------------------------------------------------------------
# helpers shared by the runners


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# kernel


def _run_kernel(opts, ctx):
    t, n = opts["t"], opts["samples"]
    _require(n >= 8 and n % 2 == 0, "kernel: samples must be even and at least 8")
    if opts["geometry"] == "line":
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
        grid = acceptance.INDICATOR_GRID
        _require(0.0 < ell < 2.0 * grid.half_width,
                 "norms: length must sit inside the grid (0, %g)" % (2.0 * grid.half_width))
        f = Field(grid, (np.abs(grid.nodes()) < ell / 2.0).astype(float)[:, None])
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
        half_width = acceptance.ANNULI["half_width"]
        _require(max(outers) <= half_width,
                 "norms: outer radius beyond the pinned grid half-width %g" % half_width)
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

_DEFAULT_A = 0.6   # the default of --a, which only the mobius preset reads


def _run_pohozaev(opts, ctx):
    geometry, preset = opts["geometry"], opts["preset"]
    _require(preset == "mobius" or opts["a"] == _DEFAULT_A,
             "pohozaev: --a applies only to the mobius preset")
    if geometry == "circle":
        _require(not opts["t_values"],
                 "pohozaev: --t-values applies only to the line and plane geometries")
        _require(preset in ("identity-map", "mobius", "degree-2"),
                 "pohozaev: circle presets are identity-map, mobius, degree-2")
        grid = CircleGrid(n_modes=acceptance.POHOZAEV_CIRCLE_MODES)
        th = grid.nodes()
        if preset == "identity-map":
            u = halfharmonic.identity_map(grid)
        elif preset == "degree-2":
            u = Field(grid, np.stack([np.cos(2 * th), np.sin(2 * th)], axis=1))
        else:
            u = halfharmonic.mobius_compose(halfharmonic.identity_map(grid), opts["a"])
            # the node count at which the composition's spectrum was resolved
            ctx.meta["mobius_points"] = u.grid.n_points
        rep = pohozaev.residual_circle(u)
        gap, dot = rep.moment_gap, rep.moment_dot
        payload = {"geometry": "circle", "preset": preset,
                   "u_plus": [float(v) for v in rep.u_plus],
                   "u_minus": [float(v) for v in rep.u_minus],
                   "moment_gap": gap, "moment_dot": dot}
        if preset == "mobius":
            payload["a"] = opts["a"]
        checks = [acceptance.moment_claim("pohozaev-circle-residual", (gap, dot))]
        header = ("component", "u_plus", "u_minus")
        rows = np.array([(j, rep.u_plus[j], rep.u_minus[j]) for j in range(2)])
        return payload, checks, (header, rows)

    if geometry == "line":
        _require(preset == "identity-map",
                 "pohozaev: the line geometry supports preset identity-map")
        tv, lhs, rhs, target, claim = acceptance.pohozaev_line(
            "pohozaev-line-closed-form", opts["t_values"] or acceptance.POHOZAEV_LINE_T)
        payload = {"geometry": "line", "preset": preset,
                   "t_values": [float(t) for t in tv],
                   "lhs": [float(v) for v in lhs], "rhs": [float(v) for v in rhs],
                   "closed_form": [float(v) for v in target],
                   "max_relative_error": claim.value}
        header = ("t", "lhs", "rhs", "closed_form", "residual")
        rows = np.column_stack([tv, lhs, rhs, target, lhs - rhs])
        return payload, [claim], (header, rows)

    _require(preset in acceptance.PLANE_PRESETS,
             "pohozaev: plane presets are " + ", ".join(acceptance.PLANE_PRESETS))
    t_values = opts["t_values"] or acceptance.POHOZAEV_PLANE_T
    (rep,), claim = acceptance.pohozaev_plane("pohozaev-plane-residual", (preset,), t_values)
    lhs, rhs = np.asarray(rep.lhs), np.asarray(rep.rhs)
    payload = {"geometry": "plane", "preset": preset,
               "t_values": [float(t) for t in t_values],
               "lhs": [float(v) for v in lhs], "rhs": [float(v) for v in rhs],
               "max_relative_residual": claim.value}
    header = ("t", "lhs", "rhs", "residual")
    rows = np.column_stack([np.asarray(t_values), lhs, rhs, lhs - rhs])
    return payload, [claim], (header, rows)


# ---------------------------------------------------------------------------
# stereo


def _run_stereo(opts, ctx):
    arc = opts["arc_halfwidth"]
    _require(0.0 < arc < 1.5, "stereo: arc-halfwidth must sit in (0, 1.5)")
    if opts["case"] == "closed-form":
        th, lhs, rhs, target, claim = acceptance.stereo_closed_form("stereo-closed-form", arc)
        payload = {"case": "closed-form", "arc_halfwidth": arc,
                   "max_abs_error": claim.value,
                   "n_points_checked": int(th.size)}
        header = ("theta", "circle_route", "line_route", "target")
        rows = np.column_stack([th, lhs, rhs, target])
        return payload, [claim], (header, rows)

    rep, claim = acceptance.stereo_random("stereo-two-route", ctx.seed, arc)
    payload = {"case": "random", "arc_halfwidth": arc,
               "max_abs_residual": claim.value,
               "max_relative_residual": float(rep["max_relative_residual"]),
               "n_points_checked": int(rep["n_points_checked"])}
    header = ("max_abs_residual", "max_relative_residual", "n_points_checked")
    rows = np.array([(claim.value, rep["max_relative_residual"], rep["n_points_checked"])])
    return payload, [claim], (header, rows)


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

    fd_check = default_recipe and opts["perturbation"] <= 0.2
    states, claims = acceptance.flow_experiment(u0, tol, max_iter, fd_check)
    monotone, converged, energy, *gradient = claims
    last = states[-1]
    ctx.meta.update(stalled=last.stalled, backtracks=last.backtracks)

    payload = {"iterations": int(last.iteration),
               "final_energy": float(last.energy),
               "el_residual": float(last.el_residual_norm),
               "energy_gap_from_2pi": energy.value,
               "monotone_violations": monotone.gates[0].value,
               "recorded_states": len(states),
               "initial": opts["initial"] or ""}
    if fd_check:
        payload["gradient_fd_rel"] = gradient[0].value
    # the energy target and the gradient check are claims of the default
    # recipe at small perturbations
    checks = claims if fd_check else [monotone, converged]
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

    reports = acceptance.bubbling_reports(n_modes=n_modes, k_max=k_max, lam=lam, big_r=big_r)
    entries = []
    table = []
    for rep in reports:
        entries.append({
            "a": rep.a,
            "dyadic_sup": rep.dyadic_sup,
            "n_annuli": len(rep.annuli),
            "fit_exponent": rep.fit_exponent,
            "neck_l2_total": rep.neck_l2_total,
            "energy_total": rep.energy_total,
        })
        for (inner, outer), l2, l21, l2inf in zip(rep.annuli, rep.l2, rep.l21, rep.l2inf):
            table.append((rep.a, inner, outer, l2, l21, l2inf))
    payload = {"lambda": lam, "big_r": big_r, "entries": entries}

    # checks 12a and 12b claim these diagnostics at their cutoffs
    checks = []
    sups, exps = [r.dyadic_sup for r in reports], [r.fit_exponent for r in reports]
    cutoffs = (acceptance.BUBBLE["lam"], acceptance.BUBBLE["big_r"])
    if (lam, big_r) == cutoffs and len(sups) >= 2 and None not in sups:
        checks.append(acceptance.monotone_claim("bubble-monotone", sups))
        if any(e is not None for e in exps):
            checks.append(acceptance.exponent_claim("bubble-exponent", exps))
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

    pairs = [(n, r) for n in n_values for r in r_values]
    feasible = [(n, r) for n, r in pairs if n > r * r]
    skipped = [{"n": n, "R": r, "reason": "degenerate annulus (needs n > R^2)"}
               for n, r in pairs if n <= r * r]
    _require(feasible, "counterexample: every (n, R) pair is degenerate")

    reports = [counterexample.neck_report(n, r) for n, r in feasible]
    slope_u, slope_v = counterexample.decay_slopes()

    rows = np.array([
        (r.n, r.big_r, r.c_n_numeric, r.c_n_paper, r.u_n_window_l2,
         r.neck_l2_omega, r.neck_l21_omega1, slope_u, slope_v, r.system_residual)
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
        "decay_slope_u": slope_u,
        "decay_slope_v": slope_v,
    }

    checks = [acceptance.decay_u_claim("counterexample-decay-u", slope_u),
              acceptance.decay_v_claim("counterexample-decay-v", slope_v)]
    # the window and neck claims of check 13d hold from its smallest n and at its largest
    sweep_n = acceptance.COUNTEREXAMPLE["n"]
    windows = [r.u_n_window_l2 for r in reports if r.n >= min(sweep_n)]
    if windows:
        checks.append(acceptance.window_claim("counterexample-window", windows))
    n_top = max(n for n, _ in feasible)
    ladder = sorted(r for n, r in feasible if n == n_top)
    if len(ladder) >= 3:
        neck = [next(rep.neck_l2_omega for rep in reports
                     if rep.n == n_top and rep.big_r == r) for r in ladder]
        slope = acceptance.neck_slope(ladder, neck)
        payload["neck_slope"] = slope
        # the -1/4 power law is asymptotic in n; at small n the logarithmic
        # corrections dominate the fit, so only assert it in its regime
        if n_top >= max(sweep_n):
            checks.append(acceptance.neck_slope_claim("counterexample-neck-slope", slope))
    return payload, checks, (header, rows)


# ---------------------------------------------------------------------------
# selftest


def _run_selftest(opts, ctx):
    only = opts["only"] or None
    seconds: Dict[str, float] = {}
    results = acceptance.run_all(only, seconds)
    _require(results, "selftest: no checks match the requested prefixes")
    ctx.meta["check_seconds"] = {k: round(v, 3) for k, v in seconds.items()}
    for r in results:
        sys.stderr.write("%7.3fs %s\n" % (seconds[r.check_id], acceptance.format_line(r)))
        for key, value in r.health.items():
            ctx.meta[key] = max(value, ctx.meta.get(key, value))
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
            Option("inner", "float", acceptance.ANNULI["inner"], "annulus inner radius"),
            Option("outer", "float-list", acceptance.ANNULI["outer"], "annulus outer radii"),
        ),
        runner=_run_norms,
        help="Lorentz and Lebesgue norms of the reference profiles"),
    "commutators": Command(
        options=(
            Option("resolutions", "int-list", commutators.RESOLUTIONS,
                   "grid sizes for the compensation sweep"),
        ),
        runner=_run_commutators,
        help="compensation decay of the commutator operators"),
    "pohozaev": Command(
        options=(
            Option("geometry", "str", "circle", "line, circle, or plane",
                   ("line", "circle", "plane")),
            Option("preset", "str", "identity-map", "test map preset"),
            Option("a", "float", _DEFAULT_A, "mobius parameter for the mobius preset"),
            Option("t_values", "float-list", (),
                   "heights for the line and plane identities "
                   "(default: the geometry's selftest heights)"),
        ),
        runner=_run_pohozaev,
        help="weighted-moment identities on the line, circle, and plane"),
    "stereo": Command(
        options=(
            Option("case", "str", "closed-form", "closed-form or random",
                   ("closed-form", "random")),
            Option("arc_halfwidth", "float", acceptance.STEREO_ARC, "excluded arc half-width"),
        ),
        runner=_run_stereo,
        help="two-route stereographic transfer of the half Laplacian"),
    "flow": Command(
        options=(
            Option("n_modes", "int", acceptance.FLOW["n_modes"], "circle grid modes"),
            Option("perturbation", "float", acceptance.FLOW["perturbation"],
                   "tangent perturbation amplitude"),
            Option("tol", "float", acceptance.FLOW["tol"], "residual stopping tolerance"),
            Option("max_iter", "int", acceptance.FLOW["max_iter"], "iteration cap"),
            Option("initial", "path", "", "initial field file (.csv or binary)"),
        ),
        runner=_run_flow,
        help="projected gradient flow to a half-harmonic map"),
    "bubble": Command(
        options=(
            Option("k_max", "int", acceptance.BUBBLE["k_max"], "largest k in a = 1 - 10^-k"),
            Option("lam", "float", acceptance.BUBBLE["lam"], "inner neck cutoff multiplier"),
            Option("big_r", "float", acceptance.BUBBLE["big_r"], "outer neck cutoff"),
            Option("n_modes", "int", acceptance.BUBBLE["n_modes"], "circle grid modes"),
        ),
        runner=_run_bubble,
        help="neck diagnostics for the concentrating Moebius family"),
    "counterexample": Command(
        options=(
            Option("n", "int-list", acceptance.COUNTEREXAMPLE["n"], "scaling indices"),
            Option("R", "float-list", acceptance.COUNTEREXAMPLE["R"], "annulus cutoffs"),
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

# options every command takes; [common] in a config file
_COMMON = (
    Option("seed", "int", 0, "RNG seed"),
    Option("threads", "int", None, "recorded in meta (env FRACLAP_THREADS, then cores)"),
)


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse(argv: Optional[Sequence[str]]) -> Optional[argparse.Namespace]:
    """The parsed command line, or None once the usage is printed.

    A command runs only when the command line opens with its name; that
    command's parser alone declares its action word, its options, the common
    ones and the file paths. Any other line ends in the usage, the version or
    an error: the top-level parser knows each command by name and help line
    only."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        spec = _COMMANDS[argv[0]]
        parser = _Parser(prog="fraclap " + argv[0])
        if spec.actions:
            parser.add_argument("action", nargs="?", default=spec.actions[0],
                                choices=spec.actions)
        for opt in spec.options + _COMMON:
            parser.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name,
                                default=None, metavar=opt.kind.upper(), help=opt.help)
        parser.add_argument("--config", default=None, metavar="PATH",
                            help="INI config file; flags override it")
        parser.add_argument("--out", default=None, metavar="PATH",
                            help="write the JSON report here instead of stdout")
        parser.add_argument("--csv", default=None, metavar="PATH",
                            help="write the plot-data table here")
        args = parser.parse_args(argv[1:])
        args.command = argv[0]
        return args
    parser = _Parser(prog="fraclap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="fraclap " + __version__)
    sub = parser.add_subparsers(metavar="command")
    for name, spec in _COMMANDS.items():
        sub.add_parser(name, help=spec.help, add_help=False)
    parser.parse_args(argv)
    parser.print_help(sys.stderr)
    return None


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
                       "threads": threads}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_files(text: str, out: Optional[str], csv_path: Optional[str], table) -> None:
    """Write the report to `out` and the table to `csv_path`; if either
    cannot be written, remove what was written and raise a ConfigError."""
    written = []
    try:
        if out:
            with open(out, "w") as fh:
                written.append(out)
                fh.write(text)
        if csv_path:
            with open(csv_path, "w", newline="") as fh:
                written.append(csv_path)
                writer = csv.writer(fh)
                writer.writerow(table[0])
                writer.writerows(list(row) for row in table[1])
    except OSError as exc:
        for path in written:
            os.remove(path)
        raise ConfigError("cannot write the output: %s" % exc)


def _libraries():
    """Versions of the numerical libraries the run has imported, so that a
    moved float can be traced to its library; read from the modules, as
    importlib.metadata takes milliseconds per call."""
    return {name: sys.modules[name].__version__ for name in ("numpy", "scipy")
            if name in sys.modules}


def _main(argv: Optional[Sequence[str]]) -> int:
    args = _parse(argv)
    if args is None:
        return 2
    spec = _COMMANDS[args.command]

    file_cfg = _load_config_file(args.config) if args.config else None
    opts = _effective_options(args.command, args, file_cfg)
    seed, threads = opts.pop("seed"), opts.pop("threads")
    if threads is None:
        threads = _default_threads()
    _require(seed >= 0, "seed must be non-negative")
    _require(threads >= 1, "threads must be at least 1")

    ctx = RunContext(seed=seed)

    started = time.time()
    # numpy's warnings go to meta as a count instead of onto stderr, whose one
    # line is the exit-2 diagnostic; the filters stay as they are, so a
    # warning made an error still raises
    with warnings.catch_warnings(record=True) as caught:
        payload, checks, table = spec.runner(opts, ctx)

    results = dict(payload)
    results["checks"] = [c.to_dict() for c in checks]
    report = {
        "meta": {
            "command": args.command,
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "config_hash": _config_hash(args.command, opts, seed, threads),
            "seed": seed,
            "threads": threads,
            "wall_clock_s": round(time.time() - started, 3),
            "warnings": len(caught),
            "headroom": {c.check_id: c.headroom for c in checks},
            "libraries": _libraries(),
            **ctx.meta,
        },
        "results": results,
    }
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ConfigError("%s: the inputs lead to a non-finite value in the report"
                          % args.command)
    _write_files(text, args.out, args.csv, table)
    if not args.out:
        sys.stdout.write(text)

    return 0 if all(c.ok for c in checks) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except (ConfigError, ValueError) as exc:
        # a ValueError is an input the library rejects; the CLI builds every
        # grid and field itself, so a TypeError stays a program fault
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
