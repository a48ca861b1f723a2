"""Release checklist: the numbered checks behind `fraclap selftest`.

Each check_* function exercises one advertised guarantee end to end, on a
pinned fixture, and returns a CheckResult. Three checks carry
expect_pass=False: they assert reference values that the implementation
demonstrably does not produce (each has a companion check pinning what the
code actually computes, so a silent change in either direction is caught).
The test suite mirrors those as strict expected failures.

A check passes when each of its gates (one bound on one value) holds. Fixtures
are chosen so every gate holds with a measured margin, its headroom.

The CLI runners report the same claims under their own ids through the claim
builders, which take a check id and return the whole CheckResult: text, bound
and expectation. They call library functions through the module attribute, so
a patched one sees them.
"""

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (CircleGrid, Field, LineGrid, TailModel, gauss_legendre,
                       line_integral)
from . import commutators
from . import counterexample
from . import fracops
from . import halfharmonic
from . import norms
from . import pohozaev
from . import stereo

__all__ = ["Gate", "CheckResult", "CHECKS", "run_all", "format_line"]

# Check fixtures that are also CLI option defaults; the runners' regime tests read them too
POHOZAEV_LINE_T = (0.5, 1.0, 2.0, 5.0)                          # 05
POHOZAEV_CIRCLE_MODES = 512                                     # 06
POHOZAEV_PLANE_T = (1.0,)                                       # 07
STEREO_ARC = 0.2                                                # 08
FLOW = dict(n_modes=128, perturbation=0.05, tol=1e-6, max_iter=20000)  # 10
BUBBLE = dict(n_modes=256, k_max=4, lam=2.0, big_r=2.0)         # 12a, 12b
COUNTEREXAMPLE = dict(n=(100, 10_000, 1_000_000), R=(4.0, 16.0, 64.0, 256.0))  # 13
INDICATOR_GRID = LineGrid(10.0, 1 << 12)                        # 14
ANNULI = dict(inner=0.1, outer=(1.0, 10.0, 100.0), half_width=2000.0)  # 14


@dataclass(frozen=True)
class Gate:
    """Holds when lo <= value <= hi (lo < value when strict); NaN fails."""
    name: str
    value: float
    lo: float = -np.inf
    hi: float = np.inf
    strict: bool = False

    @property
    def holds(self) -> bool:
        above = self.lo < self.value if self.strict else self.lo <= self.value
        return bool(above and self.value <= self.hi)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    value: float
    target: str
    gates: Tuple[Gate, ...]
    expect_pass: bool = True
    note: str = ""
    details: Dict[str, float] = field(default_factory=dict)
    # numerical-health values for the report's meta, kept out of results
    health: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(g.holds for g in self.gates)

    @property
    def headroom(self) -> Dict[str, float]:
        """Each gate's value over its upper bound, or lower bound over value (1 is on
        the bound, 3 digits); only finite, positive bounds and finite ratios count."""
        upper = {g.name: float(g.value) / g.hi for g in self.gates if 0.0 < g.hi < np.inf}
        lower = {g.name: g.lo / float(g.value) for g in self.gates if 0.0 < g.lo < np.inf and g.value}
        return {k: float("%.3g" % r) for k, r in {**lower, **upper}.items() if np.isfinite(r)}

    @property
    def status(self) -> str:
        if self.passed:
            return "pass" if self.expect_pass else "unexpected-pass"
        return "fail" if self.expect_pass else "expected-fail"

    @property
    def ok(self) -> bool:
        """True when the outcome matches the expectation."""
        return self.passed == self.expect_pass

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "status": self.status,
            "passed": self.passed,
            "expect_pass": self.expect_pass,
            "value": self.value,
            "target": self.target,
            "note": self.note,
            "details": dict(self.details),
        }


def format_line(r: CheckResult) -> str:
    mark = {"pass": "PASS", "fail": "FAIL",
            "expected-fail": "XFAIL", "unexpected-pass": "XPASS"}[r.status]
    out = "[%-5s] %-36s %.3e  (target %s)" % (mark, r.check_id, r.value, r.target)
    if r.note:
        out += "  " + r.note
    return out


def _claim(check_id, target, gate, **kwargs) -> CheckResult:
    """A claim on one gate, valued by the gate."""
    return CheckResult(check_id, float(gate.value), target, (gate,), **kwargs)


def _merged(check_id, value, claims, **kwargs) -> CheckResult:
    """One check holding the targets and the gates of several claims."""
    return CheckResult(check_id, value, "; ".join(c.target for c in claims),
                       tuple(g for c in claims for g in c.gates), **kwargs)


# ---------------------------------------------------------------------------
# 01: spectral multiplier on the circle is exact on pure modes


def check_circle_multiplier() -> CheckResult:
    grid = CircleGrid(n_modes=2048)
    th = grid.nodes()
    worst = 0.0
    for k in range(1, 33):
        f = Field(grid, np.cos(k * th)[:, None])
        out = fracops.frac_laplacian_circle(f, 0.5)
        err = out.samples[:, 0] - k * np.cos(k * th)
        worst = max(worst, float(np.linalg.norm(err) / (k * np.sqrt(grid.n_points / 2.0))))
    return CheckResult(
        "01-circle-multiplier", worst, "<= 1e-12 (relative l2, k = 1..32, 4096 points)",
        (Gate("relative_l2", worst, hi=1e-12),))


# ---------------------------------------------------------------------------
# 02: half-plane Poisson kernel identities


def check_poisson_kernel() -> CheckResult:
    g0 = float(fracops.poisson_kernel_line(1.0, np.array([0.0]))[0][0])
    exact_gap = abs(g0 - 1.0 / np.pi)

    t, s = 0.7, 0.5
    grid = LineGrid(2000.0, 1 << 17)
    x = grid.nodes()
    gt = fracops.poisson_kernel_line(t, x)[0]
    f = Field(grid, gt[:, None], tail=TailModel.even(2.0, t / np.pi))
    mass_gap = abs(line_integral(f) - 1.0)

    gs = fracops.poisson_kernel_line(s, x)[0]
    conv = fracops.line_convolve(Field(grid, gt[:, None]), Field(grid, gs[:, None]))
    semi = float(np.max(np.abs(conv.samples[:, 0] - fracops.poisson_kernel_line(t + s, x)[0])))

    gates = (Gate("point_value_gap", exact_gap, hi=0.0), Gate("mass_gap", mass_gap, hi=1e-9),
             Gate("semigroup_max", semi, hi=1e-6))
    return CheckResult(
        "02-poisson-kernel-line", max(mass_gap, semi),
        "G(1,0) exact; mass within 1e-9; semigroup within 1e-6", gates,
        details={g.name: g.value for g in gates})


# ---------------------------------------------------------------------------
# 03: closed form of the half Laplacian of the Lorentzian, both routes


def check_line_closed_form() -> CheckResult:
    grid = LineGrid(1000.0, 1 << 16)
    x = grid.nodes()
    f = Field(grid, (1.0 / (1.0 + x * x))[:, None], tail=TailModel.even(2.0, 1.0))
    exact = (1.0 - x * x) / (1.0 + x * x) ** 2
    window = np.abs(x) <= 10.0

    spectral = fracops.frac_laplacian_line_spectral(f, 0.5)
    e_spec = float(np.max(np.abs(spectral.samples[:, 0] - exact)[window]))
    quadrature = fracops.frac_laplacian_line_quadrature(f, 0.5, convention="normalized")
    e_quad = float(np.max(np.abs(quadrature.samples[:, 0] - exact)[window]))

    # the spectral margin is thin (periodization dominated, deterministic)
    gates = (Gate("spectral_max", e_spec, hi=1e-6), Gate("quadrature_max", e_quad, hi=1e-3))
    return CheckResult(
        "03-line-closed-form", max(e_spec, e_quad),
        "spectral <= 1e-6, quadrature <= 1e-3 on |x| <= 10", gates,
        details={g.name: g.value for g in gates},
        health={"tail_quad_abserr": fracops.tail_quad_abserr(f, 0.5)})


# ---------------------------------------------------------------------------
# 04: inverse quarter Laplacian of the two moment densities


@lru_cache(maxsize=1)
def _inverse_quarter_pair():
    # 04a and 04b share the pair; the masks copy, so no 2^21 array is cached
    grid = LineGrid(2000.0, 1 << 21)
    x = grid.nodes()
    f_even = Field(grid, ((x * x - 1.0) / (1.0 + x * x) ** 2)[:, None],
                   tail=TailModel.even(2.0, 1.0))
    f_odd = Field(grid, (2.0 * x / (1.0 + x * x) ** 2)[:, None],
                  tail=TailModel.odd(3.0, 2.0))
    out_even = fracops.inverse_quarter_laplacian(f_even).samples[:, 0]
    out_odd = fracops.inverse_quarter_laplacian(f_odd).samples[:, 0]
    window = np.abs(x) <= 10.0
    k_even = pohozaev.m_kernel_plus(x[window])
    k_odd = pohozaev.m_kernel_minus(x[window])
    pair = (out_even[window], out_odd[window], k_even, k_odd)
    for a in pair:
        a.flags.writeable = False
    return pair


def check_inverse_quarter_kernels() -> CheckResult:
    out_even, out_odd, k_even, k_odd = _inverse_quarter_pair()
    gap = max(float(np.max(np.abs(out_even - k_even))),
              float(np.max(np.abs(out_odd - k_odd))))
    return CheckResult(
        "04a-inverse-quarter-kernels", gap,
        "<= 1e-3 against the coded reference kernels on |x| <= 10",
        (Gate("kernel_gap", gap, hi=1e-3),), expect_pass=False,
        note="the reference kernels are -2 times the actual transforms; "
             "04b pins the ratio")


def check_inverse_quarter_ratio() -> CheckResult:
    out_even, out_odd, k_even, k_odd = _inverse_quarter_pair()
    gap = max(float(np.max(np.abs(out_even + 0.5 * k_even))),
              float(np.max(np.abs(out_odd + 0.5 * k_odd))))
    return CheckResult(
        "04b-inverse-quarter-ratio", gap,
        "transforms equal -1/2 of the reference kernels, <= 1e-3",
        (Gate("ratio_gap", gap, hi=1e-3),))


# ---------------------------------------------------------------------------
# 05: weighted-moment identity on the line for the inverse projection


def pohozaev_line(check_id, t_values):
    """Line identity for the inverse stereographic projection against its
    closed form 4 pi^2/(t+1)^4: (t, lhs, rhs, closed form, claim)."""
    grid = LineGrid(400.0, 1 << 15)
    tail = TailModel(1.0, np.array([0.0, -1.0]), np.array([0.0, -1.0]),
                     np.array([2.0, 0.0]), np.array([-2.0, 0.0]))
    u = Field(grid, stereo.unproject(grid.nodes()), tail=tail)
    rep = pohozaev.residual_line(u, t_values)
    tv = np.asarray(rep.t_values)
    target = 4.0 * np.pi ** 2 / (tv + 1.0) ** 4
    lhs, rhs = np.asarray(rep.lhs), np.asarray(rep.rhs)
    rel = max(float(np.max(np.abs(lhs - target) / target)),
              float(np.max(np.abs(rhs - target) / target)))
    return tv, lhs, rhs, target, _claim(
        check_id, "both sides match 4 pi^2/(t+1)^4 within 1e-3, t in {%s}"
        % ",".join("%g" % t for t in tv),
        Gate("relative_error", rel, hi=1e-3), details={"t_values": list(tv)})


def check_pohozaev_line() -> CheckResult:
    return pohozaev_line("05-pohozaev-line", POHOZAEV_LINE_T)[-1]


# ---------------------------------------------------------------------------
# 06: first-mode moment identity on the circle, Moebius stable


def moment_claim(check_id, residuals, scope="", **kwargs) -> CheckResult:
    """Moment norm gaps and dot products of circle residual reports, and what `scope` adds."""
    return _claim(check_id, "moment norm gap and dot product <= 1e-10" + scope,
                  Gate("moment_residual", float(np.max(residuals)), hi=1e-10), **kwargs)


def check_pohozaev_circle() -> CheckResult:
    ident = halfharmonic.identity_map(CircleGrid(n_modes=POHOZAEV_CIRCLE_MODES))

    rep = pohozaev.residual_circle(ident)
    moment_gap = max(float(np.max(np.abs(rep.u_plus - np.array([0.5, 0.0])))),
                     float(np.max(np.abs(rep.u_minus - np.array([0.0, 0.5])))))
    residuals = [moment_gap, rep.moment_gap, rep.moment_dot]
    for a in (0.3, 0.6, 0.9):
        rep = pohozaev.residual_circle(halfharmonic.mobius_compose(ident, a))
        residuals += [rep.moment_gap, rep.moment_dot]
    return moment_claim("06-pohozaev-circle", residuals,
                        ", also composed; identity moments (1/2,0),(0,1/2)",
                        details={"identity_moment_gap": moment_gap})


# ---------------------------------------------------------------------------
# 07: Gaussian-weighted radial/angular identity on the plane


PLANE_PRESETS = {
    "identity-map": lambda X, Y: np.stack([X, Y], axis=-1),
    "z2": lambda X, Y: np.stack([X * X - Y * Y, 2.0 * X * Y], axis=-1),
}


def pohozaev_plane(check_id, presets, t_values):
    """Plane identity for preset maps on 512^2 nodes: (reports, claim with one
    relative-residual gate per preset)."""
    reports, gates = [], []
    for preset in presets:
        u = pohozaev.plane_field_from_function(8.0, 512, PLANE_PRESETS[preset])
        reports.append(pohozaev.residual_plane(u, (0.0, 0.0), t_values))
        gates.append(Gate(preset, float(np.max(reports[-1].relative_residual())), hi=1e-4))
    return reports, CheckResult(check_id, max(g.value for g in gates),
                                "relative residual <= 1e-4 for %s, 512^2" % ", ".join(presets),
                                tuple(gates))


def check_pohozaev_plane() -> CheckResult:
    return pohozaev_plane("07-pohozaev-plane", tuple(PLANE_PRESETS), POHOZAEV_PLANE_T)[1]


# ---------------------------------------------------------------------------
# 08: stereographic transfer of the half Laplacian, both routes


def stereo_closed_form(check_id, arc_halfwidth):
    """Both routes for 1/(1+x^2) against sin(theta)/2 outside the south-pole
    arc: (kept angles, circle route, line route, target, claim)."""
    grid = LineGrid(10000.0, 1 << 20)
    x = grid.nodes()
    u = Field(grid, (1.0 / (1.0 + x * x))[:, None], tail=TailModel.even(2.0, 1.0))
    th, lhs, rhs = stereo.transfer_routes(u, arc_halfwidth, CircleGrid(n_modes=2048))
    lhs, rhs = lhs[:, 0], rhs[:, 0]
    target = np.sin(th) / 2.0
    worst = max(float(np.max(np.abs(lhs - target))),
                float(np.max(np.abs(rhs - target))))
    return th, lhs, rhs, target, _claim(
        check_id, "both routes equal sin(t)/2 within 1e-6 outside the arc",
        Gate("closed_form_max", worst, hi=1e-6))


def stereo_random(check_id, seed, arc_halfwidth):
    """Two-route transfer of a seeded sum of five shifted Lorentzians: (report, claim)."""
    grid = LineGrid(10000.0, 1 << 20)
    x = grid.nodes()
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=5)
    centers = rng.uniform(-3.0, 3.0, size=5)
    vals = sum(c / (1.0 + (x - a) ** 2) for c, a in zip(coef, centers))
    u = Field(grid, vals[:, None], tail=TailModel.even(2.0, float(np.sum(coef))))
    rep = stereo.transfer_identity_check(u, arc_halfwidth=arc_halfwidth,
                                         circle_grid=CircleGrid(n_modes=2048))
    return rep, _claim(check_id, "two-route agreement <= 1e-3 outside the arc",
                       Gate("random_two_route_max", float(rep["max_abs_residual"]), hi=1e-3))


def check_stereo_transfer() -> CheckResult:
    cid = "08-stereo-transfer"
    parts = (stereo_closed_form(cid, STEREO_ARC)[-1], stereo_random(cid, 11, STEREO_ARC)[1])
    return _merged(cid, max(c.value for c in parts), parts,
                   details={c.gates[0].name: c.value for c in parts})


# ---------------------------------------------------------------------------
# 09: compensated commutators degenerate on constants, match the oracle


def check_commutators() -> CheckResult:
    grid = CircleGrid(n_modes=512)
    th = grid.nodes()
    v = Field(grid, (np.sin(5 * th) + 0.2 * np.cos(2 * th))[:, None])
    const = Field(grid, np.full((grid.n_points, 1), 0.7))
    t_const = float(np.max(np.abs(commutators.op_T(const, v).samples)))
    lam_const = float(np.max(np.abs(commutators.op_Lambda(const, v).samples)))

    q = Field(grid, (np.cos(3 * th) - 0.4 * np.sin(7 * th))[:, None])
    oracle_gap = 0.0
    for which, op in (("T", commutators.op_T), ("S", commutators.op_S),
                      ("F", commutators.op_F), ("Lambda", commutators.op_Lambda)):
        got = op(q, v)
        ref = commutators.convolution_reference(which, q, v)
        oracle_gap = max(oracle_gap, float(np.max(np.abs(got.samples - ref.samples))))

    gates = (Gate("constants", max(t_const, lam_const), hi=1e-12),
             Gate("oracle_gap", oracle_gap, hi=1e-10))
    return CheckResult(
        "09-commutator-compensation", max(t_const, lam_const, oracle_gap),
        "degeneracy on constants <= 1e-12; oracle agreement <= 1e-10", gates,
        details={"t_const": t_const, "lambda_const": lam_const,
                 "oracle_gap": oracle_gap})


# ---------------------------------------------------------------------------
# 10: constrained gradient flow from a perturbed identity map


def flow_experiment(u0, tol, max_iter, fd_check):
    """Flow into the unit circle from u0: (states, the flow subcommand's claims
    that the energy never increases, the residual ends within tol, the energy
    ends at 2 pi and, if fd_check, the gradient at u0 matches finite differences)."""
    dist = halfharmonic.sphere_distribution(2)
    claims = []
    if fd_check:
        analytic, fd = halfharmonic.gradient_check(u0, dist)
        rel = abs(analytic - fd) / abs(analytic)
        claims.append(_claim("flow-gradient-fd", "analytic derivative matches finite "
                             "differences within 1e-5 relative", Gate("gradient_rel", rel, hi=1e-5)))
    states = halfharmonic.gradient_flow(u0, dist, tol=tol, max_iter=max_iter)
    energies = np.array([s.energy for s in states])
    return states, [
        _claim("flow-monotone", "energy nonincreasing across recorded states",
               Gate("violations", int(np.sum(np.diff(energies) > 0.0)), hi=0)),
        _claim("flow-converged", "final residual <= tol = %g" % tol,
               Gate("el_residual", states[-1].el_residual_norm, hi=tol)),
        _claim("flow-energy-target", "final energy within 1e-4 of 2 pi",
               Gate("energy_gap", abs(states[-1].energy - 2.0 * np.pi), hi=1e-4))] + claims


def check_flow_convergence() -> CheckResult:
    u0 = halfharmonic.perturbed_identity(CircleGrid(n_modes=FLOW["n_modes"]), FLOW["perturbation"], 7)
    states, claims = flow_experiment(u0, FLOW["tol"], FLOW["max_iter"], True)
    details = {c.gates[0].name: c.value for c in claims}
    return _merged("10-flow-convergence", max(details["energy_gap"], details["el_residual"]),
                   claims, details=dict(details, iterations=float(states[-1].iteration)))


# ---------------------------------------------------------------------------
# 11: Moebius composition preserves energy and criticality


def check_mobius_invariance() -> CheckResult:
    ident = halfharmonic.identity_map(CircleGrid(n_modes=128))
    dist = halfharmonic.sphere_distribution(2)
    e0 = halfharmonic.energy(ident)

    worst_de = 0.0
    for a in (0.3, 0.6, 0.9):
        comp = halfharmonic.mobius_compose(ident, a)
        worst_de = max(worst_de, abs(halfharmonic.energy(comp) - e0) / e0)
    # comp is the a = 0.9 composition
    el = float(np.max(np.linalg.norm(halfharmonic.el_residual(comp, dist).samples, axis=1)))

    gates = (Gate("energy_rel_change", worst_de, hi=1e-6),
             Gate("composed_el_residual", el, hi=1e-6))
    return CheckResult(
        "11-mobius-invariance", max(worst_de, el),
        "|dE|/E <= 1e-6 for a in {0.3,0.6,0.9}; composed residual <= 1e-6", gates,
        details={g.name: g.value for g in gates})


# ---------------------------------------------------------------------------
# 12: neck diagnostics for the concentrating Moebius family


# 12a and 12b share one run
@lru_cache(maxsize=1)
def bubbling_reports(n_modes, k_max, lam, big_r):
    """Neck reports of the identity composed with phi_a, a = 1 - 10^-k, k <= k_max."""
    u = halfharmonic.identity_map(CircleGrid(n_modes=n_modes))
    return tuple(halfharmonic.bubbling_experiment(u, 1.0 - 10.0 ** -k, lam=lam, big_r=big_r)
                 for k in range(1, k_max + 1))


def monotone_claim(check_id, sups) -> CheckResult:
    return CheckResult(
        check_id, float(sups[-1]),
        "dyadic-annulus sup strictly decreasing over a = 1 - 10^-k, k = 1..%d" % len(sups),
        (Gate("min_decrease", float(np.min(-np.diff(np.array(sups)))), lo=0.0, strict=True),),
        details={"sup_k%d" % k: float(s) for k, s in enumerate(sups, 1)})


def exponent_claim(check_id, exponents) -> CheckResult:
    """Fitted exponents for k = 1, 2, ..., None where no annulus is small."""
    fitted = {"exponent_k%d" % k: float(e) for k, e in enumerate(exponents, 1) if e is not None}
    exps = np.array(list(fitted.values()))
    return CheckResult(
        check_id, float(exps[-1]),
        "fitted neck exponent within 0.5 +- 0.15 where the smallness gate holds",
        (Gate("exponent_gap", float(np.max(np.abs(exps - 0.5))), hi=0.15),), expect_pass=False,
        note="the gate-passing annuli are the far field of a single bubble, "
             "whose magnitude decays with exponent 3/2; measured fits land "
             "there (1.42..1.50)",
        details=fitted)


def check_bubbling_monotone() -> CheckResult:
    return monotone_claim("12a-bubbling-monotone",
                          [r.dyadic_sup for r in bubbling_reports(**BUBBLE)])


def check_bubbling_exponent() -> CheckResult:
    return exponent_claim("12b-bubbling-exponent",
                          [r.fit_exponent for r in bubbling_reports(**BUBBLE)])


# ---------------------------------------------------------------------------
# 13: scaling family with persistent window energy and vanishing neck


def decay_u_claim(check_id, slope) -> CheckResult:
    return CheckResult(
        check_id, slope, "log-log slope of the u potential on [10, 1e3] within -1.5 +- 0.05",
        (Gate("slope_gap", abs(slope + 1.5), hi=0.05),))


def decay_v_claim(check_id, slope) -> CheckResult:
    return CheckResult(
        check_id, slope, "log-log slope of the v potential on [10, 1e3] within -1.25 +- 0.05",
        (Gate("slope_gap", abs(slope + 1.25), hi=0.05),), expect_pass=False,
        note="the v potential changes sign near t = 10 and approaches its "
             "t^(-5/4) asymptote only like t^(-1/4); on this window the fit "
             "gives about -0.70. 13c pins the asymptotic constant instead")


def window_claim(check_id, window_norms) -> CheckResult:
    return CheckResult(
        check_id, float(np.max(window_norms)), "window norms in [1, 1.3]",
        (Gate("window_min", float(np.min(window_norms)), lo=1.0),
         Gate("window_max", float(np.max(window_norms)), hi=1.3)))


def neck_slope(radii, neck_norms) -> float:
    """Log-log slope of the neck norms against the cutoffs R."""
    return float(np.polyfit(np.log(radii), np.log(neck_norms), 1)[0])


def neck_slope_claim(check_id, slope) -> CheckResult:
    return CheckResult(check_id, slope, "neck slope -0.25 +- 0.1",
                       (Gate("neck_slope_gap", abs(slope + 0.25), hi=0.1),))


def check_counterexample_decay_u() -> CheckResult:
    return decay_u_claim("13a-counterexample-decay-u", counterexample.decay_slopes()[0])


def check_counterexample_decay_v() -> CheckResult:
    return decay_v_claim("13b-counterexample-decay-v", counterexample.decay_slopes()[1])


def check_counterexample_decay_v_limit() -> CheckResult:
    t = 1.0e5
    scaled = float(t ** 1.25 * counterexample.quarter_laplacian_v(t))
    limit = counterexample.ENVELOPE_DECAY_LIMIT
    rel = abs(scaled - limit) / abs(limit)
    return CheckResult(
        "13c-counterexample-decay-v-limit", scaled,
        "t^(5/4) q_v at t = 1e5 within 15%% of the limit %.6f" % limit,
        (Gate("relative_gap", rel, hi=0.15),),
        details={"limit": limit, "relative_gap": rel})


def check_counterexample_window() -> CheckResult:
    n_values, radii = COUNTEREXAMPLE["n"], np.array(COUNTEREXAMPLE["R"])
    window = [counterexample.neck_report(n, radii[0]).u_n_window_l2 for n in n_values]
    details = {"window_l2_n1e%d" % round(np.log10(n)): w for n, w in zip(n_values, window)}

    neck = np.array([counterexample.neck_report(max(n_values), R).neck_l2_omega
                     for R in radii])
    slope = neck_slope(radii, neck)
    details["neck_slope"] = slope

    # change of variables: the same annulus integral in the two frames,
    # with independently built quadratures
    n, big_r = max(n_values), COUNTEREXAMPLE["R"][0]
    s_nodes, s_w = counterexample.annulus_nodes(n, big_r)
    om = counterexample.potential_omega(s_nodes)
    route_s = 2.0 * float(np.sum(om * om * s_w))
    lo, hi = big_r / n, 1.0 / big_r
    edges = np.geomspace(lo, hi, max(4, int(np.ceil(np.log(hi / lo) / 0.3))) + 1)
    gl_x, gl_w = gauss_legendre(16)
    route_x = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (np.log(a) + np.log(b)), 0.5 * (np.log(b) - np.log(a))
        xs = np.exp(mid + half * gl_x)
        big = np.sqrt(n) * counterexample.potential_omega(n * xs)
        route_x += 2.0 * float(np.sum(big * big * half * gl_w * xs))
    cov = abs(route_s - route_x) / route_s
    details["change_of_variables_rel"] = cov

    big_u, big_omega, _, _ = counterexample.scaled_sequence(100)
    refl = big_u.grid.reflected_indices()
    evenness = float(np.max(np.abs(big_u.samples - big_u.samples[refl])))
    antisym = float(np.max(np.abs(big_omega.samples[:, 1] + big_omega.samples[:, 2])))
    details["evenness"] = evenness
    details["antisymmetry"] = antisym

    cid = "13d-counterexample-window"
    own = CheckResult(cid, cov, "scaling identity <= 1e-10; antisymmetry exact; evenness <= 1e-12",
                      (Gate("change_of_variables_rel", cov, hi=1e-10),
                       Gate("antisymmetry", antisym, hi=0.0), Gate("evenness", evenness, hi=1e-12)))
    return _merged(cid, max(window), (window_claim(cid, window), neck_slope_claim(cid, slope), own),
                   details=details)


# ---------------------------------------------------------------------------
# 14: Lorentz norms


@lru_cache(maxsize=1)
def inverse_sqrt_annuli(inner, outers):
    """Norms of |x|^(-1/2) on inner < |x| < R for R in the tuple outers (R at
    most the grid half-width): rows (inner, R, L2, L(2,1), L(2,inf),
    sqrt(2 log(R/inner))). The norms subcommand and check 14 share the
    table at the defaults, so it is built once and kept as tuples."""
    grid = LineGrid(ANNULI["half_width"], 1 << 17)
    f = Field(grid, (np.abs(grid.nodes()) ** -0.5)[:, None])
    rows = []
    for big_r in outers:
        region = norms.Region.annulus(grid, 0.0, inner, big_r)
        rows.append((inner, big_r, norms.lp_norm(f, 2.0, region),
                     norms.lorentz_21(f, region), norms.lorentz_2inf(f, region),
                     float(np.sqrt(2.0 * np.log(big_r / inner)))))
    return tuple(rows)


def check_lorentz_norms() -> CheckResult:
    grid = INDICATOR_GRID
    x = grid.nodes()
    gaps = []
    for ell in (1.0, 3.0):
        f = Field(grid, (np.abs(x) < ell / 2.0).astype(float)[:, None])
        gaps += [abs(norm(f) - np.sqrt(ell)) for norm in (norms.lorentz_21, norms.lorentz_2inf)]

    rows = inverse_sqrt_annuli(ANNULI["inner"], ANNULI["outer"])
    strong, weak, predicted = (np.array([r[j] for r in rows]) for j in (2, 4, 5))
    dev = float(np.max(np.abs(weak - weak.mean()) / weak.mean()))
    growth = float(np.max(np.abs(strong - predicted) / predicted))
    gates = (Gate("indicator_gap", float(np.max(gaps)), hi=np.sqrt(grid.h)),
             Gate("weak_deviation_from_mean", dev, hi=0.05),
             Gate("l2_growth_rel", growth, hi=0.05))
    return CheckResult(
        "14-lorentz-norms", max(dev, growth),
        "indicator norms = sqrt(l) +- sqrt(h); weak norm stable and L2 "
        "growing as sqrt(2 log(R/r)), both within 5%", gates,
        details={g.name: g.value for g in gates})


# ---------------------------------------------------------------------------
# 15: moment-kernel averaging operators

# independent 1-d quadrature of 2 sqrt(pi) int K+(x) (1 + x^2/2)^(-1/2) dx,
# the exact pairing of exp(-t^2) with M+ exp(-t^2/2)
_ADJOINT_PAIR_TRUTH = 3.5043643500


def check_moment_operators() -> CheckResult:
    grid = LineGrid(60.0, 1 << 12)
    x = grid.nodes()
    w1 = Field(grid, np.exp(-x * x)[:, None], tail=TailModel.even(4.0, 0.0))
    w2 = Field(grid, np.exp(-0.5 * x * x)[:, None], tail=TailModel.even(4.0, 0.0))

    t_grid = LineGrid(8.0, 64)
    refl = t_grid.reflected_indices()
    even_out = pohozaev.m_plus(w1, t_grid)
    odd_out = pohozaev.m_minus(w1, t_grid)
    parity = max(float(np.max(np.abs(even_out.samples - even_out.samples[refl]))),
                 float(np.max(np.abs(odd_out.samples + odd_out.samples[refl]))))

    route1, route2 = pohozaev.m_adjoint_check(w1, w2)
    adjoint_gap = abs(route1 - route2)
    truth_gap = abs(route1 - _ADJOINT_PAIR_TRUTH)

    matrix = pohozaev.m_plus_even_matrix()
    sigma_min = matrix["sigma_min"]

    gates = (Gate("parity", parity, hi=1e-12), Gate("adjoint_gap", adjoint_gap, hi=1e-3),
             Gate("sigma_min", sigma_min, lo=0.0, strict=True))
    return CheckResult(
        "15-moment-operators", max(parity, adjoint_gap),
        "parity <= 1e-12; adjoint pairing gap <= 1e-3; sigma_min > 0 "
        "(condition number reported, no threshold)", gates,
        details={"parity": parity, "adjoint_gap": adjoint_gap,
                 "pair_truth_gap": truth_gap, "sigma_min": sigma_min,
                 "cond": matrix["cond"]})


# ---------------------------------------------------------------------------

CHECKS: List[Tuple[str, Callable[[], CheckResult]]] = [
    ("01-circle-multiplier", check_circle_multiplier),
    ("02-poisson-kernel-line", check_poisson_kernel),
    ("03-line-closed-form", check_line_closed_form),
    ("04a-inverse-quarter-kernels", check_inverse_quarter_kernels),
    ("04b-inverse-quarter-ratio", check_inverse_quarter_ratio),
    ("05-pohozaev-line", check_pohozaev_line),
    ("06-pohozaev-circle", check_pohozaev_circle),
    ("07-pohozaev-plane", check_pohozaev_plane),
    ("08-stereo-transfer", check_stereo_transfer),
    ("09-commutator-compensation", check_commutators),
    ("10-flow-convergence", check_flow_convergence),
    ("11-mobius-invariance", check_mobius_invariance),
    ("12a-bubbling-monotone", check_bubbling_monotone),
    ("12b-bubbling-exponent", check_bubbling_exponent),
    ("13a-counterexample-decay-u", check_counterexample_decay_u),
    ("13b-counterexample-decay-v", check_counterexample_decay_v),
    ("13c-counterexample-decay-v-limit", check_counterexample_decay_v_limit),
    ("13d-counterexample-window", check_counterexample_window),
    ("14-lorentz-norms", check_lorentz_norms),
    ("15-moment-operators", check_moment_operators),
]


def run_all(only: Optional[Sequence[str]] = None,
            seconds: Optional[Dict[str, float]] = None) -> List[CheckResult]:
    """Run the checklist in order; `only` filters by check id prefix, and
    `seconds`, when given, receives each check's wall time by check id."""
    results = []
    for check_id, fn in CHECKS:
        if only and not any(check_id.startswith(p) for p in only):
            continue
        started = time.perf_counter()
        results.append(fn())
        if seconds is not None:
            seconds[check_id] = time.perf_counter() - started
    return results
