"""Release checklist: the numbered checks behind `fraclap selftest`.

Each check_* function exercises one advertised guarantee end to end, on a
pinned fixture, and returns a CheckResult. Three checks carry
expect_pass=False: they assert reference values that the implementation
demonstrably does not produce (each has a companion check pinning what the
code actually computes, so a silent change in either direction is caught).
The test suite mirrors those as strict expected failures.

Fixtures are chosen so every bound passes with a measured margin; the
margins are recorded in the notes where they are thin.
"""

from concurrent.futures import ThreadPoolExecutor
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

__all__ = ["CheckResult", "CHECKS", "run_all", "format_line"]

# The experiments and gates below are shared with the CLI runners. They call
# library functions through the module attribute, so a patched one sees them.
# The runners also share these bounds of checks 05-08 and 10.
POHOZAEV_LINE_TOL = 1e-3
POHOZAEV_CIRCLE_TOL = 1e-10
POHOZAEV_PLANE_TOL = 1e-4
STEREO_CLOSED_FORM_TOL = 1e-6
STEREO_TWO_ROUTE_TOL = 1e-3
FLOW_ENERGY_TOL = 1e-4
FLOW_GRADIENT_TOL = 1e-5


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    value: float
    target: str
    expect_pass: bool = True
    note: str = ""
    details: Dict[str, float] = field(default_factory=dict)

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
        "01-circle-multiplier", worst <= 1e-12, worst,
        "<= 1e-12 (relative l2, k = 1..32, 4096 points)")


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

    passed = exact_gap == 0.0 and mass_gap <= 1e-9 and semi <= 1e-6
    return CheckResult(
        "02-poisson-kernel-line", passed, max(mass_gap, semi),
        "G(1,0) exact; mass within 1e-9; semigroup within 1e-6",
        details={"point_value_gap": exact_gap, "mass_gap": mass_gap,
                 "semigroup_max": semi})


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
    passed = e_spec <= 1e-6 and e_quad <= 1e-3
    return CheckResult(
        "03-line-closed-form", passed, max(e_spec, e_quad),
        "spectral <= 1e-6, quadrature <= 1e-3 on |x| <= 10",
        details={"spectral_max": e_spec, "quadrature_max": e_quad})


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
        "04a-inverse-quarter-kernels", gap <= 1e-3, gap,
        "<= 1e-3 against the coded reference kernels on |x| <= 10",
        expect_pass=False,
        note="the reference kernels are -2 times the actual transforms; "
             "04b pins the ratio")


def check_inverse_quarter_ratio() -> CheckResult:
    out_even, out_odd, k_even, k_odd = _inverse_quarter_pair()
    gap = max(float(np.max(np.abs(out_even + 0.5 * k_even))),
              float(np.max(np.abs(out_odd + 0.5 * k_odd))))
    return CheckResult(
        "04b-inverse-quarter-ratio", gap <= 1e-3, gap,
        "transforms equal -1/2 of the reference kernels, <= 1e-3")


# ---------------------------------------------------------------------------
# 05: weighted-moment identity on the line for the inverse projection


def pohozaev_line(t_values):
    """Line identity for the inverse stereographic projection against its
    closed form 4 pi^2/(t+1)^4: (t, lhs, rhs, closed form, max relative error)."""
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
    return tv, lhs, rhs, target, rel


def check_pohozaev_line() -> CheckResult:
    tv, _, _, _, rel = pohozaev_line((0.5, 1.0, 2.0, 5.0))
    return CheckResult(
        "05-pohozaev-line", rel <= POHOZAEV_LINE_TOL, rel,
        "both sides match 4 pi^2/(t+1)^4 within 1e-3, t in {0.5,1,2,5}",
        details={"t_values": list(tv)})


# ---------------------------------------------------------------------------
# 06: first-mode moment identity on the circle, Moebius stable


def moment_balance(rep):
    """Norm gap and dot product of the circle moments u+ and u-."""
    gap = abs(float(np.linalg.norm(rep.u_plus)) - float(np.linalg.norm(rep.u_minus)))
    dot = abs(float(np.dot(rep.u_plus, rep.u_minus)))
    return gap, dot


def check_pohozaev_circle() -> CheckResult:
    ident = halfharmonic.identity_map(CircleGrid(n_modes=512))

    rep = pohozaev.residual_circle(ident)
    moment_gap = max(float(np.max(np.abs(rep.u_plus - np.array([0.5, 0.0])))),
                     float(np.max(np.abs(rep.u_minus - np.array([0.0, 0.5])))))
    worst = moment_gap
    for u in [ident] + [halfharmonic.mobius_compose(ident, a) for a in (0.3, 0.6, 0.9)]:
        worst = max(worst, *moment_balance(pohozaev.residual_circle(u)))
    return CheckResult(
        "06-pohozaev-circle", worst <= POHOZAEV_CIRCLE_TOL, worst,
        "moments (1/2,0),(0,1/2); norm gap and dot <= 1e-10, also composed",
        details={"identity_moment_gap": moment_gap})


# ---------------------------------------------------------------------------
# 07: Gaussian-weighted radial/angular identity on the plane


PLANE_PRESETS = {
    "identity-map": lambda X, Y: np.stack([X, Y], axis=-1),
    "z2": lambda X, Y: np.stack([X * X - Y * Y, 2.0 * X * Y], axis=-1),
}


def pohozaev_plane(preset, t_values):
    """Plane identity for a preset map on 512^2 nodes: (report, max relative residual)."""
    u = pohozaev.plane_field_from_function(8.0, 512, PLANE_PRESETS[preset])
    rep = pohozaev.residual_plane(u, (0.0, 0.0), t_values)
    return rep, float(np.max(rep.relative_residual()))


def check_pohozaev_plane() -> CheckResult:
    worst = 0.0
    for preset in PLANE_PRESETS:
        worst = max(worst, pohozaev_plane(preset, (1.0,))[1])
    return CheckResult(
        "07-pohozaev-plane", worst <= POHOZAEV_PLANE_TOL, worst,
        "relative residual <= 1e-4 for identity and z^2 at t=1, 512^2")


# ---------------------------------------------------------------------------
# 08: stereographic transfer of the half Laplacian, both routes


def stereo_closed_form(arc_halfwidth):
    """Both routes for 1/(1+x^2) against sin(theta)/2 outside the south-pole
    arc: (kept angles, circle route, line route, target, max error)."""
    grid = LineGrid(10000.0, 1 << 20)
    x = grid.nodes()
    u = Field(grid, (1.0 / (1.0 + x * x))[:, None], tail=TailModel.even(2.0, 1.0))
    th, lhs, rhs = stereo.transfer_routes(u, arc_halfwidth, CircleGrid(n_modes=2048))
    lhs, rhs = lhs[:, 0], rhs[:, 0]
    target = np.sin(th) / 2.0
    worst = max(float(np.max(np.abs(lhs - target))),
                float(np.max(np.abs(rhs - target))))
    return th, lhs, rhs, target, worst


def stereo_random(seed, arc_halfwidth):
    """Two-route transfer check of a seeded sum of five shifted Lorentzians."""
    grid = LineGrid(10000.0, 1 << 20)
    x = grid.nodes()
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=5)
    centers = rng.uniform(-3.0, 3.0, size=5)
    vals = sum(c / (1.0 + (x - a) ** 2) for c, a in zip(coef, centers))
    u = Field(grid, vals[:, None], tail=TailModel.even(2.0, float(np.sum(coef))))
    return stereo.transfer_identity_check(u, arc_halfwidth=arc_halfwidth,
                                          circle_grid=CircleGrid(n_modes=2048))


def check_stereo_transfer() -> CheckResult:
    closed = stereo_closed_form(0.2)[-1]
    random_gap = float(stereo_random(11, 0.2)["max_abs_residual"])

    passed = closed <= STEREO_CLOSED_FORM_TOL and random_gap <= STEREO_TWO_ROUTE_TOL
    return CheckResult(
        "08-stereo-transfer", passed, max(closed, random_gap),
        "closed form vs sin(t)/2 <= 1e-6; random smooth two-route <= 1e-3",
        details={"closed_form_max": closed, "random_two_route_max": random_gap})


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

    passed = max(t_const, lam_const) <= 1e-12 and oracle_gap <= 1e-10
    return CheckResult(
        "09-commutator-compensation", passed, max(t_const, lam_const, oracle_gap),
        "degeneracy on constants <= 1e-12; oracle agreement <= 1e-10",
        details={"t_const": t_const, "lambda_const": lam_const,
                 "oracle_gap": oracle_gap})


# ---------------------------------------------------------------------------
# 10: constrained gradient flow from a perturbed identity map


def flow_experiment(u0, tol, max_iter, fd_check):
    """Flow into the unit circle from u0: (states, energy increases, final gap
    from 2 pi, finite-difference gradient error at u0 if fd_check else None)."""
    dist = halfharmonic.sphere_distribution(2)
    grad_rel = None
    if fd_check:
        analytic, fd = halfharmonic.gradient_check(u0, dist)
        grad_rel = abs(analytic - fd) / abs(analytic)
    states = halfharmonic.gradient_flow(u0, dist, tol=tol, max_iter=max_iter)
    energies = np.array([s.energy for s in states])
    violations = int(np.sum(np.diff(energies) > 0.0))
    energy_gap = abs(states[-1].energy - 2.0 * np.pi)
    return states, violations, energy_gap, grad_rel


def check_flow_convergence() -> CheckResult:
    u0 = halfharmonic.perturbed_identity(CircleGrid(n_modes=128), 0.05, 7)
    states, violations, energy_gap, grad_rel = flow_experiment(u0, 1e-6, 20000, True)
    last = states[-1]

    passed = (energy_gap <= FLOW_ENERGY_TOL and last.el_residual_norm <= 1e-6
              and violations == 0 and grad_rel <= FLOW_GRADIENT_TOL)
    return CheckResult(
        "10-flow-convergence", passed, max(energy_gap, last.el_residual_norm),
        "energy 2 pi +- 1e-4; residual <= 1e-6; monotone; gradient fd <= 1e-5",
        details={"energy_gap": energy_gap, "el_residual": last.el_residual_norm,
                 "iterations": float(last.iteration), "violations": float(violations),
                 "gradient_rel": grad_rel})


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
    comp9 = halfharmonic.mobius_compose(ident, 0.9)
    el = float(np.max(np.linalg.norm(halfharmonic.el_residual(comp9, dist).samples, axis=1)))

    passed = worst_de <= 1e-6 and el <= 1e-6
    return CheckResult(
        "11-mobius-invariance", passed, max(worst_de, el),
        "|dE|/E <= 1e-6 for a in {0.3,0.6,0.9}; composed residual <= 1e-6",
        details={"energy_rel_change": worst_de, "composed_el_residual": el})


# ---------------------------------------------------------------------------
# 12: neck diagnostics for the concentrating Moebius family


# 12a and 12b share one run
@lru_cache(maxsize=1)
def bubbling_reports(n_modes, k_max, lam, big_r, threads):
    """Neck reports of the identity composed with phi_a, a = 1 - 10^-k, k <= k_max."""
    u = halfharmonic.identity_map(CircleGrid(n_modes=n_modes))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return tuple(pool.map(
            lambda a: halfharmonic.bubbling_experiment(u, [a], lam=lam, big_r=big_r)[0],
            [1.0 - 10.0 ** -k for k in range(1, k_max + 1)]))


def strictly_decreasing(values) -> bool:
    return bool(np.all(np.diff(np.array(values)) < 0.0))


def neck_exponents_ok(exponents) -> bool:
    return all(abs(e - 0.5) <= 0.15 for e in exponents)


def check_bubbling_monotone() -> CheckResult:
    sups = [r.dyadic_sup for r in bubbling_reports(256, 4, 2.0, 2.0, 1)]
    return CheckResult(
        "12a-bubbling-monotone", strictly_decreasing(sups), float(sups[-1]),
        "dyadic-annulus sup strictly decreasing over a = 1 - 10^-k, k = 1..4",
        details={"sup_k%d" % (k + 1): float(s) for k, s in enumerate(sups)})


def check_bubbling_exponent() -> CheckResult:
    exps = [r.fit_exponent for r in bubbling_reports(256, 4, 2.0, 2.0, 1)]
    return CheckResult(
        "12b-bubbling-exponent", neck_exponents_ok(exps), float(exps[-1]),
        "fitted neck exponent within 0.5 +- 0.15 where the smallness gate holds",
        expect_pass=False,
        note="the gate-passing annuli are the far field of a single bubble, "
             "whose magnitude decays with exponent 3/2; measured fits land "
             "there (1.42..1.50)",
        details={"exponent_k%d" % (k + 1): float(e) for k, e in enumerate(exps)})


# ---------------------------------------------------------------------------
# 13: scaling family with persistent window energy and vanishing neck


def decay_u_ok(slope) -> bool:
    return abs(slope + 1.5) <= 0.05


def decay_v_ok(slope) -> bool:
    return abs(slope + 1.25) <= 0.05


def window_ok(window_norms) -> bool:
    return all(1.0 <= w <= 1.3 for w in window_norms)


def neck_slope(radii, neck_norms) -> float:
    """Log-log slope of the neck norms against the cutoffs R."""
    return float(np.polyfit(np.log(radii), np.log(neck_norms), 1)[0])


def neck_slope_ok(slope) -> bool:
    return abs(slope + 0.25) <= 0.1


def check_counterexample_decay_u() -> CheckResult:
    slope = counterexample.neck_report(100, 4.0).decay_slope_u
    return CheckResult(
        "13a-counterexample-decay-u", decay_u_ok(slope), slope,
        "log-log slope of the u potential on [10, 1e3] within -1.5 +- 0.05")


def check_counterexample_decay_v() -> CheckResult:
    slope = counterexample.neck_report(100, 4.0).decay_slope_v
    return CheckResult(
        "13b-counterexample-decay-v", decay_v_ok(slope), slope,
        "log-log slope of the v potential on [10, 1e3] within -1.25 +- 0.05",
        expect_pass=False,
        note="the v potential changes sign near t = 10 and approaches its "
             "t^(-5/4) asymptote only like t^(-1/4); on this window the fit "
             "gives about -0.70. 13c pins the asymptotic constant instead")


def check_counterexample_decay_v_limit() -> CheckResult:
    t = 1.0e5
    scaled = float(t ** 1.25 * counterexample.quarter_laplacian_v(t))
    limit = counterexample.ENVELOPE_DECAY_LIMIT
    rel = abs(scaled - limit) / abs(limit)
    return CheckResult(
        "13c-counterexample-decay-v-limit", rel <= 0.15, scaled,
        "t^(5/4) q_v at t = 1e5 within 15%% of the limit %.6f" % limit,
        details={"limit": limit, "relative_gap": rel})


def check_counterexample_window() -> CheckResult:
    details: Dict[str, float] = {}

    window = [counterexample.neck_report(n, 4.0).u_n_window_l2
              for n in (100, 10_000, 1_000_000)]
    for n, w in zip(("1e2", "1e4", "1e6"), window):
        details["window_l2_n%s" % n] = w

    radii = np.array([4.0, 16.0, 64.0, 256.0])
    neck = np.array([counterexample.neck_report(1_000_000, R).neck_l2_omega
                     for R in radii])
    slope = neck_slope(radii, neck)
    details["neck_slope"] = slope

    # change of variables: the same annulus integral in the two frames,
    # with independently built quadratures
    n, big_r = 1_000_000, 4.0
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

    passed = (window_ok(window) and neck_slope_ok(slope) and cov <= 1e-10
              and antisym == 0.0 and evenness <= 1e-12)
    return CheckResult(
        "13d-counterexample-window", passed, max(window),
        "window norms in [1, 1.3]; neck slope -0.25 +- 0.1; scaling identity "
        "<= 1e-10; antisymmetry exact; evenness <= 1e-12",
        details=details)


# ---------------------------------------------------------------------------
# 14: Lorentz norms


def inverse_sqrt_annuli(inner, outers):
    """Norms of |x|^(-1/2) on inner < |x| < R for R in outers (grid half-width
    2000): rows (inner, R, L2, L(2,1), L(2,inf), sqrt(2 log(R/inner)))."""
    grid = LineGrid(2000.0, 1 << 17)
    f = Field(grid, (np.abs(grid.nodes()) ** -0.5)[:, None])
    rows = []
    for big_r in outers:
        region = norms.Region.annulus(grid, 0.0, inner, big_r)
        rows.append((inner, big_r, norms.lp_norm(f, 2.0, region),
                     norms.lorentz_21(f, region), norms.lorentz_2inf(f, region),
                     float(np.sqrt(2.0 * np.log(big_r / inner)))))
    return rows


def check_lorentz_norms() -> CheckResult:
    details: Dict[str, float] = {}
    grid = LineGrid(10.0, 1 << 12)
    x = grid.nodes()
    tol = np.sqrt(grid.h)
    indicator_ok = True
    indicator_gap = 0.0
    for ell in (1.0, 3.0):
        f = Field(grid, (np.abs(x) < ell / 2.0).astype(float)[:, None])
        gap = max(abs(norms.lorentz_21(f) - np.sqrt(ell)),
                  abs(norms.lorentz_2inf(f) - np.sqrt(ell)))
        indicator_gap = max(indicator_gap, gap)
        indicator_ok = indicator_ok and gap <= tol
    details["indicator_gap"] = indicator_gap

    rows = inverse_sqrt_annuli(0.1, (1.0, 10.0, 100.0))
    strong, weak, predicted = (np.array([r[j] for r in rows]) for j in (2, 4, 5))
    dev = float(np.max(np.abs(weak - weak.mean()) / weak.mean()))
    growth = float(np.max(np.abs(strong - predicted) / predicted))
    details["weak_deviation_from_mean"] = dev
    details["l2_growth_rel"] = growth

    passed = indicator_ok and dev <= 0.05 and growth <= 0.05
    return CheckResult(
        "14-lorentz-norms", passed, max(dev, growth),
        "indicator norms = sqrt(l) +- sqrt(h); weak norm stable and L2 "
        "growing as sqrt(2 log(R/r)), both within 5%",
        details=details)


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

    passed = parity <= 1e-12 and adjoint_gap <= 1e-3 and sigma_min > 0.0
    return CheckResult(
        "15-moment-operators", passed, max(parity, adjoint_gap),
        "parity <= 1e-12; adjoint pairing gap <= 1e-3; sigma_min > 0 "
        "(condition number reported, no threshold)",
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


def run_all(only: Optional[Sequence[str]] = None) -> List[CheckResult]:
    """Run the checklist in order; `only` filters by check id prefix."""
    results = []
    for check_id, fn in CHECKS:
        if only and not any(check_id.startswith(p) for p in only):
            continue
        results.append(fn())
    return results
