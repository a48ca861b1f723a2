"""Fractional Dirichlet energy, its critical-point residuals, a projected
gradient flow into a constraining target, and the concentration ("neck")
experiment for Moebius-composed minimizers.

The canonical experiment domain is the circle; line-side diagnostics go
through the stereographic transfer.  Targets are described by their
tangent-plane projections (PlaneDistribution); the unit sphere instance
additionally carries a retraction (radial renormalization), which is what
makes the flow available.  For a general target only the residual
evaluators work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import CubicSpline

from . import norms
from .geometry import (CircleGrid, Field, gauss_legendre, panel_rule,
                       rfft_frequencies, rfft_multiply, rfft_resize)


@dataclass(frozen=True)
class PlaneDistribution:
    """Tangent-plane field z -> T_z of a target in R^m plus a Lipschitz bound.

    tangent(z, v) returns P_T(z) v, the projection of v onto the tangent
    plane at z, for arrays of shape (..., m) that broadcast against each
    other; it never forms the (..., m, m) matrices.  retraction (optional)
    maps ambient points back onto the target; without it gradient_flow
    refuses to run.  constraint_distance (optional) gives the pointwise
    distance to the target and backs the off-target input checks.
    """

    tangent: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_bound: float
    retraction: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraint_distance: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def projector(self, z):
        """Matrices P_T(z) of shape (..., m, m), from tangent applied to the
        identity columns."""
        z = np.asarray(z, dtype=float)
        # row j of the tangent result is P_T(z) e_j, column j of the matrix
        return np.swapaxes(self.tangent(z[..., None, :], np.eye(z.shape[-1])), -1, -2)


def _dot(a, b):
    """Row dot products over the last axis."""
    ab = a * b
    # a product with ones beats numpy's reductions over a short last axis
    return ab @ np.ones(ab.shape[-1])


def sphere_distribution(m: int = 2) -> PlaneDistribution:
    """Unit sphere in R^m: P_T(z) v = v - z (z.v) / |z|^2, retraction z / |z|."""

    def tangent(z, v):
        z = np.asarray(z, dtype=float)
        v = np.asarray(v, dtype=float)
        return v - z * (_dot(z, v) / _dot(z, z))[..., None]

    def retraction(z):
        z = np.asarray(z, dtype=float)
        return z / np.sqrt(_dot(z, z))[..., None]

    def constraint_distance(z):
        z = np.asarray(z, dtype=float)
        return np.abs(np.sqrt(_dot(z, z)) - 1.0)

    return PlaneDistribution(tangent, 2.0, retraction, constraint_distance)


def identity_map(grid: CircleGrid) -> Field:
    """The identity of the unit circle, theta -> (cos theta, sin theta)."""
    th = grid.nodes()
    return Field(grid, np.stack([np.cos(th), np.sin(th)], axis=1))


def perturbed_identity(grid: CircleGrid, amplitude: float, seed: int) -> Field:
    """The identity moved along its tangent by a seeded sum of modes 1..5 with
    peak `amplitude`, then renormalized onto the unit circle."""
    th = grid.nodes()
    rng = np.random.default_rng(seed)
    bump = sum(rng.normal() * np.cos(m * th + rng.uniform(0.0, 2.0 * np.pi))
               for m in range(1, 6))
    bump = amplitude * bump / np.max(np.abs(bump))
    tangent = np.stack([-np.sin(th), np.cos(th)], axis=1)
    raw = np.stack([np.cos(th), np.sin(th)], axis=1) + bump[:, None] * tangent
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    return Field(grid, raw)


@dataclass(frozen=True)
class FlowState:
    """One recorded flow state.  backtracks counts the step halvings of the
    whole run so far; stalled marks a final state whose step fell below
    1e-14 without an Armijo decrease."""

    u: Field
    energy: float
    el_residual_norm: float
    step: float
    iteration: int
    backtracks: int
    stalled: bool


@dataclass(frozen=True)
class NeckReport:
    """Annulus-by-annulus norms of the quarter-Laplacian magnitude around the
    concentration point, plus the power-law fit over the small-norm annuli."""

    a: float
    lam: float
    concentration_scale: float
    center: Optional[float]
    annuli: List[Tuple[float, float]]
    l2: List[float]
    l21: List[float]
    l2inf: List[float]
    dyadic_sup: Optional[float]
    neck_l2_total: Optional[float]
    neck_l2inf_total: Optional[float]
    fit_coefficient: Optional[float]
    fit_exponent: Optional[float]
    fit_residual: Optional[float]
    fit_annuli_used: int
    energy_total: float


# ---------------------------------------------------------------------------
# energy and residuals


def energy(u: Field) -> float:
    """Squared H^{1/2} seminorm, int |(-D)^{1/4} u|^2."""
    return norms.sobolev_half_seminorm(u) ** 2


def _check_on_target(u, dist, tol=1e-6):
    if dist.constraint_distance is None:
        return
    worst = float(np.max(dist.constraint_distance(u.samples)))
    if worst > tol:
        raise ValueError(
            "field is off the target by %.3e (tolerance %.0e)" % (worst, tol))


def _half_laplacian_samples(u):
    return rfft_multiply(u, rfft_frequencies(u.grid))


def el_residual(u: Field, dist: PlaneDistribution) -> Field:
    """Tangential part of the half Laplacian, pointwise.

    Vanishes at energy-critical points under the target constraint; its max
    node norm is the headline residual used by the flow and the experiments.
    """
    _check_on_target(u, dist)
    return u.with_samples(dist.tangent(u.samples, _half_laplacian_samples(u)))


def horizontality_residual(u: Field, dist: PlaneDistribution) -> Field:
    """Normal part of the spectral derivative, P_N(u) u'."""
    _check_on_target(u, dist)
    du = rfft_multiply(u, 1j * rfft_frequencies(u.grid))
    normal = du - dist.tangent(u.samples, du)
    return u.with_samples(normal)


def _max_node_norm(samples):
    return float(np.sqrt(np.max(_dot(samples, samples))))


# ---------------------------------------------------------------------------
# projected gradient flow


def gradient_flow(u0: Field, dist: PlaneDistribution, tol: float = 1e-6,
                  max_iter: int = 20000, step0: float = 0.5,
                  step_grow: float = 1.15, step_max: float = 4.0,
                  armijo: float = 1e-4) -> List[FlowState]:
    """Projected descent on the energy in its own H^{1/2} metric, with
    Armijo backtracking.

    With g = P_T(u) (-D)^{1/2} u the tangential gradient, the direction is
    the preconditioned d = P_T(u) (1 + |D|)^{-1} g, a Sobolev gradient.
    The multiplier undoes the order-|k| growth of g, so the accepted step
    no longer shrinks with the grid, and the iteration count to tol does
    not grow with it.  Iterates u <- retract(u - tau d), halving tau on a failed
    decrease and growing it gently after accepted steps.  The Armijo test
    asks E(cand) - E(u) <= -2 armijo tau h <g, d>, which is a decrease
    because g is tangent and P_T an orthogonal projection; the difference
    is the bilinear form of cand - u with cand + u, transformed as such, so
    it neither cancels the two energies against each other nor keeps the
    round-off of their transforms.  Residuals below about 1e-8 to 1e-9 are
    out of reach: there the step runs out (stalled is set).

    Returns the start and every accepted state, each with the iteration
    that produced it; a stalled run ends with one more entry at the
    unchanged map.  Non-convergence shows up as el_residual_norm > tol in
    the last entry rather than as an exception.

    Each candidate costs three rffts (its energy, cand - u and cand + u);
    an accepted candidate (and the start) adds the gradient's irfft and the
    preconditioner's rfft/irfft pair.
    """
    if dist.retraction is None:
        raise ValueError("gradient_flow needs a retraction; this target "
                         "only supports residual evaluation")
    _check_on_target(u0, dist)
    u = u0.with_samples(dist.retraction(u0.samples))
    h = u.grid.h
    precondition = 1.0 / (1.0 + rfft_frequencies(u.grid))

    def directions(fld):
        g = dist.tangent(fld.samples, _half_laplacian_samples(fld))
        d = dist.tangent(fld.samples,
                         rfft_multiply(fld.with_samples(g), precondition))
        return g, d

    e = energy(u)
    g, d = directions(u)
    res = _max_node_norm(g)
    tau = step0
    backtracks = 0
    stalled = False
    states = [FlowState(u, e, res, tau, 0, backtracks, stalled)]

    it = 0
    while res > tol and it < max_iter:
        it += 1
        slope = h * float(np.sum(g * d))
        while True:
            cand = u.with_samples(dist.retraction(u.samples - tau * d))
            e_new = energy(cand)
            if norms.sobolev_half_inner(cand - u, cand + u) <= -armijo * 2.0 * tau * slope:
                break
            backtracks += 1
            tau *= 0.5
            if tau < 1e-14:
                stalled = True  # descent direction exhausted at this precision
                break
        if stalled:
            states.append(FlowState(u, e, res, tau, it, backtracks, stalled))
            break
        u, e = cand, e_new
        g, d = directions(u)
        res = _max_node_norm(g)
        tau = min(tau * step_grow, step_max)
        states.append(FlowState(u, e, res, tau, it, backtracks, stalled))
    return states


def gradient_check(u: Field, dist: PlaneDistribution, w: Optional[Field] = None,
                   eps: float = 1e-5, seed: int = 0):
    """Directional-derivative check of the flow's gradient.

    Compares the analytic derivative 2 <P_T(u) (-D)^{1/2} u, w> against the
    centered difference (E(u+) - E(u-)) / (2 eps), u+- = retract(u +- eps w).
    The difference is taken as the bilinear form of u+ - u- with u+ + u-,
    so it does not lose the digits that two nearby energies share.  Returns
    (analytic, fd).
    """
    if dist.retraction is None:
        raise ValueError("gradient_check needs a retraction")
    if w is None:
        rng = np.random.default_rng(seed)
        n = u.grid.n_points
        spec = np.zeros((n // 2 + 1, u.m), dtype=complex)
        kmax = min(12, n // 4)
        spec[1:kmax + 1] = (rng.standard_normal((kmax, u.m))
                            + 1j * rng.standard_normal((kmax, u.m)))
        raw = np.fft.irfft(spec, n=n, axis=0)
        tang = dist.tangent(u.samples, raw)
        tang /= np.sqrt(u.grid.h * np.sum(tang ** 2))
        w = u.with_samples(tang)
    h = u.grid.h
    gt = dist.tangent(u.samples, _half_laplacian_samples(u))
    analytic = 2.0 * h * float(np.sum(gt * w.samples))
    plus = dist.retraction(u.samples + eps * w.samples)
    minus = dist.retraction(u.samples - eps * w.samples)
    diff = norms.sobolev_half_inner(u.with_samples(plus - minus),
                                    u.with_samples(plus + minus))
    return analytic, diff / (2.0 * eps)


# ---------------------------------------------------------------------------
# Moebius composition and the neck experiment


def _circle_evaluator(u):
    """Periodic cubic spline through an 8x zero-pad refined copy of the
    samples.

    Accurate to spline order on the refined grid, so it relies on the
    spectrum of u having decayed well below Nyquist.
    """
    n_fine = 8 * u.grid.n_points
    fine = np.fft.irfft(rfft_resize(u.rfft(), n_fine), n_fine, axis=0)
    theta = 2.0 * np.pi * np.arange(n_fine + 1) / n_fine
    vals = np.vstack([fine, fine[:1]])
    return CubicSpline(theta, vals, axis=0, bc_type="periodic")


def _mobius_angles(theta, a):
    z = np.exp(1j * np.asarray(theta))
    return np.angle((z - a) / (1.0 - a * z))


def mobius_compose(u: Field, a: float, tol: float = 1e-8,
                   n_max: int = 1 << 22) -> Field:
    """Sample u(phi_a(e^{i theta})) with phi_a(z) = (z - a)/(1 - a z).

    The composition concentrates near theta = 0 as a -> 1, so the output
    resolution doubles (starting from the input grid) until its energy moves
    by less than tol relative between successive levels.
    """
    if not -1.0 < float(a) < 1.0:
        raise ValueError("mobius parameter must satisfy |a| < 1")
    if not u.is_circle():
        raise ValueError("mobius composition acts on circle fields")
    ev = _circle_evaluator(u)
    n = u.grid.n_points
    prev_energy = None
    while n <= n_max:
        grid = CircleGrid(n_modes=n // 2)
        comp = Field(grid, ev(_mobius_angles(grid.nodes(), a)))
        e = energy(comp)
        if prev_energy is not None and abs(e - prev_energy) <= tol * max(1.0, prev_energy):
            return comp
        prev_energy = e
        n *= 2
    raise RuntimeError("composition energy did not stabilize below n = %d" % n_max)


_QUARTER_CONSTANT = 1.0 / (2.0 * np.sqrt(2.0 * np.pi))


def _bubble_quarter_lap(w_eval, w_inf, center, scale):
    """Pointwise (-D)^{1/4} of a bounded line map concentrated near a point.

    Uses the symmetric-pair form int_0^inf (2w(x) - w(x+r) - w(x-r)) r^{-3/2} dr
    with radius panels adapted per evaluation point (d = distance to the
    concentration point): a sqrt panel for the kink at r = 0, a tan panel
    centered on the crossing radius r = d where the shifted argument sweeps
    through the width-`scale` bubble, a log panel out to r = 1e6, and the
    analytic kernel tail beyond that where the pair is just 2 (w(x) - w_inf).
    """
    r_max = 1.0e6
    lam = scale
    rule_a = gauss_legendre(24)
    n_seg_b = 34
    rule_b = gauss_legendre(8)
    n_seg = 28
    rule_c = gauss_legendre(10)

    def apply(xs):
        xs = np.asarray(xs, dtype=float)
        d = np.abs(xs - center)[:, None]

        # A: r in (0, d/2], r = rho^2 kills the r^{1/2} kink of the pair
        rho, w_rho = panel_rule(np.sqrt(0.5 * d) * np.array([0.0, 1.0]), rule_a)
        r_a = rho ** 2
        # weight = w * drho * (dr/drho) * r^{-3/2} = w * drho * 2 / rho^2
        k_a = w_rho * 2.0 / rho ** 2

        # B: r in [d/2, 2d], r = d + lam sinh(sigma): log-like resolution on
        # both sides of the crossing radius r = d down to the bubble width
        sig_lo = np.arcsinh(-0.5 * d / lam)
        sig_hi = np.arcsinh(d / lam)
        b_edges = sig_lo + (sig_hi - sig_lo) * np.linspace(0.0, 1.0, n_seg_b + 1)[None, :]
        sig, wsig = panel_rule(b_edges, rule_b)
        r_b = d + lam * np.sinh(sig)
        k_b = wsig * lam * np.cosh(sig) / r_b ** 1.5

        # C: r in [2d, r_max] in log radius
        s_lo = np.log(2.0 * d)
        s_hi = np.log(r_max)
        edges = s_lo + (s_hi - s_lo) * np.linspace(0.0, 1.0, n_seg + 1)[None, :]
        s, ws_c = panel_rule(edges, rule_c)
        r_c = np.exp(s)
        k_c = ws_c * np.exp(-0.5 * s)

        r = np.concatenate([r_a, r_b, r_c], axis=1)
        k = np.concatenate([k_a, k_b, k_c], axis=1)
        wx = w_eval(xs)
        pair = (2.0 * wx[:, None, :]
                - w_eval(xs[:, None] + r)
                - w_eval(xs[:, None] - r))
        integral = np.einsum("pq,pqm->pm", k, pair)
        tail = 4.0 * (wx - w_inf[None, :]) / np.sqrt(r_max)
        return _QUARTER_CONSTANT * (integral + tail)

    return apply


def _locate_concentration(ev, a, scale):
    """Peak of the transferred speed |d/dx u(phi_a(e^{i theta(x)}))|.

    Works on the analytic composition, not on a sampled copy: a grid fine
    enough for the energy is still far too coarse for the bubble when
    1 - a is tiny.  Scans a geometric theta ladder around the focus of
    phi_a, then polishes with a bounded scalar minimizer.
    """
    from scipy.optimize import minimize_scalar

    dev = ev.derivative()

    def speed(theta):
        theta = np.asarray(theta, dtype=float)
        psi = _mobius_angles(theta, a)
        dpsi = (1.0 - a * a) / np.abs(1.0 - a * np.exp(1j * theta)) ** 2
        mag = np.sqrt(np.sum(np.atleast_2d(dev(psi % (2.0 * np.pi))) ** 2, axis=-1))
        return mag * dpsi * (1.0 + np.sin(theta))

    ladder = scale * np.geomspace(1.0e-3, np.pi / scale, 1200)
    grid = np.concatenate([-ladder[::-1], [0.0], ladder])
    j = int(np.argmax(speed(grid)))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]
    res = minimize_scalar(lambda t: -float(np.squeeze(speed(t))),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1.0e-4 * scale})
    th = float(res.x)
    return float(np.cos(th) / (1.0 + np.sin(th)))


def bubbling_experiment(u: Field, a_sequence: Sequence[float],
                        lam: float = 2.0, big_r: float = 2.0,
                        nodes_per_annulus: int = 24) -> List[NeckReport]:
    """Concentration diagnostics for the family u composed with phi_a.

    For each a the composition is transferred to the line, its quarter
    Laplacian is evaluated by principal-value quadrature on dyadic annuli
    around the detected concentration point between lam * (1 - a) and
    big_r / (2 lam), and the report collects the annulus norms, their sup,
    and a power-law fit of the magnitude over the annuli whose L2 mass is
    below a tenth of the total energy.
    """
    sphere = sphere_distribution(u.m)
    pre = _max_node_norm(el_residual(u, sphere).samples)
    if pre > 1e-8:
        raise ValueError(
            "input is not critical: residual %.3e exceeds 1e-8" % pre)

    reports = []
    for a in a_sequence:
        comp = mobius_compose(u, a)
        total = energy(comp)
        scale = 1.0 - a

        rho = lam * scale
        outer_limit = big_r / (2.0 * lam)
        annuli = []
        while rho < outer_limit:
            annuli.append((rho, min(2.0 * rho, outer_limit)))
            rho *= 2.0
        if not annuli:
            reports.append(NeckReport(
                a=a, lam=lam, concentration_scale=scale, center=None,
                annuli=[], l2=[], l21=[], l2inf=[], dyadic_sup=None,
                neck_l2_total=None, neck_l2inf_total=None,
                fit_coefficient=None, fit_exponent=None, fit_residual=None,
                fit_annuli_used=0, energy_total=total))
            continue

        ev = _circle_evaluator(u)
        center = _locate_concentration(ev, a, scale)

        def w_eval(xs):
            th = np.arctan2(1.0 - xs ** 2, 2.0 * xs)
            return ev(_mobius_angles(th, a))

        w_inf = w_eval(np.array([1.0e30]))[0]
        quarter = _bubble_quarter_lap(w_eval, w_inf, center, scale)

        # the annuli are contiguous: each outer radius is the next inner one
        edges = [inner for inner, _ in annuli] + [annuli[-1][1]]
        dists, weights = panel_rule(edges, gauss_legendre(nodes_per_annulus))
        xs = np.concatenate([center + dists, center - dists])
        mags = np.sqrt(np.sum(quarter(xs) ** 2, axis=1))

        k = dists.size
        per = nodes_per_annulus
        l2s, l21s, l2infs = [], [], []
        for i in range(len(annuli)):
            sl = slice(i * per, (i + 1) * per)
            m_both = np.concatenate([mags[sl], mags[k:][sl]])
            w_both = np.concatenate([weights[sl], weights[sl]])
            l2s.append(float(np.sqrt(np.sum(w_both * m_both ** 2))))
            l21s.append(float(norms.lorentz_21_samples(m_both, w_both)))
            l2infs.append(float(norms.lorentz_2inf_samples(m_both, w_both)))

        all_m = np.concatenate([mags[:k], mags[k:]])
        all_w = np.concatenate([weights, weights])
        neck_l2 = float(np.sqrt(np.sum(all_w * all_m ** 2)))
        neck_l2inf = float(norms.lorentz_2inf_samples(all_m, all_w))

        gate = [l2 < 0.1 * total for l2 in l2s]
        fit_c = fit_p = fit_res = None
        used = int(np.sum(gate))
        if used >= 1:
            keep = np.zeros(k, dtype=bool)
            for i, ok in enumerate(gate):
                if ok:
                    keep[i * per:(i + 1) * per] = True
            ld = np.log(np.concatenate([dists[keep], dists[keep]]))
            lm = np.log(np.concatenate([mags[:k][keep], mags[k:][keep]]))
            slope, intercept = np.polyfit(ld, lm, 1)
            fit_p = float(-slope)
            fit_c = float(np.exp(intercept))
            fit_res = float(np.sqrt(np.mean((lm - (slope * ld + intercept)) ** 2)))

        reports.append(NeckReport(
            a=a, lam=lam, concentration_scale=scale, center=center,
            annuli=annuli, l2=l2s, l21=l21s, l2inf=l2infs,
            dyadic_sup=float(np.max(l2s)), neck_l2_total=neck_l2,
            neck_l2inf_total=neck_l2inf, fit_coefficient=fit_c,
            fit_exponent=fit_p, fit_residual=fit_res,
            fit_annuli_used=used, energy_total=total))
    return reports
