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

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import fracops, norms, stereo
from .geometry import (RESOLVED, CircleGrid, Field, gauss_legendre, panel_rule,
                       rfft_frequencies, rfft_multiply, tail_ratio)

_ON_TARGET_TOL = 1e-6       # largest distance of an input from the target
_STEP_GROW = 1.15           # flow step growth after an accepted step
_STEP_MAX = 4.0             # flow step cap
_ARMIJO = 1e-4              # flow sufficient-decrease constant
_FD_EPS = 1e-5              # difference step of gradient_check
_MOBIUS_N_MAX = 1 << 22     # node cap of the Moebius refinement
_NODES_PER_ANNULUS = 24     # Gauss nodes per neck annulus
_NECK_BLOCK = 8             # evaluation points per block of the neck quadrature


@dataclass(frozen=True)
class PlaneDistribution:
    """Tangent-plane field z -> T_z of a target in R^m.

    tangent(z, v) returns P_T(z) v, the projection of v onto the tangent
    plane at z, for arrays of shape (..., m) that broadcast against each
    other; it never forms the (..., m, m) matrices.  retraction (optional)
    maps ambient points back onto the target; without it gradient_flow
    refuses to run.  constraint_distance (optional) gives the pointwise
    distance to the target and backs the off-target input checks.
    """

    tangent: Callable[[np.ndarray, np.ndarray], np.ndarray]
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

    return PlaneDistribution(tangent, retraction, constraint_distance)


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
    concentration point, plus the power-law exponent fitted over the
    small-norm annuli."""

    a: float
    annuli: List[Tuple[float, float]]
    l2: List[float]
    l21: List[float]
    l2inf: List[float]
    dyadic_sup: Optional[float]
    neck_l2_total: Optional[float]
    fit_exponent: Optional[float]
    energy_total: float


# ---------------------------------------------------------------------------
# energy and residuals


def energy(u: Field) -> float:
    """Squared H^{1/2} seminorm, int |(-D)^{1/4} u|^2."""
    return norms.sobolev_half_seminorm(u) ** 2


def _check_on_target(u, dist):
    if dist.constraint_distance is None:
        return
    worst = float(np.max(dist.constraint_distance(u.samples)))
    if worst > _ON_TARGET_TOL:
        raise ValueError(
            "field is off the target by %.3e (tolerance %.0e)" % (worst, _ON_TARGET_TOL))


def _tangential_half_laplacian(u, dist):
    """P_T(u) (-D)^{1/2} u at the nodes: the left side of the
    Euler-Lagrange equation."""
    return dist.tangent(u.samples, rfft_multiply(u, rfft_frequencies(u.grid)))


def el_residual(u: Field, dist: PlaneDistribution) -> Field:
    """Tangential part of the half Laplacian, pointwise.

    Vanishes at energy-critical points under the target constraint; its max
    node norm is the headline residual used by the flow and the experiments.
    """
    _check_on_target(u, dist)
    return u.with_samples(_tangential_half_laplacian(u, dist))


def _max_node_norm(samples):
    return float(np.sqrt(np.max(_dot(samples, samples))))


# ---------------------------------------------------------------------------
# projected gradient flow


def gradient_flow(u0: Field, dist: PlaneDistribution, tol: float = 1e-6,
                  max_iter: int = 20000, step0: float = 0.5) -> List[FlowState]:
    """Projected descent on the energy in its own H^{1/2} metric, with
    Armijo backtracking.

    With g = P_T(u) (-D)^{1/2} u the tangential gradient, the direction is
    the preconditioned d = P_T(u) (1 + |D|)^{-1} g, a Sobolev gradient.
    The multiplier undoes the order-|k| growth of g, so the accepted step
    no longer shrinks with the grid, and the iteration count to tol does
    not grow with it.  Iterates u <- retract(u - tau d), halving tau on a failed
    decrease and growing it gently after accepted steps.  The Armijo test
    asks E(cand) - E(u) <= -2 _ARMIJO tau h <g, d>, which is a decrease
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
        g = _tangential_half_laplacian(fld, dist)
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
            if norms.sobolev_half_inner(cand - u, cand + u) <= -_ARMIJO * 2.0 * tau * slope:
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
        tau = min(tau * _STEP_GROW, _STEP_MAX)
        states.append(FlowState(u, e, res, tau, it, backtracks, stalled))
    return states


def gradient_check(u: Field, dist: PlaneDistribution):
    """Directional-derivative check of the flow's gradient along a random
    unit tangent direction w on modes 1..min(12, n/4) (seed 0).

    Compares the analytic derivative 2 <P_T(u) (-D)^{1/2} u, w> against the
    centered difference (E(u+) - E(u-)) / (2 eps), u+- = retract(u +- eps w).
    The difference is taken as the bilinear form of u+ - u- with u+ + u-,
    so it does not lose the digits that two nearby energies share.  Returns
    (analytic, fd).
    """
    if dist.retraction is None:
        raise ValueError("gradient_check needs a retraction")
    rng = np.random.default_rng(0)
    n, h = u.grid.n_points, u.grid.h
    spec = np.zeros((n // 2 + 1, u.m), dtype=complex)
    kmax = min(12, n // 4)
    spec[1:kmax + 1] = (rng.standard_normal((kmax, u.m))
                        + 1j * rng.standard_normal((kmax, u.m)))
    raw = np.fft.irfft(spec, n=n, axis=0)
    w = dist.tangent(u.samples, raw)
    w /= np.sqrt(h * np.sum(w ** 2))
    gt = _tangential_half_laplacian(u, dist)
    analytic = 2.0 * h * float(np.sum(gt * w))
    plus = dist.retraction(u.samples + _FD_EPS * w)
    minus = dist.retraction(u.samples - _FD_EPS * w)
    diff = norms.sobolev_half_inner(u.with_samples(plus - minus),
                                    u.with_samples(plus + minus))
    return analytic, diff / (2.0 * _FD_EPS)


# ---------------------------------------------------------------------------
# Moebius composition and the neck experiment


def _circle_evaluator(u):
    """The periodic cubic spline through an 8x refined copy of u's samples,
    built from the band of u's spectrum by fracops._SplineInterpolant; it
    takes any real angle and has a `.derivative()`. Accurate to spline
    order on the refined grid, so u's spectrum must decay well below Nyquist."""
    spec = u.rfft()
    return fracops._SplineInterpolant(u.grid, spec[: fracops._band(spec, 8) // 2 + 1], None, 8)


def _mobius_angles(theta, a):
    z = np.exp(1j * np.asarray(theta))
    return np.angle((z - a) / (1.0 - a * z))


def _line_mobius_angles(x, a):
    """Circle angle of phi_a(unproject(x)), that is angle_of((x - a)/(1 - a x)).

    Conjugated by the stereographic projection, phi_a is the real map
    x -> (x - a)/(1 - a x).  Scaled by (1 - a x)^2 > 0, the two components of
    angle_of's arctan2 factor as (1 - a)(1 + a) (1 - x)(1 + x) and
    2 ((x - 1) + (1 - a)) ((1 - a) + a (1 - x)), and no factor cancels near
    x = 1 as a -> 1: the angle is exact to round-off where the composition
    concentrates.
    """
    x = np.asarray(x, dtype=float)
    b = 1.0 - a
    return np.arctan2(b * (1.0 + a) * ((1.0 - x) * (1.0 + x)),
                      2.0 * ((x - 1.0) + b) * (b + a * (1.0 - x)))


def mobius_compose(u: Field, a: float) -> Field:
    """Sample u(phi_a(e^{i theta})) with phi_a(z) = (z - a)/(1 - a z).

    The composition concentrates near theta = 0 as a -> 1, so its node count
    starts at twice the input's and doubles until its spectral tail ratio
    from mode n/4 on (geometry.tail_ratio) is at most RESOLVED or the
    input's own; ValueError past _MOBIUS_N_MAX.
    """
    if not -1.0 < float(a) < 1.0:
        raise ValueError("mobius parameter must satisfy |a| < 1")
    if not u.is_circle():
        raise ValueError("mobius composition acts on circle fields")

    def quarter_ratio(f):
        return tail_ratio(np.abs(f.rfft()), f.grid.n_points // 4)

    ev = _circle_evaluator(u)
    floor = max(RESOLVED, quarter_ratio(u))
    n = 2 * u.grid.n_points
    while n <= _MOBIUS_N_MAX:
        grid = CircleGrid(n_modes=n // 2)
        comp = Field(grid, ev(_mobius_angles(grid.nodes(), a)))
        if quarter_ratio(comp) <= floor:
            return comp
        n *= 2
    raise ValueError("composition with a = %r unresolved at %d nodes" % (float(a), _MOBIUS_N_MAX))


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

    def block(xs):
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

    def apply(xs):
        # a block's radii, weights, angles and pairs are (_NECK_BLOCK, 576)
        # or (_NECK_BLOCK, 576, m), at most 74 KiB: under glibc's default
        # 128 KiB mmap threshold, so a fresh process reuses heap pages from
        # block to block instead of faulting in new ones (32 points faulted
        # 90k pages per `bubble --k-max 7`, 8 points 1.7k); and every
        # point's value is the one it has alone
        xs = np.asarray(xs, dtype=float)
        return np.concatenate([block(xs[i:i + _NECK_BLOCK])
                               for i in range(0, len(xs), _NECK_BLOCK)])

    return apply


def _bounded_brent(func, lo, hi, xatol, maxiter=500):
    """Minimum of func on [lo, hi] by Brent's bounded search (Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 5).

    A port of scipy's scipy.optimize._optimize._minimize_scalar_bounded:
    the same golden-section and parabolic steps in the same float
    operations, and the same stop, so it returns the x of
    minimize_scalar(method="bounded") bit for bit. Returns (x, the number
    of func calls).
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, num


def _locate_concentration(ev, a, scale):
    """Peak of the transferred speed |d/dx u(phi_a(e^{i theta(x)}))|.

    Works on the analytic composition, not on a sampled copy: a grid fine
    enough for the energy is still far too coarse for the bubble when
    1 - a is tiny.  Scans a geometric theta ladder around the focus of
    phi_a, then polishes with a bounded Brent search.
    """
    dev = ev.derivative()

    def speed(theta):
        theta = np.asarray(theta, dtype=float)
        psi = _mobius_angles(theta, a)
        dpsi = (1.0 - a * a) / np.abs(1.0 - a * np.exp(1j * theta)) ** 2
        mag = np.sqrt(np.sum(np.atleast_2d(dev(psi)) ** 2, axis=-1))
        return mag * dpsi * stereo.conformal_speed(theta)

    ladder = scale * np.geomspace(1.0e-3, np.pi / scale, 1200)
    grid = np.concatenate([-ladder[::-1], [0.0], ladder])
    j = int(np.argmax(speed(grid)))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]
    x, _ = _bounded_brent(lambda t: -float(np.squeeze(speed(t))), lo, hi, 1.0e-4 * scale)
    return float(stereo.project_angle(x))


def bubbling_experiment(u: Field, a: float, lam: float = 2.0,
                        big_r: float = 2.0) -> NeckReport:
    """Concentration diagnostics for u composed with phi_a.

    The composition is transferred to the line, its quarter Laplacian is
    evaluated by principal-value quadrature on dyadic annuli around the
    detected concentration point between lam * (1 - a) and big_r / (2 lam),
    and the report collects the annulus norms, their sup, and a power-law
    fit of the magnitude over the annuli whose L2 mass is below a tenth of
    the total energy.
    """
    sphere = sphere_distribution(u.m)
    pre = _max_node_norm(el_residual(u, sphere).samples)
    if pre > 1e-8:
        raise ValueError(
            "input is not critical: residual %.3e exceeds 1e-8" % pre)
    # the energy is Moebius invariant (check 11): every composition has u's
    total = energy(u)
    per = _NODES_PER_ANNULUS
    outer_limit = big_r / (2.0 * lam)

    scale = 1.0 - a
    inner = []
    rho = lam * scale
    while rho < outer_limit:
        inner.append(rho)
        rho *= 2.0
    if not inner:
        return NeckReport(a=a, annuli=[], l2=[], l21=[], l2inf=[], dyadic_sup=None,
                          neck_l2_total=None, fit_exponent=None, energy_total=total)
    edges = inner + [outer_limit]
    annuli = list(zip(edges[:-1], edges[1:]))

    ev = _circle_evaluator(u)
    center = _locate_concentration(ev, a, scale)

    def w_eval(xs):
        return ev(_line_mobius_angles(xs, a))

    w_inf = w_eval(np.array([1.0e30]))[0]
    quarter = _bubble_quarter_lap(w_eval, w_inf, center, scale)

    dists, weights = panel_rule(edges, gauss_legendre(per))
    xs = np.concatenate([center + dists, center - dists])
    mags = np.sqrt(np.sum(quarter(xs) ** 2, axis=1))

    # one row per annulus: both sides of the center, node by node
    n_ann = len(annuli)
    m_rows = mags.reshape(2, n_ann, per).transpose(1, 0, 2).reshape(n_ann, 2 * per)
    w_rows = np.tile(weights.reshape(n_ann, per), 2)
    l2s = [float(np.sqrt(np.sum(w * m ** 2))) for m, w in zip(m_rows, w_rows)]
    l21s = [float(norms.lorentz_21_samples(m, w)) for m, w in zip(m_rows, w_rows)]
    l2infs = [float(norms.lorentz_2inf_samples(m, w)) for m, w in zip(m_rows, w_rows)]
    neck_l2 = float(np.sqrt(np.sum(np.tile(weights, 2) * mags ** 2)))

    keep = np.tile(np.repeat([l2 < 0.1 * total for l2 in l2s], per), 2)
    fit_p = None
    if keep.any():
        slope = np.polyfit(np.log(np.tile(dists, 2)[keep]), np.log(mags[keep]), 1)[0]
        fit_p = float(-slope)

    return NeckReport(
        a=a, annuli=annuli, l2=l2s, l21=l21s, l2inf=l2infs,
        dyadic_sup=float(np.max(l2s)), neck_l2_total=neck_l2,
        fit_exponent=fit_p, energy_total=total)
