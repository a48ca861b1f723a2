"""Balancing identities for half-harmonic maps and the M+/M- averaging
operators.

Three geometric settings share one report type:

  * line:    |int (x^2-t^2)/(x^2+t^2)^2 u dx|^2 = |int 2xt/(x^2+t^2)^2 u dx|^2
  * circle:  |int u cos|^2 = |int u sin|^2, plus the first-mode vectors
  * circle, Poisson-extended: kernels dF/dt and dF/dtheta at height t
  * plane:   Gaussian-weighted radial energy = angular energy

Each verifier also evaluates the hypothesis its identity rests on (pointwise
orthogonality of the derivative against the half Laplacian, or harmonicity in
the plane case) so a violated identity can be traced to a violated premise.

M+ and M- average a bounded function against the kernels

    k+(x) = sqrt(pi) cos((3/2) arctan x) (1+x^2)^{-3/4}      (even)
    k-(x) = sqrt(pi) sin((3/2) arctan(-x)) (1+x^2)^{-3/4}    (odd)

by M[w](t) = int k(x) w(tx) dx. Quadrature substitutes x = tan(psi) and then
psi = pi/2 - s^2, which flattens the integrable sqrt singularity at the far
end into a smooth integrand on a compact interval.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (CircleGrid, Field, LineGrid, gauss_legendre, panel_rule,
                       rfft_frequencies, rfft_multiply)
from . import fracops

_FLOOR = 1e-14


@dataclass
class PohozaevReport:
    t_values: Optional[tuple]
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    hypothesis_residual: float
    u_plus: Optional[np.ndarray] = None
    u_minus: Optional[np.ndarray] = None
    moment_gap: Optional[float] = None
    moment_dot: Optional[float] = None

    def relative_residual(self):
        scale = np.maximum(np.maximum(self.lhs, self.rhs), _FLOOR)
        return np.abs(self.residual) / scale


def _hypothesis_residual(u, where=slice(None)):
    """Max over the nodes `where` of |u' . (-D)^{1/2} u|, the pointwise
    orthogonality a half-harmonic map satisfies."""
    half_lap = (fracops.frac_laplacian_circle if u.is_circle()
                else fracops.frac_laplacian_line_spectral)
    du = rfft_multiply(u, 1j * rfft_frequencies(u.grid))
    w = half_lap(u, 0.5)
    return float(np.max(np.abs(np.sum(du * w.samples, axis=1))[where]))


def residual_line(u, t_values, n_quad=2000):
    """Check the weighted-moment identity on the line at each t > 0.

    The two kernels concentrate at |x| ~ t, so the quadrature substitutes
    x = t tan(phi); the transformed kernels are cos(2 phi) and sin(2 phi),
    which annihilate constants, and the limit of u at infinity is subtracted
    before integrating purely for conditioning.
    """
    if not isinstance(u.grid, LineGrid):
        raise TypeError("residual_line expects a line field")
    if u.tail is None:
        raise ValueError("residual_line needs a tail model on u")
    t_values = tuple(float(t) for t in t_values)
    if any(t <= 0 for t in t_values):
        raise ValueError("t values must be positive")
    u0 = u.tail.mean_limit()
    interp = fracops.line_interpolant(u)
    phi, wq = panel_rule((-np.pi / 2.0, np.pi / 2.0), gauss_legendre(n_quad))
    cos2, sin2 = np.cos(2 * phi), np.sin(2 * phi)
    tanphi = np.tan(phi)
    lhs, rhs = [], []
    for t in t_values:
        vals = interp(t * tanphi) - u0[None, :]
        plus = -(1.0 / t) * np.sum(wq[:, None] * cos2[:, None] * vals, axis=0)
        minus = (1.0 / t) * np.sum(wq[:, None] * sin2[:, None] * vals, axis=0)
        lhs.append(float(np.sum(plus ** 2)))
        rhs.append(float(np.sum(minus ** 2)))
    lhs, rhs = np.array(lhs), np.array(rhs)

    # take the max over the central half only; the outer region carries the
    # periodization error of the spectral operator for slowly decaying fields
    hyp = _hypothesis_residual(u, np.abs(u.grid.nodes()) <= 0.5 * u.grid.half_width)
    return PohozaevReport(t_values, lhs, rhs, lhs - rhs, hyp)


def residual_circle(u):
    """First-mode moment identity on the circle, with the mode vectors."""
    if not isinstance(u.grid, CircleGrid):
        raise TypeError("residual_circle expects a circle field")
    th = u.grid.nodes()
    h = u.grid.h
    mc = h * np.sum(np.cos(th)[:, None] * u.samples, axis=0)
    ms = h * np.sum(np.sin(th)[:, None] * u.samples, axis=0)
    lhs = np.array([float(np.sum(mc ** 2))])
    rhs = np.array([float(np.sum(ms ** 2))])
    u1 = mc / (2 * np.pi)
    um1 = ms / (2 * np.pi)
    return PohozaevReport(
        None,
        lhs,
        rhs,
        lhs - rhs,
        _hypothesis_residual(u),
        u_plus=u1,
        u_minus=um1,
        moment_gap=float(abs(np.linalg.norm(u1) - np.linalg.norm(um1))),
        moment_dot=float(abs(np.dot(u1, um1))),
    )


def residual_circle_t(u, t_values):
    """Poisson-height variant on the circle; kernels from the kernel module."""
    if not isinstance(u.grid, CircleGrid):
        raise TypeError("residual_circle_t expects a circle field")
    t_values = tuple(float(t) for t in t_values)
    if any(t <= 0 for t in t_values):
        raise ValueError("t values must be positive")
    th = u.grid.nodes()
    h = u.grid.h
    lhs, rhs = [], []
    for t in t_values:
        _, dF_dt, dF_dth = fracops.poisson_kernel_circle(t, th)
        mt = h * np.sum(dF_dt[:, None] * u.samples, axis=0)
        mth = h * np.sum(dF_dth[:, None] * u.samples, axis=0)
        lhs.append(float(np.sum(mt ** 2)))
        rhs.append(float(np.sum(mth ** 2)))
    lhs, rhs = np.array(lhs), np.array(rhs)
    return PohozaevReport(t_values, lhs, rhs, lhs - rhs, _hypothesis_residual(u))


# ---------------------------------------------------------------------------
# plane


@dataclass
class PlaneField:
    """m-component field sampled on a uniform cell-centered square grid."""

    half_width: float
    n: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim == 2:
            self.samples = self.samples[:, :, None]
        if self.samples.shape[:2] != (self.n, self.n):
            raise ValueError("samples must be (n, n, m)")

    @property
    def h(self):
        return 2.0 * self.half_width / self.n

    def nodes(self):
        return -self.half_width + (np.arange(self.n) + 0.5) * self.h

    @property
    def m(self):
        return self.samples.shape[2]


def plane_field_from_function(half_width, n, fn):
    """Sample fn(X, Y) -> (n, n) or (n, n, m) on the tensor grid."""
    x = -half_width + (np.arange(n) + 0.5) * (2.0 * half_width / n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return PlaneField(half_width, n, np.asarray(fn(X, Y), dtype=float))


def residual_plane(u, x0, t_values):
    """Gaussian-weighted radial vs angular derivative energy around x0.

    Central differences on interior nodes only; the boundary ring is left
    out entirely. The Gaussian weight must have decayed below 1e-10 at the
    far corner of the grid, otherwise t is too large for the box and the
    truncated integrals are not comparable.
    """
    t_values = tuple(float(t) for t in t_values)
    if any(t <= 0 for t in t_values):
        raise ValueError("t values must be positive")
    x0 = np.asarray(x0, dtype=float)
    a = u.half_width
    corners = np.array([[sx * a, sy * a] for sx in (-1, 1) for sy in (-1, 1)])
    far = float(np.max(np.linalg.norm(corners - x0[None, :], axis=1)))
    for t in t_values:
        if np.exp(-(far ** 2) / (4.0 * t)) > 1e-10:
            raise ValueError("t=%g too large for the grid (boundary weight above 1e-10)" % t)

    h = u.h
    s = u.samples
    dux = (s[2:, 1:-1] - s[:-2, 1:-1]) / (2 * h)
    duy = (s[1:-1, 2:] - s[1:-1, :-2]) / (2 * h)
    x = u.nodes()
    X, Y = np.meshgrid(x[1:-1] - x0[0], x[1:-1] - x0[1], indexing="ij")
    radial = X[:, :, None] * dux + Y[:, :, None] * duy
    angular = -Y[:, :, None] * dux + X[:, :, None] * duy
    r2 = X ** 2 + Y ** 2
    lhs, rhs = [], []
    for t in t_values:
        w = np.exp(-r2 / (4.0 * t))
        lhs.append(float(h * h * np.sum(w * np.sum(radial ** 2, axis=2))))
        rhs.append(float(h * h * np.sum(w * np.sum(angular ** 2, axis=2))))
    lhs, rhs = np.array(lhs), np.array(rhs)

    lap = (s[2:, 1:-1] + s[:-2, 1:-1] + s[1:-1, 2:] + s[1:-1, :-2] - 4 * s[1:-1, 1:-1]) / h ** 2
    hyp = max(
        float(np.max(np.abs(np.sum(dux * lap, axis=2)))),
        float(np.max(np.abs(np.sum(duy * lap, axis=2)))),
    )
    return PohozaevReport(t_values, lhs, rhs, lhs - rhs, hyp)


# ---------------------------------------------------------------------------
# M+ / M- averaging operators


def m_kernel_plus(x):
    """Closed-form even kernel; value sqrt(pi) at x = 0."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.pi) * np.cos(1.5 * np.arctan(x)) * (1.0 + x ** 2) ** -0.75


def m_kernel_minus(x):
    """Closed-form odd kernel."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.pi) * np.sin(1.5 * np.arctan(-x)) * (1.0 + x ** 2) ** -0.75


def _m_quadrature(n_quad):
    # x = tan(psi), psi = pi/2 - s^2 on s in (0, sqrt(pi/2))
    s, ws = panel_rule((0.0, np.sqrt(np.pi / 2.0)), gauss_legendre(n_quad))
    psi = np.pi / 2.0 - s ** 2
    x = np.tan(psi)
    base = np.sqrt(np.pi) * np.cos(psi) ** -0.5 * 2.0 * s * ws
    w_plus = base * np.cos(1.5 * psi)
    w_minus = -base * np.sin(1.5 * psi)
    return x, w_plus, w_minus


def _m_apply(w, t, weights, x_quad, sign):
    interp = fracops.line_interpolant(w)
    out = np.empty((len(t), w.m))
    block = 512
    for lo in range(0, len(t), block):
        tt = t[lo : lo + block]
        args = tt[:, None] * x_quad[None, :]
        vp = interp(args.ravel()).reshape(len(tt), len(x_quad), w.m)
        vm = interp(-args.ravel()).reshape(len(tt), len(x_quad), w.m)
        combo = vp + vm if sign > 0 else vp - vm
        out[lo : lo + block] = np.einsum("q,tqm->tm", weights, combo)
    return out


def _m_average(w, t_grid, n_quad, sign):
    # sign +1 averages against the even kernel, -1 against the odd one
    if w.tail is None:
        raise ValueError("M+ and M- need a tail model on w")
    x_quad, wp, wm = _m_quadrature(n_quad)
    t = t_grid.nodes()
    if np.any(t == 0.0):
        raise ValueError("t = 0 is excluded")
    return Field(t_grid, _m_apply(w, t, wp if sign > 0 else wm, x_quad, sign))


def m_plus(w, t_grid, n_quad=400):
    """Average w against the even kernel: always produces an even field."""
    return _m_average(w, t_grid, n_quad, +1)


def m_minus(w, t_grid, n_quad=400):
    """Average w against the odd kernel: always produces an odd field."""
    return _m_average(w, t_grid, n_quad, -1)


def _cosine_transform(w):
    # unitary Fourier transform restricted to even real fields, evaluated on
    # the field's own grid by direct summation over the positive half
    grid = w.grid
    x = grid.nodes()
    pos = x > 0
    tpos = x[pos]
    wpos = 0.5 * (w.samples[pos] + w.samples[grid.reflected_indices()][pos])
    kernel = np.cos(np.outer(np.abs(x), tpos))
    vals = np.sqrt(2.0 / np.pi) * grid.h * (kernel @ wpos)
    from .geometry import TailModel

    return Field(grid, vals, tail=TailModel.even(power=2.0, coef=0.0, m=w.m))


def _paired_with_m_plus(a, b, n_quad):
    # 2 int_0^inf a(t) (M+ b)(t) dt. M+ b has a |t|^{1/2} cusp at the origin
    # (the kernel's |x|^{-3/2} tail), so the inner piece substitutes t = tau^2
    # which turns half-integer powers into smooth ones; plain nodes beyond 1.
    x_quad, wp, _ = _m_quadrature(n_quad)
    tau, wtau = panel_rule((0.0, 1.0), gauss_legendre(400))
    t_in, w_in = tau ** 2, 2.0 * tau * wtau
    t_out, w_out = panel_rule((1.0, a.grid.half_width), gauss_legendre(1200))
    t = np.concatenate([t_in, t_out])
    wt = np.concatenate([w_in, w_out])
    mb = _m_apply(b, t, wp, x_quad, +1)
    interp_a = fracops.line_interpolant(a)
    va = interp_a(t)
    return 2.0 * float(np.sum(wt[:, None] * va * mb))


def m_adjoint_check(w1, w2, n_quad=400):
    """Two L^2 pairings that coincide iff the frequency-side conjugation of
    M+ is its adjoint on even functions.

    Route one pairs w1 with M+ w2 directly. Route two evaluates the claimed
    adjoint, with the outer transform moved onto w2 (the transform is its own
    adjoint, so the move is exact and saves one numerical transform):

        <F^{-1} M+ F^{-1} w1, w2> = <M+ F^{-1} w1, F^{-1} w2>.
    """
    if w1.grid != w2.grid:
        raise ValueError("fields must share a grid")
    route1 = _paired_with_m_plus(w1, w2, n_quad)
    c1 = _cosine_transform(w1)
    c2 = _cosine_transform(w2)
    route2 = _paired_with_m_plus(c2, c1, n_quad)
    return route1, route2


def m_plus_mellin_symbol(nu, n_quad=4000, lam_max=60.0):
    """Dilation-invariance symbol of M+ at Mellin frequency nu.

    M+ acts on t^{-1/2-i nu} by this multiplier; it decays like
    exp(-pi |nu| / 2) but never vanishes, which is the scalar heart of the
    injectivity measurement below.
    """
    lam, wl = panel_rule((-lam_max, lam_max), gauss_legendre(n_quad))
    g = 2.0 * m_kernel_plus(np.exp(lam)) * np.exp(0.5 * lam)
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    return np.array([complex(np.sum(wl * g * np.exp(-1j * n_ * lam))) for n_ in nu])


def m_plus_even_matrix(n_bumps=64, n_quad=400, c_min=5e-5, c_max=2e4, width=0.2):
    """Collocation matrix of M+ on a family of even log-Gaussian bumps.

    M+ commutes with dilations, so the natural even basis lives on a
    geometric ladder: bump j is exp(-(ln|t| - ln c_j)^2 / (2 width^2)) and
    row i evaluates M+ at t = c_i. In log coordinates the matrix is nearly
    Toeplitz with symbol values of m_plus_mellin_symbol, which decay fast but
    never vanish; the default ladder spacing keeps the finest resolved
    frequency where the symbol is still well above roundoff. Injectivity on
    the discretized even subspace shows up as sigma_min > 0, with the
    condition number reported.
    """
    centers = np.exp(np.linspace(np.log(c_min), np.log(c_max), n_bumps))
    x_quad, wp, _ = _m_quadrature(n_quad)

    def bump_values(args):
        # args shape (nt, nq); result (nt, nq, n_bumps)
        la = np.log(np.abs(args))
        return np.exp(-((la[:, :, None] - np.log(centers)[None, None, :]) ** 2) / (2 * width ** 2))

    args = centers[:, None] * x_quad[None, :]
    A = np.einsum("q,iqj->ij", 2.0 * wp, bump_values(args))
    svals = np.linalg.svd(A, compute_uv=False)
    return {
        "n_bumps": int(n_bumps),
        "sigma_min": float(svals[-1]),
        "sigma_max": float(svals[0]),
        "cond": float(svals[0] / svals[-1]),
    }
