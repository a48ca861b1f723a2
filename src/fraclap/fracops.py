"""Fractional Laplacians, the Riesz transform, and Poisson kernels.

Two routes to (-Delta)^s on the line: the Fourier multiplier |xi|^(2s) on the
periodized grid, and a principal-value quadrature of the singular integral
int (f(t) - f(s)) / |t - s|^(1+2s) ds. The quadrature route exposes two
normalizations: "paper" is the bare integral, "normalized" multiplies by
C(1,s) = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|) so that it matches the
multiplier route.
"""

import copy
import math
import threading
import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gamma as _gamma

from .geometry import (RESOLVED, CircleGrid, Field, LineGrid, gauss_legendre,
                       panel_rule, rfft_frequencies, rfft_multiply, tail_ratio)

__all__ = [
    "singular_constant",
    "frac_laplacian_circle",
    "frac_laplacian_line_spectral",
    "frac_laplacian_line_quadrature",
    "tail_quad_abserr",
    "riesz_transform",
    "inverse_quarter_laplacian",
    "poisson_kernel_line",
    "poisson_kernel_circle",
    "poisson_kernel_circle_printed",
    "line_convolve",
    "line_interpolant",
]


def singular_constant(s):
    """C(1,s) relating the bare singular integral to the |xi|^(2s) multiplier."""
    return 4.0 ** s * _gamma(0.5 + s) / (np.sqrt(np.pi) * abs(_gamma(-s)))


def _check_line_boundary(f, op_name, consequence):
    """Warn when a field without a tail model has not decayed at the ends."""
    if f.tail is not None:
        return
    edge = max(np.max(np.abs(f.samples[0])), np.max(np.abs(f.samples[-1])))
    peak = np.max(np.abs(f.samples))
    if peak > 0 and edge > 1e-6 * peak:
        warnings.warn(
            "%s: boundary samples are %.1e of the peak and the field has no "
            "tail model; %s" % (op_name, edge / peak, consequence), RuntimeWarning)


def frac_laplacian_circle(f, s):
    """Multiplier |n|^(2s) on the Fourier modes; the mean maps to zero."""
    if not isinstance(f.grid, CircleGrid):
        raise TypeError("expected a circle field")
    return Field(f.grid, rfft_multiply(f, rfft_frequencies(f.grid) ** (2.0 * s)))


def frac_laplacian_line_spectral(f, s):
    """Multiplier |xi|^(2s) on the periodized line field.

    Periodization error is O(L^-d) for |f| <= C |x|^-d; a warning fires when
    the boundary samples are not small and no tail model is attached.
    """
    if not isinstance(f.grid, LineGrid):
        raise TypeError("expected a line field")
    _check_line_boundary(f, "frac_laplacian_line_spectral",
                         "periodization error may be significant")
    return Field(f.grid, rfft_multiply(f, rfft_frequencies(f.grid) ** (2.0 * s)))


def _check_quadrature_input(f, s):
    """The inputs the quadrature route and its tail tables accept."""
    if not isinstance(f.grid, LineGrid):
        raise TypeError("expected a line field")
    if not 0 < s <= 0.5:
        raise ValueError("quadrature route covers s in (0, 1/2]")
    # the tail's integral beyond the grid converges only if power + 2s > 0
    if f.tail is not None and not f.tail.power + 2.0 * s > 0:
        raise ValueError("tail power %r at s = %r: the integral beyond the grid "
                         "diverges unless power + 2s > 0" % (f.tail.power, s))


def frac_laplacian_line_quadrature(f, s, convention="paper"):
    """Principal-value evaluation of the singular-integral fractional Laplacian.

    For every node t: sum over symmetric offsets r = jh of
    (2 f(t) - f(t+r) - f(t-r)) r^(-1-2s) h, plus a local Taylor term for
    r < h/2 and an analytic correction for the part of the line beyond the
    grid (tail model required for slow decay). With f'' the second
    difference, the Taylor term is one more weight on offset 1, so the route
    is diag u minus one symmetric Toeplitz product (_pair_weights,
    _pair_sums) and the far field; an end node takes its neighbour's second
    difference. Valid for s in (0, 1/2].
    """
    _check_quadrature_input(f, s)
    if convention not in ("paper", "normalized"):
        raise ValueError("convention must be 'paper' or 'normalized'")
    _check_line_boundary(f, "frac_laplacian_line_quadrature",
                         "the far field is treated as zero")
    u = f.samples
    circ_mult, skew_mult, diag = _pair_weights(f.grid, s)
    out = _pair_sums(f, circ_mult, skew_mult)
    np.subtract(diag[:, None] * u, out, out=out)
    # node 0 holds kappa (u[0] - u[1]) and wants kappa (2 u[1] - u[0] - u[2])
    kappa = _taylor_weight(f.grid.h, s)
    out[0] += kappa * (3.0 * u[1] - 2.0 * u[0] - u[2])
    out[-1] += kappa * (3.0 * u[-2] - 2.0 * u[-1] - u[-3])

    # beyond-grid part: int over |y| > L of (f(t) - f(y)) |t-y|^(-1-2s) dy.
    # The f(t) piece is analytic and sits in diag; the f(y) piece integrates
    # the tail model (_tail_far_contribution).
    if f.tail is not None:
        out -= _tail_far_contribution(f, s)

    if convention == "normalized":
        out *= singular_constant(s)
    return Field(f.grid, out)


def _taylor_weight(h, s):
    """kappa: int_0^(h/2) of the integrand -f''(t) r^(1-2s) is -kappa h^2 f''(t)."""
    return (0.5 * h) ** (2.0 - 2.0 * s) / ((2.0 - 2.0 * s) * h * h)


def _pair_sums(f, circ_mult, skew_mult):
    """sum_j w_j (u[i+j] + u[i-j]) at every node i, out-of-range samples zero.

    The symmetric Toeplitz matrix of the weights is half the sum of the
    circulant and the skew-circulant matrices of the same first row. The
    circulant half is rfft_multiply(f, circ_mult), so an exactly even or odd
    f runs it on n/2 points. The skew-circulant matrix of a real symmetric
    kernel is diagonalised by cosine and sine transforms of n/2 points
    (Martucci 1994): u, folded about node 0 into a_j = (u_j - u_(n-j)) / 2
    for j < n/2 and b_j = (u_j + u_(n-j)) / 2 for 0 < j <= n/2, goes through
    a DCT-III/II pair and a DST-III/II pair scaled by skew_mult, whose
    results interleave back onto the n nodes. No transform is longer than n.
    """
    import scipy.fft

    half = f.grid.n_points // 2
    u = f.samples
    pairs = rfft_multiply(f, circ_mult)
    # 2a and 2b: the fold's 1/2, and the skew half's 1/2 and 1/n, are in
    # skew_mult
    a, b = np.empty((half, f.m)), np.empty((half, f.m))
    np.multiply(2.0, u[0], out=a[0])
    np.subtract(u[1:half], u[:half:-1], out=a[1:])
    np.add(u[1:half], u[:half:-1], out=b[:-1])
    np.multiply(2.0, u[half], out=b[-1])
    a = scipy.fft.dct(a, type=3, axis=0, overwrite_x=True)
    a *= skew_mult[:, None]
    a = scipy.fft.dct(a, type=2, axis=0, overwrite_x=True)
    b = scipy.fft.dst(b, type=3, axis=0, overwrite_x=True)
    b *= skew_mult[:, None]
    b = scipy.fft.dst(b, type=2, axis=0, overwrite_x=True)
    # the transformed halves interleave: node i gets a[0] at i = 0,
    # a[i] + b[i-1] for 0 < i < n/2, b[-1] at i = n/2 and b[n-i-1] - a[n-i]
    # beyond
    pairs[0] += a[0]
    pairs[1:half] += a[1:]
    pairs[1:half] += b[:-1]
    pairs[half] += b[-1]
    pairs[half + 1:] += b[-2::-1]
    pairs[half + 1:] -= a[:0:-1]
    return pairs


# The grid-only tables of the quadrature route are computed once per key and
# shared, read-only. A pair-weight entry holds 2n float64 values, about 16 MB
# at 2^20 points; two entries cover both orders s = 1/2 and s = 1/4 on one
# grid. A tail table holds 65 nodes and is a few kB.
_PAIR_WEIGHT_ENTRIES = 2
_TAIL_TABLE_ENTRIES = 32


@lru_cache(maxsize=_PAIR_WEIGHT_ENTRIES)
def _pair_weights(grid, s):
    """The pair-sum multipliers and the diagonal of the quadrature route.

    With w_k = (k h)^(-1-2s) h for 0 < k < n plus the r < h/2 term kappa
    (_taylor_weight) on w_1, w_0 = w_n = 0 and N = n/2: circ_mult =
    rfft(p).real / 2 with p_k = w_k + w_(n-k) (N+1 values), skew_mult =
    dct(q, type=3) / (4n) with q_k = w_k - w_(n-k) for k < N (N values), and
    diag (n values), each node's total in-range weight, kappa twice inside
    and once at an end, plus the analytic ((L-x)^(-2s) + (L+x)^(-2s)) / (2s)
    of the part of the line beyond the grid.
    """
    import scipy.fft

    n, h = grid.n_points, grid.h
    half = n // 2
    # the kept arrays are allocated before the temporaries, so that freeing
    # the temporaries can give their memory back
    circ_mult, skew_mult, diag = np.empty(half + 1), np.empty(half), np.empty(n)
    w = np.zeros(n + 1)
    np.multiply(np.arange(1, n), h, out=w[1:n])
    w[1:n] **= -1.0 - 2.0 * s
    w[1:n] *= h
    w[1] += _taylor_weight(h, s)
    p = np.fft.rfft(w[:n] + w[n:0:-1])
    np.multiply(0.5, p.real, out=circ_mult)
    q = scipy.fft.dct(w[:half] - w[n:half:-1], type=3, overwrite_x=True)
    np.multiply(0.25 / n, q, out=skew_mult)
    del p, q
    # node i has n - 1 - i offsets to its right and i to its left, and its
    # distances to the two ends are (n - 1 - i + 1/2) h and (i + 1/2) h: both
    # terms of diag pair node i with its mirror n - 1 - i
    np.cumsum(w, out=w)
    ends = np.arange(0.5, n)
    ends *= h
    ends **= -2.0 * s
    ends /= 2.0 * s
    ends += w[:n]
    del w
    np.add(ends[::-1], ends, out=diag)
    for a in (circ_mult, skew_mult, diag):
        a.flags.writeable = False
    return circ_mult, skew_mult, diag


class _TailTable(NamedTuple):
    """The field-independent part of the tail correction over the distance d
    from a node to an end of the grid, on 65 ascending distances d.

    For a tail limit + coef |y|^-p, the integral beyond either end at
    distance d is e (limit + coef G), with the exact end factor
    e = d^(-2s) / (2s) and G = value / e -> L^-p as d -> 0, off by d^(2s)
    (d ln d at s = 1/2). value = int_L^inf y^-p (y - L + d)^(-1-2s) dy by
    the 24-node panel rule of `quad`, abserr is its gap to the 12-node
    rule, and c is G's not-a-knot cubic spline on d, in PPoly's layout.
    """
    d: np.ndarray
    value: np.ndarray
    abserr: np.ndarray
    c: np.ndarray


def _not_a_knot_spline(x, y):
    """The not-a-knot cubic spline through (x, y), x ascending with at least
    4 nodes, as coefficients (4, len(x) - 1) in PPoly's layout. Row i
    (0 < i < n - 1) of its slope system is dx_i s_(i-1) + 2 (dx_(i-1) + dx_i)
    s_i + dx_(i-1) s_(i+1), with dx_i = x_(i+1) - x_i, and the end rows ask
    for a continuous third derivative at x_1 and x_(n-2); the right-hand
    side and the coefficients are formed as scipy's CubicSpline forms them.
    """
    n, dx = len(x), np.diff(x)
    slope = np.diff(y) / dx
    a, b = np.zeros((n, n)), np.empty(n)
    i = np.arange(1, n - 1)
    a[i, i - 1] = dx[1:]
    a[i, i] = 2.0 * (dx[:-1] + dx[1:])
    a[i, i + 1] = dx[:-1]
    b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    a[0, :2] = dx[1], d
    b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    a[-1, -2:] = d, dx[-2]
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = np.linalg.solve(a, b)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


def quad(half_width, tau, s, power):
    """int_L^inf y^-power (y - tau)^(-1-2s) dy for every tau in [-L, L), with
    L = half_width, and an error estimate, in one vectorised pass.

    With d = L - tau and y - tau = d e^v the integral is
    d^(-2s) int_0^inf e^(-a v) (d + tau e^-v)^-power dv, a = power + 2s > 0:
    smooth in v, and a pure e^(-a v) once |tau| e^-v << d. Every tau shares
    one set of panels: unit panels up to v = k = ceil(ln(4L / d_min)), past
    which |tau| e^-v / d <= 1/4, then panels whose edges grow by 1.5 up to
    v_end. Beyond v_end, where y >= d_min e^v_end, the rest is below
    4^(1+2s) (L / y)^a of the integral, under 1e-17, so the panel count
    grows like ln(1/a), not like 1/a. Gauss-Legendre rules of 24 and 12
    nodes per panel share the integrand's evaluation.

    Returns the 24-node values and their absolute gap to the 12-node values,
    each shaped like tau. The tail table calls this once per build, through
    this module attribute, so wrapping it counts table builds.
    """
    tau = np.asarray(tau, dtype=float)
    a = power + 2.0 * s
    d = half_width - tau
    d_min = float(np.min(d))
    k = math.ceil(math.log(4.0 * half_width / d_min))
    v_end = (math.log(half_width / d_min)
             + math.log(4.0 ** (1.0 + 2.0 * s) * 1e17) / a)
    n_grown = max(1, math.ceil(math.log(v_end / k) / math.log(1.5)))
    edges = np.concatenate([np.arange(k), k * 1.5 ** np.arange(n_grown + 1)])
    v_fine, w_fine = panel_rule(edges, gauss_legendre(24))
    v_coarse, w_coarse = panel_rule(edges, gauss_legendre(12))
    v = np.concatenate([v_fine, v_coarse])
    weights = np.concatenate([w_fine, w_coarse])
    weights *= np.exp(-a * v)
    # one row per tau, one column per node of either rule
    g = np.exp(-v) * tau.reshape(-1, 1)
    g += d.reshape(-1, 1)
    g **= -power
    g *= weights
    scale = d.ravel() ** (-2.0 * s)
    fine = g[:, :v_fine.size].sum(axis=1) * scale
    coarse = g[:, v_fine.size:].sum(axis=1) * scale
    return fine.reshape(tau.shape), np.abs(fine - coarse).reshape(tau.shape)


@lru_cache(maxsize=_TAIL_TABLE_ENTRIES)
def _tail_table(grid, s, power):
    L = grid.half_width
    # Chebyshev-like, clustered toward both ends of the nodes' distances
    # h/2 .. 2L - h/2 to an end
    d = L - (L - 0.5 * grid.h) * np.sin(np.linspace(0.5 * np.pi, -0.5 * np.pi, 65))
    value, abserr = quad(L, L - d, s, power)
    table = _TailTable(d, value, abserr, _not_a_knot_spline(d, 2.0 * s * d ** (2.0 * s) * value))
    for a in table:
        a.flags.writeable = False
    return table


def _spline_at_sorted(breaks, c, x):
    """A cubic spline, breakpoints and coefficients (4, len(breaks) - 1) in
    PPoly's layout, at ascending x.

    One searchsorted of the inner breakpoints splits x into runs, one per
    piece, and each run is one Horner pass in place with that piece's
    coefficients. As in PPoly, a point on a breakpoint takes the piece to
    its right, and points beyond the ends extrapolate the outer pieces.
    """
    out = np.empty(len(x))
    cuts = np.concatenate([[0], np.searchsorted(x, breaks[1:-1]), [len(x)]])
    for lo, hi, start, (c3, c2, c1, c0) in zip(cuts[:-1], cuts[1:], breaks, c.T):
        dx, seg = x[lo:hi] - start, out[lo:hi]
        np.multiply(dx, c3, out=seg)
        seg += c2
        seg *= dx
        seg += c1
        seg *= dx
        seg += c0
    return out


def _tail_far_contribution(f, s):
    """int_{|y|>L} tail(y) |t-y|^(-1-2s) dy at every node.

    Node i lies d_i = (i + 1/2) h from the left end and d_(n-1-i) from the
    right one, and either end's integral is e (limit + coef G) at that
    distance (`_TailTable`). So G is read once off its spline at every d_k,
    d turns into the exact end factor e in place, and the right end's terms
    are the left end's formula in reverse node order.
    """
    tail = f.tail
    tab = _tail_table(f.grid, s, tail.power)
    e = np.arange(0.5, f.grid.n_points)[:, None]
    e *= f.grid.h
    g = _spline_at_sorted(tab.d, tab.c, e[:, 0])[:, None]
    e **= -2.0 * s
    e /= 2.0 * s
    out = g * tail.coef_neg
    out += tail.limit_neg
    out *= e
    right = g * tail.coef_pos
    right += tail.limit_pos
    right *= e
    out += right[::-1]
    return out


def tail_quad_abserr(f, s):
    """Largest error estimate behind the tail correction of f at order s.

    An absolute estimate: the largest gap between the 12-node and the
    24-node panel rules over the table's integrals. It bounds the 12-node
    rule's error; the 24-node values the route uses are far closer, within
    a few ulp of the closed form L^-a / a 2F1(1+2s, a; a+1; tau/L). f must
    be a line field with a tail model, and s in (0, 1/2], as for the
    quadrature route.
    """
    _check_quadrature_input(f, s)
    if f.tail is None:
        raise ValueError("tail_quad_abserr needs a field with a tail model")
    return float(np.max(_tail_table(f.grid, s, f.tail.power).abserr))


def riesz_transform(f):
    """Order-zero multiplier -i sign(frequency); the mean and the Nyquist
    mode map to zero."""
    return Field(f.grid, rfft_multiply(f, -1j * np.sign(rfft_frequencies(f.grid))))


def inverse_quarter_laplacian(f):
    """Multiplier |xi|^(-1/2) on nonzero frequencies, zero mode mapped to 0.

    Circle fields must be mean-zero (the inverse does not exist on constants).
    """
    if isinstance(f.grid, CircleGrid):
        mean = np.abs(f.rfft()[0]) / f.grid.n_points
        scale = np.max(np.abs(f.samples)) or 1.0
        if np.any(mean > 1e-10 * scale):
            raise ValueError("inverse quarter-Laplacian needs a mean-zero field")
    freq = rfft_frequencies(f.grid)
    with np.errstate(divide="ignore"):
        mult = freq ** (-0.5)
    mult[0] = 0.0
    return Field(f.grid, rfft_multiply(f, mult))


def poisson_kernel_line(t, x):
    """Closed forms G, dG/dt, dG/dx of the half-plane Poisson kernel."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    d = x * x + t * t
    G = t / (np.pi * d)
    dG_dt = (x * x - t * t) / (np.pi * d * d)
    dG_dx = -2.0 * x * t / (np.pi * d * d)
    return G, dG_dt, dG_dx


def poisson_kernel_circle(t, theta):
    """Periodic Poisson kernel as the mass-one Fourier series and derivatives.

    F(t, theta) = (1/2pi) sum_n e^(-t|n|) e^(i n theta); the geometric sum is
    evaluated in closed form, which equals the series to machine precision.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    theta = np.asarray(theta, dtype=float)
    q = np.exp(-t)
    c = np.cos(theta)
    D = 1.0 - 2.0 * q * c + q * q
    F = (1.0 - q * q) / (2.0 * np.pi * D)
    # d/dtheta [(1-q^2)/D] = -(1-q^2) (2 q sin) / D^2
    dF_dtheta = -(1.0 - q * q) * 2.0 * q * np.sin(theta) / (2.0 * np.pi * D * D)
    # d/dt with dq/dt = -q
    dD_dt = 2.0 * q * c - 2.0 * q * q
    dF_dt = (2.0 * q * q * D - (1.0 - q * q) * dD_dt) / (2.0 * np.pi * D * D)
    return F, dF_dt, dF_dtheta


def poisson_kernel_circle_printed(t, theta):
    """Variant closed form without the leading 1/(2 pi), kept for comparison.

    Measured: this equals exactly 2 pi times the mass-one series above.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    theta = np.asarray(theta, dtype=float)
    e2, e1 = np.exp(2.0 * t), np.exp(t)
    D = e2 - 2.0 * e1 * np.cos(theta) + 1.0
    F = (e2 - 1.0) / D
    dF_dt = -2.0 * e1 * (e2 * np.cos(theta) - 2.0 * e1 + np.cos(theta)) / (D * D)
    dF_dtheta = -(e2 - 1.0) * 2.0 * e1 * np.sin(theta) / (D * D)
    return F, dF_dt, dF_dtheta


def line_convolve(f, g):
    """Periodized convolution (f star g) of two line fields on the same grid.

    Computed through physical-phase transforms so the result is sampled at
    the cell-centered nodes themselves (a plain index convolution would land
    half a cell off).
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    x0 = f.grid.nodes()[0]
    phase = np.exp(-1j * rfft_frequencies(f.grid) * x0)
    return Field(f.grid, rfft_multiply(f, phase[:, None] * g.rfft()) * f.grid.h)


_BLOCK = 256  # fine intervals per fitted block of the spline

# A block's B-spline coefficients come from the field's trigonometric
# interpolant by Gaussian gridding (Greengard & Lee, SIAM Rev. 46(3), 2004),
# over the band its spectrum occupies: the fewest n_band = n / 2^j nodes
# whose rfft bins 0..n_band/2 hold every bin above RESOLVED of the largest
# (_band), as FINUFFT sizes its fine grid from the modes it keeps, not from
# the samples (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41(5),
# 2019). The build samples that interpolant _OVERSAMPLE times per band node,
# each frequency nu (in cycles per oversampled sample,
# |nu| <= 1/(2 _OVERSAMPLE)) divided by exp(-pi nu^2 / _BETA) and multiplied
# by the cubic B-spline prefilter 6 / (4 + 2 cos(2 pi k / (refine n))) on
# rfft bin k, which solves the periodic spline's condition
# (c[j-1] + 4 c[j] + c[j+1]) / 6 = fine sample j for its coefficients c
# (Unser, Aldroubi & Eden, 1993). A fine value is then the unit-area
# Gaussian filter sqrt(_BETA) exp(-pi _BETA d^2) summed over the 2 _SPREAD
# samples nearest it, d samples away. This _BETA gives the filter's
# truncation and its aliasing the same size, exp(-pi (R - 1/2) S / R) before
# deconvolution, with R = _OVERSAMPLE and S = _SPREAD; both stay the same
# relative to the band, and so does the factor at its edge. Against the
# exact zero-padded refinement, R = 2 and S = 16 measure relative errors of
# 2e-16 (a Lorentzian at 2^20 nodes) and 2e-15 (white noise up to the
# Nyquist frequency, refine 4 to 49); S = 12 lets white noise reach 1e-12.
#
# A block's fit multiplies the grid's windows by the filter's columns, one
# per offset of the fine nodes from the samples (refine n / n_band of them,
# a period), so it computes whole periods of fine nodes, at least two. The
# band keeps at most _BAND_REFINE fine nodes per band node, since a period
# past _BLOCK would more than double a block's work; at 16 a block computes
# 288 fine values for its 259. Fitting every block of a 2^16-node field
# (m = 2, refine 4) took 28-37 ms at the full band (4 columns), 27-30 ms at
# 16 columns and 27-28 ms at 64 (2-core VM, best of 25).
_OVERSAMPLE = 2
_SPREAD = 16
_BETA = (_OVERSAMPLE - 0.5) / (_OVERSAMPLE * _SPREAD)
_BAND_REFINE = 16


@lru_cache(maxsize=4)
def _deconvolution(n, refine):
    """The build's factor on rfft bins 0..n/2, read-only, shape (n/2 + 1, 1)."""
    k = np.arange(n // 2 + 1)
    nu = k / (_OVERSAMPLE * n)
    fac = np.exp(np.pi / _BETA * nu * nu) * 6.0 / (4.0 + 2.0 * np.cos(2.0 * np.pi / (refine * n) * k))
    fac.flags.writeable = False
    return fac[:, None]


def line_interpolant(f, multiplier=None):
    """Callable evaluating a line field anywhere, via spectral refinement.

    Interpolates the field's trigonometric interpolant, sampled refine =
    max(4, ceil(h / 0.008)) times per node (a refined spacing near 0.008 or
    below), with the periodic cubic spline through all of those fine
    samples, and falls back to the tail model outside the node range. Good
    to ~1e-9 for smooth well-resolved fields.

    The build keeps the band of f's spectrum (_band). The Nyquist mode of a
    full band refines to the cosine through its samples (the rule of
    geometry.rfft_resize), so the interpolant reproduces every sample at
    the field's own nodes; a cut band reproduces them to within the bins it
    drops, 1e-13 of the maximum or less (5e-16 on check 08's Lorentzian,
    which keeps n/4; white noise keeps n).

    With a multiplier, the callable evaluates the Fourier multiplier applied
    to f instead, built straight from the band of f's own spectrum times
    the multiplier on those bins (one value per rfft bin, for every
    component alike or one column per component, as in
    geometry.rfft_multiply). The product keeps only the real parts of bins
    0 and n/2, as irfft would, so the result equals line_interpolant of
    Field(f.grid, rfft_multiply(f, multiplier)) to round-off without
    leaving the spectrum. f's tail model is not the tail of its image, so a
    multiplied interpolant has none, and a query outside the grid raises.

    The spline (_SplineInterpolant) is fitted block by block where it is
    queried and kept for later calls, so the cost follows the queries, not
    the grid; a block's fit solves nothing.
    """
    if not isinstance(f.grid, LineGrid):
        raise TypeError("expected a line field")
    refine = max(4, int(np.ceil(f.grid.h / 0.008)))
    spec = f.rfft()
    keep = _band(spec, refine) // 2 + 1
    if multiplier is None:
        return _SplineInterpolant(f.grid, spec[:keep], f.tail, refine)
    band = spec[:keep] * np.reshape(multiplier, (len(multiplier), -1))[:keep]
    # irfft keeps only the real parts of bins 0 and n/2 (kept in a full band)
    band[:: len(spec) - 1] = band[:: len(spec) - 1].real
    return _SplineInterpolant(f.grid, band, None, refine)


def _band(spec, refine):
    """The nodes n_band = n / 2^j of a line build from the rfft spectrum spec
    on n nodes, refined refine times: the fewest whose bins 0..n_band/2 hold
    every bin above RESOLVED of the largest (geometry.tail_ratio), with at
    most _BAND_REFINE fine nodes per node of the band."""
    mag = np.abs(spec)
    n = n_band = 2 * (len(spec) - 1)
    while (n_band % 4 == 0 and 2 * refine * n <= _BAND_REFINE * n_band
           and tail_ratio(mag, n_band // 4 + 1) <= RESOLVED):
        n_band //= 2
    return n_band


class _SplineInterpolant:
    """The periodic cubic spline through the refine n fine samples of a
    field's trigonometric interpolant, for `line_interpolant` and
    `halfharmonic._circle_evaluator`, built from `band`, the rfft bins
    0..n_band/2 of the values on `grid` (shape (n_band/2 + 1, m), n_band
    dividing n). Interval i, from fine node i to i + 1, is a cubic in the
    distance from node i, kept in four contiguous (rows, m) tables, highest
    power first; a query of shape S gathers one row of each and returns
    S + (m,).

    On a line, the tables fill block by block as queries reach them (_fit),
    under a lock, since calls may come from several threads; `tail` answers
    queries outside the node range, or None rejects them. On a circle, fine
    node k sits at angle k h / refine, every block is fitted at build, so
    row i holds interval i, and a call wraps any real angle's interval
    modulo refine n.
    """

    def __init__(self, grid, band, tail, refine):
        n, n_band = grid.n_points, 2 * (len(band) - 1)
        self._n_fine = refine * n
        self._dx = grid.h / refine
        self._periodic = isinstance(grid, CircleGrid)
        # on a line, fine node k sits at -L + h/2 + (k - n_wrap) h/refine: the
        # first n_wrap = (refine - 1) // 2 of them lie below the field's first
        # node, where the periodic interpolant continues from beyond L
        self._n_wrap = 0 if self._periodic else (refine - 1) // 2
        self._lo = 0.0 if self._periodic else -grid.half_width + 0.5 * grid.h - self._n_wrap * self._dx
        self._hi = self._lo + (self._n_fine - 1) * self._dx
        self._tail = tail
        self._m = band.shape[1]
        # the deconvolved grid, one row per component: sample j sits
        # j h n / (_OVERSAMPLE n_band) past the field's first node, and the
        # band's bins are scaled to its size as in geometry.rfft_resize
        refine_band = refine * n // n_band  # fine nodes per node of the band
        size, fac = _OVERSAMPLE * n_band, _deconvolution(n_band, refine_band)
        spec = np.zeros((size // 2 + 1, self._m), dtype=complex)
        np.multiply(band, fac * (size / n), out=spec[: n_band // 2 + 1])
        if n_band == n:  # a full band's bin n/2 splits between +-n/2
            spec[n // 2] *= 0.5
        self._grid = np.fft.irfft(spec, size, axis=0).T
        # the fine nodes repeat their offsets from the samples every
        # _period = refine_band nodes, _OVERSAMPLE samples: node a _period + p
        # sits at sample _OVERSAMPLE a + pos[p]. Column p of the filter weighs
        # the window of samples from _OVERSAMPLE a - _SPREAD + 1 on, zero but
        # for the 2 _SPREAD nearest that node, so one window times the filter
        # gives a whole period of fine values
        self._period = refine_band
        pos = _OVERSAMPLE * np.arange(refine_band) / refine_band
        row = np.arange(2 * _SPREAD + _OVERSAMPLE - 1)[:, None]
        d = row - (_SPREAD - 1) - pos
        near = (row >= np.floor(pos)) & (row < np.floor(pos) + 2 * _SPREAD)
        self._filter = np.where(near, np.sqrt(_BETA) * np.exp(-np.pi * _BETA * d * d), 0.0)
        # a line evaluates intervals 0..n_fine-2, a circle all n_fine
        n_blocks = -(-(self._n_fine - (not self._periodic)) // _BLOCK)
        self._slot = np.full(n_blocks, -1, dtype=np.intp)
        # fitted blocks fill the tables' first _n_fitted * _BLOCK rows; their
        # capacity doubles as blocks arrive, up to the whole grid's
        self._coef = tuple(np.empty((4, 0, self._m)))
        self._n_fitted = 0
        self._lock = threading.Lock()
        if self._periodic:
            self._fit(np.arange(n_blocks))

    def _fit(self, blocks):
        """Fit the blocks among `blocks` that have no coefficients yet.

        Interval i reads the B-spline coefficients c[i - 1 .. i + 2], so a
        new block spreads the _BLOCK + 3 from the node before it on and turns
        each 4 into one interval's cubic. Each block reads one segment of the
        grid, wrapped around its period, from a whole period of fine nodes on.
        Its fine values are one polyphase product: the segment's windows of
        the filter's length, one every _OVERSAMPLE samples, times the filter
        columns. Each coefficient is a dot product of fixed length, so a node
        gets the same value whichever blocks share the call.
        """
        new = np.flatnonzero((np.bincount(blocks, minlength=len(self._slot)) > 0) & (self._slot < 0))
        if len(new) == 0:
            return
        period, m, dx = self._period, self._m, self._dx
        first, offset = np.divmod(new * _BLOCK - 1 - self._n_wrap, period)
        n_periods = -(-(period + _BLOCK + 2) // period)
        rows = len(self._filter)
        span = _OVERSAMPLE * (n_periods - 1) + rows
        seg = np.take(self._grid, _OVERSAMPLE * first[:, None] - (_SPREAD - 1) + np.arange(span),
                      axis=1, mode="wrap").reshape(-1, span)
        fine = sliding_window_view(seg, rows, axis=1)[:, ::_OVERSAMPLE] @ self._filter
        # c is (block, interval, component), the tables' order
        fine = fine.reshape(m, len(new), n_periods * period).transpose(1, 2, 0)
        c = fine[np.arange(len(new))[:, None], offset[:, None] + np.arange(_BLOCK + 3)]
        c0, c1, c2, c3 = c[:, :-3], c[:, 1:-2], c[:, 2:-1], c[:, 3:]
        used, need = self._n_fitted * _BLOCK, (self._n_fitted + len(new)) * _BLOCK
        if need > len(self._coef[0]):
            grown = np.empty((4, min(max(need, 2 * len(self._coef[0])), len(self._slot) * _BLOCK), m))
            for table, old in zip(grown, self._coef):
                table[:used] = old[:used]
            self._coef = tuple(grown)
        for table, power in zip(self._coef,
                                ((c3 - c0 + 3.0 * (c1 - c2)) / (6.0 * dx ** 3),
                                 (c0 - 2.0 * c1 + c2) / (2.0 * dx * dx),
                                 (c2 - c0) / (2.0 * dx),
                                 (c0 + 4.0 * c1 + c2) / 6.0)):
            table[used:need] = power.reshape(-1, m)
        self._slot[new] = self._n_fitted + np.arange(len(new))
        self._n_fitted += len(new)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self._periodic:
            f = np.floor(x / self._dx)
            i = f.astype(np.intp)
            i %= self._n_fine
            return _horner(self._coef, i, (x - f * self._dx)[..., None])
        res = np.empty(x.shape + (self._m,))
        inside = (x >= self._lo) & (x <= self._hi)
        p = x[inside]
        i = np.clip(np.floor((p - self._lo) / self._dx).astype(np.intp), 0, self._n_fine - 2)
        block = i // _BLOCK
        with self._lock:
            self._fit(block)
            rows = self._slot[block] * _BLOCK + i % _BLOCK
            # later fits write only rows past these, or into a grown copy
            coef = self._coef
        res[inside] = _horner(coef, rows, (p - (self._lo + i * self._dx))[:, None])
        if not np.all(inside):
            if self._tail is None:
                raise ValueError("evaluation outside the grid needs a tail model")
            res[~inside] = self._tail.eval(x[~inside])
        return res

    def derivative(self):
        """The derivative of a circle's spline, on the same intervals and
        tables: (3a, 2b, c) for a cubic (a, b, c, d)."""
        if not self._periodic:
            raise TypeError("only a circle's spline has a derivative")
        dev = copy.copy(self)
        dev._coef = tuple(k * table for k, table in zip((3, 2, 1), self._coef))
        return dev


def _horner(tables, rows, t):
    """Horner in place on one np.take of `rows` per table, highest power first."""
    out = np.take(tables[0], rows, axis=0)
    for table in tables[1:]:
        out *= t
        out += np.take(table, rows, axis=0)
    return out
