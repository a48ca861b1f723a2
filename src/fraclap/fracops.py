"""Fractional Laplacians, the Riesz transform, and Poisson kernels.

Two routes to (-Delta)^s on the line: the Fourier multiplier |xi|^(2s) on the
periodized grid, and a principal-value quadrature of the singular integral
int (f(t) - f(s)) / |t - s|^(1+2s) ds. The quadrature route exposes two
normalizations: "paper" is the bare integral, "normalized" multiplies by
C(1,s) = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|) so that it matches the
multiplier route.
"""

import threading
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import gamma as _gamma

from .geometry import (CircleGrid, Field, LineGrid, rfft_frequencies,
                       rfft_multiply, rfft_resize)

__all__ = [
    "singular_constant",
    "frac_laplacian_circle",
    "frac_laplacian_line_spectral",
    "frac_laplacian_line_quadrature",
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


def frac_laplacian_line_quadrature(f, s, convention="paper"):
    """Principal-value evaluation of the singular-integral fractional Laplacian.

    For every node t: sum over symmetric offsets r = jh of
    (2 f(t) - f(t+r) - f(t-r)) r^(-1-2s) h, computed with one zero-padded
    rfft/irfft pair, plus a local Taylor term for r < h/2 and an analytic correction for the
    part of the line beyond the grid (tail model required for slow decay).
    Valid for s in (0, 1/2].
    """
    if not isinstance(f.grid, LineGrid):
        raise TypeError("expected a line field")
    if not 0 < s <= 0.5:
        raise ValueError("quadrature route covers s in (0, 1/2]")
    if convention not in ("paper", "normalized"):
        raise ValueError("convention must be 'paper' or 'normalized'")
    _check_line_boundary(f, "frac_laplacian_line_quadrature",
                         "the far field is treated as zero")
    n, h, L = f.grid.n_points, f.grid.h, f.grid.half_width
    u = f.samples
    j = np.arange(1, n)
    w = (j * h) ** (-1.0 - 2.0 * s) * h

    # pair sums sum_j w_j (u[i+j] + u[i-j]) as one zero-padded transform
    # pair: convolution with w (the u[i-j] half) plus cross-correlation with
    # w (the u[i+j] half) multiplies the spectrum of u by fw + conj(fw).
    # Out-of-range samples contribute zero here and are replaced by the tail
    # correction below.
    fw = np.fft.rfft(np.concatenate([[0.0], w]), 2 * n)
    fu = np.fft.rfft(u, 2 * n, axis=0)
    pair_sums = np.fft.irfft(fu * (2.0 * fw.real)[:, None], 2 * n, axis=0)[:n]

    w_total = np.concatenate([[0.0], np.cumsum(w)])  # w_total[k] = sum of first k weights
    x = f.grid.nodes()
    idx = np.arange(n)
    # number of in-range offsets on each side
    k_right = n - 1 - idx
    k_left = idx
    out = (w_total[k_right] + w_total[k_left])[:, None] * u - pair_sums

    # local part: int_0^(h/2) (2f(t) - f(t+r) - f(t-r)) r^(-1-2s) dr
    # with the integrand ~ -f''(t) r^(1-2s)
    fpp = np.empty_like(u)
    fpp[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
    fpp[0] = fpp[1]
    fpp[-1] = fpp[-2]
    out -= fpp * (0.5 * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    # beyond-grid part: int over |y| > L of (f(t) - f(y)) |t-y|^(-1-2s) dy.
    # The f(t) piece is analytic; the f(y) piece uses the tail model on a
    # coarse set of nodes (it is a smooth function of t) and is interpolated.
    dist_r = L - x
    dist_l = L + x
    out += u * (dist_r ** (-2.0 * s) + dist_l ** (-2.0 * s))[:, None] / (2.0 * s)
    if f.tail is not None:
        out -= _tail_far_contribution(f, s)

    if convention == "normalized":
        out = out * singular_constant(s)
    return Field(f.grid, out)


def _tail_far_contribution(f, s):
    """int_{|y|>L} tail(y) |t-y|^(-1-2s) dy at every node, interpolated.

    Smooth in t, so 65 Chebyshev-like nodes and a cubic spline are plenty.
    """
    grid, tail = f.grid, f.tail
    L = grid.half_width
    x = grid.nodes()
    # clustered toward the ends, where the correction varies fastest, but
    # kept strictly inside the node range
    t_max = L - 0.5 * grid.h
    t_nodes = t_max * np.sin(np.linspace(-0.5 * np.pi, 0.5 * np.pi, 65))

    def one_side(tn, sign):
        # int_L^inf (limit + coef y^-p) (y - sign*tn)^(-1-2s) dy  for the
        # right end (sign=+1); mirrored for the left end.
        lim = tail.limit_pos if sign > 0 else tail.limit_neg
        coef = tail.coef_pos if sign > 0 else tail.coef_neg
        base = (L - sign * tn) ** (-2.0 * s) / (2.0 * s) * lim
        p = tail.power
        val, _ = quad(lambda y: y ** (-p) * (y - sign * tn) ** (-1.0 - 2.0 * s),
                      L, np.inf, epsabs=1e-13, epsrel=1e-11)
        return base + coef * val

    vals = np.empty((len(t_nodes), f.m))
    for i, tn in enumerate(t_nodes):
        vals[i] = one_side(tn, +1) + one_side(tn, -1)
    return CubicSpline(t_nodes, vals, axis=0)(x)


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


# The interpolant fits its cubic spline lazily, in blocks of this many fine
# intervals; each block's fit reaches this many extra nodes past the block.
# A cubic spline's response to its end conditions decays like
# (2 - sqrt 3)^k ~ 0.27^k over k nodes, so 48 nodes of margin make a windowed
# fit equal to the global not-a-knot spline up to round-off.
_BLOCK = 256
_MARGIN = 48


def line_interpolant(f):
    """Callable evaluating a line field anywhere, via spectral refinement.

    Zero-pads the spectrum by a factor refine = max(4, ceil(h / 0.008)),
    which keeps the refined spacing near 0.008 or below, interpolates the
    oversampled values with the not-a-knot cubic spline through all of
    them, and falls back to the tail model outside the node range. Good to
    ~1e-9 for smooth well-resolved fields.

    The Nyquist mode refines to the cosine through its samples (the rule of
    geometry.rfft_resize), so the interpolant reproduces every sample at the
    field's own nodes.

    The spline is fitted only where it is evaluated: the first query in a
    block of fine intervals fits that block, and the interpolant keeps the
    coefficients for later calls, so the cost follows the queries, not the
    grid.
    """
    if not isinstance(f.grid, LineGrid):
        raise TypeError("expected a line field")
    return _LineInterpolant(f, max(4, int(np.ceil(f.grid.h / 0.008))))


class _LineInterpolant:
    """The lazily fitted spline behind `line_interpolant`.

    Calls may come from several threads; a lock guards the coefficient
    table while a call fills and reads it.
    """

    def __init__(self, f, refine):
        n_fine = refine * f.grid.n_points
        # refined node k sits at -L + h/2 + k h/refine; the last
        # (refine - 1) // 2 of them lie beyond L and wrap around to the
        # front, so a roll puts the fine values in increasing node order
        n_wrap = (refine - 1) // 2
        fine = np.fft.irfft(rfft_resize(f.rfft(), n_fine), n_fine, axis=0)
        self._values = np.roll(fine, n_wrap, axis=0)
        self._dx = f.grid.h / refine
        self._lo = -f.grid.half_width + 0.5 * f.grid.h - n_wrap * self._dx
        self._hi = self._lo + (n_fine - 1) * self._dx
        self._tail = f.tail
        n_blocks = -(-(n_fine - 1) // _BLOCK)
        self._slot = np.full(n_blocks, -1, dtype=np.intp)
        # fitted blocks fill the table's first _n_fitted * _BLOCK rows; its
        # capacity doubles as blocks arrive, up to the whole grid's
        self._coef = np.empty((0, 4, f.m))
        self._n_fitted = 0
        self._lock = threading.Lock()

    def _fit(self, blocks):
        """Fit the blocks among `blocks` that have no coefficients yet.

        Each new block gets a window of fine values reaching _MARGIN nodes
        past it, moved inward at the ends of the grid so that the window's
        not-a-knot end is the global spline's there. The nodes are uniform,
        so all windows share one set of relative nodes and a single spline
        fit takes them as columns.
        """
        todo = np.zeros(len(self._slot), dtype=bool)
        todo[blocks] = True
        new = np.flatnonzero(todo & (self._slot < 0))
        if len(new) == 0:
            return
        n_fine, m = self._values.shape
        width = min(_BLOCK + 2 * _MARGIN + 1, n_fine)
        start = np.clip(new * _BLOCK - _MARGIN, 0, n_fine - width)
        windows = self._values[np.arange(width)[:, None] + start]
        spline = CubicSpline(self._dx * np.arange(width), windows.reshape(width, -1), axis=0)
        c = spline.c.reshape(4, width - 1, len(new), m)
        # intervals past the last node land on the window's last interval;
        # no query reads them
        local = np.minimum((new * _BLOCK - start)[:, None] + np.arange(_BLOCK), width - 2)
        rows = c[:, local, np.arange(len(new))[:, None]]
        used, need = self._n_fitted * _BLOCK, (self._n_fitted + len(new)) * _BLOCK
        if need > len(self._coef):
            grown = np.empty((min(max(need, 2 * len(self._coef)), len(self._slot) * _BLOCK), 4, m))
            grown[:used] = self._coef[:used]
            self._coef = grown
        self._coef[used:need] = rows.transpose(1, 2, 0, 3).reshape(-1, 4, m)
        self._slot[new] = self._n_fitted + np.arange(len(new))
        self._n_fitted += len(new)

    def __call__(self, pts):
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        res = np.empty((len(pts), self._values.shape[1]))
        inside = (pts >= self._lo) & (pts <= self._hi)
        p = pts[inside]
        i = np.clip(np.floor((p - self._lo) / self._dx).astype(np.intp), 0, len(self._values) - 2)
        block = i // _BLOCK
        with self._lock:
            self._fit(block)
            c = self._coef[self._slot[block] * _BLOCK + i % _BLOCK]
        t = (p - (self._lo + i * self._dx))[:, None]
        res[inside] = ((c[:, 0] * t + c[:, 1]) * t + c[:, 2]) * t + c[:, 3]
        if not np.all(inside):
            if self._tail is None:
                raise ValueError("evaluation outside the grid needs a tail model")
            res[~inside] = self._tail.eval(pts[~inside])
        return res
