"""Grids on the truncated line and the circle, plus the sampled-field container.

Every other module works with Field objects built here. Line grids are
cell-centered so that x = 0 (and +-1) never lands on a node; profiles like
|x|^(-1/2) stay finite at every sample point.
"""

import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

__all__ = [
    "LineGrid",
    "CircleGrid",
    "TailModel",
    "Field",
    "field_from_function",
    "even_part",
    "odd_part",
    "resample",
    "line_integral",
    "gauss_legendre",
    "panel_rule",
    "rfft_frequencies",
    "rfft_multiply",
    "rfft_resize",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
]

DEFAULT_LINE_POINTS = 2 ** 16
DEFAULT_LINE_HALF_WIDTH = 1000.0
DEFAULT_CIRCLE_POINTS = 4096


@dataclass(frozen=True)
class LineGrid:
    """Uniform cell-centered grid on [-L, L]: x_j = -L + (j + 1/2) h."""

    half_width: float = DEFAULT_LINE_HALF_WIDTH
    n_points: int = DEFAULT_LINE_POINTS

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ValueError("n_points must be even and at least 8")

    @property
    def h(self):
        return 2.0 * self.half_width / self.n_points

    def nodes(self):
        j = np.arange(self.n_points)
        return -self.half_width + (j + 0.5) * self.h

    def reflected_indices(self):
        # x -> -x maps node j to node n-1-j exactly
        return np.arange(self.n_points)[::-1]


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid theta_j = 2 pi j / n_points with n_points = 2 n_modes."""

    n_modes: int = DEFAULT_CIRCLE_POINTS // 2

    def __post_init__(self):
        if self.n_modes < 4:
            raise ValueError("n_modes must be at least 4")

    @property
    def n_points(self):
        return 2 * self.n_modes

    @property
    def h(self):
        return 2.0 * np.pi / self.n_points

    def nodes(self):
        return 2.0 * np.pi * np.arange(self.n_points) / self.n_points

    def reflected_indices(self):
        # theta -> -theta maps node j to node (n - j) mod n
        n = self.n_points
        return (-np.arange(n)) % n


@dataclass(frozen=True)
class TailModel:
    """Algebraic model f(x) ~ limit + coef * |x|^(-power) for |x| beyond the grid.

    Separate limit/coef arrays for the two ends; power is shared. Integral
    operators use this to correct truncation, and the stereographic transfer
    uses the limits to fill the point at infinity.
    """

    power: float
    limit_pos: np.ndarray
    limit_neg: np.ndarray
    coef_pos: np.ndarray
    coef_neg: np.ndarray

    def __post_init__(self):
        for name in ("limit_pos", "limit_neg", "coef_pos", "coef_neg"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))

    @staticmethod
    def even(power, coef, limit=0.0, m=1):
        c = np.broadcast_to(np.asarray(coef, dtype=float), (m,)).copy()
        l = np.broadcast_to(np.asarray(limit, dtype=float), (m,)).copy()
        return TailModel(power, l, l.copy(), c, c.copy())

    @staticmethod
    def odd(power, coef, limit=0.0, m=1):
        c = np.broadcast_to(np.asarray(coef, dtype=float), (m,)).copy()
        l = np.broadcast_to(np.asarray(limit, dtype=float), (m,)).copy()
        return TailModel(power, l, -l, c, -c)

    @property
    def m(self):
        return len(self.limit_pos)

    def eval(self, x):
        """Model values at points x (any sign), shape (len(x), m)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((len(x), self.m))
        pos = x >= 0
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            decay = ax ** (-self.power)
        decay[ax == 0] = np.inf
        out[pos] = self.limit_pos[None, :] + decay[pos, None] * self.coef_pos[None, :]
        out[~pos] = self.limit_neg[None, :] + decay[~pos, None] * self.coef_neg[None, :]
        return out

    def mean_limit(self):
        return 0.5 * (self.limit_pos + self.limit_neg)


class Field:
    """Sampled m-component field on a grid. Samples shape (n_points, m).

    Immutable by convention: operations return new Fields. The spectrum is the
    plain FFT of the samples along axis 0 and rfft its real-input half; each
    is computed on first use, then cached read-only.
    """

    def __init__(self, grid, samples, tail=None):
        samples = np.array(samples, dtype=float)  # private copy
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] != grid.n_points:
            raise ValueError("sample count does not match grid")
        if not np.all(np.isfinite(samples)):
            raise ValueError("field samples must be finite")
        self.grid = grid
        self.samples = samples
        self.samples.flags.writeable = False
        self.tail = tail
        self._spectrum = None
        self._rfft = None

    @property
    def m(self):
        return self.samples.shape[1]

    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = np.fft.fft(self.samples, axis=0)
            self._spectrum.flags.writeable = False
        return self._spectrum

    def rfft(self):
        if self._rfft is None:
            self._rfft = np.fft.rfft(self.samples, axis=0)
            self._rfft.flags.writeable = False
        return self._rfft

    def with_samples(self, samples, tail=None):
        return Field(self.grid, samples, tail if tail is not None else self.tail)

    def is_circle(self):
        return isinstance(self.grid, CircleGrid)

    def component(self, j):
        return Field(self.grid, self.samples[:, j], self.tail)

    def __add__(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            return Field(self.grid, self.samples + other.samples)
        return Field(self.grid, self.samples + other, self.tail)

    def __sub__(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            return Field(self.grid, self.samples - other.samples)
        return Field(self.grid, self.samples - other, self.tail)

    def __mul__(self, scalar):
        return Field(self.grid, self.samples * scalar)

    __rmul__ = __mul__


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def field_from_function(grid, fn, tail=None):
    """Sample fn at the grid nodes. fn may return scalars or m-tuples."""
    x = grid.nodes()
    vals = np.asarray(fn(x), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    elif vals.shape[0] != grid.n_points:
        vals = vals.T
    return Field(grid, vals, tail)


def _reflect(f):
    return f.samples[f.grid.reflected_indices()]


def even_part(f):
    return Field(f.grid, 0.5 * (f.samples + _reflect(f)), f.tail)


def odd_part(f):
    return Field(f.grid, 0.5 * (f.samples - _reflect(f)))


def resample(f, target):
    """Move a field to another grid of the same geometry.

    Circle: trigonometric (the spectrum resized by rfft_resize). Line:
    cubic-spline interpolation of the samples; points outside the source
    domain come from the tail model. Downsampling emits an aliasing warning.
    """
    if isinstance(f.grid, CircleGrid) and isinstance(target, CircleGrid):
        n_src, n_tgt = f.grid.n_points, target.n_points
        if n_tgt < n_src:
            warnings.warn("downsampling a circle field; modes beyond the "
                          "target Nyquist are discarded", RuntimeWarning)
        return Field(target, np.fft.irfft(rfft_resize(f.rfft(), n_tgt), n_tgt, axis=0))
    if isinstance(f.grid, LineGrid) and isinstance(target, LineGrid):
        if target.h > f.grid.h:
            warnings.warn("downsampling a line field; features below the "
                          "target spacing are at aliasing risk", RuntimeWarning)
        x_src = f.grid.nodes()
        x_tgt = target.nodes()
        # spline extrapolation over the outermost half-cell is benign; only
        # points beyond the source domain need the tail model
        inside = np.abs(x_tgt) <= f.grid.half_width
        samples = np.empty((target.n_points, f.m))
        spline = CubicSpline(x_src, f.samples, axis=0)
        samples[inside] = spline(x_tgt[inside])
        if not np.all(inside):
            if f.tail is None:
                raise ValueError("target grid extends beyond the source "
                                 "domain and the field has no tail model")
            samples[~inside] = f.tail.eval(x_tgt[~inside])
        return Field(target, samples, f.tail)
    raise TypeError("resample requires two grids of the same geometry")


def line_integral(f, tail_corrected=True):
    """Integral over the real line, midpoint rule plus the analytic tail.

    With a tail model limit + coef |x|^(-p), the |x| > L remainder is
    coef * L^(1-p)/(p-1) per side (p > 1 required; nonzero limits rejected).
    """
    if not isinstance(f.grid, LineGrid):
        raise TypeError("line_integral needs a line field")
    total = f.grid.h * f.samples.sum(axis=0)
    if tail_corrected and f.tail is not None:
        t = f.tail
        if np.any(t.limit_pos != 0) or np.any(t.limit_neg != 0):
            raise ValueError("tail with nonzero limit is not integrable")
        if t.power <= 1:
            raise ValueError("tail decay too slow to integrate")
        L = f.grid.half_width
        total = total + (t.coef_pos + t.coef_neg) * L ** (1.0 - t.power) / (t.power - 1.0)
    return total if total.size > 1 else float(total[0])


@lru_cache(maxsize=64)
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], exact to degree 2n - 1.

    Computed once per n and shared by every caller, so both arrays are
    read-only.
    """
    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_rule(edges, rule):
    """Composite rule: the rule (x, w) on [-1, 1] mapped onto each panel
    between consecutive edges.

    edges has shape (..., k + 1), one row of panels per leading index.
    Returns nodes mid + half x and weights half w of shape (..., k len(x)),
    panel by panel.
    """
    x, w = rule
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    return ((mid[..., None] + half[..., None] * x).reshape(shape),
            (half[..., None] * w).reshape(shape))


@lru_cache(maxsize=64)
def rfft_frequencies(grid):
    """Nonnegative frequencies of the rfft bins of a field on grid.

    Mode numbers 0..n/2 on the circle, angular frequencies on the line. The
    last bin is the unpaired Nyquist mode (n is even on both grids). Shared
    per grid, so the array is read-only.
    """
    n = grid.n_points
    if isinstance(grid, CircleGrid):
        freq = np.arange(n // 2 + 1, dtype=float)
    else:
        freq = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.h)
    freq.flags.writeable = False
    return freq


def rfft_multiply(f, mult):
    """Samples of the Fourier multiplier `mult` applied to the field f.

    mult holds one value per rfft bin, at the frequencies rfft_frequencies
    (shape (n/2 + 1,) for every component alike, or (n/2 + 1, m)). The
    Nyquist rule: irfft keeps only the real part of the Nyquist bin, so an
    even real multiplier (|xi|^(2s)) scales the Nyquist mode and an odd one
    (i xi, -i sign xi) removes it.
    """
    mult = np.reshape(mult, (len(mult), -1))
    return np.fft.irfft(mult * f.rfft(), f.grid.n_points, axis=0)


def rfft_resize(spec, n_new):
    """The rfft spectrum, on n_new points, of the trigonometric interpolant
    whose rfft on n points is spec (n and n_new even, len(spec) = n/2 + 1).

    Scaled by n_new / n, so irfft(rfft_resize(spec, n_new), n_new) samples
    the interpolant on the new grid. Refining halves the old Nyquist bin,
    splitting it between the frequencies +-n/2, so that mode refines to the
    cosine through its samples. Coarsening drops the bins beyond n_new/2
    and doubles the new Nyquist bin, folding +-n_new/2 back together.
    Refining and then coarsening returns spec.
    """
    n = 2 * (len(spec) - 1)
    keep = min(n, n_new) // 2 + 1
    out = np.zeros((n_new // 2 + 1,) + spec.shape[1:], dtype=complex)
    np.multiply(spec[:keep], n_new / n, out=out[:keep])
    if n_new != n:
        out[keep - 1] *= 0.5 if n_new > n else 2.0
    return out


# ---------------------------------------------------------------------------
# serialization: CSV (portable) and a compact binary format

_MAGIC = b"FLD1"


def save_csv(f, path):
    x = f.grid.nodes()
    header = _grid_header(f.grid) + ",m=%d" % f.m
    data = np.column_stack([x, f.samples])
    np.savetxt(path, data, delimiter=",", header=header,
               fmt="%.17g", comments="# ")


def load_csv(path):
    with open(path) as fh:
        header = fh.readline()
    grid = _grid_from_header(header)
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim == 1:
        data = data[:, None]
    return Field(grid, data[:, 1:])


def save_binary(f, path):
    kind = 0 if isinstance(f.grid, LineGrid) else 1
    param = f.grid.half_width if kind == 0 else 0.0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<bdqq", kind, param, f.grid.n_points, f.m))
        fh.write(np.ascontiguousarray(f.samples).tobytes())


def load_binary(path):
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a field file")
        kind, param, n, m = struct.unpack("<bdqq", fh.read(25))
        payload = np.frombuffer(fh.read(), dtype=np.float64).reshape(n, m)
    grid = LineGrid(param, n) if kind == 0 else CircleGrid(n // 2)
    return Field(grid, payload.copy())


def _grid_header(grid):
    if isinstance(grid, LineGrid):
        return "line,L=%.17g,n=%d" % (grid.half_width, grid.n_points)
    return "circle,n=%d" % grid.n_points


def _grid_from_header(header):
    text = header.lstrip("# ").strip()
    parts = dict(p.split("=") for p in text.split(",")[1:] if "=" in p)
    if text.startswith("line"):
        return LineGrid(float(parts["L"]), int(parts["n"]))
    if text.startswith("circle"):
        return CircleGrid(int(parts["n"]) // 2)
    raise ValueError("unrecognized field header: %r" % header)
