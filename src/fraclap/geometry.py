"""Grids on the truncated line and the circle, plus the sampled-field container.

Every other module works with Field objects built here. Line grids are
cell-centered so that x = 0 (and +-1) never lands on a node; profiles like
|x|^(-1/2) stay finite at every sample point.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LineGrid",
    "CircleGrid",
    "TailModel",
    "Field",
    "field_from_function",
    "even_part",
    "odd_part",
    "line_integral",
    "gauss_legendre",
    "panel_rule",
    "rfft_frequencies",
    "rfft_multiply",
    "rfft_resize",
    "tail_ratio",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
]

DEFAULT_LINE_POINTS = 2 ** 16
DEFAULT_LINE_HALF_WIDTH = 1000.0
DEFAULT_CIRCLE_POINTS = 4096
RESOLVED = 1e-13  # tail ratio (tail_ratio) at or below which a spectrum counts as resolved


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
        if not np.isfinite(self.h):
            raise ValueError("half_width %r gives a non-finite spacing 2L/n" % self.half_width)

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
        x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
        pos = x >= 0
        with np.errstate(divide="ignore"):
            decay = np.abs(x) ** (-self.power)  # inf at x = 0
        return (np.where(pos, self.limit_pos, self.limit_neg)
                + decay * np.where(pos, self.coef_pos, self.coef_neg))

    def mean_limit(self):
        return 0.5 * (self.limit_pos + self.limit_neg)


class Field:
    """Sampled m-component field on a grid. Samples shape (n_points, m).

    Immutable by convention: operations return new Fields. The samples are
    read-only. A Field copies the array its caller gives it; library
    operators hand over the fresh float array they have just computed
    (Field._adopt), which nothing else holds, without a copy. The spectrum
    is the plain FFT of the samples along axis 0, computed on each call;
    rfft is its real-input half, computed on first use, then cached
    read-only.
    A derived field carries a tail model only where its maker knows the
    model holds for the new samples: arithmetic (+ and - with a Field or a
    scalar, * by a scalar) returns a Field with no tail model, since it moves
    the limits the model records, and with_samples attaches only the tail
    its caller passes.
    """

    def __init__(self, grid, samples, tail=None):
        self._set_samples(grid, np.array(samples, dtype=float), tail)  # private copy

    @classmethod
    def _adopt(cls, grid, samples, tail=None):
        """A Field that keeps `samples` itself: a float array its maker has
        just computed and holds no other reference to. Same rules as
        __init__, no copy."""
        f = cls.__new__(cls)
        f._set_samples(grid, samples, tail)
        return f

    def _set_samples(self, grid, samples, tail):
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
        self._rfft = None

    @property
    def m(self):
        return self.samples.shape[1]

    def spectrum(self):
        return np.fft.fft(self.samples, axis=0)

    def rfft(self):
        if self._rfft is None:
            self._rfft = np.fft.rfft(self.samples, axis=0)
            self._rfft.flags.writeable = False
        return self._rfft

    def with_samples(self, samples, tail=None):
        return Field(self.grid, samples, tail)

    def is_circle(self):
        return isinstance(self.grid, CircleGrid)

    def __add__(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            other = other.samples
        return Field(self.grid, self.samples + other)

    def __sub__(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            other = other.samples
        return Field(self.grid, self.samples - other)

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
    """The even part (f(x) + f(-x)) / 2, with the symmetrised tail model: each
    side's limit and coefficient the mean of the two sides'."""
    t = f.tail
    if t is not None:
        t = TailModel.even(t.power, 0.5 * (t.coef_pos + t.coef_neg),
                           0.5 * (t.limit_pos + t.limit_neg), m=t.m)
    return Field(f.grid, 0.5 * (f.samples + _reflect(f)), t)


def odd_part(f):
    """The odd part (f(x) - f(-x)) / 2, with the antisymmetrised tail model:
    the positive side's limit and coefficient half the difference of the
    two sides', the negative side's their negatives."""
    t = f.tail
    if t is not None:
        t = TailModel.odd(t.power, 0.5 * (t.coef_pos - t.coef_neg),
                          0.5 * (t.limit_pos - t.limit_neg), m=t.m)
    return Field(f.grid, 0.5 * (f.samples - _reflect(f)), t)


def line_integral(f):
    """Integral over the real line, midpoint rule plus the analytic tail.

    With a tail model limit + coef |x|^(-p), the |x| > L remainder is
    coef * L^(1-p)/(p-1) per side (p > 1 required; nonzero limits rejected).
    """
    if not isinstance(f.grid, LineGrid):
        raise TypeError("line_integral needs a line field")
    total = f.grid.h * f.samples.sum(axis=0)
    if f.tail is not None:
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

    Newton's method on the three-term recurrence from Tricomi's initial
    guesses (cf. Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013), run on
    the roots in [0, 1) and mirrored, so x == -x[::-1] and w == w[::-1] bit
    for bit and the middle node of an odd n is exactly 0.0. A root stops
    once its Newton step falls below 1e-13; P_n' is then carried to the
    final root through the Legendre ODE, and w = 2 / ((1 - x^2) P_n'^2).
    Against a long-double reference at n = 2000 the nodes err by 6e-17 and
    the weights by 9.4e-12 relative (scipy's roots_legendre: 1.8e-8 near
    the ends). One rule costs O(n^2) flops in O(n) array passes: 18-30 ms
    at n = 2000 on a 2-core VM, against 140 ms for roots_legendre.

    Computed once per n and shared by every caller, so both arrays are
    read-only.
    """
    m = int(n)
    if n < 1 or n != m:
        raise ValueError("n must be a positive integer.")
    theta = np.pi * (4.0 * np.arange(1, m // 2 + 1) - 1.0) / (4.0 * m + 2.0)
    x = (1.0 - (m - 1.0) / (8.0 * m ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * m ** 4)) * np.cos(theta)
    if m % 2:
        x = np.append(x, 0.0)
    dp = np.empty_like(x)
    todo = np.arange(x.size)
    while todo.size:
        t = x[todo]
        p, p_prev = _legendre_pair(m, t)
        one_minus_t2 = (1.0 - t) * (1.0 + t)
        slope = m * (p_prev - t * p) / one_minus_t2
        step = p / slope
        x[todo] = t - step
        # P_n' at the stepped root: one Taylor term, P_n'' from the ODE
        dp[todo] = slope - step * (2.0 * t * slope - m * (m + 1.0) * p) / one_minus_t2
        todo = todo[np.abs(step) >= 1e-13]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # mirror; an odd rule's middle node 0 appears once
    keep = x.size - m % 2
    x = np.concatenate((-x[:keep], x[::-1]))
    w = np.concatenate((w[:keep], w[::-1]))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _legendre_pair(n, x):
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, in place."""
    p_prev, p = np.ones_like(x), x.copy()
    a, b = np.empty_like(x), np.empty_like(x)
    for j in range(2, n + 1):
        # P_j = ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j; no operation
        # writes over its own input, which numpy runs several times slower
        # on the one-element arrays of the last Newton passes
        np.multiply(x, p, out=a)
        np.multiply(a, (2.0 * j - 1.0) / j, out=b)
        np.multiply(p_prev, (j - 1.0) / j, out=a)
        np.subtract(b, a, out=p_prev)
        p_prev, p = p, p_prev
    return p, p_prev


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

    Half-size route: a real mult on a line field whose columns are all
    exactly even, or all exactly odd, about the grid centre (node j <->
    n-1-j) transforms only the right half, a DCT-II scaled by mult[:n/2]
    for even fields and a DST-II scaled by mult[1:n/2+1] for odd ones (the
    last DST bin is the Nyquist mode, so the rule above holds unchanged).
    The output is then exactly even or odd, agrees with the rfft route to
    round-off, and f.rfft() is not computed or cached.
    """
    mult = np.reshape(mult, (len(mult), -1))
    parity = _line_parity(f) if np.isrealobj(mult) else 0
    if not parity:
        return np.fft.irfft(mult * f.rfft(), f.grid.n_points, axis=0)
    import scipy.fft
    half = f.grid.n_points // 2
    if parity > 0:
        forward, inverse, bins = scipy.fft.dct, scipy.fft.idct, mult[:half]
    else:
        forward, inverse, bins = scipy.fft.dst, scipy.fft.idst, mult[1:half + 1]
    spec = forward(f.samples[half:], type=2, axis=0)
    spec *= bins
    out = np.empty(f.samples.shape)
    out[half:] = inverse(spec, type=2, axis=0, overwrite_x=True)
    np.multiply(out[half:][::-1], parity, out=out[:half])
    return out


def _line_parity(f):
    """1 if every column of a line field is exactly even about the grid
    centre, -1 if every column is exactly odd, else 0. The outermost pair
    is compared first, so most asymmetric fields cost O(1)."""
    if not isinstance(f.grid, LineGrid):
        return 0
    s = f.samples
    right, left = s[len(s) // 2:], s[len(s) // 2 - 1::-1]
    if np.array_equal(s[0], s[-1]) and np.array_equal(right, left):
        return 1
    if np.array_equal(s[0], -s[-1]) and np.array_equal(right, -left):
        return -1
    return 0


def tail_ratio(mag, k):
    """max mag[k:] / max mag for the magnitudes mag = |spec| of an rfft
    spectrum (bins along axis 0, all columns together): the largest bin from
    bin k on over the largest overall. 0 if mag is all zero. A caller that
    reads several bins takes the magnitudes once.
    """
    return mag[k:].max() / max(mag.max(), np.finfo(float).tiny)


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
