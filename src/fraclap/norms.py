"""Discrete L^p, Lorentz L^(2,1) / L^(2,inf), and half-order Sobolev norms.

The Lorentz norms come from the decreasing rearrangement of |f| with the
spacing-weighted counting measure: sorting the region samples by magnitude
(ties broken by node index, so reports are reproducible) and accumulating
the layer-cake sum exactly. Multi-component fields are measured through the
pointwise euclidean magnitude, so a matrix-valued field stored componentwise
gets its Frobenius norm.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import CircleGrid, LineGrid, rfft_frequencies, rfft_multiply

__all__ = [
    "Region",
    "lp_norm",
    "lorentz_21",
    "lorentz_2inf",
    "lorentz_21_samples",
    "lorentz_2inf_samples",
    "sobolev_half_seminorm",
    "sobolev_half_inner",
    "gagliardo_seminorm_sq",
]


@dataclass(frozen=True)
class Region:
    """Node subset of a grid, held as a boolean mask."""

    grid: object
    mask: np.ndarray

    @staticmethod
    def everything(grid):
        return Region(grid, np.ones(grid.n_points, dtype=bool))

    @staticmethod
    def interval(grid, a, b):
        x = grid.nodes()
        return Region(grid, (x >= a) & (x <= b))

    @staticmethod
    def annulus(grid, center, r, R):
        if not 0 <= r < R:
            raise ValueError("annulus needs 0 <= r < R")
        d = np.abs(grid.nodes() - center)
        if isinstance(grid, CircleGrid):
            d = np.minimum(d, 2 * np.pi - d)
        return Region(grid, (d >= r) & (d <= R))

    def complement(self):
        return Region(self.grid, ~self.mask)

    def count(self):
        return int(self.mask.sum())


def _magnitude(f, region):
    if region is None:
        region = Region.everything(f.grid)
    if region.grid != f.grid:
        raise ValueError("region belongs to a different grid")
    if region.count() == 0:
        raise ValueError("empty region")
    mag = np.sqrt(np.sum(f.samples[region.mask] ** 2, axis=1))
    return mag, f.grid.h


def lp_norm(f, p, region=None):
    """Spacing-weighted p-norm of the pointwise magnitude over the region."""
    if p < 1:
        raise ValueError("p must be at least 1")
    mag, h = _magnitude(f, region)
    return float((h * np.sum(mag ** p)) ** (1.0 / p))


def _rearranged(values, weights):
    # decreasing rearrangement: the magnitudes sorted down (ties by index)
    # and the measure of each superlevel set
    values = np.asarray(values, dtype=float)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), values.shape)
    order = np.argsort(-values, kind="stable")
    return values[order], np.cumsum(weights[order])


def lorentz_21_samples(values, weights):
    """L^(2,1) from magnitudes with attached measures (layer-cake sum)."""
    v, cum = _rearranged(values, weights)
    return float(np.sum(v * np.diff(np.sqrt(cum), prepend=0.0)))


def lorentz_2inf_samples(values, weights):
    """sup over lambda of lambda |{|f| >= lambda}|^(1/2), by rearrangement."""
    v, cum = _rearranged(values, weights)
    return float(np.max(v * np.sqrt(cum)))


def lorentz_21(f, region=None):
    mag, h = _magnitude(f, region)
    return lorentz_21_samples(mag, h)


def lorentz_2inf(f, region=None):
    mag, h = _magnitude(f, region)
    return lorentz_2inf_samples(mag, h)


def sobolev_half_seminorm(f):
    """L2 norm of the quarter-Laplacian image, by the spectral route."""
    return float(np.sqrt(sobolev_half_inner(f, f)))


@lru_cache(maxsize=64)
def _rfft_weights(grid):
    # Parseval on the rfft: each bin 0 < k < n/2 stands for the pair +-k,
    # bin 0 and the Nyquist bin for themselves
    n = grid.n_points
    scale = 2.0 * np.pi / n ** 2 if isinstance(grid, CircleGrid) else grid.h / n
    w = 2.0 * scale * rfft_frequencies(grid)
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


def sobolev_half_inner(f, g):
    """Symmetric bilinear form with sobolev_half_inner(f, f) equal to the
    squared seminorm, sum |xi| Re(F conj G) over the periodized spectra.

    Being symmetric, it gives E(a) - E(b) = sobolev_half_inner(a - b, a + b);
    evaluated that way, the difference of two nearby energies keeps its
    relative precision instead of cancelling.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    a, b = f.rfft(), g.rfft()
    return float(np.sum(_rfft_weights(f.grid) @ (a.real * b.real + a.imag * b.imag)))


def gagliardo_seminorm_sq(f, subsample=1):
    """Double-integral form sum (f(x)-f(y))^2 / (x-y)^2 dx dy.

    Equals 2 pi times the squared spectral seminorm in the continuum; used as
    a validation cross-check, so an O(n^2) loop over a subsampled node set is
    acceptable. Line fields only.
    """
    if not isinstance(f.grid, LineGrid):
        raise TypeError("the double-integral form is implemented on the line")
    x = f.grid.nodes()[::subsample]
    u = f.samples[::subsample]
    h = f.grid.h * subsample
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, np.inf)
    diff = u[:, None, :] - u[None, :, :]
    total = float(np.sum(np.sum(diff ** 2, axis=2) / dx ** 2) * h * h)
    # the excluded diagonal cells contribute f'(x)^2 h^2 each, since the
    # squared difference cancels the kernel there
    du = rfft_multiply(f, 1j * rfft_frequencies(f.grid))[::subsample]
    total += h * (h * float(np.sum(du ** 2)))
    # pairs with one point beyond the box: the kernel mass int_{|y|>L} dy/(x-y)^2
    # is analytic, and for a field that is negligible at the boundary the
    # difference there is just f(x)^2 (both orderings, hence the factor 2)
    L = f.grid.half_width
    fsq = np.sum(u ** 2, axis=1)
    total += 2.0 * h * float(np.sum(fsq * (1.0 / (L - x) + 1.0 / (L + x))))
    return total
