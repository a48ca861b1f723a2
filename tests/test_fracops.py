"""Fractional Laplacians, Riesz transform, Poisson kernels, convolution."""

import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from fraclap import fracops, geometry
from fraclap.fracops import (frac_laplacian_circle, frac_laplacian_line_quadrature,
                             frac_laplacian_line_spectral, inverse_quarter_laplacian,
                             line_convolve, line_interpolant, poisson_kernel_circle,
                             poisson_kernel_circle_printed, poisson_kernel_line,
                             riesz_transform, singular_constant)
from fraclap.geometry import (CircleGrid, Field, LineGrid, TailModel, even_part,
                              field_from_function, odd_part, rfft_frequencies,
                              rfft_multiply)


def _lorentzian_field(grid):
    return field_from_function(grid, lambda x: 1.0 / (1.0 + x * x),
                               tail=TailModel.even(2.0, 1.0))


def test_singular_constant_quarter():
    # C(1, 1/4) = 1 / (2 sqrt(2 pi)): Gamma(3/4) / (sqrt(pi) |Gamma(-1/4)|)
    # with |Gamma(-1/4)| = 4 Gamma(3/4) and sqrt(2) = 4^(1/4) sqrt...
    assert np.isclose(singular_constant(0.25), 1.0 / (2.0 * np.sqrt(2.0 * np.pi)),
                      rtol=1e-14)


def test_circle_multiplier_single_mode():
    g = CircleGrid(32)
    th = g.nodes()
    for k in (1, 3, 7):
        f = field_from_function(g, lambda t: np.cos(k * t))
        out = frac_laplacian_circle(f, 0.25)
        assert np.max(np.abs(out.samples[:, 0] - np.sqrt(k) * np.cos(k * th))) < 1e-12


def test_line_spectral_matches_lorentzian_closed_form():
    # (-Delta)^(1/2) of 1/(1+x^2) is (1-x^2)/(1+x^2)^2
    g = LineGrid(800.0, 2 ** 15)
    f = _lorentzian_field(g)
    out = frac_laplacian_line_spectral(f, 0.5)
    x = g.nodes()
    want = (1.0 - x * x) / (1.0 + x * x) ** 2
    mid = np.abs(x) <= 10.0
    assert np.max(np.abs(out.samples[mid, 0] - want[mid])) < 1e-5


def test_quadrature_conventions_differ_by_constant():
    g = LineGrid(60.0, 2 ** 11)
    f = _lorentzian_field(g)
    s = 0.25
    paper = frac_laplacian_line_quadrature(f, s, convention="paper")
    norm = frac_laplacian_line_quadrature(f, s, convention="normalized")
    ratio = norm.samples / paper.samples
    assert np.allclose(ratio, singular_constant(s), rtol=1e-12)


def test_quadrature_agrees_with_spectral():
    g = LineGrid(200.0, 2 ** 13)
    f = _lorentzian_field(g)
    s = 0.25
    a = frac_laplacian_line_quadrature(f, s, convention="normalized")
    b = frac_laplacian_line_spectral(f, s)
    mid = np.abs(g.nodes()) <= 5.0
    assert np.max(np.abs(a.samples[mid] - b.samples[mid])) < 1e-3


def test_quadrature_converges_at_third_order():
    # observed orders on the Lorentzian at L = 50, h = 0.049 .. 0.0061:
    # 2.988, 2.996, 2.992; the floor sits just below so a lost order fails
    errs = []
    for n in (2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14):
        g = LineGrid(50.0, n)
        x = g.nodes()
        out = frac_laplacian_line_quadrature(_lorentzian_field(g), 0.5,
                                             convention="normalized")
        exact = (1.0 - x * x) / (1.0 + x * x) ** 2
        errs.append(np.max(np.abs(out.samples[:, 0] - exact)[np.abs(x) <= 10.0]))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 2.9), orders


@pytest.mark.parametrize("s,bounds", [(0.5, (1e-13, 1e-10, 1e-8)), (0.25, (2e-11, 2e-9, 1e-7))],
                         ids=["half", "quarter"])
def test_quadrature_matches_the_closed_forms_outside_the_centre(s, bounds):
    # beyond check 03's window |x| <= 10 the far field sets the route's
    # error: on the three bands of |x| it reads 3.6e-15, 3.0e-12 and 9.1e-10
    # at s = 1/2, and 1.8e-12, 2.4e-10 and 1.0e-8 at s = 1/4
    g = LineGrid(1000.0, 2 ** 16)
    x = g.nodes()
    out = frac_laplacian_line_quadrature(_lorentzian_field(g), s, convention="normalized")
    if s == 0.5:
        exact = (1.0 - x * x) / (1.0 + x * x) ** 2
    else:  # Gamma(3/2) Re[(1 + ix)^(3/2)] / (1 + x^2)^(3/2)
        exact = 0.5 * np.sqrt(np.pi) * ((1.0 + 1j * x) ** 1.5).real / (1.0 + x * x) ** 1.5
    err = np.abs(out.samples[:, 0] - exact)
    for (lo, hi), bound in zip([(100.0, 900.0), (900.0, 990.0), (990.0, 1000.0)], bounds):
        band = (np.abs(x) >= lo) & (np.abs(x) < hi)
        assert np.max(err[band]) <= bound, (lo, hi, np.max(err[band]))


def test_spectral_route_converges_at_second_order_in_the_half_width():
    # the spectral route's error on |x| <= 10 is periodization, O(L^-2) for the
    # Lorentzian: at h = 0.05 and L = 125 .. 1000 the errors run from 5.26e-5
    # to 8.22e-7, orders 2.000, 1.999, 1.999; the floor sits just below
    def error(half_width, h):
        g = LineGrid(half_width, int(round(2.0 * half_width / h)))
        x = g.nodes()
        out = frac_laplacian_line_spectral(_lorentzian_field(g), 0.5)
        exact = (1.0 - x * x) / (1.0 + x * x) ** 2
        return np.max(np.abs(out.samples[:, 0] - exact)[np.abs(x) <= 10.0])

    errs = np.array([error(L, 0.05) for L in (125.0, 250.0, 500.0, 1000.0)])
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders >= 1.95), orders
    # the spacing does not enter: halving h leaves the error unchanged to 5 digits
    assert error(250.0, 0.025) == pytest.approx(errs[1], rel=1e-5)


def _far_field_from_tail(f, s):
    # the tail correction with its panel rule and its fit run afresh on each
    # call, in the same operations as the cached table
    L, h, tail = f.grid.half_width, f.grid.h, f.tail
    d = L - (L - 0.5 * h) * np.sin(np.linspace(0.5 * np.pi, -0.5 * np.pi, 65))
    value = fracops.quad(L, L - d, s, tail.power)[0]
    c = fracops._not_a_knot_spline(d, 2.0 * s * d ** (2.0 * s) * value)
    # node i lies (i + 1/2) h from the left end, (n - 1 - i + 1/2) h from the right
    dist = (np.arange(f.grid.n_points) + 0.5) * h
    g = fracops._spline_at_sorted(d, c, dist)[:, None]
    e = (dist ** (-2.0 * s) / (2.0 * s))[:, None]
    return e * (tail.limit_neg + tail.coef_neg * g) + (e * (tail.limit_pos + tail.coef_pos * g))[::-1]


def _two_n_point_quadrature(f, s, convention):
    # the quadrature route as it was before the pair sums were split into a
    # circulant and a skew-circulant product: one 2n-point zero-padded
    # rfft/irfft pair
    n, h, L = f.grid.n_points, f.grid.h, f.grid.half_width
    u = f.samples
    j = np.arange(1, n)
    w = (j * h) ** (-1.0 - 2.0 * s) * h
    fw = np.fft.rfft(np.concatenate([[0.0], w]), 2 * n)
    fu = np.fft.rfft(u, 2 * n, axis=0)
    pair_sums = np.fft.irfft(fu * (2.0 * fw.real)[:, None], 2 * n, axis=0)[:n]
    w_total = np.concatenate([[0.0], np.cumsum(w)])
    x = f.grid.nodes()
    idx = np.arange(n)
    out = (w_total[n - 1 - idx] + w_total[idx])[:, None] * u - pair_sums
    fpp = np.empty_like(u)
    fpp[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
    fpp[0] = fpp[1]
    fpp[-1] = fpp[-2]
    out -= fpp * (0.5 * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    out += u * ((L - x) ** (-2.0 * s) + (L + x) ** (-2.0 * s))[:, None] / (2.0 * s)
    if f.tail is not None:
        out -= _far_field_from_tail(f, s)
    if convention == "normalized":
        out = out * singular_constant(s)
    return out


def _uncached_quadrature(f, s, convention):
    # the quadrature route with every weight, table and tail integral
    # computed on each call, in the same operations as the cached tables
    import scipy.fft
    n, h = f.grid.n_points, f.grid.h
    half = n // 2
    u = f.samples
    w = np.zeros(n + 1)
    w[1:n] = (np.arange(1, n) * h) ** (-1.0 - 2.0 * s) * h
    # the r < h/2 Taylor term is one more weight on offset 1
    kappa = (0.5 * h) ** (2.0 - 2.0 * s) / ((2.0 - 2.0 * s) * h * h)
    w[1] += kappa
    circ_mult = 0.5 * np.fft.rfft(w[:n] + w[n:0:-1]).real
    skew_mult = 0.25 / n * scipy.fft.dct(w[:half] - w[n:half:-1], type=3)
    ends = ((np.arange(n) + 0.5) * h) ** (-2.0 * s) / (2.0 * s) + np.cumsum(w)[:n]
    diag = ends[::-1] + ends
    # a fresh field, so that f's own rfft stays as the route leaves it
    circ = rfft_multiply(Field(f.grid, u), circ_mult)
    a = np.concatenate([2.0 * u[:1], u[1:half] - u[:half:-1]])
    b = np.concatenate([u[1:half] + u[:half:-1], 2.0 * u[half:half + 1]])
    a = scipy.fft.dct(scipy.fft.dct(a, type=3, axis=0) * skew_mult[:, None], type=2, axis=0)
    b = scipy.fft.dst(scipy.fft.dst(b, type=3, axis=0) * skew_mult[:, None], type=2, axis=0)
    pair_sums = np.concatenate([circ[:1] + a[:1],
                                circ[1:half] + a[1:] + b[:-1],
                                circ[half:half + 1] + b[-1:],
                                circ[half + 1:] + b[-2::-1] - a[:0:-1]])
    out = diag[:, None] * u - pair_sums
    # an end node takes its neighbour's second difference
    out[0] += kappa * (3.0 * u[1] - 2.0 * u[0] - u[2])
    out[-1] += kappa * (3.0 * u[-2] - 2.0 * u[-1] - u[-3])
    if f.tail is not None:
        out -= _far_field_from_tail(f, s)
    if convention == "normalized":
        out = out * singular_constant(s)
    return out


def _clear_quadrature_tables():
    fracops._pair_weights.cache_clear()
    fracops._tail_table.cache_clear()


def _route_fields(grid):
    x = grid.nodes()
    arctan = TailModel(1.0, np.array([0.5 * np.pi, 0.0]), np.array([-0.5 * np.pi, 0.0]),
                       np.array([-1.0, 2.0]), np.array([1.0, 3.0]))
    return {
        # two components, distinct limits and coefficients at the two ends
        "m2": Field(grid, np.stack([np.arctan(x), 2.0 / (1.0 + x * x) + 1.0 / (1.0 + x * x) ** 2],
                                   axis=1), tail=arctan),
        # one tail power, two coefficients: they share one tail table
        "even_a": Field(grid, (1.0 / (1.0 + x * x))[:, None], tail=TailModel.even(2.0, 1.0)),
        "even_b": Field(grid, (0.6 / (1.0 + (x - 0.4) ** 2))[:, None],
                        tail=TailModel.even(2.0, 0.6)),
        "odd": Field(grid, (2.0 * x / (1.0 + x * x) ** 2)[:, None], tail=TailModel.odd(3.0, 2.0)),
        "no_tail": Field(grid, np.exp(-x * x)[:, None]),
    }


@pytest.mark.parametrize("s", [0.5, 0.25])
@pytest.mark.parametrize("convention", ["paper", "normalized"])
def test_cached_quadrature_tables_are_bit_identical(s, convention):
    grid = LineGrid(80.0, 2 ** 12)
    fields = _route_fields(grid)
    _clear_quadrature_tables()
    for name, f in fields.items():
        want = _uncached_quadrature(f, s, convention).tobytes()
        for call in ("first", "repeat"):
            got = frac_laplacian_line_quadrature(f, s, convention=convention).samples
            assert got.tobytes() == want, (name, call)
    # one pair-weight entry for the grid; tail tables for powers 1, 2 and 3
    assert fracops._pair_weights.cache_info().currsize == 1
    assert fracops._tail_table.cache_info().currsize == 3


@pytest.mark.parametrize("s", [0.5, 0.25, 0.1])
@pytest.mark.parametrize("n", [8, 10, 14, 30, 256, 1000])
def test_pair_sums_are_the_dense_toeplitz_product(n, s):
    # n/2 odd (10, 14, 30, 1000) and even; one smooth and one white-noise column
    grid = LineGrid(7.0, n)
    x = grid.nodes()
    rng = np.random.default_rng(n)
    f = Field(grid, np.stack([1.0 / (1.0 + x * x), rng.standard_normal(n)], axis=1))
    circ_mult, skew_mult, _ = fracops._pair_weights(grid, s)
    w = np.zeros(n)
    w[1:] = (np.arange(1, n) * grid.h) ** (-1.0 - 2.0 * s) * grid.h
    # the r < h/2 Taylor term's weight rides on offset 1
    w[1] += (0.5 * grid.h) ** (2.0 - 2.0 * s) / ((2.0 - 2.0 * s) * grid.h ** 2)
    toeplitz = w[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]
    want = toeplitz @ f.samples
    scale = np.max(np.abs(toeplitz.sum(axis=1)[:, None] * f.samples))
    got = fracops._pair_sums(f, circ_mult, skew_mult)
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_quadrature_leaves_an_even_or_odd_fields_rfft_uncomputed():
    # the circulant half is rfft_multiply's, which runs an exactly even or
    # odd field on n/2 points without its rfft
    fields = _route_fields(LineGrid(80.0, 2 ** 12))
    for f in fields.values():
        frac_laplacian_line_quadrature(f, 0.5)
    assert fields["even_a"]._rfft is None and fields["odd"]._rfft is None
    assert fields["m2"]._rfft is not None


@pytest.mark.parametrize("s", [0.5, 0.25])
@pytest.mark.parametrize("n", [2 ** 12, 2 ** 16])
def test_quadrature_matches_the_two_n_point_formula(n, s):
    # Both routes round the pair sums at their own size, max|diag u|, which
    # the output cancels down to max|out|: at 2^16 and s = 1/2 the pair sums
    # are 430 times the output, and against a long-double reference both
    # routes err by about 1.5 ulp of them. The routes differ by at most
    # 7.1e-16 of max|diag u| on these fields.
    grid = LineGrid(80.0, n)
    diag = fracops._pair_weights(grid, s)[2]
    for name, f in _route_fields(grid).items():
        want = _two_n_point_quadrature(f, s, "paper")
        got = frac_laplacian_line_quadrature(f, s).samples
        scale = np.max(np.abs(diag[:, None] * f.samples))
        assert np.max(np.abs(got - want)) <= 4e-15 * scale, name


def test_cached_quadrature_tables_are_read_only():
    f = _lorentzian_field(LineGrid(40.0, 512))
    frac_laplacian_line_quadrature(f, 0.5)
    circ_mult, skew_mult, diag = fracops._pair_weights(f.grid, 0.5)
    for a in (circ_mult, skew_mult, diag, *fracops._tail_table(f.grid, 0.5, 2.0)):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_tail_quad_runs_once_per_grid_order_and_power(monkeypatch):
    calls = []
    real_quad = fracops.quad

    def counted(*args, **kwargs):
        calls.append(1)
        return real_quad(*args, **kwargs)
    monkeypatch.setattr(fracops, "quad", counted)
    _clear_quadrature_tables()
    grid = LineGrid(60.0, 1024)
    x = grid.nodes()
    f = _lorentzian_field(grid)

    def used(*fields_and_orders):
        before = len(calls)
        for g, s in fields_and_orders:
            frac_laplacian_line_quadrature(g, s)
        return len(calls) - before

    assert used((f, 0.5)) == 1  # one vectorised rule for all 65 integrals
    assert used((f, 0.5), (f, 0.5)) == 0
    other_coef = Field(grid, (3.0 / (1.0 + x * x))[:, None], tail=TailModel.even(2.0, 3.0))
    assert used((other_coef, 0.5)) == 0
    assert used((f, 0.25)) == 1
    odd = Field(grid, (2.0 * x / (1.0 + x * x) ** 2)[:, None], tail=TailModel.odd(3.0, 2.0))
    assert used((odd, 0.5)) == 1
    # same node count, different half-width: a different grid and table
    wider = _lorentzian_field(LineGrid(90.0, 1024))
    assert used((wider, 0.5)) == 1
    assert used((wider, 0.5), (f, 0.5)) == 0


def test_tail_quad_error_estimate():
    # on check 03's grid the gap between the 12-node and 24-node rules reads
    # 2.7e-20, of integrals from 1.1e-10 to 6.6e-5
    f = _lorentzian_field(LineGrid(1000.0, 2 ** 16))
    err = fracops.tail_quad_abserr(f, 0.5)
    assert 0.0 < err <= 1e-18
    assert err == np.max(fracops._tail_table(f.grid, 0.5, 2.0).abserr)


def test_tail_quad_abserr_guards_its_inputs():
    grid = LineGrid(20.0, 256)
    f = _lorentzian_field(grid)
    _clear_quadrature_tables()
    with pytest.raises(ValueError, match="tail model"):
        fracops.tail_quad_abserr(field_from_function(grid, lambda x: np.exp(-x * x)), 0.5)
    for s in (0.75, 0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            fracops.tail_quad_abserr(f, s)
    with pytest.raises(TypeError):
        fracops.tail_quad_abserr(field_from_function(CircleGrid(8), np.sin), 0.25)
    # no rejected order leaves a table behind
    assert fracops._tail_table.cache_info().currsize == 0
    assert 0.0 < fracops.tail_quad_abserr(f, 0.5) <= 1e-13


def _tail_closed_form(grid, s, power, tau):
    # int_L^inf y^-p (y - tau)^(-1-2s) dy = L^-a / a 2F1(1+2s, a; a+1; tau/L),
    # a = p + 2s; scipy's hyp2f1 errs by at most 3.1e-14 relative here
    from scipy.special import hyp2f1
    L, a = grid.half_width, power + 2.0 * s
    return L ** -a / a * hyp2f1(1.0 + 2.0 * s, a, a + 1.0, tau / L)


@pytest.mark.parametrize("half_width,n", [(20.0, 256), (1000.0, 2 ** 16), (4000.0, 2 ** 20)])
@pytest.mark.parametrize("s", [0.5, 0.25, 0.1])
def test_tail_table_matches_the_closed_form(half_width, n, s):
    grid = LineGrid(half_width, n)
    for power in (0.5, 0.75, 1.0, 2.0, 3.0):
        tab = fracops._tail_table(grid, s, power)
        exact = _tail_closed_form(grid, s, power, grid.half_width - tab.d)
        assert np.max(np.abs(tab.value / exact - 1.0)) <= 1e-13, power
        # the 12-node rule is the estimate's only source: a few parts in 1e12
        assert np.all(tab.abserr <= 1e-11 * exact), power


@pytest.mark.parametrize("power,s", [(0.25, 0.05), (-0.49, 0.25)])
def test_tail_rule_stays_small_for_slow_tails(monkeypatch, power, s):
    # p + 2s = 0.35 and 0.01: the remainder bound reaches 1e-17 only past
    # v = 120 and v = 4000, so unit panels would number that many; the
    # panels past the transition grow geometrically instead
    edges = []
    real_panel_rule = fracops.panel_rule

    def recorded(e, rule):
        edges.append(len(e) - 1)
        return real_panel_rule(e, rule)
    monkeypatch.setattr(fracops, "panel_rule", recorded)
    for grid in (LineGrid(20.0, 256), LineGrid(4000.0, 2 ** 20)):
        t = np.linspace(-1.0, 1.0, 65) * (grid.half_width - 0.5 * grid.h)
        tau = np.stack([t, -t])
        value, abserr = fracops.quad(grid.half_width, tau, s, power)
        exact = _tail_closed_form(grid, s, power, tau)
        assert np.max(np.abs(value / exact - 1.0)) <= 1e-13
        assert np.all(abserr <= 1e-12 * exact)
    # 24 and 12 nodes on each of at most 32 panels (30 at a = 0.01, 2^20)
    assert len(edges) == 4 and max(edges) <= 32, edges


def test_tail_rule_agrees_with_quad_within_its_error_estimate():
    # the former table: one scipy quad per integral, stopping at a 1e-13
    # absolute floor, so it is off by up to 1e-2 relative on the tiny p = 3
    # integrals; every difference stays inside quad's own estimate
    from scipy.integrate import quad
    for grid in (LineGrid(20.0, 256), LineGrid(1000.0, 2 ** 16)):
        for s in (0.5, 0.25):
            for power in (0.5, 2.0, 3.0):
                tab = fracops._tail_table(grid, s, power)
                for tau, got in zip(grid.half_width - tab.d, tab.value):
                    want, err = quad(lambda y: y ** -power * (y - tau) ** (-1.0 - 2.0 * s),
                                     grid.half_width, np.inf, epsabs=1e-13, epsrel=1e-11)
                    assert abs(got - want) <= err, (grid, s, power, tau)


def test_piecewise_spline_matches_ppoly():
    # the tail table's 65 distances on a 2^16 grid; the query holds every
    # distance (k + 1/2) h the far field reads, the middle breakpoint L and
    # the two outer breakpoints h/2 and 2L - h/2, around which the end
    # distances make PPoly extrapolate
    grid = LineGrid(1000.0, 2 ** 16)
    L, d = grid.half_width, fracops._tail_table(grid, 0.5, 2.0).d
    x = np.sort(np.concatenate([(np.arange(grid.n_points) + 0.5) * grid.h, [L, d[0], d[-1]]]))
    assert d[32] == L and np.count_nonzero(x == L) == 1
    # and a query lying beyond both ends
    far = np.array([-200.0, 0.0, 2.0 * L, 2200.0])
    for vals in (1.0 / (1.0 + (d - L) ** 2), np.cos(d / 300.0)):
        spline = CubicSpline(d, vals)
        got, want = fracops._spline_at_sorted(d, spline.c, x), spline(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.allclose(fracops._spline_at_sorted(d, spline.c, far), spline(far),
                           rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("s", [0.5, 0.25])
def test_not_a_knot_fit_matches_scipy(s):
    # the tail table's distances at 2^16 and the values G = 2s d^(2s) value
    # it fits; the table holds this fit
    grid = LineGrid(1000.0, 2 ** 16)
    tab = fracops._tail_table(grid, s, 1.0)
    vals = 2.0 * s * tab.d ** (2.0 * s) * tab.value
    want = CubicSpline(tab.d, vals)
    got = fracops._not_a_knot_spline(tab.d, vals)
    assert np.array_equal(got, tab.c) and got.shape == want.c.shape
    assert np.array_equal(got[3], want.c[3])
    # each piece as a cubic in (d - d_i) / dx_i: its cubic coefficient is a
    # difference of slopes over dx^2, which costs both fits some 1e-14 of
    # its largest value against a long-double fit
    dx = np.diff(tab.d)
    scaled = (got - want.c) * dx ** np.arange(3, -1, -1)[:, None]
    assert np.max(np.abs(scaled)) <= 4e-15 * np.max(np.abs(vals))
    x = (np.arange(grid.n_points) + 0.5) * grid.h
    far = fracops._spline_at_sorted(tab.d, got, x) - fracops._spline_at_sorted(tab.d, want.c, x)
    assert np.max(np.abs(far)) <= 2e-15 * np.max(np.abs(vals))


@pytest.mark.parametrize("power", [-1.0, -0.5, np.nan])
def test_quadrature_rejects_a_divergent_tail(power):
    # at s = 1/4 the integral beyond the grid of |y|^-p |t - y|^(-3/2)
    # converges only for p > -1/2
    grid = LineGrid(50.0, 1024)
    x = grid.nodes()
    f = Field(grid, np.sqrt(1.0 + x * x)[:, None], tail=TailModel.even(power, 1.0))
    _clear_quadrature_tables()
    with pytest.raises(ValueError, match="diverges"):
        frac_laplacian_line_quadrature(f, 0.25)
    with pytest.raises(ValueError, match="diverges"):
        fracops.tail_quad_abserr(f, 0.25)
    assert fracops._tail_table.cache_info().currsize == 0
    # the same power converges at s = 1/2 unless p <= -1
    if power == -0.5:
        assert np.isfinite(fracops.tail_quad_abserr(f, 0.5))


def test_quadrature_input_guards():
    f = _lorentzian_field(LineGrid(20.0, 256))
    with pytest.raises(ValueError):
        frac_laplacian_line_quadrature(f, 0.75)
    with pytest.raises(ValueError):
        frac_laplacian_line_quadrature(f, 0.25, convention="weird")
    with pytest.raises(TypeError):
        frac_laplacian_line_quadrature(field_from_function(CircleGrid(8), np.sin), 0.25)


def test_no_tail_boundary_warning():
    g = LineGrid(5.0, 256)
    f = field_from_function(g, lambda x: 1.0 / (1.0 + x * x))  # no tail model
    with pytest.warns(RuntimeWarning):
        frac_laplacian_line_spectral(f, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frac_laplacian_line_spectral(_lorentzian_field(g), 0.5)  # tail: silent


def test_quadrature_warns_the_far_field_is_dropped():
    g = LineGrid(5.0, 256)
    f = field_from_function(g, lambda x: 1.0 / (1.0 + x * x))  # no tail model
    with pytest.warns(RuntimeWarning, match="the far field is treated as zero"):
        frac_laplacian_line_quadrature(f, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frac_laplacian_line_quadrature(_lorentzian_field(g), 0.25)  # tail: silent


def test_riesz_squares_to_minus_identity():
    g = CircleGrid(32)
    f = field_from_function(g, lambda t: np.sin(3 * t) + 0.5 * np.cos(t))
    twice = riesz_transform(riesz_transform(f))
    assert np.max(np.abs(twice.samples + f.samples)) < 1e-13


def test_riesz_kills_the_mean():
    g = CircleGrid(16)
    f = field_from_function(g, lambda t: np.ones_like(t))
    assert np.max(np.abs(riesz_transform(f).samples)) < 1e-14


def test_inverse_quarter_inverts_quarter_laplacian():
    g = CircleGrid(64)
    f = field_from_function(g, lambda t: np.cos(2 * t) - np.sin(5 * t))
    back = inverse_quarter_laplacian(frac_laplacian_circle(f, 0.25))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12


def test_inverse_quarter_rejects_nonzero_mean():
    g = CircleGrid(16)
    f = field_from_function(g, lambda t: 1.0 + np.cos(t))
    with pytest.raises(ValueError):
        inverse_quarter_laplacian(f)


def test_poisson_line_values_and_mass():
    G, dG_dt, dG_dx = poisson_kernel_line(1.0, 0.0)
    assert G == 1.0 / np.pi
    assert dG_dt == -1.0 / np.pi
    assert dG_dx == 0.0
    g = LineGrid(3000.0, 2 ** 16)
    t = 0.7
    f = field_from_function(g, lambda x: poisson_kernel_line(t, x)[0],
                            tail=TailModel.even(2.0, t / np.pi))
    from fraclap.geometry import line_integral
    assert abs(line_integral(f) - 1.0) < 1e-9


def test_poisson_line_semigroup():
    g = LineGrid(2000.0, 2 ** 17)
    t1, t2 = 0.7, 0.5
    f1 = field_from_function(g, lambda x: poisson_kernel_line(t1, x)[0])
    f2 = field_from_function(g, lambda x: poisson_kernel_line(t2, x)[0])
    conv = line_convolve(f1, f2)
    want = poisson_kernel_line(t1 + t2, g.nodes())[0]
    mid = np.abs(g.nodes()) <= 50.0
    assert np.max(np.abs(conv.samples[mid, 0] - want[mid])) < 1e-6


def test_poisson_circle_series_vs_printed():
    t, th = 1.0, np.pi / 3.0
    series = poisson_kernel_circle(t, th)
    printed = poisson_kernel_circle_printed(t, th)
    for a, b in zip(series, printed):
        assert np.isclose(2.0 * np.pi * a, b, rtol=1e-12)


def test_poisson_circle_mass_one():
    g = CircleGrid(256)
    F = poisson_kernel_circle(0.3, g.nodes())[0]
    assert abs(g.h * F.sum() - 1.0) < 1e-13


def test_poisson_positive_time_required():
    with pytest.raises(ValueError):
        poisson_kernel_line(0.0, 1.0)
    with pytest.raises(ValueError):
        poisson_kernel_circle(-1.0, 0.0)


def test_line_interpolant_accuracy_and_tail():
    g = LineGrid(30.0, 2 ** 11)
    f = _lorentzian_field(g)
    u = line_interpolant(f)
    xs = np.array([0.123, 4.567, -9.9])
    assert np.max(np.abs(u(xs)[:, 0] - 1.0 / (1.0 + xs ** 2))) < 1e-9
    far = np.array([55.0, -90.0])
    assert np.allclose(u(far)[:, 0], 1.0 / far ** 2)


def _zero_padded(f, refine):
    """Zero-pad refinement of f, refine samples per node, in sorted order.

    The Nyquist coefficient goes to frequency -n/2 alone and the real part
    is kept, which is the half-split cosine rule. The fine nodes past the
    grid's right end wrap to its left end, so they fill one period from the
    first wrapped node on. Returns the nodes and the samples.
    """
    n, L, h = f.grid.n_points, f.grid.half_width, f.grid.h
    spec = f.spectrum()
    out = np.zeros((refine * n, f.m), dtype=complex)
    out[: n // 2] = spec[: n // 2]
    out[-(n // 2):] = spec[-(n // 2):]
    fine = np.real(np.fft.ifft(out, axis=0)) * refine
    x = -L + 0.5 * h + np.arange(refine * n) * (h / refine)
    x[x > L] -= 2.0 * L
    order = np.argsort(x)
    return x[order], fine[order]


def _refined_reference(f, refine):
    """Periodic cubic spline through one period of the refined samples.

    Returns the spline and its sorted nodes.
    """
    x, fine = _zero_padded(f, refine)
    period = x[0] + 2.0 * f.grid.half_width
    spline = CubicSpline(np.append(x, period), np.vstack([fine, fine[:1]]), axis=0,
                         bc_type="periodic")
    return spline, x


def _line_spline_case(half_width, refine, rng):
    """(field, its tail) of the global-spline tests: a Lorentzian and a
    noise column, m = 2 like the pohozaev line fixture."""
    g = LineGrid(half_width, 2 ** 10)
    x = g.nodes()
    tail = TailModel.even(2.0, [1.0, 0.0], m=2)
    # the noise column puts energy up to the Nyquist frequency, where a fit
    # that ends too close to its blocks would be visibly off the global one
    f = Field(g, np.stack([1.0 / (1.0 + x * x), rng.normal(size=g.n_points)], axis=1),
              tail=tail)
    assert max(4, int(np.ceil(g.h / 0.008))) == refine
    return f, tail


@pytest.mark.parametrize("half_width, refine", [(16.0, 4), (20.0, 5), (30.0, 8)],
                         ids=["4", "5", "8"])
def test_line_interpolant_matches_global_spline(half_width, refine):
    # m = 2 like the pohozaev line fixture; calls overlap and repeat, so
    # coefficient blocks fitted by one call are reused by the next. The
    # interpolant refines by max(4, ceil(h / 0.008)): spacings 0.031, 0.039
    # and 0.059 give 4, 5 and 8; at the odd refine the fine nodes fall at five
    # different offsets from the samples the interpolant spreads them from
    rng = np.random.default_rng(3)
    f, tail = _line_spline_case(half_width, refine, rng)
    g, x = f.grid, f.grid.nodes()
    spline, nodes = _refined_reference(f, refine)
    lo, hi = nodes[0], nodes[-1]
    scattered = rng.uniform(lo, hi, 300)
    wrapped = nodes[: (refine - 1) // 2]
    assert np.all(wrapped < x[0])
    edges = np.array([lo, hi, 0.5 * (lo + nodes[1]), x[0], x[-1]])
    beyond = np.array([-half_width - 1.0, half_width + 0.5 * g.h, 1.5 * half_width, -1e4])
    tol = 1e-13 * np.max(np.abs(f.samples))

    u = line_interpolant(f)
    # the first call fits a few scattered blocks; the midpoints of every fine
    # interval then reuse those and fit the blocks between them
    midpoints = 0.5 * (nodes[1:] + nodes[:-1])
    calls = [scattered[:4], midpoints, scattered[:100],
             np.concatenate([scattered[50:], wrapped, edges]),
             np.concatenate([beyond, scattered[::7]])]
    for pts in calls:
        got = u(pts)
        inside = (pts >= lo) & (pts <= hi)
        assert np.max(np.abs(got[inside] - spline(pts[inside]))) <= tol
        assert np.array_equal(got[~inside], tail.eval(pts[~inside]))
    # a fresh interpolant fits only the blocks its first 100 points reach and
    # gives the same bits as u, which fitted them in earlier calls alongside
    # other blocks
    assert np.array_equal(line_interpolant(f)(scattered[:100]), u(scattered)[:100])


@pytest.mark.parametrize("half_width, refine", [(16.0, 4), (20.0, 5), (30.0, 8)],
                         ids=["4", "5", "8"])
def test_line_interpolant_as_accurate_at_the_ends(half_width, refine):
    # against the trigonometric interpolant, at the midpoints of the fine
    # intervals (the odd nodes of the twice finer refinement), the noise
    # column is no worse within 20 fine nodes of the grid's ends than
    # inside; the not-a-knot spline is 4.7 to 6 times worse there
    f, _ = _line_spline_case(half_width, refine, np.random.default_rng(3))
    nodes, _ = _zero_padded(f, refine)
    lo, hi, dx = nodes[0], nodes[-1], f.grid.h / refine
    x, exact = _zero_padded(f, 2 * refine)
    mid = (x > lo) & (x < hi) & (np.abs((x - lo) / dx % 1.0 - 0.5) < 0.25)
    err = np.abs(line_interpolant(f)(x[mid])[:, 1] - exact[mid, 1])
    ends = np.minimum(x[mid] - lo, hi - x[mid]) < 20.0 * dx
    assert 30 < np.sum(ends) < 50
    assert np.max(err[ends]) <= np.max(err[~ends])


def test_line_interpolant_nyquist_rule():
    # a field holding the Nyquist mode: the samples come back at the field's
    # own nodes, and the refined nodes in between carry the half-split cosine
    g = LineGrid(1.0, 64)  # spacing 1/32, refined by 4
    x = g.nodes()
    alt = (-1.0) ** np.arange(g.n_points)
    smooth = np.cos(3.0 * np.pi * (x + g.half_width) / g.half_width)
    f = Field(g, np.stack([alt, smooth + 0.5 * alt], axis=1))
    refine = 4
    u = line_interpolant(f)
    assert np.max(np.abs(u(x) - f.samples)) <= 1e-12
    between = (x[:-1, None] + g.h / refine * np.arange(1, refine)[None, :]).ravel()
    nyq = np.cos(np.pi * (between - x[0]) / g.h)
    want = np.stack([nyq, np.cos(3.0 * np.pi * (between + g.half_width) / g.half_width)
                     + 0.5 * nyq], axis=1)
    assert np.max(np.abs(u(between) - want)) <= 1e-12


def _multiplier_case(case):
    """(field, multiplier, query points) for the multiplied interpolant."""
    rng = np.random.default_rng(21)
    if case == "even-lorentzian":
        # check 08's field: exactly even, so rfft_multiply takes the DCT route
        f = _lorentzian_field(LineGrid(10000.0, 1 << 20))
        assert geometry._line_parity(f) == 1
        return f, rfft_frequencies(f.grid), rng.uniform(-50.0, 50.0, 4096)
    if case == "asymmetric":
        g = LineGrid(200.0, 1 << 14)
        x = g.nodes()
        coef, centers = rng.normal(size=5), rng.uniform(-3.0, 3.0, size=5)
        vals = sum(c / (1.0 + (x - a) ** 2) for c, a in zip(coef, centers))
        f = Field(g, vals[:, None], tail=TailModel.even(2.0, float(np.sum(coef))))
        return f, rfft_frequencies(g), rng.uniform(-20.0, 20.0, 4096)
    # white noise up to the Nyquist frequency under an odd multiplier, which
    # removes the Nyquist mode: the rule that pins bins 0 and n/2 to real
    g = LineGrid(16.0, 1 << 12)
    f = Field(g, rng.normal(size=(g.n_points, 2)))
    x = g.nodes()
    return f, 1j * rfft_frequencies(g), rng.uniform(x[0], x[-1], 4096)


@pytest.mark.parametrize("case", ["even-lorentzian", "asymmetric", "nyquist-odd"])
def test_line_interpolant_multiplier_matches_multiplied_field(case):
    f, mult, pts = _multiplier_case(case)
    want = line_interpolant(Field(f.grid, rfft_multiply(f, mult)))(pts)
    got = line_interpolant(f, multiplier=mult)(pts)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_multiplied_line_interpolant_has_no_tail():
    # f's tail model is not the tail of its half Laplacian
    f = _lorentzian_field(LineGrid(30.0, 2 ** 11))
    u = line_interpolant(f, multiplier=rfft_frequencies(f.grid))
    assert u(np.array([0.5])).shape == (1, 1)
    with pytest.raises(ValueError, match="tail model"):
        u(np.array([0.5, 55.0]))


def _full_band(f, multiplier=None):
    """The build of line_interpolant from every rfft bin of f."""
    refine = max(4, int(np.ceil(f.grid.h / 0.008)))
    if multiplier is None:
        return fracops._SplineInterpolant(f.grid, f.rfft(), f.tail, refine)
    spec = f.rfft() * multiplier[:, None]
    spec[[0, -1]] = spec[[0, -1]].real
    return fracops._SplineInterpolant(f.grid, spec, None, refine)


def _check08_case(case):
    """(field, points) of check 08: its Lorentzian or its seed-11 field on
    2^20 nodes, and the projected angles both routes are compared at."""
    grid = LineGrid(10000.0, 1 << 20)
    if case == "lorentzian":
        f = _lorentzian_field(grid)
    else:
        x = grid.nodes()
        rng = np.random.default_rng(11)
        coef, centers = rng.normal(size=5), rng.uniform(-3.0, 3.0, size=5)
        vals = sum(c / (1.0 + (x - a) ** 2) for c, a in zip(coef, centers))
        f = Field(grid, vals[:, None], tail=TailModel.even(2.0, float(np.sum(coef))))
    th = CircleGrid(2048).nodes()
    keep = np.abs(np.mod(th + np.pi, 2.0 * np.pi) - np.pi + np.pi / 2.0) >= 0.2
    return f, np.cos(th[keep]) / (1.0 + np.sin(th[keep]))


@pytest.mark.parametrize("case, n_band", [("lorentzian", 1 << 18), ("seed-11", 1 << 19)])
def test_line_interpolant_band_matches_the_full_band(case, n_band):
    # every bin past the band is at most 1e-13 of the largest, so dropping
    # them moves the values by round-off; |xi| grows the kept bins' share
    f, pts = _check08_case(case)
    assert fracops._band(f.rfft(), 4) == n_band
    u = line_interpolant(f)
    assert u._grid.shape == (1, 2 * n_band)
    want = _full_band(f)(pts)
    assert np.max(np.abs(u(pts) - want)) <= 1e-15 * np.max(np.abs(want))
    xi = rfft_frequencies(f.grid)
    want = _full_band(f, xi)(pts)
    got = line_interpolant(f, multiplier=xi)(pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_line_interpolant_band_keeps_the_half_laplacian_error():
    # check 08's line route against (1 - x^2) / (1 + x^2)^2 on |x| <= 20:
    # 8.385e-9 with the band and with every bin
    f, pts = _check08_case("lorentzian")
    pts = pts[np.abs(pts) <= 20.0]
    exact = (1.0 - pts ** 2) / (1.0 + pts ** 2) ** 2
    xi = rfft_frequencies(f.grid)
    err = np.max(np.abs(line_interpolant(f, multiplier=xi)(pts)[:, 0] - exact))
    full = np.max(np.abs(_full_band(f, xi)(pts)[:, 0] - exact))
    assert err <= full + 1e-14 and err < 1e-8


def test_line_interpolant_white_noise_keeps_the_full_band():
    # noise up to the Nyquist frequency fills the band, so the build is the
    # full one, and it reproduces the zero-padded refinement at the fine
    # nodes to round-off (1.2e-15 to 2.5e-15 of the maximum over 32 fields)
    g = LineGrid(16.0, 1 << 12)
    f = Field(g, np.random.default_rng(2).normal(size=(g.n_points, 2)))
    assert fracops._band(f.rfft(), 4) == g.n_points
    u = line_interpolant(f)
    x, fine = _zero_padded(f, 4)
    inside = (x >= u._lo) & (x <= u._hi)
    assert np.max(np.abs(u(x[inside]) - fine[inside])) <= 3e-15 * np.max(np.abs(fine))
    pts = np.random.default_rng(3).uniform(x[0], x[-1], 4096)
    assert np.array_equal(u(pts), _full_band(f)(pts))


def test_line_band_keeps_its_top_bin_whole():
    # a cosine on rfft bin n/4 bands at n/2 nodes, where that bin is not the
    # Nyquist bin, so it is kept whole rather than split between +-n/4; at
    # the band's edge the deconvolution factor leaves 2e-14 of round-off
    g = LineGrid(8.0, 256)
    f = Field(g, np.cos(0.5 * np.pi * np.arange(g.n_points)), tail=TailModel.even(2.0, 0.0))
    assert fracops._band(f.rfft(), 8) == g.n_points // 2
    pts = np.random.default_rng(6).uniform(-7.9, 7.9, 2000)
    want = _full_band(f)(pts)
    assert np.max(np.abs(line_interpolant(f)(pts) - want)) <= 1e-13
    exact = np.cos(0.5 * np.pi * (pts - g.nodes()[0]) / g.h)
    assert np.max(np.abs(want[:, 0] - exact)) <= 1e-5


def test_line_band_is_capped_for_a_constant_field():
    # a constant holds only bin 0; its band stops at _BAND_REFINE fine nodes
    # per band node and still gives back the constant
    g = LineGrid(30.0, 1 << 12)
    f = Field(g, np.full(g.n_points, 2.5), tail=TailModel.even(2.0, 0.0, limit=2.5))
    assert fracops._band(f.rfft(), 4) == g.n_points // 4
    pts = np.random.default_rng(1).uniform(-40.0, 40.0, 1000)
    assert np.max(np.abs(line_interpolant(f)(pts) - 2.5)) <= 1e-14


def test_line_modules_import_without_scipy_interpolate():
    # the line interpolant fits its spline with no solve, and the tail
    # table's not-a-knot spline is a numpy solve
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, %r); "
            "import fraclap.fracops, fraclap.stereo, fraclap.pohozaev; "
            "assert 'scipy.interpolate' not in sys.modules, sorted(m for m in sys.modules "
            "if m.startswith('scipy.interpolate'))" % str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_line_interpolant_shared_between_threads():
    # threads that fit blocks of one interpolant at once must see the
    # values a single thread gets; each round starts a fresh interpolant
    g = LineGrid(30.0, 2 ** 12)
    f = _lorentzian_field(g)
    rng = np.random.default_rng(8)
    batches = [rng.uniform(-30.0, 30.0, 40) for _ in range(8)]
    want = [line_interpolant(f)(b) for b in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            shared = line_interpolant(f)
            got = [None] * len(batches)

            def work(k):
                got[k] = shared(batches[k])

            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for a, b in zip(got, want):
                assert a is not None and np.array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)


def test_line_interpolant_memory_follows_queries():
    # a 2^20 build plus stereo-style queries; a global 4M-node spline would
    # hold several hundred MB of coefficients and sort keys. The Lorentzian
    # keeps the band n/4, so the build keeps one grid of 2^19 values (4 MB)
    # next to the field's rfft (8 MB), and the call peaks at 18.0 MB traced;
    # an array of all 4M fine values (34 MB) on top would break the bound
    g = LineGrid(10000.0, 1 << 20)
    f = _lorentzian_field(g)
    th = CircleGrid(2048).nodes()
    speed = 1.0 + np.sin(th)
    pts = np.cos(th[speed > 1e-12]) / speed[speed > 1e-12]
    tracemalloc.start()
    try:
        u = line_interpolant(f)
        vals = u(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(vals[:, 0] - 1.0 / (1.0 + pts ** 2))) < 1e-9
    assert peak < 50e6


def test_inverse_quarter_memory_on_an_even_field():
    # check 04's even density on 2^21 points (16 MB) takes the half-size
    # DCT route: output 16 MB, its private copy in the Field 16 MB, and
    # half-length multiplier and spectrum, about 44 MB. The bound sits below
    # the rfft route, which also keeps a 16 MB spectrum on the input (61 MB).
    # The frequency table is shared per grid, so it is built before tracing
    grid = LineGrid(2000.0, 1 << 21)
    x = grid.nodes()
    f = Field(grid, (x * x - 1.0) / (1.0 + x * x) ** 2, tail=TailModel.even(2.0, 1.0))
    del x
    rfft_frequencies(grid)
    tracemalloc.start()
    try:
        out = inverse_quarter_laplacian(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert f._rfft is None
    assert np.array_equal(out.samples, out.samples[::-1])


@given(k=st.integers(1, 10), s=st.sampled_from([0.25, 0.5]))
@settings(max_examples=25, deadline=None)
def test_circle_multiplier_scaling_property(k, s):
    # eigenvalue on mode k is k^(2s), so doubling s squares the response
    g = CircleGrid(32)
    f = field_from_function(g, lambda t: np.sin(k * t))
    out = frac_laplacian_circle(f, s)
    assert np.allclose(out.samples, float(k) ** (2 * s) * f.samples, atol=1e-10)


@given(st.sampled_from(["even", "odd"]))
@settings(max_examples=4, deadline=None)
def test_operator_commutes_with_parity(parity):
    g = LineGrid(40.0, 1024)
    rng = np.random.default_rng(5)
    coef = rng.normal(size=3)
    f = field_from_function(
        g, lambda x: (coef[0] + coef[1] * x + coef[2] * x * x) * np.exp(-x * x),
        tail=TailModel.even(4.0, 0.0))
    part = even_part(f) if parity == "even" else odd_part(f)
    out = frac_laplacian_line_spectral(part, 0.5)
    out_part = even_part(out) if parity == "even" else odd_part(out)
    assert np.array_equal(out.samples, out_part.samples)
