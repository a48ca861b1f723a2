"""Fractional Laplacians, Riesz transform, Poisson kernels, convolution."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from fraclap.fracops import (frac_laplacian_circle, frac_laplacian_line_quadrature,
                             frac_laplacian_line_spectral, inverse_quarter_laplacian,
                             line_convolve, line_interpolant, poisson_kernel_circle,
                             poisson_kernel_circle_printed, poisson_kernel_line,
                             riesz_transform, singular_constant)
from fraclap.geometry import (CircleGrid, Field, LineGrid, TailModel, even_part,
                              field_from_function, odd_part)


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


def _refined_reference(f, refine):
    """Global not-a-knot spline through the zero-pad-refined samples.

    The Nyquist coefficient goes to frequency -n/2 alone and the real part
    is kept, which is the half-split cosine rule. Returns the spline and its
    sorted nodes.
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
    return CubicSpline(x[order], fine[order], axis=0), x[order]


@pytest.mark.parametrize("half_width, refine", [(16.0, 4), (30.0, 8)], ids=["4", "8"])
def test_line_interpolant_matches_global_spline(half_width, refine):
    # m = 2 like the pohozaev line fixture; calls overlap and repeat, so
    # coefficient blocks fitted by one call are reused by the next. The
    # interpolant refines by max(4, ceil(h / 0.008)): spacings 0.031 and
    # 0.059 give 4 and 8
    g = LineGrid(half_width, 2 ** 10)
    x = g.nodes()
    tail = TailModel.even(2.0, [1.0, 0.0], m=2)
    rng = np.random.default_rng(3)
    # the noise column puts energy up to the Nyquist frequency, where a fit
    # that ends too close to its blocks would be visibly off the global one
    f = Field(g, np.stack([1.0 / (1.0 + x * x), rng.normal(size=g.n_points)], axis=1),
              tail=tail)
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
    assert np.array_equal(u(scattered[:100]), u(scattered)[:100])


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
    # hold several hundred MB of coefficients and sort keys
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
    assert peak < 300e6


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
    assert np.max(np.abs(out.samples - out_part.samples)) < 1e-12
