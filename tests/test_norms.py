"""Lebesgue, Lorentz and half-order Sobolev norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.geometry import (CircleGrid, LineGrid, TailModel, Field,
                              field_from_function, odd_part)
from fraclap.norms import (Region, gagliardo_seminorm_sq, lorentz_21,
                           lorentz_21_samples, lorentz_2inf,
                           lorentz_2inf_samples, lp_norm,
                           sobolev_half_inner,
                           sobolev_half_seminorm)


def _indicator(grid, half):
    return field_from_function(grid, lambda x: (np.abs(x) <= half) * 1.0)


def test_region_annulus_validation_and_wrap():
    g = LineGrid(10.0, 256)
    with pytest.raises(ValueError):
        Region.annulus(g, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        Region.annulus(g, 0.0, -1.0, 1.0)
    c = CircleGrid(64)
    wrap = Region.annulus(c, 0.0, 0.0, 0.5)
    th = c.nodes()
    d = np.minimum(th, 2 * np.pi - th)
    assert wrap.count() == int(np.sum(d <= 0.5))  # both sides of theta = 0
    assert wrap.complement().count() == c.n_points - wrap.count()


def test_region_mismatch_and_empty():
    g = LineGrid(1.0, 16)
    other = Region.everything(LineGrid(2.0, 16))
    f = field_from_function(g, lambda x: x)
    with pytest.raises(ValueError):
        lp_norm(f, 2, region=other)
    with pytest.raises(ValueError):
        lp_norm(f, 2, region=Region.interval(g, 5.0, 6.0))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_norm_indicator():
    g = LineGrid(4.0, 2 ** 12)
    f = _indicator(g, 1.0)
    # measure of the support is 2, so ||f||_p = 2^(1/p)
    for p in (1, 2, 4):
        assert abs(lp_norm(f, p) - 2.0 ** (1.0 / p)) < 1e-12


def test_lorentz_norms_on_indicator():
    # for an indicator of measure s: L^(2,1) = L^(2,inf) = L^2 = sqrt(s)
    g = LineGrid(4.0, 2 ** 12)
    f = _indicator(g, 1.5)
    s = np.sqrt(3.0)
    assert abs(lorentz_21(f) - s) < 1e-12
    assert abs(lorentz_2inf(f) - s) < 1e-12
    assert abs(lp_norm(f, 2) - s) < 1e-12


def test_weak_norm_below_strong_norm():
    g = LineGrid(20.0, 2 ** 10)
    f = field_from_function(g, lambda x: np.exp(-np.abs(x)) * (1 + np.cos(3 * x)))
    assert lorentz_2inf(f) <= lorentz_21(f) + 1e-12
    assert lorentz_2inf(f) <= lp_norm(f, 2) + 1e-12


@given(c=st.floats(0.1, 50.0))
@settings(max_examples=20, deadline=None)
def test_layer_cake_homogeneity(c):
    rng = np.random.default_rng(3)
    vals = rng.random(64)
    w = 0.01
    assert np.isclose(lorentz_21_samples(c * vals, w),
                      c * lorentz_21_samples(vals, w), rtol=1e-12)
    assert np.isclose(lorentz_2inf_samples(c * vals, w),
                      c * lorentz_2inf_samples(vals, w), rtol=1e-12)


def test_layer_cake_ignores_order():
    rng = np.random.default_rng(9)
    vals = rng.random(128)
    w = 0.5
    shuffled = vals[rng.permutation(128)]
    assert np.isclose(lorentz_21_samples(vals, w), lorentz_21_samples(shuffled, w))
    assert np.isclose(lorentz_2inf_samples(vals, w), lorentz_2inf_samples(shuffled, w))


def test_inverse_square_root_is_borderline():
    # |x|^(-1/2) has identical dyadic-annulus L^(2,inf) mass at every scale
    g = LineGrid(2000.0, 2 ** 17)
    f = field_from_function(g, lambda x: np.abs(x) ** -0.5)
    vals = [lorentz_2inf(f, Region.annulus(g, 0.0, 0.1, R)) for R in (1.0, 10.0, 100.0)]
    vals = np.asarray(vals)
    assert np.max(np.abs(vals / vals.mean() - 1.0)) < 0.05


def test_sobolev_half_circle_single_mode():
    # mode k contributes 2 pi k |c_k|^2 twice (k and -k): cos(k t) gives
    # coefficients 1/2, so the seminorm is sqrt(pi k)
    g = CircleGrid(64)
    for k in (1, 4, 9):
        f = field_from_function(g, lambda t: np.cos(k * t))
        assert np.isclose(sobolev_half_seminorm(f), np.sqrt(np.pi * k), rtol=1e-12)


def test_sobolev_half_circle_matches_complex_fft_formula():
    # the rfft route against 2 pi sum_k |k| |c_k|^2 over the full spectrum,
    # where the Nyquist mode appears once
    g = CircleGrid(32)
    n = g.n_points
    rng = np.random.default_rng(11)
    nyquist = (-1.0) ** np.arange(n)  # cos(n/2 t) at the nodes, energy pi n
    cases = [Field(g, rng.standard_normal((n, m))) for m in (1, 2, 3)]
    cases.append(Field(g, np.stack([nyquist, np.cos(3 * g.nodes())], axis=1)))
    for f in cases:
        c = np.fft.fft(f.samples, axis=0) / n
        k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        ref = np.sqrt(2 * np.pi * np.sum(k[:, None] * np.abs(c) ** 2))
        assert abs(sobolev_half_seminorm(f) - ref) <= 1e-14 * ref
    assert np.isclose(sobolev_half_seminorm(Field(g, nyquist)), np.sqrt(np.pi * n),
                      rtol=1e-14)


@pytest.mark.parametrize("grid", [CircleGrid(32), LineGrid(20.0, 128)])
def test_sobolev_half_inner_polarizes_the_energy(grid):
    rng = np.random.default_rng(4)
    a = Field(grid, rng.standard_normal((grid.n_points, 2)))
    b = Field(grid, rng.standard_normal((grid.n_points, 2)))
    ea, eb = sobolev_half_seminorm(a) ** 2, sobolev_half_seminorm(b) ** 2
    assert np.isclose(sobolev_half_inner(a, a), ea, rtol=1e-13)
    assert sobolev_half_inner(a, b) == pytest.approx(sobolev_half_inner(b, a), rel=1e-14)
    assert np.isclose(sobolev_half_inner(a - b, a + b), ea - eb, rtol=1e-12)
    with pytest.raises(ValueError):
        sobolev_half_inner(a, Field(CircleGrid(8), np.zeros(16)))


def test_sobolev_half_shift_invariant_on_line():
    g = LineGrid(60.0, 2 ** 10)
    a = field_from_function(g, lambda x: np.exp(-x * x))
    b = field_from_function(g, lambda x: np.exp(-(x - 3.0) ** 2))
    assert np.isclose(sobolev_half_seminorm(a), sobolev_half_seminorm(b), rtol=1e-10)


def test_gagliardo_matches_spectral():
    g = LineGrid(60.0, 1024)
    f = field_from_function(g, lambda x: np.exp(-x * x) * (1 + 0.3 * x))
    ratio = gagliardo_seminorm_sq(f) / (2 * np.pi * sobolev_half_seminorm(f) ** 2)
    assert abs(ratio - 1.0) < 2e-3
    # odd fields see an extra cancellation and come out much closer
    o = odd_part(field_from_function(g, lambda x: x * np.exp(-x * x)))
    ratio_odd = gagliardo_seminorm_sq(o) / (2 * np.pi * sobolev_half_seminorm(o) ** 2)
    assert abs(ratio_odd - 1.0) < 1e-5


def test_gagliardo_line_only():
    f = field_from_function(CircleGrid(8), np.sin)
    with pytest.raises(TypeError):
        gagliardo_seminorm_sq(f)


def test_multicomponent_magnitude():
    g = CircleGrid(32)
    f = field_from_function(g, lambda t: np.stack([np.cos(t), np.sin(t)]))
    # |f| = 1 everywhere: every norm reduces to the measure of the circle
    assert np.isclose(lp_norm(f, 2), np.sqrt(2 * np.pi), rtol=1e-12)
    assert np.isclose(lorentz_2inf(f), np.sqrt(2 * np.pi), rtol=1e-12)
