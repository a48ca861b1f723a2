"""The rfft spectral layer: one Nyquist rule for every multiplier and resize,
and no complex transform of real data."""

import numpy as np
import pytest

from fraclap import commutators, fracops, halfharmonic, norms, pohozaev, stereo
from fraclap.geometry import (CircleGrid, Field, LineGrid, TailModel, resample,
                              rfft_frequencies, rfft_multiply, rfft_resize)

GRIDS = [CircleGrid(16), LineGrid(3.0, 32)]


def _nyquist_field(grid):
    """0.7 (-1)^j plus cos(w x) + 0.3 sin(2 w x), with w the lowest nonzero
    frequency of the grid. Returns the field, the nodes and w."""
    x = grid.nodes()
    w = rfft_frequencies(grid)[1]
    alt = (-1.0) ** np.arange(grid.n_points)
    return Field(grid, 0.7 * alt + np.cos(w * x) + 0.3 * np.sin(2 * w * x)), x, w


def _spectral_half_laplacian(f, s):
    if f.is_circle():
        return fracops.frac_laplacian_circle(f, s)
    return fracops.frac_laplacian_line_spectral(f, s)


@pytest.mark.parametrize("grid", GRIDS)
def test_odd_multipliers_remove_the_nyquist_mode(grid):
    f, x, w = _nyquist_field(grid)
    du = rfft_multiply(f, 1j * rfft_frequencies(grid))[:, 0]
    assert np.max(np.abs(du - (-w * np.sin(w * x) + 0.6 * w * np.cos(2 * w * x)))) < 1e-13
    r = fracops.riesz_transform(f).samples[:, 0]
    assert np.max(np.abs(r - (np.sin(w * x) - 0.3 * np.cos(2 * w * x)))) < 1e-13


@pytest.mark.filterwarnings("ignore:frac_laplacian_line_spectral")
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_even_multipliers_scale_the_nyquist_mode(grid, s):
    f, x, w = _nyquist_field(grid)
    nyquist = grid.n_points / 2 if f.is_circle() else np.pi / grid.h
    assert np.isclose(rfft_frequencies(grid)[-1], nyquist, rtol=1e-15)
    want = (nyquist ** (2 * s) * 0.7 * (-1.0) ** np.arange(grid.n_points)
            + w ** (2 * s) * np.cos(w * x) + 0.3 * (2 * w) ** (2 * s) * np.sin(2 * w * x))
    got = _spectral_half_laplacian(f, s).samples[:, 0]
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", GRIDS)
def test_resize_refines_nyquist_to_a_cosine_and_back(grid):
    f, _, _ = _nyquist_field(grid)
    n = grid.n_points
    spec = f.rfft()
    # refined node 2j is coarse node j; the Nyquist mode (-1)^j refines to
    # the cosine through its samples, cos(pi k / 2) at refined node k
    fine = np.fft.irfft(rfft_resize(spec, 2 * n), 2 * n, axis=0)
    assert np.max(np.abs(fine[::2] - f.samples)) < 1e-14
    alt = Field(grid, (-1.0) ** np.arange(n))
    alt_fine = np.fft.irfft(rfft_resize(alt.rfft(), 2 * n), 2 * n, axis=0)[:, 0]
    assert np.max(np.abs(alt_fine - np.cos(0.5 * np.pi * np.arange(2 * n)))) < 1e-14
    # refining then coarsening returns the spectrum
    assert np.array_equal(rfft_resize(rfft_resize(spec, 2 * n), n), spec)
    back = rfft_resize(rfft_resize(spec, 3 * n // 2), n)
    assert np.max(np.abs(back - spec)) < 1e-14 * np.max(np.abs(spec))
    assert np.array_equal(rfft_resize(spec, n), spec)


def test_no_complex_transform_of_real_data(monkeypatch):
    circle = CircleGrid(32)
    th = circle.nodes()
    v = Field(circle, np.stack([np.cos(th), np.sin(th)], axis=1))
    wave = Field(circle, np.sin(3 * th) + 0.2 * np.cos(5 * th))
    line = LineGrid(100.0, 1 << 12)
    x = line.nodes()
    bump = Field(line, np.exp(-x * x), tail=TailModel.even(2.0, 0.0))
    lorentz = Field(line, 1.0 / (1.0 + x * x), tail=TailModel.even(2.0, 1.0))
    ident = Field(line, stereo.unproject(x),
                  tail=TailModel(1.0, [0.0, -1.0], [0.0, -1.0], [2.0, 0.0], [-2.0, 0.0]))

    def refuse(*args, **kwargs):
        raise AssertionError("complex transform of real data")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    for f in (wave, lorentz):
        _spectral_half_laplacian(f, 0.25)
        fracops.riesz_transform(f)
        fracops.inverse_quarter_laplacian(f)
        norms.sobolev_half_seminorm(f)
    fracops.line_convolve(bump, lorentz)
    fracops.line_interpolant(lorentz)(np.array([0.5, 150.0]))
    with pytest.warns(RuntimeWarning):
        resample(resample(wave, CircleGrid(64)), circle)
    norms.gagliardo_seminorm_sq(bump, subsample=16)
    pohozaev.residual_line(ident, (1.0,), n_quad=200)
    pohozaev.residual_circle(v)
    pohozaev.residual_circle_t(v, (0.5,))
    stereo.pullback(v, LineGrid(50.0, 1024))
    commutators.op_T(wave, wave)
    halfharmonic.horizontality_residual(v, halfharmonic.sphere_distribution(2))
