"""Stereographic transfer between line and circle."""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap import commutators, fracops, stereo
from fraclap.geometry import CircleGrid, LineGrid, TailModel, field_from_function
from fraclap.stereo import (angle_of, conformal_speed, project_angle, pullback,
                            pushforward, transfer_identity_check, unproject)


@given(x=st.floats(-100.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_project_unproject_roundtrip(x):
    p = unproject(x)
    assert abs(np.sum(p ** 2) - 1.0) < 1e-14  # lands on the circle
    # the projection, taken through the point's circle angle, inverts unproject
    assert abs(project_angle(angle_of(x)) - x) < 1e-9 * max(1.0, abs(x))


def test_angle_of_matches_unproject():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    th = angle_of(x)
    assert np.allclose(np.stack([np.cos(th), np.sin(th)], axis=-1), unproject(x))
    assert np.isclose(angle_of(0.0), np.pi / 2.0)  # x = 0 is the north pole


def test_conformal_speed_is_jacobian():
    # |d/dx unproject(x)| = 2/(1+x^2), and 1 + sin(angle(x)) is the same thing
    x = np.linspace(-5.0, 5.0, 41)
    eps = 1e-6
    fd = (unproject(x + eps) - unproject(x - eps)) / (2 * eps)
    speed_fd = np.sqrt(np.sum(fd ** 2, axis=-1))
    assert np.max(np.abs(speed_fd - 2.0 / (1 + x ** 2))) < 1e-8
    assert np.allclose(conformal_speed(angle_of(x)), 2.0 / (1 + x ** 2))


def test_pushforward_of_lorentzian():
    # u = 1/(1+x^2) pushes forward to (1 + sin t)/2 exactly
    g = LineGrid(400.0, 2 ** 14)
    u = field_from_function(g, lambda x: 1.0 / (1.0 + x * x),
                            tail=TailModel.even(2.0, 1.0))
    v = pushforward(u, CircleGrid(128))
    th = v.grid.nodes()
    assert np.max(np.abs(v.samples[:, 0] - 0.5 * (1.0 + np.sin(th)))) < 1e-8


def test_pushforward_requirements():
    g = LineGrid(10.0, 256)
    bare = field_from_function(g, lambda x: 1.0 / (1.0 + x * x))
    with pytest.raises(ValueError):
        pushforward(bare)
    # arithmetic moves the limits a tail model records, so its result has none
    tailed = field_from_function(g, lambda x: 1.0 / (1.0 + x * x),
                                 tail=TailModel.even(2.0, 1.0))
    for moved in (tailed + 1.0, tailed - 1.0, tailed + tailed, 2.0 * tailed):
        with pytest.raises(ValueError, match="needs a tail model"):
            pushforward(moved)
    # a product tends to 2 at infinity, not to the limit 1 of its factor's tail
    v = field_from_function(g, lambda x: 1.0 + 1.0 / (1.0 + x * x),
                            tail=TailModel.even(2.0, 1.0, limit=1.0))
    q = field_from_function(g, lambda x: np.full_like(x, 2.0))
    with pytest.raises(ValueError, match="pushforward needs a tail model"):
        pushforward(commutators.multiply(q, v))
    circ = field_from_function(CircleGrid(8), np.sin)
    with pytest.raises(TypeError):
        pushforward(circ)
    with pytest.raises(TypeError):
        pullback(bare)


def test_pullback_then_pushforward_is_identity():
    v = field_from_function(CircleGrid(256), lambda t: np.sin(t) + 0.3 * np.cos(2 * t))
    u = pullback(v, LineGrid(2000.0, 2 ** 15))
    back = pushforward(u, CircleGrid(64))
    want = np.sin(back.grid.nodes()) + 0.3 * np.cos(2 * back.grid.nodes())
    assert np.max(np.abs(back.samples[:, 0] - want)) < 1e-5


def test_pullback_tail_encodes_pole_value():
    v = field_from_function(CircleGrid(128), lambda t: np.cos(t))
    u = pullback(v)
    # at the south pole cos(-pi/2) = 0, approached like 2 cos'(-pi/2)/x
    assert np.allclose(u.tail.mean_limit(), 0.0, atol=1e-8)
    x = u.grid.nodes()
    far = np.abs(x) > 0.8 * u.grid.half_width
    model = u.tail.eval(x[far])[:, 0]
    assert np.max(np.abs(u.samples[far, 0] - model)) < 1e-4


def test_transfer_identity_smooth_profile():
    g = LineGrid(10000.0, 2 ** 20)
    u = field_from_function(g, lambda x: 1.0 / (1.0 + x * x),
                            tail=TailModel.even(2.0, 1.0))
    rep = transfer_identity_check(u, arc_halfwidth=0.2, circle_grid=CircleGrid(2048))
    assert rep["max_relative_residual"] < 1e-6
    assert rep["n_points_checked"] > 3000


def _lorentzian_2_14():
    return field_from_function(LineGrid(400.0, 2 ** 14), lambda x: 1.0 / (1.0 + x * x),
                               tail=TailModel.even(2.0, 1.0))


@pytest.mark.parametrize("arc", [0.0, -0.1, float("nan"), 1.6, 3.5])
def test_transfer_rejects_arc_outside_quarter_circle(arc):
    # the keep rule measures |theta + pi/2|, the distance to the south pole
    # only up to pi/2; at 0 or below, or NaN, nothing would be left out
    with pytest.raises(ValueError, match="arc_halfwidth"):
        transfer_identity_check(_lorentzian_2_14(), arc_halfwidth=arc,
                                circle_grid=CircleGrid(128))


def test_transfer_rejects_arc_projecting_past_the_line_grid(monkeypatch):
    # at arc 0.01 the kept angles nearest the pole project to |x| = 162.97,
    # past LineGrid(30, 2^11); the line route has no tail model there, so the
    # call stops before it builds the pushforward or either route
    def forbidden(*args, **kwargs):
        raise AssertionError("transfer_routes built something first")
    monkeypatch.setattr(stereo, "pushforward", forbidden)
    monkeypatch.setattr(fracops, "line_interpolant", forbidden)
    u = field_from_function(LineGrid(30.0, 2 ** 11), lambda x: 1.0 / (1.0 + x * x),
                            tail=TailModel.even(2.0, 1.0))
    with pytest.raises(ValueError, match=r"arc_halfwidth 0\.01 .*\|x\| = 162\.97.*half-width 30\b"):
        transfer_identity_check(u, arc_halfwidth=0.01, circle_grid=CircleGrid(256))


def test_transfer_wide_arc():
    th = CircleGrid(128).nodes()
    outside = np.abs(np.angle(np.exp(1j * (th + np.pi / 2.0)))) >= 1.5
    rep = transfer_identity_check(_lorentzian_2_14(), arc_halfwidth=1.5,
                                  circle_grid=CircleGrid(128))
    assert rep["n_points_checked"] == np.sum(outside) > 0
    assert rep["max_relative_residual"] < 1e-4


def test_transfer_line_route_needs_no_line_field(monkeypatch):
    # the line route starts from u's spectrum and never forms its half
    # Laplacian as a field
    def forbidden(*args, **kwargs):
        raise AssertionError("the line route went through a half-Laplacian field")
    monkeypatch.setattr(fracops, "frac_laplacian_line_spectral", forbidden)
    rep = transfer_identity_check(_lorentzian_2_14(), circle_grid=CircleGrid(256))
    assert rep["max_relative_residual"] < 1e-3


def test_stereo_holds_no_scipy_name():
    # scipy is imported where it is used (pullback), not at module level
    def origin(value):
        if isinstance(value, types.ModuleType):
            return value.__name__
        return str(getattr(value, "__module__", None) or "")
    assert [k for k, v in vars(stereo).items() if origin(v).split(".")[0] == "scipy"] == []
