"""Stereographic transfer between the line and the circle.

The projection sends a circle point (cos t, sin t) to cos t / (1 + sin t) on
the real line; the south pole (0, -1) has no image. Its inverse is

    x  ->  (2x/(1+x^2), (1-x^2)/(1+x^2)).

Transfer of the half Laplacian picks up one factor of the conformal speed
1 + sin t (the arc-length speed of the x-parametrization of the circle):

    ((-D)^{1/2} v)(t) = ((-D)^{1/2} u)(proj(t)) / (1 + sin t),   v = u o proj,

valid away from the south pole. transfer_identity_check measures both sides.
"""

import numpy as np

from .geometry import (
    CircleGrid,
    Field,
    LineGrid,
    TailModel,
    rfft_frequencies,
    rfft_multiply,
)
from . import fracops


def unproject(x):
    """Inverse stereographic map; |x| -> inf approaches the south pole."""
    x = np.asarray(x, dtype=float)
    w = 1.0 + x ** 2
    return np.stack([2.0 * x / w, (1.0 - x ** 2) / w], axis=-1)


def angle_of(x):
    """Circle angle of unproject(x), in (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    # unproject(x) scaled by its positive denominator 1 + x^2
    return np.arctan2(1.0 - x ** 2, 2.0 * x)


def conformal_speed(theta):
    """Arc-length speed 1 + sin(theta) of the x-parametrization.

    Equals |d/dx unproject(x)| = 2/(1+x^2) composed with the projection; the
    finite-difference identity is exercised in the tests.
    """
    return 1.0 + np.sin(np.asarray(theta, dtype=float))


def project_angle(theta):
    """proj(cos theta, sin theta) without building the point array."""
    return np.cos(theta) / conformal_speed(theta)


def pushforward(u, circle_grid=None):
    """Compose a line field with the projection, yielding a circle field.

    The neighborhood of the south pole samples u far out on the line, so a
    tail model on u is required; the pole itself takes the two-sided mean
    limit.
    """
    if not isinstance(u.grid, LineGrid):
        raise TypeError("pushforward expects a line field")
    if u.tail is None:
        raise ValueError("pushforward needs a tail model on u")
    grid = circle_grid or CircleGrid()
    th = grid.nodes()
    interp = fracops.line_interpolant(u)
    out = np.empty((grid.n_points, u.m))
    regular = conformal_speed(th) > 1e-12
    out[regular] = interp(project_angle(th[regular]))
    if np.any(~regular):
        out[~regular] = u.tail.mean_limit()
    return Field(grid, out)


def pullback(v, line_grid=None):
    """Compose a circle field with the inverse projection.

    Samples v at the angles of unproject(x) by monotone cubic interpolation
    in the angle (keeps bounds, no overshoot for manifold-valued data). The
    returned field carries a first-order tail toward the south-pole value.
    """
    from scipy.interpolate import PchipInterpolator

    if not isinstance(v.grid, CircleGrid):
        raise TypeError("pullback expects a circle field")
    grid = line_grid or LineGrid()
    th_nodes = v.grid.nodes()
    th_ext = np.concatenate([th_nodes - 2 * np.pi, th_nodes, th_nodes + 2 * np.pi])

    def periodic(samples):
        return PchipInterpolator(th_ext, np.concatenate([samples] * 3), axis=0)

    values = periodic(v.samples)
    out = values(angle_of(grid.nodes()))
    # behavior at infinity: v near the south pole along theta ~ -pi/2 + 2/x
    pole = -np.pi / 2.0
    v0 = values(pole)
    dv0 = periodic(rfft_multiply(v, 1j * rfft_frequencies(v.grid)))(pole)
    tail = TailModel(
        power=1.0,
        limit_pos=v0,
        limit_neg=v0,
        coef_pos=2.0 * dv0,
        coef_neg=-2.0 * dv0,
    )
    return Field(grid, out, tail=tail)


def transfer_routes(u, arc_halfwidth, circle_grid=None):
    """The two routes to the half Laplacian of u o proj.

    Circle route: spectral operator on the circle applied to the
    pushforward. Line route: the line operator's interpolant, built from u's
    spectrum (cached by the pushforward) times |xi| with one transform,
    sampled at the projected angles and divided by the conformal speed.
    Angles within arc_halfwidth in (0, pi/2) of the south pole are left out
    (the projection blows up there); the rest must project onto u's nodes.

    Returns (kept angles, circle route, line route), the routes of shape
    (angles, m).
    """
    # |theta + pi/2| below is the circular distance to the pole only up to pi/2
    if not 0.0 < arc_halfwidth < np.pi / 2.0:
        raise ValueError("arc_halfwidth must lie in (0, pi/2), got %r" % (arc_halfwidth,))
    if not isinstance(u.grid, LineGrid):
        raise TypeError("transfer_routes expects a line field")
    th = (circle_grid or CircleGrid()).nodes()
    th_wrapped = np.mod(th + np.pi, 2 * np.pi) - np.pi
    keep = np.abs(th_wrapped + np.pi / 2.0) >= arc_halfwidth
    th = th[keep]
    x = project_angle(th)
    if np.max(np.abs(x)) > u.grid.half_width - 0.5 * u.grid.h:
        raise ValueError("arc_halfwidth %r keeps angles that project to |x| = %.6g, beyond the "
                         "line grid's nodes (half-width %.6g)"
                         % (arc_halfwidth, np.max(np.abs(x)), u.grid.half_width))
    v = pushforward(u, circle_grid=circle_grid)
    circle_route = fracops.frac_laplacian_circle(v, 0.5).samples[keep]
    interp = fracops.line_interpolant(u, multiplier=rfft_frequencies(u.grid))
    return th, circle_route, interp(x) / conformal_speed(th)[:, None]


def transfer_identity_check(u, arc_halfwidth=0.2, circle_grid=None):
    """Compare the two routes of transfer_routes.

    Returns a dict with the max absolute residual, the same relative to the
    max of the circle route, and the arc actually used.
    """
    th, lhs, rhs = transfer_routes(u, arc_halfwidth, circle_grid)
    resid = np.max(np.abs(lhs - rhs))
    scale = max(float(np.max(np.abs(lhs))), 1e-14)
    return {
        "max_abs_residual": float(resid),
        "max_relative_residual": float(resid / scale),
        "arc_halfwidth": float(arc_halfwidth),
        "n_points_checked": len(th),
    }
