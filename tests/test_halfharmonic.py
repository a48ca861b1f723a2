"""Constrained gradient flow, Moebius composition, neck diagnostics."""

import collections
import tracemalloc
from fractions import Fraction
from math import gamma

import numpy as np
import pytest

from fraclap import fracops, halfharmonic, stereo
from fraclap.geometry import (CircleGrid, Field, LineGrid, field_from_function,
                              gauss_legendre, panel_rule, rfft_frequencies,
                              rfft_multiply, rfft_resize)
from fraclap.halfharmonic import (_NODES_PER_ANNULUS, PlaneDistribution,
                                  _bounded_brent, _bubble_quarter_lap,
                                  _circle_evaluator,
                                  _line_mobius_angles, _locate_concentration,
                                  _mobius_angles, bubbling_experiment,
                                  el_residual, energy, gradient_check,
                                  gradient_flow, identity_map, mobius_compose,
                                  perturbed_identity, sphere_distribution)


def test_sphere_distribution_operations():
    d = sphere_distribution(2)
    z = np.array([[3.0, 4.0], [0.0, 2.0]])
    r = d.retraction(z)
    assert np.allclose(np.linalg.norm(r, axis=1), 1.0)
    assert np.allclose(d.constraint_distance(r), 0.0, atol=1e-15)
    # projector at a point removes the radial component
    p = d.projector(r)
    radial = np.einsum("nij,nj->ni", p, r)
    assert np.max(np.abs(radial)) < 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_sphere_tangent_is_the_projector(m):
    d = sphere_distribution(m)
    rng = np.random.default_rng(m)
    z = d.retraction(rng.standard_normal((64, m)))
    v = rng.uniform(-1.0, 1.0, (64, m))
    p = d.projector(z)
    assert p.shape == (64, m, m)
    assert np.max(np.abs(d.tangent(z, v) - np.einsum("nij,nj->ni", p, v))) <= 1e-15
    assert np.max(np.abs(np.einsum("nij,nj->ni", p, z))) <= 1e-15
    # off the target the projection still uses the direction of z only
    assert np.max(np.abs(d.tangent(3.0 * z, v) - d.tangent(z, v))) <= 1e-15


def test_energy_of_degree_maps():
    g = CircleGrid(64)
    assert np.isclose(energy(identity_map(g)), 2 * np.pi, rtol=1e-12)
    deg2 = field_from_function(g, lambda t: np.stack([np.cos(2 * t), np.sin(2 * t)]))
    assert np.isclose(energy(deg2), 4 * np.pi, rtol=1e-12)


def test_identity_is_critical():
    g = CircleGrid(64)
    res = el_residual(identity_map(g), sphere_distribution(2))
    assert np.max(np.abs(res.samples)) < 1e-12


def _horizontality_residual(u, dist):
    """Normal part of the spectral derivative, P_N(u) u', at the nodes."""
    du = rfft_multiply(u, 1j * rfft_frequencies(u.grid))
    return du - dist.tangent(u.samples, du)


def test_horizontality_residual_is_the_normal_derivative():
    g = CircleGrid(64)
    u = identity_map(g)
    # maps into the sphere have tangent derivatives: the normal part is round-off
    sphere_res = _horizontality_residual(u, sphere_distribution(2))
    assert np.max(np.abs(sphere_res)) < 1e-12
    # against the x-axis as target, the normal part of u' = (-sin, cos) is (0, cos)
    axis = PlaneDistribution(lambda z, v: v * np.array([1.0, 0.0]))
    res = _horizontality_residual(u, axis)
    want = np.stack([np.zeros(g.n_points), np.cos(g.nodes())], axis=1)
    assert np.max(np.abs(res - want)) < 1e-12


def test_flow_relaxes_to_identity_energy():
    g = CircleGrid(n_modes=64)
    states = gradient_flow(perturbed_identity(g, 0.05, 7), sphere_distribution(2),
                           tol=1e-6, max_iter=5000)
    final = states[-1]
    assert final.el_residual_norm <= 1e-6
    assert abs(final.energy - 2 * np.pi) < 1e-4
    energies = [s.energy for s in states]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    norms_final = np.linalg.norm(final.u.samples, axis=1)
    assert np.max(np.abs(norms_final - 1.0)) < 1e-12
    iters = [s.iteration for s in states]
    assert iters == sorted(iters) and iters[0] == 0
    assert not final.stalled


def test_flow_reports_a_stall():
    # no residual reaches 1e-20: the step size runs out first
    states = gradient_flow(perturbed_identity(CircleGrid(n_modes=16), 0.05, 7),
                           sphere_distribution(2), tol=1e-20)
    final = states[-1]
    assert final.stalled and final.step < 1e-14
    assert final.el_residual_norm > 1e-20 and final.iteration < 100
    assert not any(s.stalled for s in states[:-1])
    counts = [s.backtracks for s in states]
    assert counts == sorted(counts) and counts[-1] > 0


def test_flow_step_costs_two_fft_pairs(monkeypatch):
    u0 = perturbed_identity(CircleGrid(n_modes=64), 0.2, 3)
    calls = collections.Counter()

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    # a first step far beyond the accepted ones forces backtracks well above
    # round-off, and max_iter ends the run long before the residual floor
    final = gradient_flow(u0, sphere_distribution(2), tol=1e-12, max_iter=10,
                          step0=16.0)[-1]
    assert final.iteration == 10 and not final.stalled and final.backtracks > 0
    # every candidate, accepted or not, costs the rffts of its energy and of
    # cand - u and cand + u for the Armijo test; an accepted one (and the
    # start) adds the gradient's irfft and the preconditioner's rfft/irfft
    # pair
    candidates = final.iteration + final.backtracks
    assert calls["rfft"] == 2 * (1 + final.iteration) + final.backtracks + 2 * candidates
    assert calls["irfft"] == 2 * (1 + final.iteration)
    assert calls["fft"] == calls["ifft"] == 0


def test_flow_stalls_instead_of_wandering_below_the_floor():
    # below the residual floor a candidate differs from u by round-off; the
    # Armijo test, taken from the transforms of cand - u and cand + u,
    # rejects it, so the step runs out instead of wandering to max_iter
    u0 = perturbed_identity(CircleGrid(16), 0.05, 7)
    final = gradient_flow(u0, sphere_distribution(2), tol=1e-20, max_iter=2000)[-1]
    assert final.stalled and final.iteration < 100


@pytest.mark.parametrize("n_modes, amp, seed", [
    (64, 0.05, 7), (512, 0.05, 7), (2048, 0.05, 7), (128, 0.2, 339994981)])
def test_flow_iterations_do_not_grow_with_the_grid(n_modes, amp, seed):
    u0 = perturbed_identity(CircleGrid(n_modes=n_modes), amp, seed)
    states = gradient_flow(u0, sphere_distribution(2), tol=1e-6)
    final = states[-1]
    assert final.el_residual_norm <= 1e-6 and final.iteration <= 20
    # every accepted step is recorded
    assert [s.iteration for s in states] == list(range(final.iteration + 1))


def test_flow_rejects_off_target_start():
    g = CircleGrid(16)
    bad = field_from_function(g, lambda t: np.stack([2 * np.cos(t), np.sin(t)]))
    with pytest.raises(ValueError):
        gradient_flow(bad, sphere_distribution(2))


def test_gradient_check_direction():
    g = CircleGrid(n_modes=64)
    u = perturbed_identity(g, 0.1, 3)
    analytic, fd = gradient_check(u, sphere_distribution(2))
    assert abs(analytic - fd) < 1e-5 * max(1.0, abs(analytic))


def test_mobius_compose_preserves_energy():
    g = CircleGrid(128)
    u = identity_map(g)
    e0 = energy(u)
    comp = mobius_compose(u, 0.5)
    assert abs(energy(comp) - e0) < 1e-8 * e0
    with pytest.raises(ValueError):
        mobius_compose(u, 1.0)
    line = field_from_function(LineGrid(1.0, 16), lambda x: x)
    with pytest.raises(ValueError):
        mobius_compose(line, 0.5)


@pytest.mark.parametrize("m", [2, 3])
def test_circle_spline_is_scipys_periodic_spline(m):
    from scipy.interpolate import CubicSpline
    grid = CircleGrid(n_modes=32)
    th = grid.nodes()
    rng = np.random.default_rng(m)
    u = Field(grid, sum(np.outer(np.cos(k * th + rng.uniform(0.0, 2.0 * np.pi)),
                                 rng.normal(size=m)) / k for k in range(1, 6)))
    n_fine = 8 * grid.n_points
    fine = np.fft.irfft(rfft_resize(u.rfft(), n_fine), n_fine, axis=0)
    want = CubicSpline(2.0 * np.pi * np.arange(n_fine + 1) / n_fine,
                       np.vstack([fine, fine[:1]]), axis=0, bc_type="periodic")
    # the ends of the base period, its nodes, and angles below 0 and past 2 pi,
    # which scipy wraps by its periodic extrapolation
    theta = np.concatenate([[0.0, 2.0 * np.pi, -2.0 * np.pi, 4.0 * np.pi],
                            2.0 * np.pi * np.arange(n_fine) / n_fine,
                            rng.uniform(-20.0, 0.0, 5000), rng.uniform(2.0 * np.pi, 20.0, 5000),
                            rng.uniform(0.0, 2.0 * np.pi, 5000)])
    got = _circle_evaluator(u)
    assert got(theta).shape == want(theta).shape == (len(theta), m)
    assert np.max(np.abs(got(theta) - want(theta))) <= 1e-14 * np.max(np.abs(want(theta)))
    # scipy's periodic solve leaves its node slopes 6e-14 relative from a
    # long-double solution of the same system
    d_got, d_want = got.derivative()(theta), want.derivative()(theta)
    assert np.max(np.abs(d_got - d_want)) <= 1e-13 * np.max(np.abs(d_want))


@pytest.mark.parametrize("geometry", ["circle", "line"])
def test_spline_query_of_shape_s_returns_s_plus_m(geometry):
    # one point gives one row, and a (p, q) array a (p, q, m) block, on the
    # circle and on the line alike
    m, rng = 3, np.random.default_rng(5)
    if geometry == "circle":
        grid = CircleGrid(n_modes=32)
        ev = _circle_evaluator(Field(grid, np.cos(np.outer(grid.nodes(), [1.0, 2.0, 3.0]))))
    else:
        grid = LineGrid(8.0, 256)
        ev = fracops.line_interpolant(Field(grid, rng.normal(size=(grid.n_points, m))))
    x = rng.uniform(-7.0, 7.0, 12)
    assert ev(x).shape == (12, m)
    assert ev(x[7]).shape == (m,) and np.array_equal(ev(x[7]), ev(x)[7])
    assert np.array_equal(ev(x.reshape(3, 4)), ev(x).reshape(3, 4, m))


@pytest.mark.parametrize("case", ["smooth", "noise"])
def test_circle_and_line_share_one_spline(case):
    # one sample array on CircleGrid(n/2) and on LineGrid(pi, n), refined 8
    # times: the line's nodes are the circle's moved by x0 = -pi + h/2, so
    # its spline is the circle's moved by x0. The smooth field cuts the
    # band; noise up to the Nyquist frequency keeps it whole. The noise is
    # small because the round-off of x - x0 moves a value by its slope, and
    # unit noise refined 8 times has slopes of several hundred
    n = 256
    circle, line = CircleGrid(n // 2), LineGrid(np.pi, n)
    rng = np.random.default_rng(4)
    th = circle.nodes()
    samples = np.stack([np.cos(th) + 0.3 * np.sin(3.0 * th), np.sin(2.0 * th)], axis=1)
    if case == "noise":
        samples += 1e-2 * rng.normal(size=(n, 2))
    spec = Field(line, samples).rfft()
    keep = fracops._band(spec, 8) // 2 + 1
    assert (keep < n // 2 + 1) == (case == "smooth")
    on_circle = _circle_evaluator(Field(circle, samples))
    on_line = fracops._SplineInterpolant(line, spec[:keep], None, 8)
    nodes = line.nodes()
    x0, dx = nodes[0], line.h / 8
    # the fine nodes, the nodes and scattered points, all in the node range
    x = np.concatenate([x0 + dx * np.arange(8 * (n - 1) + 1), nodes,
                        rng.uniform(x0, nodes[-1], 5000)])
    want = on_circle(x - x0)
    assert np.max(np.abs(on_line(x) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("func,lo,hi,xatol", [
    (lambda x: (x - 2.0) * x * (x + 2.0) ** 2, -3.0, -1.0, 1e-5),
    (lambda x: -np.exp(-((x - 0.3) / 0.05) ** 2) - 0.1 * x, -1.0, 2.0, 1e-9),
    (lambda x: abs(x - 1.0 / 7.0) ** 1.5 + np.cos(3.0 * x), -0.5, 0.9, 1e-7),
], ids=["polynomial", "gaussian-bump", "kink"])
def test_bounded_brent_is_scipys_bounded_search(func, lo, hi, xatol):
    from scipy.optimize import minimize_scalar
    want = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol})
    x, nfev = _bounded_brent(func, lo, hi, xatol)
    assert x == want.x and nfev == want.nfev


def _mobius_composition_error(a):
    # the 8x refined interpolant of identity o phi_a against the exact
    # (z - a)/(1 - a z) on a fine sweep of angles
    comp = mobius_compose(identity_map(CircleGrid(n_modes=512)), a)
    theta = np.linspace(0.0, 2.0 * np.pi, 200001)
    z = np.exp(1j * theta)
    exact = (z - a) / (1.0 - a * z)
    got = _circle_evaluator(comp)(theta)
    return np.max(np.abs(got - np.stack([exact.real, exact.imag], axis=1)))


def test_mobius_compose_resolves_a_moderate_bubble():
    # settles at 2048 nodes and errs by 2.2e-11
    assert _mobius_composition_error(0.9) < 1e-6


@pytest.mark.parametrize("a,bound", [(0.99, 1e-9), (0.999, 1e-6)])
def test_mobius_compose_resolves_a_sharp_bubble(a, bound):
    # resolved at 16384 nodes (error 6.3e-11) and 131072 nodes (1.5e-10);
    # the composed energy is 2 pi at any node count, so it cannot say when
    assert _mobius_composition_error(a) < bound


def test_mobius_compose_stops_at_twice_an_unresolved_input():
    # noise up to the input's Nyquist mode sets the tail floor, so the
    # refinement does not chase it (without the floor it ran to 2^20 and 2^21)
    u = identity_map(CircleGrid(n_modes=512))
    noise = np.random.default_rng(0).standard_normal(u.samples.shape)
    noisy = u.with_samples(u.samples + 1e-3 * noise)
    for a in (0.6, 0.9):
        assert mobius_compose(noisy, a).grid.n_points == 2048


def test_mobius_compose_raises_value_error_at_the_cap(monkeypatch):
    monkeypatch.setattr(halfharmonic, "_MOBIUS_N_MAX", 1 << 14)
    with pytest.raises(ValueError, match="unresolved at 16384 nodes"):
        mobius_compose(identity_map(CircleGrid(n_modes=512)), 0.999)


def test_bubbling_requires_critical_input():
    g = CircleGrid(n_modes=64)
    with pytest.raises(ValueError):
        bubbling_experiment(perturbed_identity(g, 0.05, 7), 0.9)


def test_bubbling_identity_report():
    g = CircleGrid(n_modes=256)
    rep = bubbling_experiment(identity_map(g), 0.9)
    assert rep.a == 0.9
    assert np.isclose(rep.energy_total, 2 * np.pi, rtol=1e-8)
    # annuli are dyadic and nested inside (lam (1-a), R / (2 lam))
    for (r0, r1), (s0, s1) in zip(rep.annuli, rep.annuli[1:]):
        assert np.isclose(s0, r1)
    assert rep.annuli[0][0] >= 0.19
    assert rep.annuli[-1][1] <= 0.51
    assert len(rep.l2) == len(rep.annuli) == len(rep.l21) == len(rep.l2inf)
    # frozen: the dyadic sup of the quarter-Laplacian magnitude at a = 0.9
    assert np.isclose(rep.dyadic_sup, 0.71690943, atol=1e-6)


def _neck(k):
    """The neck quadrature of identity o phi_a, a = 1 - 10^-k, as
    bubbling_experiment builds it, and the annulus nodes it evaluates."""
    a = 1.0 - 10.0 ** -k
    u = identity_map(CircleGrid(n_modes=256))
    ev = _circle_evaluator(u)
    center = _locate_concentration(ev, a, 1.0 - a)

    def w_eval(xs):
        return ev(_line_mobius_angles(xs, a))

    quarter = _bubble_quarter_lap(w_eval, w_eval(np.array([1.0e30]))[0], center, 1.0 - a)
    annuli = bubbling_experiment(u, a).annuli
    dists = panel_rule([r0 for r0, _ in annuli] + [annuli[-1][1]],
                       gauss_legendre(_NODES_PER_ANNULUS))[0]
    return a, quarter, np.concatenate([center + dists, center - dists])


def test_line_mobius_angle_is_the_circle_composition():
    x = np.linspace(-30.0, 30.0, 601)
    for a in (-0.7, 0.0, 0.3, 0.9):
        old = _mobius_angles(stereo.angle_of(x), a)
        gap = np.angle(np.exp(1j * (_line_mobius_angles(x, a) - old)))
        assert np.max(np.abs(gap)) < 1e-14


@pytest.mark.parametrize("k", [3, 5, 7])
def test_line_mobius_angle_is_exact_near_the_bubble(k):
    # reference: both arctan2 components in exact rational arithmetic, each
    # rounded once, so the reference angle is good to an ulp or two
    a = 1.0 - 10.0 ** -k
    x = 1.0 + (1.0 - a) * np.concatenate([-np.geomspace(1e-3, 1e3, 100),
                                          np.geomspace(1e-3, 1e3, 100)])
    fa = Fraction(a)
    ref = []
    for xi in x:
        y = (Fraction(xi) - fa) / (1 - fa * Fraction(xi))
        ref.append(np.arctan2(float(1 - y * y), float(2 * y)))
    assert np.max(np.abs(_line_mobius_angles(x, a) - np.array(ref))) <= 1e-15


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_neck_quadrature_matches_the_closed_form(k):
    # identity o phi_a on the line is R unproject((x - c)/b), c = 2a/(1+a^2),
    # b = (1-a^2)/(1+a^2), R = [[b, c], [-c, b]]; the second component plus i
    # times the first is -1 + 2/(1 - iy), analytic in the upper half plane,
    # so (-D)^{1/4} of it is 2 Gamma(3/2) (1 - iy)^{-3/2}, scaled by b^{-1/2}
    a, quarter, xs = _neck(k)
    s = 1.0 + a * a
    b = (1.0 - a) * (1.0 + a) / s
    c = 2.0 * a / s
    # x - c = (x - 1) + (1 - a)^2/(1 + a^2), free of cancellation at x ~ 1
    z = gamma(1.5) * (1.0 + 1j * ((xs - 1.0) + (1.0 - a) ** 2 / s) / b) ** -1.5
    exact = (np.stack([-2.0 * z.imag, 2.0 * z.real], axis=1)
             @ np.array([[b, -c], [c, b]]) / np.sqrt(b))
    err = np.max(np.linalg.norm(quarter(xs) - exact, axis=1))
    assert err <= 1e-9 * np.max(np.linalg.norm(exact, axis=1))


def test_neck_quadrature_blocks_leave_each_point_alone():
    # 717 of the 720 nodes: 89 full blocks and one of 5 points
    _, quarter, xs = _neck(5)
    xs = xs[:-3]
    rows = np.concatenate([quarter(xs[i:i + 1]) for i in range(len(xs))])
    assert np.array_equal(quarter(xs), rows)


def test_neck_experiment_stays_small_in_memory():
    u = identity_map(CircleGrid(n_modes=256))
    tracemalloc.start()
    try:
        rep = bubbling_experiment(u, 1.0 - 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.annuli) == 22
    assert peak < 8 * 2 ** 20
