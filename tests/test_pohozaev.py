"""Weighted-moment identities and the M+/M- averaging operators."""

import tracemalloc

import numpy as np
import pytest

from fraclap import acceptance, fracops
from fraclap.acceptance import check_moment_operators
from fraclap.geometry import (CircleGrid, LineGrid, TailModel,
                              field_from_function, rfft_frequencies, rfft_multiply)
from fraclap.halfharmonic import el_residual, sphere_distribution
from fraclap.pohozaev import (_M_QUAD, _BUMP_WIDTH, _cosine_transform, _even_matrix,
                              _m_quadrature, m_adjoint_check, m_kernel_minus,
                              m_kernel_plus, m_minus, m_plus, m_plus_even_matrix,
                              m_plus_mellin_symbol, plane_field_from_function,
                              residual_circle, residual_circle_t,
                              residual_line, residual_plane)


def _sphere_valued_line_field(grid):
    # smooth finite-energy profile with values on the unit circle
    tail = TailModel(1.0, [0.0, -1.0], [0.0, -1.0], [2.0, 0.0], [-2.0, 0.0])
    return field_from_function(
        grid, lambda x: np.stack([2 * x / (1 + x * x),
                                  (1 - x * x) / (1 + x * x)]), tail=tail)


def test_residual_line_identity():
    g = LineGrid(200.0, 2 ** 13)
    u = _sphere_valued_line_field(g)
    rep = residual_line(u, (0.5, 1.0, 2.0))
    assert np.max(rep.relative_residual()) < 1e-4
    # the identity's premise, P_T u' = u' and P_T (-D)^{1/2} u = 0, on the
    # central half; the outer region carries the spectral operator's
    # periodization error for this slowly decaying field
    central = np.abs(g.nodes()) <= 0.5 * g.half_width
    dist = sphere_distribution(2)
    assert np.max(np.abs(el_residual(u, dist).samples[central])) < 1e-4
    du = rfft_multiply(u, 1j * rfft_frequencies(u.grid))
    assert np.max(np.abs((du - dist.tangent(u.samples, du))[central])) < 1e-5


def test_residual_line_guards():
    g = LineGrid(50.0, 512)
    bare = field_from_function(g, lambda x: 1.0 / (1.0 + x * x))
    with pytest.raises(ValueError):
        residual_line(bare, (1.0,))
    u = _sphere_valued_line_field(g)
    with pytest.raises(ValueError):
        residual_line(u, (1.0, -2.0))
    circ = field_from_function(CircleGrid(8), np.sin)
    with pytest.raises(TypeError):
        residual_line(circ, (1.0,))


def test_residual_circle_identity_map():
    g = CircleGrid(256)
    u = field_from_function(g, lambda t: np.stack([np.cos(t), np.sin(t)]))
    rep = residual_circle(u)
    assert rep.moment_gap < 1e-14
    assert rep.moment_dot < 1e-14
    assert np.allclose(rep.u_plus, [0.5, 0.0], atol=1e-14)
    assert np.allclose(rep.u_minus, [0.0, 0.5], atol=1e-14)


def test_residual_circle_t_variant():
    g = CircleGrid(256)
    u = field_from_function(g, lambda t: np.stack([np.cos(t), np.sin(t)]))
    rep = residual_circle_t(u, (0.5, 1.0))
    assert np.max(np.abs(rep.residual)) < 1e-12
    with pytest.raises(ValueError):
        residual_circle_t(u, (0.0,))
    line = field_from_function(LineGrid(1.0, 16), lambda x: x)
    with pytest.raises(TypeError):
        residual_circle(line)


def test_residual_plane_linear_map():
    # u = (x, y): radial and angular derivative energies agree pointwise
    u = plane_field_from_function(8.0, 128, lambda x, y: np.stack([x, y], axis=-1))
    rep = residual_plane(u, (0.0, 0.0), (0.5, 1.0))
    assert np.max(np.abs(rep.residual)) == 0.0


_HEIGHT_CALLS = {
    "line": lambda t: residual_line(_sphere_valued_line_field(LineGrid(50.0, 512)), t),
    "circle_t": lambda t: residual_circle_t(
        field_from_function(CircleGrid(16), lambda s: np.stack([np.cos(s), np.sin(s)])), t),
    "plane": lambda t: residual_plane(
        plane_field_from_function(8.0, 16, lambda x, y: np.stack([x, y], axis=-1)),
        (0.0, 0.0), t),
}


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("verifier", sorted(_HEIGHT_CALLS))
def test_heights_must_be_positive(verifier, t):
    with pytest.raises(ValueError, match="t values must be positive"):
        _HEIGHT_CALLS[verifier]((1.0, t))


def _exp_half(x, y):
    # exp(z/2): conformal, but no polynomial, so central differences err
    return np.exp(x / 2)[..., None] * np.stack([np.cos(y / 2), np.sin(y / 2)], axis=-1)


def test_plane_gate_fails_on_a_non_conformal_map(monkeypatch):
    # check 07's gate on (x + y^2/2, y): with the t = 1 weight, the radial
    # energy is 16 and the angular one 8 (in units of the weight's mass)
    monkeypatch.setitem(acceptance.PLANE_PRESETS, "bend",
                        lambda x, y: np.stack([x + y * y / 2, y], axis=-1))
    (gate,) = acceptance.pohozaev_plane("x", ("bend",), acceptance.POHOZAEV_PLANE_T)[1].gates
    assert abs(gate.value - 0.5) < 1e-5
    assert not gate.holds


def test_plane_identity_reads_two_thirds_on_x_squared():
    # u = (x^2, 0) on check 07's grid: |x . grad u|^2 = 4 x^4 and
    # |x^perp . grad u|^2 = 4 x^2 y^2, and E[x^4] = 3 E[x^2 y^2] under the
    # Gaussian weight, so lhs = 3 rhs and the relative residual is 2/3;
    # central differences are exact on quadratics, so only the box truncates
    u = plane_field_from_function(8.0, 512, lambda x, y: np.stack([x * x, 0.0 * y], axis=-1))
    rep = residual_plane(u, (0.0, 0.0), acceptance.POHOZAEV_PLANE_T)
    assert abs(float(rep.relative_residual()[0]) - 2.0 / 3.0) < 1e-5


def test_plane_gate_measures_a_non_polynomial_conformal_map(monkeypatch):
    monkeypatch.setitem(acceptance.PLANE_PRESETS, "exp-half", _exp_half)
    (gate,) = acceptance.pohozaev_plane("x", ("exp-half",), acceptance.POHOZAEV_PLANE_T)[1].gates
    assert gate.holds and 5e-5 < gate.value
    # the residual is the central differences' h^2 error, not round-off
    coarse = [float(np.max(residual_plane(plane_field_from_function(8.0, n, _exp_half),
                                          (0.0, 0.0), acceptance.POHOZAEV_PLANE_T)
                           .relative_residual()))
              for n in (128, 256)]
    orders = np.log2(np.array(coarse) / np.array([coarse[1], gate.value]))
    assert np.all(np.abs(orders - 2.0) < 0.01)


def test_residual_plane_rejects_wide_weight():
    u = plane_field_from_function(8.0, 64, lambda x, y: np.stack([x, y], axis=-1))
    with pytest.raises(ValueError):
        residual_plane(u, (0.0, 0.0), (20.0,))


def test_kernel_values_and_parity():
    assert np.isclose(m_kernel_plus(0.0), np.sqrt(np.pi), rtol=1e-15)
    assert m_kernel_minus(0.0) == 0.0
    x = np.linspace(0.1, 30.0, 57)
    assert np.allclose(m_kernel_plus(-x), m_kernel_plus(x), rtol=1e-14)
    assert np.allclose(m_kernel_minus(-x), -m_kernel_minus(x), rtol=1e-14)
    # 3/2-power decay at infinity
    big = 1e6
    assert abs(m_kernel_plus(big)) < 2 * big ** -1.5 * np.sqrt(np.pi)


def test_m_operators_impose_parity_exactly():
    g = LineGrid(40.0, 1024)
    w = field_from_function(g, lambda x: np.exp(-((x - 0.7) ** 2)),
                            tail=TailModel.even(4.0, 0.0))
    t_grid = LineGrid(8.0, 64)
    ref = t_grid.reflected_indices()
    plus = m_plus(w, t_grid)
    minus = m_minus(w, t_grid)
    assert np.array_equal(plus.samples, plus.samples[ref])
    assert np.array_equal(minus.samples, -minus.samples[ref])


def test_m_operators_match_the_two_query_formula():
    # two components, neither even nor odd, whose tail limits and coefficients
    # differ on the two sides; the largest |t| x_q lie far outside the grid
    g = LineGrid(40.0, 1024)
    tail = TailModel(2.0, [1.3, 0.2], [-0.7, -0.2], [-0.5, 0.9], [0.5, 1.1])
    w = field_from_function(g, lambda x: np.stack([
        0.3 + x / np.sqrt(1 + x * x) + np.exp(-((x - 0.7) ** 2)),
        1.0 / (1.0 + (x - 1.0) ** 2) + 0.2 * x / np.sqrt(1 + x * x)]), tail=tail)
    t_grid = LineGrid(8.0, 64)
    t = t_grid.nodes()
    x_quad, wp, wm = _m_quadrature(_M_QUAD)
    args = (t[:, None] * x_quad[None, :]).ravel()
    assert np.max(np.abs(args)) > g.half_width
    interp = fracops.line_interpolant(w)
    vp = interp(args).reshape(len(t), len(x_quad), 2)
    vm = interp(-args).reshape(len(t), len(x_quad), 2)
    for op, weights, combo in ((m_plus, wp, vp + vm), (m_minus, wm, vp - vm)):
        ref = np.einsum("q,tqm->tm", weights, combo)
        out = op(w, t_grid).samples
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_m_operator_guards():
    g = LineGrid(40.0, 1024)
    bare = field_from_function(g, lambda x: np.exp(-x * x))
    with pytest.raises(ValueError):
        m_plus(bare, LineGrid(8.0, 64))
    w = field_from_function(g, lambda x: np.exp(-x * x),
                            tail=TailModel.even(4.0, 0.0))
    with pytest.raises(ValueError):
        m_minus(w, CircleGrid(16))  # node at zero


def test_m_plus_adjoint_pairing():
    g = LineGrid(60.0, 2 ** 12)
    w1 = field_from_function(g, lambda x: 1.0 / (1.0 + x * x) ** 2,
                             tail=TailModel.even(4.0, 1.0))
    w2 = field_from_function(g, lambda x: np.exp(-x * x),
                             tail=TailModel.even(4.0, 0.0))
    r1, r2 = m_adjoint_check(w1, w2)
    assert abs(r1 - r2) < 1e-6 * max(1.0, abs(r1))
    with pytest.raises(ValueError):
        m_adjoint_check(w1, field_from_function(LineGrid(50.0, 2 ** 12),
                                                lambda x: np.exp(-x * x),
                                                tail=TailModel.even(4.0, 0.0)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the dense reference needs extended precision")
def test_cosine_transform_matches_the_dense_sum():
    # two components, neither exactly even: the transform sees the even part.
    # In double precision the dense sum itself errs by up to 2.4e-15 of the
    # max here (rounded cos arguments), so it is summed in extended precision
    g = LineGrid(20.0, 2 ** 10)
    half = g.n_points // 2
    f = field_from_function(g, lambda x: np.stack([np.exp(-0.5 * x * x) * (1 + 0.3 * x),
                                                   1.0 / (1.0 + x * x) + 0.1 * np.tanh(x)]))
    even = 0.5 * (f.samples + f.samples[::-1])[half:]
    a, h = np.arange(half) + 0.5, np.longdouble(g.h)  # positive nodes x_a = a h
    dense = np.sqrt(2.0 / np.pi) * h * np.cos(np.outer(a, a) * h * h) @ even
    dense = np.concatenate([dense[::-1], dense]).astype(float)
    fast = _cosine_transform(f).samples
    assert fast.shape == (g.n_points, 2)
    assert np.max(np.abs(fast - dense)) <= 1e-15 * np.max(np.abs(dense))


def test_cosine_transform_of_a_gaussian_on_a_fine_grid():
    # the dense (n/2, n) cosine matrix would take 16 GB at n = 2^16
    g = LineGrid(60.0, 2 ** 16)
    x = g.nodes()
    out = _cosine_transform(field_from_function(g, lambda x: np.exp(-x * x)))
    assert np.max(np.abs(out.samples[:, 0] - np.exp(-0.25 * x * x) / np.sqrt(2.0))) < 1e-14


def test_moment_operators_check_stays_small_in_memory():
    tracemalloc.start()
    try:
        r = check_moment_operators()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.passed
    assert peak < 24e6


def test_mellin_symbol_values():
    sym0, sym10 = m_plus_mellin_symbol([0.0, 10.0], n_quad=1200, lam_max=40.0)
    assert abs(sym0.imag) < 1e-10
    assert np.isclose(sym0.real, 5.01325655, atol=1e-6)
    # fast decay in the Mellin frequency, but no zero
    assert 0 < abs(sym10) < 1e-4


def test_even_matrix_injectivity_small():
    out = m_plus_even_matrix(n_bumps=24, n_quad=200, c_min=1e-3, c_max=1e3)
    assert out["sigma_min"] > 0.0
    assert out["sigma_max"] > out["sigma_min"]
    assert np.isfinite(out["cond"])
    assert out["n_bumps"] == 24


def test_even_matrix_matches_the_dense_form():
    # the Toeplitz matrix from its diagonals against every (row, node, bump)
    # term: bump j at M+'s node c_i x_q
    n_bumps, n_quad, c_min, c_max = 24, 200, 1e-3, 1e3
    centers = np.exp(np.linspace(np.log(c_min), np.log(c_max), n_bumps))
    x_quad, wp, _ = _m_quadrature(n_quad)
    la = np.log(centers[:, None] * x_quad[None, :])
    bumps = np.exp(-((la[:, :, None] - np.log(centers)[None, None, :]) ** 2)
                   / (2 * _BUMP_WIDTH ** 2))
    dense = np.einsum("q,iqj->ij", 2.0 * wp, bumps)
    A = _even_matrix(n_bumps, n_quad, c_min, c_max)
    assert A.shape == (n_bumps, n_bumps)
    assert np.all(np.abs(A - dense) <= 1e-12 * np.abs(dense))
