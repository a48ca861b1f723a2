"""Closed-form profiles, potentials and neck norms of the scaled sequence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.counterexample import (ENVELOPE_DECAY_LIMIT, annulus_nodes,
                                    build_potentials, build_profiles,
                                    decay_slopes, neck_report, potential_omega,
                                    potential_omega1, profile_u, profile_v,
                                    quarter_laplacian_u, quarter_laplacian_v,
                                    scaled_sequence)
from fraclap.geometry import CircleGrid, LineGrid
from scipy.special import gamma


def test_profile_values():
    assert profile_u(0.0) == 1.0
    assert profile_u(1.0) == 1.0
    assert profile_u(4.0) == 0.5
    assert profile_v(0.0) == 1.0
    assert np.isclose(profile_v(1.0), 2.0 ** -0.375)


def test_quarter_laplacian_u_anchors():
    assert quarter_laplacian_u(0.0) == 2.0
    assert np.isclose(quarter_laplacian_u(1.0), 2.0 * np.sqrt(2.0), rtol=1e-12)
    assert np.isclose(quarter_laplacian_u(4.0), 0.2520085849654561, rtol=1e-12)
    # far field sits on the 2 t^(-3/2) asymptote
    t = 1.0e4
    assert np.isclose(quarter_laplacian_u(t), 2.0 * t ** -1.5, rtol=1e-3)


def test_quarter_laplacian_u_continuous_at_series_switch():
    # the plateau integral switches to a small-argument series; the seam
    # must be invisible
    t = np.array([9.0e5, 9.9999e5, 1.00001e6, 1.1e6])
    scaled = t ** 1.5 * quarter_laplacian_u(t)
    assert np.allclose(scaled, 2.0, rtol=1e-5)
    assert abs(scaled[1] - scaled[2]) < 1e-9


def test_quarter_laplacian_v_anchors():
    assert np.isclose(quarter_laplacian_v(0.0), 2.966345802528181, rtol=1e-12)
    # decay limit of t^(5/4) q_v: approached from above, slowly
    assert np.isclose(1.0e5 ** 1.25 * quarter_laplacian_v(1.0e5), -3.3416,
                      rtol=1e-3)
    lim = -np.sqrt(2 * np.pi) * gamma(0.25) / (2 * gamma(0.75))
    assert np.isclose(ENVELOPE_DECAY_LIMIT, lim, rtol=1e-14)
    val = 1.0e6 ** 1.25 * quarter_laplacian_v(1.0e6)
    assert ENVELOPE_DECAY_LIMIT < val < 0.94 * ENVELOPE_DECAY_LIMIT


@given(t=st.floats(0.01, 1e4))
@settings(max_examples=50, deadline=None)
def test_closed_forms_are_even(t):
    assert quarter_laplacian_u(-t) == quarter_laplacian_u(t)
    assert quarter_laplacian_v(-t) == quarter_laplacian_v(t)
    assert potential_omega(-t) == potential_omega(t)
    assert potential_omega1(-t) == potential_omega1(t)


def test_potentials_are_quotients():
    t = np.array([0.3, 1.7, 12.0])
    om = potential_omega(t)
    assert np.allclose(om, quarter_laplacian_u(t) / profile_v(t), rtol=1e-14)
    om1 = potential_omega1(t)
    want = (quarter_laplacian_v(t) + om * profile_u(t)) / profile_u(t)
    assert np.allclose(om1, want, rtol=1e-14)


def test_build_profiles_and_edge_guard():
    g = LineGrid(8.0, 2 ** 10)
    u, v = build_profiles(g)
    assert u.tail.power == 0.5 and v.tail.power == 0.75
    assert np.allclose(u.samples[:, 0], profile_u(g.nodes()))
    # LineGrid(8, 8) has h = 2 and puts nodes exactly on |t| = 1
    with pytest.raises(ValueError):
        build_profiles(LineGrid(8.0, 8))
    with pytest.raises(TypeError):
        build_profiles(CircleGrid(8))


def test_build_potentials_grid_identity():
    g = LineGrid(40.0, 2 ** 11)
    u, v = build_profiles(g)
    omega, omega1, big, big1 = build_potentials(u, v)
    # the first-row identity is definitional through the quadrature route
    from fraclap.fracops import frac_laplacian_line_quadrature
    qu = frac_laplacian_line_quadrature(u, 0.25).samples
    assert np.max(np.abs(qu - omega.samples * v.samples)) < 1e-14
    assert np.array_equal(big.samples[:, 1], omega.samples[:, 0])
    assert np.array_equal(big.samples[:, 2], -omega.samples[:, 0])
    assert np.all(big.samples[:, [0, 3]] == 0.0)
    assert np.array_equal(big1.samples[:, 2], omega1.samples[:, 0])
    assert np.all(big1.samples[:, [0, 1, 3]] == 0.0)


def test_build_potentials_guards():
    g = LineGrid(40.0, 2 ** 11)
    u, v = build_profiles(g)
    other_u, _ = build_profiles(LineGrid(40.0, 2 ** 10))
    with pytest.raises(ValueError):
        build_potentials(other_u, v)
    with pytest.raises(ValueError):
        build_potentials(u, -1.0 * v)


def test_scaled_sequence_structure():
    big_u, big, big1, cn = scaled_sequence(100)
    assert np.isclose(cn.numeric, 2.9866931129443492, rtol=1e-12)
    assert np.isclose(cn.paper, 3.071956016071299, rtol=1e-12)
    # the u component is exactly c_n on the inner plateau
    assert np.isclose(np.max(big_u.samples[:, 0]), cn.numeric, rtol=1e-15)
    # unit window norm of the u component
    g = big_u.grid
    window = np.abs(g.nodes()) <= 1.0
    l2 = np.sqrt(g.h * np.sum(big_u.samples[window, 0] ** 2))
    assert abs(l2 - 1.0) < 5e-3
    # exact parity node by node
    ref = g.reflected_indices()
    assert np.array_equal(big_u.samples, big_u.samples[ref])
    assert np.array_equal(big.samples[:, 1], -big.samples[:, 2])


def test_scaled_sequence_guards():
    with pytest.raises(ValueError):
        scaled_sequence(1)
    with pytest.raises(ValueError):
        scaled_sequence(300000)  # would need more nodes than the cap
    with pytest.raises(ValueError):
        scaled_sequence(1000, grid=LineGrid(2.0, 4096))  # h n > 1/4
    with pytest.raises(TypeError):
        scaled_sequence(100, grid=CircleGrid(64))


def test_annulus_nodes_guards():
    with pytest.raises(ValueError):
        annulus_nodes(100, 1.5)
    with pytest.raises(ValueError):
        annulus_nodes(10, 4.0)  # needs n > R^2
    s, w = annulus_nodes(1000, 4.0)
    assert s.min() >= 4.0 and s.max() <= 250.0
    assert np.all(w > 0)


def test_neck_report_frozen_values():
    rep = neck_report(1000000, 4.0)
    assert np.isclose(rep.neck_l2_omega, 2.84056128, rtol=1e-6)
    assert np.isclose(rep.neck_l21_omega1, 3.85500112, rtol=1e-6)
    assert np.isclose(rep.u_n_window_l2, 1.0848251, rtol=1e-6)
    slope_u, slope_v = decay_slopes()
    assert np.isclose(slope_u, -1.5001554752756716, rtol=1e-12)
    assert np.isclose(slope_v, -0.7026150469273622, rtol=1e-12)
    assert rep.system_residual < 1e-10
    # the omega neck mass shrinks as the annulus moves outward
    rep16 = neck_report(1000000, 16.0)
    assert np.isclose(rep16.neck_l2_omega, 1.98472328, rtol=1e-6)
    assert rep16.neck_l2_omega < rep.neck_l2_omega


def test_normalizations_converge_together():
    near = neck_report(1000000, 4.0)
    far = scaled_sequence(100)[3]
    ratio_small = far.numeric / far.paper
    ratio_large = near.c_n_numeric / near.c_n_paper
    assert abs(ratio_large - 1.0) < abs(ratio_small - 1.0)
