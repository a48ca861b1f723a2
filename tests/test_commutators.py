"""Compensated bilinear operators T, S, F, Lambda."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.commutators import (_cosine_series, compensation_report,
                                 convolution_reference,
                                 multiply, op_F, op_Lambda, op_S, op_T)
from fraclap.geometry import CircleGrid, Field, LineGrid, TailModel, field_from_function

GRID = CircleGrid(128)


def _circle(fn):
    return field_from_function(GRID, fn)


def test_constant_q_degeneracy():
    # with constant Q, the correction terms cancel the commutator exactly:
    # T and Lambda reduce to zero on mean-zero v
    v = _circle(lambda t: np.sin(5 * t) + 0.2 * np.cos(2 * t))
    Q = _circle(lambda t: 0.7 * np.ones_like(t))
    assert np.max(np.abs(op_T(Q, v).samples)) < 1e-12
    assert np.max(np.abs(op_Lambda(Q, v).samples)) < 1e-12


def test_lambda_needs_mean_zero():
    # the zero mode passes straight through Qv, so a constant v survives
    v = _circle(lambda t: np.ones_like(t))
    Q = _circle(lambda t: 0.7 * np.ones_like(t))
    out = op_Lambda(Q, v)
    assert np.allclose(out.samples, 0.7)


def test_ops_match_convolution_reference():
    Q = _circle(lambda t: np.cos(3 * t) - 0.4 * np.sin(7 * t))
    v = _circle(lambda t: np.sin(5 * t) + 0.2 * np.cos(2 * t))
    for which, op in (("T", op_T), ("S", op_S), ("F", op_F), ("Lambda", op_Lambda)):
        got = op(Q, v)
        want = convolution_reference(which, Q, v)
        assert np.max(np.abs(got.samples - want.samples)) < 1e-10, which


@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
@settings(max_examples=20, deadline=None)
def test_bilinearity(a, b):
    Q1 = _circle(lambda t: np.cos(2 * t))
    Q2 = _circle(lambda t: np.sin(t))
    v = _circle(lambda t: np.sin(4 * t))
    combo = op_T(a * Q1 + b * Q2, v)
    split = a * op_T(Q1, v) + b * op_T(Q2, v)
    assert np.max(np.abs(combo.samples - split.samples)) < 1e-10
    combo_v = op_S(Q1, a * v + b * _circle(np.cos))
    split_v = a * op_S(Q1, v) + b * op_S(Q1, _circle(np.cos))
    assert np.max(np.abs(combo_v.samples - split_v.samples)) < 1e-10


def test_multiply_keeps_the_nyquist_mode():
    # on 64 points: cos(t) (-1)^j = cos(t) cos(32 t) is (cos 31t + cos 33t)/2,
    # and the dealiased product keeps the part inside the band
    g = CircleGrid(32)
    th = g.nodes()
    alt = Field(g, (-1.0) ** np.arange(g.n_points))
    got = multiply(field_from_function(g, np.cos), alt).samples[:, 0]
    assert np.max(np.abs(got - 0.5 * np.cos(31 * th))) < 1e-13
    one = Field(g, np.ones(g.n_points))
    assert np.max(np.abs(multiply(one, alt).samples - alt.samples)) < 1e-14


def test_matrix_valued_q():
    # a rotation matrix Q acting on a 2-component v, against the same
    # product assembled by hand from scalar pieces
    th_fn = lambda t: 0.3 * np.sin(t)
    Q = field_from_function(GRID, lambda t: np.stack(
        [np.cos(th_fn(t)), -np.sin(th_fn(t)),
         np.sin(th_fn(t)), np.cos(th_fn(t))]))
    v = field_from_function(GRID, lambda t: np.stack([np.cos(2 * t), np.sin(2 * t)]))
    prod = multiply(Q, v)
    want0 = np.cos(th_fn(GRID.nodes())) * np.cos(2 * GRID.nodes()) \
        - np.sin(th_fn(GRID.nodes())) * np.sin(2 * GRID.nodes())
    # dealiasing only matters beyond the retained band; these are low modes
    assert np.max(np.abs(prod.samples[:, 0] - want0)) < 1e-12
    assert prod.m == 2


@pytest.mark.parametrize("grid", [GRID, LineGrid(10.0, 256)], ids=["circle", "line"])
@pytest.mark.parametrize("m", [2, 4])
def test_scalar_v_scales_a_vector_or_matrix_q(grid, m):
    # a scalar v against Q with m > 1 components swaps the roles: every
    # component of Q is multiplied by v (low modes, so dealiasing is exact)
    Q = field_from_function(grid, lambda t: np.stack([np.cos(k * t) for k in range(1, m + 1)]))
    v = field_from_function(grid, lambda t: 0.5 + np.sin(2 * t))
    prod = multiply(Q, v)
    assert prod.m == m
    assert np.max(np.abs(prod.samples - Q.samples * v.samples)) < 1e-13


def test_multiply_on_an_odd_mode_count():
    # 5 modes: 10 points, whose 3/2 padding of 15 points is bumped to 16;
    # cos(2t) sin(2t) = sin(4t)/2 sits inside the band, so the samples are exact
    g = CircleGrid(5)
    th = g.nodes()
    got = multiply(Field(g, np.cos(2 * th)), Field(g, np.sin(2 * th))).samples[:, 0]
    assert np.max(np.abs(got - 0.5 * np.sin(4 * th))) < 1e-15
    # and a product past the band folds nothing back: cos(3t)^2 keeps 1/2 only
    got = multiply(Field(g, np.cos(3 * th)), Field(g, np.cos(3 * th))).samples[:, 0]
    assert np.max(np.abs(got - 0.5)) < 1e-15


def test_multiply_shape_rules():
    Q3 = field_from_function(GRID, lambda t: np.stack([np.cos(t)] * 3))
    v2 = field_from_function(GRID, lambda t: np.stack([np.sin(t)] * 2))
    with pytest.raises(ValueError):
        multiply(Q3, v2)
    other = field_from_function(CircleGrid(64), np.sin)
    with pytest.raises(ValueError):
        multiply(other, v2)


def test_ops_work_on_line_fields():
    g = LineGrid(60.0, 1024)
    tail = TailModel.even(4.0, 0.0)
    v = field_from_function(g, lambda x: np.exp(-x * x), tail=tail)
    Q = field_from_function(g, lambda x: np.full_like(x, 0.7), tail=tail)
    out = op_T(Q, v)
    # constant Q degeneracy holds on the line too
    assert np.max(np.abs(out.samples)) < 1e-12


def test_reference_guards():
    v = _circle(np.sin)
    Q2 = field_from_function(GRID, lambda t: np.stack([np.cos(t)] * 4))
    with pytest.raises(ValueError):
        convolution_reference("T", Q2, _circle(lambda t: np.stack([np.sin(t)] * 2)))
    with pytest.raises(ValueError):
        convolution_reference("X", _circle(np.cos), v)
    line = field_from_function(LineGrid(1.0, 16), lambda x: x)
    with pytest.raises(TypeError):
        convolution_reference("T", _circle(np.cos), line)


def test_reference_folds_full_band_products_onto_the_nodes():
    # full-band Q and v put their product on |k| <= n - 2; sampled at the
    # nodes it must equal the pointwise product, aliasing included.
    # R is applied analytically: cos k -> sin k, sin k -> -cos k.
    grid = CircleGrid(32)
    n = grid.n_points
    th = grid.nodes()
    k = np.arange(1, n // 2)
    rng = np.random.default_rng(5)
    cos_k, sin_k = np.cos(np.outer(th, k)), np.sin(np.outer(th, k))

    def random_pair(m):
        a, b = rng.normal(size=(2, k.size, m)) / n
        return cos_k @ a + sin_k @ b, sin_k @ a - cos_k @ b

    q, rq = random_pair(1)
    v, rv = random_pair(2)
    want = rq * rv - q * v
    got = convolution_reference("F", Field(grid, q), Field(grid, v)).samples
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_compensation_report_shape():
    rows = compensation_report(resolutions=(256, 512), seed=1)
    assert [r["n_points"] for r in rows] == [256, 512]
    assert all(np.isfinite(r["t_l1"]) and r["t_l1"] > 0 for r in rows)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_cosine_series_matches_the_dense_sum(n):
    rng = np.random.default_rng(n)
    kmax = n // 2 - 1
    amp, phase = rng.normal(size=kmax), rng.uniform(0, 2 * np.pi, kmax)
    th = CircleGrid(n_modes=n // 2).nodes()
    k = np.arange(1, kmax + 1)
    dense = np.sum(amp * np.cos(np.outer(th, k) + phase), axis=1)
    assert np.max(np.abs(_cosine_series(n, amp, phase) - dense)) <= 1e-12 * np.max(np.abs(dense))
