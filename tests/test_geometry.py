"""Grids, fields, tails, integration, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.geometry import (CircleGrid, Field, LineGrid, TailModel,
                              even_part, field_from_function, gauss_legendre,
                              line_integral, load_binary, load_csv, odd_part,
                              panel_rule, resample, rfft_frequencies, save_binary,
                              save_csv)


def test_line_grid_nodes_symmetric():
    g = LineGrid(5.0, 16)
    x = g.nodes()
    assert np.allclose(x + x[::-1], 0.0)
    assert np.isclose(x[1] - x[0], g.h)


def test_line_grid_validation():
    with pytest.raises(ValueError):
        LineGrid(-1.0, 64)
    with pytest.raises(ValueError):
        LineGrid(1.0, 63)  # odd
    with pytest.raises(ValueError):
        LineGrid(1.0, 4)  # too small


def test_circle_grid_validation():
    with pytest.raises(ValueError):
        CircleGrid(3)


def test_reflected_indices_are_involutions():
    for g in (LineGrid(2.0, 32), CircleGrid(16)):
        p = g.reflected_indices()
        assert np.array_equal(p[p], np.arange(g.n_points))


def test_reflection_matches_node_negation():
    g = LineGrid(3.0, 24)
    x = g.nodes()
    assert np.allclose(x[g.reflected_indices()], -x)
    c = CircleGrid(8)
    th = c.nodes()
    assert np.allclose(np.cos(th[c.reflected_indices()]), np.cos(-th))
    assert np.allclose(np.sin(th[c.reflected_indices()]), np.sin(-th))


@given(power=st.floats(0.5, 6.0), coef=st.floats(-5.0, 5.0),
       limit=st.floats(-2.0, 2.0),
       x=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_tail_model_parity(power, coef, limit, x):
    x = np.asarray(x)
    ev = TailModel.even(power, coef, limit=limit)
    od = TailModel.odd(power, coef, limit=limit)
    assert np.allclose(ev.eval(-x), ev.eval(x))
    assert np.allclose(od.eval(-x), -od.eval(x))


def test_tail_model_multicomponent():
    t = TailModel(2.0, limit_pos=[1.0, 0.0], limit_neg=[-1.0, 0.0],
                  coef_pos=[0.0, 3.0], coef_neg=[0.0, 3.0])
    assert t.m == 2
    v = t.eval([2.0, -2.0])
    assert np.allclose(v[0], [1.0, 0.75])
    assert np.allclose(v[1], [-1.0, 0.75])
    assert np.allclose(t.mean_limit(), [0.0, 0.0])


def test_field_validation():
    g = LineGrid(1.0, 16)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))
    with pytest.raises(ValueError):
        Field(g, np.full(16, np.nan))
    f = Field(g, np.ones(16))
    with pytest.raises(ValueError):
        f.samples[0] = 2.0  # fields are read-only


def test_field_rfft_cached_read_only():
    f = field_from_function(CircleGrid(8), lambda t: np.stack([np.cos(t), np.sin(2 * t)]))
    spec = f.rfft()
    assert spec is f.rfft()
    assert not spec.flags.writeable
    assert np.array_equal(spec, np.fft.rfft(f.samples, axis=0))
    assert np.array_equal(rfft_frequencies(CircleGrid(8)), np.arange(9.0))
    line = LineGrid(2.0, 16)
    assert np.allclose(rfft_frequencies(line), 2 * np.pi * np.fft.rfftfreq(16, d=line.h),
                       rtol=1e-15)
    assert not rfft_frequencies(line).flags.writeable


def test_field_arithmetic_and_parts():
    g = LineGrid(2.0, 64)
    f = field_from_function(g, lambda x: x ** 3 + np.cos(x))
    e, o = even_part(f), odd_part(f)
    assert np.allclose(e.samples + o.samples, f.samples)
    assert np.allclose(e.samples, np.cos(g.nodes())[:, None])
    assert np.allclose((2.0 * f - f).samples, f.samples)


def test_line_integral_lorentzian():
    g = LineGrid(200.0, 2 ** 14)
    f = field_from_function(g, lambda x: 1.0 / (1.0 + x * x),
                            tail=TailModel.even(2.0, 1.0))
    assert abs(line_integral(f) - np.pi) < 1e-7
    # without the tail the truncation error is visible
    assert abs(line_integral(f, tail_corrected=False) - np.pi) > 1e-3


def test_line_integral_tail_rules():
    g = LineGrid(10.0, 256)
    f = field_from_function(g, lambda x: 1.0 / (1.0 + np.abs(x)),
                            tail=TailModel.even(1.0, 1.0))
    with pytest.raises(ValueError):
        line_integral(f)  # decay too slow
    f2 = field_from_function(g, lambda x: np.ones_like(x),
                             tail=TailModel.even(2.0, 0.0, limit=1.0))
    with pytest.raises(ValueError):
        line_integral(f2)  # nonzero limit
    c = field_from_function(CircleGrid(8), np.cos)
    with pytest.raises(TypeError):
        line_integral(c)


def test_resample_circle_trig_exact():
    src = CircleGrid(16)
    f = field_from_function(src, lambda th: np.cos(3 * th) - 2 * np.sin(th))
    up = resample(f, CircleGrid(64))
    want = np.cos(3 * up.grid.nodes()) - 2 * np.sin(up.grid.nodes())
    assert np.max(np.abs(up.samples[:, 0] - want)) < 1e-12


def test_resample_circle_downsample_warns():
    f = field_from_function(CircleGrid(64), np.cos)
    with pytest.warns(RuntimeWarning):
        down = resample(f, CircleGrid(8))
    assert np.allclose(down.samples[:, 0], np.cos(down.grid.nodes()))


def test_resample_circle_keeps_the_nyquist_mode():
    # (-1)^j refines to the cosine through its samples and coarsens back whole
    src = CircleGrid(32)
    alt = (-1.0) ** np.arange(src.n_points)
    up = resample(Field(src, alt), CircleGrid(64))
    assert np.max(np.abs(up.samples[:, 0] - np.cos(32 * up.grid.nodes()))) < 1e-13
    with pytest.warns(RuntimeWarning):
        back = resample(up, src)
    assert np.max(np.abs(back.samples[:, 0] - alt)) < 1e-14


def test_resample_line_spline_accuracy():
    src = LineGrid(12.0, 2 ** 12)
    f = field_from_function(src, lambda x: np.exp(-x * x),
                            tail=TailModel.even(4.0, 0.0))
    tgt = LineGrid(10.0, 4100)  # finer and incommensurate nodes
    out = resample(f, tgt)
    want = np.exp(-tgt.nodes() ** 2)
    assert np.max(np.abs(out.samples[:, 0] - want)) < 1e-6


@pytest.mark.parametrize("n", [8, 24, 400, 2000])
def test_gauss_legendre_exact_on_monomials(n):
    x, w = gauss_legendre(n)
    assert len(x) == len(w) == n
    power = np.ones(n)
    for degree in range(2 * n):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        # a few ulps per node of accumulated rounding
        assert abs(np.sum(w * power) - exact) <= 5e-16 * n
        power *= x


def test_panel_rule_exact_per_panel_on_batched_edges():
    # two rows of three panels each, as the per-point panels of the bubble
    # quadrature; each panel integrates monomials up to degree 2n - 1
    n = 6
    edges = np.array([[0.0, 0.5, 1.5, 4.0], [-2.0, -1.0, 0.25, 0.3]])
    x, w = panel_rule(edges, gauss_legendre(n))
    assert x.shape == w.shape == (2, 3 * n)
    xs, ws = x.reshape(2, 3, n), w.reshape(2, 3, n)
    a, b = edges[:, :-1], edges[:, 1:]
    for degree in range(2 * n):
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert np.allclose(np.sum(ws * xs ** degree, axis=-1), exact,
                           rtol=1e-13, atol=1e-15)
    # one row of edges gives flat arrays, the same as that row of the batch
    x1, w1 = panel_rule(edges[1], gauss_legendre(n))
    assert np.array_equal(x1, x[1]) and np.array_equal(w1, w[1])


def test_gauss_legendre_cached_read_only():
    x, w = gauss_legendre(24)
    again = gauss_legendre(24)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_resample_line_tail_extension():
    src = LineGrid(5.0, 512)
    f = field_from_function(src, lambda x: 1.0 / (1.0 + x * x),
                            tail=TailModel.even(2.0, 1.0))
    tgt = LineGrid(20.0, 2048)
    out = resample(f, tgt)
    x = tgt.nodes()
    far = np.abs(x) > 6.0
    assert np.allclose(out.samples[far, 0], 1.0 / x[far] ** 2)
    bare = field_from_function(src, lambda x: 1.0 / (1.0 + x * x))
    with pytest.raises(ValueError):
        resample(bare, tgt)


def test_resample_mixed_geometry_rejected():
    f = field_from_function(CircleGrid(8), np.sin)
    with pytest.raises(TypeError):
        resample(f, LineGrid(1.0, 16))


@pytest.mark.parametrize("fmt,save,load", [("csv", save_csv, load_csv),
                                           ("bin", save_binary, load_binary)])
def test_roundtrip_line(tmp_path, fmt, save, load):
    g = LineGrid(7.5, 64)
    f = field_from_function(g, lambda x: np.stack([np.sin(x), x / (1 + x * x)]))
    path = tmp_path / ("field." + fmt)
    save(f, path)
    back = load(path)
    assert back.grid == g
    assert back.m == 2
    tol = 1e-15 if fmt == "csv" else 0.0
    assert np.max(np.abs(back.samples - f.samples)) <= tol


@pytest.mark.parametrize("fmt,save,load", [("csv", save_csv, load_csv),
                                           ("bin", save_binary, load_binary)])
def test_roundtrip_circle(tmp_path, fmt, save, load):
    g = CircleGrid(12)
    f = field_from_function(g, lambda th: np.stack([np.cos(th), np.sin(th),
                                                    0 * th + 0.25]))
    path = tmp_path / ("field." + fmt)
    save(f, path)
    back = load(path)
    assert back.grid == g
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-15


def test_csv_header_is_self_describing(tmp_path):
    g = LineGrid(2.0, 16)
    f = field_from_function(g, lambda x: x)
    path = tmp_path / "f.csv"
    save_csv(f, path)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# line,")
    assert "n=16" in first and "m=1" in first
