"""Grids, fields, tails, integration, serialization."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.geometry import (CircleGrid, Field, LineGrid, TailModel,
                              even_part, field_from_function, gauss_legendre,
                              line_integral, load_binary, load_csv, odd_part,
                              panel_rule, rfft_frequencies, rfft_multiply,
                              save_binary, save_csv, tail_ratio)


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


def _masked_tail_eval(t, x):
    # the per-side formula written out with boolean masks and scatters
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((len(x), t.m))
    pos = x >= 0
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        decay = ax ** (-t.power)
    decay[ax == 0] = np.inf
    out[pos] = t.limit_pos[None, :] + decay[pos, None] * t.coef_pos[None, :]
    out[~pos] = t.limit_neg[None, :] + decay[~pos, None] * t.coef_neg[None, :]
    return out


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("power", [0.25, 0.5, 1.0, 1.5, 2.0, 3.7, 4.0, 6.0])
def test_tail_model_eval_is_the_per_side_formula_bit_for_bit(m, power):
    rng = np.random.default_rng(m)
    limits_and_coefs = rng.uniform(-3.0, 3.0, (4, m))
    limits_and_coefs[2:, m - 1] = 0.0  # a zero coefficient makes NaN at x = 0
    t = TailModel(power, *limits_and_coefs)
    magnitudes = np.concatenate([[0.0, 1e-300, 1e-3, 1.0, 1e300],
                                 rng.uniform(0.0, 2000.0, 200)])
    x = np.concatenate([magnitudes, -magnitudes])  # -0.0 included
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, 1e-300 ** -2
        got, want = t.eval(x), _masked_tail_eval(t, x)
    assert got.shape == (len(x), m) and np.isnan(got).any()
    assert np.array_equal(got, want, equal_nan=True)
    assert t.eval(2.0).shape == (1, m)


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


def _route_case(case):
    """Field, real or complex multiplier and expected route of one
    rfft_multiply case: white noise with m = 3 made exactly even or odd,
    the Nyquist mode, and three inputs that must keep the rfft route."""
    kind, n = case
    grid = LineGrid(5.0, n)
    rng = np.random.default_rng(n)
    u = rng.normal(size=(n, 3))
    even, odd = u + u[::-1], u - u[::-1]
    freq = rfft_frequencies(grid)
    mult = rng.uniform(0.5, 2.0, size=(n // 2 + 1, 3))
    if kind == "nyquist":
        return Field(grid, (-1.0) ** np.arange(n)), freq ** 1.0, -1
    if kind == "ulp-off":
        even[n // 2 + 5, 1] = np.nextafter(even[n // 2 + 5, 1], np.inf)
        return Field(grid, even), mult, 0
    if kind == "mixed":
        return Field(grid, np.column_stack([even[:, 0], odd[:, 1]])), freq, 0
    if kind == "complex":
        return Field(grid, even), 1j * freq, 0
    return Field(grid, even if kind == "even" else odd), mult, 1 if kind == "even" else -1


@pytest.mark.parametrize("case", [("even", 1 << 10), ("even", 1 << 16), ("odd", 1 << 10),
                                  ("odd", 1 << 16), ("nyquist", 64), ("ulp-off", 1 << 10),
                                  ("mixed", 1 << 10), ("complex", 1 << 10)],
                         ids=lambda c: "%s-%d" % c)
def test_rfft_multiply_half_size_route(case):
    # exactly even or odd line fields under a real multiplier take the
    # DCT/DST route and match the rfft route to round-off; every other
    # input keeps the rfft route bit for bit
    f, mult, parity = _route_case(case)
    n = f.grid.n_points
    ref = np.fft.irfft(np.reshape(mult, (n // 2 + 1, -1)) * np.fft.rfft(f.samples, axis=0),
                       n, axis=0)
    out = rfft_multiply(f, mult)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert (f._rfft is None) == bool(parity)
    if parity:
        assert np.max(np.abs(out - ref)) <= 2e-15 * np.max(np.abs(ref))
        assert np.array_equal(out, parity * out[::-1])
    else:
        assert np.array_equal(out, ref)


def test_field_arithmetic_and_parts():
    g = LineGrid(2.0, 64)
    f = field_from_function(g, lambda x: x ** 3 + np.cos(x))
    e, o = even_part(f), odd_part(f)
    assert np.allclose(e.samples + o.samples, f.samples)
    assert np.allclose(e.samples, np.cos(g.nodes())[:, None])
    assert np.allclose((2.0 * f - f).samples, f.samples)


def test_even_part_symmetrises_the_tail_model():
    # x / sqrt(1 + x^2) tends to +-1 on the two sides, so its even part
    # tends to 0 on both
    g = LineGrid(50.0, 256)
    f = field_from_function(g, lambda x: x / np.sqrt(1.0 + x * x),
                            tail=TailModel.odd(2.0, -0.5, limit=1.0))
    t = even_part(f).tail
    for arr in (t.limit_pos, t.limit_neg, t.coef_pos, t.coef_neg):
        assert np.array_equal(arr, [0.0])
    # and its odd part is f itself, tail model included
    t = odd_part(f).tail
    assert (t.power, list(t.limit_pos), list(t.limit_neg)) == (2.0, [1.0], [-1.0])
    assert (list(t.coef_pos), list(t.coef_neg)) == ([-0.5], [0.5])


def test_with_samples_attaches_only_the_tail_it_is_given():
    g = LineGrid(10.0, 64)
    tail = TailModel.even(2.0, 1.0)
    f = field_from_function(g, lambda x: 1.0 / (1.0 + x * x), tail=tail)
    assert f.with_samples(f.samples + 1.0).tail is None
    assert f.with_samples(f.samples, tail).tail is tail


def test_tail_ratios_is_the_largest_tail_over_the_largest():
    rng = np.random.default_rng(4)
    spec = rng.normal(size=(65, 2)) + 1j * rng.normal(size=(65, 2))
    spec[40:] *= 1e-9
    mag = np.abs(spec)
    assert all(tail_ratio(mag, k) == np.max(mag[k:]) / np.max(mag) for k in range(65))
    assert tail_ratio(mag, 40) < 1e-8 < tail_ratio(mag, 39)
    assert tail_ratio(np.zeros((9, 1)), 4) == 0.0


def test_line_integral_lorentzian():
    g = LineGrid(200.0, 2 ** 14)
    f = field_from_function(g, lambda x: 1.0 / (1.0 + x * x),
                            tail=TailModel.even(2.0, 1.0))
    assert abs(line_integral(f) - np.pi) < 1e-7
    # the midpoint sum alone shows the truncation error
    assert abs(g.h * np.sum(f.samples) - np.pi) > 1e-3


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


def _legendre_reference(n, x):
    """Nodes and weights in long double: 3 Newton steps on the recurrence."""
    x = np.asarray(x, dtype=np.longdouble)
    one = np.longdouble(1)
    for _ in range(3):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (p_prev - x * p) / ((one - x) * (one + x))
        x = x - p / slope
    return x, 2 / ((one - x) * (one + x) * slope * slope)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("n", [24, 400, 2000])
def test_gauss_legendre_matches_long_double_reference(n):
    x, w = gauss_legendre(n)
    x_ref, w_ref = _legendre_reference(n, x)
    assert np.max(np.abs(x - x_ref)) <= 2e-16
    assert np.max(np.abs(w / w_ref - 1)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 24, 25, 400, 1201, 2000])
def test_gauss_legendre_structure(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0)
    # mirrored halves: exact symmetry, and an odd rule's middle node is 0.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0


@pytest.mark.parametrize("n, nodes, weights", [
    (1, [0.0], [2.0]),
    (2, [-1 / np.sqrt(3.0), 1 / np.sqrt(3.0)], [1.0, 1.0]),
    (3, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], [5 / 9, 8 / 9, 5 / 9]),
])
def test_gauss_legendre_closed_forms(n, nodes, weights):
    x, w = gauss_legendre(n)
    assert np.max(np.abs(x - nodes)) <= 1e-15
    assert np.max(np.abs(w - weights)) <= 1e-15


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_gauss_legendre_rejects_invalid_n(n):
    with pytest.raises(ValueError):
        gauss_legendre(n)


@pytest.mark.parametrize("module", ["geometry", "fracops", "norms", "counterexample",
                                    "acceptance"])
def test_every_public_name_resolves(module):
    mod = importlib.import_module("fraclap." + module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_geometry_imports_without_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, %r); import fraclap.geometry; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules "
            "if m.startswith('scipy'))" % str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
