"""Compensated bilinear operators built from the quarter Laplacian and the
Riesz transform.

Four operators are provided, all bilinear in (Q, v):

    op_T(Q, v)      = (-D)^{1/4}(Qv) - Q (-D)^{1/4}v + ((-D)^{1/4}Q) v
    op_S(Q, v)      = (-D)^{1/4}(Qv) - R(Q R (-D)^{1/4}v) + R(((-D)^{1/4}Q) R v)
    op_F(Q, v)      = R[Q] R[v] - Qv
    op_Lambda(Q, v) = Qv + R[Q R[v]]

Q may be scalar valued (one component) or matrix valued: a Q with m*m
components against an m-component v is read as a row-major (m, m) matrix at
each node and applied as a matrix-vector product.

Products of circle fields are dealiased with 3/2 zero padding before the
pointwise multiply; quadratic terms otherwise fold back onto the retained
band. Line fields multiply plain pointwise (no periodicity to protect).

convolution_reference evaluates the same formulas entirely in Fourier
coefficient space with np.convolve for the products, as an independent check.
"""

import numpy as np

from .geometry import CircleGrid, Field, rfft_resize
from . import fracops


def _quarter(f):
    if f.is_circle():
        return fracops.frac_laplacian_circle(f, 0.25)
    return fracops.frac_laplacian_line_spectral(f, 0.25)


def multiply(Q, v):
    """Pointwise product, dealiased on the circle.

    Scalar Q scales every component of v; a Q with v.m**2 components acts as
    a per-node matrix in row-major order.
    """
    if Q.grid != v.grid:
        raise ValueError("Q and v must share a grid")
    m = v.m
    if Q.m != 1 and Q.m != m * m:
        if m != 1:
            raise ValueError(
                "Q must be scalar or carry v.m**2 components, got %d against %d"
                % (Q.m, m)
            )
        # scalar v against vector/matrix Q: commute the roles
        return multiply(v, Q)

    if isinstance(v.grid, CircleGrid):
        n = v.grid.n_points
        n_fine = 3 * n // 2
        if n_fine % 2:
            n_fine += 1
        qs = np.fft.irfft(rfft_resize(Q.rfft(), n_fine), n_fine, axis=0)
        vs = np.fft.irfft(rfft_resize(v.rfft(), n_fine), n_fine, axis=0)
        prod = np.fft.rfft(_apply_q(qs, vs, m), axis=0)
        out = np.fft.irfft(rfft_resize(prod, n), n, axis=0)
    else:
        out = _apply_q(Q.samples, v.samples, m)
    return v.with_samples(out)


def _apply_q(qs, vs, m):
    if qs.shape[1] == 1:
        return qs * vs
    mats = qs.reshape(qs.shape[0], m, m)
    return np.einsum("nij,nj->ni", mats, vs)


def op_T(Q, v):
    """Three-term commutator with the quarter Laplacian."""
    return _quarter(multiply(Q, v)) - multiply(Q, _quarter(v)) + multiply(_quarter(Q), v)


def op_S(Q, v):
    """Riesz-twisted variant of op_T."""
    R = fracops.riesz_transform
    t1 = _quarter(multiply(Q, v))
    t2 = R(multiply(Q, R(_quarter(v))))
    t3 = R(multiply(_quarter(Q), R(v)))
    return t1 - t2 + t3


def op_F(Q, v):
    """Product defect of the Riesz transform: R[Q]R[v] - Qv."""
    R = fracops.riesz_transform
    return multiply(R(Q), R(v)) - multiply(Q, v)


def op_Lambda(Q, v):
    """Qv + R[Q R[v]]; vanishes for constant Q on mean-zero v."""
    R = fracops.riesz_transform
    return multiply(Q, v) + R(multiply(Q, R(v)))


# ---------------------------------------------------------------------------
# coefficient-space reference


def _centered_coeffs(f):
    # complex Fourier coefficients c_k, k = -K..K, dropping the Nyquist mode
    n = f.grid.n_points
    K = n // 2 - 1
    spec = f.spectrum() / n
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    coeffs = np.zeros((2 * K + 1, f.m), dtype=complex)
    for idx, kk in enumerate(k):
        if abs(kk) <= K:
            coeffs[kk + K] += spec[idx]
    return coeffs, K


def _coeff_product(a, Ka, b, Kb):
    # scalar coefficient vector a against each component of b
    K = Ka + Kb
    out = np.zeros((2 * K + 1, b.shape[1]), dtype=complex)
    for j in range(b.shape[1]):
        out[:, j] = np.convolve(a[:, 0], b[:, j])
    return out, K


def _coeff_multiplier(coeffs, K, fn):
    k = np.arange(-K, K + 1)
    return coeffs * fn(k)[:, None]


def _coeff_to_samples(coeffs, K, grid, m):
    th = grid.nodes()
    k = np.arange(-K, K + 1)
    phases = np.exp(1j * np.outer(th, k))
    return np.real(phases @ coeffs)


def convolution_reference(which, Q, v):
    """Evaluate one of the four operators purely in coefficient space.

    Products become convolutions of centered coefficient vectors, so no
    aliasing question arises; intended as an oracle for tests on band-limited
    circle fields with scalar Q.
    """
    if not isinstance(v.grid, CircleGrid):
        raise TypeError("reference evaluation is for circle fields")
    if Q.m != 1:
        raise ValueError("reference evaluation supports scalar Q only")
    q, Kq = _centered_coeffs(Q)
    c, Kv = _centered_coeffs(v)

    def quarter(a, K):
        return _coeff_multiplier(a, K, lambda k: np.abs(k) ** 0.5), K

    def riesz(a, K):
        return _coeff_multiplier(a, K, lambda k: -1j * np.sign(k)), K

    def prod(a, Ka, b, Kb):
        return _coeff_product(a, Ka, b, Kb)

    if which == "T":
        t1, K1 = quarter(*prod(q, Kq, c, Kv))
        t2, K2 = prod(q, Kq, *quarter(c, Kv))
        t3, K3 = prod(*quarter(q, Kq), c, Kv)
        parts = [(t1, K1, 1.0), (t2, K2, -1.0), (t3, K3, 1.0)]
    elif which == "S":
        t1, K1 = quarter(*prod(q, Kq, c, Kv))
        t2, K2 = riesz(*prod(q, Kq, *riesz(*quarter(c, Kv))))
        t3, K3 = riesz(*prod(*quarter(q, Kq), *riesz(c, Kv)))
        parts = [(t1, K1, 1.0), (t2, K2, -1.0), (t3, K3, 1.0)]
    elif which == "F":
        rq, _ = riesz(q, Kq)
        rv, _ = riesz(c, Kv)
        t1, K1 = prod(rq, Kq, rv, Kv)
        t2, K2 = prod(q, Kq, c, Kv)
        parts = [(t1, K1, 1.0), (t2, K2, -1.0)]
    elif which == "Lambda":
        t1, K1 = prod(q, Kq, c, Kv)
        t2, K2 = riesz(*prod(q, Kq, *riesz(c, Kv)))
        parts = [(t1, K1, 1.0), (t2, K2, 1.0)]
    else:
        raise ValueError("which must be one of T, S, F, Lambda")

    Kmax = max(K for _, K, _ in parts)
    total = np.zeros((2 * Kmax + 1, v.m), dtype=complex)
    for a, K, sign in parts:
        total[Kmax - K : Kmax + K + 1] += sign * a
    return v.with_samples(_coeff_to_samples(total, Kmax, v.grid, v.m))


def _cosine_series(n, amp, phase):
    """sum_k amp_k cos(k theta + phase_k), k = 1..len(amp) < n/2, at the n
    circle nodes, by one irfft of the sparse spectrum it has."""
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[1:len(amp) + 1] = (0.5 * n) * amp * np.exp(1j * phase)
    return np.fft.irfft(spec, n)


def compensation_report(resolutions=(512, 1024, 2048, 4096, 8192), seed=0):
    """Measure ||op_T(Q, v)||_{L^1} for random unit-seminorm Q, unit-L^2 v.

    The interesting question is whether the constant stays bounded as the
    resolution grows; this only reports the numbers, it asserts nothing.
    """
    from . import norms

    rng = np.random.default_rng(seed)
    rows = []
    for n in resolutions:
        grid = CircleGrid(n_modes=n // 2)
        kmax = n // 8
        k = np.arange(1, kmax + 1)
        phase_q = rng.uniform(0, 2 * np.pi, kmax)
        amp_q = rng.normal(size=kmax) / np.sqrt(k)
        Q = Field(grid, _cosine_series(n, amp_q, phase_q))
        Q = Q * (1.0 / norms.sobolev_half_seminorm(Q))
        phase_v = rng.uniform(0, 2 * np.pi, kmax)
        amp_v = rng.normal(size=kmax)
        v = Field(grid, _cosine_series(n, amp_v, phase_v))
        v = v * (1.0 / norms.lp_norm(v, 2.0))
        t = op_T(Q, v)
        rows.append({"n_points": n, "t_l1": norms.lp_norm(t, 1.0)})
    return rows
