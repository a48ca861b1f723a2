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


def convolution_reference(which, Q, v):
    """Evaluate one of the four operators purely in coefficient space.

    Each operator is its formula on the centered coefficients c_k, |k| < n/2,
    with np.convolve for the products. Sampling folds k modulo n into one
    inverse rfft, which is the dense sum over k exactly, aliasing included.
    An oracle for tests on circle fields with scalar Q.
    """
    if not isinstance(v.grid, CircleGrid):
        raise TypeError("reference evaluation is for circle fields")
    if Q.m != 1:
        raise ValueError("reference evaluation supports scalar Q only")
    n = v.grid.n_points

    def coeffs(f):
        # fftshift puts the Nyquist mode first; [1:] drops it
        return np.fft.fftshift(f.spectrum(), axes=0)[1:] / n

    def freqs(a):
        K = len(a) // 2
        return np.arange(-K, K + 1)[:, None]

    def quarter(a):
        return a * np.abs(freqs(a)) ** 0.5

    def riesz(a):
        return a * (-1j * np.sign(freqs(a)))

    def prod(a, b):
        return np.column_stack([np.convolve(a[:, 0], col) for col in b.T])

    q, c = coeffs(Q), coeffs(v)
    if which == "T":
        total = quarter(prod(q, c)) - prod(q, quarter(c)) + prod(quarter(q), c)
    elif which == "S":
        total = (quarter(prod(q, c)) - riesz(prod(q, riesz(quarter(c))))
                 + riesz(prod(quarter(q), riesz(c))))
    elif which == "F":
        total = prod(riesz(q), riesz(c)) - prod(q, c)
    elif which == "Lambda":
        total = prod(q, c) + riesz(prod(q, riesz(c)))
    else:
        raise ValueError("which must be one of T, S, F, Lambda")

    folded = np.zeros((n, v.m), dtype=complex)
    np.add.at(folded, freqs(total)[:, 0] % n, total)
    return v.with_samples(n * np.fft.irfft(folded[:n // 2 + 1], n, axis=0))


def _cosine_series(n, amp, phase):
    """sum_k amp_k cos(k theta + phase_k), k = 1..len(amp) < n/2, at the n
    circle nodes, by one irfft of the sparse spectrum it has."""
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[1:len(amp) + 1] = (0.5 * n) * amp * np.exp(1j * phase)
    return np.fft.irfft(spec, n)


RESOLUTIONS = (512, 1024, 2048, 4096, 8192)


def compensation_report(resolutions=RESOLUTIONS, seed=0):
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
