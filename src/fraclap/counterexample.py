"""Scaling family whose window energy persists while the neck potentials vanish.

The building blocks are two even profiles on the line: a plateau map u that is
1 on [-1, 1] and |t|^(-1/2) outside, and the envelope v = (1+t^2)^(-3/8).
Their quarter-Laplacians have closed forms (elementary for u, hypergeometric
for v), so the rotation potential omega = ((-Delta)^(1/4)u)/v and its
lower-triangular companion omega1 can be evaluated exactly at any point.  The
scaled pair U_n(t) = c_n U(nt), Omega_n(t) = sqrt(n) Omega(nt) then keeps
||U_n||_{L^2[-1,1]} of order one while the neck norms of the potentials decay,
which is the whole point of the construction.

All quarter-Laplacians here use the bare singular-integral normalization (no
multiplicative constant), matching frac_laplacian_line_quadrature's default
convention.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma, hyp2f1 as _hyp2f1

from . import fracops
from .geometry import Field, LineGrid, TailModel, gauss_legendre, panel_rule
from .norms import lorentz_21_samples

__all__ = [
    "CnPair",
    "CounterexampleReport",
    "profile_u",
    "profile_v",
    "quarter_laplacian_u",
    "quarter_laplacian_v",
    "potential_omega",
    "potential_omega1",
    "build_profiles",
    "build_potentials",
    "scaled_sequence",
    "annulus_nodes",
    "neck_report",
    "decay_slopes",
]

# decay of t^(5/4) (-Delta)^(1/4) v as t -> infinity, bare normalization:
# the power law |t|^(-3/4) maps to -(1/4) Gamma(1/4)/Gamma(3/4) |t|^(-5/4)
# under the normalized operator; dividing by C(1,1/4) gives the bare limit.
ENVELOPE_DECAY_LIMIT = float(
    -np.sqrt(2.0 * np.pi) * _gamma(0.25) / (2.0 * _gamma(0.75))
)

_SING = fracops.singular_constant(0.25)
# prefactor of the hypergeometric closed form for (-Delta)^(1/4)(1+t^2)^(-3/8)
_HYP_COEF = (
    4.0 ** 0.25 * _gamma(0.625) * _gamma(0.75) / (_gamma(0.375) * _gamma(0.5))
)

# largest grid scaled_sequence will materialize before telling the caller to
# use the closed-form report path instead
_MAX_POINTS = 1 << 22


@dataclass(frozen=True)
class CnPair:
    """Normalization constant, quadrature value alongside the closed form.

    The closed form belongs to the smooth envelope (1+t^2)^(-1/4); the
    piecewise plateau profile integrates to (2 + 2 ln n)/n exactly, so the two
    differ at finite n and agree asymptotically like (n/ln n)^(1/2).  The
    numeric value is the one used for normalization.
    """

    numeric: float
    paper: float


@dataclass(frozen=True)
class CounterexampleReport:
    n: int
    big_r: float
    c_n_numeric: float
    c_n_paper: float
    u_n_window_l2: float
    neck_l2_omega: float
    neck_l21_omega1: float
    system_residual: float


def profile_u(t):
    """Plateau profile: 1 on [-1,1], |t|^(-1/2) outside (continuous)."""
    t = np.asarray(t, dtype=float)
    return np.maximum(np.abs(t), 1.0) ** -0.5


def profile_v(t):
    """Envelope (1+t^2)^(-3/8)."""
    t = np.asarray(t, dtype=float)
    return (1.0 + t * t) ** -0.375


def _plateau_side(b):
    # int_1^inf (1 - s^(-1/2)) (s-b)^(-3/2) ds for |b| <= 1, elementary:
    # 2 (1-b)^(-1/2) - (2/b) ((1-b)^(-1/2) - 1), with the b -> 0 series where
    # the subtraction loses digits.
    b = np.asarray(b, dtype=float)
    out = np.empty_like(b)
    small = np.abs(b) < 1e-6
    bs = b[small]
    out[small] = 1.0 + bs / 4.0 + bs * bs / 8.0 + 5.0 * bs ** 3 / 64.0
    bb = b[~small]
    root = 1.0 / np.sqrt(1.0 - bb)
    out[~small] = 2.0 * root - (2.0 / bb) * (root - 1.0)
    return out


def quarter_laplacian_u(t):
    """(-Delta)^(1/4) of the plateau profile, closed form, bare normalization.

    Outside the plateau the profile is the kernel |t|^(-1/2) of the inverse
    quarter-Laplacian, whose bare singular integral vanishes; what is left is
    the integral over the bump |s|^(-1/2) - 1 on [-1,1], and both pieces are
    elementary.  The function is even, equals 2 at the origin and 2 sqrt(2) at
    the plateau edge, and decays like 2 t^(-3/2).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    a = np.abs(np.atleast_1d(t)).astype(float)
    out = np.empty_like(a)

    edge = a == 1.0
    out[edge] = 2.0 * np.sqrt(2.0)

    inner = a < 1.0
    ai = a[inner]
    out[inner] = _plateau_side(ai) + _plateau_side(-ai)

    outer = a > 1.0
    ao = a[outer]
    rm = np.sqrt(ao - 1.0)
    rp = np.sqrt(ao + 1.0)
    out[outer] = 2.0 * (1.0 / (ao * rm) + 1.0 / (ao * rp)) - 2.0 * (
        1.0 / rm - 1.0 / rp
    )
    return out[0] if scalar else out


def quarter_laplacian_v(t):
    """(-Delta)^(1/4) of the envelope, hypergeometric closed form (bare).

    Positive near the origin (value -Gamma(-1/4)Gamma(5/8)/Gamma(3/8) at 0),
    changes sign once, and approaches ENVELOPE_DECAY_LIMIT * t^(-5/4) from
    above with a t^(-1/4) transient; the slow transient is why a log-log fit
    on a near window badly underestimates the asymptotic decay rate.
    """
    t = np.asarray(t, dtype=float)
    return _HYP_COEF * _hyp2f1(0.625, 0.75, 0.5, -t * t) / _SING


def potential_omega(t):
    """Rotation potential omega = ((-Delta)^(1/4) u)/v, closed form."""
    return quarter_laplacian_u(t) / profile_v(t)


def potential_omega1(t):
    """Lower-triangular potential omega1 = ((-Delta)^(1/4) v + omega u)/u."""
    u = profile_u(t)
    return (quarter_laplacian_v(t) + potential_omega(t) * u) / u


def build_profiles(grid):
    """Sample the plateau and envelope profiles with their tail models.

    The grid must be cell-centered so no node sits exactly on the plateau
    edges |t| = 1 (nodes are taken as-is; there is no edge-snapping).
    """
    if not isinstance(grid, LineGrid):
        raise TypeError("profiles live on a line grid")
    x = grid.nodes()
    if np.any(np.abs(np.abs(x) - 1.0) < 1e-12):
        raise ValueError(
            "grid places a node exactly on |t| = 1; choose a cell-centered "
            "resolution that straddles the plateau edge"
        )
    u = Field(grid, profile_u(x)[:, None], tail=TailModel.even(0.5, 1.0))
    v = Field(grid, profile_v(x)[:, None], tail=TailModel.even(0.75, 1.0))
    return u, v


def _matrix_tail(coefs):
    z = np.zeros(4)
    c = np.asarray(coefs, dtype=float)
    return TailModel(0.75, z, z.copy(), c, c.copy())


def build_potentials(u, v):
    """Potentials (omega, omega1, Omega, Omega1) on the profiles' grid.

    The quarter-Laplacians are taken with the singular-integral quadrature
    route in its bare convention, so the first row identity
    (-Delta)^(1/4) u = omega v holds definitionally on the grid.  Matrix
    fields store rows [[a, b], [c, d]] as columns (a, b, c, d); Omega is
    antisymmetric by construction, Omega1 has the single entry omega1 in the
    (2,1) slot.
    """
    if u.grid != v.grid:
        raise ValueError("profiles must share a grid")
    if u.m != 1 or v.m != 1:
        raise ValueError("profiles are scalar fields")
    if np.any(u.samples <= 0) or np.any(v.samples <= 0):
        raise ValueError("potentials divide by the profiles; both must stay positive")

    qu = fracops.frac_laplacian_line_quadrature(u, 0.25).samples
    qv = fracops.frac_laplacian_line_quadrature(v, 0.25).samples
    om = qu / v.samples
    om1 = (qv + om * u.samples) / u.samples
    zero = np.zeros_like(om)

    omega = Field(u.grid, om, tail=TailModel.even(0.75, 2.0))
    omega1 = Field(
        u.grid, om1, tail=TailModel.even(0.75, ENVELOPE_DECAY_LIMIT + 2.0)
    )
    big = Field(
        u.grid,
        np.hstack([zero, om, -om, zero]),
        tail=_matrix_tail([0.0, 2.0, -2.0, 0.0]),
    )
    big1 = Field(
        u.grid,
        np.hstack([zero, zero, om1, zero]),
        tail=_matrix_tail([0.0, 0.0, ENVELOPE_DECAY_LIMIT + 2.0, 0.0]),
    )
    return omega, omega1, big, big1


def _log_panels(lo, hi, max_len, deg):
    """Gauss-Legendre nodes/weights on [lo, hi], composite in log scale."""
    n_seg = max(4, int(np.ceil(np.log(hi / lo) / max_len)))
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), n_seg + 1))
    return panel_rule(edges, gauss_legendre(deg))


def _window_u_norm_sq(n):
    # int_{-1}^{1} u(nt)^2 dt by quadrature; analytically (2 + 2 ln n)/n
    plateau = 2.0 / n
    nodes, w = _log_panels(1.0 / n, 1.0, 0.5, 12)
    return plateau + 2.0 * float(np.sum(w / (n * nodes)))


def _envelope_window_integral(n):
    # int_0^n (1+y^2)^(-3/4) dy
    y, wy = panel_rule((0.0, 1.0), gauss_legendre(24))
    core = float(np.sum(wy * (1.0 + y * y) ** -0.75))
    nodes, w = _log_panels(1.0, float(n), 0.5, 12)
    return core + float(np.sum(w * (1.0 + nodes * nodes) ** -0.75))


def _normalization(n):
    c_num = 1.0 / np.sqrt(_window_u_norm_sq(n))
    c_paper = np.sqrt(n / (2.0 * np.arcsinh(float(n))))
    return CnPair(float(c_num), float(c_paper))


def scaled_sequence(n, grid=None):
    """Scaled maps (U_n, Omega_n, Omega1_n, c_n pair) on a resolving grid.

    Samples come from the closed-form profiles evaluated at n*t, never from
    resampling a coarse field, so the scaling is exact.  The default grid has
    half-width 2 and enough nodes to put several of them on the inner plateau
    [-1/n, 1/n]; past about n = 2.5e5 that grid would be unreasonably large
    and a ValueError says so (the report path needs no materialized grid).
    """
    n = int(n)
    if n < 2:
        raise ValueError("scaling index n must be at least 2")
    if grid is None:
        want = 16 * n
        n_points = max(4096, 1 << int(np.ceil(np.log2(want))))
        if n_points > _MAX_POINTS:
            raise ValueError(
                "n = %d needs %d nodes to resolve the inner plateau; pass a "
                "grid explicitly or use neck_report, which never materializes "
                "the scaled fields" % (n, n_points)
            )
        grid = LineGrid(2.0, n_points)
    else:
        if not isinstance(grid, LineGrid):
            raise TypeError("scaled fields live on a line grid")
        if grid.h * n > 0.25 + 1e-12:
            raise ValueError(
                "inner plateau under-resolved: need h <= 1/(4 n), got h = %g"
                % grid.h
            )

    cn = _normalization(n)
    s = n * grid.nodes()
    u_col = cn.numeric * profile_u(s)
    v_col = cn.numeric * profile_v(s)
    big_u = Field(grid, np.column_stack([u_col, v_col]))

    root = np.sqrt(float(n))
    om = root * potential_omega(s)
    om1 = root * potential_omega1(s)
    zero = np.zeros_like(om)
    big = Field(grid, np.column_stack([zero, om, -om, zero]))
    big1 = Field(grid, np.column_stack([zero, zero, om1, zero]))
    return big_u, big, big1, cn


def annulus_nodes(n, R):
    """Quadrature nodes/weights for s in [R, n/R] (one side of the annulus)."""
    top = float(n) / R
    if not R >= 2.0:
        raise ValueError("annulus parameter R must be at least 2")
    if top <= R:
        raise ValueError("degenerate annulus: need R/n < 1/R, i.e. n > R^2")
    return _log_panels(R, top, 0.45, 12)


@lru_cache(maxsize=None)
def decay_slopes():
    """Log-log slopes (u, v) of the two quarter-Laplacians over t in [10, 1e3].

    The plateau one sits on its t^(-3/2) asymptote already; the envelope one
    is still crossing over (sign change just under t = 10, t^(-1/4)
    transient) and fits far shallower than its eventual t^(-5/4).
    """
    t = np.geomspace(10.0, 1000.0, 25)
    lt = np.log(t)
    slope_u = float(np.polyfit(lt, np.log(np.abs(quarter_laplacian_u(t))), 1)[0])
    slope_v = float(np.polyfit(lt, np.log(np.abs(quarter_laplacian_v(t))), 1)[0])
    return slope_u, slope_v


def _system_residual(n, c_num):
    # L^2[-1,1] mismatch of (-Delta)^(1/4) U_n against (Omega_n + Omega1_n) U_n,
    # everything evaluated through the same closed forms; what is left is
    # floating-point noise, which is the content of "the identity is
    # definitional".
    t_in, w_in = panel_rule((0.0, 1.0 / n), gauss_legendre(8))
    t_out, w_out = _log_panels(1.0 / n, 1.0, 0.5, 12)
    t = np.concatenate([t_in, t_out])
    w = np.concatenate([w_in, w_out])
    s = n * t
    root = np.sqrt(float(n))

    qu = c_num * root * quarter_laplacian_u(s)
    qv = c_num * root * quarter_laplacian_v(s)
    om = root * potential_omega(s)
    om1 = root * potential_omega1(s)
    u_comp = c_num * profile_u(s)
    v_comp = c_num * profile_v(s)

    r1 = qu - om * v_comp
    r2 = qv - (-om * u_comp + om1 * u_comp)
    # even integrand, so one side counted twice
    return float(np.sqrt(2.0 * np.sum((r1 * r1 + r2 * r2) * w)))


def neck_report(n, R):
    """Neck norms of the scaled potentials over B(0,1/R) \\ B(0,R/n).

    By the substitution s = nt the annulus norms reduce to profile-level
    integrals over R <= |s| <= n/R, which is how they are computed; the
    pointwise magnitude of either potential matrix is the modulus of its
    single independent entry.
    """
    n = int(n)
    R = float(R)
    s, w = annulus_nodes(n, R)
    om = potential_omega(s)
    om1 = potential_omega1(s)

    neck_l2 = float(np.sqrt(2.0 * np.sum(om * om * w)))
    neck_l21 = lorentz_21_samples(np.abs(om1), 2.0 * w)

    cn = _normalization(n)
    window_sq = 1.0 + cn.numeric ** 2 * (2.0 / n) * _envelope_window_integral(n)

    return CounterexampleReport(
        n=n,
        big_r=R,
        c_n_numeric=cn.numeric,
        c_n_paper=cn.paper,
        u_n_window_l2=float(np.sqrt(window_sq)),
        neck_l2_omega=neck_l2,
        neck_l21_omega1=neck_l21,
        system_residual=_system_residual(n, cn.numeric),
    )
