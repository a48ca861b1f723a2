"""The `operators` workload: fraclap's public operators on large line grids.

Runs inside a worker. `build(seed)` samples the inputs, which is part of
the worker's set-up; it returns the operations of one pass. Each operation
is a timed library call plus a gate that measures the output's error
against a closed form or an identity; the gate runs untimed and untraced,
and its tolerance is the one the repository's tests and checklist use.

Grids: 2^16, 2^18 and 2^20 points with the half-width doubling with each
factor of four (so both the spacing and the truncation shrink), two seeded
inputs per grid; the inverse quarter-Laplacian at 2^21, the rotation
potentials at 2^16, M+ on 2048 t-nodes from a 2^12 field, and the line
moment identity at 64 t-values from a 2^15 field.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma

from fraclap import counterexample, fracops, pohozaev, stereo
from fraclap.geometry import Field, LineGrid, TailModel

INPUTS_PER_GRID = 2
WINDOW = 10.0  # closed forms are compared on |x| <= WINDOW, as in check 03


@dataclass
class Op:
    name: str
    health: str        # the output's error is reported as err.<health>
    tol: float
    run: Callable[[], object]
    gate: Callable[[object], float]


def _lorentzian_ops(log_n, rng):
    grid = LineGrid(1000.0 * 2.0 ** ((log_n - 16) / 2), 1 << log_n)
    x = grid.nodes()
    window = np.abs(x) <= WINDOW
    ops = []
    for _ in range(INPUTS_PER_GRID):
        c, a = rng.uniform(0.5, 1.0), rng.uniform(-1.0, 1.0)
        y = x - a
        f = Field(grid, (c / (1.0 + y * y))[:, None], tail=TailModel.even(2.0, c))
        # (-D)^s of 1/(1+y^2) is Gamma(2s+1) Re[(1+iy)^(2s+1)] / (1+y^2)^(2s+1)
        half = c * (1.0 - y * y) / (1.0 + y * y) ** 2
        quarter = c * gamma(1.5) * np.real((1.0 + 1j * y) ** 1.5) / (1.0 + y * y) ** 1.5

        def gap(out, exact, scale=1.0):
            return float(np.max(np.abs(scale * out.samples[:, 0] - exact)[window]))

        tag = "@2^%d" % log_n
        ops += [
            Op("spectral_half" + tag, "spectral_half", 1e-6,
               lambda f=f: fracops.frac_laplacian_line_spectral(f, 0.5),
               lambda out, e=half: gap(out, e)),
            Op("quadrature_half" + tag, "quadrature_half", 1e-3,
               lambda f=f: fracops.frac_laplacian_line_quadrature(
                   f, 0.5, convention="normalized"),
               lambda out, e=half: gap(out, e)),
            Op("quadrature_quarter" + tag, "quadrature_quarter", 1e-3,
               lambda f=f: fracops.frac_laplacian_line_quadrature(
                   f, 0.25, convention="paper"),
               lambda out, e=quarter: gap(out, e, fracops.singular_constant(0.25))),
        ]
        # odd bumps about their own centers: mean zero, no Nyquist content
        amp, centers, widths = (rng.uniform(0.5, 1.0, 3), rng.uniform(-5.0, 5.0, 3),
                                rng.uniform(0.5, 2.0, 3))
        g = Field(grid, sum(cj * (x - aj) * np.exp(-((x - aj) / bj) ** 2)
                            for cj, aj, bj in zip(amp, centers, widths))[:, None])
        ops.append(Op(
            "riesz_twice" + tag, "riesz_twice", 1e-13,
            lambda g=g: fracops.riesz_transform(fracops.riesz_transform(g)),
            lambda out, g=g: float(np.max(np.abs(out.samples + g.samples)))))
    return ops


def _inverse_quarter_op(rng):
    # the moment densities of checks 04a/04b; 04b pins -1/2 of the kernels
    grid = LineGrid(2000.0, 1 << 21)
    x = grid.nodes()
    c = rng.uniform(0.5, 1.0)
    f_even = Field(grid, (c * (x * x - 1.0) / (1.0 + x * x) ** 2)[:, None],
                   tail=TailModel.even(2.0, c))
    f_odd = Field(grid, (c * 2.0 * x / (1.0 + x * x) ** 2)[:, None],
                  tail=TailModel.odd(3.0, 2.0 * c))
    window = np.abs(x) <= WINDOW
    k_even = c * pohozaev.m_kernel_plus(x[window])
    k_odd = c * pohozaev.m_kernel_minus(x[window])

    def gate(out):
        even, odd = out
        return max(float(np.max(np.abs(even.samples[window, 0] + 0.5 * k_even))),
                   float(np.max(np.abs(odd.samples[window, 0] + 0.5 * k_odd))))
    return Op("inverse_quarter@2^21", "inverse_quarter_ratio", 1e-3,
              lambda: (fracops.inverse_quarter_laplacian(f_even),
                       fracops.inverse_quarter_laplacian(f_odd)),
              gate)


def _potentials_op():
    u, v = counterexample.build_profiles(LineGrid(1000.0, 1 << 16))

    def gate(out):
        # the first row identity is definitional through the quadrature route
        qu = fracops.frac_laplacian_line_quadrature(u, 0.25).samples
        return float(np.max(np.abs(qu - out[0].samples * v.samples)))
    return Op("potentials@2^16", "potentials_row", 1e-14,
              lambda: counterexample.build_potentials(u, v), gate)


def _m_plus_op(rng):
    grid = LineGrid(40.0, 1 << 12)
    x = grid.nodes()
    amp, centers, widths = (rng.uniform(0.5, 1.0, 3), rng.uniform(-3.0, 3.0, 3),
                            rng.uniform(0.5, 2.0, 3))
    w = Field(grid, sum(cj * np.exp(-((x - aj) / bj) ** 2)
                        for cj, aj, bj in zip(amp, centers, widths))[:, None],
              tail=TailModel.even(4.0, 0.0))
    t_grid = LineGrid(8.0, 2048)
    mirror = t_grid.reflected_indices()
    return Op("m_plus@2048", "m_plus_parity", 1e-12,
              lambda: pohozaev.m_plus(w, t_grid),
              lambda out: float(np.max(np.abs(out.samples - out.samples[mirror]))))


def _residual_line_op(rng):
    # the inverse stereographic projection of check 05
    grid = LineGrid(400.0, 1 << 15)
    tail = TailModel(1.0, np.array([0.0, -1.0]), np.array([0.0, -1.0]),
                     np.array([2.0, 0.0]), np.array([-2.0, 0.0]))
    u = Field(grid, stereo.unproject(grid.nodes()), tail=tail)
    t_values = np.sort(rng.uniform(0.5, 5.0, 64))
    target = 4.0 * np.pi ** 2 / (t_values + 1.0) ** 4

    def gate(rep):
        return max(float(np.max(np.abs(np.asarray(side) - target) / target))
                   for side in (rep.lhs, rep.rhs))
    return Op("residual_line@64", "residual_line", 1e-3,
              lambda: pohozaev.residual_line(u, t_values), gate)


def build(seed):
    """The operations of one pass, with their inputs sampled from `seed`."""
    rng = np.random.default_rng(seed)
    ops = []
    for log_n in (16, 18, 20):
        ops += _lorentzian_ops(log_n, rng)
    ops += [_inverse_quarter_op(rng), _potentials_op(), _m_plus_op(rng),
            _residual_line_op(rng)]
    return ops

