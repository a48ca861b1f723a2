"""Constrained gradient flow, Moebius composition, neck diagnostics."""

import collections

import numpy as np
import pytest

from fraclap.geometry import CircleGrid, LineGrid, field_from_function
from fraclap.halfharmonic import (PlaneDistribution, bubbling_experiment,
                                  el_residual, energy, gradient_check,
                                  gradient_flow, horizontality_residual,
                                  mobius_compose, perturbed_identity,
                                  sphere_distribution)


def _identity_map(grid):
    return field_from_function(grid, lambda t: np.stack([np.cos(t), np.sin(t)]))


def _perturbed_identity(grid, amp=0.05, seed=7):
    th = grid.nodes()
    rng = np.random.default_rng(seed)
    bump = np.zeros_like(th)
    for mode in range(1, 6):
        bump += rng.normal() * np.cos(mode * th + rng.uniform(0, 2 * np.pi))
    bump *= amp / np.max(np.abs(bump))
    samples = np.stack([np.cos(th) - bump * np.sin(th),
                        np.sin(th) + bump * np.cos(th)], axis=-1)
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    return field_from_function(grid, lambda t: t).with_samples(samples)


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
    assert np.isclose(energy(_identity_map(g)), 2 * np.pi, rtol=1e-12)
    deg2 = field_from_function(g, lambda t: np.stack([np.cos(2 * t), np.sin(2 * t)]))
    assert np.isclose(energy(deg2), 4 * np.pi, rtol=1e-12)


def test_identity_is_critical():
    g = CircleGrid(64)
    res = el_residual(_identity_map(g), sphere_distribution(2))
    assert np.max(np.abs(res.samples)) < 1e-12


def test_horizontality_residual_is_the_normal_derivative():
    g = CircleGrid(64)
    u = _identity_map(g)
    # maps into the sphere have tangent derivatives: the normal part is round-off
    sphere_res = horizontality_residual(u, sphere_distribution(2)).samples
    assert np.max(np.abs(sphere_res)) < 1e-12
    # against the x-axis as target, the normal part of u' = (-sin, cos) is (0, cos)
    axis = PlaneDistribution(lambda z, v: v * np.array([1.0, 0.0]), 0.0)
    res = horizontality_residual(u, axis).samples
    want = np.stack([np.zeros(g.n_points), np.cos(g.nodes())], axis=1)
    assert np.max(np.abs(res - want)) < 1e-12


def test_flow_relaxes_to_identity_energy():
    g = CircleGrid(n_modes=64)
    states = gradient_flow(_perturbed_identity(g), sphere_distribution(2),
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
    states = gradient_flow(_perturbed_identity(CircleGrid(n_modes=16)),
                           sphere_distribution(2), tol=1e-20)
    final = states[-1]
    assert final.stalled and final.step < 1e-14
    assert final.el_residual_norm > 1e-20 and final.iteration < 100
    assert not any(s.stalled for s in states[:-1])
    counts = [s.backtracks for s in states]
    assert counts == sorted(counts) and counts[-1] > 0


def test_flow_step_costs_two_fft_pairs(monkeypatch):
    u0 = _perturbed_identity(CircleGrid(n_modes=64), amp=0.2, seed=3)
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
    u = _perturbed_identity(g, amp=0.1, seed=3)
    analytic, fd = gradient_check(u, sphere_distribution(2))
    assert abs(analytic - fd) < 1e-5 * max(1.0, abs(analytic))


def test_mobius_compose_preserves_energy():
    g = CircleGrid(128)
    u = _identity_map(g)
    e0 = energy(u)
    comp = mobius_compose(u, 0.5)
    assert abs(energy(comp) - e0) < 1e-8 * e0
    with pytest.raises(ValueError):
        mobius_compose(u, 1.0)
    line = field_from_function(LineGrid(1.0, 16), lambda x: x)
    with pytest.raises(ValueError):
        mobius_compose(line, 0.5)


def test_bubbling_requires_critical_input():
    g = CircleGrid(n_modes=64)
    with pytest.raises(ValueError):
        bubbling_experiment(_perturbed_identity(g), [0.9])


def test_bubbling_identity_report():
    g = CircleGrid(n_modes=256)
    rep = bubbling_experiment(_identity_map(g), [0.9])[0]
    assert rep.a == 0.9
    assert np.isclose(rep.concentration_scale, 0.1)
    assert np.isclose(rep.energy_total, 2 * np.pi, rtol=1e-8)
    # annuli are dyadic and nested inside (lam (1-a), R / (2 lam))
    for (r0, r1), (s0, s1) in zip(rep.annuli, rep.annuli[1:]):
        assert np.isclose(s0, r1)
    assert rep.annuli[0][0] >= 0.19
    assert rep.annuli[-1][1] <= 0.51
    assert len(rep.l2) == len(rep.annuli) == len(rep.l21) == len(rep.l2inf)
    # frozen: the dyadic sup of the quarter-Laplacian magnitude at a = 0.9
    assert np.isclose(rep.dyadic_sup, 0.71690943, atol=1e-6)
