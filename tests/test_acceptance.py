"""One test per release-checklist entry, at the stated tolerances.

Three entries are strict expected failures: they assert reference values
the implementation measurably does not produce. Each has a companion test
pinning what the code actually computes, so a regression in either
direction is caught. The analyses live in the check notes in
fraclap.acceptance and the per-check details.
"""

import dataclasses
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fraclap import acceptance, cli, counterexample, fracops

_CACHE = {}


def _result(check_id):
    if check_id not in _CACHE:
        _CACHE[check_id] = dict(acceptance.CHECKS)[check_id]()
    return _CACHE[check_id]


def _assert_passes(check_id):
    r = _result(check_id)
    assert r.passed, acceptance.format_line(r)


def test_01_circle_multiplier():
    _assert_passes("01-circle-multiplier")


def test_02_poisson_kernel_line():
    _assert_passes("02-poisson-kernel-line")


def test_03_line_closed_form():
    _assert_passes("03-line-closed-form")


def test_03_quadrature_error_is_the_routes_third_order_error():
    # the normalized route's error on |x| <= 10 is its third-order
    # discretization error on check 03's grid, 9.007e-6; a lost or a gained
    # order leaves the band
    quadrature = _result("03-line-closed-form").details["quadrature_max"]
    assert 8.9e-6 <= quadrature <= 9.1e-6, quadrature


@pytest.mark.xfail(strict=True, reason="the coded reference kernels are -2 "
                   "times the actual inverse quarter-Laplacian transforms; "
                   "the companion test pins the ratio")
def test_04a_inverse_quarter_kernels():
    _assert_passes("04a-inverse-quarter-kernels")


def test_04b_inverse_quarter_ratio():
    _assert_passes("04b-inverse-quarter-ratio")


def test_05_pohozaev_line():
    _assert_passes("05-pohozaev-line")


def test_06_pohozaev_circle():
    _assert_passes("06-pohozaev-circle")


def test_07_pohozaev_plane():
    _assert_passes("07-pohozaev-plane")


def test_07_fails_on_a_non_conformal_preset(monkeypatch):
    # both fixtures are conformal polynomials and read exactly 0, so the
    # check's gate never sees a nonzero residual on them; a bent map in the
    # same table reads 0.49999787 (radial energy 16 against angular 8 in
    # units of the t = 1 weight's mass) and fails the check
    monkeypatch.setitem(acceptance.PLANE_PRESETS, "bend",
                        lambda x, y: np.stack([x + y * y / 2, y], axis=-1))
    r = acceptance.check_pohozaev_plane()
    assert not r.passed and r.status == "fail"
    assert {g.name: g.value for g in r.gates if g.name != "bend"} == {"identity-map": 0.0,
                                                                      "z2": 0.0}
    assert abs(r.value - 0.49999787) < 1e-8
    assert r.headroom["bend"] == 5000.0


def test_08_stereo_transfer():
    _assert_passes("08-stereo-transfer")


def test_09_commutator_compensation():
    _assert_passes("09-commutator-compensation")


def test_10_flow_convergence():
    _assert_passes("10-flow-convergence")


def test_11_mobius_invariance():
    _assert_passes("11-mobius-invariance")


def test_12a_bubbling_monotone():
    _assert_passes("12a-bubbling-monotone")


@pytest.mark.xfail(strict=True, reason="the gate-passing annuli are the far "
                   "field of a single bubble, whose decay exponent is 3/2; "
                   "the fitted values land at 1.42..1.50")
def test_12b_bubbling_exponent():
    _assert_passes("12b-bubbling-exponent")


def test_13a_counterexample_decay_u():
    _assert_passes("13a-counterexample-decay-u")


@pytest.mark.xfail(strict=True, reason="the v potential changes sign near "
                   "t = 10 and reaches its t^(-5/4) asymptote only like "
                   "t^(-1/4); the window fit gives about -0.70, and the "
                   "companion test pins the asymptotic constant")
def test_13b_counterexample_decay_v():
    _assert_passes("13b-counterexample-decay-v")


def test_13a_and_13b_read_the_slopes_without_a_neck_report(monkeypatch):
    def no_report(n, R):
        raise AssertionError("the decay slopes depend on neither n nor R")

    monkeypatch.setattr(counterexample, "neck_report", no_report)
    slopes = counterexample.decay_slopes()
    for check_id, slope in zip(("13a-counterexample-decay-u",
                                "13b-counterexample-decay-v"), slopes):
        r = dict(acceptance.CHECKS)[check_id]()
        assert r.ok and r.value == slope, acceptance.format_line(r)


def test_13c_counterexample_decay_v_limit():
    _assert_passes("13c-counterexample-decay-v-limit")


def test_13d_counterexample_window():
    _assert_passes("13d-counterexample-window")


def test_14_lorentz_norms():
    _assert_passes("14-lorentz-norms")


def test_15_moment_operators():
    _assert_passes("15-moment-operators")


def test_expectations_recorded():
    # the checklist itself knows which entries are expected to fail
    expected_fail = {cid for cid, _ in acceptance.CHECKS
                     if not _result(cid).expect_pass}
    assert expected_fail == {"04a-inverse-quarter-kernels",
                             "12b-bubbling-exponent",
                             "13b-counterexample-decay-v"}


def test_run_all_summary():
    # every check ran, nothing came out contrary to its expectation
    results = [_result(cid) for cid, _ in acceptance.CHECKS]
    for r in results:
        print(acceptance.format_line(r))
    assert len(results) == len(acceptance.CHECKS)
    mismatched = [r.check_id for r in results if not r.ok]
    assert mismatched == []


# Gates: each check's pass/fail decision is the conjunction of its gates, and
# each gate makes the same comparison the check made before it had gates.


def test_passed_is_the_conjunction_of_the_gates():
    for check_id, _ in acceptance.CHECKS:
        r = _result(check_id)
        assert r.gates, check_id
        assert r.passed == all(g.holds for g in r.gates), check_id
    for check_id in ("04a-inverse-quarter-kernels", "12b-bubbling-exponent",
                     "13b-counterexample-decay-v"):
        assert not all(g.holds for g in _result(check_id).gates), check_id


def test_nan_fails_every_gate():
    nan = float("nan")
    for gate in (acceptance.Gate("x", nan), acceptance.Gate("x", nan, hi=1.0),
                 acceptance.Gate("x", nan, lo=0.0), acceptance.Gate("x", nan, lo=0.0, strict=True),
                 *acceptance.monotone_claim("x", [2.0, nan]).gates,
                 *acceptance.exponent_claim("x", [0.5, nan]).gates,
                 *acceptance.window_claim("x", [1.1, nan]).gates,
                 *acceptance.moment_claim("x", [0.0, nan]).gates):
        assert not gate.holds, gate


def test_moment_operators_are_exactly_even_and_odd():
    # M+ and M- impose their parity node by node, so check 15's parity reads
    # exactly zero, tighter than its 1e-12 gate
    assert _result("15-moment-operators").details["parity"] == 0.0


def test_strict_gates_fail_on_equality():
    sigma_min = next(g for g in _result("15-moment-operators").gates if g.name == "sigma_min")
    assert sigma_min.holds and sigma_min.strict
    assert not dataclasses.replace(sigma_min, value=0.0).holds
    assert dataclasses.replace(sigma_min, value=5e-324).holds
    def decreasing(values):
        (gate,) = acceptance.monotone_claim("x", values).gates
        assert gate.strict
        return gate.holds
    assert decreasing([3.0, 2.0, 1.0])
    assert not decreasing([3.0, 2.0, 2.0])
    assert not decreasing([1.0, 2.0])


def test_slope_gates_bound_the_distance_not_the_slope():
    # |slope + 1.5| <= 0.05 is not the interval [-1.55, -1.45] in floating
    # point: at slope = -1.45 the sum rounds to 0.05000000000000004
    edges = (-1.55, -1.45, -1.25 - 0.05, -1.25 + 0.05, -0.35, -0.15)
    slopes = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)] + list(edges)
    def holds(claim, slope):
        (gate,) = claim("x", slope).gates
        return gate.holds
    for s in slopes:
        assert holds(acceptance.decay_u_claim, s) == (abs(s + 1.5) <= 0.05), s
        assert holds(acceptance.decay_v_claim, s) == (abs(s + 1.25) <= 0.05), s
        assert holds(acceptance.neck_slope_claim, s) == (abs(s + 0.25) <= 0.1), s
    assert not holds(acceptance.decay_u_claim, -1.45) and -1.55 <= -1.45 <= -1.45


def test_headroom_leaves_out_unbounded_and_non_finite_ratios():
    gates = (acceptance.Gate("upper", 0.5, hi=2.0), acceptance.Gate("lower", 4.0, lo=1.0),
             acceptance.Gate("exact", 0.0, hi=0.0), acceptance.Gate("open", 3.0),
             acceptance.Gate("strict", 1.0, lo=0.0, strict=True),
             acceptance.Gate("nan", float("nan"), hi=1.0), acceptance.Gate("zero", 0.0, lo=1.0))
    r = acceptance.CheckResult("x", 0.0, "", gates)
    assert r.headroom == {"upper": 0.25, "lower": 0.25}
    assert not r.passed


# The CLI runners and the checks share their experiments: a runner at the
# check's pinned values reports the check's numbers.


def _cli_results(capsys, *argv):
    assert cli.main(list(argv) + ["--threads", "1"]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_flow_cli_matches_check_10(capsys):
    res = _cli_results(capsys, "flow", "--seed", "7")
    details = _result("10-flow-convergence").details
    assert res["el_residual"] == details["el_residual"]
    assert res["iterations"] == details["iterations"]
    assert res["gradient_fd_rel"] == details["gradient_rel"]


def test_pohozaev_line_cli_matches_check_05(capsys):
    res = _cli_results(capsys, "pohozaev", "--geometry", "line")
    assert res["max_relative_error"] == _result("05-pohozaev-line").value


def test_stereo_cli_matches_check_08(capsys):
    details = _result("08-stereo-transfer").details
    assert _cli_results(capsys, "stereo")["max_abs_error"] == details["closed_form_max"]
    res = _cli_results(capsys, "stereo", "--case", "random", "--seed", "11")
    assert res["max_abs_residual"] == details["random_two_route_max"]


def test_bubble_cli_matches_check_12a(capsys):
    sups = [e["dyadic_sup"] for e in _cli_results(capsys, "bubble")["entries"]]
    assert sups == list(_result("12a-bubbling-monotone").details.values())


def test_counterexample_cli_matches_check_13d(capsys):
    res = _cli_results(capsys, "counterexample")
    assert res["neck_slope"] == _result("13d-counterexample-window").details["neck_slope"]


# each CLI check at the runner defaults and the checklist check whose claim it states
_CLI_CLAIMS = {
    "bubble-monotone": "12a-bubbling-monotone",
    "bubble-exponent": "12b-bubbling-exponent",
    "counterexample-decay-u": "13a-counterexample-decay-u",
    "counterexample-decay-v": "13b-counterexample-decay-v",
    "counterexample-window": "13d-counterexample-window",
    "counterexample-neck-slope": "13d-counterexample-window",
    "flow-monotone": "10-flow-convergence",
    "flow-converged": "10-flow-convergence",
    "flow-energy-target": "10-flow-convergence",
    "flow-gradient-fd": "10-flow-convergence",
}


@pytest.mark.parametrize("command, seed", [("bubble", 0), ("counterexample", 0), ("flow", 7)])
def test_cli_checks_state_the_checklist_claims(command, seed):
    # in process and at its defaults (flow at seed 7, check 10's), a runner's
    # checks carry the gates of their checklist check: same names, bounds and
    # values, and the same expectation and status
    spec = cli._COMMANDS[command]
    opts = {o.name: o.default for o in spec.options}
    checks = spec.runner(opts, cli.RunContext(seed=seed))[1]
    assert sorted(c.check_id for c in checks) == sorted(
        cid for cid in _CLI_CLAIMS if cid.startswith(command))
    for c in checks:
        owner = _result(_CLI_CLAIMS[c.check_id])
        names = {g.name for g in c.gates}
        assert c.gates == tuple(g for g in owner.gates if g.name in names), c.check_id
        assert c.expect_pass == owner.expect_pass, c.check_id
        assert c.status == dataclasses.replace(owner, gates=c.gates).status, c.check_id


def test_inverse_quarter_pair_is_built_once(monkeypatch):
    calls = []
    transform = fracops.inverse_quarter_laplacian

    def counted(f):
        calls.append(1)
        return transform(f)

    monkeypatch.setattr(fracops, "inverse_quarter_laplacian", counted)
    acceptance._inverse_quarter_pair.cache_clear()
    checks = dict(acceptance.CHECKS)
    checks["04a-inverse-quarter-kernels"]()
    checks["04b-inverse-quarter-ratio"]()
    assert len(calls) == 2


def test_inverse_quarter_pair_memory():
    # one 2^21 density (16.8 MB) is alive at a time, formed in place and
    # adopted by its Field, and only the windows of the transforms are kept:
    # 78.4e6 bytes traced from a cold start, frequency table included. Both
    # densities and both outputs alive at once, each output also copied into
    # its Field, peak at 120.3e6 and break the bound
    acceptance._inverse_quarter_pair.cache_clear()
    tracemalloc.start()
    try:
        pair = acceptance._inverse_quarter_pair()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 105e6
    assert all(len(a) == 10486 and not a.flags.writeable for a in pair)


def test_benchmark_workloads_follow_the_checklist():
    # the benchmark judges `release` by these tables; a renamed check or a
    # new subcommand must show up here rather than as a silent false verdict
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ids = [cid for cid, _ in acceptance.CHECKS]
    assert list(workloads.CHECK_IDS) == ids
    assert list(workloads.EXPECTED_FAIL) == [cid for cid in ids
                                             if not _result(cid).expect_pass]
    assert set(cli._COMMANDS) <= {cmd[0] for cmd in workloads.RELEASE}
