"""End-to-end runs of the command line front end (in-process)."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fraclap import acceptance, cli, halfharmonic
from fraclap.geometry import CircleGrid, LineGrid, field_from_function, save_csv


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(out):
    rep = json.loads(out)
    assert set(rep) == {"meta", "results"}
    return rep


def test_pohozaev_circle_identity(capsys):
    code, out, _ = _run(capsys, ["pohozaev", "--geometry", "circle",
                                 "--preset", "identity-map"])
    assert code == 0
    rep = _report(out)
    assert rep["meta"]["command"] == "pohozaev"
    assert rep["meta"]["schema_version"] == 1
    assert len(rep["meta"]["config_hash"]) == 16
    int(rep["meta"]["config_hash"], 16)  # hex
    checks = rep["results"]["checks"]
    assert checks and all(c["passed"] == c["expect_pass"] for c in checks)
    assert rep["results"]["moment_gap"] <= 1e-10


def test_pohozaev_mobius_preset(capsys):
    code, out, _ = _run(capsys, ["pohozaev", "--geometry", "circle",
                                 "--preset", "mobius", "--a", "0.3"])
    assert code == 0
    assert _report(out)["results"]["a"] == 0.3


@pytest.mark.parametrize("a", ["0.3", "0.6", "0.9"])
def test_mobius_refinement_size_goes_to_meta(capsys, a):
    code, out, _ = _run(capsys, ["pohozaev", "--preset", "mobius", "--a", a])
    rep = _report(out)
    # the 1024-node identity is resolved one doubling later
    assert code == 0 and rep["meta"]["mobius_points"] == 2048
    assert "mobius_points" not in rep["results"]
    code, out, _ = _run(capsys, ["pohozaev", "--preset", "identity-map"])
    assert "mobius_points" not in _report(out)["meta"]


def test_mobius_preset_resolves_a_sharp_bubble(capsys):
    code, out, _ = _run(capsys, ["pohozaev", "--preset", "mobius", "--a", "0.999"])
    rep = _report(out)
    assert code == 0 and rep["meta"]["mobius_points"] == 131072
    assert rep["results"]["moment_gap"] <= 1e-10


def test_mobius_preset_past_the_node_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(halfharmonic, "_MOBIUS_N_MAX", 1 << 14)
    out_path = tmp_path / "report.json"
    code, out, err = _run(capsys, ["pohozaev", "--preset", "mobius", "--a", "0.999",
                                   "--out", str(out_path)])
    assert code == 2 and out == ""
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "config" and "16384 nodes" in diag["message"]
    assert not out_path.exists()


def test_bubble_results_do_not_depend_on_threads(capsys):
    outs = []
    for threads in ("1", "2"):
        acceptance.bubbling_reports.cache_clear()
        code, out, _ = _run(capsys, ["bubble", "--threads", threads])
        assert code == 0
        outs.append(json.dumps(_report(out)["results"], sort_keys=True))
    assert outs[0] == outs[1]


def test_results_are_idempotent(tmp_path, capsys):
    argv = ["counterexample", "sweep", "--n", "100,1000", "--R", "4,16"]
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = cli.main(argv + ["--out", str(path)])
        capsys.readouterr()
        assert code == 0
        outs.append(json.loads(path.read_text()))
    dumps = [json.dumps(r["results"], sort_keys=True) for r in outs]
    assert dumps[0] == dumps[1]
    # infeasible cross pairs are skipped, not errors
    skipped = outs[0]["results"]["skipped"]
    assert {(s["n"], s["R"]) for s in skipped} == {(100, 16.0)}
    assert len(outs[0]["results"]["entries"]) == 3


def test_counterexample_csv_table(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = _run(capsys, ["counterexample", "sweep", "--n", "100,1000",
                                 "--R", "4", "--csv", str(csv_path)])
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["n", "R", "c_n_numeric", "c_n_paper"]
    assert len(rows) == 3  # header + the two feasible pairs


def test_counterexample_all_degenerate_is_config_error(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, out, err = _run(capsys, ["counterexample", "sweep", "--n", "4",
                                   "--R", "4", "--out", str(out_path)])
    assert code == 2
    assert json.loads(err)["error"] == "config"
    assert out == ""
    assert not out_path.exists()  # nothing written on config errors


def test_unwritable_out_exits_2(tmp_path, capsys):
    code, out, err = _run(capsys, ["kernel", "--out", str(tmp_path / "no" / "k.json")])
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "config" and "k.json" in diag["message"]


def test_unwritable_csv_exits_2_and_leaves_no_report(tmp_path, capsys):
    out_path = tmp_path / "k.json"
    code, out, err = _run(capsys, ["kernel", "--out", str(out_path),
                                   "--csv", str(tmp_path / "no" / "k.csv")])
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "config" and "k.csv" in diag["message"]
    assert list(tmp_path.iterdir()) == []


def test_unreadable_config_exits_2(tmp_path, capsys):
    # a directory cannot be opened as a file, and is not skipped as missing
    code, out, err = _run(capsys, ["commutators", "--config", str(tmp_path)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "config"


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[common]\nseed = 3\n\n[counterexample]\nn = 100,1000\nR = 4\n")
    code, out, _ = _run(capsys, ["counterexample", "sweep",
                                 "--config", str(cfg)])
    assert code == 0
    rep = _report(out)
    assert rep["meta"]["seed"] == 3
    assert [e["n"] for e in rep["results"]["entries"]] == [100, 1000]
    # flags beat the file
    code, out, _ = _run(capsys, ["counterexample", "sweep", "--config", str(cfg),
                                 "--seed", "5", "--n", "200"])
    assert code == 0
    rep = _report(out)
    assert rep["meta"]["seed"] == 5
    assert [e["n"] for e in rep["results"]["entries"]] == [200]


def test_config_rejects_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[commonn]\nseed = 3\n")
    code, out, err = _run(capsys, ["counterexample", "sweep", "--config", str(cfg)])
    assert code == 2
    msg = json.loads(err)
    assert msg["error"] == "config" and "commonn" in msg["message"]


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[flow]\nn_modess = 64\n")
    code, _, err = _run(capsys, ["flow", "--config", str(cfg)])
    assert code == 2
    assert "n_modess" in json.loads(err)["message"]


def test_bad_values_and_commands(capsys):
    assert _run(capsys, ["kernel", "--t", "-1.0"])[0] == 2
    assert _run(capsys, ["kernel", "frobnicate"])[0] == 2
    assert _run(capsys, ["frobnicate"])[0] == 2
    assert _run(capsys, ["flow", "--tol", "nope"])[0] == 2
    assert _run(capsys, ["flow", "--tol", "-0.5"])[0] == 2
    assert _run(capsys, [])[0] == 2


def test_kernel_line_report_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "kernel.csv"
    code, out, _ = _run(capsys, ["kernel", "eval", "--geometry", "line",
                                 "--t", "0.7", "--samples", "4096",
                                 "--half-width", "300", "--csv", str(csv_path)])
    assert code == 0
    rep = _report(out)
    assert abs(rep["results"]["midpoint_mass"] - 1.0) < 2e-3
    assert 0.4 < rep["results"]["peak"] <= 1.0 / (0.7 * np.pi)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "x"
    assert len(rows) == 4097


def test_kernel_circle_ratio(capsys):
    code, out, _ = _run(capsys, ["kernel", "--geometry", "circle",
                                 "--samples", "512"])
    assert code == 0
    res = _report(out)["results"]
    assert abs(res["mass"] - 1.0) < 1e-12
    assert abs(res["closed_form_ratio"] - 2 * np.pi) < 1e-10
    assert res["closed_form_ratio_spread"] < 1e-9


def test_norms_indicator(capsys):
    code, out, _ = _run(capsys, ["norms", "--profile", "indicator",
                                 "--length", "3.0"])
    assert code == 0
    res = _report(out)["results"]
    assert abs(res["l21"] - np.sqrt(3.0)) < 0.07  # sqrt(h) edge effect


def test_norms_builds_the_annulus_table_once(capsys):
    # at the defaults the subcommand's table and check 14's are the same
    acceptance.inverse_sqrt_annuli.cache_clear()
    code, _, _ = _run(capsys, ["norms"])
    assert code == 0
    info = acceptance.inverse_sqrt_annuli.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_flow_default_recipe(capsys):
    code, out, _ = _run(capsys, ["flow", "--n-modes", "64",
                                 "--perturbation", "0.05", "--tol", "1e-5"])
    assert code == 0
    res = _report(out)["results"]
    ids = {c["check"] for c in res["checks"]}
    assert {"flow-monotone", "flow-converged", "flow-energy-target",
            "flow-gradient-fd"} <= ids
    assert res["monotone_violations"] == 0
    assert res["el_residual"] <= 1e-5


def test_flow_health_goes_to_meta(capsys):
    code, out, _ = _run(capsys, ["flow", "--n-modes", "16", "--tol", "1e-20"])
    assert code == 1  # flow-converged fails
    rep = _report(out)
    assert rep["meta"]["stalled"] is True
    assert rep["meta"]["backtracks"] > 0
    assert not {"stalled", "backtracks"} & set(rep["results"])
    code, out, _ = _run(capsys, ["flow", "--n-modes", "16"])
    assert code == 0 and _report(out)["meta"]["stalled"] is False


def test_flow_gradient_check_on_a_tiny_derivative(capsys):
    # the analytic derivative is 1.2e-5 here; two energies differenced
    # directly lose about 1e-5 of it, relative, to cancellation
    code, out, _ = _run(capsys, ["flow", "--n-modes", "128", "--perturbation", "0.2",
                                 "--seed", "339994981"])
    assert code == 0
    assert _report(out)["results"]["gradient_fd_rel"] <= 1e-5


def test_flow_initial_field_roundtrip(tmp_path, capsys):
    path = tmp_path / "u0.csv"
    save_csv(field_from_function(CircleGrid(32),
                                 lambda t: np.stack([np.cos(t), np.sin(t)])), path)
    code, out, _ = _run(capsys, ["flow", "--initial", str(path)])
    assert code == 0
    res = _report(out)["results"]
    assert res["iterations"] <= 1  # already critical
    assert res["el_residual"] < 1e-10
    ids = {c["check"] for c in res["checks"]}
    assert "flow-energy-target" not in ids  # file input skips the recipe checks


def test_flow_rejects_bad_initial_fields(tmp_path, capsys):
    line = tmp_path / "line.csv"
    save_csv(field_from_function(LineGrid(1.0, 16),
                                 lambda x: np.stack([x, x])), line)
    assert _run(capsys, ["flow", "--initial", str(line)])[0] == 2
    off = tmp_path / "off.csv"
    save_csv(field_from_function(CircleGrid(16),
                                 lambda t: np.stack([2 * np.cos(t), np.sin(t)])), off)
    assert _run(capsys, ["flow", "--initial", str(off)])[0] == 2
    assert _run(capsys, ["flow", "--initial", str(tmp_path / "nope.csv")])[0] == 2


def test_selftest_subset(capsys):
    code, out, err = _run(capsys, ["selftest", "--only", "06,09"])
    assert code == 0
    res = _report(out)["results"]
    assert res["n_checks"] == 2
    assert res["counts"] == {"pass": 2}
    assert "06-pohozaev-circle" in err  # progress lines go to stderr


def test_selftest_reports_check_seconds_in_meta(capsys):
    code, out, _ = _run(capsys, ["selftest", "--only", "15"])
    assert code == 0
    rep = _report(out)
    seconds = rep["meta"]["check_seconds"]
    assert list(seconds) == ["15-moment-operators"]
    assert 0.0 < seconds["15-moment-operators"] <= rep["meta"]["wall_clock_s"]
    assert rep["meta"]["warnings"] == 0
    assert "check_seconds" not in rep["results"]


def test_selftest_reports_headroom_and_seconds(capsys):
    code, out, err = _run(capsys, ["selftest", "--only", "03,13"])
    assert code == 0
    meta = _report(out)["meta"]
    ids = ["03-line-closed-form", "13a-counterexample-decay-u", "13b-counterexample-decay-v",
           "13c-counterexample-decay-v-limit", "13d-counterexample-window"]
    assert list(meta["check_seconds"]) == ids
    assert sorted(meta["headroom"]) == ids
    headroom = meta["headroom"]
    # the thinnest margins of the checklist sit just inside their bounds
    assert 0.7 < headroom["03-line-closed-form"]["spectral_max"] < 1.0
    assert 0.8 < headroom["13d-counterexample-window"]["window_max"] < 1.0
    assert 0.8 < headroom["13d-counterexample-window"]["window_min"] < 1.0
    # an exact gate has no ratio; an expected failure sits beyond its bound
    assert "antisymmetry" not in headroom["13d-counterexample-window"]
    assert headroom["13b-counterexample-decay-v"]["slope_gap"] > 1.0
    for check_id, seconds in meta["check_seconds"].items():
        assert re.search(r"%.3fs \[\w+ *\] %s" % (seconds, check_id), err), check_id


def test_selftest_reports_the_tail_quad_error_estimate(capsys):
    # check 03 is the selftest's one trip through the quadrature route; a
    # second run in this process reads its cached tail table
    reports = [_report(_run(capsys, ["selftest", "--only", "03"])[1]) for _ in range(2)]
    for rep in reports:
        abserr = rep["meta"]["tail_quad_abserr"]
        assert np.isfinite(abserr) and 0.0 < abserr <= 1e-13
        assert "tail_quad_abserr" not in json.dumps(rep["results"])
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[0]["meta"]["tail_quad_abserr"] == reports[1]["meta"]["tail_quad_abserr"]
    assert "tail_quad_abserr" not in _report(_run(capsys, ["selftest", "--only", "06"])[1])["meta"]


def test_headroom_covers_every_command_check(capsys):
    code, out, _ = _run(capsys, ["flow", "--n-modes", "16"])
    assert code == 0
    rep = _report(out)
    headroom = rep["meta"]["headroom"]
    assert sorted(c["check"] for c in rep["results"]["checks"]) == sorted(headroom)
    assert headroom["flow-monotone"] == {}  # violations == 0 has no ratio
    assert 0.0 < headroom["flow-converged"]["el_residual"] <= 1.0
    assert 0.0 < headroom["flow-gradient-fd"]["gradient_rel"] < 1.0


def test_selftest_unknown_prefix(capsys):
    assert _run(capsys, ["selftest", "--only", "99"])[0] == 2


def test_threads_from_env(capsys, monkeypatch):
    monkeypatch.setenv("FRACLAP_THREADS", "2")
    code, out, _ = _run(capsys, ["pohozaev", "--geometry", "circle"])
    assert code == 0
    assert _report(out)["meta"]["threads"] == 2
    monkeypatch.setenv("FRACLAP_THREADS", "zero")
    assert _run(capsys, ["pohozaev", "--geometry", "circle"])[0] == 2


def test_threads_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("FRACLAP_THREADS", "2")
    code, out, _ = _run(capsys, ["pohozaev", "--threads", "1"])
    assert code == 0
    assert _report(out)["meta"]["threads"] == 1


# Every option of every command, the common ones included, fed a value it
# cannot parse, a negative one and a non-finite one. None of these reaches
# an expensive path: each is rejected up front or ignored by the default run.
_SWEEP = [(command, opt.name, value)
          for command, spec in cli._COMMANDS.items()
          for opt in spec.options + cli._COMMON
          for value in ("x", "-1", "inf")]


def _reject_constant(text):
    raise ValueError("report holds the non-finite number %s" % text)


@pytest.mark.parametrize("command,option,value", _SWEEP,
                         ids=["%s-%s-%s" % case for case in _SWEEP])
def test_every_option_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch,
                                                   command, option, value):
    monkeypatch.chdir(tmp_path)  # a relative --initial names no existing file
    out_path = tmp_path / "report.json"
    code, _, err = _run(capsys, [command, "--threads", "1",
                                 "--" + option.replace("_", "-"), value,
                                 "--out", str(out_path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config"
        assert not out_path.exists()
    else:
        json.loads(out_path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("argv,message", [
    (["kernel", "--threads", "0"], "threads must be at least 1"),
    (["flow", "--seed", "-1"], "seed must be non-negative"),
    (["pohozaev", "--geometry", "line", "--t-values", "-1"], "t values must be positive"),
    (["pohozaev", "--geometry", "plane", "--t-values", "2"], "t=2 too large for the grid"),
    (["norms", "--outer", ","], "option outer needs at least one value"),
    (["commutators", "--resolutions", ","], "option resolutions needs at least one value"),
    (["counterexample", "--n", ","], "option n needs at least one value"),
    (["pohozaev", "--t-values", ","], "option t_values needs at least one value"),
    (["selftest", "--only", ","], "option only needs at least one value"),
    (["kernel", "--half-width", "1e308"], "non-finite spacing"),
    (["kernel", "foo"], "invalid choice"),
    (["pohozaev", "--t-values", "0.5,7", "--seed", "5"], "--t-values"),
    (["pohozaev", "--a", "0.3", "--seed", "5"], "--a"),
], ids=["threads-0", "seed-negative", "line-t-negative", "plane-t-too-large",
        "norms-outer-empty", "commutators-resolutions-empty", "counterexample-n-empty",
        "pohozaev-t-values-empty", "selftest-only-empty", "kernel-half-width-huge",
        "kernel-unknown-action", "circle-t-values", "a-without-mobius"])
def test_rejected_inputs_exit_2_with_the_message(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert message in json.loads(err)["message"]


_UNUSED_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")


def _run_without_unused_scipy(statements):
    # runs the statements in a fresh interpreter, then fails if any of
    # _UNUSED_SCIPY (or a module under it) was loaded
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, %r); %s; "
            "loaded = sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in %r); "
            "assert not loaded, loaded" % (str(src), statements, _UNUSED_SCIPY))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_scipy_integrate_interpolate_and_optimize():
    # the tail table is a numpy panel rule and its spline a numpy solve, the
    # circle spline is the line's B-spline build, and the bubble search a
    # port of Brent's method; no scipy package the CLI imports loads the three
    _run_without_unused_scipy("import fraclap.cli")


def test_mobius_commands_load_neither_interpolate_nor_optimize(tmp_path):
    # the two commands that build the circle spline and locate the bubble
    out = str(tmp_path / "report.json")
    _run_without_unused_scipy(
        "from fraclap import cli; "
        "assert cli.main(['bubble', '--k-max', '2', '--out', %r]) == 0; "
        "assert cli.main(['pohozaev', '--preset', 'mobius', '--a', '0.9', '--out', %r]) == 0"
        % (out, out))


def test_selftest_loads_neither_interpolate_nor_optimize(tmp_path):
    # every check of the selftest, through the CLI; its report keeps check
    # 15's M+ and M- exactly even and odd and its collocation matrix injective
    out = tmp_path / "selftest.json"
    _run_without_unused_scipy("from fraclap import cli; "
                              "assert cli.main(['selftest', '--out', %r]) == 0" % str(out))
    check = next(c for c in _report(out.read_text())["results"]["checks"]
                 if c["check"] == "15-moment-operators")
    assert check["details"]["parity"] == 0.0
    assert check["details"]["sigma_min"] > 0.0


def test_reports_record_the_library_versions(capsys):
    import scipy
    code, out, _ = _run(capsys, ["kernel"])
    assert code == 0
    assert _report(out)["meta"]["libraries"] == {"numpy": np.__version__,
                                                 "scipy": scipy.__version__}


def test_non_finite_report_exits_2_and_writes_nothing(tmp_path):
    # (t + 1)^4 overflows to inf at t = 1e300, so the closed form's relative
    # error is NaN; run as a user would, where the overflow warnings would print
    out_path = tmp_path / "report.json"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "fraclap.cli", "pohozaev", "--geometry", "line",
         "--t-values", "1e300", "--out", str(out_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    # the overflow warnings are counted, not printed: stderr is the one line
    (line,) = proc.stderr.strip().splitlines()
    diag = json.loads(line)
    assert diag["error"] == "config" and "pohozaev" in diag["message"]
    assert not out_path.exists()


def test_config_common_section_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[common]\nsed = 3\n")
    code, _, err = _run(capsys, ["kernel", "--config", str(cfg)])
    assert code == 2
    assert "sed" in json.loads(err)["message"]


def test_plane_default_uses_the_checklist_height(capsys):
    code, out, _ = _run(capsys, ["pohozaev", "--geometry", "plane"])
    assert code == 0
    res = _report(out)["results"]
    code, out, _ = _run(capsys, ["pohozaev", "--geometry", "plane", "--t-values", "1"])
    assert code == 0
    assert res == _report(out)["results"]
    assert res["t_values"] == [1.0] and res["lhs"] == res["rhs"]


def test_readme_command_lines_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", readme, re.M | re.S)
    lines = [line.split("#")[0].split()[1:]
             for lang, body in blocks if not lang
             for line in body.splitlines() if line.startswith("fraclap ")]
    assert len(lines) >= 8
    for argv in lines:
        args = cli._parse(argv)
        spec = cli._COMMANDS[args.command]
        assert not spec.actions or args.action in spec.actions, argv
        cli._effective_options(args.command, args, None)

    (ini,) = [body for lang, body in blocks if lang == "ini"]
    cfg = tmp_path / "readme.ini"
    cfg.write_text(ini)
    file_cfg = cli._load_config_file(str(cfg))
    for section in file_cfg.sections():
        command = "flow" if section == "common" else section
        opts = cli._effective_options(command, cli._parse([command]), file_cfg)
        assert set(file_cfg[section]) <= set(opts)


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli._parse(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.startswith("usage: fraclap ")
    for name, spec in cli._COMMANDS.items():
        assert "%s %s" % (name, spec.help) in text


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_names_every_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli._parse([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: fraclap %s " % command)
    spec = cli._COMMANDS[command]
    for flag in ["--" + o.name.replace("_", "-") for o in spec.options + cli._COMMON] + [
            "--config", "--out", "--csv"]:
        assert flag in text


# Per command, an abbreviated flag and a --flag=value pair, and the options
# they set.
_PARSE_CASES = {
    "kernel": (["eval", "--geom", "circle", "--samples=512"],
               {"geometry": "circle", "samples": 512}),
    "norms": (["--prof", "indicator", "--length=3"], {"profile": "indicator", "length": 3.0}),
    "commutators": (["--resol", "8,16", "--seed=2"], {"resolutions": (8, 16), "seed": 2}),
    "pohozaev": (["--geom", "line", "--t-values=1,2"],
                 {"geometry": "line", "t_values": (1.0, 2.0)}),
    "stereo": (["--arc", "0.5", "--case=random"], {"arc_halfwidth": 0.5, "case": "random"}),
    "flow": (["--n-mod", "64", "--tol=1e-5"], {"n_modes": 64, "tol": 1e-5}),
    "bubble": (["--k-m", "4", "--big-r=2"], {"k_max": 4, "big_r": 2.0}),
    "counterexample": (["sweep", "--thr", "2", "--R=4,16"], {"threads": 2, "R": (4.0, 16.0)}),
    "selftest": (["--on", "06", "--seed=1"], {"only": ("06",), "seed": 1}),
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_lines_give_their_options(command):
    defaults = {o.name: o.default for o in cli._COMMANDS[command].options + cli._COMMON}
    argv, pinned = _PARSE_CASES[command]
    for line, want in (([command], defaults), ([command] + argv, {**defaults, **pinned})):
        args = cli._parse(line)
        assert args.command == command
        assert cli._effective_options(command, args, None) == want


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["nosuchcommand"], ["--seed", "3", "flow"],
    ["--", "flow"], ["--bogus", "flow"], ["--bogus", "flow", "-h"]])
def test_only_a_line_opening_with_a_command_runs_it(argv):
    try:
        assert cli._parse(argv) is None
    except SystemExit as exc:
        assert exc.code == 0
    except cli.ConfigError:
        pass


def test_a_command_call_builds_one_parser(capsys, monkeypatch):
    made = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    code, _, _ = _run(capsys, ["flow", "--n-modes", "128", "--seed", "3"])
    assert code == 0
    assert made == ["fraclap flow"]
