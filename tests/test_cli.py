import json
import time

import numpy as np
import pytest

from conftest import CUBIC_TEXT, HEADING_TEXT, chain_text

from ctrlkit.cli import main
from ctrlkit.dsl import parse, serialize


LINEAR_TEXT = "system lin\nstates x1 x2\ninputs u\ndx1 = x2\ndx2 = -2*x1 + 3*x2 + u\n"
CHAIN3_TEXT = "system tri\nstates x1 x2 x3\ninputs u\ndx1 = x2\ndx2 = x3\ndx3 = u\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def reach_config(**overrides):
    cfg = {
        "horizon": 1.0,
        "segments": 4,
        "input_box": [[-6.0, 6.0]],
        "samples": 400,
        "window": [[-2.0, 2.0], [-2.0, 2.0]],
        "resolution": 16,
        "seed": 5,
        "step": 0.01,
    }
    cfg.update(overrides)
    return cfg


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "ctrlkit" in capsys.readouterr().out


def test_no_arguments_is_input_error(capsys):
    assert main([]) == 1


def test_parse_echoes_normal_form(tmp_path, capsys):
    path = write(tmp_path / "heading.sys", HEADING_TEXT)
    assert main(["parse", path]) == 0
    out = capsys.readouterr().out
    assert out == serialize(parse(HEADING_TEXT))
    # a manifest lands next to the input by default
    manifest = json.loads((tmp_path / "heading.sys.manifest.json").read_text())
    assert manifest["command"] == "parse"
    assert manifest["exit_code"] == 0
    assert path in manifest["inputs"]
    assert len(manifest["inputs"][path]) == 64


def test_parse_bad_file_exits_1(tmp_path, capsys):
    path = write(tmp_path / "dup.sys", "system d\nstates x x\ndx = 1\n")
    assert main(["parse", path]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_missing_file_exits_1(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "nope.sys"), "--manifest", str(tmp_path / "m.json")]) == 1


def test_extend_writes_system_and_record(tmp_path, capsys):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    out = str(tmp_path / "cubic_ext.sys")
    assert main(["extend", src, "--out", out]) == 0
    ext = parse((tmp_path / "cubic_ext.sys").read_text())
    assert ext.states == ("x1", "x2", "x3", "y_u")
    assert ext.inputs == ("v_u",)
    record = json.loads((tmp_path / "cubic_ext.sys.record.json").read_text())
    assert record["mapping"] == [{"input": "u", "state": "y_u", "rate_input": "v_u"}]


def test_reduce_strips_chain_to_core(tmp_path, capsys):
    src = write(tmp_path / "chain5.sys", chain_text(5))
    out = str(tmp_path / "core.sys")
    cert = str(tmp_path / "core.cert.json")
    assert main(["reduce", src, "--out", out, "--certificate", cert]) == 0
    assert "3 steps" in capsys.readouterr().out
    core = parse((tmp_path / "core.sys").read_text())
    assert core.n == 2
    data = json.loads((tmp_path / "core.cert.json").read_text())
    assert data["count"] == 3


def test_check_kalman_controllable(tmp_path, capsys):
    src = write(tmp_path / "lin.sys", LINEAR_TEXT)
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "kalman", "--out", report]) == 0
    assert "controllable" in capsys.readouterr().out
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["controllable"] is True
    assert data["rank"] == 2
    assert "reduction" not in data


def test_check_kalman_reports_3state_reduction(tmp_path):
    src = write(tmp_path / "tri.sys", CHAIN3_TEXT)
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "kalman", "--out", report]) == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["reduction"]["criterion"] is True
    assert data["reduction"]["degenerate"] is False
    assert len(data["reduction"]["abar"]) == 2


def test_check_kalman_not_controllable_exits_2(tmp_path, capsys):
    src = write(tmp_path / "dec.sys", "system dec\nstates x1 x2\ninputs u\ndx1 = x1 + u\ndx2 = 2*x2\n")
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "kalman", "--out", report]) == 2
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["controllable"] is False


def test_check_kalman_not_linear_exits_2(tmp_path):
    src = write(tmp_path / "off.sys", "system off\nstates x1\ninputs u\ndx1 = x1 + 1 + u\n")
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "kalman", "--out", report]) == 2
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["verdict"] == "not-linear"


def test_check_kalman_drift_undefined_at_origin_exits_2(tmp_path):
    src = write(tmp_path / "recip.sys", "system recip\nstates x1 x2\ninputs u\ndx1 = 1/x1 + x2\ndx2 = u\n")
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "kalman", "--out", report]) == 2
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["verdict"] == "not-linear"
    assert data["where"] == "dx1"


@pytest.mark.parametrize("method, key, value", [("kalman", "reason", "drift has a constant offset"),
                                               ("larc", "rank", 1)])
def test_check_a_constant_whose_derivative_has_no_value_exits_2(tmp_path, method, key, value):
    # (1e-100)^-3 is 1e300; the chain rule at it would fold (1e-100)^-4, which
    # has no finite value, but a constant's derivative is 0 and is not folded
    src = write(tmp_path / "big.sys", "system big\nstates x1 x2\ninputs u\ndx1 = x2 + (1e-100)^-3\ndx2 = u\n")
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", method, "--out", report]) == 2
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["method"] == method and data[key] == value


def test_check_not_affine_exits_2(tmp_path):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "kalman", "--out", report]) == 2
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["verdict"] == "not-affine"


def test_check_larc_full_rank(tmp_path, capsys):
    src = write(tmp_path / "chain5.sys", chain_text(5))
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "larc", "--out", report]) == 0
    assert "full rank" in capsys.readouterr().out
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["certifies"] == "accessibility"
    assert data["rank"] == 5


def test_check_larc_deficient_exits_2(tmp_path, capsys):
    src = write(tmp_path / "dec.sys", "system dec\nstates x1 x2\ninputs u\ndx1 = x1 + u\ndx2 = 2*x2\n")
    report = str(tmp_path / "report.json")
    assert main(["check", src, "--method", "larc", "--depth", "3", "--out", report]) == 2
    assert "rank deficient" in capsys.readouterr().out


def test_check_larc_bad_point_exits_1(tmp_path, capsys):
    src = write(tmp_path / "chain5.sys", chain_text(5))
    assert main(["check", src, "--method", "larc", "--point", "1,2", "--out", str(tmp_path / "r.json")]) == 1
    assert main(["check", src, "--method", "larc", "--point", "a,b,c,d,e", "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("text", [HEADING_TEXT, LINEAR_TEXT], ids=["not-affine", "affine"])
@pytest.mark.parametrize("argv, words", [
    (["--point=nan,0"], ["--point", "finite"]),
    (["--point=0,0,5"], ["point needs 2 entries"]),
    (["--depth", "0"], ["max_depth"]),
])
def test_check_larc_bad_arguments_exit_1_before_any_verdict(tmp_path, capsys, text, argv, words):
    # on the not-affine heading these exited 2 with the not-affine verdict
    src = write(tmp_path / "sys.sys", text)
    out = tmp_path / "r.json"
    assert main(["check", src, "--method", "larc", *argv, "--out", str(out)]) == 1
    assert_input_error(tmp_path, capsys, "sys.sys.manifest.json", *words)
    assert not out.exists()


def test_check_larc_point_with_leading_minus(tmp_path):
    src = write(tmp_path / "chain5.sys", chain_text(5))
    spaced, glued = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["check", src, "--method", "larc", "--point", "-0.36,0.5,0,0,0", "--out", spaced]) == 0
    assert main(["check", src, "--method", "larc", "--point=-0.36,0.5,0,0,0", "--out", glued]) == 0
    data = json.loads((tmp_path / "a.json").read_text())
    assert data["point"] == [-0.36, 0.5, 0.0, 0.0, 0.0]
    assert data == json.loads((tmp_path / "b.json").read_text())


def test_simulate_writes_trajectory(tmp_path, capsys):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    ctrl = write(tmp_path / "ctrl.json", json.dumps([
        {"duration": 1.0, "values": [1.5707963267948966]},
    ]))
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", src, "--x0", "0,0", "--control", ctrl, "--out", out]) == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0
    assert abs(last[1] - 1.0) < 1e-9
    assert abs(last[2]) < 1e-9


def test_simulate_missing_control_exits_1(tmp_path, capsys):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    code = main(["simulate", src, "--x0", "0,0", "--control", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.csv")])
    assert code == 1


def test_simulate_wrong_x0_exits_1(tmp_path):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    ctrl = write(tmp_path / "ctrl.json", json.dumps([{"duration": 1.0, "values": [0.0]}]))
    assert main(["simulate", src, "--x0", "0", "--control", ctrl, "--out", str(tmp_path / "t.csv")]) == 1


def test_simulate_x0_with_leading_minus(tmp_path):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    ctrl = write(tmp_path / "ctrl.json", json.dumps([{"duration": 0.5, "values": [1.0]}]))
    spaced, glued = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", src, "--x0", "-0.36,0.5", "--control", ctrl, "--out", str(spaced)]) == 0
    assert main(["simulate", src, "--x0=-0.36,0.5", "--control", ctrl, "--out", str(glued)]) == 0
    assert spaced.read_text().splitlines()[1] == "0,-0.35999999999999999,0.5"
    assert spaced.read_text() == glued.read_text()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["argv"][2:4] == ["--x0", "-0.36,0.5"]


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_simulate_non_finite_step_exits_1(tmp_path, capsys, step):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    ctrl = write(tmp_path / "ctrl.json", json.dumps([{"duration": 1.0, "values": [0.0]}]))
    code = main(["simulate", src, "--x0", "0,0", "--control", ctrl, "--step", step, "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "step" in capsys.readouterr().err


def test_simulate_blowup_exits_3(tmp_path, capsys):
    src = write(tmp_path / "boom.sys", "system boom\nstates x\ninputs u\ndx = x^2 + u\n")
    ctrl = write(tmp_path / "ctrl.json", json.dumps([{"duration": 3.0, "values": [1.0]}]))
    code = main(["simulate", src, "--x0", "1", "--control", ctrl, "--out", str(tmp_path / "t.csv")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_reach_runs_are_reproducible(tmp_path, capsys):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config()))
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", out_a]) == 0
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", out_b]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    summary = json.loads((tmp_path / "a.csv.summary.json").read_text())
    assert summary["samples"] == 400
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert set(manifest["inputs"]) == {src, cfg}
    assert out_a in manifest["outputs"]


def test_reach_rejects_bad_config(tmp_path, capsys):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    bad_key = write(tmp_path / "bad1.json", json.dumps(reach_config(extra=1)))
    assert main(["reach", src, "--x0", "0,0", "--config", bad_key, "--out", str(tmp_path / "o.csv")]) == 1
    missing = reach_config()
    del missing["seed"]
    bad_missing = write(tmp_path / "bad2.json", json.dumps(missing))
    assert main(["reach", src, "--x0", "0,0", "--config", bad_missing, "--out", str(tmp_path / "o.csv")]) == 1
    not_json = write(tmp_path / "bad3.json", "{nope")
    assert main(["reach", src, "--x0", "0,0", "--config", not_json, "--out", str(tmp_path / "o.csv")]) == 1


def test_compare_consistent_exits_0(tmp_path, capsys):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps({
        "horizon": 3.0, "segments": 6, "input_box": [[-10.0, 10.0]], "samples": 3000,
        "window": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": 40, "seed": 2026, "step": 0.02,
    }))
    cfg_ext = write(tmp_path / "cfg_ext.json", json.dumps({
        "horizon": 3.0, "segments": 6, "input_box": [[-6.0, 6.0]], "samples": 3000,
        "window": [[-2.0, 2.0], [-2.0, 2.0], [-18.0, 18.0]], "resolution": [40, 40, 10],
        "seed": 901, "step": 0.02,
    }))
    out = str(tmp_path / "compare.json")
    assert main(["compare", src, "--x0", "0,0", "--config", cfg, "--config-ext", cfg_ext, "--out", out]) == 0
    data = json.loads((tmp_path / "compare.json").read_text())
    assert data["verdict"] == "consistent"
    assert data["difference"] < 0.05


def test_compare_inconsistent_exits_2(tmp_path, capsys):
    # short horizon with mismatched rate budget: the extension lags badly
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps({
        "horizon": 1.5, "segments": 5, "input_box": [[-8.0, 8.0]], "samples": 1500,
        "window": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": 20, "seed": 11, "step": 0.01,
    }))
    cfg_ext = write(tmp_path / "cfg_ext.json", json.dumps({
        "horizon": 1.5, "segments": 5, "input_box": [[-5.0, 5.0]], "samples": 1500,
        "window": [[-2.0, 2.0], [-2.0, 2.0], [-12.0, 12.0]], "resolution": [20, 20, 10],
        "seed": 12, "step": 0.01,
    }))
    out = str(tmp_path / "compare.json")
    assert main(["compare", src, "--x0", "0,0", "--config", cfg, "--config-ext", cfg_ext, "--out", out]) == 2
    assert json.loads((tmp_path / "compare.json").read_text())["verdict"] == "inconsistent"


def plan_json(**kw):
    plan = {
        "start": [0.0, 0.0, 0.0, 0.0],
        "segments": [
            {"kind": "jump", "channel": 0, "displacement": 1.0},
            {"kind": "drift", "duration": 0.5, "values": [1.0]},
            {"kind": "jump", "channel": 0, "displacement": -1.5},
            {"kind": "drift", "duration": 0.4, "values": [-0.5]},
        ],
    }
    plan.update(kw)
    return plan


def test_realize_table_converges(tmp_path, capsys):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json()))
    out = str(tmp_path / "table.csv")
    assert main(["realize", src, "--plan", plan, "--gain-sweep", "10:80:4", "--out", out]) == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "gain,error"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 4
    gains = [r[0] for r in rows]
    errs = [r[1] for r in rows]
    assert gains == sorted(gains)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.05


def test_realize_empty_plan(tmp_path, capsys):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json(segments=[])))
    out = str(tmp_path / "table.csv")
    assert main(["realize", src, "--plan", plan, "--out", out]) == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines == ["gain,error", "10,0"]


def test_realize_rejects_bad_inputs(tmp_path, capsys):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json()))
    out = str(tmp_path / "table.csv")
    assert main(["realize", src, "--plan", plan, "--gain-sweep", "-5:10:3", "--out", out]) == 1
    assert main(["realize", src, "--plan", plan, "--gain-sweep", "oops", "--out", out]) == 1
    short = write(tmp_path / "short.json", json.dumps(plan_json(start=[0.0, 0.0])))
    assert main(["realize", src, "--plan", short, "--out", out]) == 1
    bad_kind = write(tmp_path / "kind.json", json.dumps(plan_json(segments=[{"kind": "warp"}])))
    assert main(["realize", src, "--plan", bad_kind, "--out", out]) == 1


def test_realize_blow_up_names_the_lowest_gain_that_blew_up(tmp_path, capsys):
    """The ideal endpoint is finite; gains 0.1 and 0.93 blow up, gain 0.93
    at an earlier time.  The lower gain is the one reported, at its own
    time."""
    src = write(tmp_path / "boom.sys", "system boom\nstates x\ninputs u\ndx = x^2 + u\n")
    plan = write(tmp_path / "plan.json", json.dumps({"start": [0.5, 0.0], "segments": [
        {"kind": "jump", "channel": 0, "displacement": 1.0},
        {"kind": "drift", "duration": 0.1, "values": [1.0]},
        {"kind": "jump", "channel": 0, "displacement": -1.0},
    ]}))
    out = tmp_path / "table.csv"
    assert main(["realize", src, "--plan", plan, "--gain-sweep", "0.1:80:4", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: state blew up at t=1.887\n"
    assert json.loads((tmp_path / "boom.sys.manifest.json").read_text())["exit_code"] == 3
    assert not out.exists()


@pytest.mark.parametrize("case", ["a:b:c", "0:80:4", "80:10:4", "10:80:0", "config list", "plan list"])
def test_bad_sweep_config_or_plan_exits_1_and_writes_no_table(tmp_path, capsys, case):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json()))
    out = str(tmp_path / "table.csv")
    if case == "config list":
        listed = write(tmp_path / "list.json", json.dumps([reach_config()]))
        argv = ["reach", src, "--x0", "0,0,0", "--config", listed, "--out", out]
    elif case == "plan list":
        listed = write(tmp_path / "list.json", json.dumps([plan_json()]))
        argv = ["realize", src, "--plan", listed, "--out", out]
    else:
        argv = ["realize", src, "--plan", plan, "--gain-sweep", case, "--out", out]
    assert main(argv) == 1
    assert not (tmp_path / "table.csv").exists()
    assert_input_error(tmp_path, capsys, "cubic.sys.manifest.json")


def test_realize_one_step_sweep_writes_one_row_at_lo(tmp_path, capsys):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json()))
    out = str(tmp_path / "table.csv")
    assert main(["realize", src, "--plan", plan, "--gain-sweep", "10:80:1", "--out", out]) == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "gain,error"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["10"]


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_realize_non_finite_step_exits_1(tmp_path, capsys, step):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json()))
    assert main(["realize", src, "--plan", plan, "--step", step, "--out", str(tmp_path / "table.csv")]) == 1
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("step", [float("nan"), float("inf")])
def test_reach_non_finite_step_exits_1(tmp_path, capsys, step):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config(step=step)))
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    assert "step" in capsys.readouterr().err


def test_manifest_override_path(tmp_path):
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    override = str(tmp_path / "runs" / "m.json")
    (tmp_path / "runs").mkdir()
    assert main(["parse", src, "--manifest", override]) == 0
    data = json.loads((tmp_path / "runs" / "m.json").read_text())
    assert data["tool"] == "ctrlkit"
    assert data["argv"][0] == "parse"
    assert "elapsed_seconds" in data
    assert "timestamp_utc" in data


def test_check_larc_overflowing_constant_exits_1(tmp_path, capsys):
    src = write(tmp_path / "big.sys", "system big\nstates x1\ninputs u\ndx1 = exp(1000) * u\n")
    assert main(["check", src, "--method", "larc", "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "non-finite constant" in err
    assert "Traceback" not in err


def test_check_rhs_undefined_at_every_probe_exits_1(tmp_path, capsys):
    # bad input, not a verdict: the second u-derivative cannot be evaluated anywhere
    src = write(tmp_path / "hole.sys", "system hole\nstates x1\ninputs u\ndx1 = u/(x1-x1+0)\n")
    report = tmp_path / "r.json"
    assert main(["check", src, "--method", "larc", "--out", str(report)]) == 1
    assert "probe points" in capsys.readouterr().err
    assert not report.exists()


def test_realize_infinite_step_with_empty_plan_exits_1(tmp_path, capsys):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json(segments=[])))
    out = tmp_path / "table.csv"
    assert main(["realize", src, "--plan", plan, "--step", "inf", "--out", str(out)]) == 1
    assert "step" in capsys.readouterr().err
    assert not out.exists()


def heading_plan(*values):
    """Jump the heading extension's integrator by 1.0, then drift at `values`."""
    return {"start": [0.0, 0.0, 0.0], "segments": [
        {"kind": "jump", "channel": 0, "displacement": 1.0},
        {"kind": "drift", "duration": 0.5, "values": list(values)},
    ]}


def test_realize_drift_off_the_integrator_level_exits_1(tmp_path, capsys):
    # the drift runs at the level 1.0 the jump leaves; declaring 0.3 used
    # to exit 0 with a table that never converged
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    out = tmp_path / "table.csv"
    plan = write(tmp_path / "plan.json", json.dumps(heading_plan(0.3)))
    assert main(["realize", src, "--plan", plan, "--out", str(out)]) == 1
    assert_input_error(tmp_path, capsys, "heading.sys.manifest.json", "plan segment 1", "integrator level")
    assert not out.exists()
    plan = write(tmp_path / "plan.json", json.dumps(heading_plan(1.0)))
    assert main(["realize", src, "--plan", plan, "--out", str(out)]) == 0
    errs = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert errs == sorted(errs, reverse=True) and errs[-1] < errs[0] / 4


@pytest.mark.parametrize("command, argv, words", [
    ("simulate", ["--x0=inf,0", "--control", "{ctrl}"], ["--x0"]),
    ("reach", ["--x0=nan,0", "--config", "{cfg}"], ["--x0"]),
    ("check", ["--method", "larc", "--point=nan,0"], ["--point"]),
    ("realize", ["--plan", "{plan}"], ["plan start"]),
])
def test_non_finite_number_exits_1(tmp_path, capsys, command, argv, words):
    # these exited 3 (blow-up at the first step), 0 (coverage 0, or full
    # rank with a bare NaN in the report JSON) and 3 (a NaN plan start)
    src = write(tmp_path / "lin.sys", LINEAR_TEXT)
    files = {
        "ctrl": write(tmp_path / "ctrl.json", json.dumps([{"duration": 1.0, "values": [0.0]}])),
        "cfg": write(tmp_path / "cfg.json", json.dumps(reach_config(samples=10))),
        "plan": write(tmp_path / "plan.json", json.dumps(dict(heading_plan(1.0), start=[0.0, float("inf"), 0.0]))),
    }
    out = tmp_path / "out.csv"
    argv = [command, src, *(a.format(**files) for a in argv), "--out", str(out)]
    assert main(argv) == 1
    assert_input_error(tmp_path, capsys, "lin.sys.manifest.json", *words, "finite")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("start", 5), ("start", ["a", 0, 0, 0]), ("segments", 5)])
def test_realize_malformed_plan_exits_1(tmp_path, capsys, field, value):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    plan = write(tmp_path / "plan.json", json.dumps(plan_json(**{field: value})))
    assert main(["realize", src, "--plan", plan, "--out", str(tmp_path / "table.csv")]) == 1
    assert f"plan {field}" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "cubic.sys.manifest.json").read_text())
    assert manifest["exit_code"] == 1


def test_reach_unrepresentable_substep_count_exits_1(tmp_path, capsys):
    # horizon / 1e-300 substeps do not fit an int64; the count used to wrap
    # and the run exited 0 with a coverage from one substep per segment
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config(step=1e-300)))
    out = tmp_path / "c.csv"
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "substeps" in err
    assert "Traceback" not in err
    assert not out.exists()
    manifest = json.loads((tmp_path / "heading.sys.manifest.json").read_text())
    assert manifest["exit_code"] == 1


DOMAIN_TEXT = "system dom\nstates x1\ninputs u\ndx1 = sin(exp(x1^400)) * u\n"


def test_check_larc_domain_error_names_the_point(tmp_path, capsys):
    # exp overflows to inf at |x1| > 1, and sin(inf) has no value: at the
    # evaluation point that is an input error that says where, not
    # "math domain error"
    src = write(tmp_path / "dom.sys", DOMAIN_TEXT)
    assert main(["check", src, "--method", "larc", "--point", "2", "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "sin(inf) is undefined at x=[2.0]" in err
    assert "Traceback" not in err


def test_check_larc_skips_span_probes_it_cannot_evaluate(tmp_path):
    # the span probes with |x1| > 1 have no value; the other ones decide,
    # and the rank is taken at 0.5, where the rhs is defined
    src = write(tmp_path / "dom.sys", DOMAIN_TEXT)
    report = tmp_path / "r.json"
    assert main(["check", src, "--method", "larc", "--point", "0.5", "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["rank"] == 1
    assert data["full_rank"] is True


@pytest.mark.parametrize("resolution", [[4097, 4096], [4294967296, 4294967296]])
def test_reach_oversized_grid_exits_1(tmp_path, capsys, resolution):
    # 2^32 x 2^32 cells wrapped to an empty int64 grid and ended in an
    # IndexError traceback with no manifest
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config(resolution=resolution, samples=10)))
    out = tmp_path / "c.csv"
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "cells" in err
    assert "Traceback" not in err
    assert not out.exists()
    manifest = json.loads((tmp_path / "heading.sys.manifest.json").read_text())
    assert manifest["exit_code"] == 1


def test_memory_error_exits_1_with_a_manifest(tmp_path, capsys, monkeypatch):
    import ctrlkit.cli

    def exhausted(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(ctrlkit.cli, "sample_reach", exhausted)
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config()))
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    assert "Unable to allocate" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "heading.sys.manifest.json").read_text())
    assert manifest["exit_code"] == 1


def assert_input_error(tmp_path, capsys, manifest_name, *words):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for word in words:
        assert word in err
    manifest = json.loads((tmp_path / manifest_name).read_text())
    assert manifest["exit_code"] == 1


@pytest.mark.parametrize("overrides, words", [
    ({"samples": float("inf")}, ["infinity"]),
    ({"resolution": [float("inf"), 4]}, ["infinity"]),
    ({"samples": 2.5}, ["integer", "2.5"]),
    ({"samples": 2.5}, ["config: samples: expected an integer, got 2.5"]),
    ({"samples": float("inf")}, ["config: samples: cannot convert float infinity to integer"]),
    ({"resolution": [float("inf"), 4]}, ["config: resolution: cannot convert float infinity to integer"]),
    ({"resolution": [2.5, 4]}, ["config: resolution: expected an integer, got 2.5"]),
    ({"bogus": 1}, ["'bogus'"]),
    ({"seed": None}, ["'seed'"]),
])
def test_reach_integer_field_that_is_not_an_integer_exits_1(tmp_path, capsys, overrides, words):
    # int(inf) raises OverflowError, which used to escape as a traceback
    # with no manifest; int(2.5) used to run 2 samples.  A key overridden
    # with None is left out of the config.
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    config = {k: v for k, v in reach_config(**overrides).items() if v is not None}
    cfg = write(tmp_path / "cfg.json", json.dumps(config))
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    assert_input_error(tmp_path, capsys, "heading.sys.manifest.json", "config", *words)


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys):
    from ctrlkit.cli import build_parser

    src = write(tmp_path / "lin.sys", LINEAR_TEXT)
    calls = [
        ["parse", src],
        ["check", src, "--method", "bogus"],
        ["check", src, "--method", "kalman"],
        ["reach", src, "--x0", "0,0"],
        ["parse", src],
    ]

    def run(fresh):
        out = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    reused = run(fresh=False)
    assert build_parser() is build_parser()
    assert [r[0] for r in reused] == [0, 1, 0, 1, 0]
    assert run(fresh=True) == reused


def test_realize_infinite_jump_channel_exits_1(tmp_path, capsys):
    src = write(tmp_path / "cubic.sys", CUBIC_TEXT)
    jump = {"kind": "jump", "channel": float("inf"), "displacement": 1.0}
    plan = write(tmp_path / "plan.json", json.dumps(plan_json(segments=[jump])))
    assert main(["realize", src, "--plan", plan, "--out", str(tmp_path / "table.csv")]) == 1
    assert_input_error(tmp_path, capsys, "cubic.sys.manifest.json", "plan segment 0")


@pytest.mark.parametrize("command", ["reach", "simulate", "realize"])
def test_constant_that_overflows_when_evaluated_exits_1(tmp_path, capsys, command):
    # 2^2000 has no variable, so it is folded when the system is read,
    # and its value is not finite
    src = write(tmp_path / "big.sys", "system big\nstates x1\ninputs u\ndx1 = 2^2000 * x1 + u\n")
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config(window=[[-2.0, 2.0]], samples=10)))
    ctrl = write(tmp_path / "ctrl.json", json.dumps([{"duration": 1.0, "values": [1.0]}]))
    plan = write(tmp_path / "plan.json", json.dumps(plan_json(start=[0.0, 0.0])))
    argv = {
        "reach": ["--x0", "1", "--config", cfg],
        "simulate": ["--x0", "1", "--control", ctrl],
        "realize": ["--plan", plan],
    }[command]
    assert main([command, src, *argv, "--out", str(tmp_path / "out.csv")]) == 1
    assert_input_error(tmp_path, capsys, "big.sys.manifest.json")


NO_FINITE_VALUE = {
    "0^-1": "zero raised to a negative power",
    "1/(1-1)": "division by zero",
    "x1/(2-2)": "division by syntactic zero",
    "exp(1000)": "non-finite constant inf",
    "sin(10^300*10^300)": "non-finite constant inf",
}


@pytest.mark.parametrize("command", ["reach", "simulate", "realize", "compare", "larc"])
@pytest.mark.parametrize("body", NO_FINITE_VALUE)
def test_constant_with_no_finite_value_exits_1_on_every_subcommand(tmp_path, capsys, body, command):
    """A constant subexpression with no finite value is folded when the
    system is read, so every subcommand stops there with the same line."""
    src = write(tmp_path / "zero.sys", f"system zero\nstates x1\ninputs u\ndx1 = {body} * x1 + u\n")
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config(window=[[-2.0, 2.0]], samples=10)))
    ext = write(tmp_path / "ext.json", json.dumps(reach_config(samples=10)))
    ctrl = write(tmp_path / "ctrl.json", json.dumps([{"duration": 1.0, "values": [1.0]}]))
    plan = write(tmp_path / "plan.json", json.dumps(plan_json(start=[0.0, 0.0])))
    argv = {
        "reach": ["reach", src, "--x0", "1", "--config", cfg],
        "simulate": ["simulate", src, "--x0", "1", "--control", ctrl],
        "realize": ["realize", src, "--plan", plan],
        "compare": ["compare", src, "--x0", "1", "--config", cfg, "--config-ext", ext],
        "larc": ["check", src, "--method", "larc", "--point", "1"],
    }[command]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {NO_FINITE_VALUE[body]}\n"
    assert json.loads((tmp_path / "zero.sys.manifest.json").read_text())["exit_code"] == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["reach", "compare"])
@pytest.mark.parametrize("key", ["window", "input_box"])
def test_box_axis_whose_width_overflows_exits_1(tmp_path, capsys, command, key):
    """An axis of (-1e308, 1e308) has finite ends and an infinite width:
    as a window axis it put every point in that axis' cell 0 and wrote a
    centre of inf, and as an input axis it drew inf and NaN controls."""
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = reach_config(samples=10)
    ext = reach_config(samples=10, window=[[-2.0, 2.0]] * 3, resolution=[16, 16, 4])
    wide = cfg if command == "reach" else ext
    wide[key] = [[-1e308, 1e308]] + wide[key][1:]
    argv = [command, src, "--x0", "0,0", "--config", write(tmp_path / "cfg.json", json.dumps(cfg))]
    if command == "compare":
        argv += ["--config-ext", write(tmp_path / "ext.json", json.dumps(ext))]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert_input_error(tmp_path, capsys, "heading.sys.manifest.json", "config", "finite width")
    assert not out.exists()


def test_reach_past_the_work_budget_exits_1_at_once(tmp_path, capsys):
    # 10 samples of 10^9 substeps each ran for more than 10 s
    src = write(tmp_path / "heading.sys", HEADING_TEXT)
    cfg = write(tmp_path / "cfg.json", json.dumps(reach_config(samples=10, step=1e-9)))
    out = tmp_path / "c.csv"
    start = time.monotonic()
    assert main(["reach", src, "--x0", "0,0", "--config", cfg, "--out", str(out)]) == 1
    assert time.monotonic() - start < 1.0
    assert_input_error(tmp_path, capsys, "heading.sys.manifest.json", "row-substeps")
    assert not out.exists()
