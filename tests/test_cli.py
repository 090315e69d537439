import json
import os

import numpy as np
import pytest

from metasep import cli
from metasep.cli import main
from metasep.linalg import NotPsdError


def _run(args):
    return main(args)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_dynamics_outputs(tmp_path):
    out = str(tmp_path / "dyn")
    assert _run(["dynamics", "--t-tasks", "50", "--out", out]) == 0
    lines = _read(out + ".csv").splitlines()
    assert lines[0] == "i,s,a,b"
    assert len(lines) == 52  # header + initial state + 50 steps
    summary = json.loads(_read(out + ".json"))
    assert summary["a_monotone"] is True
    assert summary["seed"] == 42
    assert len(summary["geometry"]) == 50
    manifest = json.loads(_read(out + ".manifest.json"))
    assert set(manifest["outputs"]) == {"dyn.csv", "dyn.json"}
    assert manifest["config"]["t_tasks"] == 50
    assert "workers" not in manifest["config"]


def test_dynamics_t_zero(tmp_path):
    out = str(tmp_path / "dyn0")
    assert _run(["dynamics", "--t-tasks", "0", "--out", out]) == 0
    lines = _read(out + ".csv").splitlines()
    assert len(lines) == 2  # header + initial state row
    assert lines[1].startswith("0,0,0.1,")


def test_dynamics_deterministic(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    _run(["dynamics", "--t-tasks", "30", "--out", out_a])
    _run(["dynamics", "--t-tasks", "30", "--out", out_b])
    assert _read(out_a + ".csv") == _read(out_b + ".csv")
    assert _read(out_a + ".json") == _read(out_b + ".json")


def test_growth_small(tmp_path):
    out = str(tmp_path / "growth")
    assert _run(["growth", "--t-list", "100,200", "--seeds", "3",
                 "--out", out]) == 0
    lines = _read(out + ".csv").splitlines()
    assert lines[0] == "t_tasks,tau,seed_index,a_final,bound,satisfied"
    assert len(lines) == 1 + 2 * 3
    summary = json.loads(_read(out + ".json"))
    assert set(summary["satisfaction_fraction"]) == {"100", "200"}
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    assert set(stages) == {"100", "200"}
    for t_tasks, stage in stages.items():
        assert stage["runs"] == 3 and stage["meta_steps"] == 3 * int(t_tasks)
        assert stage["wall_s"] >= 0.0


# sha256 of the data files at fixed seeds: the seed contract in bytes. A
# change to the seed streams or to the arithmetic order of the Reptile
# meta-step changes them
_GOLDEN = {
    "growth": (["--t-list", "1000,10000", "--seeds", "3", "--seed", "0"],
               "48dd0f48e2aafc77ccea542418b6781436487dc958154c5ee7a1213a0127f00a",
               "f9fdfed54cc1cbf2f76a4a5801b260373c973a799eef764ee4789a09cd7ffa27"),
    "dynamics": (["--t-tasks", "200", "--seed", "0"],
                 "378741d4820fe134e32b5db9703cbd3d3f5df28576ed90ecffc98288cefb1f69",
                 "73b8bdb3105db4d046073bd9c9e9faed98ed7131c464867eebeb88c40eef41dd"),
}


@pytest.mark.parametrize("command", sorted(_GOLDEN))
def test_golden_bytes(tmp_path, command):
    args, csv_sha, json_sha = _GOLDEN[command]
    out = str(tmp_path / command)
    assert _run([command, *args, "--out", out]) == 0
    assert cli._sha256(out + ".csv") == csv_sha
    assert cli._sha256(out + ".json") == json_sha


def test_risk_json_record(tmp_path):
    out = str(tmp_path / "risk")
    assert _run(["risk", "--d", "5", "--n", "8", "--lam", "1.0",
                 "--trials", "50", "--out", out]) == 0
    rec = json.loads(_read(out + ".json"))
    assert rec["alg"] == "gd_reg(lam=1)"
    assert rec["d"] == 5 and rec["n"] == 8 and rec["trials"] == 50
    assert rec["mean"] > 0.0 and rec["stderr"] > 0.0


def test_risk_worker_independence(tmp_path):
    out1 = str(tmp_path / "w1")
    out4 = str(tmp_path / "w4")
    _run(["risk", "--d", "5", "--n", "8", "--trials", "40",
          "--workers", "1", "--out", out1])
    _run(["risk", "--d", "5", "--n", "8", "--trials", "40",
          "--workers", "4", "--out", out4])
    assert _read(out1 + ".json") == _read(out4 + ".json")


def test_nsearch(tmp_path):
    out = str(tmp_path / "ns")
    assert _run(["nsearch", "--d", "4", "--lam", "1.0", "--epsilon", "2.5",
                 "--n-grid", "2,4", "--trials", "40", "--out", out]) == 0
    result = json.loads(_read(out + ".json"))
    assert result["n_eps"] == 2
    assert result["points"][0]["n"] == 2


def test_config_file_and_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_tasks": 25, "tau": 0.2}))
    out = str(tmp_path / "fromcfg")
    assert _run(["dynamics", "--config", str(cfg_path), "--tau", "0.4",
                 "--out", out]) == 0
    summary = json.loads(_read(out + ".json"))
    assert summary["config"]["t_tasks"] == 25
    assert summary["config"]["tau"] == 0.4  # flag overrides file


def test_unknown_config_key_is_config_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"nope": 1}))
    assert _run(["dynamics", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x")]) == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert _run(["dynamics", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x")]) == 2


def test_bad_w0_spec_is_config_error(tmp_path):
    assert _run(["risk", "--w0", "sideways", "--trials", "10",
                 "--out", str(tmp_path / "x")]) == 2


def test_verify_passes_and_perturb_fails(tmp_path):
    out = str(tmp_path / "verify")
    assert _run(["verify", "--out", out]) == 0
    report = json.loads(_read(out + ".json"))
    assert report["passed"] is True
    assert all(s["passed"] for s in report["suites"])
    flags = {s["suite"]: s["oracle_converged"] for s in report["suites"]}
    assert flags["twolayer-fixed-point"] is True
    assert flags["replearn-fixed-point"] is True
    # per-suite timings go to the manifest only
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    assert set(stages) == {s["suite"] for s in report["suites"]}
    assert all(stage["wall_s"] >= 0.0 for stage in stages.values())
    assert "wall_s" not in _read(out + ".json")
    out_p = str(tmp_path / "verify_p")
    assert _run(["verify", "--out", out_p, "--self-test-perturb"]) == 1
    report_p = json.loads(_read(out_p + ".json"))
    assert not report_p["passed"]


def test_verify_fails_on_nonconverged_oracle(tmp_path, monkeypatch):
    # a zero residual does not count when the oracle behind it stopped early
    monkeypatch.setattr(cli, "_SUITES", [("stalled", lambda seed, bump: (0.0, False), 1e-8)])
    out = str(tmp_path / "stalled")
    assert _run(["verify", "--out", out]) == 1
    (suite,) = json.loads(_read(out + ".json"))["suites"]
    assert suite["oracle_converged"] is False
    assert suite["passed"] is False


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise NotPsdError("ridge matrix not positive definite")

    monkeypatch.setitem(cli._RUNNERS, "risk", fail)
    assert _run(["risk", "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.startswith("error: numerical failure:")


def test_csv_uses_lf_line_endings(tmp_path):
    out = str(tmp_path / "lf")
    _run(["dynamics", "--t-tasks", "5", "--out", out])
    raw = open(out + ".csv", "rb").read()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_w0_variants_run(tmp_path):
    for spec in ("zero", "wstar", "random:5"):
        out = str(tmp_path / ("w0_" + spec.replace(":", "_")))
        assert _run(["risk", "--d", "4", "--n", "8", "--lam", "0.5",
                     "--w0", spec, "--trials", "20", "--out", out]) == 0


def test_gd_step_family_cli(tmp_path):
    out = str(tmp_path / "step")
    assert _run(["risk", "--family", "gd_step", "--eta", "0.05", "--t0", "20",
                 "--d", "4", "--n", "10", "--trials", "30", "--out", out]) == 0
    rec = json.loads(_read(out + ".json"))
    assert rec["alg"] == "gd_step(eta=0.05,t0=20)"
