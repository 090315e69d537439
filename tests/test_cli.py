import ast
import json
import os
import pathlib
import warnings

import numpy as np
import pytest

from metasep import cli, oracles
from metasep.cli import main
from metasep.convex import linear_flow_solve
from metasep.linalg import NotPsdError, NumericalError
from metasep.rng import SeedSpec


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
# meta-step or of the risk estimator changes them. nsearch runs the
# single-algorithm search on the streams the search has always used;
# separation scores every lambda on the spectra of master.child(0, idx),
# and gd2_reg (nsearch-gd2_reg, the nonconvex half) on designs
_GOLDEN = {
    "growth": (["growth", "--t-list", "1000,10000", "--seeds", "3", "--seed", "0"],
               {".csv": "48dd0f48e2aafc77ccea542418b6781436487dc958154c5ee7a1213a0127f00a",
                ".json": "f9fdfed54cc1cbf2f76a4a5801b260373c973a799eef764ee4789a09cd7ffa27"}),
    "dynamics": (["dynamics", "--t-tasks", "200", "--seed", "0"],
                 {".csv": "378741d4820fe134e32b5db9703cbd3d3f5df28576ed90ecffc98288cefb1f69",
                  ".json": "8e488d9321bbfc58b993d2d61e2239d942e89302c8701e2457fb13b68d02aad7"}),
    "nsearch": (["nsearch", "--d", "6", "--lam", "0.5", "--epsilon", "0.6",
                 "--n-grid", "4,8,16,32", "--trials", "40", "--seed", "0"],
                {".json": "88fe2c38a38c32d69ab98d1355a9aff02aa0e731b9128ad636c73437fc4786ef"}),
    "nsearch-gd2_reg": (["nsearch", "--family", "gd2_reg", "--alpha", "10", "--d", "8",
                         "--epsilon", "0.3", "--n-grid", "4,8,16,32", "--trials", "40",
                         "--seed", "0"],
                        {".json": "242e99d6a6702956f1d262751a037dce24b3629421e52a43f53e57042517ccdb"}),
    "risk": (["risk", "--d", "6", "--n", "8", "--lam", "0.5", "--trials", "60", "--seed", "0"],
             {".json": "b56c0ed94ec0b588b9afd55e9ef511f26a748d449e84b59cdbecf10860396d28"}),
    "separation": (["separation", "--d", "6", "--epsilon", "0.5", "--trials", "40",
                    "--convex-grid", "4,8", "--nonconvex-grid", "4,8", "--alpha-target", "50",
                    "--lam-sweep", "0.5", "--seed", "0"],
                   {".json": "253e72bc0d5af29d801776801b6e690902b2471afa38393f108be4a0b007560b"}),
    "verify": (["verify", "--seed", "0"],
               {".json": "51a90008e12c265dd89067cc4943a62fa9945ff46a66899c941c952e4ef04e66"}),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_bytes(tmp_path, name):
    args, digests = _GOLDEN[name]
    out = str(tmp_path / name)
    assert _run([*args, "--out", out]) == 0
    for ext, digest in digests.items():
        assert cli._sha256(out + ext) == digest, ext


def test_divergent_risk_writes_strict_json(tmp_path, capsys):
    out = str(tmp_path / "risk")
    with pytest.warns(RuntimeWarning):
        assert _run(["risk", "--family", "gd_step", "--eta", "5", "--t0", "2000",
                     "--d", "6", "--n", "12", "--trials", "10", "--out", out]) == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    rec = json.loads(_read(out + ".json"), parse_constant=reject)
    assert rec["mean"] is None and rec["stderr"] is None
    assert rec["trials"] == 10
    assert json.loads(_read(out + ".manifest.json"))["nonfinite"] == 10
    err = [line for line in capsys.readouterr().err.splitlines() if "non-finite" in line]
    assert err == ["risk: 10 of 10 trials gave a non-finite excess risk "
                   "(a divergent learner); mean/stderr written as null"]


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(NumericalError, match="cannot write .*nan.json"):
        cli._render(str(tmp_path / "nan.json"), {"x": float("nan")})


def test_separation_progress_and_stages(tmp_path, capsys):
    out = str(tmp_path / "sep")
    assert _run(["separation", "--d", "6", "--epsilon", "0.5", "--trials", "40",
                 "--convex-grid", "4,8", "--nonconvex-grid", "4,8", "--alpha-target", "50",
                 "--lam-sweep", "0,0.5", "--out", out]) == 0
    table = json.loads(_read(out + ".json"))
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    progress = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("separation: ")]
    # one stage and one progress line per grid point scored, in order
    expected = [f"convex/{n}" for n in (4, 8)]
    expected += [f"nonconvex/{p['n']}" for p in table["nonconvex"]["points"]]
    assert list(stages) == expected
    assert len(progress) == len(expected)
    for key, line in zip(expected, progress):
        half, n = key.split("/")
        assert line.startswith(f"separation: {half} n={n} open=")
        assert stages[key]["trials"] == 40 and stages[key]["wall_s"] >= 0.0
        assert stages[key]["nonfinite"] == 0
        assert line.split("open=")[1].split(" ")[0] == ",".join(stages[key]["algorithms"])
    assert stages["convex/4"]["algorithms"] == ["gd_reg(lam=0)", "gd_reg(lam=0.5)"]
    assert [s["lam"] for s in table["convex"]["sweep"]] == [0.0, 0.5]
    assert "wall_s" not in _read(out + ".json")


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


def test_nsearch(tmp_path, capsys):
    out = str(tmp_path / "ns")
    assert _run(["nsearch", "--d", "4", "--lam", "1.0", "--epsilon", "2.5",
                 "--n-grid", "2,4", "--trials", "40", "--out", out]) == 0
    result = json.loads(_read(out + ".json"))
    assert result["n_eps"] == 2
    assert [p["n"] for p in result["points"]] == [2]
    # one stage and one progress line per grid point scored: the search
    # stops at n = 2, so n = 4 has neither
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    assert list(stages) == ["2"]
    assert stages["2"]["algorithms"] == ["gd_reg(lam=1)"]
    assert stages["2"]["trials"] == 40 and stages["2"]["wall_s"] >= 0.0
    assert stages["2"]["nonfinite"] == 0
    progress = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("nsearch: ")]
    assert len(progress) == 1
    assert progress[0].startswith("nsearch: n=2 open=gd_reg(lam=1) ")


def test_divergent_nsearch_counts_nonfinite_per_stage(tmp_path):
    # the divergent gd_step of test_divergent_risk_writes_strict_json never
    # reaches epsilon, so every grid point is scored and counted
    out = str(tmp_path / "ns")
    with pytest.warns(RuntimeWarning):
        assert _run(["nsearch", "--family", "gd_step", "--eta", "5", "--t0", "2000",
                     "--d", "6", "--n-grid", "12,24", "--trials", "10", "--out", out]) == 0
    assert json.loads(_read(out + ".json"))["n_eps"] is None
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    assert {n: stage["nonfinite"] for n, stage in stages.items()} == {"12": 10, "24": 10}


def test_growth_without_seeds_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "g")
    assert _run(["growth", "--t-list", "100", "--seeds", "0", "--out", out]) == 2
    assert capsys.readouterr().err == "error: seeds must be >= 1, got 0\n"
    assert not os.path.exists(out + ".csv")


def test_zero_dimension_is_config_error(tmp_path, capsys):
    assert _run(["risk", "--d", "0", "--trials", "10", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: need d >= 1, got 0\n"


@pytest.mark.parametrize("args", [["risk", "--n", "0", "--trials", "10"],
                                  ["nsearch", "--n-grid", "0,4", "--trials", "10"]])
def test_zero_samples_is_config_error(tmp_path, capsys, args):
    out = str(tmp_path / "n0")
    assert _run([*args, "--d", "4", "--out", out]) == 2
    assert capsys.readouterr().err == "error: need n >= 1, got 0\n"
    assert not os.path.exists(out + ".json")


def test_negative_workers_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "w")
    assert _run(["risk", "--d", "4", "--trials", "10", "--workers", "-3", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: workers must be >= 0")
    assert not os.path.exists(out + ".json")
    args = cli.build_parser().parse_args(["risk", "--workers", "0"])
    assert cli._resolve_config(args)["workers"] == (os.cpu_count() or 1)


def test_config_file_and_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_tasks": 25, "tau": 0.2}))
    out = str(tmp_path / "fromcfg")
    assert _run(["dynamics", "--config", str(cfg_path), "--tau", "0.4",
                 "--out", out]) == 0
    summary = json.loads(_read(out + ".json"))
    assert summary["config"]["t_tasks"] == 25
    assert summary["config"]["tau"] == 0.4  # flag overrides file


@pytest.mark.parametrize("command,entry,message", [
    ("growth", {"seeds": 2.5}, "seeds must be int, got 2.5"),
    ("risk", {"trials": "40"}, "trials must be int, got '40'"),
    ("separation", {"lam_sweep": 0.5}, "lam_sweep must be a list, got 0.5"),
])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, command, entry, message):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(entry))
    out = str(tmp_path / "x")
    assert _run([command, "--config", str(cfg_path), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out + ".manifest.json")


@pytest.mark.parametrize("args,key,value", [
    (["risk", "--sigma", "nan"], "sigma", "nan"),
    (["risk", "--lam", "nan"], "lam", "nan"),
    (["risk", "--eta", "nan"], "eta", "nan"),
    (["nsearch", "--sigma", "inf"], "sigma", "inf"),
    (["risk", "--family", "gd2_reg", "--kappa", "nan"], "kappa", "nan"),
    (["risk", "--family", "gd2_reg", "--alpha", "inf"], "alpha", "inf"),
    (["separation", "--lam-sweep", "0,nan"], "lam_sweep", "nan"),
], ids=["risk-sigma", "risk-lam", "risk-eta", "nsearch-sigma", "risk-gd2_reg-kappa",
        "risk-gd2_reg-alpha", "separation-lam_sweep"])
def test_nonfinite_value_is_config_error(tmp_path, capsys, args, key, value):
    # a NaN or inf config value is a config error naming its key, not a
    # divergent learner, a numerical failure or a non-finite matrix
    out = str(tmp_path / "x")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run([*args, "--d", "4", "--trials", "10", "--out", out]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == f"error: {key} must be finite, got '{value}'\n"
    assert not os.path.exists(out + ".json")


def test_config_values_take_the_default_type(tmp_path):
    # a file int stands for a float and a file list for a list; flags parse
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lam": 1, "n_grid": [2, 4]}))
    args = cli.build_parser().parse_args(["nsearch", "--config", str(cfg_path),
                                          "--epsilon", "2.5", "--trials", "40"])
    cfg = cli._resolve_config(args)
    assert type(cfg["lam"]) is float and cfg["n_grid"] == [2, 4]
    assert type(cfg["epsilon"]) is float and type(cfg["trials"]) is int


class _ReadLog(dict):
    """A config that records every key read from it."""

    def __init__(self, cfg, log):
        super().__init__(cfg)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)


def test_every_option_is_read_by_its_runner(tmp_path, monkeypatch):
    # an option that its runner never reads is a flag that does nothing.
    # The runs cover every --family of risk and nsearch; verify's suites
    # read no option, so one trivial suite stands in for them
    monkeypatch.setattr(oracles, "SUITES", [("trivial", lambda seed: ([(0.0, 0.0, 1.0)], None),
                                              1e-8)])
    small = ["--d", "4", "--trials", "10"]
    runs = [["dynamics", "--t-tasks", "5"], ["growth", "--t-list", "10", "--seeds", "2"],
            _GOLDEN["separation"][0], ["verify"]]
    for family in ("gd_reg", "gd_step", "gd2_reg"):
        runs += [["risk", "--family", family, "--n", "6", *small],
                 ["nsearch", "--family", family, "--n-grid", "4", "--epsilon", "10", *small]]
    reads = {name: set() for name in cli._OPTIONS}
    runners = dict(cli._RUNNERS)
    for args in runs:
        name = args[0]
        monkeypatch.setitem(cli._RUNNERS, name,
                            lambda cfg, name=name: runners[name](_ReadLog(cfg, reads[name])))
        assert _run([*args, "--out", str(tmp_path / name)]) == 0
    for name, options in cli._OPTIONS.items():
        # main, not the runner, writes the files that out names
        assert sorted(set(options) - {"out"} - reads[name]) == [], name


def test_unknown_config_key_is_config_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"nope": 1}))
    assert _run(["dynamics", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x")]) == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert _run(["dynamics", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("body", ["5", "[]"])
def test_config_file_must_hold_an_object(tmp_path, capsys, body):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(body)
    assert _run(["dynamics", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.endswith("must hold a JSON object\n")


def test_bad_w0_spec_is_config_error(tmp_path):
    assert _run(["risk", "--w0", "sideways", "--trials", "10",
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("args,key", [
    (["risk", "--family", "gd2_reg", "--alpha", "-2"], "alpha"),
    (["risk", "--family", "gd2_reg", "--alpha", "1e300"], "alpha"),
    (["risk", "--family", "gd2_reg", "--lam", "-1"], "lam"),
    (["separation", "--alpha-target", "1e100", "--convex-grid", "2",
      "--nonconvex-grid", "2"], "alpha_target"),
    (["risk", "--w0", "random:nan"], "w0"),
    (["risk", "--w0", "random:inf"], "w0"),
    (["risk", "--w0", "random:abc"], "w0"),
], ids=["gd2_reg-negative-alpha", "gd2_reg-alpha-overflow", "gd2_reg-negative-lam",
        "separation-alpha_target-overflow", "w0-nan", "w0-inf", "w0-text"])
def test_out_of_range_value_is_config_error(tmp_path, capsys, args, key):
    # a value that leaves its formula's domain (alpha^1.5, the RepLearn task
    # count, the w0 scale) is a config error naming its key, not a
    # traceback or a divergent learner
    out = str(tmp_path / "x")
    assert _run([*args, "--d", "3", "--trials", "4", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args,message", [
    (["growth", "--t-list", "10,20", "--seeds", "2", "--kappa", "1e200"],
     "a_final is nan at T=10, seed index 0"),
    (["dynamics", "--kappa", "1e200"], "meta-step 1 is not finite: a = inf, b = nan"),
], ids=["growth", "dynamics"])
def test_overflowing_meta_step_is_numerical_failure(tmp_path, capsys, args, message):
    # at kappa = 1e200 the Reptile meta-step's a^2 overflows; the run stops
    # at the first non-finite a, before it prints a result or writes a file
    assert _run([*args, "--out", str(tmp_path / "x")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: numerical failure: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["growth", "--t-list", "10", "--seeds", "2", "--r", "1e154"],
    ["dynamics", "--r", "1e154"],
    ["dynamics", "--r", "1e155"],
], ids=["growth", "dynamics", "dynamics-r-1e155"])
def test_overflowing_r_is_config_error(tmp_path, capsys, args):
    # the meta-step's 4 r^2 overflows above about 1.3e154: such an r can never
    # run, so it is a config error that names r, not a NaN found later
    assert _run([*args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: r is too large for the meta-step: ")
    assert os.listdir(tmp_path) == []


def test_overflowing_matrix_is_numerical_failure(tmp_path, capsys):
    # alpha = 1e200 is a finite config value, but the ridge matrix A S A^T
    # built from it overflows: a numerical failure, not a config error, and
    # the one stderr line is the error, not a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(["risk", "--family", "gd2_reg", "--alpha", "1e200", "--lam", "1",
                     "--d", "3", "--trials", "4", "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == ("error: numerical failure: "
                                       "matrix has non-finite entries\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("seed", [133, 305])
def test_risk_estimator_suite_on_square_designs(seed):
    # at these seeds the square n = d = 6 design of the risk-estimator suite
    # is so ill-conditioned that gd_reg's variance at lam = 0 reaches 1e6-6e8;
    # the suite must still meet its tolerance on the stream verify gives it
    names = [name for name, _, _ in oracles.SUITES]
    i = names.index("risk-estimator")
    _, suite, tol = oracles.SUITES[i]
    pairs, _ = suite(SeedSpec(seed).child(i))
    assert oracles._residual(pairs) <= tol


def test_verify_passes_and_perturb_fails(tmp_path):
    out = str(tmp_path / "verify")
    assert _run(["verify", "--out", out]) == 0
    report = json.loads(_read(out + ".json"))
    assert report["passed"] is True
    assert all(s["passed"] for s in report["suites"])
    flags = {s["suite"]: s["oracle_converged"] for s in report["suites"]}
    assert "risk-estimator" in flags
    assert flags["twolayer-fixed-point"] is True
    assert flags["replearn-fixed-point"] is True
    # per-suite timings and self-test residuals go to the manifest only;
    # every suite sees every closed form shifted by 1e-4
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    assert set(stages) == {s["suite"] for s in report["suites"]}
    assert all(stage["wall_s"] >= 0.0 for stage in stages.values())
    for suite in report["suites"]:
        assert stages[suite["suite"]]["perturbed_residual"] > suite["tol"], suite["suite"]
    assert "wall_s" not in _read(out + ".json")
    assert "perturbed_residual" not in _read(out + ".json")


def test_verify_fails_on_check_blind_to_shift(tmp_path, monkeypatch, capsys):
    # a residual divided by a huge scale passes any closed form, wrong or
    # right; the self-test must fail such a suite
    monkeypatch.setattr(oracles, "SUITES", [("blind", lambda seed: ([(1.0, 1.0, 1e9)], None),
                                              1e-8)])
    out = str(tmp_path / "blind")
    assert _run(["verify", "--out", out]) == 1
    (suite,) = json.loads(_read(out + ".json"))["suites"]
    assert suite["residual"] == 0.0 and suite["passed"] is False
    stage = json.loads(_read(out + ".manifest.json"))["stages"]["blind"]
    assert stage["perturbed_residual"] <= 1e-8
    assert "blind to a 0.0001 shift" in capsys.readouterr().out


def test_verify_fails_on_nonconverged_oracle(tmp_path, monkeypatch):
    # a zero residual does not count when the oracle behind it stopped early
    monkeypatch.setattr(oracles, "SUITES", [("stalled", lambda seed: ([(0.0, 0.0, 1.0)], False),
                                              1e-8)])
    out = str(tmp_path / "stalled")
    assert _run(["verify", "--out", out]) == 1
    (suite,) = json.loads(_read(out + ".json"))["suites"]
    assert suite["oracle_converged"] is False
    assert suite["passed"] is False


@pytest.mark.parametrize("args", [
    ["risk", "--r", "-1", "--d", "4", "--trials", "10"],
    ["risk", "--family", "gd2_reg", "--r", "0", "--d", "4", "--trials", "10"],
    ["growth", "--r", "-1", "--t-list", "10", "--seeds", "2"],
    ["dynamics", "--r", "0", "--t-tasks", "5"],
], ids=["risk", "risk-gd2_reg", "growth", "dynamics"])
def test_nonpositive_r_is_config_error(tmp_path, capsys, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run([*args, "--out", str(tmp_path / "x")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith("error: need finite r > 0, got ")
    assert not (tmp_path / "x.json").exists()


def _imports(path) -> set:
    """The modules and names that a source file's import statements bind."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {(node.module or "").split(".")[-1]} | {alias.name for alias in node.names}
    return names


def test_oracles_stay_apart_from_production():
    # oracles is test machinery: only the CLI imports it, to run the
    # verify suites, and the suites with their closed-form imports live there
    src = pathlib.Path(cli.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert {p.stem for p in paths} >= {"cli", "oracles", "risk", "twolayer"}
    for path in paths:
        if path.stem != "cli":
            assert "oracles" not in _imports(path), path.name
    cli_path = src / "cli.py"
    suite_only = {"gd_step", "gd_reg", "linear_flow_solve", "gd2_reg", "replearn_alpha"}
    assert _imports(cli_path) & suite_only == set()
    suites = [node.name for node in ast.walk(ast.parse(cli_path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")]
    assert suites == []


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise NotPsdError("ridge matrix not positive definite")

    monkeypatch.setitem(cli._RUNNERS, "risk", fail)
    assert _run(["risk", "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.startswith("error: numerical failure:")


def test_rounded_ridge_matrix_exit_code(tmp_path, capsys):
    # a real input reaches gd2_reg's positive-definiteness guard: at
    # alpha = kappa = 1e8, lam = 1e-12 the rounded ridge matrix is indefinite
    assert _run(["risk", "--family", "gd2_reg", "--alpha", "1e8", "--kappa", "1e8",
                 "--lam", "1e-12", "--d", "6", "--n", "2", "--trials", "20",
                 "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ridge matrix A0 S A0^T + lam I "
                          "not positive definite: smallest eigenvalue -")
    assert not (tmp_path / "x.json").exists()


def test_range_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a right-hand side outside range(M) is a numerical failure, not a config error
    def fail(cfg):
        linear_flow_solve(np.diag([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2), 1.0)

    monkeypatch.setitem(cli._RUNNERS, "risk", fail)
    assert _run(["risk", "--out", str(tmp_path / "x")]) == 3
    assert "b is not in range(M)" in capsys.readouterr().err


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    out = str(tmp_path / "env")
    assert _run(["dynamics", "--t-tasks", "5", "--out", out]) == 0
    env = json.loads(_read(out + ".manifest.json"))["environment"]
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["threads"]["OMP_NUM_THREADS"] == "3"
    assert "environment" not in _read(out + ".json")


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
