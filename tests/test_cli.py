import ast
import json
import math
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from metasep import cli, oracles
from metasep.cli import main
from metasep.convex import linear_flow_solve
from metasep.linalg import NumericalError
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


def test_dynamics_resolves_b_at_a_large_gap(tmp_path):
    # at kappa = 1e5 the gap c = 1e10 dwarfs 4 r^2, where the textbook flow
    # limit's b_bar = sqrt((root - c) / 2) cancelled to 0 and every b was
    # written as 0.0; b_1 is s_1 tau r / a_bar = s_1 * 0.3 * 1e-5
    out = str(tmp_path / "dyn")
    assert _run(["dynamics", "--kappa", "1e5", "--t-tasks", "3", "--out", out]) == 0
    _, s, _, b = _read(out + ".csv").splitlines()[2].split(",")
    assert float(b) == int(s) * 3e-6


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
# separation scores every lambda on the chi draws of master.child(0, idx)
# by gd_reg's trace recurrence (risk module docstring), and gd2_reg (nsearch-gd2_reg, the nonconvex half) on the spectrum of W
# and the normals z of the rank-one form (risk module docstring), not on
# designs
_GOLDEN = {
    "growth": (["growth", "--t-list", "1000,10000", "--seeds", "3", "--seed", "0"],
               {".csv": "48dd0f48e2aafc77ccea542418b6781436487dc958154c5ee7a1213a0127f00a",
                ".json": "f9fdfed54cc1cbf2f76a4a5801b260373c973a799eef764ee4789a09cd7ffa27"}),
    "dynamics": (["dynamics", "--t-tasks", "200", "--seed", "0"],
                 {".csv": "c0d38ccfb10f9f6312ccf2a6123f070e53507047ab5b857024d559875d85693b",
                  ".json": "c4940715faa69d2b95b3bdb1d92778d64541857622e5019c0816180ba4e2a856"}),
    "nsearch": (["nsearch", "--d", "6", "--lam", "0.5", "--epsilon", "0.6",
                 "--n-grid", "4,8,16,32", "--trials", "40", "--seed", "0"],
                {".json": "6b4076b76298b5f69f8788006ccbe82fd6f7b8e58929ede4f4585566c848d950"}),
    "nsearch-gd2_reg": (["nsearch", "--family", "gd2_reg", "--alpha", "10", "--d", "8",
                         "--epsilon", "0.3", "--n-grid", "4,8,16,32", "--trials", "40",
                         "--seed", "0"],
                        {".json": "def444b8fa6513c89028d7ae9f14fda1d872c08a53e80899e3b40e73766f2d84"}),
    "risk": (["risk", "--d", "6", "--n", "8", "--lam", "0.5", "--trials", "60", "--seed", "0"],
             {".json": "bd9778eae8520797e04d323ed9a1f28a4f768e092735a8a70a2d69db7ab8ce6f"}),
    "separation": (["separation", "--d", "6", "--epsilon", "0.5", "--trials", "40",
                    "--convex-grid", "4,8", "--nonconvex-grid", "4,8", "--alpha-target", "50",
                    "--lam-sweep", "0.5", "--seed", "0"],
                   {".json": "46a8a088c350122fd0831e4badaa45aecc076a3d5527aa15f8f2454ac664df4d"}),
    "verify": (["verify", "--seed", "0"],
               {".json": "176f3a266f22f54ef34a9571c053338d792615319adea4b1cae250e84194eded"}),
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
    with pytest.warns(RuntimeWarning) as record:
        assert _run(["risk", "--family", "gd_step", "--eta", "5", "--t0", "2000",
                     "--d", "6", "--n", "12", "--trials", "10", "--out", out]) == 0
    # the package's own stability warning is the only one; numpy's inf - inf
    # in the stderr is not leaked
    assert all("stability limit" in str(w.message) for w in record)

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
    # each scored algorithm's statistical efficiency, 1 / (stderr^2 wall_s),
    # from the stderr in the data file, and null where the stderr is 0: the
    # lam = 0 points, whose exact mean is finite at n = 4 and 8 (d = 6)
    stderrs = {f"convex/{p['n']}": [] for p in table["convex"]["sweep"][0]["points"]}
    for sweep in table["convex"]["sweep"]:
        for p in sweep["points"]:
            stderrs[f"convex/{p['n']}"].append(p["stderr"])
    for p in table["nonconvex"]["points"]:
        stderrs[f"nonconvex/{p['n']}"] = [p["stderr"]]
    for key, stage in stages.items():
        assert stage["efficiency"] == pytest.approx(
            [1.0 / (se * se * stage["wall_s"]) if se else None for se in stderrs[key]],
            rel=1e-12), key
        assert stage["exact"] == [label == "gd_reg(lam=0)" for label in stage["algorithms"]]
    assert stages["convex/4"]["algorithms"] == ["gd_reg(lam=0)", "gd_reg(lam=0.5)"]
    assert [p["stderr"] for p in table["convex"]["sweep"][0]["points"]] == [0.0, 0.0]
    assert [s["lam"] for s in table["convex"]["sweep"]] == [0.0, 0.5]
    assert "wall_s" not in _read(out + ".json")


@pytest.mark.parametrize("n, exact", [(4, False), (5, False), (6, True), (2, True)])
def test_risk_reports_an_infinite_exact_mean(tmp_path, capsys, n, exact):
    # gd_reg at lam = 0 with sigma > 0 has an infinite exact mean where
    # |n - d| <= 1: one stderr line says so, the finite trial mean is
    # written, and the run exits 0. Elsewhere the mean is exact
    out = str(tmp_path / "risk")
    assert _run(["risk", "--d", "4", "--n", str(n), "--trials", "40", "--out", out]) == 0
    rec = json.loads(_read(out + ".json"))
    assert math.isfinite(rec["mean"]) and (rec["stderr"] == 0.0) == exact
    assert json.loads(_read(out + ".manifest.json"))["exact"] is exact
    err = [line for line in capsys.readouterr().err.splitlines() if "infinite" in line]
    assert err == ([] if exact else [
        "risk: 1 of 1 estimates have an infinite exact mean (gd_reg at lam = 0, sigma > 0 "
        "and |n - d| <= 1); the finite mean of their trials is written"])


def test_searches_report_an_infinite_exact_mean(tmp_path, capsys):
    # the line counts the points of gd_reg at lam = 0 and |n - d| <= 1, not
    # those of a lam > 0 learner at the same n
    assert _run(["nsearch", "--d", "4", "--n-grid", "2,3,8", "--epsilon", "1e-9",
                 "--trials", "20", "--out", str(tmp_path / "ns")]) == 0
    assert _run(["separation", "--d", "6", "--trials", "20", "--lam-sweep", "0,0.5",
                 "--convex-grid", "6,7,12", "--nonconvex-grid", "4,8", "--alpha-target", "50",
                 "--out", str(tmp_path / "sep")]) == 0
    err = [line for line in capsys.readouterr().err.splitlines() if "infinite" in line]
    assert [line.split(" (")[0] for line in err] == [
        "nsearch: 1 of 3 estimates have an infinite exact mean",
        "separation: 2 of 6 estimates have an infinite exact mean"]


def test_risk_json_record(tmp_path):
    out = str(tmp_path / "risk")
    assert _run(["risk", "--d", "5", "--n", "8", "--lam", "1.0",
                 "--trials", "50", "--out", out]) == 0
    rec = json.loads(_read(out + ".json"))
    assert rec["alg"] == "gd_reg(lam=1)"
    assert rec["d"] == 5 and rec["n"] == 8 and rec["trials"] == 50
    assert rec["mean"] > 0.0 and rec["stderr"] > 0.0


def test_risk_worker_independence(tmp_path):
    # 64 trials are two 32-trial chunks: --workers 4 draws a gd_step's on
    # two threads, and a gd_reg runs inline at any worker count
    for family in ("gd_reg", "gd_step"):
        out1 = str(tmp_path / f"{family}-w1")
        out4 = str(tmp_path / f"{family}-w4")
        _run(["risk", "--family", family, "--d", "5", "--n", "8", "--trials", "64",
              "--workers", "1", "--out", out1])
        _run(["risk", "--family", family, "--d", "5", "--n", "8", "--trials", "64",
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


@pytest.mark.parametrize("w0, null_means", [("zero", 2), ("random:1e9", 4)])
def test_divergent_point_with_finite_trials_writes_null_stderr(tmp_path, capsys, w0, null_means):
    # eta = 10 is past the stability limit at every n: the first points have
    # inf trial risks, the later ones finite trials whose squares overflow
    # the stderr. Both write null and exit 0, with a finite mean where the
    # trials are finite; a 1e9 w0's init term overflows up to n = 40
    out = str(tmp_path / "ns")
    with pytest.warns(RuntimeWarning) as record:
        assert _run(["nsearch", "--family", "gd_step", "--eta", "10", "--trials", "4",
                     "--w0", w0, "--out", out]) == 0
    assert all("stability limit" in str(w.message) for w in record)
    points = json.loads(_read(out + ".json"))["points"]
    assert [p["n"] for p in points] == [5, 10, 20, 40, 80, 160]
    assert all(p["stderr"] is None for p in points)
    assert [p["mean"] for p in points[:null_means]] == [None] * null_means
    assert all(math.isfinite(p["mean"]) for p in points[null_means:])
    # each point's stability warning is on record in its stage and is still
    # passed on to the warning machinery, which writes it to stderr
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    assert [stages[str(p["n"])]["warnings"] for p in points] == [
        {"count": 1, "first": str(w.message)} for w in record]
    err = capsys.readouterr().err
    assert "mean/stderr written as null" in err
    assert (f"nsearch: the mean or stderr of {6 - null_means} of 6 estimates overflows "
            f"from finite trials (a divergent learner); written as null") in err


def test_divergent_nsearch_counts_nonfinite_per_stage(tmp_path):
    # the divergent gd_step of test_divergent_risk_writes_strict_json never
    # reaches epsilon, so every grid point is scored and counted
    out = str(tmp_path / "ns")
    with pytest.warns(RuntimeWarning) as record:
        assert _run(["nsearch", "--family", "gd_step", "--eta", "5", "--t0", "2000",
                     "--d", "6", "--n-grid", "12,24", "--trials", "10", "--out", out]) == 0
    assert all("stability limit" in str(w.message) for w in record)
    assert json.loads(_read(out + ".json"))["n_eps"] is None
    stages = json.loads(_read(out + ".manifest.json"))["stages"]
    assert {n: stage["nonfinite"] for n, stage in stages.items()} == {"12": 10, "24": 10}
    assert all(stage["efficiency"] == [None] for stage in stages.values())


def test_efficiency_is_null_unless_finite():
    # strict JSON has no inf or NaN: a zero, non-finite or underflowing
    # stderr^2 wall_s, and a quotient that overflows, give null
    assert cli._efficiency(0.5, 2.0) == 2.0
    for stderr, wall in ((0.0, 1.0), (0.5, 0.0), (math.inf, 1.0), (math.nan, 1.0),
                         (1e-200, 1.0), (1e-154, 0.01)):
        assert cli._efficiency(stderr, wall) is None, (stderr, wall)


def test_growth_without_seeds_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "g")
    assert _run(["growth", "--t-list", "100", "--seeds", "0", "--out", out]) == 2
    assert capsys.readouterr().err == "error: seeds must be >= 1, got 0\n"
    assert not os.path.exists(out + ".csv")


@pytest.mark.parametrize("t_list,shown", [("1000,1000", "[1000, 1000]"), ("", "[]")])
def test_growth_bad_t_list_is_config_error(tmp_path, capsys, monkeypatch, t_list, shown):
    # a repeated T would overwrite the first one's fraction and stage, and
    # an empty list gives an empty table: both fail before any meta-step
    def no_meta_step(*args):
        raise AssertionError("a meta-step ran")

    monkeypatch.setattr(cli, "reptile_spike", no_meta_step)
    assert _run(["growth", "--t-list", t_list, "--seeds", "3", "--out", str(tmp_path / "g")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: t_list must be non-empty with distinct values, got {shown}\n"
    assert os.listdir(tmp_path) == []


def test_zero_dimension_is_config_error(tmp_path, capsys):
    assert _run(["risk", "--d", "0", "--trials", "10", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: need d >= 1, got 0\n"


@pytest.mark.parametrize("args", [
    (["risk", "--n", "0", "--trials", "10"], "need n >= 1, got 0"),
    (["nsearch", "--n-grid", "0,4", "--trials", "10"], "n_grid must start at n >= 1, got [0, 4]"),
    (["risk", "--trials", "1"], "need trials >= 2, got 1"),
    (["risk", "--family", "bogus", "--trials", "10"], "unknown family 'bogus'")])
def test_zero_samples_is_config_error(tmp_path, capsys, args):
    # and the other sizes and names that leave the estimator's domain
    argv, message = args
    out = str(tmp_path / "n0")
    assert _run([*argv, "--d", "4", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out + ".json")


def test_negative_workers_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "w")
    assert _run(["risk", "--d", "4", "--trials", "10", "--workers", "-3", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: workers must be >= 0")
    assert not os.path.exists(out + ".json")
    args = cli.build_parser("risk").parse_args(["--workers", "0"])
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
    args = cli.build_parser("nsearch").parse_args(["--config", str(cfg_path),
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
    (["risk", "--w0", "random:1e200", "--n", "2"], "w0"),
    (["nsearch", "--family", "gd_step", "--w0", "random:1e200", "--n-grid", "2,4"], "w0"),
], ids=["gd2_reg-negative-alpha", "gd2_reg-alpha-overflow", "gd2_reg-negative-lam",
        "separation-alpha_target-overflow", "w0-nan", "w0-inf", "w0-text",
        "w0-norm-overflow", "nsearch-w0-norm-overflow"])
def test_out_of_range_value_is_config_error(tmp_path, capsys, args, key):
    # a value that leaves its formula's domain (alpha^1.5, the RepLearn task
    # count, the w0 scale, ||w0||^2) is a config error naming its key, not a
    # traceback or a divergent learner
    out = str(tmp_path / "x")
    assert _run([*args, "--d", "3", "--trials", "4", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args,message", [
    (["growth", "--t-list", "10,20", "--seeds", "2", "--kappa", "1e154"],
     "a_final is inf at T=10, seed index 0"),
    (["dynamics", "--kappa", "1e154"], "meta-step 1 is not finite: a = inf, b = 0.0"),
], ids=["growth", "dynamics"])
def test_overflowing_meta_step_is_numerical_failure(tmp_path, capsys, args, message):
    # at kappa = 1e154, kappa^2 is finite but the Reptile meta-step's
    # c^2 = (a^2 - b^2)^2 overflows; the run stops at the first non-finite a,
    # before it prints a result or writes a file
    assert _run([*args, "--out", str(tmp_path / "x")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: numerical failure: {message}\n"
    assert os.listdir(tmp_path) == []


def test_growth_worker_pool_edges(tmp_path, capsys):
    # growth maps each T's seeds over min(workers, seeds) forked processes:
    # 3 seeds over 2 workers (chunks of 2 and 1) and 1 seed at --workers 4
    # (the serial path) write the bytes of --workers 1; the overflow case at
    # --workers 2 stops with the serial run's line; no worker outlives main
    for seeds, workers in (("3", "2"), ("1", "4")):
        data = {}
        for w in ("1", workers):
            out = str(tmp_path / f"s{seeds}w{w}")
            assert _run(["growth", "--t-list", "100,200", "--seeds", seeds,
                         "--workers", w, "--out", out]) == 0
            assert multiprocessing.active_children() == []
            data[w] = [_read(out + ext) for ext in (".csv", ".json")]
        assert data["1"] == data[workers]
    capsys.readouterr()
    bad = tmp_path / "bad"
    bad.mkdir()
    assert _run(["growth", "--t-list", "10,20", "--seeds", "2", "--kappa", "1e154",
                 "--workers", "2", "--out", str(bad / "x")]) == 3
    assert multiprocessing.active_children() == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: numerical failure: a_final is inf at T=10, seed index 0\n"
    assert os.listdir(bad) == []


@pytest.mark.parametrize("args", [
    ["risk", "--family", "gd2_reg", "--lam", "1", "--d", "3", "--trials", "4"],
    ["nsearch", "--family", "gd2_reg", "--d", "3", "--trials", "4", "--n-grid", "2,4"],
    ["separation", "--d", "3", "--trials", "4", "--convex-grid", "2,4",
     "--nonconvex-grid", "2,4"],
    ["growth", "--t-list", "10", "--seeds", "2"],
    ["dynamics"],
], ids=["risk", "nsearch", "separation", "growth", "dynamics"])
def test_overflowing_kappa_is_config_error(tmp_path, capsys, args):
    # kappa^2 overflows above about 1.3e154: every command that takes kappa
    # rejects it before any computation (separation's convex half included),
    # with one stderr line naming kappa and no numpy warning or file
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run([*args, "--kappa", "1e155", "--out", str(tmp_path / "x")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: kappa must have kappa^2 finite, got 1e+155\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["growth", "--t-list", "10", "--seeds", "2", "--r", "1e154"],
    ["dynamics", "--r", "1e154"],
    ["dynamics", "--r", "1e155"],
], ids=["growth", "dynamics", "dynamics-r-1e155"])
def test_overflowing_r_is_config_error(tmp_path, capsys, args):
    # the meta-step's 4 r^2 overflows above about 6.7e153: such an r can never
    # run, so it is a config error that names r, not a NaN found later
    assert _run([*args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: r must be positive with 4 r^2 finite and nonzero, ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["growth", "--t-list", "10", "--seeds", "2", "--r", "1e-200", "--kappa", "1e-200"],
    ["dynamics", "--r", "1e-200", "--kappa", "1e-200"],
], ids=["growth", "dynamics"])
def test_underflowing_r_is_config_error(tmp_path, capsys, args):
    # below about 7.5e-163, 4 r^2 is 0, and at c = 0 the flow limit would
    # divide by a_bar = 0: a config error that names r, not a ZeroDivisionError
    assert _run([*args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "error: r must be positive with 4 r^2 finite and nonzero, got 1e-200\n")
    assert os.listdir(tmp_path) == []


_SMALL_SEPARATION = ["--d", "3", "--trials", "4", "--convex-grid", "2,4",
                     "--nonconvex-grid", "2,4"]


@pytest.mark.parametrize("args,key", [
    (["risk", "--sigma", "1e200", "--d", "3", "--trials", "4"], "sigma"),
    (["risk", "--r", "1e200", "--d", "3", "--trials", "4"], "r"),
    (["nsearch", "--family", "gd2_reg", "--r", "1e200", "--d", "3", "--trials", "4",
      "--n-grid", "2,4"], "r"),
    (["separation", "--sigma", "1e200", *_SMALL_SEPARATION], "sigma"),
    (["separation", "--r", "1e200", *_SMALL_SEPARATION], "r"),
], ids=["risk-sigma", "risk-r", "nsearch-gd2_reg-r", "separation-sigma", "separation-r"])
def test_overflowing_square_is_config_error(tmp_path, capsys, args, key):
    # an r whose 4 r^2 or a sigma whose sigma^2 overflows is rejected where
    # the instance is built, before either half of a run: one stderr line
    # naming the key, no traceback, progress line, numpy warning or file
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run([*args, "--out", str(tmp_path / "x")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args,message", [
    (["--lam-sweep", ""], "lam_sweep must be non-empty"),
    (["--convex-grid", ""], "convex_grid must be non-empty"),
    (["--convex-grid", "4,4"], "convex_grid must be strictly ascending, got [4, 4]"),
    (["--nonconvex-grid", ""], "nonconvex_grid must be non-empty"),
    (["--nonconvex-grid", "10,5"], "nonconvex_grid must be strictly ascending, got [10, 5]"),
    (["--lam-sweep", "0.1,0.1"], "lam_sweep must have distinct values, got [0.1, 0.1]"),
    (["--nonconvex-grid", "0,20"], "nonconvex_grid must start at n >= 1, got [0, 20]")])
def test_separation_checks_sweep_and_grids_first(tmp_path, capsys, args, message):
    # each key is named, and the run stops before any grid point prints
    assert _run(["separation", *_SMALL_SEPARATION, *args, "--out", str(tmp_path / "x")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_separation_overflowing_spike_fails_before_the_convex_half(tmp_path, capsys):
    # at kappa = 1e154, kappa^2 is finite but the RepLearn spike overflows:
    # separation builds the learned layer first, so it exits 3 before any
    # convex grid point runs or prints, and writes no file
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(["separation", *_SMALL_SEPARATION, "--kappa", "1e154",
                     "--out", str(tmp_path / "x")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "convex n=" not in err
    assert err == "error: numerical failure: spike and bulk must be finite, got inf and 1e+154\n"
    assert os.listdir(tmp_path) == []


def test_huge_first_layer_risk_is_finite(tmp_path, capsys):
    # alpha^4 overflows at 1e100, alpha^2 at 1e200 and kappa^4 at 1e150,
    # but the rank-one form never forms any of them: every run exits 0
    # with a finite risk, and no numpy warning is raised; 1e154 is about
    # the largest kappa whose kappa^2 is finite, which cli requires
    for key, value in (("alpha", "1e100"), ("alpha", "1e200"), ("kappa", "1e150"),
                       ("kappa", "1e154")):
        out = str(tmp_path / f"{key}{value}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _run(["risk", "--family", "gd2_reg", f"--{key}", value, "--lam", "1",
                         "--d", "3", "--trials", "4", "--out", out]) == 0
        rec = json.loads(_read(out + ".json"))
        assert math.isfinite(rec["mean"]) and math.isfinite(rec["stderr"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args,message", [
    ([], "gd_reg(lam=0) at n=3: 8 of 8 trial excess risks are not finite"),
    (["--family", "gd2_reg", "--alpha", "3"],
     "gd2_reg(lam=5.19615) at n=3: the mean or stderr of 8 finite trial excess risks overflows"),
], ids=["gd_reg-risk", "gd2_reg-stderr"])
def test_stable_learner_overflow_is_numerical_failure(tmp_path, capsys, args, message):
    # sigma^2 = 1.69e308 is finite, but the noise term of a stable learner's
    # risk, or the square in its stderr, overflows: only a gd_step past its
    # stability limit may write null, so this fails with no file
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(["risk", *args, "--sigma", "1.3e154", "--d", "3", "--n", "3",
                     "--trials", "8", "--out", str(tmp_path / "x")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: numerical failure: {message}") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_step_limit_warning_is_independent_of_workers(tmp_path):
    # the stability check runs once per estimate on the largest eigenvalue
    # of all trials, so every worker count warns once, with the same text
    # (64 trials, so --workers 2 and 4 draw two chunks on two threads)
    messages, records = set(), set()
    for workers in (1, 2, 4):
        out = str(tmp_path / f"w{workers}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run(["risk", "--family", "gd_step", "--eta", "100", "--d", "3",
                         "--trials", "64", "--workers", str(workers), "--out", out]) == 0
        assert len(caught) == 1 and "stability limit" in str(caught[0].message)
        messages.add(str(caught[0].message))
        records.add(_read(out + ".json"))
    assert len(messages) == 1 and len(records) == 1


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
    assert capsys.readouterr().err.startswith(
        "error: r must be positive with 4 r^2 finite and nonzero, got ")
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


def test_package_import_loads_no_submodule():
    # the package namespace binds only __version__, pyproject's version:
    # importing metasep loads none of its modules
    src = pathlib.Path(cli.__file__).parent
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "(.*)"$', pyproject, re.M).group(1)
    code = ("import json, sys, metasep; print(json.dumps([metasep.__version__, "
            "sorted(n for n in vars(metasep) if not n.startswith('__')) + "
            "sorted(m for m in sys.modules if m.startswith('metasep.'))]))")
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == [version, []]


def test_cli_import_loads_neither_twolayer_nor_oracles():
    # dynamics alone calls twolayer and verify alone oracles: each imports
    # it when it runs, so no other command pays for loading it
    src = pathlib.Path(cli.__file__).parent
    code = ("import json, sys, metasep.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('metasep.'))))")
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    loaded = set(json.loads(out))
    assert "metasep.cli" in loaded
    assert not loaded & {"metasep.twolayer", "metasep.oracles"}, loaded


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_help_lists_the_six_commands(capsys):
    assert _exit_code(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: metasep [-h] {dynamics,growth,separation,verify,risk,nsearch}")
    assert len(cli._OPTIONS) == 6


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["bogus", "--n", "5"], "argument command: invalid choice: 'bogus'"),
    (["--seed", "3", "risk"], "the following arguments are required: command"),
], ids=["none", "bogus", "bogus-with-flag", "flag-first"])
def test_no_command_is_usage_error(capsys, argv, message):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: metasep [-h] {") and message in err, err


@pytest.mark.parametrize("flag", ["--n", "--n-grid", "--nonconvex"],
                         ids=["other-command", "other-command-list", "abbreviation"])
def test_flag_outside_the_command_is_usage_error(tmp_path, capsys, flag):
    # --n and --n-grid are risk's and nsearch's; a prefix of one of
    # separation's flags does not stand for it
    out = str(tmp_path / "sep")
    assert _exit_code(["separation", flag, "5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: metasep separation ")
    assert f"unrecognized arguments: {flag} 5" in err
    assert os.listdir(tmp_path) == []


def test_command_help_lists_only_its_flags(capsys):
    assert _exit_code(["risk", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: metasep risk ")
    flags = set(re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", out, re.M))
    risk = {"--" + key.replace("_", "-") for key in cli._OPTIONS["risk"]}
    assert flags == {"--help", "--config"} | risk
    assert "--n-grid" not in out and "--t-list" not in out


@pytest.mark.parametrize("exc,code", [
    (NumericalError("ridge matrix not positive definite"), 3),
    (OverflowError("(34, 'Numerical result out of range')"), 3),
    (ZeroDivisionError("float division by zero"), 3),
    (ValueError("need n >= 1, got 0"), 2),
    (cli.ConfigError("seeds must be >= 1, got 0"), 2),
], ids=["NumericalError", "OverflowError", "ZeroDivisionError", "ValueError", "ConfigError"])
def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys, exc, code):
    # the exception's class alone picks the exit code: an ArithmeticError is
    # a numerical failure, any other ValueError a config error
    def fail(cfg):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "risk", fail)
    assert _run(["risk", "--out", str(tmp_path / "x")]) == code
    prefix = "error: numerical failure: " if code == 3 else "error: "
    assert capsys.readouterr().err == f"{prefix}{exc}\n"
    assert os.listdir(tmp_path) == []


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
